"""Closed-form dimer counts of unit-weight square lattices, for ground truth
above the brute-force oracle bound.

Kasteleyn (Physica 27, 1961), m x n torus with m, n even:
    Z = (P01 + P10 + P11 - P00) / 2,
    P_tu = prod_{j<m, l<n} (4 sin^2(pi (2j + t) / m) + 4 sin^2(pi (2l + u) / n))^(1/4),
and P00 = 0.  Temperley-Fisher (Phil. Mag. 6, 1961), m x n planar grid:
    Z = prod_{1<=j<=m, 1<=l<=n} (4 cos^2(pi j / (m + 1)) + 4 cos^2(pi l / (n + 1)))^(1/4).

Both are evaluated in ``decimal`` at about 60 digits beyond Z's, so that
rounding gives Z exactly.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext


def _pi() -> Decimal:
    """pi at the context's precision (the recipe of the ``decimal`` docs)."""
    with localcontext() as ctx:
        ctx.prec += 2
        last, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != last:
            last = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _sin2(x: Decimal, pi: Decimal) -> Decimal:
    """sin(x)^2 by its Taylor series, after reducing x into [0, pi/2]."""
    x = abs(x) % pi
    x = min(x, pi - x)
    term, total, k, x2 = x, x, 1, x * x
    while True:
        term = -term * x2 / ((2 * k) * (2 * k + 1))
        if total + term == total:
            return total * total
        total += term
        k += 1


def _product(factors) -> Decimal:
    total = Decimal(1)
    for f in factors:
        total *= f.sqrt().sqrt()
    return total


def _digits(m: int, n: int) -> int:
    # log10 Z is about m n G / (pi ln 10), G Catalan's constant, and 60 more
    return int(m * n * 0.916 / (math.pi * math.log(10))) + 60


def torus(m: int, n: int) -> int:
    """Perfect matchings of the m x n torus, m and n even and at least 4."""
    with localcontext() as ctx:
        ctx.prec = _digits(m, n)
        pi = _pi()
        terms = []
        for t, u in ((0, 1), (1, 0), (1, 1)):
            sm = [4 * _sin2(pi * (2 * j + t) / m, pi) for j in range(m)]
            sn = [4 * _sin2(pi * (2 * l + u) / n, pi) for l in range(n)]
            terms.append(_product(a + b for a in sm for b in sn))
        return int((sum(terms) / 2).to_integral_value())


def planar(m: int, n: int) -> int:
    """Perfect matchings of the m x n grid."""
    with localcontext() as ctx:
        ctx.prec = _digits(m, n)
        pi = _pi()
        half = pi / 2  # cos^2(x) = sin^2(pi/2 - x)
        cm = [4 * _sin2(half - pi * j / (m + 1), pi) for j in range(1, m + 1)]
        cn = [4 * _sin2(half - pi * l / (n + 1), pi) for l in range(1, n + 1)]
        return int(_product(a + b for a in cm for b in cn).to_integral_value())
