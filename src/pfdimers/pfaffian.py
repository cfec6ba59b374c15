"""Skew-symmetric matrices, their Pfaffians, and the adjacency construction.

The exact backend is multimodular.  The Gaussian-rational matrix A is scaled
to Gaussian integers by the least common denominator L of its real and
imaginary parts, so Pf(L*A) = L^(n/2) Pf(A) = X + iY with integers X, Y.
The Pfaffian is an integer polynomial in the entries, and for a prime
p = 1 (mod 4) with s^2 = -1 (mod p), i -> s is a ring map Z[i] -> Z/p.  So
skew elimination mod p, with any nonzero pivot, gives X + sY mod p, and the
other root -s gives X - sY; together they recover X and Y mod p.  A real
matrix needs one evaluation per prime.  Since L*A is integral, every prime
gives a correct residue, including primes that divide L.  The residues are
combined by the Chinese remainder theorem until the modulus M exceeds
2B + 1, where B is the Hadamard bound, B^4 <= prod_i sum_j |(L*A)_ij|^2,
on |X + iY|.  Then X and Y are the
residues in (-M/2, M/2), exactly, and Pf(A) = (X + iY) / L^(n/2).  No step
is probabilistic: a prime on which a pivot vanishes still yields a correct
residue.

The float backend works over complex floats.  It first reorders the
indices by reverse Cuthill-McKee on the nonzero pattern (breadth-first from
a least-degree index of every component, isolated indices included) and
multiplies by the sign of that permutation, since Pf(P A P^T) = det(P) Pf(A).
It then eliminates in the upper triangle like the modular kernel, with
partial pivoting by magnitude within the pivot row (a swap of two indices
flips the sign), and stops every row update at the envelope: one past the
last nonzero column of the two pivot rows, tracked per row as fill-in grows.
Within a band of width w this costs O(n w^2) instead of O(n^3); in this
order, lattice class matrices have w at most about twice the side.  It
warns when a pivot falls below the conditioning threshold.  The modular
kernel keeps the natural order: the reordering did not speed it up on
lattice class matrices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import isqrt, lcm, prod
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    IllConditionedWarning,
    LoopEdge,
    NotBlockForm,
    OddDimension,
    TooLarge,
)
from .exactnum import GR_ZERO, GaussianRational
from .kasteleyn import Orientation
from .surface_graph import CombinatorialMap

EXPANSION_DIM_BOUND = 12
PIVOT_THRESHOLD = 1e-12

Scalar = Union[GaussianRational, complex]


@dataclass(frozen=True)
class SkewMatrix:
    entries: Tuple[Tuple[Scalar, ...], ...]
    exact: bool

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: Tuple[int, int]) -> Scalar:
        return self.entries[ij[0]][ij[1]]

    def to_float(self) -> "SkewMatrix":
        if not self.exact:
            return self
        rows = tuple(tuple(x.to_complex() for x in row) for row in self.entries)
        return SkewMatrix(rows, exact=False)

    def principal_minor(self, keep: Sequence[int]) -> "SkewMatrix":
        rows = tuple(tuple(self.entries[i][j] for j in keep) for i in keep)
        return SkewMatrix(rows, exact=self.exact)


def _check_skew(rows: Sequence[Sequence[Scalar]], exact: bool) -> None:
    n = len(rows)
    for i in range(n):
        for j in range(n):
            a, b = rows[i][j], rows[j][i]
            if exact:
                if not (a + b).is_zero():
                    raise ValueError("matrix is not skew-symmetric")
            else:
                if abs(a + b) > 1e-9 * (1.0 + abs(a)):
                    raise ValueError("matrix is not skew-symmetric")


def skew_matrix(rows: Sequence[Sequence[Scalar]], exact: bool) -> SkewMatrix:
    _check_skew(rows, exact)
    return SkewMatrix(tuple(tuple(r) for r in rows), exact)


def build_adjacency(m: CombinatorialMap, K: Orientation,
                    omega: Optional[int] = None,
                    backend: str = "exact") -> SkewMatrix:
    """Weighted skew adjacency matrix of (graph, orientation, omega).

    Entry (j, k) sums, over the edges between j and k, the weight signed by
    the orientation and multiplied by i for omega = 1 edges.
    """
    om = m.twist_bits() if omega is None else omega
    n = m.vertex_count
    exact = backend == "exact"
    zero: Scalar = GR_ZERO if exact else 0j
    rows: List[List[Scalar]] = [[zero] * n for _ in range(n)]
    for e, edge in enumerate(m.edges):
        if edge.u == edge.v:
            raise LoopEdge(f"edge {e} is a loop; remove loops before building")
        a, b = K.arrow(m, e)
        if exact:
            f = Fraction(edge.weight)
            w = GaussianRational(0, f) if (om >> e) & 1 else GaussianRational(f, 0)
        else:
            w = complex(edge.weight) * (1j if (om >> e) & 1 else 1.0)
        rows[a][b] = rows[a][b] + w
        rows[b][a] = rows[b][a] - w
    return SkewMatrix(tuple(tuple(r) for r in rows), exact)


# ---------------------------------------------------------------------------
# Pfaffian evaluation
# ---------------------------------------------------------------------------

def pfaffian(matrix: SkewMatrix) -> Scalar:
    """Pfaffian by skew Gaussian elimination, O(n^3)."""
    n = matrix.dimension
    if n % 2:
        raise OddDimension(f"dimension {n} is odd")
    if n == 0:
        return GaussianRational.of(1) if matrix.exact else 1.0 + 0j
    return _pf_exact(matrix) if matrix.exact else _pf_float(matrix)


def _pf_exact(matrix: SkewMatrix) -> GaussianRational:
    n = matrix.dimension
    lcd, re, im = _scaled_upper(matrix)
    is_complex = any(any(row) for row in im)
    # Hadamard: |Pf|^4 = |det|^2 <= prod_i sum_j |a_ij|^2 (row i of the
    # skew matrix holds the upper row i and the upper column i)
    sq = [[r * r + m * m for r, m in zip(rr, mr)] for rr, mr in zip(re, im)]
    bound = isqrt(isqrt(prod(sum(row) + sum(col) for row, col in zip(sq, zip(*sq)))))
    x = y = 0
    modulus = 1
    index = 0
    while modulus <= 2 * bound + 1:
        p, s = _modulus(index)
        index += 1
        if is_complex:
            u = _pf_mod([[(r + s * m) % p for r, m in zip(rr, mr)]
                         for rr, mr in zip(re, im)], p)
            v = _pf_mod([[(r - s * m) % p for r, m in zip(rr, mr)]
                         for rr, mr in zip(re, im)], p)
            half = (p + 1) // 2
            xp, yp = (u + v) * half % p, (v - u) * s * half % p
        else:
            xp, yp = _pf_mod([[r % p for r in rr] for rr in re], p), 0
        c = pow(modulus, -1, p)
        x += modulus * ((xp - x) * c % p)
        y += modulus * ((yp - y) * c % p)
        modulus *= p
    if x > modulus // 2:
        x -= modulus
    if y > modulus // 2:
        y -= modulus
    scale = lcd ** (n // 2)
    return GaussianRational(Fraction(x, scale), Fraction(y, scale))


def _scaled_upper(matrix: SkewMatrix) -> Tuple[int, List[List[int]], List[List[int]]]:
    """LCD of the parts, and the real and imaginary parts of LCD * a_ij for i < j.

    Entries with i >= j are 0.  Each distinct entry object is converted once,
    since matrices typically share one zero object across most entries.
    """
    upper = [row[i + 1:] for i, row in enumerate(matrix.entries)]
    distinct = {id(x): x for row in upper for x in row}
    lcd = lcm(*{f.denominator for x in distinct.values() for f in (x.re, x.im)})
    scaled = {key: (x.re.numerator * (lcd // x.re.denominator),
                    x.im.numerator * (lcd // x.im.denominator))
              for key, x in distinct.items()}
    pairs = [[scaled[id(x)] for x in row] for row in upper]
    re = [[0] * (i + 1) + [r for r, _ in row] for i, row in enumerate(pairs)]
    im = [[0] * (i + 1) + [m for _, m in row] for i, row in enumerate(pairs)]
    return lcd, re, im


_MODULUS_START = 2**80 - 3  # below 3.3e24, where _is_prime is deterministic
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MODULI: Dict[int, Tuple[int, int]] = {}


def _modulus(index: int) -> Tuple[int, int]:
    """(p, s): the index-th prime p = 1 (mod 4) below 2**80, counting down,
    and a root s of s^2 = -1 (mod p).  Memoised in _MODULI."""
    if index not in _MODULI:
        p = _modulus(index - 1)[0] - 4 if index else _MODULUS_START
        while not _is_prime(p):
            p -= 4
        c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        _MODULI[index] = p, pow(c, (p - 1) // 4, p)
    return _MODULI[index]


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _PRIME_BASES:
        t = pow(a, d, n)
        if t in (1, n - 1):
            continue
        for _ in range(r - 1):
            t = t * t % n
            if t == n - 1:
                break
        else:
            return False
    return True


def _pf_mod(a: List[List[int]], p: int) -> int:
    """Pf(a) mod p by skew elimination; reads and updates only a[i][j], i < j."""
    n = len(a)
    result = 1
    for k in range(0, n, 2):
        rk = a[k]
        q = k + 1
        piv = next((r for r in range(q, n) if rk[r]), -1)
        if piv < 0:
            return 0
        rq = a[q]
        if piv != q:
            # add index piv to index q (row and column): Pf is unchanged
            rr = a[piv]
            for j in range(q + 1, n):
                if j < piv:
                    rq[j] = (rq[j] - a[j][piv]) % p
                elif j > piv:
                    rq[j] = (rq[j] + rr[j]) % p
            rk[q] = rk[piv]
        pivot = rk[q]
        result = result * pivot % p
        inv = pow(pivot, -1, p)
        # Schur complement: a_ij += (a_qi * a_kj - a_ki * a_qj) / pivot
        for i in range(q + 1, n):
            f, g = rq[i], rk[i]
            if f or g:
                f = f * inv % p
                g = g * inv % p
                ri = a[i]
                t = i + 1
                ri[t:] = [(c + f * b - g * d) % p
                          for c, b, d in zip(ri[t:], rk[t:], rq[t:])]
    return result


def _pf_float(matrix: SkewMatrix) -> complex:
    """Pf by skew elimination over complex floats in reverse Cuthill-McKee
    order; reads and updates only a[i][j], i < j, left of the envelope."""
    n = matrix.dimension
    entries = matrix.entries
    scale = max(max(map(abs, row)) for row in entries)
    if scale == 0.0:
        return 0j
    order, end = _rcm_order(entries)
    take = itemgetter(*order)
    a = [[0j] * (i + 1) + list(take(entries[o])[i + 1:]) for i, o in enumerate(order)]
    sign = _perm_sign(order)
    result = 1.0 + 0j
    for k in range(0, n, 2):
        rk = a[k]
        q = k + 1
        mags = list(map(abs, rk[q:end[k]]))
        best = max(mags, default=0.0)
        if best == 0.0:
            return 0j
        if best < PIVOT_THRESHOLD * scale:
            warnings.warn("pivot below conditioning threshold",
                          IllConditionedWarning)
        rq = a[q]
        piv = q + mags.index(best)
        if piv != q:
            # swap indices q and piv in the upper storage: Pf changes sign
            sign = -sign
            rk[q], rk[piv] = rk[piv], rk[q]
            for j in range(q + 1, piv):
                rj = a[j]
                rq[j], rj[piv] = -rj[piv], -rq[j]
                if rj[piv]:
                    end[j] = max(end[j], piv + 1)
            rq[piv] = -rq[piv]
            rp = a[piv]
            t = piv + 1
            rq[t:], rp[t:] = rp[t:], rq[t:]
            end[q], end[piv] = max(end[piv], t), max(end[q], t)
        pivot = rk[q]
        result *= pivot
        # envelope: rows k and q vanish from column h on
        h = max(end[k], end[q])
        # Schur complement: a_ij += (a_qi * a_kj - a_ki * a_qj) / pivot
        for i in range(q + 1, h):
            f, g = rq[i], rk[i]
            if f or g:
                f /= pivot
                g /= pivot
                ri = a[i]
                t = i + 1
                ri[t:h] = [c + f * b - g * d
                           for c, b, d in zip(ri[t:h], rk[t:h], rq[t:h])]
                if end[i] < h:
                    end[i] = h
    return sign * result


def _rcm_order(entries: Sequence[Sequence[Scalar]]) -> Tuple[List[int], List[int]]:
    """Reverse Cuthill-McKee order of the nonzero pattern, and the envelope:
    one past the last nonzero column of each reordered row (at least i + 1).

    Every component is searched breadth-first from an index of least degree,
    neighbours by increasing degree; isolated indices are components too.
    """
    n = len(entries)
    adj: List[set] = [set() for _ in range(n)]
    for i, row in enumerate(entries):
        for j in compress(range(n), row):
            adj[i].add(j)
            adj[j].add(i)
    degree = [len(s) for s in adj]
    seen = [False] * n
    order: List[int] = []
    for start in sorted(range(n), key=degree.__getitem__):
        if seen[start]:
            continue
        seen[start] = True
        head = len(order)
        order.append(start)
        while head < len(order):
            for w in sorted(adj[order[head]], key=degree.__getitem__):
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
            head += 1
    order.reverse()
    position = [0] * n
    for i, o in enumerate(order):
        position[o] = i
    end = [max([i + 1] + [position[w] + 1 for w in adj[o]]) for i, o in enumerate(order)]
    return order, end


def _perm_sign(order: Sequence[int]) -> int:
    """Sign of a permutation: -1 per cycle of even length."""
    seen = [False] * len(order)
    sign = 1
    for start in range(len(order)):
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def pfaffian_expansion(matrix: SkewMatrix) -> Scalar:
    """Defining sum over matchings of the index set; cross-check oracle."""
    n = matrix.dimension
    if n % 2:
        raise OddDimension(f"dimension {n} is odd")
    if n > EXPANSION_DIM_BOUND:
        raise TooLarge(f"dimension {n} exceeds expansion bound {EXPANSION_DIM_BOUND}")
    one: Scalar = GaussianRational.of(1) if matrix.exact else 1.0 + 0j

    def rec(indices: Tuple[int, ...]) -> Scalar:
        if not indices:
            return one
        i = indices[0]
        rest = indices[1:]
        total = None
        for pos, j in enumerate(rest):
            term = matrix[i, j] * rec(rest[:pos] + rest[pos + 1:])
            if pos % 2:
                term = -term
            total = term if total is None else total + term
        return total

    return rec(tuple(range(n)))


def determinant(matrix: SkewMatrix) -> Scalar:
    """Determinant via LU elimination (same backends as the Pfaffian)."""
    n = matrix.dimension
    a = [list(row) for row in matrix.entries]
    if n == 0:
        return GaussianRational.of(1) if matrix.exact else 1.0 + 0j
    sign = 1
    if matrix.exact:
        det = GaussianRational.of(1)
        for col in range(n):
            piv = next((r for r in range(col, n) if not a[r][col].is_zero()), -1)
            if piv < 0:
                return GR_ZERO
            if piv != col:
                a[piv], a[col] = a[col], a[piv]
                sign = -sign
            det = det * a[col][col]
            for r in range(col + 1, n):
                if not a[r][col].is_zero():
                    f = a[r][col] / a[col][col]
                    for c in range(col, n):
                        a[r][c] = a[r][c] - f * a[col][c]
        return det.scale(sign)
    det_f = 1.0 + 0j
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) == 0.0:
            return 0j
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
            sign = -sign
        det_f *= a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / a[col][col]
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return sign * det_f


def _general_det(rows: Sequence[Sequence[Scalar]], exact: bool) -> Scalar:
    return determinant(SkewMatrix(tuple(tuple(r) for r in rows), exact))


def bipartite_pfaffian(matrix: SkewMatrix, k: Optional[int] = None) -> Scalar:
    """Pfaffian of a block matrix [[0, M], [-M^T, 0]] via det(M).

    ``k`` is the size of the first colour class (defaults to n/2).
    """
    n = matrix.dimension
    if n % 2:
        raise OddDimension(f"dimension {n} is odd")
    k = n // 2 if k is None else k
    if k != n - k:
        raise NotBlockForm("colour classes must have equal size")

    def iszero(x: Scalar) -> bool:
        return x.is_zero() if matrix.exact else abs(x) == 0.0

    for i in range(k):
        for j in range(k):
            if not iszero(matrix[i, j]):
                raise NotBlockForm("nonzero entry inside the first colour block")
    for i in range(k, n):
        for j in range(k, n):
            if not iszero(matrix[i, j]):
                raise NotBlockForm("nonzero entry inside the second colour block")
    mrows = [[matrix[i, k + j] for j in range(k)] for i in range(k)]
    det = _general_det(mrows, matrix.exact)
    if (k * (k - 1) // 2) % 2:
        det = -det
    return det
