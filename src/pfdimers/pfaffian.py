"""Skew-symmetric matrices, their Pfaffians, and the adjacency construction.

Every Pfaffian takes one path.  ``_EdgeMatrix`` reads a skew matrix as
weighted edges in parts (a, b, re, im), entry (a, b) summing +w and (b, a)
-w for w = re + i*im, and prepares them once: the reverse Cuthill-McKee
order of the pattern, its sign, since Pf(P A P^T) = det(P) Pf(A), the
envelope of every reordered row (one past its last nonzero column), and the
cell of every edge in the reordered upper triangle with its signed parts,
integers over one denominator (exact) or floats.  ``pfaffian`` evaluates
one class of a prepared route, a ``_ClassMatrix``, or a ``SkewMatrix`` as
one class of its nonzero entries.

The classes of a route differ only in the signs of the flipped edges, whose
endpoints form the seam S.  With several classes, an even |S| <= n/2 and,
on a bipartite pattern, an interior holding as many indices of both colours,
S goes last in the order, after the RCM order of the interior, sorted by the
position of each index's first interior neighbour.  Pf(A) is the product of
the interior pivots and the Pfaffian of the Schur complement on S, and only
the cells inside S differ between classes.  So the interior is eliminated
once per route and arithmetic without them, and each class adds its own to
a copy of the complement and eliminates that; an interior index without a
nonzero interior pivot drops the split, but not the order.
Classes whose cell values repeat an earlier class's, possible only where
parallel edges with a flipped one share a cell, share its elimination.

A route twisted by omega (weight times i on each omega edge) is gauged if
omega(e) + c = x_u + x_v (mod 2) on every edge, for vertex bits x and c in
{0, 1}: Pf(D A D) = det(D) Pf(A) with D = diag(i^x_v), so the weights
w * i^(omega + x_u + x_v - c) are real and Pf(A) = i^t times their Pfaffian,
t = c*n/2 - sum(x) (mod 4) for every class (classes only negate weights).

One kernel, ``_eliminate``, does the skew elimination in both arithmetics.
It keeps the upper triangle, swaps two indices to bring the pivot next to
the pivot row (flipping the sign), and stops each row update at the
envelope of the two pivot rows, which grows with fill-in; split, an
interior row also updates its S columns, its panel, and the S rows, up to
the panel end of the pivot rows, which grows the same way.  In a band of
width w this costs O(n w^2); lattices have w at most about twice the side.
A row update, a_ij += f a_kj - g a_qj with f = a_qi / pivot and g = a_ki /
pivot, writes the row in place, one entry per step of a plain loop; where f
or g is 0 (a pivot row is zero in the row's column) it takes one product
per entry.  On a bipartite pattern with as many indices of both
colours (so, split, the interior and S each hold as many too), the order
alternates the colours in both parts and every update, pivot search and
swap steps by 2: a pivot pairs two colours, a swap two indices of one, and
a_ij += (a_qi a_kj - a_ki a_qj) / pivot reaches only j = i + 1 (mod 2), so
the entries within one colour stay 0 unread.  Mod p
the pivot is the first nonzero entry of the row; in floats (real ones for a
real class) it is the nearest entry of at least 1/PIVOT_RATIO = 1/4 of the
row's largest, threshold pivoting as in sparse direct solvers: a near pivot
swaps less and fills in less (a quarter fewer writes than the largest on the
benchmark lattices, with Z within 1e-13 of exact up to 40x40).  A largest
entry below the conditioning threshold warns, and ``FloatOutOfRange`` is
raised when the product of the pivots leaves the double range.

The exact backend is multimodular.  With L the least common denominator of
the weights' parts, Pf(L*A) = L^(n/2) Pf(A) = X + iY with integers X, Y.
The Pfaffian is an integer polynomial in the entries, and for a prime
p = 1 (mod 4) with s^2 = -1 (mod p), i -> s is a ring map Z[i] -> Z/p, so
elimination mod p with any nonzero pivot gives X + sY, and the root -s
gives X - sY (a real matrix needs only the first).  Since L*A is integral,
every prime gives a correct residue, including primes that divide L.  The
residues are combined by the Chinese remainder theorem until the modulus M
exceeds 2B + 1, B the Hadamard bound on |X + iY|: B^4 <= prod_i sum_j
|(L*A)_ij|^2, each |(L*A)_ij|^2 taken as the number of edges in its cell
times the sum of their squared moduli, so one B holds for every sign pattern.
X and Y are then the residues in (-M/2, M/2).  A route's classes stay
X + iY, so that a class sum divides once, by L^(n/2).  The primes are Proth
primes k*2^m + 1 of one width w >= _FLOOR per route, the fewest r of at
most _CAP bits whose product exceeds 2B + 1, and the least w for that r:
r(w - 1) >= B's bit length + 1.  So a bound below 2^28 takes one prime
below 2^30, a single CPython digit, and a wider one below the cap one
prime of its bit length + 2 bits.  A base a with a^((p-1)/2) = -1 (mod p)
proves p prime and gives s = a^((p-1)/4): no step is probabilistic.
"""

from __future__ import annotations

import cmath
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import isqrt, prod
from operator import or_
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import (
    FloatOutOfRange,
    IllConditionedWarning,
    LoopEdge,
    NotBlockForm,
    OddDimension,
    TooLarge,
)
from .exactnum import GaussianRational, over_lcd
from .kasteleyn import Orientation, _class_masks
from .surface_graph import CombinatorialMap, tree_side

EXPANSION_DIM_BOUND = 12
PIVOT_THRESHOLD = 1e-12
PIVOT_RATIO = 4  # a float pivot is at least 1/PIVOT_RATIO of its row's largest entry
_UNITS = (1, 1j, -1, -1j)  # i^k

Scalar = Union[GaussianRational, complex]
Real = Union[int, Fraction, float]
Parts = Tuple[int, int, Real, Real]  # (a, b, re, im) of one weighted edge


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
            if not (a + b).is_zero() if exact else abs(a + b) > 1e-9 * (1.0 + abs(a)):
                raise ValueError("matrix is not skew-symmetric")


def skew_matrix(rows: Sequence[Sequence[Scalar]], exact: bool) -> SkewMatrix:
    _check_skew(rows, exact)
    return SkewMatrix(tuple(tuple(r) for r in rows), exact)


def _exact(backend: str) -> bool:
    """True for the exact backend, False for float; ValueError otherwise."""
    if backend not in ("exact", "float"):
        raise ValueError(f"unknown backend {backend!r}")
    return backend == "exact"


def _map_edges(m: CombinatorialMap, K: Orientation, omega: Optional[int],
               gauge: Optional[Tuple[Sequence[int], int]] = None) -> List[Parts]:
    """(tail, head, re, im) of every edge under K, in the weight's type: the
    parts of its weight times i on omega = 1 edges, and with a gauge (x, c)
    times i^(x_u + x_v - c).  A negated weight is the weight on the reversed
    edge, so no weight is negated."""
    om = m.twist_bits() if omega is None else omega
    x, c = gauge or ([0] * m.vertex_count, 0)
    edges = []
    for e, edge in enumerate(m.edges):
        if edge.u == edge.v:
            raise LoopEdge(f"edge {e} is a loop; remove loops before building")
        a, b = K.arrow(m, e)
        k = ((om >> e) & 1) + x[edge.u] + x[edge.v] - c  # the power of i, -1..3
        if k & 2:
            a, b = b, a
        edges.append((a, b, 0, edge.weight) if k & 1 else (a, b, edge.weight, 0))
    return edges


def _gauge(m: CombinatorialMap, om: int) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Vertex bits x and a constant c in {0, 1} with om(e) + c = x_u + x_v
    (mod 2) on every edge, or None.  As om, like the twist cochain, represents
    the first Stiefel-Whitney class, c = 0 holds on an orientable map whenever
    c = 1 does, and never on one that is not; x is the ``tree_side`` of
    om + c, the side without vertex 0."""
    c = int(not m.orientable)
    x = tree_side(m, om ^ -c & ((1 << m.edge_count) - 1))
    return None if x is None else (x, c)


def build_adjacency(m: CombinatorialMap, K: Orientation,
                    omega: Optional[int] = None,
                    backend: str = "exact") -> SkewMatrix:
    """Weighted skew adjacency matrix of (graph, orientation, omega).

    Entry (j, k) sums, over the edges between j and k, the weight signed by
    the orientation and multiplied by i for omega = 1 edges.
    """
    n = m.vertex_count
    exact = _exact(backend)
    scalar = GaussianRational.of if exact else complex
    rows: List[List[Scalar]] = [[scalar(0)] * n for _ in range(n)]
    for a, b, re, im in _map_edges(m, K, omega):
        w = scalar(re, im)
        rows[a][b] = rows[a][b] + w
        rows[b][a] = rows[b][a] - w
    return SkewMatrix(tuple(tuple(r) for r in rows), exact)


# ---------------------------------------------------------------------------
# Pfaffian evaluation
# ---------------------------------------------------------------------------

def pfaffian(matrix: Union[SkewMatrix, "_ClassMatrix"]) -> Scalar:
    """Pfaffian by skew Gaussian elimination, O(n^3), of a ``SkewMatrix``, or
    of one class of a prepared route times its ``scale`` (``_ClassMatrix``)."""
    if isinstance(matrix, SkewMatrix):
        edges = [(i, j, x.real, x.imag) for i, row in enumerate(matrix.entries)
                 for j, x in enumerate(row[i + 1:], i + 1) if x]
        r = _EdgeMatrix(matrix.dimension, edges, matrix.exact)
        return r.pfaffian(0).scale(Fraction(1, r.scale)) if matrix.exact else r.pfaffian(0)
    return matrix.route.pfaffian(matrix.flips)


def _class_matrices(m: CombinatorialMap, K: Orientation, flips: Sequence[int],
                    backend: str, omega: Optional[int] = None) -> List["_ClassMatrix"]:
    """The classes of K flipped by subset sums of ``flips``, in
    ``enumerate_classes`` order, from one preparation of K's edges."""
    exact, n = _exact(backend), m.vertex_count
    masks = _class_masks(flips)
    om = m.twist_bits() if omega is None else omega
    gauge = _gauge(m, om) if om else None
    turn = (gauge[1] * n // 2 - sum(gauge[0])) % 4 if gauge else 0
    route = _EdgeMatrix(n, _map_edges(m, K, om, gauge), exact, reduce(or_, flips, 0), turn)
    return [_ClassMatrix(route, f, n, exact, route.scale) for f in masks]


class _EdgeMatrix:
    """The skew matrix of edges in parts, prepared for the Pfaffians of its
    sign patterns times i^turn and ``scale``: ``pfaffian(flips)`` negates the
    weight of edge e for every bit e of ``flips``; some pattern negates each bit of ``seam``."""

    def __init__(self, n: int, edges: Sequence[Parts], exact: bool, seam: int = 0,
                 turn: int = 0) -> None:
        if n % 2:
            raise OddDimension(f"dimension {n} is odd")
        ends = sorted({v for e, (a, b, _, _) in enumerate(edges) if seam >> e & 1 for v in (a, b)})
        position, self.end, self.panel, self.step, self.stop = _rcm_order(
            n, [(a, b) for a, b, _, _ in edges], ends)
        self.sign = _perm_sign(position)
        self.exact, self.shared, self.turn = exact, {}, turn
        if exact:  # every part an integer over L
            parts, lcd = over_lcd(x for _, _, re, im in edges for x in (re, im))
            self.scale = lcd ** (n // 2)
        else:
            parts, self.scale = [float(x) for _, _, re, im in edges for x in (re, im)], 1
        cells: Dict[Tuple[int, int], int] = {}
        self.slots = []  # (cell, parts signed for the reordered upper triangle)
        for (a, b, _, _), re, im in zip(edges, parts[::2], parts[1::2]):
            i, j = position[a], position[b]
            if i > j:
                i, j, re, im = j, i, -re, -im
            self.slots.append((cells.setdefault((i, j), len(cells)), re, im))
        self.cells, self.memo = list(cells), {}  # memo: Pf by cell values
        if exact:
            count = Counter(c for c, _, _ in self.slots)
            norms = [0] * n
            for c, r, i in self.slots:
                for v in self.cells[c]:
                    norms[v] += count[c] * (r * r + i * i)
            self.bound = isqrt(isqrt(prod(norms)))
            # r primes of w bits exceed 2^(r(w - 1)) >= 2^need > 2B + 1
            need = self.bound.bit_length() + 1
            r = -(-need // (_CAP - 1))
            self.bits = max(_FLOOR, -(-need // r) + 1)

    def pfaffian(self, flips: int) -> Scalar:
        re, im = self._cells(flips)
        key = (*re, *im)
        if key not in self.memo:
            self.memo[key] = self._value(re, im)
        return self.memo[key]

    def floor_residue(self, flips: int) -> int:
        """X + sY mod the first _FLOOR-bit prime p, s^2 = -1: 0 if the Pfaffian is."""
        return self._residue(*self._cells(flips), *_modulus(_FLOOR, 0))

    def _cells(self, flips: int) -> Tuple[list, list]:
        re, im = [0] * len(self.cells), [0] * len(self.cells)
        for e, (c, r, i) in enumerate(self.slots):
            if (flips >> e) & 1:
                re[c] -= r
                im[c] -= i
            else:
                re[c] += r
                im[c] += i
        return re, im

    def _value(self, re: list, im: list) -> Scalar:  # Pf of the pattern with these cells
        is_complex = any(im)
        if not self.exact:
            values = [complex(r, i) for r, i in zip(re, im)] if is_complex else re
            scale = max(map(abs, values), default=0.0)
            pf = complex(self._pf(values, 0j if is_complex else 0.0, 0, 0, scale))
            return (pf * _UNITS[self.turn] if self.turn else pf) + 0j  # no part is -0.0
        x = y = index = 0
        modulus = 1
        while modulus <= 2 * self.bound + 1:
            p, s = _modulus(self.bits, index)
            index += 1
            if is_complex:
                u, v = self._residue(re, im, p, s), self._residue(re, im, p, -s)
                half = (p + 1) // 2
                xp, yp = (u + v) * half % p, (v - u) * s * half % p
            else:
                xp, yp = self._residue(re, im, p, 0), 0
            c = pow(modulus, -1, p)
            x += modulus * ((xp - x) * c % p)
            y += modulus * ((yp - y) * c % p)
            modulus *= p
        x, y = (v - modulus if v > modulus // 2 else v for v in (x, y))
        return GaussianRational(*((x, y), (-y, x), (-x, -y), (y, -x))[self.turn])

    def _residue(self, re: List[int], im: List[int], p: int, s: int) -> int:
        """Pf mod p with i -> s."""
        return self._pf([(r + s * i) % p for r, i in zip(re, im)], 0, p, s)

    def _pf(self, values: list, zero, p: int, s: int, scale: float = 0.0):
        """Pf of the pattern with these cell values, mod p with i -> s if p."""
        n, stop, key = len(self.end), self.stop, (p, s, type(zero))
        if stop < n and key not in self.shared:
            a = self._upper(values, zero)
            a[stop:] = [[zero] * n for _ in range(stop, n)]  # cells of each pattern
            factor = _eliminate(a, list(self.end), stop, self.sign, p, scale, self.step,
                                list(self.panel))
            if factor:
                self.shared[key] = factor, [row[stop:] for row in a[stop:]]
            else:  # no interior pivot, or a float underflow: keep the order, unsplit
                self.stop = stop = n
                for i, j in self.cells:
                    self.end[i] = max(self.end[i], j + 1)
        if stop == n:
            return _eliminate(self._upper(values, zero), list(self.end), n, self.sign,
                              p, scale, self.step)
        factor, block = self.shared[key]
        block = [row[:] for row in block]
        for (i, j), x in zip(self.cells, values):
            if i >= stop:
                row, j = block[i - stop], j - stop
                row[j] = (row[j] + x) % p if p else row[j] + x
        return _eliminate(block, [n - stop] * (n - stop), n - stop, factor, p, scale,
                          self.step)

    def _upper(self, values: list, zero) -> list:
        n = len(self.end)
        a = [[zero] * n for _ in range(n)]
        for (i, j), x in zip(self.cells, values):
            a[i][j] = x
        return a


class _ClassMatrix(NamedTuple):
    """The sign pattern of ``route`` negating edge e for every bit e of ``flips``."""
    route: _EdgeMatrix
    flips: int
    dimension: int
    exact: bool
    scale: int  # L^(n/2), 1 on float: the class's Pfaffian is scale * Pf


def _eliminate(a: list, end: List[int], stop: int, factor, p: int = 0,
               scale: float = 0.0, step: int = 1, panel: List[int] = ()):
    """factor * Pf by skew elimination mod p, or over floats if p is 0.

    Row i of ``a`` holds the upper-triangle entries a[i][j], j > i, and is
    zero from column end[i] on; both are overwritten.  ``scale`` is the
    largest entry modulus, for the float conditioning warning.  Pivots are
    taken only before ``stop``, where end[i] <= stop; if stop < n, factor times
    them returns unchecked (0 if one is missing), a[stop:] the Schur complement,
    and row i < stop is zero from column panel[i] >= stop on (overwritten).
    With ``step`` 2 only entries a[i][j] with odd j - i are read and written.
    """
    n = len(a)
    result = factor
    split = stop < n
    for k in range(0, stop, 2):
        rk = a[k]
        q = k + 1
        if p:
            piv, e = q, end[k]
            while piv < e and not rk[piv]:
                piv += step
            if piv >= e:
                return 0
        else:
            mags = list(map(abs, rk[q:end[k]:step]))
            best = max(mags, default=0.0)
            if best == 0.0:
                return 0j
            if best < PIVOT_THRESHOLD * scale:
                warnings.warn("pivot below conditioning threshold",
                              IllConditionedWarning)
            piv = q + step * next((j for j, x in enumerate(mags) if PIVOT_RATIO * x >= best), 0)
        rq = a[q]
        if piv != q:
            # swap indices q and piv in the upper storage: Pf changes sign
            result = -result
            rk[q], rk[piv] = rk[piv], rk[q]
            for j in range(q + 1, piv, step):
                rj = a[j]
                rq[j], rj[piv] = -rj[piv], -rq[j]
                if rj[piv]:
                    end[j] = max(end[j], piv + 1)
            rq[piv] = -rq[piv]
            rp = a[piv]
            t = piv + 1
            rq[t:], rp[t:] = rp[t:], rq[t:]
            end[q], end[piv] = max(end[piv], t), max(end[q], t)
            if split:
                panel[q], panel[piv] = panel[piv], panel[q]
        pivot = rk[q]
        result = result * pivot % p if p else result * pivot
        # envelope: rows k and q vanish from column h on, and in the panel from ph on
        h = max(end[k], end[q])
        ph = max(panel[k], panel[q]) if split else stop
        if p and (ph > stop or h > q + 1):  # some row is updated
            inv = pow(pivot, -1, p)
        # Schur complement: a_ij += (a_qi * a_kj - a_ki * a_qj) / pivot
        for i in chain(range(q + 1, h), range(stop, ph)) if ph > stop else range(q + 1, h):
            f, g = rq[i], rk[i]
            if f or g:
                ri = a[i]
                f, g = (f * inv % p, g * inv % p) if p else (f / pivot, g / pivot)
                t = i + 1
                if i >= stop:
                    _combine(ri, rk, rq, range(t, ph, step), f, g, p)
                    continue
                _combine(ri, rk, rq, range(t, h, step), f, g, p)
                if end[i] < h:
                    end[i] = h
                if ph > stop:  # the panel columns of t's parity
                    _combine(ri, rk, rq, range(stop + (t - stop) % step, ph, step), f, g, p)
                    if panel[i] < ph:
                        panel[i] = ph
    if p:
        return result % p
    if stop == n and not (cmath.isfinite(result) and result):
        raise FloatOutOfRange(f"float Pfaffian {result} left the double range")
    return result


def _combine(row: list, b: list, d: list, cols: range, f, g, p: int) -> None:
    """row += f*b - g*d in place in columns ``cols``, mod p if p; one product if f or g is 0."""
    if f and g:
        if p:
            for j in cols:
                row[j] = (row[j] + f * b[j] - g * d[j]) % p
        else:
            for j in cols:
                row[j] = row[j] + f * b[j] - g * d[j]
        return
    f, b = (f, b) if f else (-g, d)
    if p:
        for j in cols:
            row[j] = (row[j] + f * b[j]) % p
    else:
        for j in cols:
            row[j] = row[j] + f * b[j]


def _rcm_order(n: int, pairs: Sequence[Tuple[int, int]], ends: Sequence[int] = ()
               ) -> Tuple[List[int], List[int], List[int], int, int]:
    """Position of every index, the envelope, the panel ends, the step and
    the stop of the pattern joined by ``pairs`` with seam ``ends``.  One
    breadth-first search orders and 2-colours every index, each component
    from an index of least degree, neighbours by increasing degree; isolated
    indices are components too.  The interior takes the reversed search
    order; the ends go last, from stop = n - |ends| on, by the position of
    each one's first interior neighbour, if there is an even number of them,
    at most n/2, and on a bipartite pattern the interior holds as many
    indices of both colours; else stop is n.  The step is 2 if the pattern is
    bipartite with n/2 indices of each colour, and both parts then alternate
    the colours, the first interior index's on even positions; else 1.  The
    envelope: one past the last joined column of each row, not counting the
    ends outside them (>= i + 1); the panel ends: the same inside them
    (>= stop, n on their rows).
    """
    adj: List[set] = [set() for _ in range(n)]
    # sorted, so that ties in degree break the same way for any edge order
    for a, b in sorted({(a, b) if a < b else (b, a) for a, b in pairs}):
        adj[a].add(b)
        adj[b].add(a)
    degree = [len(s) for s in adj]
    colour, bipartite, head = [-1] * n, True, 0
    order: List[int] = []  # the search reaches every index once, components in turn
    for start in sorted(range(n), key=degree.__getitem__):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        order.append(start)
        while head < len(order):
            v = order[head]
            for w in sorted(adj[v], key=degree.__getitem__):
                if colour[w] < 0:
                    colour[w] = 1 - colour[v]
                    order.append(w)
                elif colour[w] == colour[v]:
                    bipartite = False
            head += 1
    ones, stop = colour.count(1), n - len(ends)
    inner_ones = ones - sum(colour[v] for v in ends)
    if len(ends) % 2 or 2 * stop < n or bipartite and 2 * inner_ones != stop:
        stop = n
    last = dict.fromkeys(ends if stop < n else ())
    inner = [v for v in reversed(order) if v not in last]
    first = colour[inner[0]] if inner else 0
    step = 2 if bipartite and 2 * ones == n else 1
    position = [0] * n
    for i, o in enumerate(_alternate(inner, colour, first) if step == 2 else inner):
        position[o] = i
    if last:
        seam = sorted(last, key=lambda v: min([position[w] for w in adj[v] if w not in last],
                                              default=n))
        for i, o in enumerate(_alternate(seam, colour, first) if step == 2 else seam, stop):
            position[o] = i
    end, panel = [0] * n, [stop] * stop + [n] * (n - stop)
    for o, i in enumerate(position):  # a seam index's row reaches every neighbour
        near = adj[o] if o in last or not last else adj[o].difference(last)
        end[i] = max([i, *map(position.__getitem__, near)]) + 1
    for o in last:
        for w in adj[o]:
            i = position[w]
            if i < stop:
                panel[i] = max(panel[i], position[o] + 1)
    return position, end, panel, step, stop


def _alternate(part: List[int], colour: List[int], first: int) -> List[int]:
    """``part`` with its indices of colour ``first`` on even positions and the
    others on odd ones, each in their order; as many of both."""
    mixed = part[:]
    mixed[::2] = [v for v in part if colour[v] == first]
    mixed[1::2] = [v for v in part if colour[v] != first]
    return mixed


def _perm_sign(order: Sequence[int]) -> int:
    """Sign of the permutation i -> order[i]: -1 per cycle of even length."""
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


# prime widths in bits: the fewest primes of at most _CAP bits, all of one
# width; of caps 256, 320 and 512, 320 ran the exact 30x30 and 40x40
# lattices fastest in total when every prime above one took the cap.  A
# prime of _FLOOR = 30 bits is one CPython digit, where pow(x, -1, p) runs
# about five times as fast as at 80 bits.
_FLOOR, _CAP = 30, 320
_SMALL_PRIMES = tuple(q for q in range(3, 200, 2) if all(q % d for d in range(3, q, 2)))
_MODULI: Dict[Tuple[int, int], Tuple[int, int]] = {}


def _modulus(bits: int, index: int) -> Tuple[int, int]:
    """(p, s): the index-th Proth prime p = k * 2^m + 1 of ``bits`` bits,
    m = ceil(bits / 2), counting odd k down from the top, and the root s of
    s^2 = -1 (mod p) that certifies it.  Memoised in _MODULI."""
    if (bits, index) not in _MODULI:
        m = (bits + 1) // 2
        k = (_modulus(bits, index - 1)[0] >> m) - 2 if index else (1 << bits - m) - 1
        while not (s := _proth_root(k << m | 1)):
            k -= 2
        _MODULI[bits, index] = k << m | 1, s
    return _MODULI[bits, index]


def _proth_root(p: int) -> int:
    """s with s^2 = -1 (mod p) proving p prime, or 0.  Proth (1878): k * 2^m + 1,
    k odd and k < 2^m, is prime if a^((p-1)/2) = -1 for some a; m >= 2 gives s.
    A small factor, or t = a^((p-1)/2) not +-1, proves p composite; t = 1 on
    every base rejects p, which is safe."""
    m = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = k * 2^m, k odd
    if m < 2 or p >> m >= 1 << m or any(p % q == 0 for q in _SMALL_PRIMES):
        return 0
    for a in _SMALL_PRIMES:
        t = pow(a, p >> 1, p)
        if t != 1:
            return pow(a, p >> 2, p) if t == p - 1 else 0
    return 0


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
    """Determinant via LU elimination (same backends as the Pfaffian); the
    pivot is the first nonzero entry of the column, in floats the largest."""
    n = matrix.dimension
    a = [list(row) for row in matrix.entries]
    det = GaussianRational.of(1) if matrix.exact else 1.0 + 0j
    for col in range(n):
        if matrix.exact:
            piv = next((r for r in range(col, n) if a[r][col]), col)
        else:
            piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if not a[piv][col]:
            return det - det  # zero, in det's type
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
            det = -det
        det = det * a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] / a[col][col]
                for c in range(col, n):
                    a[r][c] = a[r][c] - f * a[col][c]
    return det


def bipartite_pfaffian(matrix: SkewMatrix) -> Scalar:
    """Pfaffian of a block matrix [[0, M], [-M^T, 0]] with n/2 x n/2 blocks,
    via det(M)."""
    n = matrix.dimension
    if n % 2:
        raise OddDimension(f"dimension {n} is odd")
    k = n // 2
    for lo, name in ((0, "first"), (k, "second")):
        if any(matrix[i, j] for i in range(lo, lo + k) for j in range(lo, lo + k)):
            raise NotBlockForm(f"nonzero entry inside the {name} colour block")
    mrows = tuple(tuple(matrix[i, k + j] for j in range(k)) for i in range(k))
    det = determinant(SkewMatrix(mrows, matrix.exact))
    if (k * (k - 1) // 2) % 2:
        det = -det
    return det
