"""Matching signs, quadratic enhancements, Arf and Brown invariants.

The Z4-valued enhancement attached to an admissible orientation K, a perfect
matching D and a Stiefel-Whitney representative omega is evaluated on a
vertex-simple oriented closed walk C as

    q([C]) = 2*(n(C) + l(C) + 1) + t(D on C) - t(C off D)   (mod 4),

where n(C) counts walk steps running against K, t(...) counts omega = 1
edges in the respective subset of C, and l(C) counts the vertices of C whose
matched edge leaves C on the positive side.  "Positive side" is chart-local:
the frame (walk direction, matched edge) is positively oriented in the
vertex's rotation chart, which for a vertex in the omega chart-swap set is
read with the opposite sign.  The chirality is fixed: a matched edge in the
clockwise sector from the incoming to the outgoing half-edge (the walker's
left in a counterclockwise chart) is on the positive side.  The
cross-validated partition functions pin this choice, and
``test_chirality_regression`` freezes it.  So l(C) is read off the same
corner half-edges as the push-off of C (``homology._sides``): those strictly
between arrival and departure, clockwise off the swap set and
counterclockwise on it; l counts the dimers among them.  With w = omega & C,
t(D on C) - t(C off D) = 2|w & D| - |w|.

Enhancements are stored through their values on a homology basis together
with the mod-2 intersection matrix; values on arbitrary classes follow from
the enhancement law q(x+y) = q(x) + q(y) + 2*(x.y).  ``brown`` and ``arf``
split the form into orthogonal rank-1 and hyperbolic summands in O(b1^3)
steps; the 2^b1 classes q + 2*xi then take one split per route plus the shift
law beta(q + 2*xi) = beta(q) - 2*q(xi*), O(1) per class (``shifted_browns``).
``gauss_sum`` is kept as the reference they are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import DegenerateForm, NotAMatching, NotOrientableForm
from .exactnum import GaussianRational, i_power
from .homology import (
    Gf2Span,
    HomologyBasis,
    Walk,
    _sides,
    check_simple_walk,
    dot,
    edges_of,
    walk_chain,
)
from .kasteleyn import Orientation, _omega_flip_set
from .pfaffian import _perm_sign
from .surface_graph import CombinatorialMap

# ---------------------------------------------------------------------------
# Matchings and matching signs
# ---------------------------------------------------------------------------

def check_matching(m: CombinatorialMap, D: int) -> None:
    covered = [0] * m.vertex_count
    for e in edges_of(D):
        edge = m.edges[e]
        if edge.u == edge.v:
            raise NotAMatching("a loop cannot carry a dimer")
        covered[edge.u] += 1
        covered[edge.v] += 1
    if any(c != 1 for c in covered):
        raise NotAMatching("edge set does not cover every vertex exactly once")


def matching_sign(m: CombinatorialMap, K: Orientation, D: int) -> int:
    """Sign of the matching's contribution to the Pfaffian expansion.

    Lists the dimers with endpoints ordered along K and takes the sign of
    the permutation (1..2n) -> (tail_1, head_1, ..., tail_n, head_n).
    """
    check_matching(m, D)
    return _perm_sign([v for e in sorted(edges_of(D)) for v in K.arrow(m, e)])


def n_mismatch(K: Orientation, walk: Walk) -> int:
    """Number of walk steps running against the orientation."""
    return sum(K.disagrees_with_arc(h) for h in walk)


# ---------------------------------------------------------------------------
# The enhancement formula
# ---------------------------------------------------------------------------

def ell_omega(m: CombinatorialMap, D: int, walk: Walk,
              omega: Optional[int] = None) -> int:
    """Vertices of the walk whose dimer leaves it on the positive side: the
    dimers among the half-edges that the push-off reads at the walk's corners
    (``homology._sides``), read clockwise off the chart-swap set and
    counterclockwise on it.  A dimer on the walk bounds its corner, so it is
    never among them."""
    check_simple_walk(m, walk)
    check_matching(m, D)
    return _ell(m, D, walk, _omega_flip_set(m, omega))


def _ell(m: CombinatorialMap, D: int, walk: Walk, swap: frozenset) -> int:
    """``ell_omega`` of a checked walk and matching, given the chart-swap set."""
    corners = _sides(m, walk, [m.arc_target(h) not in swap for h in walk])
    return sum((D >> (hc >> 1)) & 1 for hc in corners)


def quad_enhancement(m: CombinatorialMap, K: Orientation, D: int, walk: Walk,
                     omega: Optional[int] = None) -> int:
    """Evaluate the enhancement of (K, D, omega) on a simple closed walk."""
    check_simple_walk(m, walk)
    check_matching(m, D)
    return _quad(m, K, D, walk, omega, _omega_flip_set(m, omega))


def _quad(m: CombinatorialMap, K: Orientation, D: int, walk: Walk,
          omega: Optional[int], swap: frozenset) -> int:
    """``quad_enhancement`` of a checked walk and matching, given the
    chart-swap set; t(D on C) - t(C off D) = 2|w & D| - |w| for w = omega & C."""
    w = walk_chain(walk) & (m.twist_bits() if omega is None else omega)
    return (2 * (n_mismatch(K, walk) + _ell(m, D, walk, swap) + 1 + (w & D).bit_count())
            - w.bit_count()) % 4


# ---------------------------------------------------------------------------
# Enhancements on a basis; Arf and Brown invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticEnhancement:
    basis_values: Tuple[int, ...]            # Z4 values on the basis classes
    gram: Tuple[Tuple[int, ...], ...]        # mod-2 intersection matrix

    @property
    def rank(self) -> int:
        return len(self.basis_values)

    def evaluate(self, coords: Sequence[int]) -> int:
        """Value on the class with the given mod-2 coordinates."""
        val = 0
        idx = [i for i, c in enumerate(coords) if c & 1]
        for i in idx:
            val += self.basis_values[i]
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                val += 2 * self.gram[idx[a]][idx[b]]
        return val % 4

    def shifted(self, character: Sequence[int]) -> "QuadraticEnhancement":
        """Torsor action q -> q + 2*phi for a mod-2 character on the basis."""
        vals = tuple((v + 2 * (c & 1)) % 4
                     for v, c in zip(self.basis_values, character))
        return QuadraticEnhancement(vals, self.gram)


def extend_enhancement(basis_values: Sequence[int],
                       gram: Sequence[Sequence[int]]) -> QuadraticEnhancement:
    return QuadraticEnhancement(tuple(v % 4 for v in basis_values),
                                tuple(tuple(r) for r in gram))


def basis_enhancement(m: CombinatorialMap, K: Orientation, D: int, basis: HomologyBasis,
                      omega: Optional[int] = None) -> QuadraticEnhancement:
    """The enhancement's values on the basis cycles.  D is checked once; the
    cycles were, where the basis was built (``cycle_basis``, ``basis_from_cycles``)."""
    check_matching(m, D)
    return _enhancement(m, K, D, basis, omega)


def _enhancement(m: CombinatorialMap, K: Orientation, R: int, basis: HomologyBasis,
                 omega: Optional[int] = None) -> QuadraticEnhancement:
    """``basis_enhancement`` of an unchecked R that meets every vertex oddly."""
    swap = _omega_flip_set(m, omega)
    vals = tuple(_quad(m, K, R, w, omega, swap) for w in basis.cycles)
    return QuadraticEnhancement(vals, basis.gram)


def normalize_qB(m: CombinatorialMap, q_D: QuadraticEnhancement, D: int,
                 basis: HomologyBasis) -> QuadraticEnhancement:
    """Matching-independent enhancement: q_B = q_D + 2*(crossings with D)."""
    character = [dot(pd, D) for pd in basis.pd_cochains]
    return q_D.shifted(character)


def gauss_sum(q: QuadraticEnhancement) -> GaussianRational:
    """Sum of i**q(x) over all classes, exactly."""
    total = GaussianRational.of(0)
    for mask in range(1 << q.rank):
        coords = [(mask >> i) & 1 for i in range(q.rank)]
        total = total + i_power(q.evaluate(coords))
    return total


def _form_rows(q: QuadraticEnhancement) -> List[int]:
    """G' in bitmask rows: the gram with the diagonal x.x = q(x) (mod 2)."""
    return [sum(1 << j for j, g in enumerate(row) if g and j != i) | (v & 1) << i
            for i, (v, row) in enumerate(zip(q.basis_values, q.gram))]


def _split_brown(q: QuadraticEnhancement, degenerate: type) -> int:
    """Brown invariant by orthogonal splitting; raises ``degenerate`` when
    the form has a radical.

    A class is a bitmask over the basis and carries its image under G'
    (``_form_rows``), so x.y is the parity of ``x.vec & y.img``.
    """
    left = [(1 << i, img, v % 4)  # (class, image under the form, q value)
            for i, (img, v) in enumerate(zip(_form_rows(q), q.basis_values))]

    def dot(x, y) -> int:
        return (x[0] & y[1]).bit_count() & 1

    def add(x, y):
        return (x[0] ^ y[0], x[1] ^ y[1], (x[2] + y[2] + 2 * dot(x, y)) % 4)

    beta = 0
    while left:
        w = next((x for x in left if x[2] & 1), None)
        if w is not None:
            beta += 1 if w[2] == 1 else -1
            block = [(w, w)]  # (summand class, its dual within the summand)
        else:
            pair = next(((w, x) for w in left for x in left if dot(w, x)), None)
            if pair is None:
                raise degenerate(f"intersection form of rank {q.rank} is degenerate")
            w, x = pair
            beta += 4 if w[2] == x[2] == 2 else 0
            block = [(w, x), (x, w)]
        for v, _ in block:
            left.remove(v)
        for v, dual in block:
            left = [add(u, dual) if dot(u, v) else u for u in left]
    return beta % 8


def brown(q: QuadraticEnhancement) -> int:
    """Brown invariant beta with gauss_sum = 2**(b1/2) * exp(i*pi/4)**beta."""
    return _split_brown(q, DegenerateForm)


def shifted_browns(q: QuadraticEnhancement, beta: int) -> List[int]:
    """Brown invariants of q + 2*xi for all 2^r characters xi, indexed by the
    bits xi(C_i), from beta = beta(q) (``brown(q)``, or ``4 * arf(q)`` if even).

    beta(q + 2*xi) = beta - 2*q(xi*) (mod 8) (Brown 1972; Kirby and Taylor
    1990) with xi* = sum of g_i = G'^-1 e_i over i in xi; q(xi*) is q*(xi) for
    the form q* with values q(g_i) and gram G'^-1, filled in by lowest bit i:
    q*(xi) = q*(xi - e_i) + q*(e_i) + 2 * g_i.(xi - e_i)."""
    r = q.rank
    span = Gf2Span()
    for i, row in enumerate(_form_rows(q)):
        if not span.add(row, 1 << i):
            raise DegenerateForm(f"intersection form of rank {r} is degenerate")
    inverse = [span.solve(k) for k in range(r)]  # g_k; G'^-1 is symmetric
    duals = [q.evaluate([(g >> j) & 1 for j in range(r)]) for g in inverse]
    betas = [beta % 8]
    for idx in range(1, 1 << r):
        i = (idx & -idx).bit_length() - 1
        rest = idx ^ (1 << i)
        betas.append((betas[rest] - 2 * duals[i] - 4 * (inverse[i] & rest).bit_count()) % 8)
    return betas


def arf(q: QuadraticEnhancement) -> int:
    """Arf invariant of an orientable (even-valued) enhancement."""
    if any(v % 2 for v in q.basis_values):
        raise NotOrientableForm("enhancement takes odd values")
    if any(q.gram[i][i] for i in range(q.rank)):
        raise NotOrientableForm("intersection form has odd diagonal")
    return _split_brown(q, NotOrientableForm) // 4
