"""Admissible edge orientations via face curvature on the orientation cover.

An orientation stores one direction bit per edge: bit 0 directs edge ``e``
from the anchor of half-edge ``2e`` to the anchor of ``2e+1`` (the stored
endpoint order), bit 1 reverses it.  The canonical orientation directs
every non-loop edge from its lower-indexed endpoint.

The curvature of a face is computed on one lift of its boundary walk: writing
``n`` for the number of steps traversed against the orientation and ``m`` for
the number of steps whose two endpoint lifts both carry the minus label, the
curvature is ``n + m + 1 (mod 2)``.  An orientation is admissible when every
face has curvature zero; such orientations exist iff the vertex count is
even, and their equivalence classes (modulo flipping all edges at a vertex)
form a torsor under the group of cocycle classes.

Curvature is affine in the orientation bits, so ``construct_kasteleyn``
solves "curvature 0 on every face" as one GF(2) system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import OddVertexCount, TooLarge
from .homology import Gf2Span, coboundary_preimage, is_coboundary, parity, vertex_coboundary
from .surface_graph import CombinatorialMap, kept

EXHAUSTIVE_EDGE_BOUND = 20


@dataclass(frozen=True)
class Orientation:
    bits: int
    edge_count: int

    def direction(self, e: int) -> int:
        return (self.bits >> e) & 1

    def arrow(self, m: CombinatorialMap, e: int) -> Tuple[int, int]:
        edge = m.edges[e]
        return (edge.v, edge.u) if self.direction(e) else (edge.u, edge.v)

    def flipped(self, mask: int) -> "Orientation":
        return Orientation(self.bits ^ mask, self.edge_count)

    def disagrees_with_arc(self, h: int) -> int:
        """1 if the arc ``h`` runs against this orientation."""
        return (self.bits >> (h >> 1) ^ h) & 1


def canonical_orientation(m: CombinatorialMap) -> Orientation:
    """Every non-loop edge from lower to higher vertex index; loops by
    half-edge order."""
    bits = 0
    for e, edge in enumerate(m.edges):
        if edge.u > edge.v:
            bits |= 1 << e
    return Orientation(bits, m.edge_count)


def _omega_flip_set(m: CombinatorialMap, omega: Optional[int]) -> frozenset:
    """The chart-swap vertex set of an omega cochain.

    ``omega`` must differ from the twist cochain by a vertex coboundary (both
    then represent the first Stiefel-Whitney class); the returned set is the
    flip support, kept per omega, empty when omega is None or the twist cochain.
    """
    tw = m.twist_bits()
    if omega is None or omega == tw:
        return frozenset()
    s = kept(m, ("swap", omega), coboundary_preimage, omega ^ tw)
    if s is None:
        raise ValueError("omega does not represent the first Stiefel-Whitney class")
    return frozenset(s)


def _face_parities(m: CombinatorialMap, omega: Optional[int]) -> List[Tuple[int, int]]:
    """(fold, const) per face, with curvature parity(K.bits & fold) ^ const.

    fold is the face's ``odd_edge_mask``; const collects the step parity of
    arcs on half 1 (they reverse the stored direction), the minus-minus label
    count and one.  An edge met twice cancels in the fold and in the
    mismatch count alike.
    """
    swap = _omega_flip_set(m, omega)
    table = []
    for face in m.faces.faces:
        const = 1
        labels = []
        for h, s in face.steps:
            const ^= h & 1
            labels.append(s ^ (m.half_vertex(h) in swap))
        for a, b in zip(labels, labels[1:] + labels[:1]):
            const ^= a & b
        table.append((face.odd_edge_mask(), const))
    return table


def face_curvatures(m: CombinatorialMap, K: Orientation,
                    omega: Optional[int] = None) -> List[int]:
    """Curvature bit of every face."""
    return [parity(K.bits & fold) ^ const for fold, const in _face_parities(m, omega)]


def curvature(m: CombinatorialMap, K: Orientation, face_index: int,
              omega: Optional[int] = None) -> int:
    """Curvature bit of one face."""
    return face_curvatures(m, K, omega)[face_index]


@dataclass(frozen=True)
class CurvatureReport:
    per_face: Tuple[int, ...]
    vertex_count: int

    @property
    def total_parity(self) -> int:
        return sum(self.per_face) & 1

    def consistent(self) -> bool:
        return self.total_parity == self.vertex_count % 2


def curvature_report(m: CombinatorialMap, K: Orientation,
                     omega: Optional[int] = None) -> CurvatureReport:
    return CurvatureReport(tuple(face_curvatures(m, K, omega)), m.vertex_count)


def is_kasteleyn(m: CombinatorialMap, K: Orientation,
                 omega: Optional[int] = None) -> bool:
    return not any(face_curvatures(m, K, omega))


def construct_kasteleyn(m: CombinatorialMap,
                        omega: Optional[int] = None) -> Orientation:
    """Zero-curvature orientation: one GF(2) solve of the face system.

    Face f asks parity(K.bits & fold_f) = const_f.  The face boundaries sum
    to zero, so the one dependent row is consistent exactly when the vertex
    count is even.  K is the solution that is zero off the echelon's pivots,
    a function of the map and omega alone.
    """
    if m.vertex_count % 2:
        raise OddVertexCount("no admissible orientation on an odd vertex count")
    table = _face_parities(m, omega)
    span = Gf2Span()
    for fold, const in table:
        span.add(fold, const)
    K = Orientation(span.solve(), m.edge_count)
    assert not any(parity(K.bits & fold) ^ const for fold, const in table)
    return K


def _class_masks(flips: Sequence[int]) -> List[int]:
    """Every subset sum of ``flips``, subset ``I`` at index ``sum(2**i, i in I)``."""
    masks = [0]
    for f in flips:  # the subsets with flip i follow those of the flips before it
        masks += [mask ^ f for mask in masks]
    return masks


def enumerate_classes(m: CombinatorialMap, K: Orientation,
                      dual_cochains: Sequence[int]) -> List[Orientation]:
    """One representative per orientation class: flip K by every subset sum
    of the given cocycles.  Subset ``I`` sits at index ``sum(2**i, i in I)``.
    """
    return [K.flipped(mask) for mask in _class_masks(dual_cochains)]


def equivalent(m: CombinatorialMap, K1: Orientation, K2: Orientation) -> bool:
    """True iff the orientations differ by vertex flips."""
    return is_coboundary(m, K1.bits ^ K2.bits)


def count_all_kasteleyn(m: CombinatorialMap,
                        omega: Optional[int] = None,
                        bound: int = EXHAUSTIVE_EDGE_BOUND) -> int:
    """Exhaustively count admissible orientations (small maps only)."""
    if m.edge_count > bound:
        raise TooLarge(f"{m.edge_count} edges exceeds exhaustive bound {bound}")
    table = _face_parities(m, omega)
    return sum(not any(parity(bits & fold) ^ const for fold, const in table)
               for bits in range(1 << m.edge_count))


def omega_change(m: CombinatorialMap, omega: int, K: Orientation,
                 v: int) -> Tuple[int, Orientation]:
    """Carry an admissible orientation across the move omega -> omega + delta(v).

    Reverses K exactly on the edges at ``v`` carrying omega = 1; the result is
    admissible for the new cochain.
    """
    dv = vertex_coboundary(m, v)
    return omega ^ dv, K.flipped(dv & omega)
