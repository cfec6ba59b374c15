"""Partition-function assembly: the four Pfaffian routes.

Exact mode keeps every intermediate value in the Gaussian rationals (plus
sqrt(2) where eighth roots of unity appear) and asserts that the final value
is a nonnegative rational; float mode mirrors the computation in complex
floats.  The 2^(b1) Pfaffians of a run can be evaluated concurrently; the
final sum always uses a fixed class order, so results are reproducible.
"""

from __future__ import annotations

import cmath
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .errors import (
    CurveNotRealizable,
    NonRealResult,
    NotAClosedWalk,
    NotSimple,
    WrongSurfaceType,
)
from .exactnum import GR_ZERO, R2_ZERO, Root2, i_power, power_of_two_inverse_sqrt, zeta8_power
from .generators import TransverseCurve
from .homology import (
    HomologyBasis,
    Walk,
    check_simple_walk,
    cycle_basis,
    dot,
    walk_chain,
)
from .kasteleyn import Orientation, construct_kasteleyn, enumerate_classes
from .oracle import find_matching
from .pfaffian import build_adjacency, pfaffian
from .spin_quadratic import (
    arf,
    basis_enhancement,
    brown,
    matching_sign,
    n_mismatch,
    normalize_qB,
)
from .surface_graph import CombinatorialMap, FaceSet, classify, trace_faces, untwist

Number = Union[Fraction, float]


@dataclass(frozen=True)
class PartitionResult:
    value: Number
    method: str
    exact: bool
    terms: Tuple[Tuple[str, str], ...] = ()  # (class label, pfaffian repr)

    def __float__(self) -> float:
        return float(self.value)


def _map_parallel(fn: Callable, items: Sequence, threads: Optional[int]) -> List:
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _eps_label(idx: int, width: int) -> str:
    return "".join(str((idx >> i) & 1) for i in range(width)) or "0"


def _class_bits(idx: int, width: int) -> List[int]:
    """Class ``idx`` flips K by the dual cocycles phi_i, i in idx; as
    phi_i(C_j) = delta_ij, its enhancement is the base one shifted by these."""
    return [(idx >> j) & 1 for j in range(width)]


# ---------------------------------------------------------------------------
# Companion cycles and seed normalization
# ---------------------------------------------------------------------------

def companion_cycle(m: CombinatorialMap, curve: TransverseCurve,
                    faces: Optional[FaceSet] = None, side: str = "left") -> Walk:
    """A cycle running alongside the curve, with the curve to one side.

    An explicitly supplied companion is validated and returned.  Otherwise
    the walk is assembled from face-boundary arcs between consecutive
    crossings; beta curves traverse their designated crossing edge.
    """
    if curve.companion is not None:
        walk = curve.companion
        check_simple_walk(m, walk)
        crossings = dot(curve.cross, walk_chain(walk))
        want = 1 if curve.kind == "beta" else 0
        if crossings != want:
            raise CurveNotRealizable(
                f"companion crosses the curve {crossings} times, expected {want}")
        if curve.kind == "beta":
            if curve.crossing_edge is None or \
                    not any(h // 2 == curve.crossing_edge for h in walk):
                raise CurveNotRealizable("beta companion must use its crossing edge")
        return walk
    if curve.ordered_crossings is None:
        raise CurveNotRealizable("curve carries neither companion nor crossings")
    return _build_companion(m, curve, faces or trace_faces(m), side)


def _segments(face_steps: Sequence[Tuple[int, int]], e_in: int, e_out: int):
    """The two boundary arcs of a face between two crossed edges.

    Yields (start vertex implicit) arc lists; each runs forward along the
    face walk from just after the step on ``e_in`` to just before the step
    on ``e_out``.
    """
    pos_in = [i for i, (h, _) in enumerate(face_steps) if h // 2 == e_in]
    pos_out = [i for i, (h, _) in enumerate(face_steps) if h // 2 == e_out]
    if len(pos_in) != 1 or len(pos_out) != 1:
        raise CurveNotRealizable("crossed edge meets the passage face twice")
    L = len(face_steps)
    p, q = pos_in[0], pos_out[0]
    fwd = [face_steps[(p + 1 + k) % L][0] for k in range((q - p - 1) % L)]
    bwd_rev = [face_steps[(q + 1 + k) % L][0] for k in range((p - q - 1) % L)]
    bwd = [h ^ 1 for h in reversed(bwd_rev)]
    return fwd, bwd


def _build_companion(m: CombinatorialMap, curve: TransverseCurve,
                     faces: FaceSet, side: str) -> Walk:
    crossings = list(curve.ordered_crossings)
    if curve.kind == "beta":
        e = curve.crossing_edge
        if e is None or e not in crossings:
            raise CurveNotRealizable("beta curve needs its designated crossing edge")
        k = crossings.index(e)
        crossings = crossings[k:] + crossings[:k]
    if len(crossings) < 2:
        raise CurveNotRealizable("need at least two crossings to follow the curve")

    edge_to_faces = faces.edge_face_incidence(m.edge_count)

    def passage_face(e1: int, e2: int) -> int:
        common = set(edge_to_faces[e1]) & set(edge_to_faces[e2])
        if len(common) != 1:
            raise CurveNotRealizable(
                f"passage face between edges {e1} and {e2} is not unique")
        return common.pop()

    pairs = list(zip(crossings, crossings[1:] + crossings[:1]))
    options = []
    for e1, e2 in pairs:
        fi = passage_face(e1, e2)
        fwd, bwd = _segments(faces.faces[fi].steps, e1, e2)
        for seg in (fwd, bwd):
            for h in seg:
                if (curve.cross >> (h // 2)) & 1:
                    raise CurveNotRealizable("companion segment crosses the curve")
        options.append((fwd, bwd))

    def assemble(start_arc: Optional[int], first_pick: int):
        segs: List[List[int]] = []
        cur: Optional[int] = None
        if start_arc is not None:
            segs.append([start_arc])
            cur = m.arc_target(start_arc)
        for fwd, bwd in options:
            if cur is None:
                seg = (fwd, bwd)[first_pick]
                if not seg:
                    return None
            else:
                seg = next((s for s in (fwd, bwd)
                            if s and m.half_vertex(s[0]) == cur), None)
                if seg is None:
                    return None
            segs.append(list(seg))
            cur = m.arc_target(seg[-1])
        walk = tuple(h for s in segs for h in s)
        if not walk or m.arc_target(walk[-1]) != m.half_vertex(walk[0]):
            return None
        try:
            check_simple_walk(m, walk)
        except (NotAClosedWalk, NotSimple):
            return None
        return walk

    if curve.kind == "beta":
        e0 = crossings[0]
        for arc in (2 * e0, 2 * e0 + 1):
            walk = assemble(arc, 0)
            if walk is not None:
                return walk
    else:
        for pick in ((0, 1) if side == "left" else (1, 0)):
            walk = assemble(None, pick)
            if walk is not None:
                return walk
    raise CurveNotRealizable("no consistent companion found")


def normalize_orientation(m: CombinatorialMap, K: Orientation,
                          basis: HomologyBasis,
                          companions: Optional[Sequence[Walk]] = None) -> Orientation:
    """Flip K by dual cocycles until every companion cycle has an odd
    mismatch count.  Keeps the admissibility of K."""
    companions = list(basis.cycles) if companions is None else list(companions)
    flip = 0
    for walk, phi in zip(companions, basis.dual_cochains):
        if (n_mismatch(K, walk) + dot(flip, walk_chain(walk))) % 2 == 0:
            flip ^= phi
    return K.flipped(flip)


def _normalize_by_reference(m: CombinatorialMap, K: Orientation,
                            basis: HomologyBasis, D0: int,
                            targets: Sequence[int],
                            omega: Optional[int] = None) -> Orientation:
    """Flip K by dual cocycles until the matching-independent enhancement
    takes the prescribed basis values."""
    q = normalize_qB(m, basis_enhancement(m, K, D0, basis, omega), D0, basis)
    flip = 0
    for i, (have, want) in enumerate(zip(q.basis_values, targets)):
        if (want - have) % 4 == 2:
            flip ^= basis.dual_cochains[i]
        elif (want - have) % 4 != 0:
            raise NonRealResult("enhancement target unreachable by class flips")
    return K.flipped(flip)


# ---------------------------------------------------------------------------
# Exact/float scalar plumbing
# ---------------------------------------------------------------------------

def _re_im(pf, exact: bool) -> Tuple[Number, Number]:
    if exact:
        return pf.re, pf.im
    return pf.real, pf.imag


def _finish_abs(total: Number, genus: int, exact: bool, method: str,
                terms) -> PartitionResult:
    if exact:
        value = Fraction(abs(total), 2**genus)
    else:
        value = abs(total) / 2**genus
    return PartitionResult(value, method, exact, tuple(terms))


# ---------------------------------------------------------------------------
# The four formulas
# ---------------------------------------------------------------------------

def partition_orientable_practical(m: CombinatorialMap, *,
                                   curves: Optional[Sequence[TransverseCurve]] = None,
                                   basis: Optional[HomologyBasis] = None,
                                   backend: str = "exact",
                                   threads: Optional[int] = None) -> PartitionResult:
    """Single |sum of signed Pfaffians| over the 2^(2g) seed flips."""
    surface = classify(m)
    if not surface.orientable:
        raise WrongSurfaceType("map is not orientable")
    if m.vertex_count % 2:
        return PartitionResult(Fraction(0) if backend == "exact" else 0.0,
                               "practical", backend == "exact")
    if m.twist_bits():
        return partition_orientable_practical(
            untwist(m), curves=None, basis=None, backend=backend, threads=threads)
    faces = trace_faces(m)
    if curves is not None and basis is None:
        basis = _basis_for_curves(m, curves, faces)
    if basis is None:
        basis = cycle_basis(m, faces)
    g = surface.genus
    assert basis.rank == 2 * g
    K = construct_kasteleyn(m, faces=faces)
    if curves is not None and len(curves) == basis.rank:
        companions = [companion_cycle(m, cv, faces) for cv in curves]
        flip_cochains = [cv.cross for cv in curves]
        K = normalize_orientation(m, K, basis, companions)
    else:
        D0 = find_matching(m)
        if D0 is None:
            return PartitionResult(Fraction(0) if backend == "exact" else 0.0,
                                   "practical", backend == "exact")
        flip_cochains = list(basis.pd_cochains)
        K = _normalize_by_reference(m, K, basis, D0, [0] * basis.rank)

    exact = backend == "exact"
    n_eps = 1 << basis.rank

    def one(idx: int):
        mask = 0
        for i in range(basis.rank):
            if (idx >> i) & 1:
                mask ^= flip_cochains[i]
        return pfaffian(build_adjacency(m, K.flipped(mask), backend=backend))

    pfs = _map_parallel(one, range(n_eps), threads)
    total: Number = Fraction(0) if exact else 0.0
    terms = []
    for idx, pf in enumerate(pfs):
        sign = 1
        for i in range(basis.rank):
            for j in range(i + 1, basis.rank):
                if (idx >> i) & 1 and (idx >> j) & 1 and basis.gram[i][j]:
                    sign = -sign
        re, im = _re_im(pf, exact)
        if exact and im != 0:
            raise NonRealResult("orientable Pfaffian has an imaginary part")
        total = total + (re if sign > 0 else -re)
        terms.append((_eps_label(idx, basis.rank), str(pf)))
    return _finish_abs(total, g, exact, "practical", terms)


def partition_orientable_spin(m: CombinatorialMap, *,
                              D0: Optional[int] = None,
                              basis: Optional[HomologyBasis] = None,
                              backend: str = "exact",
                              threads: Optional[int] = None) -> PartitionResult:
    """Arf-invariant-signed sum over orientation classes."""
    surface = classify(m)
    if not surface.orientable:
        raise WrongSurfaceType("map is not orientable")
    exact = backend == "exact"
    zero = PartitionResult(Fraction(0) if exact else 0.0, "spin", exact)
    if m.vertex_count % 2:
        return zero
    if m.twist_bits():
        return partition_orientable_spin(untwist(m), D0=D0, basis=None,
                                         backend=backend, threads=threads)
    if D0 is None:
        D0 = find_matching(m)
    if D0 is None:
        return zero
    faces = trace_faces(m)
    if basis is None:
        basis = cycle_basis(m, faces)
    g = surface.genus
    K = construct_kasteleyn(m, faces=faces)
    classes = enumerate_classes(m, K, basis.dual_cochains)
    q0 = basis_enhancement(m, K, D0, basis)

    def one(idx: int):
        Kc = classes[idx]
        a = arf(q0.shifted(_class_bits(idx, basis.rank)))
        eps = matching_sign(m, Kc, D0)
        pf = pfaffian(build_adjacency(m, Kc, backend=backend))
        return a, eps, pf

    rows = _map_parallel(one, range(len(classes)), threads)
    total: Number = Fraction(0) if exact else 0.0
    terms = []
    for idx, (a, eps, pf) in enumerate(rows):
        re, im = _re_im(pf, exact)
        if exact and im != 0:
            raise NonRealResult("orientable Pfaffian has an imaginary part")
        s = eps * (-1 if a else 1)
        total = total + (re if s > 0 else -re)
        terms.append((_eps_label(idx, basis.rank), str(pf)))
    if exact:
        value = Fraction(total, 2**g)
        if value < 0:
            raise NonRealResult(f"negative spin sum {value}")
    else:
        value = total / 2**g
        if value < -1e-9 * (1 + abs(value)):
            raise NonRealResult(f"negative spin sum {value}")
        value = abs(value)
    return PartitionResult(value, "spin", exact, tuple(terms))


def partition_general_pin(m: CombinatorialMap, *,
                          omega: Optional[int] = None,
                          D0: Optional[int] = None,
                          basis: Optional[HomologyBasis] = None,
                          backend: str = "exact",
                          threads: Optional[int] = None) -> PartitionResult:
    """Brown-invariant-weighted sum over orientation classes.

    Works on every closed surface; the orientable case reduces to the spin
    formula.
    """
    exact = backend == "exact"
    zero = PartitionResult(Fraction(0) if exact else 0.0, "pin", exact)
    if m.vertex_count % 2:
        return zero
    if D0 is None:
        D0 = find_matching(m)
    if D0 is None:
        return zero
    om = m.twist_bits() if omega is None else omega
    faces = trace_faces(m)
    if basis is None:
        basis = cycle_basis(m, faces)
    b1 = basis.rank
    K = construct_kasteleyn(m, omega=om, faces=faces)
    classes = enumerate_classes(m, K, basis.dual_cochains)
    q0 = basis_enhancement(m, K, D0, basis, om)
    omega_d0 = dotcount(om, D0)

    def one(idx: int):
        Kc = classes[idx]
        beta = brown(q0.shifted(_class_bits(idx, b1)))
        eps = matching_sign(m, Kc, D0)
        pf = pfaffian(build_adjacency(m, Kc, omega=om, backend=backend))
        return beta, eps, pf

    rows = _map_parallel(one, range(len(classes)), threads)
    terms = [(_eps_label(i, b1), str(pf)) for i, (_, _, pf) in enumerate(rows)]
    if exact:
        buckets = [GR_ZERO] * 8
        for beta, eps, pf in rows:
            buckets[beta] = buckets[beta] + (pf if eps > 0 else -pf)
        total = sum((Root2.of(pf_sum) * zeta8_power(beta)
                     for beta, pf_sum in enumerate(buckets)), R2_ZERO)
        total = total * power_of_two_inverse_sqrt(b1)
        total = total * Root2.of(i_power(-omega_d0))
        if not total.b.is_zero() or total.a.im != 0:
            raise NonRealResult(f"pin sum is not real: {total}")
        value = total.a.re
        if value < 0:
            raise NonRealResult(f"negative pin sum {value}")
        return PartitionResult(value, "pin", True, tuple(terms))

    zeta = cmath.exp(1j * cmath.pi / 4)
    tot = 0j
    for beta, eps, pf in rows:
        tot += (zeta**beta) * eps * pf
    tot *= 2 ** (-b1 / 2)
    tot *= (-1j) ** (omega_d0 % 4)
    scale = max(1.0, abs(tot))
    if abs(tot.imag) > 1e-8 * scale:
        raise NonRealResult(f"pin sum is not real: {tot}")
    if tot.real < -1e-8 * scale:
        raise NonRealResult(f"negative pin sum {tot}")
    return PartitionResult(abs(tot.real), "pin", False, tuple(terms))


def dotcount(mask: int, chain: int) -> int:
    """Integer count of common set bits (twist count of a dimer set)."""
    return (mask & chain).bit_count()


def partition_nonorientable_practical(m: CombinatorialMap,
                                      curves: Sequence[TransverseCurve], *,
                                      basis: Optional[HomologyBasis] = None,
                                      backend: str = "exact",
                                      threads: Optional[int] = None) -> PartitionResult:
    """Real/imaginary-part combination over the 2^(2g) seed flips."""
    surface = classify(m)
    if surface.orientable:
        raise WrongSurfaceType("map is orientable; use the orientable routes")
    exact = backend == "exact"
    if m.vertex_count % 2:
        return PartitionResult(Fraction(0) if exact else 0.0,
                               "practical", exact)
    alphas = [c for c in curves if c.kind == "alpha"]
    betas = [c for c in curves if c.kind == "beta"]
    odd_chi = surface.kind == "nonorientable_odd_chi"
    if odd_chi and len(betas) != 1:
        raise CurveNotRealizable("odd Euler characteristic needs one beta curve")
    if not odd_chi and len(betas) != 2:
        raise CurveNotRealizable("even Euler characteristic needs two beta curves")
    cross_sum = 0
    for c in betas:
        cross_sum ^= c.cross
    if cross_sum != m.twist_bits():
        raise CurveNotRealizable(
            "beta crossings must reproduce the twist cochain exactly")
    faces = trace_faces(m)
    ordered = list(alphas) + list(betas)
    if basis is None:
        basis = _basis_for_curves(m, ordered, faces)
    g = surface.genus
    assert len(alphas) == 2 * g

    companions = [companion_cycle(m, cv, faces) for cv in ordered]
    K = construct_kasteleyn(m, faces=faces)
    K = normalize_orientation(m, K, basis, companions)

    n_eps = 1 << len(alphas)

    def one(idx: int):
        mask = 0
        for i in range(len(alphas)):
            if (idx >> i) & 1:
                mask ^= alphas[i].cross
        Ke = K.flipped(mask)
        pf = pfaffian(build_adjacency(m, Ke, backend=backend))
        if odd_chi:
            return pf, None
        Kp = Ke.flipped(betas[0].cross)
        return pf, pfaffian(build_adjacency(m, Kp, backend=backend))

    rows = _map_parallel(one, range(n_eps), threads)
    total: Number = Fraction(0) if exact else 0.0
    terms = []
    for idx, (pf, pfp) in enumerate(rows):
        sign = 1
        for i in range(len(alphas)):
            for j in range(i + 1, len(alphas)):
                if (idx >> i) & 1 and (idx >> j) & 1 and basis.gram[i][j]:
                    sign = -sign
        re, im = _re_im(pf, exact)
        if odd_chi:
            contrib = re + im
        else:
            re2, _ = _re_im(pfp, exact)
            contrib = im + re2
            terms.append((_eps_label(idx, len(alphas)) + "'", str(pfp)))
        total = total + (contrib if sign > 0 else -contrib)
        terms.append((_eps_label(idx, len(alphas)), str(pf)))
    return _finish_abs(total, g, exact, "practical", terms)


def _basis_for_curves(m: CombinatorialMap, curves: Sequence[TransverseCurve],
                      faces: FaceSet) -> HomologyBasis:
    from .homology import basis_from_cycles

    comps = [companion_cycle(m, cv, faces) for cv in curves]
    return basis_from_cycles(m, comps, faces)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def partition(m: CombinatorialMap, method: str = "auto", *,
              curves: Optional[Sequence[TransverseCurve]] = None,
              basis: Optional[HomologyBasis] = None,
              backend: str = "exact",
              threads: Optional[int] = None) -> PartitionResult:
    """Compute Z by the requested route; ``auto`` prefers the practical
    formulas and falls back to the pin route when curve data is missing."""
    surface = classify(m)
    if method == "oracle":
        from .oracle import partition_bruteforce

        value = partition_bruteforce(m)
        return PartitionResult(value if backend == "exact" else float(value),
                               "oracle", backend == "exact")
    if method == "spin":
        return partition_orientable_spin(m, basis=basis, backend=backend,
                                         threads=threads)
    if method == "pin":
        return partition_general_pin(m, basis=basis, backend=backend,
                                     threads=threads)
    if method == "practical":
        if surface.orientable:
            return partition_orientable_practical(m, curves=curves, basis=basis,
                                                  backend=backend, threads=threads)
        if curves is None:
            raise CurveNotRealizable("practical route needs curve data")
        return partition_nonorientable_practical(m, curves, basis=basis,
                                                 backend=backend, threads=threads)
    if method == "auto":
        try:
            if surface.orientable:
                return partition_orientable_practical(
                    m, curves=curves, basis=basis, backend=backend, threads=threads)
            if curves:
                return partition_nonorientable_practical(
                    m, curves, basis=basis, backend=backend, threads=threads)
        except CurveNotRealizable:
            pass
        return partition_general_pin(m, basis=basis, backend=backend,
                                     threads=threads)
    raise ValueError(f"unknown method {method!r}")
