"""Partition-function assembly: one class sum on two skeletons.

Every formula is one sum Z = sum_xi w_xi * Pf(A^{K_xi}) over the orientation
classes that flip an admissible K by subset sums of a list of cocycles, and
every weight is an eighth root of unity over a power of sqrt(2),
w_xi = exp(i*pi*e_xi/4) / sqrt(2)^s with every e_xi = s (mod 2).  With
o = s mod 2 that is i^((e_xi-o)/2) * (1+i)^o / 2^((s+o)/2), so
``_class_sum``, the one weight rule, sums the class Pfaffians in class order
into four buckets by the power of i, turns each by its power, applies
(1+i)^o and divides once.  Exact class Pfaffians are Gaussian integers
L^(n/2) Pf(A^{K_xi}), L the weights' least common denominator: integer
buckets, one division, by L^(n/2) * 2^((s+o)/2).  Both skeletons build the
faces (``m.faces``), a homology basis and K once.

``_enhanced_sum`` carries the pin and spin formulas.  The pin route weights
class xi by exp(i*pi*beta/4) * eps_xi * i^(-omega(D0)) with beta the Brown
invariant of its enhancement and divides by 2^(b1/2); the spin route is the
same sum at omega = 0 with beta = 4 * Arf on the orientable map as given,
twists and all.  Both take one O(b1^3) split per route plus the shift law
(``shifted_browns``) for the betas.  So e_xi = beta + 4 [eps_xi < 0] -
2 omega(D0) and s = b1: the Brown invariant of a nondegenerate Z4-valued
form has the parity of its rank (Brown 1972; Kirby and Taylor 1990).  Bar
eps_0, D0 enters as parities that hold for any edge set meeting every vertex
oddly: without a D0 the routes read m's odd join, sum +-Z and take |Re|.

``_practical`` carries the two practical formulas (Cimasoni and Reshetikhin
2007 on orientable surfaces; Tesler 2000 and this paper on non-orientable
ones): Z = |Re sum_xi w_xi * Pf(A^{K_xi})| / 2^g over the 2^(2g) classes
flipped along the alpha curves.  Its basis is the curves' companions in
route order, alpha curves first, each walked in the direction whose
push-off the curve is (``companion_cycle``); an orientable map without a
curve per basis class, or with curves that lack their companions, takes
its given or cycle basis.  Either way, on the map as given, K admissible at
omega = 0 (orientable) or the twist cochain is flipped to an odd mismatch
count on every basis cycle, and the flips are the first 2g basis cycles'
left push-offs in the omega charts, m's reversed on the chart-swap set: in
m, a cycle that starts in that set flips along its reversal's.  Class xi
weighs the sign (-1)^(number of its intersecting basis pairs) times an
unprimed weight: 1 on orientable surfaces, 1 - i = exp(-i*pi/4) * sqrt(2)
with odd Euler characteristic, -i with even Euler characteristic, where the
primed classes, also flipped along the first beta curve, weigh the sign
alone.  So e_xi = 4 (intersecting basis pairs) - 2 [unprimed, even chi] -
[odd chi] and s = 2g - [odd chi].

A route reads what it derives from the map alone through ``kept``: the odd
join, the cycle basis, the basis that each set of cycles gives, K per omega,
and the class Pfaffians keyed by K, the flips, omega and the backend, with
their scale and term strings beside them.  So spin and pin share the join,
basis and faces on every orientable map, and on an untwisted one spin takes
pin's Pfaffians and terms: there only the Arf-vs-Brown weighting and the
oracle check one against the other.

One rule serves class Pfaffians (``_class_sum``).  Every K admissible at
omega is a known K flipped by a cocycle phi, read as its class c on a basis
of H1(m; Z/2) and its parity on m's odd join (``_reading``).  A^{K +
delta(x)} = D A^K D, D = diag((-1)^x), multiplies Pf by det D = (-1)^|x|,
delta(x)'s parity on the join, and conj Pf(A^K) = Pf(A^{K + omega}), as
conjugation negates the omega edges.  So a class takes the Pfaffian known at
c, or the conjugate of the one at c plus omega's class, signed by parities,
else it is eliminated: a non-orientable pin route eliminates one class of
each conjugate pair.  Exact routes at omega share what is known on m
(``_Known``); a float route knows only its own: its rounding follows its seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import (
    CurveNotRealizable,
    FloatOutOfRange,
    NonRealResult,
    NotAClosedWalk,
    NotSimple,
    WrongSurfaceType,
)
from .exactnum import GaussianRational
from .generators import TransverseCurve
from .homology import (
    HomologyBasis,
    Walk,
    _push_off,
    basis_from_cycles,
    chain_from_edges,
    check_simple_walk,
    cycle_basis,
    dot,
    parity,
    reverse_walk,
    walk_chain,
)
from .kasteleyn import Orientation, _class_masks, _omega_flip_set, construct_kasteleyn
from .oracle import VERTEX_BOUND, partition_bruteforce
from .pfaffian import _class_matrices, _exact, pfaffian
from .spin_quadratic import (
    QuadraticEnhancement,
    _enhancement,
    arf,
    brown,
    matching_sign,
    n_mismatch,
    shifted_browns,
)
from .surface_graph import (
    CombinatorialMap,
    classify,
    is_orientable,
    kept,
    odd_join,
)

Number = Union[Fraction, float]


@dataclass(frozen=True)
class PartitionResult:
    value: Number
    method: str
    exact: bool
    terms: Tuple[Tuple[str, str], ...] = ()  # (class label, pfaffian repr)

    def __post_init__(self) -> None:
        if not self.exact and not math.isfinite(self.value):
            raise FloatOutOfRange(f"float {self.method} value {self.value} "
                                  "left the double range")

    def __float__(self) -> float:
        return float(self.value)


def _eps_label(idx: int, width: int) -> str:
    return format(idx, f"0{width}b")[::-1]


# ---------------------------------------------------------------------------
# Companion cycles and seed normalization
# ---------------------------------------------------------------------------

def companion_cycle(m: CombinatorialMap, curve: TransverseCurve) -> Walk:
    """The curve's companion: a simple cycle whose push-off is the curve.

    The companion is validated and returned as given or reversed, whichever
    the curve is the push-off of (``crossing_cochain``).  A curve without one
    raises ``CurveNotRealizable``: a cycle taken from the face arcs between
    the crossings may run on either side of the curve, and the practical
    formulas need it on one side.
    """
    walk = curve.companion
    if walk is None:
        raise CurveNotRealizable("curve carries no companion")
    try:
        check_simple_walk(m, walk)
    except (NotAClosedWalk, NotSimple) as exc:
        raise CurveNotRealizable(f"companion is not a simple cycle: {exc}") from exc
    crossings = dot(curve.cross, walk_chain(walk))
    want = 1 if curve.kind == "beta" else 0
    if crossings != want:
        raise CurveNotRealizable(
            f"companion crosses the curve {crossings} times, expected {want}")
    if curve.kind == "beta" and curve.crossing_edge not in {h // 2 for h in walk}:
        raise CurveNotRealizable("beta companion must use its crossing edge")
    for way in (walk, reverse_walk(walk)):
        push = way
        if curve.kind == "beta":
            # a beta curve pushes off the reversed walk from its crossing
            # edge, so that the push-off closes across that edge
            k = 1 + [h // 2 for h in way].index(curve.crossing_edge)
            push = reverse_walk(way[k:] + way[:k])
        if _push_off(m, push) == curve.cross:  # a simple walk: checked above
            return way
    raise CurveNotRealizable("companion does not run along its curve")


def normalize_orientation(m: CombinatorialMap, K: Orientation,
                          basis: HomologyBasis) -> Orientation:
    """Flip K by dual cocycles until every basis cycle has an odd mismatch
    count.  Keeps the admissibility of K."""
    flip = 0
    for walk, phi in zip(basis.cycles, basis.dual_cochains):
        if (n_mismatch(K, walk) + dot(flip, walk_chain(walk))) % 2 == 0:
            flip ^= phi
    return K.flipped(flip)


# ---------------------------------------------------------------------------
# The shared skeleton: class Pfaffians, weights, sum and normalisation
# ---------------------------------------------------------------------------

def _from_cycles(m: CombinatorialMap, cycles: Sequence[Walk]) -> Optional[HomologyBasis]:
    """The basis these simple cycles give on m; None if they give none."""
    try:
        return basis_from_cycles(m, cycles)
    except (NotAClosedWalk, NotSimple):
        return None


def _basis(m: CombinatorialMap, basis: Optional[HomologyBasis]) -> HomologyBasis:
    """The caller's basis, which must be the one its cycles give on m, else
    it weighs m's classes wrongly; without one, the kept cycle basis."""
    if basis is None:
        return kept(m, "basis", cycle_basis)
    if _from_cycles(m, basis.cycles) != basis:
        raise ValueError("basis does not belong to this map")
    return basis


def _zero(method: str, exact: bool) -> PartitionResult:
    return PartitionResult(Fraction(0) if exact else 0.0, method, exact)


_LABELS: Dict[int, Tuple[str, ...]] = {}  # the 2^width class labels, built once per width


def _labelled(strs: Sequence[str], width: int, mark: str = "") -> List[Tuple[str, str]]:
    if width not in _LABELS:
        _LABELS[width] = tuple(_eps_label(idx, width) for idx in range(1 << width))
    return [(label + mark, s) for label, s in zip(_LABELS[width], strs)]


class ClassSum(NamedTuple):
    """A class sum's real and imaginary parts, the class Pfaffians times
    ``scale`` in class order, ``scale`` and the Pfaffians' strings."""
    re: Number
    im: Number
    pfs: tuple
    scale: int
    strs: tuple


class _Known:
    """Known class Pfaffians at one omega: the known K's bits, the chains that
    classes are read on, m's odd join, the scale and (parity, Pf) per class."""

    def __init__(self, m: CombinatorialMap, K: Orientation, chains: Sequence[int]) -> None:
        self.bits, self.chains, self.join = K.bits, chains, kept(m, "join", odd_join)
        self.scale, self.slots = None, [None] * (1 << len(chains))


def _reading(known: _Known, phi: int) -> int:
    """2 c + p for a cocycle phi of class c on the known chains and parity p on
    the odd join; phi + delta(x) reads 2 c + (p + |x| mod 2) for V even."""
    return sum(dot(phi, z) << j for j, z in enumerate(known.chains)) << 1 | dot(phi, known.join)


def _class_sum(m: CombinatorialMap, K: Orientation, flips: Sequence[int],
               chains: Sequence[int], eighths: Sequence[int], root2s: int, backend: str,
               omega: int) -> ClassSum:
    """sum_xi exp(i*pi*eighths[xi]/4) * Pf(A^{K_xi}) / sqrt(2)^root2s over the
    classes of K flipped by subset sums of ``flips``, in ``enumerate_classes``
    order, each eighths[xi] = root2s mod 2, with the class Pfaffians times
    ``scale`` (``pfaffian``).

    Each class, the known K flipped by a cocycle of reading (c, p)
    (``_reading``), takes (-1)^(p + q) Pf for the slot (q, Pf) known at c,
    else (-1)^(p + q + w) conj Pf for the one at c + c', (c', w) omega's
    reading, with +0 zero parts on floats as ``pfaffian`` gives them, else
    it is eliminated and known at c.  ``chains`` is a basis of H1(m; Z/2)."""

    def classes(m: CombinatorialMap) -> tuple:  # kept as one record per key
        exact = _exact(backend)
        known = kept(m, ("known", omega), _Known, K, chains) if exact else _Known(m, K, chains)
        base, *steps, w = [_reading(known, phi) for phi in (K.bits ^ known.bits, *flips, omega)]
        zero = GaussianRational(0, 0) if exact else 0j  # clears a -0.0 part
        slots, pfs, cms = known.slots, [], None
        for idx, mask in enumerate(_class_masks(steps)):
            slot = slots[(r := base ^ mask) >> 1]
            if slot is None and (slot := slots[(r ^ w) >> 1]) is not None:
                slot = (slot[0] ^ w & 1, slot[1].conjugate())
            if slot is not None:
                pfs.append((-slot[1] if (r ^ slot[0]) & 1 else slot[1]) + zero)
                continue
            if cms is None:
                cms = _class_matrices(m, K, flips, backend, omega)
                known.scale = cms[0].scale
            pfs.append(pf := pfaffian(cms[idx]))
            slots[r >> 1] = (r & 1, pf)
        pfs, s = tuple(pfs), known.scale
        if s == 1:
            return pfs, s, tuple(map(str, pfs))
        # one Fraction per nonzero part, the parts a term prints
        return pfs, s, tuple(str(GaussianRational(
            Fraction(pf.re, s) if pf.re else 0, Fraction(pf.im, s) if pf.im else 0)) for pf in pfs)

    pfs, scale, strs = kept(m, ("classes", K.bits, tuple(flips), omega, backend), classes)
    assert all((e - root2s) % 2 == 0 for e in eighths), "weight off the parity of root2s"
    o = root2s % 2
    re, im = [0] * 4, [0] * 4  # the bucket sums by the power of i
    for e, pf in zip(eighths, pfs):
        k = (e - o) // 2 % 4
        re[k] += pf.real
        im[k] += pf.imag
    x = (re[0] - re[2]) - (im[1] - im[3])
    y = (im[0] - im[2]) + (re[1] - re[3])
    if o:  # times 1 + i
        x, y = x - y, x + y
    d = scale * 2 ** ((root2s + o) // 2)
    if _exact(backend):  # integer buckets: one division each
        return ClassSum(Fraction(x, d), Fraction(y, d), pfs, scale, strs)
    return ClassSum(x / d, y / d, pfs, scale, strs)


def _enhanced_sum(m: CombinatorialMap, method: str, omega: int,
                  D0: Optional[int], basis: Optional[HomologyBasis], backend: str,
                  invariant: Callable[[QuadraticEnhancement], int]) -> PartitionResult:
    """|2^(-b1/2) * i^(-omega(R)) * sum_xi exp(i*pi*invariant(q_xi)/4) * eps_xi *
    Pf(A^{K_xi})| for an omega representing w1 on m, R the D0 given, else m's
    odd join; a non-real sum raises, and with D0, which fixes its sign, a negative one."""
    exact = _exact(backend)
    if m.vertex_count % 2:
        return _zero(method, exact)
    basis = _basis(m, basis)
    b1 = basis.rank
    K = kept(m, ("K", omega), construct_kasteleyn, omega)
    neg = D0 is not None and matching_sign(m, K, D0) < 0  # checks D0 before q0 reads it
    R = kept(m, "join", odd_join) if D0 is None else D0
    q0 = _enhancement(m, K, R, basis, omega)
    # Class idx flips K by the dual cocycles phi_i, i in idx; as
    # phi_i(C_j) = delta_ij, its enhancement is q0 shifted by the bits of idx.
    betas = shifted_browns(q0, invariant(q0))
    if any((beta - b1) % 2 for beta in betas):
        raise NonRealResult(f"{method} invariants {sorted(set(betas))} differ in "
                            f"parity from b1 = {b1}")
    # Flipping the orientation of one dimer swaps one pair of the matching
    # permutation, so class idx has eps_0 * (-1)^(sum of |phi_i & R|, i in idx).
    odd = sum(parity(phi & R) << i for i, phi in enumerate(basis.dual_cochains))
    # Weights as in the module docstring, with eps_xi = exp(i*pi*4[eps_xi < 0]/4).
    turn = 2 * dotcount(omega, R)
    eighths = [beta + 4 * (neg ^ parity(idx & odd)) - turn for idx, beta in enumerate(betas)]
    total = _class_sum(m, K, basis.dual_cochains, basis.chains, eighths, b1, backend, omega)
    re, im = total.re, total.im
    tol = 0 if exact else 1e-9 * (1 + abs(complex(re, im)))
    if abs(im) > tol:
        raise NonRealResult(f"{method} sum is not real: {re} + {im}i")
    if D0 is not None and re < -tol:
        raise NonRealResult(f"negative {method} sum {re}")
    return PartitionResult(abs(re), method, exact, tuple(_labelled(total.strs, b1)))


def _practical(m: CombinatorialMap, curves: Optional[Sequence[TransverseCurve]],
               basis: Optional[HomologyBasis], backend: str) -> PartitionResult:
    """The practical formula of the module docstring.  A given basis is
    checked, and serves only on the basis-cycle path or where its cycles
    are the companions in route order; no dimer configuration is needed.  A
    non-orientable map needs a companion on every curve."""
    exact = _exact(backend)
    if curves is None and not is_orientable(m):  # before odd V's zero: auto takes pin
        raise CurveNotRealizable("practical route needs curve data")
    if m.vertex_count % 2:
        return _zero("practical", exact)
    if basis is not None:
        _basis(m, basis)
    surface = classify(m)
    r = 2 * surface.genus
    primed = int(surface.kind == "nonorientable_even_chi")
    if surface.orientable and any(cv.companion is None for cv in curves or ()):
        curves = None
    if not surface.orientable:
        betas = [cv for cv in curves if cv.kind == "beta"]
        if len(betas) != 1 + primed:
            raise CurveNotRealizable("even Euler characteristic needs two beta curves"
                                     if primed else
                                     "odd Euler characteristic needs one beta curve")
        if betas[0].cross ^ (betas[-1].cross if primed else 0) != m.twist_bits():
            raise CurveNotRealizable(
                "beta crossings must reproduce the twist cochain exactly")
        curves = [cv for cv in curves if cv.kind == "alpha"] + betas
    for cv in curves or ():
        # companion_cycle rejects a cross that is not its companion's push-off,
        # a coboundary-shifted one too; here a curve's two crossing records agree.
        if cv.ordered_crossings is not None and \
                chain_from_edges(cv.ordered_crossings) != cv.cross:
            raise CurveNotRealizable("curve crossings differ from its ordered crossings")
    own = None if curves is None else _from_cycles(
        m, [companion_cycle(m, cv) for cv in curves])
    if own is not None:
        basis = own
    elif surface.orientable:
        # The basis cycles are their own companions: in the omega = 0 charts
        # the dimers leaving C on its left are, mod 2, those its left push-off
        # there crosses, so q_B(C) = 2(n_K(C) + 1) mod 4 for every matching.
        basis = _basis(m, basis)
    else:  # too few companions, or dependent ones
        raise CurveNotRealizable("curves do not give a homology basis")
    # In the omega charts, m's reversed on the swap set, a walk from that set
    # pushes off to the left of its reversal in m; the primed classes also
    # flip along the first beta curve.
    om = 0 if surface.orientable else m.twist_bits()
    swap = _omega_flip_set(m, om)
    flips = [_push_off(m, reverse_walk(w)) if m.half_vertex(w[0]) in swap else pd
             for w, pd in zip(basis.cycles, basis.pd_cochains[:r])]
    flips += [curves[r].cross] if primed else []
    K = normalize_orientation(m, kept(m, ("K", om), construct_kasteleyn, om), basis)
    # Class idx + 2^r is the primed class of idx.  Class xi weighs as in the
    # module docstring, its intersecting basis pairs i < j counted through
    # later[i], which holds the j.
    n = 1 << r
    odd_chi = int(surface.kind == "nonorientable_odd_chi")
    later = [sum(basis.gram[i][j] << j for j in range(i + 1, r)) for i in range(r)]
    eighths = [4 * sum((idx & later[i]).bit_count() for i in range(r) if (idx >> i) & 1)
               - 2 * primed * (idx < n) - odd_chi for idx in range(n << primed)]
    total = _class_sum(m, K, flips, basis.chains, eighths, r - odd_chi, backend, om)
    if surface.orientable and any(pf.imag for pf in total.pfs):
        raise NonRealResult("orientable Pfaffian has an imaginary part")
    terms = _labelled(total.strs[:n], r)
    if primed:
        terms = [t for pair in zip(_labelled(total.strs[n:], r, "'"), terms) for t in pair]
    return PartitionResult(abs(total.re), "practical", exact, tuple(terms))


# ---------------------------------------------------------------------------
# The four formulas
# ---------------------------------------------------------------------------

def partition_orientable_practical(m: CombinatorialMap, *,
                                   curves: Optional[Sequence[TransverseCurve]] = None,
                                   basis: Optional[HomologyBasis] = None,
                                   backend: str = "exact") -> PartitionResult:
    """Single |sum of signed Pfaffians| over the 2^(2g) seed flips."""
    if not is_orientable(m):
        raise WrongSurfaceType("map is not orientable")
    return _practical(m, curves, basis, backend)


def partition_orientable_spin(m: CombinatorialMap, *,
                              D0: Optional[int] = None,
                              basis: Optional[HomologyBasis] = None,
                              backend: str = "exact") -> PartitionResult:
    """Arf-invariant-signed sum over orientation classes: the pin sum of the
    map as given at omega = 0, with beta = 4 * Arf."""
    if not is_orientable(m):
        raise WrongSurfaceType("map is not orientable")
    return _enhanced_sum(m, "spin", 0, D0, basis, backend, lambda q: 4 * arf(q))


def partition_general_pin(m: CombinatorialMap, *,
                          omega: Optional[int] = None,
                          D0: Optional[int] = None,
                          basis: Optional[HomologyBasis] = None,
                          backend: str = "exact") -> PartitionResult:
    """Brown-invariant-weighted sum over orientation classes.

    Works on every closed surface; the orientable case reduces to the spin
    formula.
    """
    om = m.twist_bits() if omega is None else omega
    return _enhanced_sum(m, "pin", om, D0, basis, backend, brown)


def dotcount(mask: int, chain: int) -> int:
    """Integer count of common set bits (twist count of a dimer set)."""
    return (mask & chain).bit_count()


def partition_nonorientable_practical(m: CombinatorialMap,
                                      curves: Sequence[TransverseCurve], *,
                                      basis: Optional[HomologyBasis] = None,
                                      backend: str = "exact") -> PartitionResult:
    """Real/imaginary-part combination over the 2^(2g) seed flips."""
    if is_orientable(m):
        raise WrongSurfaceType("map is orientable; use the orientable routes")
    return _practical(m, curves, basis, backend)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def _oracle(m: CombinatorialMap, backend: str,
            max_vertices: int = VERTEX_BOUND) -> PartitionResult:
    """The brute-force Z on the given backend."""
    exact = _exact(backend)
    value = partition_bruteforce(m, max_vertices=max_vertices)
    if exact:
        return PartitionResult(value, "oracle", True)
    try:
        approx = float(value)
    except OverflowError:
        approx = math.inf
    if value and not approx:
        raise FloatOutOfRange("float oracle value underflowed to 0")
    return PartitionResult(approx, "oracle", False)


def partition(m: CombinatorialMap, method: str = "auto", *,
              curves: Optional[Sequence[TransverseCurve]] = None,
              basis: Optional[HomologyBasis] = None,
              backend: str = "exact") -> PartitionResult:
    """Compute Z by the requested route; ``auto`` prefers the practical
    formulas and falls back to the pin route when curve data is missing or
    not realizable.  The practical formulas read each curve's companion and
    build none: orientable curves without companions give way to the basis
    cycles, and on a non-orientable map they are not realizable."""
    if method == "oracle":
        return _oracle(m, backend)
    if method == "spin":
        return partition_orientable_spin(m, basis=basis, backend=backend)
    if method == "pin":
        return partition_general_pin(m, basis=basis, backend=backend)
    if method in ("practical", "auto"):
        try:
            if is_orientable(m):
                return partition_orientable_practical(m, curves=curves, basis=basis,
                                                      backend=backend)
            # auto reads [] as no curve data; None meets _practical's check
            if curves is None or curves or method == "practical":
                return partition_nonorientable_practical(m, curves, basis=basis,
                                                         backend=backend)
        except CurveNotRealizable:
            if method == "practical":
                raise
        return partition_general_pin(m, basis=basis, backend=backend)
    raise ValueError(f"unknown method {method!r}")
