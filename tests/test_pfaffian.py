from __future__ import annotations

import math
import random
import sys
import warnings
from collections import Counter
from itertools import chain
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfdimers import (
    FloatOutOfRange,
    IllConditionedWarning,
    cycle_basis,
    LoopEdge,
    NotBlockForm,
    OddDimension,
    TooLarge,
    bipartite_pfaffian,
    build_map,
    canonical_orientation,
    construct_kasteleyn,
    enumerate_classes,
    find_matching,
    lattice,
    partition_general_pin,
    pfaffian,
    pfaffian_expansion,
)
from pfdimers.exactnum import GR_ZERO, GaussianRational
from pfdimers.generators import random_map, random_weights
from pfdimers.homology import dot, is_coboundary, vertex_coboundary
from pfdimers.partition import partition
from pfdimers.surface_graph import flip_charts
from pfdimers.pfaffian import (
    EXPANSION_DIM_BOUND,
    SkewMatrix,
    _CAP,
    _FLOOR,
    _SMALL_PRIMES,
    _EdgeMatrix,
    _class_matrices,
    _modulus,
    _proth_root,
    build_adjacency,
    determinant,
    skew_matrix,
)


def _exact(rows):
    g = [[GaussianRational.of(x) if not isinstance(x, tuple)
          else GaussianRational.of(*x) for x in row] for row in rows]
    return skew_matrix(g, exact=True)


def _random_skew(rng, n, complex_entries=False, max_den=1, size=4):
    """Entries with parts in [-size, size], divided by denominators in [1, max_den]."""
    rows = [[GaussianRational.of(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            re = rng.randint(-size, size)
            im = rng.randint(-size, size) if complex_entries else 0
            if max_den > 1:
                re = Fraction(re, rng.randint(1, max_den))
                im = Fraction(im, rng.randint(1, max_den))
            rows[i][j] = GaussianRational.of(re, im)
            rows[j][i] = -rows[i][j]
    return SkewMatrix(tuple(tuple(r) for r in rows), exact=True)


def _with_entries(a, changes):
    """Copy of ``a`` with a[i][j] = x and a[j][i] = -x for each (i, j, x)."""
    rows = [list(r) for r in a.entries]
    for i, j, x in changes:
        rows[i][j], rows[j][i] = x, -x
    return SkewMatrix(tuple(tuple(r) for r in rows), exact=True)


def test_two_by_two():
    a = _exact([[0, 3], [-3, 0]])
    assert pfaffian(a) == GaussianRational.of(3)


def test_to_float_keeps_a_float_matrix():
    a = skew_matrix([[0j, 1.5 + 0j], [-1.5 + 0j, 0j]], False)
    assert a.to_float() is a


def test_block_four_by_four():
    a = _exact([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    assert pfaffian(a) == GaussianRational.of(1)


def test_odd_dimension_rejected():
    with pytest.raises(OddDimension):
        pfaffian(SkewMatrix(((GaussianRational.of(0),),), exact=True))


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_elimination_matches_expansion(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 4, 6])
    a = _random_skew(rng, n, complex_entries=rng.random() < 0.5,
                     max_den=rng.choice([1, 6]))
    lhs = pfaffian(a)
    rhs = pfaffian_expansion(a)
    assert (lhs - rhs).is_zero()


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_pf_squared_is_det(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 4, 6, 8])
    a = _random_skew(rng, n, complex_entries=True, max_den=rng.choice([1, 6]))
    pf = pfaffian(a)
    det = determinant(a)
    assert (pf * pf - det).is_zero()


@pytest.mark.parametrize("max_den", [1, 6])
@pytest.mark.parametrize("n", [10, 12, 20, 40])
def test_exact_matches_fraction_references(n, max_den):
    a = _random_skew(random.Random(n), n, complex_entries=True, max_den=max_den)
    pf = pfaffian(a)
    assert pf * pf == determinant(a)
    if n <= EXPANSION_DIM_BOUND:
        assert pf == pfaffian_expansion(a)


@pytest.fixture
def moduli(monkeypatch):
    """The prime of every residue taken from here on, in order."""
    primes = []
    residue = _EdgeMatrix._residue

    def spy(self, re, im, p, s):
        primes.append(p)
        return residue(self, re, im, p, s)

    monkeypatch.setattr(_EdgeMatrix, "_residue", spy)
    return primes


def _hadamard_bound(a):
    norms = [sum(x.abs2() for x in row) for row in a.entries]
    return math.isqrt(math.isqrt(math.prod(int(v) for v in norms)))


def _edges(a):
    return [(i, j, x.real, x.imag) for i, row in enumerate(a.entries)
            for j, x in enumerate(row[i + 1:], i + 1) if x]


def _at_the_cap(edges_of):
    """The least power of two c whose exact route on ``edges_of(c)`` takes
    primes of _CAP bits, so that its first modulus is _modulus(_CAP, 0)."""
    for c in (2 ** j for j in range(4 * _CAP)):
        edges = edges_of(c)
        if _EdgeMatrix(1 + max(max(a, b) for a, b, _, _ in edges), edges, True).bits == _CAP:
            return c
    raise AssertionError("no power of two puts the route's primes at the cap")


@pytest.mark.parametrize("changes, placed", [
    # denominator equal to the first modulus, which then divides the LCD
    (lambda p, c: [(0, 3, GaussianRational.of(Fraction(c, p), 2))], True),
    # first pivot is 0 mod the first modulus but not over Q; the reverse
    # Cuthill-McKee order of a full pattern reverses it, so 6 and 7 come first
    (lambda p, c: [(6, 7, GaussianRational.of(c * p, 0))], True),
    (lambda p, c: [(6, 7, GaussianRational.of(0, c * p)), (4, 5, GaussianRational.of(c * p))],
     True),
    # an all-zero row
    (lambda p, c: [(2, j, GaussianRational.of(0)) for j in range(8) if j != 2], False),
], ids=["denominator-is-modulus", "pivot-zero-mod-p", "pivots-zero-mod-p", "zero-row"])
def test_exact_modular_edge_cases(changes, placed, moduli):
    # p is the first prime of _CAP bits; an entry or denominator of size c * p,
    # c the least power of two whose bound puts the route's primes at the
    # cap, makes p the route's first modulus
    p = _modulus(_CAP, 0)[0]
    base = _random_skew(random.Random(5), 8, complex_entries=True)
    c = _at_the_cap(lambda c: _edges(_with_entries(base, changes(p, c)))) if placed else 1
    a = _with_entries(base, changes(p, c))
    pf = pfaffian(a)
    assert pf == pfaffian_expansion(a)
    assert pf * pf == determinant(a)
    if placed:
        assert moduli[0] == p


def test_large_entries_negative_parts(moduli):
    a = _random_skew(random.Random(3), 30, complex_entries=True, size=10**12)
    pf = pfaffian(a)
    # the Hadamard bound needs more than one modulus
    assert len(set(moduli)) > 1
    assert pf.re < 0 and pf.im < 0
    assert pf * pf == determinant(a)
    approx = pfaffian(a.to_float())
    assert abs(pf.to_complex() - approx) <= 1e-9 * abs(approx)


def test_prime_width_follows_the_hadamard_bound(moduli):
    # a 4x4 lattice's bound is below the floor: one prime of _FLOOR bits, a
    # single CPython digit
    for size, floor in ((4, True), (10, False)):
        inst = lattice(size, size, "torus")
        moduli.clear()
        partition(inst.map, "practical", curves=inst.curves, basis=inst.basis)
        # no parallel edges: the bound of every class is the adjacency matrix's
        bits = _hadamard_bound(build_adjacency(inst.map, construct_kasteleyn(inst.map)))\
            .bit_length() + 2
        assert (bits <= _FLOOR) == floor
        # a 10x10 lattice's bound is over it: one prime of bound + 2 bits
        assert len(set(moduli)) == 1 and moduli[0].bit_length() == max(bits, _FLOOR)
    # a bound between the floor and the cap: one prime of bound + 2 bits
    a = _random_skew(random.Random(4), 8, complex_entries=True, size=2**40)
    bits = _hadamard_bound(a).bit_length() + 2
    assert _FLOOR < bits < _CAP
    moduli.clear()
    pf = pfaffian(a)
    assert len(set(moduli)) == 1 and moduli[0].bit_length() == bits
    assert pf * pf == determinant(a)
    # a bound over the cap: the fewest primes of one width at most _CAP whose
    # product exceeds 2^need > 2B + 1, of the least such width
    a = _random_skew(random.Random(4), 12, complex_entries=True, size=10**30)
    need = _hadamard_bound(a).bit_length() + 1
    assert need + 1 > _CAP
    moduli.clear()
    pf = pfaffian(a)
    count, width = len(set(moduli)), moduli[0].bit_length()
    assert count > 1 and {p.bit_length() for p in moduli} == {width}
    assert (count - 1) * (_CAP - 1) < need <= count * (_CAP - 1)
    assert count * (width - 2) < need <= count * (width - 1)
    assert pf * pf == determinant(a)


def test_even_torus_has_one_vanishing_class():
    inst = lattice(6, 6, "torus")
    m = inst.map
    K = construct_kasteleyn(m)
    mats = [build_adjacency(m, Kc)
            for Kc in enumerate_classes(m, K, [cv.cross for cv in inst.curves])]
    pfs = [pfaffian(a) for a in mats]
    assert [pf.is_zero() for pf in pfs].count(True) == 1
    for a, pf in zip(mats, pfs):
        assert pf * pf == determinant(a)


# Smallest strong pseudoprimes to the first k prime bases (k = 1, 2, 3, 4, 5,
# 6, 8, 11, 12), as their factorisations.
_STRONG_PSEUDOPRIMES = [
    [23, 89], [829, 1657], [2251, 11251], [151, 751, 28351],
    [6763, 10627, 29947], [1303, 16927, 157543], [10670053, 32010157],
    [149491, 747451, 34233211], [399165290221, 798330580441],
]


def _trial(n):
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def _certified(n):
    s = _proth_root(n)
    assert not s or s * s % n == n - 1, n
    return bool(s)


def test_proth_certificate_against_trial_division():
    # any n: certified only if prime (includes the Carmichael numbers 561,
    # 1105, 1729, 2465, 2821, 6601, 8911, which are not Proth numbers)
    assert all(_trial(n) for n in range(10_000) if _certified(n))
    # every Proth number k * 2^m + 1 < 2^20, k odd, k < 2^m, m >= 2: the
    # composites are rejected, and of the primes only the trial divisors
    proth = {k << m | 1 for m in range(2, 20) for k in range(1, 1 << m, 2)
             if k << m | 1 < 1 << 20}
    assert {n for n in proth if _certified(n)} == \
        {n for n in proth if _trial(n) and n > _SMALL_PRIMES[-1]}
    for factors in _STRONG_PSEUDOPRIMES:
        assert not _certified(math.prod(factors)), factors


_WIDTHS = (_FLOOR, 81, 255, _CAP)


def test_moduli_are_primes_one_mod_four():
    # 16 per width covers every modulus the tests in this file use
    for bits in _WIDTHS:
        moduli = [_modulus(bits, k) for k in range(16)]
        assert len({p for p, _ in moduli}) == len(moduli)
        for p, s in moduli:
            assert p.bit_length() == bits
            assert (p - 1) % (1 << (bits + 1) // 2) == 0  # k * 2^m + 1, m = ceil(bits / 2)
            assert p % 4 == 1
            assert s * s % p == p - 1
            assert _proth_root(p) == s


def test_moduli_are_primes_sympy():
    isprime = pytest.importorskip("sympy").isprime
    assert all(isprime(_modulus(bits, k)[0]) for bits in _WIDTHS for k in range(16))


def test_row_column_negation_negates_pf():
    rng = random.Random(7)
    a = _random_skew(rng, 6)
    rows = [list(r) for r in a.entries]
    j = 2
    for k in range(6):
        rows[j][k] = -rows[j][k]
        rows[k][j] = -rows[k][j]
    b = SkewMatrix(tuple(tuple(r) for r in rows), exact=True)
    assert (pfaffian(a) + pfaffian(b)).is_zero()


def test_simultaneous_permutation_multiplies_by_sign():
    rng = random.Random(8)
    a = _random_skew(rng, 6)
    # transposition of indices 0 and 1: sign -1
    perm = [1, 0, 2, 3, 4, 5]
    rows = [[a.entries[perm[i]][perm[j]] for j in range(6)] for i in range(6)]
    b = SkewMatrix(tuple(tuple(r) for r in rows), exact=True)
    assert (pfaffian(a) + pfaffian(b)).is_zero()


def test_float_exact_agreement_up_to_30():
    rng = random.Random(9)
    for n in (10, 20, 30):
        a = _random_skew(rng, n, complex_entries=True)
        exact = pfaffian(a).to_complex()
        approx = pfaffian(a.to_float())
        assert abs(exact - approx) <= 1e-9 * max(1.0, abs(exact))


def _float_pf(a):
    """Float Pfaffian of ``a`` and the number of IllConditionedWarnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pf = pfaffian(a.to_float())
    return pf, sum(issubclass(w.category, IllConditionedWarning) for w in caught)


def _shuffled(a, perm):
    """P A P^T: entry (i, j) is a[perm[i]][perm[j]]."""
    rows = tuple(tuple(a.entries[p][q] for q in perm) for p in perm)
    return SkewMatrix(rows, exact=a.exact)


def _inversion_sign(perm):
    inversions = sum(x > y for i, x in enumerate(perm) for y in perm[i + 1:])
    return -1 if inversions % 2 else 1


@pytest.mark.parametrize("size", [8, 12])
@pytest.mark.parametrize("surface", ["torus", "klein_hexagon", "rp2"])
def test_float_matches_exact_on_lattice_classes(surface, size):
    inst = lattice(size, size, surface)
    m = inst.map
    K = construct_kasteleyn(m)
    mats = [build_adjacency(m, Kc)
            for Kc in enumerate_classes(m, K, inst.basis.dual_cochains)]
    exact = [pfaffian(a).to_complex() for a in mats]
    top = max(map(abs, exact))
    for a, want in zip(mats, exact):
        got, warned = _float_pf(a)
        if want:
            assert abs(got - want) <= 1e-9 * abs(want)
            # the warning stays silent on the nonzero classes
            assert warned == 0
        else:
            # the (+,+) class of an even torus vanishes by design
            assert abs(got) <= 1e-9 * top
    assert any(exact)


@pytest.mark.parametrize("seed", range(12))
def test_float_matches_exact_on_random_twisted_maps(seed):
    # redraw until V is even and the Pfaffian is nonzero
    rng = random.Random(seed)
    want = 0
    while not want:
        m = random_map(rng, max_vertices=40, extra_edges=40)
        if m.vertex_count % 2:
            continue
        m = build_map(m.vertex_count, m.rotations, [(e.u, e.v) for e in m.edges],
                      [e.twist for e in m.edges],
                      random_weights(rng, m.edge_count, max_num=9))
        a = build_adjacency(m, canonical_orientation(m))
        want = pfaffian(a).to_complex()
    got, _ = _float_pf(a)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_float_matches_exact_on_shuffled_block_diagonal():
    # three components of sizes 6, 8 and 10, indices interleaved at random
    rng = random.Random(11)
    n = 24
    rows = [[GaussianRational.of(0)] * n for _ in range(n)]
    for lo, hi in ((0, 6), (6, 14), (14, 24)):
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                if j == i + 1 or rng.random() < 0.5:
                    x = GaussianRational.of(rng.randint(-5, 5), rng.randint(-5, 5))
                    rows[i][j], rows[j][i] = x, -x
    a = SkewMatrix(tuple(tuple(r) for r in rows), exact=True)
    perm = list(range(n))
    rng.shuffle(perm)
    b = _shuffled(a, perm)
    want = pfaffian(b).to_complex()
    assert want and want == _inversion_sign(perm) * pfaffian(a).to_complex()
    got, _ = _float_pf(b)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_float_zero_row_gives_zero():
    rng = random.Random(12)
    a = _with_entries(_random_skew(rng, 10, complex_entries=True),
                      [(4, j, GaussianRational.of(0)) for j in range(10) if j != 4])
    assert pfaffian(a.to_float()) == 0j


def test_float_permutation_multiplies_by_sign():
    # sparse n = 40: Pf(P A P^T) = sgn(P) Pf(A) in float
    rng = random.Random(13)
    n = 40
    rows = [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in rng.sample(range(n), 3):
            if i != j:
                x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                rows[i][j], rows[j][i] = x, -x
    a = SkewMatrix(tuple(tuple(r) for r in rows), exact=False)
    base = pfaffian(a)
    assert abs(base) > 1e-6
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        got = pfaffian(_shuffled(a, perm))
        assert abs(got - _inversion_sign(perm) * base) <= 1e-9 * abs(base)


def test_float_warns_on_forced_tiny_pivot():
    # each index has one partner, so the 1e-13 pivot cannot be avoided
    a = skew_matrix([[0, 1e-13, 0, 0], [-1e-13, 0, 0, 0],
                     [0, 0, 0, 1.0], [0, 0, -1.0, 0]], exact=False)
    with pytest.warns(IllConditionedWarning):
        pf = pfaffian(a)
    assert abs(pf - 1e-13) <= 1e-25


@pytest.mark.parametrize("seed", range(16))
def test_exact_matches_expansion_on_shuffled_block_diagonal(seed):
    # several bipartite components, n <= 12, each with a perfect matching on
    # odd seeds; odd components and isolated indices on even seeds, where Pf
    # vanishes.  Bipartite components put two indices of one side next to
    # each other in the elimination order, so pivots need swaps.
    rng = random.Random(seed)
    sizes = [rng.choice([2, 4, 6]), rng.choice([2, 4]), 2] if seed % 2 else [1, 3, 2, 5, 1]
    n = sum(sizes)
    rows = [[GaussianRational.of(0)] * n for _ in range(n)]
    lo = 0
    for size in sizes:
        half = (size + 1) // 2
        for i in range(lo, lo + half):
            for j in range(lo + half, lo + size):
                if j - i == half or rng.random() < 0.7:
                    x = GaussianRational.of(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                            rng.randint(-5, 5))
                    rows[i][j], rows[j][i] = x, -x
        lo += size
    perm = list(range(n))
    rng.shuffle(perm)
    a = _shuffled(SkewMatrix(tuple(tuple(r) for r in rows), exact=True), perm)
    pf = pfaffian(a)
    assert pf == pfaffian_expansion(a)
    assert pf.is_zero() == (seed % 2 == 0)


def _route_cases():
    """(map, omega): klein_hexagon and rp2 4x4, and random twisted maps with
    unit weights and omega moved off the twist cochain by a vertex
    coboundary, whose parallel edges cancel in some classes."""
    rng = random.Random(21)
    cases = [(lattice(4, 4, s).map, None) for s in ("klein_hexagon", "rp2")]
    while len(cases) < 14:
        m = random_map(rng, max_vertices=8, extra_edges=8, twisted=True)
        if m.vertex_count % 2 == 0 and m.twist_bits():
            v = rng.randrange(m.vertex_count)
            cases.append((m, m.twist_bits() ^ vertex_coboundary(m, v)))
    return cases


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_route_pfaffians_match_reference_builder(backend):
    shrunk = 0
    for m, omega in _route_cases():
        K = construct_kasteleyn(m, omega=omega)
        flips = cycle_basis(m).dual_cochains
        got = [pfaffian(c) for c in _class_matrices(m, K, flips, backend, omega)]
        mats = [build_adjacency(m, Kc, omega, backend)
                for Kc in enumerate_classes(m, K, flips)]
        want = [pfaffian(a) for a in mats]
        if backend == "exact":
            assert got == want
        else:
            top = max(map(abs, want))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-9 * max(abs(w), top, 1.0)
        # classes whose nonzero pattern is smaller than the route's
        pairs = {frozenset((e.u, e.v)) for e in m.edges}
        zero = GR_ZERO if backend == "exact" else 0
        shrunk += sum(sum(a[i, j] != zero for i in range(a.dimension)
                          for j in range(i + 1, a.dimension)) < len(pairs) for a in mats)
    assert shrunk


@pytest.mark.parametrize("x", [1e200, 1e-200])
def test_float_pfaffian_out_of_range_raises(x):
    # Pf = x^2 leaves the double range although every entry is inside it
    a = skew_matrix([[0, x, 0, 0], [-x, 0, 0, 0], [0, 0, 0, x], [0, 0, -x, 0]],
                    exact=False)
    with pytest.raises(FloatOutOfRange):
        pfaffian(a)


def test_bipartite_one_by_one():
    a = _exact([[0, 5], [-5, 0]])
    assert bipartite_pfaffian(a) == GaussianRational.of(5)


def test_bipartite_identity_two():
    a = _exact([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    val = bipartite_pfaffian(a)
    assert val == GaussianRational.of(-1)
    # vertex order (0,2,1,3) brings the same matrix to generic position
    keep = [0, 2, 1, 3]
    b = a.principal_minor(keep)
    assert (pfaffian(b) - GaussianRational.of(1)).is_zero()
    # direct comparison: the bipartite route equals the general pfaffian
    assert (pfaffian(a) - val).is_zero()


def test_bipartite_rejects_generic():
    a = _exact([[0, 1, 1, 1], [-1, 0, 1, 1], [-1, -1, 0, 1], [-1, -1, -1, 0]])
    with pytest.raises(NotBlockForm):
        bipartite_pfaffian(a)


def test_bipartite_matches_general_on_klein():
    inst = lattice(5, 6, "klein_hexagon")
    m = inst.map
    from pfdimers import construct_kasteleyn, relabel

    K = construct_kasteleyn(m)
    # colour classes: (row + col) parity; permute evens first
    colour = [(v // 6 + v % 6) % 2 for v in range(30)]
    order = [v for v in range(30) if colour[v] == 0] + \
        [v for v in range(30) if colour[v] == 1]
    perm = [0] * 30
    for new, old in enumerate(order):
        perm[old] = new
    m2 = relabel(m, perm)
    K2 = construct_kasteleyn(m2)
    a = build_adjacency(m2, K2)
    assert (bipartite_pfaffian(a) - pfaffian(a)).is_zero()


def test_adjacency_single_edge():
    m = build_map(2, [[0], [1]], [(0, 1)], [0], [Fraction(3, 2)])
    K = canonical_orientation(m)
    a = build_adjacency(m, K)
    assert a[0, 1] == GaussianRational.of(Fraction(3, 2))
    assert a[1, 0] == GaussianRational.of(Fraction(-3, 2))


def test_adjacency_twisted_edge_imaginary():
    m = build_map(2, [[0], [1]], [(0, 1)], [1], [1])
    a = build_adjacency(m, canonical_orientation(m))
    assert a[0, 1] == GaussianRational.of(0, 1)


def test_adjacency_antiparallel_cancel():
    from pfdimers import Orientation

    m = build_map(2, [[0, 3], [1, 2]], [(0, 1), (1, 0)], [0, 0], [1, 1])
    # keep both stored directions: one edge runs 0 -> 1, the other 1 -> 0
    a = build_adjacency(m, Orientation(0, 2))
    assert a[0, 1].is_zero()


def test_adjacency_rejects_loops(sphere_loop):
    with pytest.raises(LoopEdge):
        build_adjacency(sphere_loop, canonical_orientation(sphere_loop))


def test_pfaffian_matches_matching_count():
    # unit weights, planar square: |Pf| = number of matchings = 2
    m = lattice(2, 2, "planar").map
    from pfdimers import construct_kasteleyn

    K = construct_kasteleyn(m)
    pf = pfaffian(build_adjacency(m, K))
    assert pf.abs2() == 4


# ---------------------------------------------------------------------------
# Seam split: the interior is eliminated once per route, each class finishes
# its Schur complement on the seam
# ---------------------------------------------------------------------------

def _split_cases():
    """(label, map, K, flips, omega) of the practical and pin routes on
    lattices of four surfaces, one of them twisted by chart flips."""
    from dataclasses import replace

    from pfdimers.surface_graph import flip_charts

    cases = []
    for size in (6, 8, 10):
        torus = lattice(size, size, "torus")
        insts = [(s, lattice(size, size, s)) for s in ("torus", "klein_hexagon", "rp2")]
        twisted = replace(torus, map=flip_charts(torus.map, [0, 5, 6]), curves=())
        insts.append(("twisted torus", twisted))
        for surface, inst in insts:
            m = inst.map
            basis = cycle_basis(m)
            practical = ([cv.cross for cv in inst.curves] if inst.curves
                         else list(basis.pd_cochains))
            cases.append((f"{surface} {size} practical", m, construct_kasteleyn(m),
                          practical, None))
            cases.append((f"{surface} {size} pin", m,
                          construct_kasteleyn(m, omega=m.twist_bits()),
                          list(basis.dual_cochains), m.twist_bits()))
    return cases


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_split_class_pfaffians_match_unsplit_reference(backend):
    split = 0
    for label, m, K, flips, omega in _split_cases():
        classes = _class_matrices(m, K, flips, backend, omega)
        split += classes[0].route.stop < m.vertex_count
        got = [pfaffian(c) for c in classes]
        want = [pfaffian(build_adjacency(m, Kc, omega, backend))
                for Kc in enumerate_classes(m, K, flips)]
        if backend == "exact":
            assert got == want, label
        else:
            top = max(map(abs, want))
            assert all(abs(g - w) <= 1e-9 * top for g, w in zip(got, want)), label
    assert split >= 12


def test_split_taken_on_torus_not_on_small_high_genus_map():
    m = lattice(10, 10, "torus").map
    route = _class_matrices(m, construct_kasteleyn(m), cycle_basis(m).dual_cochains,
                            "exact")[0].route
    assert route.stop < m.vertex_count
    rng = random.Random(5)
    while True:
        m = random_map(rng, max_vertices=6, extra_edges=10)
        basis = cycle_basis(m)
        if m.vertex_count % 2 == 0 and basis.rank == 7:
            break
    classes = _class_matrices(m, construct_kasteleyn(m, omega=m.twist_bits()),
                              basis.dual_cochains, "exact", m.twist_bits())
    assert len(classes) == 2 ** 7
    assert classes[0].route.stop == m.vertex_count


def _split_route(edges, seam, exact):
    """The prepared route, the Pfaffians of its patterns through it (flipping
    none, then each seam edge) and through an unsplit preparation."""
    from pfdimers.pfaffian import _EdgeMatrix

    n = 1 + max(max(a, b) for a, b, _, _ in edges)
    route = _EdgeMatrix(n, edges, exact, [seam])
    assert route.stop < n
    patterns = [0] + [1 << e for e in range(len(edges)) if (seam >> e) & 1]
    got = [route.pfaffian(f) for f in patterns]
    want = [_EdgeMatrix(n, edges, exact).pfaffian(f) for f in patterns]
    return route, got, want


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_split_falls_back_when_an_interior_index_only_meets_the_seam(exact):
    # seam edges (0, 1) and (2, 3); interior index 4 meets only 0 and 2, so
    # its row has no interior pivot
    pairs = [(0, 1, 3), (2, 3, 5), (4, 0, 2), (4, 2, 7), (5, 6, 1), (7, 3, 4),
             (5, 7, 6), (6, 1, 2), (1, 2, 3)]
    edges = [(a, b, w, 0) for a, b, w in pairs]
    route, got, want = _split_route(edges, 0b11, exact)
    assert route.stop == len(route.end)
    assert any(want)
    if exact:
        assert got == want
    else:
        assert all(abs(g - w) <= 1e-12 * max(map(abs, want)) for g, w in zip(got, want))


def test_split_falls_back_on_an_interior_pivot_zero_mod_p(moduli):
    # the interior pair (2, 3) weighs c * p, p the first prime of _CAP bits
    # and c the least power of two that puts the route's primes at the cap:
    # its pivot is 0 mod the route's first prime although
    # Pf = 11 * c * p - 2 * 3 + 5 * 7 is not
    p = _modulus(_CAP, 0)[0]

    def edges_of(c):
        pairs = [(0, 1, 11), (2, 3, c * p), (0, 2, 2), (1, 3, 3), (0, 3, 5), (1, 2, 7)]
        return [(a, b, w, 0) for a, b, w in pairs]

    c = _at_the_cap(edges_of)
    route, got, want = _split_route(edges_of(c), 0b1, True)
    assert moduli[0] == p
    assert route.stop == 4
    assert got == want
    assert got[0] == GaussianRational.of(11 * c * p - 2 * 3 + 5 * 7)


def test_split_block_entries_reduced_mod_p():
    # Pf = w - a*b: at w = a*b the class's seam cell and the Schur
    # correction sum to exactly p, which must read as 0, not as a pivot
    a, b = 3, 5
    pairs = [(0, 1, a * b), (2, 3, 1), (0, 2, a), (1, 3, b)]
    edges = [(u, v, w, 0) for u, v, w in pairs]
    route, got, want = _split_route(edges, 0b1, True)
    assert route.stop == 2
    assert got == want
    assert sorted(x.re for x in got) == [-2 * a * b, 0]


# ---------------------------------------------------------------------------
# Flip levels: the seam's complement is eliminated a level at a time, the
# ends of the last flip first, each level once per value of its cells
# ---------------------------------------------------------------------------

def _level_ends(route):
    """0 and the end of every flip level in level order."""
    return [0] + [hi for _, hi, _ in route.levels]


def _level_cases():
    """(label, map, K, flips, omega) of split routes with two flips or more
    on lattices with random rational weights: auto's practical route and
    pin on tori, pin on a Klein bottle and on a torus with charts flipped."""
    rng = random.Random(41)

    def weighted(rows, surface):
        return lattice(rows, rows, surface,
                       weights=random_weights(rng, lattice(rows, rows, surface).map.edge_count))

    cases = []
    for surface, rows, auto in (("torus", 10, True), ("torus", 12, True),
                                ("klein_hexagon", 12, False)):
        inst = weighted(rows, surface)
        m, om = inst.map, inst.map.twist_bits()
        if auto:
            cases.append((f"{surface} {rows} auto", m, construct_kasteleyn(m),
                          [cv.cross for cv in inst.curves], None))
        cases.append((f"{surface} {rows} pin", m, construct_kasteleyn(m, omega=om),
                      list(inst.basis.dual_cochains), om))
    m = flip_charts(weighted(10, "torus").map, [0, 5, 6, 17])
    om = m.twist_bits()
    cases.append(("chart-flipped torus 10 pin", m, construct_kasteleyn(m, omega=om),
                  list(cycle_basis(m).dual_cochains), om))
    return cases


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_flip_level_class_pfaffians_match_reference_builder(backend):
    for label, m, K, flips, omega in _level_cases():
        classes = _class_matrices(m, K, flips, backend, omega)
        route = classes[0].route
        assert len(flips) >= 2 and route.stop < m.vertex_count, label
        got = [pfaffian(c) for c in classes]
        assert len(_level_ends(route)) > 2, label  # two levels or more, none merged
        want = [pfaffian(build_adjacency(m, Kc, omega, backend))
                for Kc in enumerate_classes(m, K, flips)]
        if backend == "exact":
            assert [g.scale(Fraction(1, route.scale)) for g in got] == want, label
        else:
            top = max(map(abs, want))
            assert all(abs(g - w) <= 1e-12 * top for g, w in zip(got, want)), label


def test_flip_levels_eliminate_once_per_flip_prefix(monkeypatch):
    # exact torus 10x10 auto: two flips, so per residue the interior once,
    # the first level once per value of the last flip and the last level per class
    inst = lattice(10, 10, "torus")
    n = inst.map.vertex_count
    module = sys.modules["pfdimers.pfaffian"]
    eliminate, runs = module._eliminate, Counter()

    def spy(a, end, stop, factor, p=0, *rest):
        shape = ("interior" if len(a) == n else "level") if stop < len(a) else \
            ("unsplit" if len(a) == n else "last")
        runs[p, shape] += 1
        return eliminate(a, end, stop, factor, p, *rest)

    monkeypatch.setattr(module, "_eliminate", spy)
    partition(inst.map, "auto", curves=inst.curves, basis=inst.basis)
    primes = {p for p, _ in runs}
    assert primes and 0 not in primes
    assert runs == Counter({(p, shape): count for p in primes
                            for shape, count in (("interior", 1), ("level", 2), ("last", 4))})


def test_flip_levels_cut_seam_writes(monkeypatch):
    # with one level per seam, exact auto wrote 10432 entries on torus
    # 10x10 and float auto 177242 on torus 20x20
    assert _combine_writes(monkeypatch, lattice(10, 10, "torus"), "exact") <= 7700
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        assert _combine_writes(monkeypatch, lattice(20, 20, "torus"), "float") <= 150000


@pytest.mark.parametrize("rows, cols", [(8, 7), (10, 9), (7, 8)])
def test_a_float_level_takes_no_pivot_below_the_threshold(rows, cols):
    # an odd side makes two torus classes vanish, and on 8x7 and 10x9 their
    # first level is singular: exact merges it on a zero pivot, floats on a
    # pivot of rounding noise, which taken left those class Pfaffians off by
    # up to 8% of the largest
    inst = lattice(rows, cols, "torus")
    m, flips = inst.map, [cv.cross for cv in inst.curves]
    K = construct_kasteleyn(m)
    exact, floats = (_class_matrices(m, K, flips, backend) for backend in ("exact", "float"))
    want = [pfaffian(c).to_complex() for c in exact]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        got = [pfaffian(c) for c in floats]
    assert _level_ends(floats[0].route) == _level_ends(exact[0].route)
    assert all(abs(g - w) <= 1e-12 * max(map(abs, want)) for g, w in zip(got, want))


@pytest.mark.parametrize("exact, join", [(True, "p"), (True, "none"), (False, "none")],
                         ids=["exact weight p", "exact no join", "float no join"])
def test_a_level_without_a_pivot_merges_into_the_next(moduli, exact, join):
    # interior 0-3 (a triangle in it, so step 1); seam ends 4 and 5 meet only
    # the seam and only flip 1, so they form the first level, and 6 and 7,
    # ends of flip 0, the last.  The first level's pivot is its join (4, 5):
    # c * p, 0 mod the route's first prime p although no class Pfaffian is,
    # or no join at all, 0 in both arithmetics
    p = _modulus(_CAP, 0)[0]
    pairs = [(0, 1, 2), (1, 2, 3), (2, 3, 5), (3, 0, 7), (0, 2, 1), (6, 0, 4), (7, 1, 3),
             (4, 6, 2), (5, 7, 5), (4, 7, 3), (6, 7, 9)]

    def edges_of(c):
        return [(a, b, w, 0) for a, b, w in pairs + [(4, 5, c * p)] * (join == "p")]

    edges = edges_of(_at_the_cap(edges_of) if join == "p" else 1)
    flip0 = 1 << 10
    flip1 = 1 << 11 if join == "p" else 1 << 7 | 1 << 8
    route = _EdgeMatrix(8, edges, exact, [flip0, flip1])
    assert route.stop == 4 and _level_ends(route) == [0, 2, 4]
    patterns = [0, flip0, flip1, flip0 ^ flip1]
    got = [route.pfaffian(f) for f in patterns]
    assert _level_ends(route) == [0, 4]  # merged
    want = [_EdgeMatrix(8, edges, exact).pfaffian(f) for f in patterns]
    assert all(want)
    if exact:
        assert got == want
        assert moduli[0] == p or join == "none"
    else:
        assert all(abs(g - w) <= 1e-12 * max(map(abs, want)) for g, w in zip(got, want))


def _check_level_layout(route):
    n, stop = len(route.end), route.stop
    if stop == n:  # unsplit: no layout
        assert route.levels == [] and route.order == []
        return
    o = route.order
    assert sorted(o) == list(range(stop, n))
    assert _level_ends(route) == [lo for lo, _, _ in route.levels] + [n - stop]
    assert all(lo < hi for lo, hi, _ in route.levels)
    for lo, hi, _ in route.levels[:-1]:
        assert (hi - lo) % 2 == 0
        if route.step == 2:  # the order alternates the colours, so do index parities
            assert 2 * sum(i % 2 for i in o[lo:hi]) == hi - lo
    placed = sorted(x for _, _, cells in route.levels for x in cells)
    at = {k: t for t, k in enumerate(o)}
    want = sorted((c, min(at[i], at[j]), max(at[i], at[j]), at[i] > at[j])
                  for c, (i, j) in enumerate(route.cells) if i >= stop)
    assert placed == want  # every seam cell once, row below column in level order
    assert all(lo <= row < hi for lo, hi, cells in route.levels for _, row, _, _ in cells)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_level_layout_only_on_split_routes_and_tiles_the_seam(monkeypatch, backend):
    # checked at preparation and again after the route's merges
    routes, prepared, init = [], [], _EdgeMatrix.__init__

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _check_level_layout(self)
        routes.append(self)
        prepared.append(len(self.levels))

    monkeypatch.setattr(_EdgeMatrix, "__init__", checked)
    rng = random.Random(42)
    cases = [(inst.map, inst.curves or None, inst.basis)
             for size in range(2, 13) for surface in ("torus", "klein_hexagon", "rp2")
             if surface != "klein_hexagon" or size % 2 == 0
             for inst in [lattice(size, size, surface)]]
    cases += [(random_map(rng, 8, 5, twisted=k % 2 == 1), None, None) for k in range(300)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for m, curves, basis in cases:
            for method in ("auto", "pin"):
                partition(m, method, curves=curves, basis=basis, backend=backend)
    for route in routes:
        _check_level_layout(route)
    assert sum(map(bool, prepared)) >= 20 and sum(k > 1 for k in prepared) >= 5


# ---------------------------------------------------------------------------
# Gauge: a route whose twist cochain omega, or omega + 1, is a vertex
# coboundary has real weights and a quarter-turn i^t
# ---------------------------------------------------------------------------

def _reference_gauge(m, omega):
    """The c in {0, 1} with omega + c (c on every edge) a coboundary, or None."""
    full = (1 << m.edge_count) - 1
    return next((c for c in (0, 1) if is_coboundary(m, omega ^ (full * c))), None)


def _imaginary_weights(route):
    """Number of edge weights of a prepared route with a nonzero imaginary part."""
    return sum(1 for _, _, i in route.slots if i)


def _weighted(rng, m):
    return build_map(m.vertex_count, m.rotations, [(e.u, e.v) for e in m.edges],
                     [e.twist for e in m.edges], random_weights(rng, m.edge_count, max_num=9))


def _gauge_cases():
    """(label, map, K, flips, omega): rp2 and klein_hexagon lattices under the
    practical and pin routes (omega + 1 a coboundary), a chart-flipped torus
    under pin (omega a coboundary), and random twisted maps with random
    weights, for which either or neither holds."""
    cases = []
    for surface, size in (("rp2", 4), ("rp2", 6), ("klein_hexagon", 4), ("klein_hexagon", 8)):
        inst = lattice(size, size, surface)
        m = inst.map
        cases.append((f"{surface} {size} practical", m, construct_kasteleyn(m),
                      [cv.cross for cv in inst.curves], None))
        cases.append((f"{surface} {size} pin", m, construct_kasteleyn(m, omega=m.twist_bits()),
                      list(inst.basis.dual_cochains), m.twist_bits()))
    m = flip_charts(lattice(6, 6, "torus").map, [0, 5, 6])
    cases.append(("twisted torus 6 pin", m, construct_kasteleyn(m, omega=m.twist_bits()),
                  list(cycle_basis(m).dual_cochains), m.twist_bits()))
    rng = random.Random(3)
    while len(cases) < 60:
        m = random_map(rng, 8, 5)
        if m.vertex_count % 2 == 0 and m.twist_bits():
            m = _weighted(rng, m)
            cases.append((f"random {len(cases)}", m,
                          construct_kasteleyn(m, omega=m.twist_bits()),
                          list(cycle_basis(m).dual_cochains), m.twist_bits()))
    return cases


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_gauged_route_pfaffians_match_reference_builder(backend):
    seen = set()
    for label, m, K, flips, omega in _gauge_cases():
        om = m.twist_bits() if omega is None else omega
        c = _reference_gauge(m, om)
        classes = _class_matrices(m, K, flips, backend, omega)
        route = classes[0].route
        # real weights exactly when the gauge applies, else i on the omega edges
        assert _imaginary_weights(route) == (0 if c is not None else om.bit_count()), label
        if c is None:
            assert route.turn == 0, label
        seen.add((c, route.turn if c is not None else None))
        got = [pfaffian(cm) for cm in classes]
        want = [pfaffian(build_adjacency(m, Kc, omega, backend))
                for Kc in enumerate_classes(m, K, flips)]
        if backend == "exact":
            # Gaussian integers Pf(L*A) over the scale L^(n/2)
            assert all(type(pf.re) is type(pf.im) is int for pf in got), label
            assert [pf.scale(Fraction(1, cm.scale)) for pf, cm in zip(got, classes)] == want, \
                label
        else:
            top = max(map(abs, want))
            assert all(abs(g - w) <= 1e-12 * top for g, w in zip(got, want)), label
        if label.startswith(("rp2", "klein")):
            assert c == 1, label
        if label.startswith("twisted torus"):
            assert c == 0, label
    assert {c for c, _ in seen} == {0, 1, None}
    assert {t for _, t in seen} >= {0, 1, 2, 3}


def test_route_scale_is_the_weights_lcd_to_the_half_dimension():
    # weights 1/2, 2/3, 5 and 1 have L = 6: every class of the 4x4 torus is
    # Pf(6*A), a Gaussian integer over 6^8
    inst = lattice(4, 4, "torus", weights=[Fraction(1, 2), Fraction(2, 3), 5, 1] * 8)
    m, flips = inst.map, inst.basis.dual_cochains
    K = construct_kasteleyn(m)
    assert {c.scale for c in _class_matrices(m, K, flips, "float")} == {1}
    classes = _class_matrices(m, K, flips, "exact")
    assert {c.scale for c in classes} == {6 ** 8}
    for c, Kc in zip(classes, enumerate_classes(m, K, flips)):
        pf = pfaffian(c)
        assert type(pf.re) is type(pf.im) is int
        assert pf.scale(Fraction(1, 6 ** 8)) == pfaffian(build_adjacency(m, Kc))


def test_exact_gauged_route_takes_one_residue_per_prime(monkeypatch):
    # rp2 10x10 under the practical route: every residue is of a real matrix
    # (i -> s never taken), one per prime and class
    from pfdimers.pfaffian import _EdgeMatrix

    calls = []
    residue = _EdgeMatrix._residue

    def spy(self, re, im, p, s):
        calls.append((p, s))
        return residue(self, re, im, p, s)

    monkeypatch.setattr(_EdgeMatrix, "_residue", spy)
    inst = lattice(10, 10, "rp2")
    r = partition(inst.map, "practical", curves=inst.curves, basis=inst.basis)
    assert r.value == 12270412090464
    assert calls and all(s == 0 for _, s in calls)
    assert len(calls) == len(r.terms) * len({p for p, _ in calls})


def _arithmetic(monkeypatch):
    """Record the type of every class elimination's zero: float or complex."""
    from pfdimers.pfaffian import _EdgeMatrix

    kinds = []
    pf = _EdgeMatrix._pf

    def spy(self, values, zero, p, s, scale=0.0):
        kinds.append(type(zero))
        return pf(self, values, zero, p, s, scale)

    monkeypatch.setattr(_EdgeMatrix, "_pf", spy)
    return kinds


@pytest.mark.parametrize("surface, size", [("rp2", 20), ("rp2", 24), ("klein_hexagon", 20)])
def test_float_gauged_lattice_classes_are_eliminated_in_real_floats(monkeypatch, surface, size):
    kinds = _arithmetic(monkeypatch)
    inst = lattice(size, size, surface)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        r = partition(inst.map, "practical", curves=inst.curves, basis=inst.basis,
                      backend="float")
    assert len(kinds) == len(r.terms) and set(kinds) == {float}


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_route_without_a_gauge_stays_complex(monkeypatch, backend):
    rng = random.Random(3)
    while True:
        m = random_map(rng, 8, 5)
        om = m.twist_bits()
        if m.vertex_count % 2 == 0 and om and _reference_gauge(m, om) is None:
            break
    if backend == "exact":
        from pfdimers.pfaffian import _EdgeMatrix

        calls = []
        residue = _EdgeMatrix._residue

        def spy(self, re, im, p, s):
            calls.append(s)
            return residue(self, re, im, p, s)

        monkeypatch.setattr(_EdgeMatrix, "_residue", spy)
    else:
        calls = _arithmetic(monkeypatch)
    K, flips = construct_kasteleyn(m, omega=om), cycle_basis(m).dual_cochains
    got = [pfaffian(c) for c in _class_matrices(m, K, flips, backend, om)]
    assert calls
    if backend == "exact":  # both roots of -1 mod p: X + sY and X - sY
        assert all(calls) and len(calls) % 2 == 0
    else:
        assert set(calls) == {complex}
    want = [pfaffian(build_adjacency(m, Kc, om, backend))
            for Kc in enumerate_classes(m, K, flips)]
    if backend == "exact":
        assert got == want
    else:
        assert all(abs(g - w) <= 1e-12 * max(map(abs, want)) for g, w in zip(got, want))


def test_gauge_is_not_searched_when_omega_is_zero(monkeypatch):
    pf = sys.modules["pfdimers.pfaffian"]  # the package's ``pfaffian`` is the function
    searched = []
    gauge = pf._gauge
    monkeypatch.setattr(pf, "_gauge", lambda m, om: searched.append(om) or gauge(m, om))
    inst = lattice(6, 6, "torus")
    partition(inst.map, "practical", curves=inst.curves, basis=inst.basis)
    partition(inst.map, "spin", basis=inst.basis)
    assert searched == []
    inst = lattice(6, 6, "rp2")
    partition(inst.map, "practical", curves=inst.curves, basis=inst.basis)
    assert searched == [inst.map.twist_bits()]


# ---------------------------------------------------------------------------
# Repeated cell values: parallel edges whose flips cancel in a cell give
# classes one matrix, eliminated once per route and arithmetic
# ---------------------------------------------------------------------------

def _cell_vector(c):
    """The (re, im) cell values of a class, summed from its route's edges."""
    route = c.route
    re, im = [0] * len(route.cells), [0] * len(route.cells)
    for e, (cell, r, i) in enumerate(route.slots):
        sign = -1 if (c.flips >> e) & 1 else 1
        re[cell] += sign * r
        im[cell] += sign * i
    return tuple(re), tuple(im)


def _evaluated(m, basis):
    """The classes pin evaluates on m: on a non-orientable map, the first of
    each conjugate pair (idx, idx ^ xi0), xi0 omega's values on the basis cycles."""
    om = m.twist_bits()
    xi0 = sum(dot(om, chain) << i for i, chain in enumerate(basis.chains))
    return [idx for idx in range(2 ** basis.rank) if idx ^ xi0 >= idx]


def _repeating_maps():
    """Random maps on 4-6 vertices with b1 in {7, 8} and a perfect matching,
    untwisted and twisted in turn, on which some classes that pin evaluates
    repeat an earlier one's cell values."""
    rng, maps = random.Random(0), []
    while len(maps) < 4:
        twisted = len(maps) % 2 == 1
        m = random_map(rng, max_vertices=6, extra_edges=10, twisted=twisted)
        om, basis = m.twist_bits(), cycle_basis(m)
        if m.vertex_count not in (4, 6) or basis.rank not in (7, 8) or \
                bool(om) != twisted or find_matching(m) is None:
            continue
        classes = _class_matrices(m, construct_kasteleyn(m, omega=om), basis.dual_cochains,
                                  "exact", om)
        classes = [classes[idx] for idx in _evaluated(m, basis)]
        if len(set(map(_cell_vector, classes))) < len(classes):
            maps.append(m)
    return maps


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_repeated_cell_values_are_eliminated_once(monkeypatch, backend):
    module, route_module = sys.modules["pfdimers.pfaffian"], sys.modules["pfdimers.partition"]
    eliminate, pf = module._eliminate, route_module.pfaffian
    runs, calls = [], []  # every elimination's arithmetic and input; every class evaluated

    def spy(a, end, stop, factor, p=0, scale=0.0, *shape):
        runs.append((p, repr(a), repr(factor)))
        return eliminate(a, end, stop, factor, p, scale, *shape)

    monkeypatch.setattr(module, "_eliminate", spy)
    monkeypatch.setattr(route_module, "pfaffian",
                        lambda c: calls.append((c, pf(c))) or calls[-1][1])
    for m in _repeating_maps():
        om = m.twist_bits()
        basis = cycle_basis(m)
        K, flips, evaluated = construct_kasteleyn(m, omega=om), basis.dual_cochains, \
            _evaluated(m, basis)
        runs.clear()
        calls.clear()
        partition_general_pin(m, backend=backend)
        assert len(calls) == len(evaluated) == 2 ** (len(flips) - bool(om))
        route = calls[0][0].route
        distinct = {_cell_vector(c) for c, _ in calls}
        assert len(route.memo) == len(distinct) < len(calls)
        memoised = list(runs)
        assert len(set(memoised)) == len(memoised)
        # each class gives what it gives alone on a fresh route, byte for
        # byte, and those routes run the same eliminations, the repeated ones again
        runs.clear()
        for idx, (c, got) in zip(evaluated, calls):
            alone = _class_matrices(m, K, flips, backend, om)[idx]
            assert alone.flips == c.flips
            want = pfaffian(alone)
            assert (type(got), repr(got)) == (type(want), repr(want))
        assert set(runs) == set(memoised) and len(runs) > len(memoised)


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("surface", ["torus", "klein_hexagon", "rp2"])
def test_lattice_classes_never_repeat(monkeypatch, surface, backend):
    # torus and klein_hexagon lattices have no parallel edges, and no class
    # of rp2's repeats another's cell values: every class is eliminated
    route_module = sys.modules["pfdimers.partition"]
    pf, routes = route_module.pfaffian, []
    monkeypatch.setattr(route_module, "pfaffian", lambda c: routes.append(c.route) or pf(c))
    for method in ("pin", "practical"):
        inst = lattice(4, 4, surface)  # a fresh map: no known class serves the route
        routes.clear()
        partition(inst.map, method, curves=inst.curves, basis=inst.basis, backend=backend)
        assert len(set(map(id, routes))) == 1
        assert len(routes[0].memo) == len(routes), method
        shared = max(Counter(c for c, _, _ in routes[0].slots).values())
        assert (shared > 1) == (surface == "rp2"), method
    # on one map, exact practical after pin takes every class that pin made known
    inst = lattice(4, 4, surface)
    partition(inst.map, "pin", basis=inst.basis, backend=backend)
    routes.clear()
    partition(inst.map, "practical", curves=inst.curves, basis=inst.basis, backend=backend)
    assert (routes == []) == (backend == "exact")


@pytest.mark.parametrize("call, error, message", [
    (lambda: skew_matrix([[GaussianRational.of(0), GaussianRational.of(1)]] * 2, True),
     ValueError, "not skew-symmetric"),
    (lambda: pfaffian_expansion(skew_matrix([[GaussianRational.of(0)] * 3] * 3, True)),
     OddDimension, "dimension 3 is odd"),
    (lambda: pfaffian_expansion(skew_matrix([[0j] * 14] * 14, False)),
     TooLarge, "dimension 14 exceeds expansion bound 12"),
    (lambda: bipartite_pfaffian(skew_matrix([[0j] * 3] * 3, False)),
     OddDimension, "dimension 3 is odd"),
], ids=["not-skew", "expansion-odd", "expansion-too-large", "bipartite-odd"])
def test_matrix_rejections_name_their_fault(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_float_bipartite_pfaffian_takes_the_largest_pivot():
    # the float determinant pivots on the largest entry of each column; the
    # first column's largest sits below the diagonal, so rows are swapped
    rng = random.Random(2)
    k = 4
    block = [[complex(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(k)]
             for _ in range(k)]
    block[k - 1][0] = 50
    rows = [[0j] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        for j in range(k):
            rows[i][k + j], rows[k + j][i] = block[i][j], -block[i][j]
    a = skew_matrix(rows, exact=False)
    assert bipartite_pfaffian(a) == pytest.approx(pfaffian(a), rel=1e-12)


# ---------------------------------------------------------------------------
# Structural zeros: on a bipartite pattern with balanced colours the kernel
# updates only entries between positions of different parity, and a split
# interior row updates its panel only up to its panel end
# ---------------------------------------------------------------------------

def _auto_route(monkeypatch, inst):
    """The prepared route of exact ``partition(..., "auto")`` on a lattice instance."""
    route_module = sys.modules["pfdimers.partition"]
    pf, routes = route_module.pfaffian, []
    monkeypatch.setattr(route_module, "pfaffian", lambda c: routes.append(c.route) or pf(c))
    partition(inst.map, "auto", curves=inst.curves, basis=inst.basis)
    monkeypatch.setattr(route_module, "pfaffian", pf)
    assert len(set(map(id, routes))) == 1
    return routes[0]


_STRIDED = [("planar", 4, 4), ("planar", 5, 6), ("torus", 4, 4), ("torus", 6, 8),
            ("torus", 20, 20), ("klein_hexagon", 4, 6), ("klein_hexagon", 5, 10),
            ("rp2", 5, 4), ("rp2", 4, 5)]
_UNSTRIDED = [("torus", 5, 6), ("rp2", 10, 10), ("klein_hexagon", 20, 20)]


@pytest.mark.parametrize("surface, rows, cols, step",
                         [(*c, 2) for c in _STRIDED] + [(*c, 1) for c in _UNSTRIDED])
def test_lattice_route_steps(monkeypatch, surface, rows, cols, step):
    route = _auto_route(monkeypatch, lattice(rows, cols, surface))
    assert route.step == step
    if step == 2:  # every cell joins positions of different parity
        assert all((i + j) % 2 for i, j in route.cells)


def _unstrided(monkeypatch):
    """Make every route prepared from here on take step 1 in the same order."""
    module = sys.modules["pfdimers.pfaffian"]
    rcm = module._rcm_order

    def step_one(*args):
        position, end, panel, _, *rest = rcm(*args)
        return (position, end, panel, 1, *rest)

    monkeypatch.setattr(module, "_rcm_order", step_one)


def _class_pfaffians(m, K, flips, omega=None):
    return [pfaffian(c) for c in _class_matrices(m, K, flips, "exact", omega)]


def test_strided_class_pfaffians_equal_step_one_on_lattices(monkeypatch):
    cases = []
    for surface, rows, cols in _STRIDED + _UNSTRIDED:
        inst = lattice(rows, cols, surface)
        m = inst.map
        flips = [cv.cross for cv in inst.curves] or list(cycle_basis(m).pd_cochains)
        cases.append((f"{surface} {rows}x{cols}", m, construct_kasteleyn(m), flips))
    strided = [_class_pfaffians(m, K, flips) for _, m, K, flips in cases]
    _unstrided(monkeypatch)
    for (label, m, K, flips), want in zip(cases, strided):
        assert _class_pfaffians(m, K, flips) == want, label


def test_strided_class_pfaffians_equal_step_one_on_random_maps(monkeypatch):
    rng, cases = random.Random(2), []
    while len(cases) < 300:
        m = random_map(rng, max_vertices=12, extra_edges=4, twisted=len(cases) % 2 == 1)
        if m.vertex_count % 2 == 0:
            om = m.twist_bits()
            cases.append((m, construct_kasteleyn(m, omega=om), cycle_basis(m).dual_cochains, om))
    routes = [_class_matrices(m, K, flips, "exact", om)[0].route for m, K, flips, om in cases]
    assert sum(r.step == 2 for r in routes) >= 40
    assert sum(r.step == 2 and r.stop < len(r.end) for r in routes) >= 3
    strided = [_class_pfaffians(*case) for case in cases]
    _unstrided(monkeypatch)
    assert [_class_pfaffians(*case) for case in cases] == strided


def test_unbalanced_bipartite_patterns_take_step_one(monkeypatch):
    # K_{1,3} beside an edge: one colour holds 2 indices, the other 4, and Pf = 0
    edges = [(0, 1, 2, 0), (0, 2, 3, 0), (0, 3, 5, 0), (4, 5, 7, 0)]
    route = _EdgeMatrix(6, edges, True)
    assert route.step == 1 and route.pfaffian(0) == GaussianRational.of(0)
    # the 3x4 grid, balanced, with a seam whose ends hold 2 indices of one
    # colour and 4 of the other: the interior is unbalanced too, so it has
    # no perfect matching, and the route is prepared unsplit with step 2
    grid = [(r * 4 + c, r * 4 + c + 1) for r in range(3) for c in range(3)]
    grid += [(r * 4 + c, r * 4 + c + 4) for r in range(2) for c in range(4)]
    edges = [(a, b, 1 + (a * 7 + b * 3) % 5, 0) for a, b in grid]
    seam = sum(1 << e for e, (a, b, _, _) in enumerate(edges)
               if (a, b) in {(0, 1), (0, 4), (9, 10), (10, 11)})
    route = _EdgeMatrix(12, edges, True, [seam])
    assert route.stop == 12 and route.step == 2
    module = sys.modules["pfdimers.pfaffian"]
    eliminate, sizes = module._eliminate, []

    def spy(a, end, stop, *rest):
        sizes.append((len(a), stop))
        return eliminate(a, end, stop, *rest)

    monkeypatch.setattr(module, "_eliminate", spy)
    got = route.pfaffian(0)
    assert sizes and set(sizes) == {(12, 12)}
    rows = [[GaussianRational.of(0)] * 12 for _ in range(12)]
    for a, b, w, _ in edges:
        rows[a][b], rows[b][a] = GaussianRational.of(w), GaussianRational.of(-w)
    assert got == pfaffian_expansion(SkewMatrix(tuple(map(tuple, rows)), exact=True))
    assert not got.is_zero()


def test_a_seam_of_its_own_component_takes_step_two_split(monkeypatch):
    # the 2x4 grid beside an edge (8, 9) whose two ends are the seam: the
    # search colours that component too, so the pattern is balanced
    grid = [(r * 4 + c, r * 4 + c + 1) for r in range(2) for c in range(3)]
    grid += [(c, c + 4) for c in range(4)] + [(8, 9)]
    edges = [(a, b, 1 + (a * 5 + b * 3) % 7, 0) for a, b in grid]
    seam = 1 << len(grid) - 1
    route = _EdgeMatrix(10, edges, True, [seam])
    assert route.step == 2 and route.stop == 8
    got = [route.pfaffian(f) for f in (0, seam)]
    _unstrided(monkeypatch)
    plain = _EdgeMatrix(10, edges, True)
    assert plain.step == 1 and plain.stop == 10
    assert got == [plain.pfaffian(f) for f in (0, seam)]
    assert route.stop == 8 and not got[0].is_zero()  # the split held


def _combine_writes(monkeypatch, inst, backend):
    """Entries ``_combine`` writes during ``partition(..., "auto")``."""
    module = sys.modules["pfdimers.pfaffian"]
    combine, writes = module._combine, [0]

    def counting(row, b, d, cols, f, g, p):
        writes[0] += len(cols)
        return combine(row, b, d, cols, f, g, p)

    monkeypatch.setattr(module, "_combine", counting)
    partition(inst.map, "auto", curves=inst.curves, basis=inst.basis, backend=backend)
    monkeypatch.setattr(module, "_combine", combine)
    return writes[0]


def test_structural_zeros_are_not_written(monkeypatch):
    # the kernel wrote 534963 entries on float torus 20x20, 36% of them
    # nonzero, and 117712 on klein_hexagon 20x20, before it skipped the
    # entries between two indices of one colour and the panel past its end
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        torus = _combine_writes(monkeypatch, lattice(20, 20, "torus"), "float")
        klein = _combine_writes(monkeypatch, lattice(20, 20, "klein_hexagon"), "float")
    assert torus <= 534963 // 2
    assert klein < 117712


def test_exact_torus_order_searches_through_the_seam(monkeypatch):
    # exact auto on torus 20x20 wrote 185252 entries when the interior's
    # search stopped at the seam's ends and 141611 when it passes through them
    assert _combine_writes(monkeypatch, lattice(20, 20, "torus"), "exact") <= 150000


def _slice_combine(row, b, d, cols, f, g, p):
    """The row update by slices and list comprehensions: the reference for
    the in-place ``_combine``, with the same expressions in the same order."""
    cols = slice(cols.start, cols.stop, cols.step)
    c = row[cols]
    if f and g:
        b, d = b[cols], d[cols]
        row[cols] = ([(x + f * y - g * z) % p for x, y, z in zip(c, b, d)] if p else
                     [x + f * y - g * z for x, y, z in zip(c, b, d)])
        return
    f, b = (f, b[cols]) if f else (-g, d[cols])
    row[cols] = [(x + f * y) % p for x, y in zip(c, b)] if p else [x + f * y for x, y in zip(c, b)]


_P30, _P53 = _modulus(30, 0)[0], _modulus(53, 0)[0]
_ARITHMETIC = {  # p, zero and a random nonzero entry
    "real": (0, 0.0, lambda rng: rng.uniform(-1, 1)),
    "complex": (0, 0j, lambda rng: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))),
    "p30": (_P30, 0, lambda rng: rng.randrange(1, _P30)),
    "p53": (_P53, 0, lambda rng: rng.randrange(1, _P53)),
}


def _kernel_input(rng, n, stop, step, zero, draw):
    """A random upper triangle for ``_eliminate`` with its envelope and panel
    ends: row i < stop is nonzero only before a random end[i] <= stop and,
    from stop on, before a random panel[i]; the rows from stop on are full
    right of the diagonal.  With step 2 only entries with odd j - i are set.
    A third of the entries in reach are zero."""
    a = [[zero] * n for _ in range(n)]
    end, panel = [], []
    for i in range(n):
        e, ph = (rng.randint(i + 1, stop), rng.randint(stop, n)) if i < stop else (n, n)
        end.append(e)
        panel.append(ph)
        for j in chain(range(i + 1, e), range(max(stop, i + 1), ph)):
            if (step == 1 or (j - i) % 2) and rng.randrange(3):
                a[i][j] = draw(rng)
    return a, end, panel if stop < n else ()


@pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("arithmetic", list(_ARITHMETIC))
def test_in_place_combine_equals_slice_reference(monkeypatch, arithmetic, step, split):
    module = sys.modules["pfdimers.pfaffian"]
    p, zero, draw = _ARITHMETIC[arithmetic]
    in_place, kinds = module._combine, set()

    def reference(row, b, d, cols, f, g, q):
        kinds.add("fg" if f and g else "f" if f else "g")
        _slice_combine(row, b, d, cols, f, g, q)

    rng = random.Random(f"{arithmetic} {step} {split}")
    for n in (6, 10, 16, 16, 22):
        stop = n - 2 * rng.randint(1, n // 4) if split else n
        a, end, panel = _kernel_input(rng, n, stop, step, zero, draw)
        runs = []
        for combine in (in_place, reference):
            monkeypatch.setattr(module, "_combine", combine)
            b, e, ph = [row[:] for row in a], list(end), list(panel)
            result = module._eliminate(b, e, stop, 1, p, 0.0, step, ph)
            runs.append(repr((result, b, e, ph)))
        assert runs[0] == runs[1]
    # every update ran; on an alternating pattern f or g is always 0
    assert kinds == ({"f", "g"} if step == 2 else {"fg", "f", "g"})


@pytest.mark.parametrize("step", [1, 2])
def test_mod_p_pivot_scan_reaches_the_envelope_and_stops_there(step):
    module = sys.modules["pfdimers.pfaffian"]
    # Pf = a03 * a12 when a03 and a12 are the only nonzero entries
    a = [[0, 0, 0, 5], [0, 0, 7, 0], [0] * 4, [0] * 4]
    assert module._eliminate(a, [4, 3, 3, 4], 4, 1, _P30, step=step) == 35
    # row 0 is zero before its envelope end 3, so the entry at column 3 is not read
    a = [[0, 0, 0, 5], [0, 0, 7, 0], [0] * 4, [0] * 4]
    assert module._eliminate(a, [3, 3, 3, 4], 4, 1, _P30, step=step) == 0


def _reference_rcm_order(n, pairs, ends=()):
    """The layout one list per step: the reference for ``_rcm_order``."""
    module = sys.modules["pfdimers.pfaffian"]
    adj = [set() for _ in range(n)]
    for a, b in sorted({(min(a, b), max(a, b)) for a, b in pairs}):
        adj[a].add(b)
        adj[b].add(a)
    degree = [len(s) for s in adj]
    colour, bipartite, head = [-1] * n, True, 0
    order = []
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
    for i, o in enumerate(module._alternate(inner, colour, first) if step == 2 else inner):
        position[o] = i
    if last:
        seam = sorted(last, key=lambda v: min([position[w] for w in adj[v] if w not in last],
                                              default=n))
        for i, o in enumerate(module._alternate(seam, colour, first) if step == 2 else seam,
                              stop):
            position[o] = i
    end, panel = [0] * n, [stop] * stop + [n] * (n - stop)
    for o, i in enumerate(position):
        end[i] = max([i + 1] + [position[w] + 1 for w in adj[o]
                                if o in last or w not in last])
    for o in last:
        for w in adj[o]:
            i = position[w]
            if i < stop:
                panel[i] = max(panel[i], position[o] + 1)
    return position, end, panel, step, stop


def _random_pattern(rng, n, bipartite, isolated):
    """Random pairs on n indices, across a random 2-colouring if bipartite,
    leaving ``isolated`` indices out of every pair."""
    live = rng.sample(range(n), n - isolated)
    colour = {v: rng.randrange(2) for v in live}
    pairs = []
    for _ in range(rng.randint(1, 3 * n)):
        a, b = rng.sample(live, 2)
        if not bipartite or colour[a] != colour[b]:
            pairs.append((a, b) if rng.randrange(2) else (b, a))
    return pairs


def test_rcm_order_equals_the_reference_on_random_patterns():
    module = sys.modules["pfdimers.pfaffian"]
    rng, kinds = random.Random(40), Counter()
    for trial in range(600):
        n = rng.randrange(4, 31, 2)
        pairs = _random_pattern(rng, n, trial % 2 == 0, rng.choice((0, 0, 1, 2)))
        flipped = [pr for pr in pairs if rng.randrange(4) == 0] if trial % 3 else []
        ends = sorted({v for pr in flipped for v in pr})
        got = module._rcm_order(n, pairs, ends)
        assert got == _reference_rcm_order(n, pairs, ends), (n, pairs, ends)
        kinds[got[3], got[4] < n, len(set(v for pr in pairs for v in pr)) < n] += 1
    # both steps, split and unsplit, with and without isolated indices
    assert {(s, split) for s, split, _ in kinds} == {(1, False), (1, True), (2, False), (2, True)}
    assert {iso for _, _, iso in kinds} == {False, True}


def test_rcm_order_equals_the_reference_on_lattice_routes():
    module = sys.modules["pfdimers.pfaffian"]
    for surface in ("planar", "torus", "klein_hexagon", "rp2"):
        for rows, cols in ((4, 4), (5, 6), (10, 10)):
            inst = lattice(rows, cols, surface)
            m = inst.map
            pairs = [(e.u, e.v) for e in m.edges]
            flips = [cv.cross for cv in inst.curves] or list(cycle_basis(m).pd_cochains)
            seam = 0
            for f in flips:
                seam |= f
            ends = sorted({v for e, pr in enumerate(pairs) if seam >> e & 1 for v in pr})
            for e in ((), ends):
                got = module._rcm_order(m.vertex_count, pairs, e)
                assert got == _reference_rcm_order(m.vertex_count, pairs, e), surface


def _pivot_row_after(row):
    """Row 0 of a 4x4 float skew matrix with the given (a01, a02, a03) and
    a12 = 2, a13 = -1, a23 = 5, after an elimination that gave its Pfaffian."""
    module = sys.modules["pfdimers.pfaffian"]
    a = [[0.0, *row], [0.0, 0.0, 2.0, -1.0], [0.0, 0.0, 0.0, 5.0], [0.0] * 4]
    pf = row[0] * 5.0 - row[1] * -1.0 + row[2] * 2.0
    scale = max(map(abs, chain.from_iterable(a)))
    got = module._eliminate(a, [4, 4, 4, 4], 4, 1.0, 0, scale)
    assert got == pytest.approx(pf, rel=1e-15)
    return a[0][1:]


def test_float_pivot_is_the_nearest_entry_within_a_quarter_of_the_largest():
    # 1 >= 3/4: the nearest entry is the pivot, and nothing is swapped
    assert _pivot_row_after([1.0, 3.0, 0.0]) == [1.0, 3.0, 0.0]
    assert _pivot_row_after([-0.75, 3.0, -1.0]) == [-0.75, 3.0, -1.0]
    # 0.5 < 3/4: the largest is swapped in
    assert _pivot_row_after([0.5, 3.0, 0.0]) == [3.0, 0.5, 0.0]
    # the nearest entry within a quarter, not the largest
    assert _pivot_row_after([0.1, 1.0, 3.0]) == [1.0, 0.1, 3.0]


def test_float_pivot_rule_cuts_rp2_writes(monkeypatch):
    # the largest entry as pivot wrote 167351 entries on float rp2 20x20,
    # the nearest within a quarter of it 120907
    assert _combine_writes(monkeypatch, lattice(20, 20, "rp2"), "float") <= 130000


def test_a_nan_row_still_raises_float_out_of_range():
    # no entry compares at least a quarter of a NaN largest: the pivot stays
    # next to the pivot row, and the NaN product leaves the double range
    module = sys.modules["pfdimers.pfaffian"]
    a = [[0.0, math.nan, 1.0, 0.0], [0.0, 0.0, 2.0, -1.0], [0.0, 0.0, 0.0, 5.0], [0.0] * 4]
    with pytest.raises(FloatOutOfRange, match="nan"):
        module._eliminate(a, [4, 4, 4, 4], 4, 1.0, 0, 5.0)
