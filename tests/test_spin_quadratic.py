from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfdimers import (
    DegenerateForm,
    NotAMatching,
    NotOrientableForm,
    NotSimple,
    arf,
    basis_enhancement,
    brown,
    build_map,
    canonical_orientation,
    classify,
    construct_kasteleyn,
    cycle_basis,
    enumerate_classes,
    enumerate_matchings,
    extend_enhancement,
    find_matching,
    lattice,
    matching_sign,
    n_mismatch,
    normalize_qB,
    quad_enhancement,
)
from pfdimers.errors import BadDimensions
from pfdimers.exactnum import GaussianRational
from pfdimers.generators import random_map
from pfdimers.homology import (
    _sides,
    chain_from_edges,
    coboundary_preimage,
    dot,
    edges_of,
    fundamental_cycle,
    reverse_walk,
    vertex_coboundary,
    walk_chain,
)
from pfdimers.kasteleyn import Orientation, omega_change
from pfdimers.spin_quadratic import ell_omega, gauss_sum, shifted_browns
from pfdimers.surface_graph import odd_join, spanning_tree


def _single_edge():
    return build_map(2, [[0], [1]], [(0, 1)], [0], [1])


def test_matching_sign_single_edge():
    m = _single_edge()
    K_fwd = Orientation(0, 1)
    K_rev = Orientation(1, 1)
    assert matching_sign(m, K_fwd, 1) == 1
    assert matching_sign(m, K_rev, 1) == -1


def test_matching_sign_four_cycle(sphere_square):
    m = sphere_square
    K = canonical_orientation(m)  # all edges low -> high
    # the matching of the two horizontal edges (0-1) and (2-3)
    D = 0
    for e, edge in enumerate(m.edges):
        if {edge.u, edge.v} in ({0, 1}, {2, 3}):
            D |= 1 << e
    assert matching_sign(m, K, D) == 1


def test_matching_sign_rejects_non_matchings(sphere_square):
    with pytest.raises(NotAMatching):
        matching_sign(sphere_square, canonical_orientation(sphere_square), 1)


def test_matching_sign_rejects_a_loop(sphere_loop):
    with pytest.raises(NotAMatching, match="a loop cannot carry a dimer"):
        matching_sign(sphere_loop, canonical_orientation(sphere_loop), 1)


def test_sign_product_over_difference_cycles():
    # product of two matching signs = product over the loops of D + D' of
    # -(-1)^(mismatch count)
    rng = random.Random(0)
    tested = 0
    for _ in range(40):
        m = random_map(rng)
        ms = list(enumerate_matchings(m))
        if len(ms) < 2:
            continue
        K = Orientation(rng.getrandbits(m.edge_count), m.edge_count)
        for D1, D2 in combinations(ms[:6], 2):
            loops = _difference_loops(m, D1 ^ D2)
            prod = 1
            for loop in loops:
                n = sum(K.disagrees_with_arc(h) for h in loop)
                prod *= (-1) ** (n + 1)
            assert matching_sign(m, K, D1) * matching_sign(m, K, D2) == prod
            tested += 1
    assert tested > 10


def _difference_loops(m, chain):
    """Split an even-degree edge set into its disjoint simple loops as walks."""
    from pfdimers.homology import edges_of

    edges = set(edges_of(chain))
    loops = []
    while edges:
        e0 = min(edges)
        edges.discard(e0)
        walk = [2 * e0]
        cur = m.arc_target(2 * e0)
        start = m.half_vertex(2 * e0)
        while cur != start:
            nxt = next(e for e in edges
                       if m.edges[e].u == cur or m.edges[e].v == cur)
            edges.discard(nxt)
            h = 2 * nxt if m.edges[nxt].u == cur else 2 * nxt + 1
            walk.append(h)
            cur = m.arc_target(h)
        loops.append(tuple(walk))
    return loops


def test_n_mismatch_traversal_invariance():
    inst = lattice(3, 4, "torus")
    K = construct_kasteleyn(inst.map)
    for walk in inst.basis.cycles:
        if len(walk) % 2 == 0:
            assert n_mismatch(K, walk) % 2 == \
                n_mismatch(K, reverse_walk(walk)) % 2


def test_n_mismatch_flip_toggles():
    inst = lattice(3, 4, "torus")
    K = construct_kasteleyn(inst.map)
    walk = inst.basis.cycles[0]
    e = walk[0] // 2
    assert (n_mismatch(K, walk) + n_mismatch(K.flipped(1 << e), walk)) % 2 == 1


def test_ell_zero_when_dimers_on_cycle():
    # a 4-cycle matched by alternating edges: every dimer lies on the cycle
    m = lattice(2, 2, "planar").map
    basis_walk = _boundary_walk(m)
    D = find_matching(m)
    assert ell_omega(m, D, basis_walk) == 0


def test_walk_and_matching_checks_once_per_basis():
    # the public evaluators check the walk and the matching on every call;
    # basis_enhancement checks D once and takes the basis cycles as checked
    m = lattice(4, 4, "torus").map
    K, basis, D = construct_kasteleyn(m, 0), cycle_basis(m), find_matching(m)
    walk = basis.cycles[0]
    for evaluate in (lambda walk, D: ell_omega(m, D, walk),
                     lambda walk, D: quad_enhancement(m, K, D, walk)):
        evaluate(walk, D)
        with pytest.raises(NotSimple):
            evaluate(walk + walk, D)
        with pytest.raises(NotAMatching):
            evaluate(walk, D & (D - 1))
    with pytest.raises(NotAMatching):
        basis_enhancement(m, K, D & (D - 1), basis)
    q = basis_enhancement(m, K, D, basis)
    assert q.basis_values == tuple(quad_enhancement(m, K, D, w) for w in basis.cycles)


def _boundary_walk(m):
    # the square's unique cycle as a walk
    basis = cycle_basis(m)
    if basis.rank:
        return basis.cycles[0]
    # sphere square has rank 0; construct the 4-cycle by hand
    from pfdimers.homology import fundamental_cycle
    from pfdimers.surface_graph import spanning_tree

    tree, parent = spanning_tree(m)
    e = next(e for e in range(m.edge_count) if e not in set(tree))
    return fundamental_cycle(m, e, parent)


def test_quad_value_traversal_independent():
    rng = random.Random(1)
    for _ in range(30):
        m = random_map(rng)
        D = find_matching(m)
        if D is None:
            continue
        K = construct_kasteleyn(m) if m.vertex_count % 2 == 0 else None
        if K is None:
            continue
        basis = cycle_basis(m)
        for walk in basis.cycles:
            a = quad_enhancement(m, K, D, walk)
            b = quad_enhancement(m, K, D, reverse_walk(walk))
            assert a == b


def test_quad_klein_beta_values_odd():
    inst = lattice(5, 6, "klein_hexagon")
    m = inst.map
    D = find_matching(m)
    K = construct_kasteleyn(m)
    for walk in inst.basis.cycles:
        assert quad_enhancement(m, K, D, walk) % 2 == 1


def test_quad_parity_is_self_intersection():
    rng = random.Random(2)
    for _ in range(30):
        m = random_map(rng)
        if m.vertex_count % 2:
            continue
        D = find_matching(m)
        if D is None:
            continue
        K = construct_kasteleyn(m)
        basis = cycle_basis(m)
        q = basis_enhancement(m, K, D, basis)
        for i in range(basis.rank):
            assert q.basis_values[i] % 2 == basis.gram[i][i]


def test_extend_enhancement_examples():
    q = extend_enhancement([0, 0], [[0, 1], [1, 0]])
    assert q.evaluate([0, 0]) == 0
    assert q.evaluate([1, 1]) == 2  # q(a+b) = q(a)+q(b)+2(a.b)
    q2 = extend_enhancement([3], [[1]])
    assert q2.evaluate([0]) == 0 and q2.evaluate([1]) == 3


def test_arf_examples():
    gram = [[0, 1], [1, 0]]
    assert arf(extend_enhancement([0, 0], gram)) == 0
    assert arf(extend_enhancement([2, 2], gram)) == 1
    assert arf(extend_enhancement([], [])) == 0
    with pytest.raises(NotOrientableForm):
        arf(extend_enhancement([1, 0], gram))


def test_brown_examples():
    assert brown(extend_enhancement([], [])) == 0
    assert brown(extend_enhancement([1], [[1]])) == 1
    assert brown(extend_enhancement([3], [[1]])) == 7
    with pytest.raises(DegenerateForm):
        brown(extend_enhancement([2], [[0]]))  # degenerate pairing: sum 1 + i^2 = 0


def test_brown_additive_on_examples():
    # Klein bottle forms: gram I2, odd values; brown in {0, 2, 6}
    vals = {brown(extend_enhancement([a, b], [[1, 0], [0, 1]]))
            for a in (1, 3) for b in (1, 3)}
    assert vals == {0, 2, 6}


def test_enhancement_law_on_maps():
    # q(x+y) = q(x) + q(y) + 2 x.y checked through simple representatives:
    # evaluate() implements the law, so check it against direct evaluation
    # on the walk representatives for basis classes
    rng = random.Random(3)
    for _ in range(30):
        m = random_map(rng)
        if m.vertex_count % 2:
            continue
        D = find_matching(m)
        if D is None:
            continue
        K = construct_kasteleyn(m)
        basis = cycle_basis(m)
        q = basis_enhancement(m, K, D, basis)
        for i, walk in enumerate(basis.cycles):
            coords = [1 if j == i else 0 for j in range(basis.rank)]
            assert q.evaluate(coords) == quad_enhancement(m, K, D, walk)


def test_normalize_qB_matching_independent():
    inst = lattice(2, 4, "klein_hexagon")
    m, basis = inst.map, inst.basis
    K = construct_kasteleyn(m)
    ms = list(enumerate_matchings(m))
    tables = set()
    for D in ms[:8]:
        qB = normalize_qB(m, basis_enhancement(m, K, D, basis), D, basis)
        tables.add(qB.basis_values)
    assert len(tables) == 1


def test_normalize_qB_torus_independent():
    inst = lattice(4, 4, "torus")
    m, basis = inst.map, inst.basis
    K = construct_kasteleyn(m)
    ms = list(enumerate_matchings(m))
    tables = {normalize_qB(m, basis_enhancement(m, K, D, basis), D, basis).basis_values
              for D in [ms[0], ms[len(ms) // 2], ms[-1]]}
    assert len(tables) == 1


def _random_map_b1(seed, orientable):
    """A random map with an even number (>= 4) of vertices, a perfect
    matching and first Betti number >= 4."""
    rng = random.Random(seed)
    while True:
        m = random_map(rng, max_vertices=6, extra_edges=7, twisted=not orientable)
        surface = classify(m)
        if (m.vertex_count >= 4 and m.vertex_count % 2 == 0
                and surface.b1 >= 4 and surface.orientable == orientable
                and find_matching(m) is not None):
            return m


def test_qB_equivariance_under_class_flips():
    # class idx flips K by the dual cocycles in idx: its enhancement is the
    # base one shifted by the bits of idx, and its matching sign changes by
    # (-1)^|phi_i & D| per cocycle (each flipped dimer swaps one pair)
    maps = [lattice(2, 4, "klein_hexagon").map,
            _random_map_b1(0, orientable=True),
            _random_map_b1(0, orientable=False)]
    for m in maps:
        basis = cycle_basis(m)
        D = find_matching(m)
        om = m.twist_bits()
        K = construct_kasteleyn(m)
        q0 = basis_enhancement(m, K, D, basis, om)
        classes = enumerate_classes(m, K, basis.dual_cochains)
        assert len(classes) == 1 << basis.rank
        eps0 = matching_sign(m, K, D)
        for idx, Kc in enumerate(classes):
            bits = [(idx >> j) & 1 for j in range(basis.rank)]
            flipped = sum((phi & D).bit_count()
                          for phi, b in zip(basis.dual_cochains, bits) if b)
            assert matching_sign(m, Kc, D) == eps0 * (-1) ** flipped
            assert basis_enhancement(m, Kc, D, basis, om) == q0.shifted(bits)
            qB = normalize_qB(m, basis_enhancement(m, Kc, D, basis), D, basis)
            assert qB == normalize_qB(m, q0, D, basis).shifted(bits)


def test_q_invariant_under_equivalence_moves():
    rng = random.Random(4)
    inst = lattice(3, 4, "rp2")
    m, basis = inst.map, inst.basis
    D = find_matching(m)
    K = construct_kasteleyn(m)
    q1 = basis_enhancement(m, K, D, basis)
    flips = 0
    for v in range(m.vertex_count):
        if rng.random() < 0.4:
            flips ^= vertex_coboundary(m, v)
    q2 = basis_enhancement(m, K.flipped(flips), D, basis)
    assert q1.basis_values == q2.basis_values


def test_q_shift_under_matching_change():
    # q_{D'} = q_D + 2 * (class pairing with D + D')
    inst = lattice(2, 4, "klein_hexagon")
    m, basis = inst.map, inst.basis
    K = construct_kasteleyn(m)
    ms = list(enumerate_matchings(m))
    D1, D2 = ms[0], ms[-1]
    q1 = basis_enhancement(m, K, D1, basis)
    q2 = basis_enhancement(m, K, D2, basis)
    for i in range(basis.rank):
        shift = dot(basis.pd_cochains[i], D1 ^ D2)
        assert q2.basis_values[i] == (q1.basis_values[i] + 2 * shift) % 4


def test_q_invariant_under_omega_change():
    inst = lattice(2, 4, "klein_hexagon")
    m, basis = inst.map, inst.basis
    D = find_matching(m)
    om = m.twist_bits()
    K = construct_kasteleyn(m)
    q1 = basis_enhancement(m, K, D, basis, om)
    # move omega across a vertex adjacent to a twisted edge
    v = next(v for v in range(m.vertex_count)
             if any((om >> (h // 2)) & 1 for h in m.rotations[v]))
    om2, K2 = omega_change(m, om, K, v)
    q2 = basis_enhancement(m, K2, D, basis, om2)
    assert q1.basis_values == q2.basis_values


def _corner_sweep():
    """(map, its matchings): lattices 2x2-4x4 of the four surfaces, then
    random maps of up to 8 vertices and 10 chords (parallel edges and
    twists included) with a perfect matching."""
    for kind in ("planar", "torus", "klein_hexagon", "rp2"):
        for rows, cols in product(range(2, 5), repeat=2):
            try:
                m = lattice(rows, cols, kind).map
            except BadDimensions:  # klein_hexagon's odd column counts
                continue
            ms = list(enumerate_matchings(m))
            if ms:
                yield m, ms
    rng = random.Random(17)
    for _ in range(120):
        m = random_map(rng, max_vertices=8, extra_edges=10)
        ms = list(enumerate_matchings(m))
        if ms:
            yield m, ms


def _fundamental_walks(m):
    """Every fundamental cycle of the BFS tree, walked both ways."""
    tree, parent = spanning_tree(m)
    walks = [fundamental_cycle(m, e, parent)
             for e in range(m.edge_count) if e not in set(tree)]
    return walks + [reverse_walk(w) for w in walks]


def _ell_per_corner(m, D, walk, swap):
    """l by the per-corner side test: a vertex counts when its dimer is off
    the walk and lies in the clockwise sector from arrival to departure,
    read with the opposite sign on the chart-swap set."""
    dimer_half = {}
    for e in edges_of(D):
        dimer_half[m.edges[e].u], dimer_half[m.edges[e].v] = 2 * e, 2 * e + 1
    on_walk = {h // 2 for h in walk}
    count = 0
    for i, h in enumerate(walk):
        v, hd, h_out = m.arc_target(h), dimer_half[m.arc_target(h)], walk[(i + 1) % len(walk)]
        if hd // 2 in on_walk:
            continue
        sector, hc = [], m.rotation_prev(h ^ 1)
        while hc != h_out:
            sector.append(hc)
            hc = m.rotation_prev(hc)
        count += (hd in sector) ^ (v in swap)
    return count


def test_ell_counts_match_the_per_corner_rule():
    # l as a count, not only its parity, with omega = twist and every
    # twist + delta(v): the swap set is then one vertex, which each corner
    # through it must read counterclockwise
    checked = 0
    for m, ms in _corner_sweep():
        tw = m.twist_bits()
        for om in [tw] + [tw ^ vertex_coboundary(m, v) for v in range(m.vertex_count)]:
            swap = set(coboundary_preimage(m, om ^ tw))
            for D in ms[::max(1, len(ms) // 3)]:
                for walk in _fundamental_walks(m):
                    assert ell_omega(m, D, walk, om) == _ell_per_corner(m, D, walk, swap)
                    checked += 1
    assert checked > 10000


def test_qB_closed_form_needs_no_matching():
    # q_B(C) = 2(n_K(C) + 1) - |w| + 2 J.(P_C + w + pd_C) for every perfect
    # matching, with w = omega & C, P_C the edges of C's omega-side corner
    # half-edges, pd_C its push-off and J the odd join: the invariants table
    # reads no D
    rng = random.Random(19)
    checked = 0
    for m, ms in _corner_sweep():
        if m.vertex_count % 2:
            continue
        basis, tw, J = cycle_basis(m), m.twist_bits(), odd_join(m)
        K = construct_kasteleyn(m)
        for om in (tw, tw ^ reduce(xor, (vertex_coboundary(m, v) for v in range(m.vertex_count)
                                         if rng.getrandbits(1)), 0)):
            swap = set(coboundary_preimage(m, om ^ tw))
            table = []
            for C, pd in zip(basis.cycles, basis.pd_cochains):
                w = walk_chain(C) & om
                P = chain_from_edges(hc >> 1 for hc in
                                     _sides(m, C, [m.arc_target(h) not in swap for h in C]))
                table.append((2 * (n_mismatch(K, C) + 1) - w.bit_count()
                              + 2 * dot(J, P ^ w ^ pd)) % 4)
            for D in ms[::max(1, len(ms) // 8)]:
                qB = normalize_qB(m, basis_enhancement(m, K, D, basis, om), D, basis)
                assert qB.basis_values == tuple(table)
                checked += len(table)
    assert checked > 2000


def test_gauss_modulus_always_exact():
    rng = random.Random(5)
    for _ in range(40):
        m = random_map(rng)
        if m.vertex_count % 2:
            continue
        D = find_matching(m)
        if D is None:
            continue
        K = construct_kasteleyn(m)
        basis = cycle_basis(m)
        q = basis_enhancement(m, K, D, basis)
        brown(q)  # raises DegenerateForm on modulus mismatch


# ---------------------------------------------------------------------------
# Brown and Arf invariants against the 2^rank-term Gauss sum
# ---------------------------------------------------------------------------

# (1+i)^k = 2^(k/2) * exp(i*pi*k/4) for k = 0..7
_ONE_PLUS_I_POWERS = [GaussianRational.of(1)]
for _ in range(7):
    _ONE_PLUS_I_POWERS.append(_ONE_PLUS_I_POWERS[-1] * GaussianRational.of(1, 1))


def _gauss_brown(q):
    """Reference Brown invariant: the b in 0..7 with gauss_sum(q) =
    2^(r/2) * exp(i*pi*b/4), r the rank, or None when the form is degenerate
    (|sum|^2 != 2^r).  b is the exponent for which (1+i)^b points along the
    sum s, that is, s * conj((1+i)^b) is a positive rational."""
    s = gauss_sum(q)
    if s.abs2() != 2 ** q.rank:
        return None
    rays = [s * GaussianRational(w.re, -w.im) for w in _ONE_PLUS_I_POWERS]
    betas = [b for b, z in enumerate(rays) if z.im == 0 and z.re > 0]
    assert len(betas) == 1
    beta = betas[0]
    # 2^(r/2) * exp(i*pi*beta/4) = (1+i)^beta * 2^((r-beta)/2), a Gaussian
    # rational when beta = r (mod 2)
    assert _ONE_PLUS_I_POWERS[beta].scale(Fraction(2) ** ((q.rank - beta) // 2)) == s
    return beta


def _check_against_gauss_sum(q):
    # the shift-law table of every class q + 2*xi, against per-class brown
    # and arf, and raising as they do
    shifts = [q.shifted([(idx >> j) & 1 for j in range(q.rank)])
              for idx in range(1 << q.rank)]
    beta = _gauss_brown(q)
    if beta is None:
        with pytest.raises(DegenerateForm):
            brown(q)
        with pytest.raises(DegenerateForm):
            shifted_browns(q, 0)
    else:
        # the fact behind the partition routes' Gaussian-rational weights
        assert beta % 2 == q.rank % 2
        assert brown(q) == beta
        assert shifted_browns(q, brown(q)) == [brown(s) for s in shifts]
    even = not any(v % 2 for v in q.basis_values) and \
        not any(q.gram[i][i] for i in range(q.rank))
    if even and beta is not None:
        assert arf(q) == {0: 0, 4: 1}[beta]
        assert shifted_browns(q, 4 * arf(q)) == [4 * arf(s) for s in shifts]
    else:
        with pytest.raises(NotOrientableForm):
            shifted_browns(q, 4 * arf(q))


def _symmetric(rank, bits):
    """Symmetric 0/1 matrix whose upper triangle, row by row, is ``bits``."""
    gram = [[0] * rank for _ in range(rank)]
    upper = [(i, j) for i in range(rank) for j in range(i, rank)]
    for k, (i, j) in enumerate(upper):
        gram[i][j] = gram[j][i] = (bits >> k) & 1
    return gram


@pytest.mark.parametrize("rank", range(4))
def test_brown_arf_exhaustive_small_ranks(rank):
    # every gram matrix and every value table, consistent or not with the
    # gram diagonal
    for bits in range(1 << (rank * (rank + 1) // 2)):
        gram = _symmetric(rank, bits)
        for vals in product(range(4), repeat=rank):
            _check_against_gauss_sum(extend_enhancement(vals, gram))


@given(st.integers(0, 8).flatmap(lambda r: st.tuples(
    st.lists(st.integers(0, 3), min_size=r, max_size=r),
    st.integers(0, 2 ** (r * (r - 1) // 2) - 1),
    st.booleans())))
@settings(max_examples=150, deadline=None)
def test_brown_arf_match_gauss_sum_property(form):
    # enhancements of random, often degenerate, forms: the diagonal is the
    # parity of the values, which are all even for half the draws
    vals, off_diagonal, even = form
    rank = len(vals)
    if even:
        vals = [v & 2 for v in vals]
    gram = [[v & 1 if i == j else 0 for j in range(rank)] for i, v in enumerate(vals)]
    for k, (i, j) in enumerate(combinations(range(rank), 2)):
        gram[i][j] = gram[j][i] = (off_diagonal >> k) & 1
    _check_against_gauss_sum(extend_enhancement(vals, gram))


def _direct_sum(q1, q2):
    r1, r2 = q1.rank, q2.rank
    gram = [list(row) + [0] * r2 for row in q1.gram] + \
        [[0] * r1 + list(row) for row in q2.gram]
    return extend_enhancement(q1.basis_values + q2.basis_values, gram)


def _change_basis(q, rng):
    """The same enhancement on a random basis: row k of an invertible
    matrix P gives the coordinates of new basis class k."""
    r = q.rank
    P = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(4 * r * r):
        i, j = rng.sample(range(r), 2)
        P[i] = [a ^ b for a, b in zip(P[i], P[j])]
    rng.shuffle(P)

    def pairing(x, y):  # x.y from the enhancement law
        s = [a ^ b for a, b in zip(x, y)]
        return (q.evaluate(s) - q.evaluate(x) - q.evaluate(y)) % 4 // 2

    return extend_enhancement([q.evaluate(x) for x in P],
                              [[pairing(x, y) for y in P] for x in P])


def _scrambled_sum(rng, rank):
    """An orthogonal sum of nondegenerate forms of rank <= 3 on a random
    basis, with its Brown invariant from the blocks' Gauss sums."""
    q, beta = extend_enhancement([], []), 0
    while q.rank < rank:
        r = rng.randint(1, min(3, rank - q.rank))
        block = extend_enhancement([rng.randrange(4) for _ in range(r)],
                                   _symmetric(r, rng.getrandbits(r * (r + 1) // 2)))
        b = _gauss_brown(block)
        if b is not None and all(v % 2 == block.gram[i][i]
                                 for i, v in enumerate(block.basis_values)):
            q, beta = _direct_sum(q, block), beta + b
    return _change_basis(q, rng), beta % 8


@pytest.mark.parametrize("seed", range(3))
def test_brown_arf_large_rank_sums_and_base_change(seed):
    # ranks 12-24, where the Gauss sum is out of reach
    rng = random.Random(seed)
    q1, b1 = _scrambled_sum(rng, rng.randint(6, 12))
    q2, b2 = _scrambled_sum(rng, rng.randint(6, 12))
    assert (brown(q1), brown(q2)) == (b1, b2)
    q = _direct_sum(q1, q2)
    assert 12 <= q.rank <= 24
    assert brown(q) == (b1 + b2) % 8
    assert brown(_change_basis(q, rng)) == (b1 + b2) % 8
    radical = extend_enhancement([rng.choice((0, 2))], [[0]])
    with pytest.raises(DegenerateForm):
        brown(_change_basis(_direct_sum(q, radical), rng))

    planes = [(rng.choice((0, 2)), rng.choice((0, 2))) for _ in range(rng.randint(6, 12))]
    qe = extend_enhancement([], [])
    for a, b in planes:
        qe = _direct_sum(qe, extend_enhancement([a, b], [[0, 1], [1, 0]]))
    qe = _change_basis(qe, rng)
    assert arf(qe) == sum(a == b == 2 for a, b in planes) % 2
    with pytest.raises(NotOrientableForm):
        arf(_change_basis(_direct_sum(qe, radical), rng))
