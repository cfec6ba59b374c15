from __future__ import annotations

import io
import random
import re
from fractions import Fraction

import pytest

from pfdimers import (
    TooLarge,
    build_map,
    construct_kasteleyn,
    count_matchings,
    enumerate_classes,
    enumerate_matchings,
    find_matching,
    homology_buckets,
    lattice,
    matching_sign,
    partition_bruteforce,
    basis_enhancement,
)
from pfdimers import graphfile
from pfdimers.exactnum import GaussianRational, i_power
from pfdimers.generators import random_map, random_weights
from pfdimers.homology import cycle_basis, edges_of
from pfdimers.oracle import _weighted_matchings
from pfdimers.partition import dotcount
from pfdimers.pfaffian import _class_matrices, build_adjacency, pfaffian


def test_single_edge_one_matching():
    m = build_map(2, [[0], [1]], [(0, 1)], [0], [1])
    assert count_matchings(m) == 1
    assert find_matching(m) == 1


def test_four_cycle_two_matchings(sphere_square):
    assert count_matchings(sphere_square) == 2


def test_triangle_no_matching():
    m = build_map(3, [[0, 5], [1, 2], [3, 4]],
                  [(0, 1), (1, 2), (2, 0)], [0, 0, 0], [1, 1, 1])
    assert find_matching(m) is None
    assert count_matchings(m) == 0


def test_odd_vertices_none():
    m = build_map(3, [[0], [1, 2], [3]], [(0, 1), (1, 2)], [0, 0], [1, 1])
    assert list(enumerate_matchings(m)) == []


def test_no_duplicates_and_validity():
    rng = random.Random(0)
    from pfdimers.generators import random_map
    from pfdimers.spin_quadratic import check_matching

    for _ in range(20):
        m = random_map(rng)
        seen = set()
        for D in enumerate_matchings(m):
            assert D not in seen
            seen.add(D)
            check_matching(m, D)


def test_weighted_four_cycle():
    w = [Fraction(2), Fraction(3), Fraction(5), Fraction(7)]
    inst = lattice(2, 2, "planar", weights=w)
    m = inst.map
    # two matchings: opposite edge pairs
    z = partition_bruteforce(m)
    prods = []
    ms = list(enumerate_matchings(m))
    assert len(ms) == 2
    from pfdimers.homology import edges_of

    for D in ms:
        p = Fraction(1)
        for e in edges_of(D):
            p *= Fraction(m.edges[e].weight)
        prods.append(p)
    assert z == sum(prods)


def test_lattice_counts():
    assert partition_bruteforce(lattice(5, 6, "planar").map) == 1183
    assert partition_bruteforce(lattice(5, 6, "torus").map) == 9922


def test_klein_count_20072():
    assert count_matchings(lattice(5, 6, "klein_hexagon").map) == 20072


def test_too_large():
    m = lattice(5, 8, "torus").map
    with pytest.raises(TooLarge):
        partition_bruteforce(m, max_vertices=36)


def test_odd_map_above_the_bound_has_no_matching():
    # parity is read before the bound: an odd map has no matching at any size
    strip = lattice(1, 37, "planar").map
    assert find_matching(strip) is None
    assert partition_bruteforce(strip) == 0
    assert count_matchings(strip) == 0


def test_sphere_single_bucket(sphere_square):
    from pfdimers.homology import basis_from_cycles

    basis = basis_from_cycles(sphere_square, [])
    D0 = find_matching(sphere_square)
    buckets = homology_buckets(sphere_square, D0, basis)
    assert buckets == {(): partition_bruteforce(sphere_square)}


def test_buckets_sum_to_z():
    for surf in ("torus", "klein_hexagon", "rp2"):
        inst = lattice(3, 4, surf) if surf != "torus" else lattice(4, 4, surf)
        D0 = find_matching(inst.map)
        buckets = homology_buckets(inst.map, D0, inst.basis)
        assert sum(buckets.values()) == partition_bruteforce(inst.map)


def test_buckets_translate_with_seed():
    inst = lattice(2, 4, "klein_hexagon")
    m, basis = inst.map, inst.basis
    ms = list(enumerate_matchings(m))
    D0, D1 = ms[0], ms[-1]
    b0 = homology_buckets(m, D0, basis)
    b1 = homology_buckets(m, D1, basis)
    shift = basis.coordinates(D0 ^ D1)
    for coords, val in b0.items():
        moved = tuple(c ^ s for c, s in zip(coords, shift))
        assert b1.get(moved, Fraction(0)) == val


def test_bucket_linear_system():
    """Each orientation class satisfies the exact linear relation between its
    Pfaffian and the homology-bucketed matching sums."""
    for surf, mm, nn in [("torus", 4, 4), ("klein_hexagon", 2, 4), ("rp2", 2, 3)]:
        inst = lattice(mm, nn, surf)
        m, basis = inst.map, inst.basis
        D0 = find_matching(m)
        om = m.twist_bits()
        K = construct_kasteleyn(m)
        buckets = homology_buckets(m, D0, basis)
        for Kc in enumerate_classes(m, K, basis.dual_cochains):
            q = basis_enhancement(m, Kc, D0, basis)
            eps = matching_sign(m, Kc, D0)
            pf = pfaffian(build_adjacency(m, Kc))
            lhs = pf.scale(eps) * i_power(-dotcount(om, D0) % 4)
            rhs = GaussianRational.of(0)
            for coords, zval in buckets.items():
                rhs = rhs + i_power(-q.evaluate(coords) % 4).scale(zval)
            assert (lhs - rhs).is_zero()


def _reference_matchings(m):
    """Reference oracle: the masks of the lowest-unmatched-vertex search,
    each weighed afterwards by its own product over the dimers."""
    incident = [[] for _ in range(m.vertex_count)]
    for e, edge in enumerate(m.edges):
        if edge.u != edge.v:
            incident[edge.u].append((e, edge.v))
            incident[edge.v].append((e, edge.u))
    matched, masks = [False] * m.vertex_count, []

    def rec(v, acc):
        while v < m.vertex_count and matched[v]:
            v += 1
        if v == m.vertex_count:
            masks.append(acc)
            return
        matched[v] = True
        for e, w in incident[v]:
            if not matched[w]:
                matched[w] = True
                rec(v + 1, acc | (1 << e))
                matched[w] = False
        matched[v] = False

    if m.vertex_count % 2 == 0:
        rec(0, 0)
    weights = []
    for D in masks:
        w = Fraction(1)
        for e in edges_of(D):
            w *= Fraction(m.edges[e].weight)
        weights.append(w)
    return masks, weights


def _assert_oracle_matches_reference(m, basis):
    masks, weights = _reference_matchings(m)
    assert list(enumerate_matchings(m)) == masks
    assert count_matchings(m) == len(masks)
    z = partition_bruteforce(m)
    assert type(z) is Fraction and z == sum(weights, Fraction(0))
    if masks:
        D0 = find_matching(m)
        assert D0 == masks[0]
        expected = {}
        for D, w in zip(masks, weights):
            key = basis.coordinates(D ^ D0)
            expected[key] = expected.get(key, Fraction(0)) + w
        buckets = homology_buckets(m, D0, basis)
        assert buckets == expected
        assert all(type(v) is Fraction for v in buckets.values())


@pytest.mark.parametrize("surface", ["planar", "torus", "klein_hexagon", "rp2"])
def test_oracle_equals_the_per_matching_reference_on_weighted_lattices(surface):
    rng = random.Random(16)
    for a, b in [(2, 2), (2, 4), (3, 4), (4, 4), (4, 5), (4, 6)]:
        if surface == "klein_hexagon" and b % 2:
            continue
        edge_count = lattice(a, b, surface).map.edge_count
        inst = lattice(a, b, surface, weights=random_weights(rng, edge_count))
        _assert_oracle_matches_reference(inst.map, inst.basis or cycle_basis(inst.map))


def test_oracle_equals_the_per_matching_reference_on_decimal_weights():
    # float weights read from a graph file are taken at their exact binary value
    buf = io.StringIO()
    graphfile.dump(lattice(4, 4, "klein_hexagon"), buf)
    rng = random.Random(3)
    text = re.sub(r"^(edge \d+ \d+ \d+ \d+) 1$",
                  lambda mo: f"{mo.group(1)} {rng.choice(['0.1', '2.5', '1e-3', '0.7'])}",
                  buf.getvalue(), flags=re.M)
    inst = graphfile.load(io.StringIO(text))
    assert {type(e.weight) for e in inst.map.edges} == {float}
    _assert_oracle_matches_reference(inst.map, inst.basis)


def _reweighted(m, weights):
    return build_map(m.vertex_count, m.rotations, [(e.u, e.v) for e in m.edges],
                     [e.twist for e in m.edges], weights)


@pytest.mark.parametrize("kind", ["rational", "binary float", "past 4300 digits"])
def test_integer_oracle_equals_the_fraction_product_reference(kind):
    # the oracle multiplies integers over one common denominator L and
    # divides once by L^(n/2); the reference multiplies Fractions per matching
    rng = random.Random(29)
    draw = {
        "rational": lambda: Fraction(rng.randint(1, 40), rng.randint(1, 40)),
        # exponents far apart make L a high power of 2
        "binary float": lambda: rng.choice([0.1, 2.5, 1e-3, 0.7, 3.0]) * 2.0 ** rng.randint(-60, 60),
        "past 4300 digits": lambda: rng.choice([10**4301 + rng.randint(1, 99),
                                                Fraction(rng.randint(1, 9), 7**5090 + 2),
                                                Fraction(rng.randint(1, 9), 4)]),
    }[kind]
    surfaces = [("torus", 2, 4), ("rp2", 2, 4), ("klein_hexagon", 2, 4), ("planar", 3, 4)]
    for surface, a, b in surfaces:
        inst = lattice(a, b, surface)
        m = _reweighted(inst.map, [draw() for _ in inst.map.edges])
        _assert_oracle_matches_reference(m, inst.basis or cycle_basis(m))
    for _ in range(12):
        base = random_map(rng, 8, 8)
        _assert_oracle_matches_reference(_reweighted(base, [draw() for _ in base.edges]),
                                         cycle_basis(base))


def _spy_on_fractions(monkeypatch, seen):
    """Record the name of every Fraction construction, product and negation."""
    for name in ("__new__", "__mul__", "__rmul__", "__neg__"):
        method = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *args, _method=method, _name=name, **kw:
                            seen.append(_name) or _method(*args, **kw))


def test_oracle_and_exact_route_preparation_build_no_fractions(monkeypatch):
    # a gauged route: its edges take every power of i, so some weights negate
    rng = random.Random(31)
    inst = lattice(4, 4, "klein_hexagon")
    m = _reweighted(inst.map, random_weights(rng, inst.map.edge_count, max_num=9))
    om = m.twist_bits()
    K = construct_kasteleyn(m, om)
    z = partition_bruteforce(m)
    seen = []
    _spy_on_fractions(monkeypatch, seen)
    assert partition_bruteforce(m) == z
    assert seen == ["__new__"]  # the one division, by L^(n/2)
    seen.clear()
    classes = _class_matrices(m, K, inst.basis.dual_cochains, "exact", om)
    assert seen == []
    assert classes[0].scale > 1  # the weights have denominators


def test_oracle_equals_the_per_matching_reference_on_random_maps():
    rng = random.Random(11)
    with_matchings = 0
    for _ in range(300):
        base = random_map(rng, 12, 14)
        m = build_map(base.vertex_count, base.rotations, [(e.u, e.v) for e in base.edges],
                      [e.twist for e in base.edges],
                      random_weights(rng, base.edge_count))
        _assert_oracle_matches_reference(m, cycle_basis(m))
        with_matchings += find_matching(m) is not None
    assert with_matchings >= 100


@pytest.mark.parametrize("oracle", [enumerate_matchings, _weighted_matchings])
def test_too_large_is_raised_on_the_first_next(oracle):
    gen = oracle(lattice(5, 8, "torus").map, 36)
    with pytest.raises(TooLarge):
        next(gen)
