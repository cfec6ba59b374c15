from __future__ import annotations

import io
import random
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfdimers import (
    CurveNotRealizable,
    FloatOutOfRange,
    IllConditionedWarning,
    NonRealResult,
    NotAClosedWalk,
    PartitionResult,
    TransverseCurve,
    WrongSurfaceType,
    build_adjacency,
    build_map,
    classify,
    construct_kasteleyn,
    enumerate_classes,
    enumerate_matchings,
    find_matching,
    graphfile,
    lattice,
    n_mismatch,
    normalize_orientation,
    partition,
    partition_bruteforce,
    partition_general_pin,
    partition_nonorientable_practical,
    partition_orientable_practical,
    partition_orientable_spin,
    pfaffian,
)
from pfdimers.exactnum import GaussianRational, i_power, rational_str
from pfdimers.generators import random_lattice, random_map, random_weights
from pfdimers.homology import (
    basis_from_cycles,
    chain_from_edges,
    crossing_cochain,
    cycle_basis,
    dot,
    edges_of,
    reverse_walk,
    vertex_coboundary,
)
from pfdimers.kasteleyn import Orientation, _omega_flip_set, is_kasteleyn
from pfdimers.partition import _class_sum, companion_cycle
from pfdimers.surface_graph import flip_charts, relabel, untwist

import closed_forms
from conftest import kept_records, rule_eliminations


def test_planar_5x6_single_pfaffian():
    inst = lattice(5, 6, "planar")
    r = partition_orientable_practical(inst.map, basis=inst.basis)
    assert r.value == 1183 and r.exact


def test_torus_5x6_both_routes():
    inst = lattice(5, 6, "torus")
    assert partition_orientable_practical(inst.map, curves=inst.curves,
                                          basis=inst.basis).value == 9922
    assert partition_orientable_spin(inst.map, basis=inst.basis).value == 9922


def test_spin_is_pin_on_untwisted_orientable_maps():
    # at omega = 0 the spin sum is the pin sum with beta = 4 * Arf, class by
    # class, so values and terms coincide
    rng = random.Random(7)
    maps = [lattice(5, 6, "torus").map, lattice(2, 4, "torus").map]
    while len(maps) < 12:
        m = random_map(rng, max_vertices=6, extra_edges=7, twisted=False)
        if m.vertex_count % 2 == 0:
            maps.append(m)
    assert any(classify(m).b1 >= 4 for m in maps)
    for m in maps:
        spin = partition_orientable_spin(m)
        pin = partition_general_pin(m)
        assert (spin.value, spin.terms) == (pin.value, pin.terms)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_spin_is_pin_at_omega_zero_on_twisted_orientable_maps(backend):
    # spin runs on the map it is given, at omega = 0, whose chart swaps are
    # the coboundary preimage of the twist cochain; so it is pin at omega = 0
    # class by class, and both equal the oracle
    maps = _random_orientable_maps(twisted=True, count=40, seed=17)
    assert any(classify(m).b1 >= 4 for m in maps)
    for m in maps:
        z = partition_bruteforce(m)
        spin = partition_orientable_spin(m, backend=backend)
        at_zero = partition_general_pin(m, omega=0, backend=backend)
        assert (spin.value, spin.terms) == (at_zero.value, at_zero.terms)
        for r in (spin, partition_general_pin(m, backend=backend)):
            if backend == "exact":
                assert r.value == z
            else:
                assert abs(r.value - z) <= 1e-9 * z


def test_spin_takes_a_basis_built_on_the_twisted_map():
    # the classes follow the basis passed; an untwisted copy took its own
    cases = [(flip_charts(lattice(4, 4, "torus").map, [0, 5, 6]), 272),
             (flip_charts(lattice(6, 6, "torus").map, [1]), 90176)]
    cases += [(m, partition_bruteforce(m))
              for m in _random_orientable_maps(twisted=True, count=6, seed=19)]
    for m, z in cases:
        basis = basis_from_cycles(m, cycle_basis(m).cycles[::-1])
        spin = partition_orientable_spin(m, basis=basis)
        assert spin.value == z
        pin = partition_general_pin(m, omega=0, basis=basis)
        assert (spin.value, spin.terms) == (pin.value, pin.terms)


def _row_dimers(m, cols):
    """D0 of the row dimers (r, 2k)-(r, 2k+1); lattice vertex (r, c) is
    r * cols + c."""
    D0 = chain_from_edges(e for e, edge in enumerate(m.edges)
                          if min(edge.u, edge.v) % 2 == 0 and
                          max(edge.u, edge.v) == min(edge.u, edge.v) + 1 and
                          min(edge.u, edge.v) % cols < cols - 1)
    ends = sorted(v for e in edges_of(D0) for v in (m.edges[e].u, m.edges[e].v))
    assert ends == list(range(m.vertex_count))
    return D0


@pytest.mark.parametrize("size", [8, 10])
def test_routes_agree_exactly_above_the_oracle_bound(size):
    # pin (all surfaces) and spin (torus, also with charts flipped) from a
    # given D0 equal the exact practical Z past the 36-vertex oracle bound
    torus = lattice(size, size, "torus")
    cases = [(torus.map, torus.curves, torus.basis,
              (partition_general_pin, partition_orientable_spin)),
             (flip_charts(torus.map, [0, 5, 6]), None, None, (partition_orientable_spin,))]
    for surface in ("klein_hexagon", "rp2"):
        inst = lattice(size, size, surface)
        cases.append((inst.map, inst.curves, inst.basis, (partition_general_pin,)))
    for m, curves, basis, routes in cases:
        z = partition(m, "practical", curves=curves, basis=basis).value
        zf = partition(m, "practical", curves=curves, basis=basis, backend="float").value
        assert abs(zf - z) <= 1e-9 * z
        D0 = _row_dimers(m, size)
        for route in routes:
            assert route(m, D0=D0).value == z
            assert abs(route(m, D0=D0, backend="float").value - z) <= 1e-9 * z


def _random_map_of_b1(rng, vertices, b1, twisted):
    """A random map with the given (even) vertex count, first Betti number
    and a perfect matching, non-orientable if twisted."""
    while True:
        m = random_map(rng, max_vertices=vertices, extra_edges=10, twisted=twisted)
        surface = classify(m)
        if (m.vertex_count == vertices and surface.b1 == b1
                and surface.orientable != twisted and find_matching(m) is not None):
            return m


@pytest.mark.parametrize("vertices, b1, twisted", [
    (4, 8, False), (6, 8, False), (4, 7, True), (6, 7, True), (4, 8, True), (6, 8, True)])
def test_pin_and_spin_at_b1_7_and_8(vertices, b1, twisted):
    # 128 and 256 classes, whose invariants all come from the shift law
    m = _random_map_of_b1(random.Random(vertices + b1), vertices, b1, twisted)
    pin = partition_general_pin(m)
    assert pin.value == partition_bruteforce(m)
    assert len(pin.terms) == 1 << b1
    if not twisted:
        spin = partition_orientable_spin(m)
        assert (spin.value, spin.terms) == (pin.value, pin.terms)


def test_klein_5x6_both_routes():
    inst = lattice(5, 6, "klein_hexagon")
    r = partition_nonorientable_practical(inst.map, inst.curves, basis=inst.basis)
    assert r.value == 20072
    # even chi: each class's primed Pfaffian is listed before its own
    assert r.terms == (("0'", "9922"), ("0", "1450+10150i"))
    assert partition_general_pin(inst.map, basis=inst.basis).value == 20072


# Exact practical values and class Pfaffians, primed classes first.
PRACTICAL_PINS = [
    ("torus", 3, 4, 50, (("00", "50"), ("10", "0"), ("01", "50"), ("11", "0"))),
    ("torus", 4, 4, 272, (("00", "256"), ("10", "144"), ("01", "144"), ("11", "0"))),
    ("klein_hexagon", 3, 4, 54, (("0'", "54"), ("0", "50"))),
    ("klein_hexagon", 4, 4, 196, (("0'", "196"), ("0", "192"))),
    ("rp2", 3, 4, 98, (("0", "51+47i"),)),
    ("rp2", 4, 4, 228, (("0", "228"),)),
]


@pytest.mark.parametrize("surface, rows, cols, value, terms", PRACTICAL_PINS)
def test_practical_values_and_terms_pinned(surface, rows, cols, value, terms):
    inst = lattice(rows, cols, surface)
    r = partition(inst.map, "practical", curves=inst.curves, basis=inst.basis)
    assert (r.value, r.method, r.terms) == (value, "practical", terms)


def test_practical_reference_flips_pinned():
    # the torus curves on a twisted copy of the torus give the torus's value
    # and terms; maps without a curve per basis class, here random orientable
    # maps, flip K by the Poincare-dual cochains
    torus = lattice(4, 4, "torus")
    r = partition_orientable_practical(flip_charts(torus.map, [0, 5, 6]),
                                       curves=torus.curves)
    assert (r.value, r.terms) == PRACTICAL_PINS[1][3:]
    pins = [(1, "-1 1 1 -1"),
            (6, "6 -2 0 0 -2 2 0 4 -2 2 0 4 2 2 4 -4"),
            (2, "2 0 0 -2 0 2 -2 0 0 -2 2 0 -2 0 0 2")]
    rng = random.Random(5)
    for value, pfs in pins:
        m = random_map(rng, 8, 5, twisted=False)
        while m.vertex_count % 2 or classify(m).genus == 0 or find_matching(m) is None:
            m = random_map(rng, 8, 5, twisted=False)
        r = partition(m, "practical")
        assert (r.value, " ".join(pf for _, pf in r.terms)) == (value, pfs)
        assert r.value == partition_bruteforce(m)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_planar_8x8_above_the_oracle_bound(backend):
    # one Pfaffian, Kasteleyn 1961; the reference-matching route raised
    # TooLarge at 64 vertices
    m = lattice(8, 8, "planar").map
    want = 12988816 if backend == "exact" else 12988816.000000006
    for method in ("practical", "auto"):
        r = partition(m, method, backend=backend)
        assert (r.value, r.method) == (want, "practical")


@pytest.mark.parametrize("size", [8, 12])
def test_twisted_torus_above_the_oracle_bound(size):
    # without curves the twisted torus flips by its own basis cycles'
    # push-offs in the omega = 0 charts, and its terms are the torus's
    inst = lattice(size, size, "torus")
    r = partition(flip_charts(inst.map, [0, 5, 6]), "auto")
    want = partition(inst.map, "practical", curves=inst.curves, basis=inst.basis)
    assert (r.value, r.method, r.terms) == (want.value, "practical", want.terms)


@pytest.mark.parametrize("surface, rows, cols",
                         [("torus", k, k) for k in (10, 16, 20, 30)]
                         + [("planar", 10, 10), ("planar", 20, 20), ("planar", 21, 20)])
def test_exact_auto_equals_the_closed_form(surface, rows, cols):
    inst = lattice(rows, cols, surface)
    r = partition(inst.map, "auto", curves=inst.curves, basis=inst.basis)
    assert r.value == getattr(closed_forms, surface)(rows, cols)


@pytest.mark.parametrize("surface", ["torus", "planar"])
def test_float_auto_near_the_closed_form_at_40x40(surface):
    inst = lattice(40, 40, surface)
    r = partition(inst.map, "auto", curves=inst.curves, basis=inst.basis, backend="float")
    want = getattr(closed_forms, surface)(40, 40)
    assert abs(r.value - want) <= 1e-12 * want


def _reversed_labels(terms):
    return tuple(sorted((label[::-1], pf) for label, pf in terms))


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_practical_flips_by_the_push_off_side_in_the_omega_charts(backend):
    # K is admissible in the omega = 0 charts, where a basis cycle that starts
    # in the chart-swap set pushes off to its right in m; its left push-off
    # in m gave a wrong Z there
    maps = _random_orientable_maps(twisted=True, count=12, seed=31)
    assert {classify(m).genus for m in maps} == {1, 2, 3}
    in_swap = 0
    for m in maps:
        z, cycles = partition_bruteforce(m), cycle_basis(m).cycles
        swap = _omega_flip_set(m, 0)
        in_swap += sum(m.half_vertex(w[0]) in swap for w in cycles)
        for basis in (None, basis_from_cycles(m, cycles[::-1])):
            r = partition(m, "practical", basis=basis, backend=backend)
            if backend == "exact":
                assert r.value == z
            else:
                assert abs(r.value - z) <= 1e-9 * max(z, 1)
    assert in_swap


def test_practical_uses_the_basis_passed_on_a_twisted_map():
    # the untwisted copy took its own basis and dropped the one passed
    m = next(m for m in _random_orientable_maps(twisted=True, count=12, seed=31)
             if classify(m).genus == 2)
    given = partition(m, "practical")
    backwards = partition(m, "practical",
                          basis=basis_from_cycles(m, cycle_basis(m).cycles[::-1]))
    assert backwards.value == given.value == partition_bruteforce(m)
    assert tuple(sorted(backwards.terms)) == _reversed_labels(given.terms)


def test_practical_uses_the_curves_passed_on_a_twisted_map():
    # the untwisted copy dropped the curves; the 4x6 torus keeps its 10 and
    # 01 classes apart, so their order shows in the labels
    inst = lattice(4, 6, "torus")
    m = flip_charts(inst.map, [0, 5, 6])
    given = partition(m, "practical", curves=inst.curves)
    backwards = partition(m, "practical", curves=inst.curves[::-1])
    assert dict(given.terms)["10"] != dict(given.terms)["01"]
    assert backwards.value == given.value == 3108
    assert tuple(sorted(backwards.terms)) == _reversed_labels(given.terms)


def test_no_route_calls_the_oracle(monkeypatch, tmp_path, capsys):
    # pin and spin read the odd join where no D0 is given, so no route, nor
    # verify or invariants above the oracle bound, enumerates matchings
    from pfdimers.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("oracle reached")

    monkeypatch.setattr(sys.modules["pfdimers.oracle"], "_weighted_matchings", refuse)
    torus = lattice(4, 4, "torus")
    maps = [(lattice(4, 5, "planar").map, None), (torus.map, torus.curves),
            (torus.map, None), (flip_charts(torus.map, [0, 5, 6]), None)]
    rng = random.Random(3)
    maps += [(random_map(rng, 8, 5, twisted=False), None) for _ in range(20)]
    for m, curves in maps:
        for method in ("practical", "auto"):
            assert partition(m, method, curves=curves).method == "practical"
    big = [lattice(8, 8, "torus"), lattice(6, 8, "klein_hexagon"), lattice(8, 6, "rp2")]
    big.append(replace(big[0], map=flip_charts(big[0].map, [0, 5, 6])))
    for m, curves in [(inst.map, inst.curves) for inst in big] + maps[4:]:
        methods = ("pin", "practical", "auto") + (("spin",) if m.orientable else ())
        values = {partition(m, method, curves=curves).value for method in methods}
        assert len(values) == 1, (m.vertex_count, values)
        z = values.pop()
        for method in methods:
            zf = partition(m, method, curves=curves, backend="float").value
            assert zf == pytest.approx(z, rel=1e-9), (m.vertex_count, method)
    for inst in big:
        path = tmp_path / "big.graph"
        with open(path, "w") as fh:
            graphfile.dump(inst, fh)
        for command in ("verify", "invariants"):
            assert main([command, str(path), "--format", "kv"]) == 0
        assert "agree yes" in capsys.readouterr().out


@pytest.mark.parametrize("surface", ["torus", "klein_hexagon", "rp2", "twisted torus"])
def test_pin_equals_spin_and_practical_above_the_oracle_bound(surface):
    # pin and spin search no matching, so they agree with practical where the
    # oracle cannot run; each route runs on its own copy of the map
    rng = random.Random(11)
    name = surface.split()[-1]
    for k in (8, 12, 16):
        weights = random_weights(rng, lattice(k, k, name).map.edge_count, max_num=9)

        def make():
            inst = lattice(k, k, name, weights=weights)
            twisted = surface == "twisted torus"
            return replace(inst, map=flip_charts(inst.map, [0, 5, 6])) if twisted else inst

        assert any(w.denominator > 1 for w in weights)
        copies = [make() for _ in range(3)]
        z = None
        for backend in ("exact", "float"):
            runs = {"pin": partition(copies[0].map, "pin", backend=backend),
                    "practical": partition(copies[1].map, "practical",
                                           curves=copies[1].curves, backend=backend)}
            if name == "torus":
                runs["spin"] = partition(copies[2].map, "spin", backend=backend)
            z = runs["pin"].value if z is None else z
            for method, r in runs.items():
                assert r.value == (z if backend == "exact" else pytest.approx(z, rel=1e-9)), \
                    (k, method, backend)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_pin_and_spin_sum_zero_class_terms_without_a_perfect_matching(backend):
    # Z = 0 from the 2^b1 class Pfaffians, all 0; a searched D0 once gave no
    # terms at all
    rng, seen = random.Random(8), {True: 0, False: 0}
    zero = "0" if backend == "exact" else "0j"
    while min(seen.values()) < 3:
        m = random_map(rng, 8, 6, twisted=sum(seen.values()) % 2 == 1)
        b1 = classify(m).b1
        if m.vertex_count % 2 or b1 < 2 or find_matching(m) is not None:
            continue
        seen[m.orientable] += 1
        labels = [format(idx, f"0{b1}b")[::-1] for idx in range(1 << b1)]
        for method in ("pin", "spin") if m.orientable else ("pin",):
            r = partition(m, method, backend=backend)
            assert (r.value, r.method) == (0, method)
            assert r.terms == tuple((label, zero) for label in labels)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_non_cocycle_crossings_rejected(backend):
    # edges 15, 11, 7 miss edge 3 of the seam; the flip they give is no
    # class flip and used to give 248.  Bits beyond the edges are no cocycle
    # either.  Neither is a push-off, so without ordered crossings the
    # companion check rejects them; auto falls back to pin.
    inst = lattice(4, 4, "torus")
    seam = inst.curves[0]
    for cross in (chain_from_edges([15, 11, 7]), seam.cross | 1 << inst.map.edge_count):
        curves = (replace(seam, cross=cross, ordered_crossings=None),) + inst.curves[1:]
        with pytest.raises(CurveNotRealizable, match="does not run along"):
            partition(inst.map, "practical", curves=curves, basis=inst.basis,
                      backend=backend)
        r = partition(inst.map, "auto", curves=curves, basis=inst.basis, backend=backend)
        assert r.method == "pin" and float(r.value) == pytest.approx(272)


@pytest.mark.parametrize("v", [0, 5])
def test_coboundary_shifted_crossings_rejected(v):
    # the shifted cross is a cocycle in the seam's class, but flipping K at
    # v negates that class's Pfaffian; it used to give 128 under practical
    inst = lattice(4, 4, "torus")
    seam = inst.curves[0]
    curves = (replace(seam, cross=seam.cross ^ vertex_coboundary(inst.map, v)),) + \
        inst.curves[1:]
    with pytest.raises(CurveNotRealizable, match="ordered crossings"):
        partition(inst.map, "practical", curves=curves)
    r = partition(inst.map, "auto", curves=curves)
    assert (r.value, r.method) == (272, "pin")


def test_shifted_seam_file_with_companions_rejected():
    # the seam shifted by delta(v5), read with the generator's companions:
    # cross and ordered crossings come from one line, so only the companion
    # check sees the shift; auto used to return 128 via practical
    buf = io.StringIO()
    graphfile.dump(lattice(4, 4, "torus"), buf)
    text = buf.getvalue().replace("cross 0 15 11 7 3\n", "cross 0 3 4 5 7 11 15 17 21\n")
    inst = graphfile.load(io.StringIO(text))
    assert inst.curves[0].ordered_crossings == (3, 4, 5, 7, 11, 15, 17, 21)
    with pytest.raises(CurveNotRealizable, match="run along"):
        partition(inst.map, "practical", curves=inst.curves, basis=inst.basis)
    r = partition(inst.map, "auto", curves=inst.curves, basis=inst.basis)
    assert (r.value, r.method) == (272, "pin")


def _with_seam_order(inst, order):
    seam = replace(inst.curves[0], cross=chain_from_edges(order),
                   ordered_crossings=tuple(order))
    return (seam,) + inst.curves[1:]


def test_every_vertex_shift_of_the_seam_rejected():
    inst = lattice(4, 4, "torus")
    for v in range(inst.map.vertex_count):
        order = edges_of(inst.curves[0].cross ^ vertex_coboundary(inst.map, v))
        curves = _with_seam_order(inst, order)
        with pytest.raises(CurveNotRealizable, match="run along"):
            companion_cycle(inst.map, curves[0])
        r = partition(inst.map, "auto", curves=curves, basis=inst.basis)
        assert (r.value, r.method) == (272, "pin")


@pytest.mark.parametrize("order", [
    (15, 3, 16, 17, 5, 21, 4, 16, 7, 11),
    (15, 3, 19, 18, 17, 4, 21, 5, 18, 19, 7, 11),
])
def test_reordered_shifted_seam_rejected(order):
    # the delta(v5) shift ordered so that consecutive crossings always share
    # a face, some edges twice: a check of the faces alone passes it, but
    # the companion does not run along it
    inst = lattice(4, 4, "torus")
    curves = _with_seam_order(inst, order)
    with pytest.raises(CurveNotRealizable, match="run along"):
        partition(inst.map, "practical", curves=curves)
    r = partition(inst.map, "auto", curves=curves)
    assert (r.value, r.method) == (272, "pin")


@pytest.mark.parametrize("surface", ["torus", "klein_hexagon", "rp2"])
def test_generator_companions_run_along_their_curves(surface):
    for rows in range(2, 9):
        for cols in range(2, 9):
            if surface == "klein_hexagon" and cols % 2:
                continue
            inst = lattice(rows, cols, surface)
            for cv in inst.curves:
                assert companion_cycle(inst.map, cv) == cv.companion


def test_rp2_two_vertex(rp2_two_vertex):
    m = rp2_two_vertex
    cv = TransverseCurve("beta", 1 << 1, (2, 1), crossing_edge=1)
    assert partition_nonorientable_practical(m, [cv]).value == 2
    assert partition_general_pin(m).value == 2
    assert partition_bruteforce(m) == 2


def test_chirality_regression():
    """Frozen 4-vertex projective-plane instance that separates the two
    side conventions: the wrong one yields 0 instead of 2."""
    m = build_map(
        4,
        [[6, 4, 0, 10], [11, 8, 2, 1], [7, 3, 9], [5]],
        [(0, 1), (1, 2), (0, 3), (0, 2), (1, 2), (0, 1)],
        [1, 1, 1, 1, 0, 1],
        [1] * 6,
    )
    assert classify(m).name == "projective plane"
    assert partition_bruteforce(m) == 2
    assert partition_general_pin(m).value == 2


def test_no_matching_zero():
    # 2x2 torus with one column's vertical edges removed has matchings;
    # build a bowtie-free example instead: star with 3 leaves has odd count
    m = build_map(4, [[0, 2, 4], [1], [3], [5]],
                  [(0, 1), (0, 2), (0, 3)], [0, 0, 0], [1, 1, 1])
    # the practical route takes the one class Pfaffian; it needs no matching
    r = partition_orientable_practical(m)
    assert (r.value, r.terms) == (0, (("0", "0"),))
    assert partition_orientable_spin(m).value == 0
    assert partition_general_pin(m).value == 0


def test_odd_vertex_zero():
    m = build_map(3, [[0], [1, 2], [3]], [(0, 1), (1, 2)], [0, 0], [1, 1])
    assert partition_general_pin(m).value == 0


def test_float_backend_agreement():
    for surf in ("planar", "torus", "klein_hexagon", "rp2"):
        inst = lattice(3, 4, surf)
        exact = partition(inst.map, "auto", curves=inst.curves or None,
                          basis=inst.basis, backend="exact").value
        approx = partition(inst.map, "auto", curves=inst.curves or None,
                           basis=inst.basis, backend="float").value
        assert abs(float(exact) - approx) <= 1e-9 * (1 + float(exact))


def test_weighted_agreement():
    rng = random.Random(0)
    for _ in range(10):
        inst = random_lattice(rng, max_vertices=12)
        z = partition(inst.map, "auto", curves=inst.curves or None,
                      basis=inst.basis).value
        assert z == partition_bruteforce(inst.map)


def test_practical_requires_curves_on_nonorientable():
    inst = lattice(2, 4, "klein_hexagon")
    with pytest.raises(CurveNotRealizable):
        partition(inst.map, "practical", curves=None)


@pytest.mark.parametrize("size", [(4, 4), (3, 3)], ids=["even", "odd"])
def test_nonorientable_practical_without_curves(size):
    # the check runs before the zero of an odd map, so auto still falls back
    m = lattice(*size, "rp2").map
    message = "^practical route needs curve data$"
    with pytest.raises(CurveNotRealizable, match=message):
        partition_nonorientable_practical(m, None)
    with pytest.raises(CurveNotRealizable, match=message):
        partition(m, "practical")
    assert partition(m, "auto") == partition(m, "pin")
    assert partition(m, "auto").method == "pin"


def test_wrong_surface_guards():
    inst = lattice(2, 4, "klein_hexagon")
    with pytest.raises(WrongSurfaceType):
        partition_orientable_spin(inst.map)
    with pytest.raises(WrongSurfaceType):
        partition_nonorientable_practical(lattice(2, 2, "torus").map, [])
    with pytest.raises(WrongSurfaceType):
        partition_orientable_practical(inst.map)


def test_beta_cross_mismatch_rejected():
    inst = lattice(2, 4, "klein_hexagon")
    bad = [TransverseCurve("beta", 1, (0,), crossing_edge=0),
           TransverseCurve("beta", 2, (2,), crossing_edge=1)]
    with pytest.raises(CurveNotRealizable):
        partition_nonorientable_practical(inst.map, bad)


def test_auto_falls_back_to_pin():
    inst = lattice(3, 4, "klein_hexagon")
    bare = [TransverseCurve(c.kind, c.cross, None, c.crossing_edge,
                            c.ordered_crossings) for c in inst.curves]
    # non-orientable curves without their companions -> pin route
    r = partition(inst.map, "auto", curves=bare)
    assert r.method == "pin"
    assert r.value == partition_bruteforce(inst.map)


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("method, surface, name", [
    ("pin", "torus", "brown"), ("pin", "klein_hexagon", "brown"), ("pin", "rp2", "brown"),
    ("spin", "torus", "arf")])
def test_wrong_invariants_or_signs_raise_non_real(monkeypatch, method, surface,
                                                  name, backend):
    # beta + 1 has the wrong parity for b1 (no Gaussian-rational weight) on
    # every path.  Arf + 1 and a negated matching sign turn the sum into -Z,
    # which only a passed D0 tells from Z: the odd join's sum is +-Z
    module = sys.modules["pfdimers.partition"]
    m = lattice(4, 4, surface).map
    assert partition(m, method, backend=backend).value > 0
    route = partial(partition_general_pin if method == "pin" else partition_orientable_spin,
                    m, D0=find_matching(m), backend=backend)
    assert route().value == partition(m, method, backend=backend).value
    invariant = getattr(module, name)
    with monkeypatch.context() as patch:
        patch.setattr(module, name, lambda q: invariant(q) + 1)
        if name == "brown":
            with pytest.raises(NonRealResult, match="differ in parity"):
                partition(m, method, backend=backend)
        with pytest.raises(NonRealResult):
            route()
    sign = module.matching_sign
    monkeypatch.setattr(module, "matching_sign", lambda *args: -sign(*args))
    with pytest.raises(NonRealResult, match="negative"):
        route()


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_a_quarter_turned_pin_sum_is_not_real(monkeypatch, backend):
    # beta + 2 keeps the parity of b1 and turns every weight by i: Z i
    module = sys.modules["pfdimers.partition"]
    brown = module.brown
    monkeypatch.setattr(module, "brown", lambda q: brown(q) + 2)
    with pytest.raises(NonRealResult, match="pin sum is not real"):
        partition(lattice(4, 4, "torus").map, "pin", backend=backend)


def test_an_imaginary_orientable_class_pfaffian_is_refused(monkeypatch):
    module = sys.modules["pfdimers.partition"]
    pf = module.pfaffian
    monkeypatch.setattr(module, "pfaffian", lambda c: pf(c) + GaussianRational.of(0, 1))
    inst = lattice(4, 4, "torus")
    with pytest.raises(NonRealResult, match="orientable Pfaffian has an imaginary part"):
        partition(inst.map, "practical", curves=inst.curves, basis=inst.basis)


def test_normalize_orientation_parities():
    for surf in ("torus", "klein_hexagon", "rp2"):
        inst = lattice(3, 4, surf)
        m = inst.map
        K = construct_kasteleyn(m)
        K2 = normalize_orientation(m, K, inst.basis)
        assert is_kasteleyn(m, K2)
        for walk in inst.basis.cycles:
            assert n_mismatch(K2, walk) % 2 == 1


def test_normalized_enhancement_targets():
    """After parity normalization the matching-independent enhancement built
    from the curves' own crossing data takes the canonical values: 0 on
    two-sided basis curves, -1 on the one-sided ones.  The value must also
    be independent of the reference matching."""
    from pfdimers.homology import dot
    from pfdimers.spin_quadratic import quad_enhancement

    for surf in ("klein_hexagon", "rp2", "torus"):
        inst = lattice(3, 4, surf)
        m, basis = inst.map, inst.basis
        K = normalize_orientation(m, construct_kasteleyn(m), basis)
        ms = list(enumerate_matchings(m))
        for D0 in (ms[0], ms[-1]):
            for cv, walk in zip(inst.curves, basis.cycles):
                val = (quad_enhancement(m, K, D0, walk)
                       + 2 * dot(cv.cross, D0)) % 4
                assert val == (3 if cv.kind == "beta" else 0)


def test_invariance_under_relabelling():
    rng = random.Random(1)
    for _ in range(10):
        inst = random_lattice(rng, max_vertices=12)
        m = inst.map
        z = partition_general_pin(m, basis=inst.basis).value
        perm = list(range(m.vertex_count))
        rng.shuffle(perm)
        assert partition_general_pin(relabel(m, perm)).value == z


def test_invariance_under_equivalence_moves():
    rng = random.Random(2)
    inst = lattice(3, 4, "klein_hexagon")
    m, basis = inst.map, inst.basis
    from pfdimers.kasteleyn import construct_kasteleyn
    from pfdimers.partition import partition_general_pin as pin

    z = pin(m, basis=basis).value
    # moving the seed by vertex flips must not change anything: the pin route
    # rebuilds its own seed, so flip charts of the presentation instead
    perm = list(range(m.vertex_count))
    assert pin(m, basis=basis).value == z


def test_invariance_under_omega_change():
    rng = random.Random(3)
    for _ in range(10):
        m = random_map(rng, max_vertices=6)
        z = partition_bruteforce(m)
        v = rng.randrange(m.vertex_count)
        om2 = m.twist_bits() ^ vertex_coboundary(m, v)
        assert partition_general_pin(m, omega=om2).value == z


def test_invariance_under_matching_change():
    rng = random.Random(4)
    done = 0
    for _ in range(20):
        m = random_map(rng, max_vertices=6)
        ms = list(enumerate_matchings(m))
        if len(ms) < 2:
            continue
        z1 = partition_general_pin(m, D0=ms[0]).value
        z2 = partition_general_pin(m, D0=ms[-1]).value
        z0 = partition_general_pin(m).value  # the odd join in place of D0
        assert z1 == z2 == z0
        done += 1
    assert done >= 5


def test_invariance_under_mirror_presentation():
    # reversing every rotation chart describes the same embedding seen from
    # the other side; the partition function cannot change
    from pfdimers.surface_graph import flip_charts

    rng = random.Random(6)
    for _ in range(10):
        m = random_map(rng, max_vertices=6)
        mirror = flip_charts(m, range(m.vertex_count))
        assert partition_general_pin(mirror).value == partition_bruteforce(m)


def test_partition_result_terms_exposed():
    inst = lattice(2, 4, "klein_hexagon")
    r = partition_general_pin(inst.map, basis=inst.basis)
    assert len(r.terms) == 4
    assert r.method == "pin" and r.exact


def _without_companions(curves):
    return [replace(cv, companion=None) for cv in curves]


@pytest.mark.parametrize("surface", ["torus", "klein_hexagon", "rp2"])
def test_companion_cycle_validates_and_builds_none(surface):
    inst = lattice(3, 4, surface)
    for cv, bare in zip(inst.curves, _without_companions(inst.curves)):
        assert companion_cycle(inst.map, cv) == cv.companion
        with pytest.raises(CurveNotRealizable, match="carries no companion"):
            companion_cycle(inst.map, bare)


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("size", [(2, 8), (3, 8)], ids=["2x8", "3x8"])
def test_nonorientable_curves_without_companions_fall_back_to_pin(size, backend):
    # a cycle through the face arcs between the crossings can run on the
    # wrong side of these curves, and then the practical sum reads 68 at 2x8
    inst = lattice(*size, "klein_hexagon")
    bare = _without_companions(inst.curves)
    with pytest.raises(CurveNotRealizable, match="carries no companion"):
        partition(inst.map, "practical", curves=bare, backend=backend)
    r = partition(inst.map, "auto", curves=bare, backend=backend)
    z = partition_bruteforce(inst.map)
    assert r.method == "pin"
    assert r.value == (z if backend == "exact" else pytest.approx(z, rel=1e-12))


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("size", [(2, 12), (8, 8)], ids=["2x12", "8x8"])
def test_orientable_curves_without_companions_take_the_basis_cycles(size, backend):
    inst = lattice(*size, "torus")
    z = partition(inst.map, "practical", curves=inst.curves, basis=inst.basis,
                  backend=backend).value
    bare = _without_companions(inst.curves)
    for curves in (bare, bare[:1] + list(inst.curves[1:])):
        for method in ("practical", "auto"):
            r = partition(inst.map, method, curves=curves, backend=backend)
            assert r.method == "practical"
            assert r.value == (z if backend == "exact" else pytest.approx(z, rel=1e-12))


@pytest.mark.parametrize("fault", ["arc-dropped", "walk-repeated"])
@pytest.mark.parametrize("surface", ["torus", "klein_hexagon"])
def test_malformed_companion_falls_back_to_pin(surface, fault):
    inst = lattice(4, 4, surface)
    walk = inst.curves[0].companion
    walk = walk[1:] if fault == "arc-dropped" else walk * 2
    curves = [replace(inst.curves[0], companion=walk), *inst.curves[1:]]
    with pytest.raises(CurveNotRealizable, match="not a simple cycle"):
        partition(inst.map, "practical", curves=curves)
    r = partition(inst.map, "auto", curves=curves)
    assert (r.value, r.method) == (partition(inst.map, "pin").value, "pin")


def test_extra_curve_on_a_nonorientable_map_falls_back_to_pin():
    # three curves against a rank-2 basis: no practical class sum, and an
    # error that auto can catch rather than an assertion.  The extra curve is
    # the push-off of the middle row, so it passes every curve check; a curve
    # that is not its companion's push-off stops earlier.
    inst = lattice(4, 4, "klein_hexagon")
    m = inst.map
    row = tuple(2 * (4 + c) for c in range(4))
    for extra, message in [
            (TransverseCurve("alpha", crossing_cochain(m, row), row),
             "do not give a homology basis"),
            (TransverseCurve("alpha", 0, inst.curves[0].companion), "does not run along")]:
        curves = [*inst.curves, extra]
        with pytest.raises(CurveNotRealizable, match=message):
            partition(m, "practical", curves=curves, basis=inst.basis)
        r = partition(m, "auto", curves=curves, basis=inst.basis)
        assert (r.value, r.method) == (196, "pin")


@pytest.mark.parametrize("surface, size", [
    ("klein_hexagon", (2, 8)), ("klein_hexagon", (3, 4)), ("klein_hexagon", (4, 4)),
    ("torus", (4, 4)), ("rp2", (4, 4)),
], ids=["klein-2x8", "klein-3x4", "klein-4x4", "torus-4x4", "rp2-4x4"])
def test_reversed_companion_gives_the_true_z(surface, size):
    # the face-arc check let a reversed Klein companion through, and the sum
    # read 68 at 2x8; on the torus and rp2 the reverse already gave the true Z
    inst = lattice(*size, surface)
    z = partition_bruteforce(inst.map)
    for i, cv in enumerate(inst.curves):
        curves = list(inst.curves)
        curves[i] = replace(cv, companion=reverse_walk(cv.companion))
        for method in ("practical", "auto"):
            r = partition(inst.map, method, curves=curves)
            assert (r.value, r.method) == (z, "practical")


@pytest.mark.parametrize("seed", [53, 80, 105, 109, 124, 173, 184])
def test_reversed_basis_cycle_companions_give_the_true_z(seed):
    # curves without ordered crossings, each the push-off of a basis cycle
    # and carrying that cycle reversed: no check ran on them, and seed 80
    # gave 1 where Z is 3
    m = random_map(random.Random(seed), max_vertices=8, extra_edges=6, twisted=False)
    curves = [TransverseCurve("alpha", crossing_cochain(m, c), reverse_walk(c))
              for c in cycle_basis(m).cycles]
    assert partition(m, "practical", curves=curves).value == partition_bruteforce(m)


@pytest.mark.parametrize("method", ["practical", "auto", "pin", "spin"])
@pytest.mark.parametrize("other", [(4, 4, "klein_hexagon"), (4, 4, "planar"),
                                   (8, 8, "torus")], ids=["klein", "planar", "torus-8x8"])
def test_basis_of_another_map_rejected(other, method):
    # a foreign basis gave 72 (klein) or 256 (planar) where Z is 272, and
    # the 8x8 basis names half-edges the 4x4 map lacks
    m = lattice(4, 4, "torus").map
    with pytest.raises(ValueError, match="basis does not belong to this map"):
        partition(m, method, basis=lattice(*other).basis)


@pytest.mark.parametrize("method", ["practical", "auto", "pin", "spin"])
@pytest.mark.parametrize("size", [4, 6])
@pytest.mark.parametrize("flipped", [[0, 5, 6], [0, 2, 3, 7]])
def test_basis_of_the_unflipped_map_rejected(flipped, size, method):
    # the torus's basis walks the charts that flip_charts reversed; every
    # route checks it on the map as given
    inst = lattice(size, size, "torus")
    with pytest.raises(ValueError, match="basis does not belong to this map"):
        partition(flip_charts(inst.map, flipped), method, curves=inst.curves,
                  basis=inst.basis)


@pytest.mark.parametrize("method", ["practical", "auto", "pin", "spin"])
def test_basis_checked_before_the_bounded_matching_search(method):
    # above the oracle's 36-vertex bound pin and spin searched for D0 first
    # and raised TooLarge where practical and auto refused the basis
    inst = lattice(8, 8, "torus")
    with pytest.raises(ValueError, match="basis does not belong to this map"):
        partition(flip_charts(inst.map, [0, 5, 6]), method, curves=inst.curves,
                  basis=inst.basis)


def test_chart_swap_set_solved_once_per_map_and_omega(monkeypatch):
    # spin at omega = 0 on a twisted map needs it for K and for every basis cycle
    kasteleyn = sys.modules["pfdimers.kasteleyn"]
    solve, solves = kasteleyn.coboundary_preimage, []
    monkeypatch.setattr(kasteleyn, "coboundary_preimage",
                        lambda m, phi: solves.append(phi) or solve(m, phi))
    m = flip_charts(lattice(6, 6, "torus").map, [0, 5, 6])
    first = partition_orientable_spin(m)
    assert first.value == 90176 and len(solves) == 1
    solves.clear()
    assert partition_orientable_spin(m) == first
    assert solves == []


@pytest.mark.parametrize("method", ["practical", "auto"])
@pytest.mark.parametrize("surface, rows, cols", [
    ("torus", 8, 9), ("klein_hexagon", 8, 8), ("torus", 4, 5), ("klein_hexagon", 4, 4)])
def test_reordered_curves_with_a_given_basis_give_the_true_z(surface, rows, cols, method):
    # the basis is the curves' companions in route order, not the given one,
    # whose form and duals once weighed the reordered flips: they read 0 on
    # the tori, 218365952 at klein 8x8 and 192 at 4x4 (two swapped betas)
    inst = lattice(rows, cols, surface)
    want = partition(inst.map, "practical", curves=inst.curves, basis=inst.basis)
    r = partition(inst.map, method, curves=inst.curves[::-1], basis=inst.basis)
    assert (r.value, r.method) == (want.value, "practical")
    if surface == "torus":  # the same classes, listed in the curves' order
        assert sorted(pf for _, pf in r.terms) == sorted(pf for _, pf in want.terms)


@pytest.mark.parametrize("size", [(2, 3), (4, 5)], ids=["2x3", "4x5"])
def test_generator_curves_with_the_cycle_basis_give_the_true_z(size):
    # cycle_basis(m) is a valid basis of the map, but not the companions';
    # the sum used to read 0 on tori with an odd column count
    inst = lattice(*size, "torus")
    z = partition_bruteforce(inst.map)
    for basis in (cycle_basis(inst.map), inst.basis):
        for method in ("practical", "auto"):
            r = partition(inst.map, method, curves=inst.curves, basis=basis)
            assert (r.value, r.method) == (z, "practical")


def test_repeated_curve_takes_the_basis_cycles():
    # two copies of curve 0 give no basis, so the given basis's own cycles
    # serve; the copies' flips once gave 144
    inst = lattice(4, 4, "torus")
    for method in ("practical", "auto"):
        r = partition(inst.map, method, curves=inst.curves[:1] * 2, basis=inst.basis)
        assert (r.value, r.method) == (272, "practical")


@pytest.mark.parametrize("surface", ["klein_hexagon", "rp2"])
def test_repeated_curve_on_a_nonorientable_map_falls_back_to_pin(surface):
    inst = lattice(4, 4, surface)
    curves = inst.curves[:1] * 2 + inst.curves[1:]
    with pytest.raises(CurveNotRealizable):
        partition(inst.map, "practical", curves=curves, basis=inst.basis)
    r = partition(inst.map, "auto", curves=curves, basis=inst.basis)
    assert (r.value, r.method) == (partition(inst.map, "pin").value, "pin")


def test_basis_cycle_curves_in_any_order_give_the_true_z():
    # one alpha curve per cycle_basis cycle, with cycle_basis(m) passed: in
    # reverse order, or with the first curve in place of the second, 137
    # and 178 of 300 such maps once gave a wrong Z
    rng, done = random.Random(5), 0
    while done < 30:
        m = random_map(rng, 8, 6, twisted=False)
        if m.vertex_count % 2 or classify(m).b1 == 0:
            continue
        z = partition_bruteforce(m)
        if not z:
            continue
        basis = cycle_basis(m)
        curves = [TransverseCurve("alpha", crossing_cochain(m, c), c) for c in basis.cycles]
        for order in (curves[::-1], curves[:1] * 2 + curves[2:]):
            assert partition(m, "practical", curves=order, basis=basis).value == z
        done += 1


def _swap_companions(inst):
    first, second = inst.curves[:2]
    return [replace(first, companion=second.companion),
            replace(second, companion=first.companion)]


@pytest.mark.parametrize("surface, curves, message", [
    ("torus", _swap_companions, "companion crosses the curve 1 times, expected 0"),
    ("rp2", lambda inst: [replace(inst.curves[0], crossing_edge=25)],
     "beta companion must use its crossing edge"),
    ("klein_hexagon", lambda inst: inst.curves[:1],
     "even Euler characteristic needs two beta curves"),
], ids=["companion-crosses", "beta-off-its-edge", "one-beta-on-even-chi"])
def test_curve_rejections_name_their_fault(surface, curves, message):
    inst = lattice(4, 4, surface)
    bad = curves(inst)
    assert bad != list(inst.curves)
    with pytest.raises(CurveNotRealizable, match=message):
        partition(inst.map, "practical", curves=bad)
    r = partition(inst.map, "auto", curves=bad)
    assert (r.value, r.method) == (partition_bruteforce(inst.map), "pin")


def test_oracle_method_dispatch():
    inst = lattice(2, 3, "planar")
    r = partition(inst.map, "oracle")
    assert r.value == partition_bruteforce(inst.map)


def test_faces_traced_once_per_route_call_and_load(monkeypatch):
    import io
    import sys

    from pfdimers import graphfile
    from pfdimers.surface_graph import flip_charts, trace_faces

    calls = []

    def counting(m):
        calls.append(m)
        return trace_faces(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("pfdimers") and getattr(module, "trace_faces", None) is trace_faces:
            monkeypatch.setattr(module, "trace_faces", counting)

    torus, klein, rp2 = (lattice(4, 4, s) for s in ("torus", "klein_hexagon", "rp2"))
    twisted = flip_charts(torus.map, [0, 5, 6])
    assert twisted.twist_bits()
    runs = [
        lambda: partition(torus.map, curves=torus.curves, basis=torus.basis),
        lambda: partition(torus.map, "practical", curves=torus.curves),
        lambda: partition(torus.map, "spin"),
        lambda: partition(torus.map, "pin"),
        lambda: partition(klein.map, curves=klein.curves),
        lambda: partition(klein.map, "practical", curves=klein.curves, basis=klein.basis),
        lambda: partition(klein.map, "pin"),
        lambda: partition(rp2.map, curves=rp2.curves, basis=rp2.basis),
        lambda: partition(twisted),
        lambda: partition_orientable_practical(twisted, curves=torus.curves),
        lambda: partition_orientable_spin(twisted),
    ]
    for inst in (torus, klein, lattice(3, 4, "planar")):
        buf = io.StringIO()
        graphfile.dump(inst, buf)
        runs.append(lambda text=buf.getvalue(): graphfile.load(io.StringIO(text)))
    for run in runs:
        before = len(calls)
        run()
        assert len(calls) - before <= 1
    # a map keeps its faces: the runs on one map trace it once between them
    assert len({id(m) for m in calls}) == len(calls)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_one_ordering_per_route_call_and_pfaffian_per_class(monkeypatch, backend):
    # routes order a route's edges once and evaluate every class through the
    # ``pfaffian`` name of ``partition``, where the benchmark tracer sees it;
    # a non-orientable pin route evaluates one class of each conjugate pair
    from pfdimers.surface_graph import flip_charts

    module = sys.modules["pfdimers.pfaffian"]
    route_module = sys.modules["pfdimers.partition"]
    rcm, pf, classes = module._rcm_order, route_module.pfaffian, module._class_masks
    calls, pf_dims, class_counts = [], [], []

    def counting(*args):
        calls.append(args)
        return rcm(*args)

    def counting_pf(matrix):
        pf_dims.append(matrix.dimension)
        return pf(matrix)

    def counting_classes(*args):
        out = classes(*args)
        class_counts.append(len(out))
        return out

    monkeypatch.setattr(module, "_rcm_order", counting)
    monkeypatch.setattr(route_module, "pfaffian", counting_pf)
    monkeypatch.setattr(module, "_class_masks", counting_classes)
    torus, klein, rp2 = (lattice(4, 4, s) for s in ("torus", "klein_hexagon", "rp2"))
    twisted = flip_charts(torus.map, [0, 5, 6])
    runs = [(inst.map, method, inst.curves or None, inst.basis)
            for inst in (torus, klein, rp2) for method in ("auto", "pin")]
    runs += [(torus.map, "spin", None, None), (twisted, "auto", None, None),
             (twisted, "spin", None, None)]
    served = []
    for m, method, curves, basis in runs:
        calls.clear(), pf_dims.clear(), class_counts.clear()
        om = 0 if classify(m).orientable and method != "pin" else m.twist_bits()
        later = backend == "exact" and ("known", om) in kept_records(m, "known")
        partition(m, method, curves=curves, basis=basis, backend=backend)
        assert len(calls) <= 1, (method, len(calls))
        if later:
            # an exact route after the auto run at its omega takes the classes
            # that the known ones or their conjugates reach, and eliminates the rest
            want = len(rule_eliminations(m, om)[-1])
            assert pf_dims == [m.vertex_count] * want, method
            assert len(calls) == len(class_counts) == (want > 0), method
            served.append((m, method, want))
            continue
        if m is torus.map and method == "spin":
            # practical's K is normalised by the companions and spin's is the
            # constructed one, so spin keeps no record of the torus auto run
            assert (len(calls), pf_dims, class_counts) == (1, [16] * 4, [4])
        assert len(calls) == 1, (method, len(calls))
        paired = method == "pin" and not classify(m).orientable
        assert pf_dims == [m.vertex_count] * (sum(class_counts) >> paired) != [], method
    # the torus and twisted auto runs reach every class; the non-orientable
    # practical flips span a hyperplane, whose conjugates reach the others
    assert [(method, want) for m, method, want in served] == (backend == "exact") * [
        ("pin", 0), ("pin", 0), ("pin", 0), ("spin", 0), ("spin", 0)]


@pytest.mark.parametrize("weight", [10**160, Fraction(1, 10**160)], ids=["1e160", "1e-160"])
@pytest.mark.parametrize("surface", ["torus", "klein_hexagon", "rp2"])
def test_float_out_of_range_raises(surface, weight):
    unit = lattice(4, 4, surface)
    inst = lattice(4, 4, surface, weights=[weight] * unit.map.edge_count)
    scale = Fraction(weight) ** (inst.map.vertex_count // 2)
    for method in ("auto", "pin", "oracle"):
        kw = dict(curves=inst.curves or None, basis=inst.basis)
        z = partition(unit.map, method, **kw).value
        assert partition(inst.map, method, **kw).value == z * scale
        with pytest.raises(FloatOutOfRange):
            partition(inst.map, method, backend="float", **kw)


@pytest.mark.parametrize("weight", [10**160, Fraction(1, 10**160)], ids=["1e160", "1e-160"])
@pytest.mark.parametrize("surface", ["torus", "klein_hexagon"])
def test_float_out_of_range_raises_through_the_split(surface, weight):
    # 1e160: the interior pivots overflow, and their product with the seam
    # block's raises; 1e-160: they underflow to 0, which reads as a missing
    # pivot, so the route drops the split and the unsplit product raises
    from pfdimers.pfaffian import _class_matrices, pfaffian

    count = lattice(8, 8, surface).map.edge_count
    inst = lattice(8, 8, surface, weights=[weight] * count)
    m = inst.map
    flips = [cv.cross for cv in inst.curves]
    classes = _class_matrices(m, construct_kasteleyn(m), flips, "float")
    route, n = classes[0].route, m.vertex_count
    assert route.stop < n
    with pytest.raises(FloatOutOfRange):
        pfaffian(classes[0])
    assert (route.stop < n) == (weight > 1)
    with pytest.raises(FloatOutOfRange):
        partition(m, "auto", curves=inst.curves, basis=inst.basis, backend="float")


@pytest.mark.parametrize("surface, count", [("torus", 2), ("klein_hexagon", 0), ("rp2", 0)])
def test_float_conditioning_warnings_at_20x20(surface, count):
    # the (+,+) torus class is singular on even lattices; the split warns on
    # it as the unsplit elimination did, and nowhere else
    inst = lattice(20, 20, surface)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        r = partition(inst.map, "auto", curves=inst.curves, basis=inst.basis,
                      backend="float")
    assert r.method == "practical"
    assert sum(issubclass(w.category, IllConditionedWarning) for w in caught) == count


def test_practical_with_too_few_curves_takes_the_basis_cycles():
    inst = lattice(4, 4, "torus")
    for backend in ("exact", "float"):
        for method in ("auto", "practical"):
            r = partition(inst.map, method, curves=inst.curves[:1], backend=backend)
            assert (r.value, r.method) == (272, "practical")
        # dependent curves: the same one twice
        r = partition(inst.map, "auto", curves=inst.curves[:1] * 2, backend=backend)
        assert (r.value, r.method) == (272, "practical")


def test_nonorientable_curves_without_a_basis_fall_back_to_pin(monkeypatch):
    # no generator curve set reaches this; force basis_from_cycles to fail
    def no_basis(m, cycles):
        raise NotAClosedWalk("need 1 independent cycles, got 0")

    monkeypatch.setattr(sys.modules["pfdimers.partition"], "basis_from_cycles", no_basis)
    inst = lattice(4, 4, "rp2")
    with pytest.raises(CurveNotRealizable, match="homology basis"):
        partition(inst.map, "practical", curves=inst.curves)
    r = partition(inst.map, "auto", curves=inst.curves)
    assert (r.value, r.method) == (partition_bruteforce(inst.map), "pin")


def test_float_value_out_of_range_raises():
    with pytest.raises(FloatOutOfRange):
        PartitionResult(float("inf"), "pin", False)
    with pytest.raises(FloatOutOfRange):
        PartitionResult(float("nan"), "practical", False)
    assert PartitionResult(Fraction(10**400), "pin", True).value == 10**400


def test_exact_values_past_the_int_str_digit_limit():
    # w^(V/2) with w = 10**600 on 16 vertices: Z and the class Pfaffians
    # have 4803 digits, past CPython's default int-to-str limit of 4300
    zeros = "0" * 4800
    inst = lattice(4, 4, "torus", weights=[10**600] * 32)
    big = ("10", "144" + zeros), ("01", "144" + zeros)
    for method, terms in (("auto", (("00", "256" + zeros), *big, ("11", "0"))),
                          ("pin", (("00", "0"), *big, ("11", "256" + zeros)))):
        r = partition(inst.map, method, curves=inst.curves, basis=inst.basis)
        assert r.value == 272 * 10**4800
        assert r.terms == terms
    # a Gaussian class Pfaffian: 51+47i at unit weights on the rp2 3x4 lattice
    rp2 = lattice(3, 4, "rp2", weights=[10**800] * 24)
    r = partition(rp2.map, "pin", basis=rp2.basis)
    assert r.value == 98 * 10**4800
    assert r.terms == (("0", f"51{zeros}+47{zeros}i"), ("1", f"51{zeros}-47{zeros}i"))


@given(st.fractions(), st.fractions())
def test_exact_strings_unchanged_below_the_digit_limit(re, im):
    assert rational_str(re) == str(re)
    assert rational_str(re.numerator) == str(re.numerator)
    old = (str(re) if im == 0 else f"{im}i" if re == 0
           else f"{re}{'+' if im >= 0 else '-'}{abs(im)}i")
    assert str(GaussianRational(re, im)) == old


def test_orientability_searched_once_per_map(monkeypatch):
    import pfdimers.surface_graph as surface_graph

    calls = []
    search = surface_graph.tree_side

    def counting(m, phi):
        if phi == m.twist_bits():
            calls.append(m)
        return search(m, phi)

    monkeypatch.setattr(surface_graph, "tree_side", counting)
    for surface in ("torus", "rp2"):
        for backend in ("exact", "float"):
            inst = lattice(6, 6, surface)
            partition(inst.map, "auto", curves=inst.curves, basis=inst.basis,
                      backend=backend)
            assert calls[-1] is inst.map
    assert len({id(m) for m in calls}) == len(calls)


def test_unknown_backend_is_rejected_by_every_route():
    torus = lattice(3, 4, "torus")
    rp2 = lattice(3, 4, "rp2")
    calls = [partial(partition, torus.map, method)
             for method in ("auto", "practical", "pin", "spin", "oracle")]
    calls += [
        partial(partition, rp2.map, "auto", curves=rp2.curves),
        partial(partition_orientable_practical, torus.map),
        partial(partition_orientable_spin, torus.map),
        partial(partition_general_pin, rp2.map),
        partial(partition_nonorientable_practical, rp2.map, rp2.curves),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown backend 'flaot'"):
            call(backend="flaot")
        assert call(backend="float").value == pytest.approx(float(call().value))


def test_unknown_backend_is_rejected_by_build_adjacency():
    m = lattice(3, 4, "torus").map
    with pytest.raises(ValueError, match="unknown backend 'exakt'"):
        build_adjacency(m, construct_kasteleyn(m), backend="exakt")


# ---------------------------------------------------------------------------
# What a map keeps: reference matching, basis, K, BFS tree and class Pfaffians
# are derived once per map object
# ---------------------------------------------------------------------------

def _counting_pfaffians(monkeypatch):
    module = sys.modules["pfdimers.partition"]
    pf, calls = module.pfaffian, []
    monkeypatch.setattr(module, "pfaffian", lambda c: calls.append(c) or pf(c))
    return calls


def _fresh(m):
    return relabel(m, range(m.vertex_count))


def _class_records(m):
    return len(kept_records(m, "classes"))


def _random_orientable_maps(twisted, count=4, seed=7):
    rng, maps = random.Random(seed), []
    while len(maps) < count:
        m = random_map(rng, max_vertices=8, extra_edges=6, twisted=twisted)
        surface = classify(m)
        if surface.orientable and surface.b1 and bool(m.twist_bits()) == twisted and \
                m.vertex_count % 2 == 0 and find_matching(m) is not None:
            maps.append(m)
    return maps


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_spin_after_pin_computes_no_class_pfaffian(monkeypatch, backend):
    calls = _counting_pfaffians(monkeypatch)
    maps = [lattice(4, 4, "torus").map, lattice(3, 4, "torus").map]
    for m in maps + _random_orientable_maps(twisted=False):
        calls.clear()
        pin = partition_general_pin(m, backend=backend)
        assert len(calls) == 2 ** classify(m).b1
        calls.clear()
        spin = partition_orientable_spin(m, backend=backend)
        assert calls == []
        fresh = partition_orientable_spin(_fresh(m), backend=backend)
        assert len(calls) == 2 ** classify(m).b1
        assert (spin.value, spin.terms) == (fresh.value, fresh.terms)
        assert spin.terms == pin.terms


def test_class_terms_are_formatted_once_per_kept_route(monkeypatch):
    exactnum = sys.modules["pfdimers.exactnum"]
    to_str, formatted = exactnum.rational_str, []
    monkeypatch.setattr(exactnum, "rational_str", lambda q: formatted.append(q) or to_str(q))
    for m in [lattice(4, 4, "torus").map] + _random_orientable_maps(twisted=False, count=2):
        pin = partition_general_pin(m)
        assert formatted
        formatted.clear()
        spin = partition_orientable_spin(m)
        assert formatted == []
        assert spin.terms == pin.terms == partition_orientable_spin(_fresh(m)).terms
    # the primed practical route: class idx + n is the primed class of idx,
    # listed before it
    inst = lattice(4, 4, "klein_hexagon")
    m, kwargs = inst.map, dict(curves=inst.curves, basis=inst.basis)
    first = partition(m, "practical", **kwargs)
    formatted.clear()
    assert partition(m, "practical", **kwargs) == first and formatted == []
    assert first.terms == partition(_fresh(m), "practical", **kwargs).terms
    (key,) = kept_records(m, "classes")
    _, bits, flips, _, _ = key
    want = [str(pfaffian(build_adjacency(m, Kc))) for Kc in
            enumerate_classes(m, Orientation(bits, m.edge_count), flips)]
    n = len(want) // 2
    labels = [format(idx, f"0{n.bit_length() - 1}b")[::-1] for idx in range(n)]
    assert first.terms == tuple(t for idx in range(n) for t in
                                ((labels[idx] + "'", want[n + idx]), (labels[idx], want[idx])))


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_kept_data_is_isolated_by_backend_basis_omega_and_k(monkeypatch, backend):
    calls = _counting_pfaffians(monkeypatch)
    other = "float" if backend == "exact" else "exact"
    # their lattice bases differ from ``cycle_basis`` (the rp2 ones do not)
    for inst in (lattice(4, 4, "torus"), lattice(4, 4, "klein_hexagon")):
        m = inst.map
        shifted = m.twist_bits() ^ vertex_coboundary(m, 0)  # the same class as omega
        runs = [dict(backend=other), dict(backend=backend),
                dict(basis=inst.basis, backend=backend),
                dict(omega=shifted, backend=backend)]
        results = []
        for kwargs in runs:
            calls.clear()
            records = _class_records(m)
            results.append(partition_general_pin(m, **kwargs))
            # each run keeps a record of its own; on the klein bottle, one
            # class of each conjugate pair; exact pin on inst.basis takes
            # every class from what the default-basis run before it made known
            assert _class_records(m) == records + 1, kwargs
            surface = classify(m)
            served = backend == "exact" and "basis" in kwargs
            assert len(calls) == (not served) * 2 ** (surface.b1 - (not surface.orientable)), kwargs
            fresh = partition_general_pin(_fresh(m), **kwargs)
            assert (results[-1].value, results[-1].terms) == (fresh.value, fresh.terms)
        calls.clear()
        assert [partition_general_pin(m, **kwargs) for kwargs in runs] == results
        assert calls == []
        # and by K, which the practical routes normalise along their companions;
        # the unflipped K with these flips is the pin run's on inst.basis; a
        # float route on the klein bottle pairs its classes by conjugation
        K, flips = construct_kasteleyn(m), inst.basis.dual_cochains
        args = (inst.basis.chains, [0] * 2 ** len(flips), 0, backend, m.twist_bits())
        evaluated = (backend == "float") * 2 ** (len(flips) - (not surface.orientable))
        for Kc, want in ((K, 0), (K.flipped(flips[0]), evaluated)):
            calls.clear()
            pfs = _class_sum(m, Kc, flips, *args).pfs
            assert len(calls) == want
            assert pfs == _class_sum(_fresh(m), Kc, flips, *args).pfs


def _reference_class_sum(pfs, eighths, root2s):
    """The class sum in Gaussian rationals, as factor * sum_xi i^k_xi * pf_xi
    / divisor with factor (1+i)^o: the per-route factor arithmetic the weight
    rule replaced.  Float Pfaffians enter with their exact values."""
    o = root2s % 2
    total = GaussianRational.of(0)
    for e, pf in zip(eighths, pfs):
        total = total + i_power((e - o) // 2) * GaussianRational.of(
            Fraction(pf.real), Fraction(pf.imag))
    return (GaussianRational.of(1, o) * total).scale(Fraction(1, 2 ** ((root2s + o) // 2)))


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("surface, size", [("klein_hexagon", (4, 4)), ("rp2", (3, 4)),
                                           ("torus", (2, 6))])
def test_class_sum_is_the_eighth_turn_weight_rule(backend, surface, size):
    # on unit and on rational weights, where exact class Pfaffians are
    # Gaussian integers over a scale L^(n/2) > 1
    rng, weigh = random.Random(23), random.Random(5)
    unit = lattice(*size, surface)
    for inst in (unit, lattice(*size, surface, weights=random_weights(
            weigh, unit.map.edge_count, max_num=9))):
        m, om = inst.map, inst.map.twist_bits()
        K, flips, chains = construct_kasteleyn(m, om), inst.basis.dual_cochains, inst.basis.chains
        for _ in range(40):
            root2s = rng.randint(-1, 6)
            eighths = [root2s % 2 + 2 * rng.randint(-6, 6) for _ in range(2 ** len(flips))]
            total = _class_sum(m, K, flips, chains, eighths, root2s, backend, om)
            assert (total.scale > 1) == (backend == "exact" and inst is not unit)
            ref = _reference_class_sum(total.pfs, eighths, root2s).scale(
                Fraction(1, total.scale))
            if backend == "exact":
                assert (total.re, total.im) == (ref.re, ref.im)
            else:
                magnitude = 1 + sum(abs(pf) for pf in total.pfs)
                assert abs(complex(total.re, total.im) - ref.to_complex()) <= 1e-12 * magnitude


def _rational_high_genus_maps(count=40, seed=31):
    """Random maps with b1 in {7, 8}, an even vertex count and a perfect
    matching, half of them drawn without twists, rebuilt with random rational
    weights of which at least one is not an integer, so that L > 1."""
    rng, maps = random.Random(seed), []
    while len(maps) < count:
        m = random_map(rng, max_vertices=6, extra_edges=10, twisted=len(maps) % 2 == 1)
        weights = random_weights(rng, m.edge_count, max_num=9)
        if classify(m).b1 in (7, 8) and m.vertex_count % 2 == 0 and \
                find_matching(m) is not None and any(w.denominator > 1 for w in weights):
            maps.append(build_map(m.vertex_count, m.rotations, [(e.u, e.v) for e in m.edges],
                                  [e.twist for e in m.edges], weights))
    return maps


def test_rational_weights_at_high_b1_give_the_oracle_exactly():
    # the class Pfaffians are summed as Gaussian integers over L^(n/2) and
    # divided once, with the power of two
    orientable = 0
    for m in _rational_high_genus_maps():
        z = partition_bruteforce(m)
        routes = [partition_general_pin]
        if classify(m).orientable:
            routes.append(partition_orientable_spin)
            orientable += 1
        for route in routes:
            r = route(m)
            assert r.value == z, route.__name__
            fresh = route(_fresh(m))
            assert (fresh.value, fresh.terms) == (r.value, r.terms), route.__name__
    assert orientable >= 10


def _binary_float(rng):
    return rng.choice((0.1, 0.7, 2.5, 1e-3, 3.0)) * 2.0 ** rng.randint(-40, 40)


@pytest.mark.parametrize("surface", ["planar", "torus", "klein_hexagon", "rp2"])
def test_exact_routes_on_float_weights_give_the_oracle(surface):
    # a float weight is exact at its binary value: the routes, like the
    # oracle, read it as an integer over the weights' common denominator
    rng = random.Random(37)
    for a, b in [(2, 4), (3, 4), (4, 4)]:
        count = lattice(a, b, surface).map.edge_count
        inst = lattice(a, b, surface, weights=[_binary_float(rng) for _ in range(count)])
        z = partition_bruteforce(inst.map)
        methods = ["auto", "pin"] + (["spin"] if surface in ("planar", "torus") else [])
        for method in methods:
            r = partition(inst.map, method, curves=inst.curves or None, basis=inst.basis)
            assert r.value == z, (a, b, method)


def test_exact_pin_on_float_weights_at_high_b1_gives_the_oracle():
    rng = random.Random(41)
    for m in _rational_high_genus_maps(count=6):
        m = build_map(m.vertex_count, m.rotations, [(e.u, e.v) for e in m.edges],
                      [e.twist for e in m.edges], [_binary_float(rng) for _ in m.edges])
        assert partition_general_pin(m).value == partition_bruteforce(m)


def test_rational_class_terms_are_the_class_pfaffians():
    # each term is Pf(A^{K_xi}) itself, not the Gaussian integer L^(n/2) Pf
    for m in _rational_high_genus_maps(count=4):
        om = m.twist_bits()
        K, basis = construct_kasteleyn(m, om), cycle_basis(m)
        want = [str(pfaffian(build_adjacency(m, Kc, om)))
                for Kc in enumerate_classes(m, K, basis.dual_cochains)]
        assert [pf for _, pf in partition_general_pin(m).terms] == want


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_class_pfaffians_reach_the_bucket_loop_as_gaussian_integers(backend):
    for m in _rational_high_genus_maps(count=4):
        om = m.twist_bits()
        K, basis = construct_kasteleyn(m, om), cycle_basis(m)
        flips = basis.dual_cochains
        eighths = [len(flips) % 2] * 2 ** len(flips)
        total = _class_sum(m, K, flips, basis.chains, eighths, len(flips), backend, om)
        if backend == "exact":
            assert total.scale > 1
            assert all(type(pf.re) is type(pf.im) is int for pf in total.pfs)
        else:
            assert total.scale == 1 and all(type(pf) is complex for pf in total.pfs)


def _nonorientable_maps(count=300, seed=13):
    """Random non-orientable maps on 2-6 vertices with b1 <= 8 and a perfect
    matching."""
    rng, maps = random.Random(seed), []
    while len(maps) < count:
        m = random_map(rng, max_vertices=6, extra_edges=8, twisted=True)
        surface = classify(m)
        if not surface.orientable and surface.b1 <= 8 and m.vertex_count % 2 == 0 and \
                find_matching(m) is not None:
            maps.append(m)
    return maps


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_conjugate_partners_serve_half_the_pin_classes(monkeypatch, backend):
    # omega = flip(xi0) + delta(x) with xi0 omega's values on the basis cycles,
    # so Pf(A^{K_(xi ^ xi0)}) = (-1)^|x| conj Pf(A^{K_xi}): a non-orientable
    # pin route evaluates the first class of each pair, and serves the other
    # as what a fresh route's ``pfaffian`` gives it, type, sign and zero parts
    from pfdimers.pfaffian import _class_matrices, _gauge

    calls = _counting_pfaffians(monkeypatch)
    lattices = [(lattice(4, 4, "klein_hexagon"), True), (lattice(6, 6, "rp2"), True),
                (lattice(4, 5, "rp2"), False), (lattice(4, 6, "klein_hexagon"), False)]
    for inst, gauged in lattices:
        assert (_gauge(inst.map, inst.map.twist_bits()) is not None) == gauged
    maps = _nonorientable_maps()
    assert {classify(m).b1 for m in maps} >= set(range(1, 9))
    signs = set()
    for m in [inst.map for inst, _ in lattices] + maps:
        om, basis = m.twist_bits(), cycle_basis(m)
        calls.clear()
        partition_general_pin(m, backend=backend)
        assert len(calls) == 2 ** (basis.rank - 1)
        (pfs, _, _), = kept_records(m, "classes").values()
        fresh = _class_matrices(_fresh(m), construct_kasteleyn(m, om), basis.dual_cochains,
                                backend, om)
        evaluated = {c.flips for c in calls}
        served = [idx for idx, c in enumerate(fresh) if c.flips not in evaluated]
        assert len(served) == len(evaluated)
        for idx in served:
            want = pfaffian(fresh[idx])
            assert (type(pfs[idx]), repr(pfs[idx])) == (type(want), repr(want)), idx
        xi0 = sum(dot(om, chain) << i for i, chain in enumerate(basis.chains))
        assert xi0 in served
        if pfs[0]:  # class 0 and its partner xi0
            signs.add(pfs[xi0] == pfs[0].conjugate())
    assert signs == {True, False}  # both signs (-1)^|x| occur


def test_companion_basis_is_built_once_per_map(monkeypatch):
    homology = sys.modules["pfdimers.homology"]
    build, builds = homology._basis_of_cycles, []
    monkeypatch.setattr(homology, "_basis_of_cycles",
                        lambda m, cycles: builds.append(cycles) or build(m, cycles))
    for surface in ("torus", "klein_hexagon", "rp2"):
        buf = io.StringIO()
        graphfile.dump(lattice(6, 6, surface), buf)
        buf.seek(0)
        builds.clear()
        inst = graphfile.load(buf)
        r = partition(inst.map, "auto", curves=inst.curves, basis=inst.basis)
        assert (r.method, len(builds)) == ("practical", 1), surface


def test_equal_maps_do_not_share_kept_data(monkeypatch):
    calls = _counting_pfaffians(monkeypatch)
    inst = lattice(4, 4, "torus")
    buf = io.StringIO()
    graphfile.dump(inst, buf)
    buf.seek(0)
    twin = lattice(4, 4, "torus").map
    assert twin == inst.map and hash(twin) == hash(inst.map) and twin is not inst.map
    partition_general_pin(inst.map)
    copies = [twin, _fresh(inst.map), graphfile.load(buf).map, flip_charts(inst.map, []),
              untwist(inst.map)]
    for m in copies:
        assert m == inst.map
        calls.clear()
        partition_general_pin(m)
        assert len(calls) == 4


def _counting_untwists(monkeypatch):
    """Count ``untwist`` calls through every pfdimers module that binds it."""
    untwisted, calls = untwist, []
    for module in [mod for name, mod in sys.modules.items() if name.startswith("pfdimers")]:
        if getattr(module, "untwist", None) is untwisted:
            monkeypatch.setattr(module, "untwist",
                                lambda m: calls.append(m) or untwisted(m))
    return calls


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_bfs_and_untwist_run_once_per_map(monkeypatch, backend):
    import pfdimers.surface_graph as surface_graph

    bfs, bfs_calls = surface_graph._bfs, []
    monkeypatch.setattr(surface_graph, "_bfs", lambda m: bfs_calls.append(m) or bfs(m))
    untwist_calls = _counting_untwists(monkeypatch)
    # both built after the patch, so each map's own search is counted too
    torus = lattice(6, 6, "torus")
    twisted = _random_orientable_maps(twisted=True, count=1)[0]
    for m, curves, basis in ((torus.map, torus.curves, torus.basis), (twisted, None, None)):
        for method in ("auto", "pin", "spin"):
            partition(m, method, curves=curves, basis=basis, backend=backend)
    assert {id(torus.map), id(twisted)} <= {id(m) for m in bfs_calls}
    assert len({id(m) for m in bfs_calls}) == len(bfs_calls)
    # every route runs on the map as given
    assert untwist_calls == []


def test_no_route_untwists(monkeypatch):
    calls = _counting_untwists(monkeypatch)
    m = _random_orientable_maps(twisted=True, count=1, seed=23)[0]
    for method in ("spin", "pin", "auto", "practical"):
        partition(m, method)
        assert calls == [], method


@pytest.mark.parametrize("call, message", [
    (lambda m: partition(m, "bogus"), "unknown method 'bogus'"),
    (lambda m: partition_general_pin(m, omega=1),
     "does not represent the first Stiefel-Whitney class"),
], ids=["unknown-method", "omega-off-class"])
def test_route_rejections_name_their_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call(lattice(4, 4, "torus").map)
