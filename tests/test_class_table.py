"""Known class Pfaffians: routes on one map share class Pfaffians by class.

Every exact route at a cochain omega reads and extends the map's known
class Pfaffians of omega.  A class that is a known class flipped by a vertex
coboundary delta(x) takes its Pfaffian times det D = (-1)^|x|, D =
diag((-1)^x); one that is a known class flipped by omega and delta(x) takes
the conjugate of its Pfaffian times (-1)^|x|; the others are eliminated
and become known.  A cocycle is read as its class and its parity on the
odd join, the BFS-tree edges with an odd number of vertices below them: with
V even that parity is |x| on delta(x).
"""

from __future__ import annotations

import random
import sys

import pytest

from pfdimers import (
    build_map,
    classify,
    construct_kasteleyn,
    lattice,
    partition,
    partition_general_pin,
    partition_orientable_practical,
    partition_orientable_spin,
    pfaffian,
)
from pfdimers.generators import random_map, random_weights
from pfdimers.homology import basis_from_cycles, cycle_basis, dot, vertex_coboundary
from pfdimers.kasteleyn import Orientation, _class_masks
from pfdimers.partition import _class_sum, _Known, _reading
from pfdimers.pfaffian import _class_matrices
from pfdimers.surface_graph import odd_join, relabel, spanning_tree

from conftest import kept_records, rule_eliminations

ROUTES = ("pin", "practical", "spin")
ORDERS = [("pin", "practical", "spin"), ("practical", "pin", "spin")]


def _fresh(m):
    return relabel(m, range(m.vertex_count))


def _counting_pfaffians(monkeypatch):
    module = sys.modules["pfdimers.partition"]
    pf, calls = module.pfaffian, []
    monkeypatch.setattr(module, "pfaffian", lambda c: calls.append(c) or pf(c))
    return calls


def _outcome(run, m):
    try:
        res = run(m)
    except Exception as exc:  # a route that does not apply fails alike in every order
        return type(exc).__name__, str(exc)
    return repr(res.value), res.terms


def _lattice_runs(inst):
    return {name: (lambda m, name=name: partition(m, name, curves=inst.curves or None,
                                                  basis=inst.basis))
            for name in ROUTES}


def _map_runs(m):
    """pin, practical and spin as the sweep runs them on a map without curves,
    and pin again on a shuffled cycle basis, whose flips differ from pin's."""
    cycles = cycle_basis(m).cycles
    shuffled = random.Random(m.edge_count).sample(cycles, len(cycles))
    runs = {"pin": partition_general_pin,
            "pin on a shuffled basis": lambda g: partition_general_pin(
                g, basis=basis_from_cycles(g, shuffled))}
    if classify(m).orientable:
        runs["practical"] = partition_orientable_practical
        runs["spin"] = partition_orientable_spin
    return runs


def _assert_order_free(m, runs, orders):
    """Each route, in each order on one copy of m, gives what it gives alone."""
    alone = {name: _outcome(run, _fresh(m)) for name, run in runs.items()}
    for order in orders:
        shared = _fresh(m)
        for name in filter(runs.__contains__, order):
            assert _outcome(runs[name], shared) == alone[name], (order, name)


@pytest.mark.parametrize("size", [4, 6])
@pytest.mark.parametrize("surface", ["torus", "klein_hexagon", "rp2"])
def test_routes_on_one_lattice_give_what_they_give_alone(surface, size):
    inst = lattice(size, size, surface)
    _assert_order_free(inst.map, _lattice_runs(inst), ORDERS)


def _reweighted(m, weights):
    return build_map(m.vertex_count, m.rotations, [(e.u, e.v) for e in m.edges],
                     [e.twist for e in m.edges], weights)


def test_routes_on_one_random_map_give_what_they_give_alone():
    rng = random.Random(31)
    kinds = set()
    for i in range(300):
        m = random_map(rng, max_vertices=6, extra_edges=8, twisted=i % 2 == 1)
        if i % 3 == 0:  # rational weights: class Pfaffians over a scale L^(n/2) > 1
            m = _reweighted(m, random_weights(rng, m.edge_count, max_num=9))
        if m.vertex_count % 2 == 0:
            kinds.add((classify(m).orientable, m.twist_bits() != 0))
        orders = [order + ("pin on a shuffled basis",) for order in ORDERS]
        _assert_order_free(m, _map_runs(m),
                           orders + [("pin on a shuffled basis", "spin", "practical", "pin")])
    assert kinds == {(True, False), (True, True), (False, True)}


def test_practical_after_pin_serves_the_primed_classes(monkeypatch):
    # klein_hexagon has even Euler characteristic: half of the practical
    # classes are primed, also flipped along the first beta curve
    calls = _counting_pfaffians(monkeypatch)
    inst = lattice(4, 6, "klein_hexagon")
    m = inst.map
    partition(m, "pin", basis=inst.basis)
    calls.clear()
    served = partition(m, "practical", curves=inst.curves, basis=inst.basis)
    assert calls == []
    alone = partition(_fresh(m), "practical", curves=inst.curves, basis=inst.basis)
    assert calls != []
    assert any(label.endswith("'") for label, _ in served.terms)
    assert (served.value, served.terms) == (alone.value, alone.terms)


@pytest.mark.parametrize("surface, size", [("klein_hexagon", 4), ("rp2", 6)])
def test_pin_after_practical_takes_every_class_on_any_basis(monkeypatch, surface, size):
    # practical's classes and their conjugates across omega reach every class
    calls = _counting_pfaffians(monkeypatch)
    inst = lattice(size, size, surface)
    m = inst.map
    partition(m, "practical", curves=inst.curves, basis=inst.basis)
    for basis in (inst.basis, cycle_basis(m)):
        calls.clear()
        pin = partition_general_pin(m, basis=basis)
        assert calls == []
        alone = partition_general_pin(_fresh(m), basis=basis)
        assert (repr(pin.value), pin.terms) == (repr(alone.value), alone.terms)


@pytest.mark.parametrize("surface, size", [("klein_hexagon", (4, 4)), ("klein_hexagon", (4, 6)),
                                           ("rp2", (4, 4)), ("rp2", (3, 4))])
def test_a_route_off_the_tables_span_eliminates_exactly_the_missing_classes(
        monkeypatch, surface, size):
    # a non-orientable practical route flips along a hyperplane of the
    # classes, and its conjugates reach the others: pin after it eliminates
    # none.  After practical's K alone, on a second copy, pin eliminates the
    # classes that neither K nor its conjugate reaches, one on the klein
    # bottle (b1 = 2) and none on the projective plane (b1 = 1)
    calls = _counting_pfaffians(monkeypatch)
    inst = lattice(*size, surface)
    m, om = inst.map, inst.map.twist_bits()
    partition(m, "practical", curves=inst.curves, basis=inst.basis)
    (_, bits, _, _, _), = kept_records(m, "classes")
    other = _fresh(m)
    _class_sum(other, Orientation(bits, m.edge_count), [], inst.basis.chains, [0], 0, "exact", om)
    for g, eliminated in ((m, 0), (other, int(surface == "klein_hexagon"))):
        calls.clear()
        pin = partition_general_pin(g, basis=inst.basis)
        want = rule_eliminations(g, om)[-1]
        assert sorted(c.flips for c in calls) == sorted(want) and len(want) == eliminated
        alone = partition_general_pin(_fresh(m), basis=inst.basis)
        assert (pin.value, pin.terms) == (alone.value, alone.terms)


def test_the_first_route_keeps_its_own_pfaffians_as_the_table():
    # the first route at omega is the known K, chains and flips, so class idx
    # is known at idx, with its flip mask's parity on the odd join, for the
    # lower class of each conjugate pair
    inst = lattice(4, 4, "klein_hexagon")
    m, om = inst.map, inst.map.twist_bits()
    partition_general_pin(m, basis=inst.basis)
    (pfs, scale, _), = kept_records(m, "classes").values()
    known, = kept_records(m, "known").values()
    assert (known.bits, known.chains, known.scale, known.join) == (
        construct_kasteleyn(m, om).bits, inst.basis.chains, scale, odd_join(m))
    xi0 = sum(dot(om, z) << j for j, z in enumerate(inst.basis.chains))
    masks = _class_masks(inst.basis.dual_cochains)
    assert known.slots == [(dot(masks[idx], known.join), pfs[idx]) if idx < idx ^ xi0 else None
                           for idx in range(len(pfs))]
    assert all(slot[1] is pfs[idx] for idx, slot in enumerate(known.slots) if slot)


def _delta(m, y):
    """delta(y) for the vertex set y."""
    bits = 0
    for v in y:
        bits ^= vertex_coboundary(m, v)
    return bits


def _even_maps():
    rng = random.Random(7)
    maps = [lattice(*size, surface).map for surface in ("planar", "torus", "klein_hexagon", "rp2")
            for size in ((2, 2), (3, 4), (4, 4), (6, 6))]
    maps += [random_map(rng, max_vertices=6, extra_edges=8, twisted=i % 2 == 1)
             for i in range(60)]
    return [m for m in maps if m.vertex_count % 2 == 0]


def test_the_odd_join_reads_every_coboundary_by_its_vertex_parity():
    # every vertex meets the join an odd number of times, so dot(delta(y),
    # join) = |y| mod 2; a join one tree edge short fails at that edge's ends
    rng = random.Random(5)
    for m in _even_maps():
        n, join = m.vertex_count, odd_join(m)
        tree, _ = spanning_tree(m)
        ys = [[v] for v in range(n)] + [rng.sample(range(n), rng.randint(0, n)) for _ in range(20)]

        def misread(j):
            return [y for y in ys if dot(_delta(m, y), j) != len(y) % 2]

        assert join & ~sum(1 << e for e in tree) == 0
        assert misread(join) == []
        for e in tree:
            if join >> e & 1:
                assert misread(join & ~(1 << e))
        # a reading is linear, and delta(y) moves only its parity, by |y|
        basis = cycle_basis(m)
        known = _Known(m, Orientation(0, m.edge_count), basis.chains)
        state = {k: list(v) if k == "slots" else v for k, v in vars(known).items()}
        for i, phi in enumerate(basis.dual_cochains):
            assert _reading(known, phi) >> 1 == 1 << i
        cocycles = _class_masks(basis.dual_cochains)
        for _ in range(10):
            a, b = (rng.choice(cocycles) ^ _delta(m, rng.sample(range(n), rng.randint(0, n)))
                    for _ in range(2))
            assert _reading(known, a ^ b) == _reading(known, a) ^ _reading(known, b)
            y = rng.sample(range(n), rng.randint(0, n))
            assert _reading(known, a ^ _delta(m, y)) == _reading(known, a) ^ len(y) & 1
        assert vars(known) == state


def test_practical_after_pin_on_an_untwisted_random_map_solves_no_coboundary(monkeypatch):
    # pin at omega = 0 makes every class known, and practical reads its
    # classes off the chains and the odd join: no class matrix, no tree_side
    calls, searched = _counting_pfaffians(monkeypatch), []
    search = sys.modules["pfdimers.surface_graph"].tree_side
    for module in [mod for name, mod in sys.modules.items()
                   if name.startswith("pfdimers") and hasattr(mod, "tree_side")]:
        monkeypatch.setattr(module, "tree_side",
                            lambda m, phi: searched.append(phi) or search(m, phi))
    rng, served = random.Random(7), []
    for i in range(30):
        m = random_map(rng, max_vertices=6, extra_edges=8, twisted=i % 2 == 1)
        if i % 2 or m.vertex_count % 2:
            continue
        assert m.orientable  # kept: searched once per map, here
        partition_general_pin(m)  # with or without a perfect matching
        calls.clear()
        searched.clear()
        res = partition_orientable_practical(m)
        assert (calls, searched) == ([], []), i
        alone = partition_orientable_practical(_fresh(m))
        assert (repr(res.value), res.terms) == (repr(alone.value), alone.terms)
        served.append(i)
    assert {2, 4, 20, 22, 24, 26, 28} <= set(served)


@pytest.mark.parametrize("surface", ["torus", "klein_hexagon", "rp2"])
def test_float_routes_neither_read_nor_write_the_table(surface):
    inst = lattice(4, 6, surface)
    m = inst.map
    for backend in ("exact", "float"):
        partition(m, "pin", basis=inst.basis, backend=backend)
    after = partition(m, "practical", curves=inst.curves, basis=inst.basis, backend="float")
    alone = partition(_fresh(m), "practical", curves=inst.curves, basis=inst.basis,
                      backend="float")
    assert (repr(after.value), after.terms) == (repr(alone.value), alone.terms)
    assert list(kept_records(m, "known")) == [("known", m.twist_bits())]
    fresh = _fresh(m)
    partition(fresh, "pin", basis=inst.basis, backend="float")
    assert not kept_records(fresh, "known")


def test_every_kept_class_pfaffian_is_its_own_class_pfaffian():
    # a class served up to (-1)^|x|, or as a conjugate across omega, holds
    # what its own class matrix gives on a fresh map, type and zero parts
    # too; the random maps serve odd signs and non-real conjugates
    rng = random.Random(31)
    cases = [(inst.map, inst.curves or None, inst.basis, order)
             for inst in (lattice(4, 4, "torus"), lattice(4, 4, "klein_hexagon"),
                          lattice(6, 6, "rp2")) for order in ORDERS]
    cases += [(random_map(rng, max_vertices=6, extra_edges=8, twisted=i % 2 == 1), None, None,
               ("pin", "pin on a shuffled basis", "practical", "spin")) for i in range(40)]
    for m, curves, basis, order in cases:
        g = _fresh(m)
        cycles = cycle_basis(g).cycles
        shuffled = basis_from_cycles(g, random.Random(g.edge_count).sample(cycles, len(cycles)))
        for backend in ("exact", "float"):
            for name in order:
                _outcome(lambda h: partition(
                    h, name.split()[0], curves=curves, backend=backend,
                    basis=shuffled if name.endswith("basis") else basis), g)
        for (_, bits, flips, om, backend), (pfs, _, _) in kept_records(g, "classes").items():
            want = [pfaffian(c) for c in _class_matrices(
                _fresh(g), Orientation(bits, g.edge_count), flips, backend, om)]
            assert [(type(pf), repr(pf)) for pf in pfs] == \
                [(type(pf), repr(pf)) for pf in want], (order, backend)
