"""The exact class table: routes on one map share class Pfaffians by class.

The first exact route at a cochain omega keeps its class Pfaffians as the
map's table of omega; a later exact route at that omega takes every class
that is a table class flipped by a vertex coboundary delta(x), with the sign
det D = (-1)^|x| of D = diag((-1)^x), and eliminates only the others.
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
)
from pfdimers.generators import random_map, random_weights
from pfdimers.homology import Gf2Span, basis_from_cycles, cycle_basis, dot
from pfdimers.kasteleyn import _class_masks
from pfdimers.surface_graph import relabel

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


@pytest.mark.parametrize("surface, size", [("klein_hexagon", (4, 4)), ("klein_hexagon", (4, 6)),
                                           ("rp2", (4, 4)), ("rp2", (3, 4))])
def test_a_route_off_the_tables_span_eliminates_exactly_the_missing_classes(
        monkeypatch, surface, size):
    # a non-orientable practical route flips along a hyperplane of the
    # classes; pin after it finds the other half outside the table
    calls = _counting_pfaffians(monkeypatch)
    inst = lattice(*size, surface)
    m, om = inst.map, inst.map.twist_bits()
    partition(m, "practical", curves=inst.curves, basis=inst.basis)
    Kt, tflips = m.__dict__["_kept"][("table", om)][0][:2]
    calls.clear()
    pin = partition_general_pin(m, basis=inst.basis)
    # outside: the class's shift from the table's K is off the span of the
    # table's flips, read on pin's basis chains; pin evaluates the lower class
    # of each conjugate pair
    K, flips, chains = construct_kasteleyn(m, om).bits, inst.basis.dual_cochains, inst.basis.chains
    span = Gf2Span([sum(dot(f, z) << j for j, z in enumerate(chains)) for f in tflips])
    partner = sum(dot(om, z) << i for i, z in enumerate(inst.basis.chains))
    masks = _class_masks(flips)
    want = {mask for idx, mask in enumerate(masks) if idx < idx ^ partner and not span.contains(
        sum(dot(K ^ mask ^ Kt, z) << j for j, z in enumerate(chains)))}
    assert {c.flips for c in calls} == want and len(calls) == len(want)
    # at 4x4 some missing classes are the lower of their pair; at 4x6 and 3x4
    # the missing ones are all conjugates of served ones
    assert bool(want) == (size == (4, 4))
    alone = partition_general_pin(_fresh(m), basis=inst.basis)
    assert (pin.value, pin.terms) == (alone.value, alone.terms)


def test_the_first_route_keeps_its_own_pfaffians_as_the_table(monkeypatch):
    module = sys.modules["pfdimers.partition"]
    served = []
    monkeypatch.setattr(module, "_served", lambda *args: served.append(args))
    inst = lattice(4, 4, "klein_hexagon")
    m, om = inst.map, inst.map.twist_bits()
    partition_general_pin(m, basis=inst.basis)
    assert served == []  # no coordinate work on the first route
    store = m.__dict__["_kept"]
    [classes] = [v for k, v in store.items() if k[0] == "classes"]
    bits, flips, pfs, scale = store[("table", om)][0]
    assert (bits, flips) == (construct_kasteleyn(m, om).bits, inst.basis.dual_cochains)
    assert pfs is classes[0] and scale == classes[1]


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
    assert [k for k in m.__dict__["_kept"] if k[0] == "table"] == [("table", m.twist_bits())]
    fresh = _fresh(m)
    partition(fresh, "pin", basis=inst.basis, backend="float")
    assert not [k for k in fresh.__dict__["_kept"] if k[0] == "table"]
