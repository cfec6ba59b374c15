from __future__ import annotations

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import pfdimers
from pfdimers import (
    DisconnectedGraph,
    MalformedRotation,
    NegativeWeight,
    build_map,
    classify,
    euler_characteristic,
    lattice,
    relabel,
    stiefel_whitney_cocycle,
    trace_faces,
    untwist,
    vertex_labels,
)
from pfdimers.generators import random_map
from pfdimers.homology import dot, edges_of
from pfdimers.surface_graph import (
    CombinatorialMap,
    Edge,
    Face,
    FaceSet,
    flip_charts,
    tree_side,
)


def test_single_edge_sphere():
    m = build_map(2, [[0], [1]], [(0, 1)], [0], [1])
    faces = trace_faces(m)
    assert len(faces) == 1
    assert euler_characteristic(m) == 2
    assert classify(m).name == "sphere"


def test_untwisted_loop_two_faces(sphere_loop):
    faces = trace_faces(sphere_loop)
    assert len(faces) == 2
    assert euler_characteristic(sphere_loop) == 2


def test_twisted_loop_projective_plane(rp2_loop):
    faces = trace_faces(rp2_loop)
    assert len(faces) == 1
    assert len(faces.faces[0]) == 2  # the boundary walk has two steps
    st = classify(rp2_loop)
    assert st.kind == "nonorientable_odd_chi" and st.chi == 1 and st.b1 == 1


def test_klein_lattice_combinatorics():
    m = lattice(5, 6, "klein_hexagon").map
    assert m.vertex_count == 30 and m.edge_count == 60
    assert sum(e.twist for e in m.edges) == 6
    faces = trace_faces(m)
    assert len(faces) == 30
    assert euler_characteristic(m) == 0
    st = classify(m)
    assert st.kind == "nonorientable_even_chi" and st.b1 == 2
    # bipartite with colour classes of 15 + 15
    colour = [None] * 30
    colour[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for h in m.rotations[v]:
            w = m.arc_target(h)
            if colour[w] is None:
                colour[w] = colour[v] ^ 1
                stack.append(w)
            assert colour[w] != colour[v]
    assert sum(colour) == 15


def test_face_steps_partition_edge_sides():
    rng = random.Random(0)
    for _ in range(25):
        m = random_map(rng)
        faces = trace_faces(m)
        assert sum(len(f) for f in faces.faces) == 2 * m.edge_count
        # twist cochain vanishes on every face boundary
        om = stiefel_whitney_cocycle(m)
        for f in faces.faces:
            assert dot(om, f.odd_edge_mask()) == 0


def test_edge_face_incidence(sphere_loop, rp2_loop):
    # both sides of an edge, with multiplicity: a twisted loop meets its one
    # face twice, an untwisted loop separates two faces
    assert sphere_loop.faces.edge_face_incidence(1) == ((0, 1),)
    assert rp2_loop.faces.edge_face_incidence(1) == ((0, 0),)
    m = lattice(2, 2, "torus").map
    assert m.faces.edge_face_incidence(m.edge_count) == (
        (0, 1), (2, 3), (0, 1), (2, 3), (1, 3), (1, 3), (0, 2), (0, 2))


def test_classify_examples(sphere_square):
    assert classify(sphere_square).name == "sphere"
    assert classify(lattice(5, 6, "torus").map).name == "torus"
    assert classify(lattice(3, 4, "rp2").map).name == "projective plane"


def test_chi_always_consistent():
    rng = random.Random(1)
    for _ in range(25):
        m = random_map(rng)
        st = classify(m)
        assert st.chi == euler_characteristic(m)
        assert st.b1 == 2 - st.chi
        if st.orientable:
            assert st.chi % 2 == 0


def test_malformed_rotation_rejected():
    with pytest.raises(MalformedRotation):
        build_map(2, [[0, 0], [1]], [(0, 1)], [0], [1])
    with pytest.raises(MalformedRotation):
        build_map(2, [[0], []], [(0, 1)], [0], [1])
    with pytest.raises(MalformedRotation):
        build_map(2, [[1], [0]], [(0, 1)], [0], [1])  # wrong anchors


def test_weight_and_connectivity_errors():
    with pytest.raises(NegativeWeight):
        build_map(2, [[0], [1]], [(0, 1)], [0], [-1])
    with pytest.raises(DisconnectedGraph):
        build_map(4, [[0], [1], [2], [3]], [(0, 1), (2, 3)], [0, 0], [1, 1])


def test_vertex_labels_path(path_with_twist):
    assert vertex_labels(path_with_twist) == (1, -1, -1)


def test_vertex_labels_orientable_all_plus():
    m = lattice(3, 3, "planar").map
    assert set(vertex_labels(m)) == {1}


def test_untwist_preserves_embedding():
    rng = random.Random(2)
    base = lattice(3, 3, "torus").map
    flips = [v for v in range(base.vertex_count) if rng.random() < 0.5]
    twisted = flip_charts(base, flips)
    if flips:
        assert twisted.twist_bits() != 0
    flat = untwist(twisted)
    assert flat.twist_bits() == 0
    assert len(trace_faces(flat)) == len(trace_faces(base))
    assert classify(flat).name == "torus"


def test_faces_traced_once_and_kept_on_the_map():
    m = lattice(3, 4, "klein_hexagon").map
    assert m.faces is m.faces
    assert m.faces == trace_faces(m)


def test_faces_cache_leaves_equality_and_hash_alone():
    base = lattice(3, 4, "torus").map
    a, b = (build_map(base.vertex_count, base.rotations, [(e.u, e.v) for e in base.edges],
                      [e.twist for e in base.edges], [e.weight for e in base.edges])
            for _ in range(2))
    assert a == b and hash(a) == hash(b)
    assert len(a.faces) == 12
    assert "faces" in vars(a) and "faces" not in vars(b)
    assert a == b and hash(a) == hash(b)


def test_derived_maps_carry_their_own_faces():
    torus = lattice(3, 4, "torus").map
    klein = lattice(3, 4, "klein_hexagon").map
    twisted = flip_charts(torus, [0, 5])
    perm = list(range(klein.vertex_count))
    random.Random(5).shuffle(perm)
    for m in (torus, klein, twisted):
        m.faces
    for source, derived in ((klein, flip_charts(klein, [1, 2, 7])),
                            (twisted, untwist(twisted)), (klein, relabel(klein, perm))):
        assert "faces" not in vars(derived)
        assert derived.faces is not source.faces
        assert derived.faces == trace_faces(derived)


def test_twist_mask_computed_once_and_kept_on_the_map(monkeypatch):
    prop = CombinatorialMap.__dict__["twist_mask"]
    make, calls = prop.func, []
    monkeypatch.setattr(prop, "func", lambda m: calls.append(m) or make(m))
    torus = lattice(3, 4, "torus").map
    klein = lattice(3, 4, "klein_hexagon").map
    twisted = flip_charts(torus, [0, 5])
    for m in (torus, klein, twisted):
        assert "twist_mask" not in vars(m)
        assert m.twist_bits() == m.twist_bits() == m.twist_mask == _twists(m)
        assert "twist_mask" in vars(m)
    assert calls == [torus, klein, twisted]
    perm = list(range(klein.vertex_count))
    random.Random(5).shuffle(perm)
    for derived in (flip_charts(klein, [1, 2, 7]), untwist(twisted), relabel(klein, perm)):
        assert "twist_mask" not in vars(derived)
        assert derived.twist_bits() == _twists(derived)


def _twists(m):
    """The twist cochain as an edge mask, walked edge by edge."""
    bits = 0
    for e, edge in enumerate(m.edges):
        if edge.twist:
            bits |= 1 << e
    return bits


def test_edges_keep_their_fields_repr_and_equality():
    edge = Edge(1, 2)
    assert (edge.u, edge.v, edge.twist, edge.weight) == (1, 2, 0, 1)
    assert repr(Edge(0, 3, 1, Fraction(2, 3))) == \
        "Edge(u=0, v=3, twist=1, weight=Fraction(2, 3))"
    assert edge == Edge(1, 2, 0, 1) and hash(edge) == hash(Edge(1, 2, 0, 1))
    assert edge != Edge(1, 2, 1) and edge != Edge(2, 1)
    with pytest.raises(AttributeError):
        edge.u = 3
    m = build_map(2, [[0], [1]], [(0, 1)], [1], [Fraction(1, 2)])
    assert m.edges == (Edge(0, 1, 1, Fraction(1, 2)),)


def test_only_the_map_traces_its_faces():
    # every consumer reads m.faces, so one module decides when faces are traced
    calls = {path.name: len(re.findall(r"(?<!def )\btrace_faces\(", path.read_text()))
             for path in Path(pfdimers.__file__).parent.glob("*.py")}
    assert {name: n for name, n in calls.items() if n} == {"surface_graph.py": 1}


def test_flip_charts_preserves_faces():
    rng = random.Random(3)
    for _ in range(10):
        m = random_map(rng)
        flips = [v for v in range(m.vertex_count) if rng.random() < 0.5]
        m2 = flip_charts(m, flips)
        assert len(trace_faces(m2)) == len(trace_faces(m))
        assert classify(m2).kind == classify(m).kind


def test_relabel_preserves_surface():
    m = lattice(3, 4, "klein_hexagon").map
    perm = list(range(m.vertex_count))
    random.Random(4).shuffle(perm)
    m2 = relabel(m, perm)
    assert classify(m2).kind == classify(m).kind
    assert len(trace_faces(m2)) == len(trace_faces(m))
    assert sorted(e.twist for e in m2.edges) == sorted(e.twist for e in m.edges)


def test_labels_flip_at_one_vertex_under_omega_move():
    m = lattice(3, 4, "klein_hexagon").map
    from pfdimers.homology import vertex_coboundary

    om = m.twist_bits()
    for v in (1, 5, 11):
        l1 = vertex_labels(m, om)
        l2 = vertex_labels(m, om ^ vertex_coboundary(m, v))
        diffs = [w for w in range(m.vertex_count) if l1[w] != l2[w]]
        assert diffs == [v]


def _delta(m, side):
    """The coboundary of a vertex set: the edges with one end in it."""
    return sum(1 << e for e, edge in enumerate(m.edges) if (edge.u in side) != (edge.v in side))


def _with_loop(rng, m):
    """m with one more edge: a loop, twisted at random, at a random vertex."""
    v, e = rng.randrange(m.vertex_count), m.edge_count
    rotations = [list(r) for r in m.rotations]
    for h in (2 * e, 2 * e + 1):
        rotations[v].insert(rng.randint(0, len(rotations[v])), h)
    return build_map(m.vertex_count, rotations, [(x.u, x.v) for x in m.edges] + [(v, v)],
                     [x.twist for x in m.edges] + [rng.randint(0, 1)])


@pytest.mark.parametrize("twisted", [False, True])
def test_tree_side_matches_brute_force(twisted):
    # tree_side(m, phi) is None exactly when no vertex subset S, all 2^V of
    # them tried, has delta(S) = phi; otherwise x_0 = 0 and delta(x) = phi
    rng = random.Random(30 + twisted)
    outcomes = {True: 0, False: 0}
    for trial in range(40):
        m = random_map(rng, max_vertices=8, extra_edges=6, twisted=twisted)
        if trial % 2:
            m = _with_loop(rng, m)
        n, ne = m.vertex_count, m.edge_count
        deltas = {_delta(m, {v for v in range(n) if s >> v & 1}) for s in range(1 << n)}
        cobounds = [_delta(m, set(rng.sample(range(n), rng.randint(0, n)))) for _ in range(4)]
        loops = sum(1 << e for e in range(ne) if m.is_loop(e))
        phis = [m.twist_bits(), *cobounds, *(c ^ loops for c in cobounds),
                *(rng.getrandbits(ne) for _ in range(6)),
                *(c ^ 1 << rng.randrange(ne) for c in cobounds)]
        for phi in phis:
            x = tree_side(m, phi)
            outcomes[phi in deltas] += 1
            if phi not in deltas:
                assert x is None, (trial, phi)
            else:
                assert x is not None and x[0] == 0, (trial, phi)
                assert _delta(m, {v for v in range(n) if x[v]}) == phi, (trial, phi)
    assert min(outcomes.values()) >= 100


def test_orientability_invariant_under_rotation_start():
    m = lattice(2, 4, "klein_hexagon").map
    rolled = [tuple(r[1:]) + (r[0],) if len(r) > 1 else r for r in m.rotations]
    m2 = build_map(m.vertex_count, rolled, [(e.u, e.v) for e in m.edges],
                   [e.twist for e in m.edges], [e.weight for e in m.edges])
    assert classify(m2).kind == classify(m).kind
    assert len(trace_faces(m2)) == len(trace_faces(m))


def test_loops_kept_in_map(sphere_loop):
    assert sphere_loop.is_loop(0)
    assert edges_of(sphere_loop.twist_bits()) == []


def _two_pass_faces(m):
    """Reference tracer: walk all 4E states, then keep the first orbit of
    each mirror pair (h, s) ~ (h ^ 1, s ^ twist ^ 1)."""
    visited, orbits = [False] * (4 * m.edge_count), []
    for start in range(4 * m.edge_count):
        h, s = start >> 1, start & 1
        orbit = []
        while not visited[2 * h + s]:
            visited[2 * h + s] = True
            orbit.append((h, s))
            s ^= m.edges[h // 2].twist
            h = m.rotation_next(h ^ 1) if s else m.rotation_prev(h ^ 1)
        if orbit:
            orbits.append(orbit)
    orbit_of = {st: i for i, orbit in enumerate(orbits) for st in orbit}
    kept, used = [], set()
    for i, orbit in enumerate(orbits):
        if i not in used:
            h, s = orbit[0]
            used |= {i, orbit_of[(h ^ 1, s ^ m.edges[h // 2].twist ^ 1)]}
            kept.append(Face(steps=tuple(orbit)))
    return FaceSet(faces=tuple(kept))


@pytest.mark.parametrize("surface", ["planar", "torus", "klein_hexagon", "rp2"])
def test_one_pass_faces_equal_the_two_pass_reference_on_lattices(surface):
    sizes = [(a, b) for a in range(2, 21) for b in (a, a + 1) if b <= 20]
    checked = 0
    for a, b in sizes:
        if surface == "klein_hexagon" and b % 2:
            continue
        m = lattice(a, b, surface).map
        assert trace_faces(m) == _two_pass_faces(m), (a, b)
        checked += 1
    assert checked >= 19


def test_one_pass_faces_equal_the_two_pass_reference_on_random_maps():
    rng = random.Random(16)
    for _ in range(2000):
        m = random_map(rng, 9, 6)
        assert trace_faces(m) == _two_pass_faces(m)


def test_a_walk_meeting_a_visited_state_is_a_malformed_rotation():
    # a successor table that is not a permutation sends two walks into one
    m = lattice(2, 2, "torus").map
    broken = CombinatorialMap(m.vertex_count, m.edges, m.rotations,
                              _next=(0,) * len(m._next), _prev=(0,) * len(m._prev))
    with pytest.raises(MalformedRotation, match="visited state"):
        trace_faces(broken)


@pytest.mark.parametrize("build, error, message", [
    (lambda: build_map(2, [[0], [1]], [(0, 1)], [0, 0], [1]), MalformedRotation,
     "twist/weight lists"),
    (lambda: build_map(2, [[0], [1]], [(0, 1)], [0], [1, 1]), MalformedRotation,
     "twist/weight lists"),
    (lambda: build_map(2, [[0, 1]], [(0, 1)], [0], [1]), MalformedRotation,
     "one rotation per vertex"),
    (lambda: build_map(2, [[0], [1]], [(0, 2)], [0], [1]), MalformedRotation,
     "endpoint out of range"),
    (lambda: build_map(2, [[0], [1]], [(0, 1)], [2], [1]), MalformedRotation,
     "twist must be 0 or 1"),
    (lambda: build_map(2, [[0], [1, 2]], [(0, 1)], [0], [1]), MalformedRotation,
     "unknown half-edge 2"),
    (lambda: build_map(0, [], [], [], []), DisconnectedGraph, "empty vertex set"),
    (lambda: untwist(lattice(4, 4, "klein_hexagon").map), MalformedRotation,
     "not orientable"),
], ids=["twist-count", "weight-count", "rotation-count", "endpoint-out-of-range",
        "twist-2", "half-edge-out-of-range", "no-vertices", "untwist-klein"])
def test_map_rejections_name_their_fault(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("weight", [0, -2, float("inf"), float("-inf"), float("nan")])
def test_weights_must_be_positive_and_finite(weight):
    # an infinite weight once reached the routes, and exact arithmetic died
    # converting it to a ratio
    with pytest.raises(NegativeWeight, match="positive and finite"):
        build_map(2, [[0], [1]], [(0, 1)], [0], [weight])
