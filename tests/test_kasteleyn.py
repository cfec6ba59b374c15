from __future__ import annotations

import random

import pytest

from pfdimers import (
    OddVertexCount,
    Orientation,
    TooLarge,
    build_map,
    canonical_orientation,
    construct_kasteleyn,
    count_all_kasteleyn,
    curvature,
    curvature_report,
    cycle_basis,
    enumerate_classes,
    equivalent,
    face_curvatures,
    is_kasteleyn,
    lattice,
    omega_change,
    trace_faces,
)
from pfdimers.generators import random_map
from pfdimers.homology import vertex_coboundary


def test_planar_square_kasteleyn_means_odd_mismatch(sphere_square):
    m = sphere_square
    K = construct_kasteleyn(m)
    faces = trace_faces(m)
    for face in faces.faces:
        n = sum(K.disagrees_with_arc(h) for h, _ in face.steps)
        assert n % 2 == 1  # orientable zero curvature = odd mismatch count


def test_cyclically_oriented_square_face_is_curved(sphere_square):
    m = sphere_square
    faces = trace_faces(m)
    # orient every edge along one face's boundary walk: that face gets
    # mismatch count 0, curvature 1
    face = faces.faces[0]
    bits = 0
    for h, _ in face.steps:
        e, side = divmod(h, 2)
        if side == 1:
            bits |= 1 << e
    K = Orientation(bits, m.edge_count)
    curv = face_curvatures(m, K)
    idx = faces.faces.index(face)
    assert curv[idx] == 1


def test_construct_on_klein_lattice():
    m = lattice(5, 6, "klein_hexagon").map
    K = construct_kasteleyn(m)
    assert is_kasteleyn(m, K)
    assert all(curvature(m, K, f) == 0 for f in range(30))


def test_single_flip_changes_adjacent_faces_only():
    rng = random.Random(0)
    for _ in range(10):
        m = random_map(rng)
        faces = trace_faces(m)
        K = canonical_orientation(m)
        base = face_curvatures(m, K)
        e = rng.randrange(m.edge_count)
        upd = face_curvatures(m, K.flipped(1 << e))
        incident = []
        for fi, face in enumerate(faces.faces):
            mult = sum(1 for h, _ in face.steps if h // 2 == e)
            if mult:
                incident.append((fi, mult))
        for fi, (a, b) in enumerate(zip(base, upd)):
            mult = dict(incident).get(fi, 0)
            assert (a ^ b) == (mult % 2)


def test_odd_vertex_count_rejected():
    m = build_map(3, [[0], [1, 2], [3]], [(0, 1), (1, 2)], [0, 0], [1, 1])
    with pytest.raises(OddVertexCount):
        construct_kasteleyn(m)
    assert count_all_kasteleyn(m) == 0


def test_counting_formula_small_orientable(sphere_square, torus_two_vertex):
    # sphere square: V=4, g=0
    assert count_all_kasteleyn(sphere_square) == 2 ** (0 + 4 - 1)
    # torus quadrangulation: V=2, g=1
    assert count_all_kasteleyn(torus_two_vertex) == 2 ** (2 + 2 - 1)
    # torus 2x2 lattice: V=4, g=1
    assert count_all_kasteleyn(lattice(2, 2, "torus").map) == 2 ** (2 + 4 - 1)


def test_counting_single_edge():
    m = lattice(1, 2, "planar").map
    assert count_all_kasteleyn(m) == 2


def test_count_too_large():
    m = lattice(5, 6, "torus").map
    with pytest.raises(TooLarge):
        count_all_kasteleyn(m)


def test_class_count_matches_torsor():
    for surf, mm, nn in [("torus", 2, 2), ("klein_hexagon", 2, 2), ("rp2", 2, 2)]:
        m = lattice(mm, nn, surf).map
        basis = cycle_basis(m)
        total = count_all_kasteleyn(m, bound=16) if m.edge_count <= 16 else None
        if total is not None:
            assert total == 2 ** basis.rank * 2 ** (m.vertex_count - 1)


def test_enumerate_classes_pairwise_inequivalent():
    for surf in ("torus", "klein_hexagon"):
        m = lattice(3, 4, surf).map if surf == "torus" else lattice(3, 4, surf).map
        basis = cycle_basis(m)
        K = construct_kasteleyn(m)
        classes = enumerate_classes(m, K, basis.dual_cochains)
        assert len(classes) == 2 ** basis.rank
        for Kc in classes:
            assert is_kasteleyn(m, Kc)
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                assert not equivalent(m, classes[i], classes[j])


def test_sphere_single_class(sphere_square):
    K = construct_kasteleyn(sphere_square)
    assert enumerate_classes(sphere_square, K, ()) == [K]


def test_torsor_disagreement_is_cocycle():
    from pfdimers.homology import is_cocycle

    rng = random.Random(1)
    for _ in range(10):
        m = random_map(rng)
        if m.vertex_count % 2:
            continue
        K1 = construct_kasteleyn(m)
        basis = cycle_basis(m)
        K2 = enumerate_classes(m, K1, basis.dual_cochains)[-1]
        assert is_cocycle(m, K1.bits ^ K2.bits)


def test_curvature_parity_matches_vertex_count():
    rng = random.Random(2)
    for _ in range(60):
        m = random_map(rng)
        K = Orientation(rng.getrandbits(m.edge_count), m.edge_count)
        rep = curvature_report(m, K)
        assert rep.consistent()


def test_omega_change_basics():
    inst = lattice(3, 4, "klein_hexagon")
    m = inst.map
    om = m.twist_bits()
    K = construct_kasteleyn(m)
    # a vertex with no twisted edges: orientation unchanged
    inner = next(v for v in range(m.vertex_count)
                 if not any((om >> (h // 2)) & 1 for h in m.rotations[v]))
    om2, K2 = omega_change(m, om, K, inner)
    assert K2.bits == K.bits and om2 == om ^ vertex_coboundary(m, inner)
    assert is_kasteleyn(m, K2, omega=om2)
    # a vertex adjacent to a twisted edge: result admissible for the new omega
    v = next(v for v in range(m.vertex_count)
             if any((om >> (h // 2)) & 1 for h in m.rotations[v]))
    om2, K2 = omega_change(m, om, K, v)
    assert is_kasteleyn(m, K2, omega=om2)
    # applying the move twice returns an equivalent orientation
    om3, K3 = omega_change(m, om2, K2, v)
    assert om3 == om
    assert is_kasteleyn(m, K3) and equivalent(m, K3, K)


def test_omega_change_commutes_up_to_equivalence():
    inst = lattice(2, 4, "klein_hexagon")
    m = inst.map
    om = m.twist_bits()
    K = construct_kasteleyn(m)
    om_a, K_a = omega_change(m, om, K, 0)
    om_ab, K_ab = omega_change(m, om_a, K_a, 1)
    om_b, K_b = omega_change(m, om, K, 1)
    om_ba, K_ba = omega_change(m, om_b, K_b, 0)
    assert om_ab == om_ba
    assert equivalent(m, K_ab, K_ba)


def test_construct_runs_on_random_maps():
    rng = random.Random(3)
    for _ in range(40):
        m = random_map(rng)
        if m.vertex_count % 2:
            continue
        K = construct_kasteleyn(m)
        assert is_kasteleyn(m, K)


def test_construct_depends_on_the_map_and_omega_alone(monkeypatch):
    # K is the face system's solution that is zero off the echelon's pivots:
    # neither the elimination order nor the face order can move it
    import pfdimers.kasteleyn as kasteleyn
    from test_homology import _InsertionOrderSpan

    maps = [lattice(a, b, s).map for s in ("planar", "torus", "klein_hexagon", "rp2")
            for a, b in ((2, 2), (4, 4), (6, 8), (12, 12))]
    rng = random.Random(5)
    lattices = len(maps)
    while len(maps) < lattices + 300:
        m = random_map(rng, 8, 5, twisted=len(maps) % 2 == 0)
        if m.vertex_count % 2 == 0:
            maps.append(m)
    cases = []
    for m in maps:
        om = m.twist_bits()
        moved, _ = omega_change(m, om, construct_kasteleyn(m, om), m.vertex_count - 1)
        cases += [(m, om), (m, moved)]

    def orientations():
        return [construct_kasteleyn(m, om) for m, om in cases]

    Ks = orientations()
    for (m, om), K in zip(cases, Ks):
        assert is_kasteleyn(m, K, om)
        span = kasteleyn.Gf2Span()
        for fold, const in kasteleyn._face_parities(m, om):
            span.add(fold, const)
        assert K.bits & ~sum(1 << pb for pb in span.pivots) == 0
    table = kasteleyn._face_parities
    monkeypatch.setattr(kasteleyn, "_face_parities", lambda m, om: table(m, om)[::-1])
    assert orientations() == Ks
    monkeypatch.setattr(kasteleyn, "Gf2Span", _InsertionOrderSpan)
    assert orientations() == Ks
    monkeypatch.setattr(kasteleyn, "_face_parities", table)
    assert orientations() == Ks


def test_construct_builds_the_face_table_once(monkeypatch):
    import pfdimers.kasteleyn as kasteleyn

    calls = []
    table = kasteleyn._face_parities

    def counting(m, omega):
        calls.append(m)
        return table(m, omega)

    maps = [lattice(6, 6, s).map for s in ("torus", "klein_hexagon", "rp2")]
    monkeypatch.setattr(kasteleyn, "_face_parities", counting)
    for m in maps:
        K = construct_kasteleyn(m, omega=m.twist_bits())
        assert calls == [m]
        assert is_kasteleyn(m, K)
        calls.clear()


def _reference_face_parities(m, omega):
    """The face table step by step, one ``half_vertex`` lookup per step and
    the fold from ``odd_edge_mask``: the reference for ``_face_parities``."""
    import pfdimers.kasteleyn as kasteleyn

    swap = kasteleyn._omega_flip_set(m, omega)
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


def test_face_table_equals_the_step_by_step_reference():
    import pfdimers.kasteleyn as kasteleyn

    rng = random.Random(40)
    maps = [lattice(r, c, s).map for s in ("planar", "torus", "klein_hexagon", "rp2")
            for r, c in ((2, 2), (3, 4), (4, 4), (5, 6))]
    maps += [random_map(rng, 9, 6, twisted=i % 2 == 0) for i in range(200)]
    moved = 0
    for m in maps:
        om = m.twist_bits()
        S = [v for v in range(m.vertex_count) if rng.randrange(2)]
        delta = 0
        for v in S:
            delta ^= vertex_coboundary(m, v)
        moved += bool(delta)
        for omega in (None, om, om ^ delta):
            assert kasteleyn._face_parities(m, omega) == _reference_face_parities(m, omega)
    assert moved >= 150
