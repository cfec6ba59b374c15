from __future__ import annotations

import random

import pytest

from pfdimers import (
    BadDimensions,
    OpenSurfaceWord,
    classify,
    lattice,
    trace_faces,
)
from pfdimers.generators import (
    SURFACES,
    from_polygon_word,
    one_sides,
    random_lattice,
    random_map,
)
from pfdimers.homology import dot, walk_chain
from pfdimers.partition import companion_cycle


EXPECTED = {
    "planar": "sphere",
    "torus": "torus",
    "klein_hexagon": "klein bottle",
    "rp2": "projective plane",
}


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("size", [(2, 2), (3, 4), (4, 3)])
def test_generated_instances_valid(surface, size):
    mm, nn = size
    if surface == "klein_hexagon" and nn % 2:
        nn += 1
    inst = lattice(mm, nn, surface)
    st = classify(inst.map)
    assert st.name == EXPECTED[surface]
    if inst.basis is not None:
        assert inst.basis.rank == st.b1
    for cv in inst.curves:
        walk = companion_cycle(inst.map, cv)
        want = 1 if cv.kind == "beta" else 0
        assert dot(cv.cross, walk_chain(walk)) == want


def test_beta_crossings_reproduce_twists():
    for surf in ("klein_hexagon", "rp2"):
        inst = lattice(3, 4, surf)
        acc = 0
        for cv in inst.curves:
            if cv.kind == "beta":
                acc ^= cv.cross
        assert acc == inst.map.twist_bits()


def test_torus_curves_untwisted():
    inst = lattice(3, 4, "torus")
    assert inst.map.twist_bits() == 0
    assert all(cv.kind == "alpha" for cv in inst.curves)


def test_bad_dimensions():
    with pytest.raises(BadDimensions):
        lattice(1, 1, "planar")
    with pytest.raises(BadDimensions):
        lattice(3, 3, "klein_hexagon")  # odd column count
    with pytest.raises(BadDimensions):
        lattice(1, 4, "torus")
    with pytest.raises(BadDimensions):
        lattice(2, 2, "unknown_surface")


def test_one_sides_classification():
    assert sorted(one_sides("aabccB")) == ["a", "c"]
    assert one_sides("acbCAB") == frozenset()
    assert one_sides("aa") == frozenset("a")
    assert one_sides("abAB") == frozenset()
    with pytest.raises(OpenSurfaceWord):
        one_sides("abc")
    with pytest.raises(OpenSurfaceWord):
        one_sides("a2b")


def test_from_polygon_word_rp2():
    g, om = from_polygon_word("aa", 2, [[0, 2], [1, 3]],
                              [(0, 1, 1, ""), (0, 1, 1, "a")])
    assert [e.twist for e in g.edges] == [0, 1]
    assert classify(g).name == "projective plane"
    assert om == g.twist_bits()


def test_from_polygon_word_torus_untwisted():
    g, om = from_polygon_word("abAB", 1, [[0, 2, 1, 3]],
                              [(0, 0, 1, "a"), (0, 0, 1, "b")])
    assert om == 0
    assert classify(g).name == "torus"


def test_from_polygon_word_klein_counts():
    # the hexagon word with a double crossing: parity cancels
    g, om = from_polygon_word("aabccB", 2, [[0, 2], [1, 3]],
                              [(0, 1, 1, "ac"), (0, 1, 1, "b")])
    assert [e.twist for e in g.edges] == [0, 0]


def test_random_lattice_within_bound():
    rng = random.Random(0)
    for _ in range(20):
        inst = random_lattice(rng, max_vertices=16)
        assert inst.map.vertex_count <= 16
        assert classify(inst.map).name == EXPECTED[inst.surface]


def test_random_map_connected_valid():
    rng = random.Random(1)
    for _ in range(30):
        m = random_map(rng)
        faces = trace_faces(m)
        assert sum(len(f) for f in faces.faces) == 2 * m.edge_count


def test_random_map_without_chords_is_a_tree():
    rng = random.Random(2)
    for _ in range(20):
        m = random_map(rng, extra_edges=0)
        assert m.edge_count == m.vertex_count - 1
        assert classify(m).name == "sphere"


def test_lattice_with_the_wrong_weight_count_rejected():
    with pytest.raises(BadDimensions, match="expected 32 weights, got 3"):
        lattice(4, 4, "torus", weights=[1] * 3)
