from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfdimers import (
    NotAClosedWalk,
    canonical_orientation,
    construct_kasteleyn,
    cycle_basis,
    dual_flip,
    equivalent,
    intersection_number,
    is_coboundary,
    is_cocycle,
    is_kasteleyn,
    lattice,
    trace_faces,
)
from pfdimers.errors import NotSimple
from pfdimers.generators import random_map
from pfdimers.partition import partition
from pfdimers.homology import (
    Gf2Span,
    basis_from_cycles,
    chain_from_edges,
    check_simple_walk,
    coboundary_preimage,
    crossing_cochain,
    dot,
    face_boundary_chains,
    is_cycle,
    parity,
    vertex_coboundary,
)


@pytest.mark.parametrize("twisted", [False, True])
def test_coboundary_preimage_is_the_smaller_side(twisted):
    # every vertex set S of 60 random maps with V <= 8: the smaller of S and
    # its complement, ties to the side without vertex 0; non-coboundaries None
    rng = random.Random(7)
    rejected = 0
    for _ in range(60):
        m = random_map(rng, max_vertices=8, extra_edges=5, twisted=twisted)
        nv, everyone = m.vertex_count, (1 << m.vertex_count) - 1
        coboundaries = set()
        for s in range(1 << nv):
            phi = 0
            for v in range(nv):
                if (s >> v) & 1:
                    phi ^= vertex_coboundary(m, v)
            coboundaries.add(phi)
            side = everyone ^ s if s & 1 else s
            other = everyone ^ side
            want = other if other.bit_count() < side.bit_count() else side
            assert coboundary_preimage(m, phi) == tuple(
                v for v in range(nv) if (want >> v) & 1)
        assert len(coboundaries) == 1 << (nv - 1)
        for _ in range(5):
            phi = rng.randrange(1 << m.edge_count)
            if phi not in coboundaries:
                assert coboundary_preimage(m, phi) is None
                rejected += 1
    assert rejected >= 100


@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 7)), max_size=10),
       st.integers(0, 255))
def test_gf2_span_matches_brute_force(rows, probe):
    span = Gf2Span()
    kept = []
    for mask, rhs in rows:
        if span.add(mask, rhs):
            kept.append((mask, rhs))
    spanned = {0}
    for mask, _ in rows:
        spanned |= {s ^ mask for s in spanned}
    assert span.rank == len(kept) == len(spanned).bit_length() - 1
    assert span.contains(probe) == (probe in spanned)
    for k in range(3):
        x = span.solve(k)
        for mask, rhs in kept:
            assert parity(x & mask) == (rhs >> k) & 1


@given(st.integers(0, 2**30 - 1), st.integers(0, 2**30 - 1))
def test_dot_symmetric(a, b):
    assert dot(a, b) == dot(b, a)


def test_cycle_space_dimensions():
    rng = random.Random(0)
    for _ in range(20):
        m = random_map(rng)
        faces = trace_faces(m)
        cycles_dim = m.edge_count - m.vertex_count + 1
        faces_dim = Gf2Span(face_boundary_chains(m)).rank
        assert faces_dim == len(faces) - 1
        b1 = 2 - (m.vertex_count - m.edge_count + len(faces))
        assert cycles_dim - faces_dim == b1


def test_sphere_basis_empty(sphere_square):
    assert cycle_basis(sphere_square).rank == 0


def test_rp2_loop_basis(rp2_loop):
    basis = cycle_basis(rp2_loop)
    assert basis.rank == 1
    assert basis.gram == ((1,),)


def test_klein_gram_identity():
    inst = lattice(5, 6, "klein_hexagon")
    assert inst.basis.gram == ((1, 0), (0, 1))
    auto = cycle_basis(inst.map)
    assert auto.rank == 2
    # gram of any basis of the Klein bottle is congruent to the identity:
    # both diagonal entries cannot be zero simultaneously
    assert any(auto.gram[i][i] for i in range(2))


def test_torus_meridian_longitude_intersect_once():
    inst = lattice(4, 4, "torus")
    c1, c2 = inst.basis.cycles
    assert intersection_number(inst.map, c1, c2) == 1
    assert intersection_number(inst.map, c1, c1) == 0
    assert intersection_number(inst.map, c2, c2) == 0


def test_rp2_core_self_intersection(rp2_loop):
    basis = cycle_basis(rp2_loop)
    walk = basis.cycles[0]
    assert intersection_number(rp2_loop, walk, walk) == 1


def test_intersection_disjoint_zero():
    inst = lattice(4, 4, "klein_hexagon")
    c1, c2 = inst.basis.cycles
    assert intersection_number(inst.map, c1, c2) == 0  # rows 0 and 3 disjoint


def test_intersection_symmetric_and_boundary_invariant():
    rng = random.Random(1)
    checked = 0
    for _ in range(40):
        m = random_map(rng)
        basis = cycle_basis(m)
        if basis.rank < 2:
            continue
        faces = trace_faces(m)
        for i in range(basis.rank):
            for j in range(basis.rank):
                assert dot(basis.pd_cochains[i], basis.chains[j]) == \
                    dot(basis.pd_cochains[j], basis.chains[i])
                # adding a face boundary to the second argument changes nothing
                f = faces.faces[0].odd_edge_mask()
                assert dot(basis.pd_cochains[i], basis.chains[j] ^ f) == \
                    dot(basis.pd_cochains[i], basis.chains[j])
        checked += 1
    assert checked > 5


def test_self_intersection_is_twist_holonomy():
    rng = random.Random(2)
    for _ in range(30):
        m = random_map(rng)
        basis = cycle_basis(m)
        om = m.twist_bits()
        for walk, chain in zip(basis.cycles, basis.chains):
            assert intersection_number(m, walk, chain) == dot(om, chain)


def test_crossing_cochain_is_cocycle():
    rng = random.Random(3)
    for _ in range(30):
        m = random_map(rng)
        basis = cycle_basis(m)
        for pd in basis.pd_cochains:
            assert is_cocycle(m, pd)


def test_gram_nonsingular():
    rng = random.Random(4)
    for _ in range(30):
        m = random_map(rng)
        basis = cycle_basis(m)
        rows = [chain_from_edges([j for j in range(basis.rank) if basis.gram[i][j]])
                for i in range(basis.rank)]
        assert Gf2Span(rows).rank == basis.rank


def test_cocycle_coboundary_basics(sphere_square):
    m = sphere_square
    assert is_cocycle(m, 0) and is_coboundary(m, 0)
    dv = vertex_coboundary(m, 1)
    assert is_cocycle(m, dv) and is_coboundary(m, dv)


def test_dual_cochain_not_coboundary():
    inst = lattice(3, 4, "torus")
    for phi in inst.basis.dual_cochains:
        assert is_cocycle(inst.map, phi)
        assert not is_coboundary(inst.map, phi)


def test_dual_flip_identity_and_involution():
    inst = lattice(3, 4, "torus")
    K = canonical_orientation(inst.map)
    assert dual_flip(K, 0).bits == K.bits
    phi = inst.basis.dual_cochains[0]
    assert dual_flip(dual_flip(K, phi), phi).bits == K.bits


def test_dual_flip_vertex_is_equivalence_move():
    m = lattice(3, 4, "torus").map
    K = construct_kasteleyn(m)
    dv = vertex_coboundary(m, 4)
    K2 = dual_flip(K, dv)
    assert is_kasteleyn(m, K2)
    assert equivalent(m, K, K2)


def test_dual_flip_basis_curve_changes_class():
    inst = lattice(3, 4, "torus")
    m = inst.map
    K = construct_kasteleyn(m)
    K2 = dual_flip(K, inst.basis.dual_cochains[0])
    assert is_kasteleyn(m, K2)
    assert not equivalent(m, K, K2)


def test_is_cycle_accepts_matching_differences():
    m = lattice(2, 3, "planar").map
    from pfdimers import enumerate_matchings

    ms = list(enumerate_matchings(m))
    for a in ms:
        for b in ms:
            assert is_cycle(m, a ^ b)


def test_intersection_requires_cycle():
    inst = lattice(3, 3, "torus")
    with pytest.raises(NotAClosedWalk):
        intersection_number(inst.map, inst.basis.cycles[0], 1)  # single edge


def test_coordinates_dual_to_basis():
    rng = random.Random(5)
    for _ in range(20):
        m = random_map(rng)
        basis = cycle_basis(m)
        for i, chain in enumerate(basis.chains):
            coords = basis.coordinates(chain)
            assert coords == tuple(1 if j == i else 0 for j in range(basis.rank))


def test_gf2_span_incremental():
    span = Gf2Span([0b101, 0b011])
    assert span.rank == 2
    assert span.contains(0b110)
    assert not span.add(0b110)
    assert span.add(0b1000)


# Choices of the homology layer, taken from the implementation that solved
# one parity system per dual cocycle: (cycle_basis duals, cycle_basis pd
# cochains, basis_from_cycles of the lattice companions as (duals, pd) or
# None, pin terms as "label:value" words).  Another choice of phi_i relabels
# the classes and moves signs between terms.
PINNED_CHOICES = {
    "torus": (
        (34952, 4026531840),
        (4026531840, 4369),
        ((4026531840, 34952), (34952, 4026531840)),
        "00:0 10:144 01:144 11:256",
    ),
    "klein_hexagon": (
        (4026531840, 3221225472),
        (196618, 21845),
        ((805306368, 3221225472), (536936457, 2214617088)),
        "00:196 10:196 01:192 11:192",
    ),
    "rp2": (
        (4278190080,),
        (1610919984,),
        ((4278190080,), (2178941001,)),
        "0:228 1:228",
    ),
    "random6": (
        (3072, 640, 128, 256, 1024),
        (1026, 129, 65, 256, 6),
        None,
        "00000:-3-1i 10000:3+1i 01000:1+1i 11000:-1-1i 00100:-1-1i "
        "10100:1+1i 01100:-1+1i 11100:1-1i 00010:-3+1i 10010:3-1i "
        "01010:1-1i 11010:-1+1i 00110:-1+1i 10110:1-1i 01110:-1-1i "
        "11110:1+1i 00001:3+1i 10001:-3-1i 01001:-1-1i 11001:1+1i "
        "00101:1+1i 10101:-1-1i 01101:1-1i 11101:-1+1i 00011:3-1i "
        "10011:-3+1i 01011:-1+1i 11011:1-1i 00111:1-1i 10111:-1+1i "
        "01111:1+1i 11111:-1-1i",
    ),
    "random10": (
        (128, 32, 256),
        (8, 288, 113),
        None,
        "000:4 100:-4i 010:4i 110:4 001:-4i 101:-4 011:-4 111:4i",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHOICES))
def test_basis_choices_pinned(name):
    duals, pd, companion_basis, terms = PINNED_CHOICES[name]
    if name.startswith("random"):
        m = random_map(random.Random(int(name[len("random"):])),
                       max_vertices=8, extra_edges=6)
        assert companion_basis is None
    else:
        inst = lattice(4, 4, name)
        m = inst.map
        comp = basis_from_cycles(m, [c.companion for c in inst.curves])
        assert (comp.dual_cochains, comp.pd_cochains) == companion_basis
    basis = cycle_basis(m)
    assert basis.dual_cochains == duals
    assert basis.pd_cochains == pd
    assert " ".join(f"{label}:{value}" for label, value in
                    partition(m, "pin").terms) == terms


class _InsertionOrderSpan:
    """The insertion-order echelon that ``Gf2Span`` replaced: each row is
    reduced against every earlier row, and ``solve`` back-substitutes in
    reverse insertion order."""

    def __init__(self, rows=()):
        self.rows = []
        for r in rows:
            self.add(r)

    def _reduce(self, row, rhs):
        for pb, pm, pr in self.rows:
            if (row >> pb) & 1:
                row, rhs = row ^ pm, rhs ^ pr
        return row, rhs

    def add(self, row, rhs=0):
        row, rhs = self._reduce(row, rhs)
        if row:
            self.rows.append((row.bit_length() - 1, row, rhs))
        return bool(row)

    def contains(self, row):
        return self._reduce(row, 0)[0] == 0

    @property
    def rank(self):
        return len(self.rows)

    def solve(self, k=0):
        x = 0
        for pb, pm, pr in reversed(self.rows):
            if ((pr >> k) & 1) ^ dot(x, pm):
                x |= 1 << pb
        return x


@given(st.lists(st.tuples(st.integers(0, 2**12 - 1), st.integers(0, 15)), max_size=16),
       st.lists(st.integers(0, 2**12 - 1), max_size=4))
def test_pivot_echelon_matches_insertion_order_echelon(rows, probes):
    span, ref = Gf2Span(), _InsertionOrderSpan()
    for mask, rhs in rows:
        assert span.add(mask, rhs) == ref.add(mask, rhs)
        assert span.rank == ref.rank
    for probe in probes:
        assert span.contains(probe) == ref.contains(probe)
    # the same free-variables-zero solution, not just some solution
    assert [span.solve(k) for k in range(4)] == [ref.solve(k) for k in range(4)]


def test_bases_equal_under_insertion_order_echelon(monkeypatch):
    import pfdimers.homology as homology

    maps = [(inst.map, [c.companion for c in inst.curves])
            for inst in (lattice(20, 20, s) for s in ("torus", "klein_hexagon", "rp2"))]
    rng = random.Random(3)
    for _ in range(300):
        m = random_map(rng, 8, 5)
        maps.append((m, cycle_basis(m).cycles))

    def bases():
        return [(cycle_basis(m), basis_from_cycles(m, cycles)) for m, cycles in maps]

    new = bases()
    monkeypatch.setattr(homology, "Gf2Span", _InsertionOrderSpan)
    assert bases() == new


@pytest.mark.parametrize("walk, error, message", [
    ((), NotAClosedWalk, "empty walk"),
    ((0, 1), NotSimple, "reuses an edge"),  # out along edge 0 and back
], ids=["empty", "edge-reused"])
def test_check_simple_walk_rejections(walk, error, message):
    with pytest.raises(error, match=message):
        check_simple_walk(lattice(4, 4, "torus").map, walk)


@pytest.mark.parametrize("walk, error, message", [
    ((0,), NotAClosedWalk, "step 0 ends at"),  # one arc between two vertices
    ((0, 1), NotSimple, "reuses an edge"),
], ids=["open", "edge-reused"])
def test_crossing_cochain_still_checks_its_walk(walk, error, message):
    with pytest.raises(error, match=message):
        crossing_cochain(lattice(4, 4, "torus").map, walk)


@pytest.mark.parametrize("surface", ["torus", "klein_hexagon", "rp2"])
def test_basis_duals_and_companion_push_offs_check_no_walk_again(monkeypatch, surface):
    # cycle_basis builds simple cycles and basis_from_cycles checks each
    # once; neither dual step, nor companion_cycle's push-offs, checks again
    from pfdimers import homology
    from pfdimers.partition import companion_cycle
    from pfdimers.surface_graph import relabel

    partition_module = sys.modules["pfdimers.partition"]
    inst, calls = lattice(4, 4, surface), []
    for module in (homology, partition_module):
        good = module.check_simple_walk
        monkeypatch.setattr(module, "check_simple_walk",
                            lambda m, w, good=good, name=module.__name__:
                            calls.append(name) or good(m, w))
    cycle_basis(inst.map)
    assert calls == []
    basis_from_cycles(relabel(inst.map, range(inst.map.vertex_count)), inst.basis.cycles)
    assert calls == ["pfdimers.homology"] * inst.basis.rank
    for cv in inst.curves:
        calls.clear()
        assert companion_cycle(inst.map, cv) == cv.companion
        assert calls == ["pfdimers.partition"]
