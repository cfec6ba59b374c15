"""Shared fixtures: small hand-checked maps used across the suite."""

from __future__ import annotations

import pytest

from pfdimers import build_map, lattice
from pfdimers.kasteleyn import _class_masks
from pfdimers.surface_graph import tree_side


def kept_records(m, kind):
    """The records of one kind that routes keep on m, by full key, in the
    order kept: "classes", one per route, (K bits, flips, omega, backend) ->
    (pfs, scale, strs); "known", one per omega, the known class Pfaffians."""
    return {key: v for key, v in m.__dict__.get("_kept", {}).items() if key[0] == kind}


def rule_eliminations(m, omega):
    """Per exact route at omega kept on m, in call order, the flip masks of
    the classes that the serving rule eliminates, walked in class order: a
    class is served when ``tree_side`` finds a coboundary between it and a
    known class, or a known class flipped by omega; else it is eliminated
    and known."""
    known, out = [], []
    for _, bits, flips, om, backend in kept_records(m, "classes"):
        if (om, backend) != (omega, "exact"):
            continue
        out.append([])
        for mask in _class_masks(flips):
            if all(tree_side(m, bits ^ mask ^ k ^ shift) is None
                   for shift in (0, omega) for k in known):
                known.append(bits ^ mask)
                out[-1].append(mask)
    return out


@pytest.fixture
def sphere_loop():
    """One vertex, one untwisted loop: two faces, chi = 2."""
    return build_map(1, [[0, 1]], [(0, 0)], [0], [1])


@pytest.fixture
def rp2_loop():
    """One vertex, one twisted loop: one face, chi = 1."""
    return build_map(1, [[0, 1]], [(0, 0)], [1], [1])


@pytest.fixture
def rp2_two_vertex():
    """Two vertices joined by an untwisted and a twisted edge; chi = 1.

    The smallest projective-plane graph with perfect matchings (it has two).
    """
    return build_map(2, [[0, 2], [1, 3]], [(0, 1), (0, 1)], [0, 1], [1, 1])


@pytest.fixture
def sphere_square():
    """Planar 4-cycle quadrangulating the sphere."""
    return lattice(2, 2, "planar").map


@pytest.fixture
def torus_two_vertex():
    """Two vertices, four parallel edges, quadrangulating the torus."""
    return build_map(2, [[0, 2, 4, 6], [1, 3, 5, 7]], [(0, 1)] * 4,
                     [0] * 4, [1] * 4)


@pytest.fixture
def path_with_twist():
    """Path v0 - v1 - v2 with a twist on the first edge."""
    return build_map(3, [[0], [1, 2], [3]], [(0, 1), (1, 2)], [1, 0], [1, 1])
