"""Every rejection path of ``graphfile.load``, each with its exception type
and its exact message."""

from __future__ import annotations

import io

import pytest

from pfdimers import graphfile
from pfdimers.errors import DisconnectedGraph, MalformedFile, MalformedRotation, NegativeWeight

# two parallel edges between vertices 0 and 1: a sphere with two faces
EDGES = "vertices 2\nedge 0 0 1 0 1\nedge 1 0 1 0 1\n"
GOOD = EDGES + "rotation 0 0.0 1.0\nrotation 1 0.1 1.1\n"


def _with_half(tok: str) -> str:
    return EDGES + f"rotation 0 0.0 {tok}\nrotation 1 0.1 1.1\n"


CASES = {
    "unknown-directive": ("vertices 2\nbogus 1\n", MalformedFile, "unknown directive 'bogus'"),
    "vertices-tokens": ("vertices 2 3\n", MalformedFile,
                        "line 1: 'vertices' needs 2 tokens, got 3"),
    "edge-tokens": ("vertices 2\nedge 0 0 1 0\n", MalformedFile,
                    "line 2: 'edge' needs 6 tokens, got 5"),
    "curve-tokens": (GOOD + "curve 0\n", MalformedFile, "line 6: 'curve' needs 3 tokens, got 2"),
    "vertices-twice": ("vertices 2\n# again\nvertices 2\n", MalformedFile,
                       "line 3: 'vertices' repeats an earlier line"),
    "edge-twice": (GOOD + "edge 1 0 1 0 2\n", MalformedFile,
                   "line 6: 'edge' repeats an earlier line"),
    "rotation-twice": (GOOD + "rotation 1 1.1 0.1\n", MalformedFile,
                       "line 6: 'rotation' repeats an earlier line"),
    "vertices-not-int": ("vertices x\n", MalformedFile, "line 1: cannot parse 'vertices x'"),
    "edge-id-not-int": ("vertices 2\nedge x 0 1 0 1\n", MalformedFile,
                        "line 2: cannot parse 'edge x 0 1 0 1'"),
    "edge-field-not-int": ("vertices 2\nedge 0 0 y 0 1\n", MalformedFile,
                           "line 2: cannot parse 'edge 0 0 y 0 1'"),
    "stripped-line-quoted": ("vertices 2\n  edge\t0 0  y 0 1   # note\n", MalformedFile,
                             "line 2: cannot parse 'edge\\t0 0  y 0 1'"),
    "rotation-no-index": ("vertices 2\nrotation\n", MalformedFile,
                          "line 2: cannot parse 'rotation'"),
    "cross-not-int": (GOOD + "curve 0 alpha\ncross 0 a\n", MalformedFile,
                      "line 7: cannot parse 'cross 0 a'"),
    "bad-weight": ("vertices 2\nedge 0 0 1 0 x\n", MalformedFile, "bad weight 'x'"),
    "curve-kind": (GOOD + "curve 0 gamma\n", MalformedFile,
                   "curve kind must be alpha or beta, got 'gamma'"),
    "no-vertices": ("edge 0 0 1 0 1\n", MalformedFile, "missing 'vertices' line"),
    "edge-ids-sparse": ("vertices 2\nedge 1 0 1 0 1\n", MalformedFile,
                        "edge ids must be dense 0..E-1"),
    "rotation-vertex": (GOOD + "rotation 2 0.0\n", MalformedFile,
                        "rotation for vertex 2 outside 0..1"),
    "half-no-dot": (_with_half("1"), MalformedFile, "bad half-edge token '1'"),
    "half-not-int": (_with_half("x.0"), MalformedFile, "bad half-edge token 'x.0'"),
    "half-side-2": (_with_half("1.2"), MalformedFile, "half-edge '1.2' out of range"),
    "half-two-dots": (_with_half("1.0.0"), MalformedFile, "bad half-edge token '1.0.0'"),
    "half-negative": (_with_half("-1.0"), MalformedFile, "half-edge '-1.0' out of range"),
    "half-edge-id-E": (_with_half("2.0"), MalformedFile, "half-edge '2.0' out of range"),
    "curve-orphan": (GOOD + "cross 3 0\n", MalformedFile,
                     "curve data for index 3 has no 'curve' line"),
    "cross-edge-range": (GOOD + "curve 0 alpha\ncross 0 0 5\n", MalformedFile,
                         "cross 0 names an edge id outside 0..1"),
    "crossing-edge-range": (GOOD + "curve 0 alpha\ncrossing_edge 0 2\n", MalformedFile,
                            "crossing_edge 0 names an edge id outside 0..1"),
    "companion-token": (GOOD + "curve 0 alpha\ncompanion 0 0.0 1\n", MalformedFile,
                        "bad half-edge token '1'"),
    "half-listed-twice": (EDGES + "rotation 0 0.0 1.0 0.0\nrotation 1 0.1 1.1\n",
                          MalformedRotation, "half-edge 0 listed twice"),
    "half-missing": (EDGES + "rotation 0 0.0\nrotation 1 0.1 1.1\n", MalformedRotation,
                     "half-edges missing from rotations: [2]"),
    "wrong-anchor": (EDGES + "rotation 0 0.1 1.0\nrotation 1 0.0 1.1\n", MalformedRotation,
                     "half-edges of edge 0 anchored at wrong vertices"),
    # the rotations are read in full before any anchor is checked
    "twice-before-anchor": (EDGES + "rotation 0 0.1 1.0\nrotation 1 1.1 1.1\n",
                            MalformedRotation, "half-edge 3 listed twice"),
    "missing-before-anchor": (EDGES + "rotation 0 0.1\nrotation 1 0.0 1.1\n",
                              MalformedRotation, "half-edges missing from rotations: [2]"),
    "endpoint-range": ("vertices 2\nedge 0 0 2 0 1\nrotation 0 0.0\nrotation 1 0.1\n",
                       MalformedRotation, "edge endpoint out of range: (0, 2)"),
    "endpoint-before-rotation": ("vertices 2\nedge 0 0 2 0 1\nrotation 0 0.0 0.0\n",
                                 MalformedRotation, "edge endpoint out of range: (0, 2)"),
    "twist-2": ("vertices 2\nedge 0 0 1 2 1\nrotation 0 0.0\nrotation 1 0.1\n",
                MalformedRotation, "twist must be 0 or 1, got 2"),
    "weight-0": ("vertices 2\nedge 0 0 1 0 0\nrotation 0 0.0\nrotation 1 0.1\n",
                 NegativeWeight, "weight must be positive and finite, got 0"),
    "disconnected": ("vertices 4\nedge 0 0 1 0 1\nedge 1 2 3 0 1\nrotation 0 0.0\n"
                     "rotation 1 0.1\nrotation 2 1.0\nrotation 3 1.1\n",
                     DisconnectedGraph, "2 vertices unreachable"),
}


@pytest.mark.parametrize("text, error, message", CASES.values(), ids=CASES.keys())
def test_load_rejection_names_its_fault(text, error, message):
    with pytest.raises(error) as info:
        graphfile.load(io.StringIO(text))
    assert type(info.value) is error
    assert str(info.value) == message


def test_the_base_file_loads():
    m = graphfile.load(io.StringIO(GOOD + "curve 0 alpha\ncross 0 0\n")).map
    assert (m.vertex_count, m.edge_count, m.rotations) == (2, 2, ((0, 2), (1, 3)))
