"""Line-oriented graph file format.

Grammar (one directive per line; ``#`` starts a comment; blank lines ok)::

    vertices <N>
    edge <id> <u> <v> <twist:0|1> <weight>
    rotation <v> <half-edge> ...
    curve <idx> <alpha|beta>
    cross <idx> <edge-id> ...
    crossing_edge <idx> <edge-id>
    companion <idx> <half-edge> ...

Half-edges are written ``<edge-id>.<0|1>``; half 0 anchors at the edge's
first endpoint.  Edge ids must be dense 0..E-1.  Weights are integers or
fractions like ``3/2``, of any length, or decimals.  Companion walks are arc
sequences (each arc leaves the anchor of the written half).  Unknown
directives, extra or missing fields, a second line for the same edge,
vertex or curve index (or a second ``vertices`` line), rotations of vertices
outside 0..N-1, crossings outside the edge ids and curve data for an index
without a ``curve`` line are rejected.

The practical routes read a curve's companion from its ``companion`` line
and build none: orientable maps whose curves lack one use their basis
cycles instead, and non-orientable ones fall back to the pin route under
``auto``.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from typing import Dict, List, TextIO

from .errors import MalformedFile, NotAClosedWalk, NotSimple
from .exactnum import rational_str
from .generators import LatticeInstance, TransverseCurve
from .homology import basis_from_cycles, chain_from_edges, edges_of
from .surface_graph import build_map, classify

_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")


def _int(tok: str) -> int:
    """``int(tok)``, through ``Decimal`` past CPython's int-from-str digit limit."""
    try:
        return int(tok)
    except ValueError:
        if _INTEGER.fullmatch(tok) is None:
            raise
        return int(Decimal(tok))


def _parse_weight(tok: str) -> object:
    try:
        if "/" in tok:
            p, q = tok.split("/")
            if not q[:1].isdigit():  # the denominator carries no sign
                raise ValueError(q)
            return Fraction(_int(p), _int(q))
        if "." in tok or "e" in tok or "E" in tok:
            return float(tok)
        return _int(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedFile(f"bad weight {tok!r}") from exc


def _parse_half(tok: str, edge_count: int) -> int:
    try:
        eid, side = tok.split(".")
        e, s = int(eid), int(side)
    except ValueError as exc:
        raise MalformedFile(f"bad half-edge token {tok!r}") from exc
    if not (0 <= e < edge_count and s in (0, 1)):
        raise MalformedFile(f"half-edge {tok!r} out of range")
    return 2 * e + s


def _curve_kind(toks: List[str]) -> str:
    if toks[2] not in ("alpha", "beta"):
        raise MalformedFile(f"curve kind must be alpha or beta, got {toks[2]!r}")
    return toks[2]


# Each directive, said at most once per index (its first field; ``vertices``
# has none): its token count, None for any, and what its line keeps.
_ONCE = {
    "vertices": (2, lambda toks: int(toks[1])),
    "edge": (6, lambda toks: (*map(int, toks[2:5]), _parse_weight(toks[5]))),
    "rotation": (None, lambda toks: toks[2:]),
    "curve": (3, _curve_kind),
    "cross": (None, lambda toks: [int(t) for t in toks[2:]]),
    "crossing_edge": (3, lambda toks: int(toks[2])),
    "companion": (None, lambda toks: toks[2:]),
}


def load(stream: TextIO) -> LatticeInstance:
    """Parse a graph file into a map plus optional curve data."""
    once: Dict[str, Dict[int, object]] = {key: {} for key in _ONCE}

    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        key = toks[0]
        if key not in _ONCE:
            raise MalformedFile(f"unknown directive {key!r}")
        count, keep = _ONCE[key]
        try:
            if count is not None and len(toks) != count:
                raise MalformedFile(f"line {lineno}: {key!r} needs {count} tokens, got {len(toks)}")
            idx = 0 if key == "vertices" else int(toks[1])
            if idx in once[key]:
                raise MalformedFile(f"line {lineno}: {key!r} repeats an earlier line")
            once[key][idx] = keep(toks)
        except MalformedFile:
            raise
        except (IndexError, ValueError) as exc:
            raise MalformedFile(f"line {lineno}: cannot parse {line!r}") from exc

    (vertices, edge_rows, rotation_rows, curve_kind, curve_cross, curve_edge,
     curve_companion) = once.values()
    nv = vertices.get(0)
    if nv is None:
        raise MalformedFile("missing 'vertices' line")
    ne = len(edge_rows)
    if sorted(edge_rows) != list(range(ne)):
        raise MalformedFile("edge ids must be dense 0..E-1")
    endpoints = [(edge_rows[e][0], edge_rows[e][1]) for e in range(ne)]
    twists = [edge_rows[e][2] for e in range(ne)]
    weights = [edge_rows[e][3] for e in range(ne)]
    rotations = [[_parse_half(t, ne) for t in rotation_rows.pop(v, [])] for v in range(nv)]
    if rotation_rows:
        raise MalformedFile(f"rotation for vertex {min(rotation_rows)} outside 0..{nv - 1}")
    graph = build_map(nv, rotations, endpoints, twists, weights)

    orphans = sorted({*curve_cross, *curve_edge, *curve_companion} - curve_kind.keys())
    if orphans:
        raise MalformedFile(f"curve data for index {orphans[0]} has no 'curve' line")
    curves = []
    for idx in sorted(curve_kind):
        kind = curve_kind[idx]
        crossed = curve_cross.get(idx, [])
        if not all(0 <= e < ne for e in crossed):
            raise MalformedFile(f"cross {idx} names an edge id outside 0..{ne - 1}")
        cross = chain_from_edges(crossed)
        if idx in curve_edge and not 0 <= curve_edge[idx] < ne:
            raise MalformedFile(f"crossing_edge {idx} names an edge id outside 0..{ne - 1}")
        comp = None
        if idx in curve_companion:
            comp = tuple(_parse_half(t, ne) for t in curve_companion[idx])
        curves.append(TransverseCurve(kind, cross, comp,
                                      crossing_edge=curve_edge.get(idx),
                                      ordered_crossings=tuple(curve_cross[idx])
                                      if idx in curve_cross else None))
    basis = None
    if curves and all(c.companion for c in curves):
        try:
            basis = basis_from_cycles(graph, [c.companion for c in curves])
        except (NotAClosedWalk, NotSimple):
            basis = None
    return LatticeInstance(graph, classify(graph).name, tuple(curves), basis)


def dump(inst: LatticeInstance, stream: TextIO) -> None:
    """Serialize canonically; ``load(dump(x))`` reproduces the same map."""
    m = inst.map
    stream.write(f"vertices {m.vertex_count}\n")
    for e, edge in enumerate(m.edges):
        w = edge.weight
        wtok = repr(w) if isinstance(w, float) else rational_str(w)
        stream.write(f"edge {e} {edge.u} {edge.v} {edge.twist} {wtok}\n")
    for v in range(m.vertex_count):
        toks = " ".join(f"{h // 2}.{h % 2}" for h in m.rotations[v])
        stream.write(f"rotation {v} {toks}\n")
    for idx, cv in enumerate(inst.curves):
        stream.write(f"curve {idx} {cv.kind}\n")
        order = cv.ordered_crossings if cv.ordered_crossings else tuple(edges_of(cv.cross))
        stream.write(f"cross {idx} {' '.join(str(e) for e in order)}\n")
        if cv.crossing_edge is not None:
            stream.write(f"crossing_edge {idx} {cv.crossing_edge}\n")
        if cv.companion is not None:
            toks = " ".join(f"{h // 2}.{h % 2}" for h in cv.companion)
            stream.write(f"companion {idx} {toks}\n")
