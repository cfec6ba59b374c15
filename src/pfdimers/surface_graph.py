"""Graphs cellularly embedded in closed surfaces, as signed rotation systems.

Encoding
--------
A map has vertices ``0..V-1`` and edges ``0..E-1``.  Edge ``e`` stores its
endpoints ``(u, v)``, a twist bit and a weight, and contributes two half-edges
``2*e`` (anchored at ``u``) and ``2*e + 1`` (anchored at ``v``).  For a loop
both half-edges anchor at the same vertex.  The rotation at a vertex is the
cyclic sequence of its half-edges, read counterclockwise in the local chart.
A twist bit of 1 means the charts at the two endpoints disagree when
transported along the edge, i.e. the edge reverses local orientation.

An *arc* is a half-edge used as a direction of travel: arc ``h`` traverses its
edge from the anchor of ``h`` to the anchor of the opposite half ``h ^ 1``.

Faces are traced on states ``(arc, sign)``.  The sign is the label of the
current lift vertex in the orientation double cover (0 for the lift whose
chart is counterclockwise, 1 for the other); it flips across twisted edges.
With the face kept on the left, the walk leaves a vertex along the rotation
predecessor of the arrival half-edge on sign 0 and along the successor on
sign 1.  Each face corresponds to two state orbits, its two lifts, each
traversed as its own oriented boundary.  State ``(h, s)`` and its mirror
``(h ^ 1, s ^ twist(h) ^ 1)`` are the same corner on the two lifts, so
``trace_faces`` walks one lift per face and marks each walked state's mirror
in the same pass; the other lift is never walked.

Faces are traced once per map: ``m.faces`` runs ``trace_faces`` on first use
and keeps the result, and every consumer (Euler characteristic, homology
basis, Kasteleyn curvature, companion cycles) reads it there.  The twist
mask and orientability are kept the same way (``m.twist_mask``,
``m.orientable``, without tracing faces), and ``kept`` keeps the rest derived
from the map alone: its BFS tree and odd join, and the partition routes'
basis, K and class Pfaffians.  ``tree_side`` alone solves phi = delta(x) for
vertex bits x; each caller picks a side, x or its complement.  A map made
from another one (``flip_charts``, ``untwist``, ``relabel``,
``graphfile.load``) is a new object that starts with none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import (
    DisconnectedGraph,
    MalformedRotation,
    NegativeWeight,
)

Weight = Union[int, Fraction, float]


class Edge(NamedTuple):
    u: int
    v: int
    twist: int = 0
    weight: Weight = 1


@dataclass(frozen=True)
class CombinatorialMap:
    vertex_count: int
    edges: Tuple[Edge, ...]
    rotations: Tuple[Tuple[int, ...], ...]
    # successor/predecessor of each half-edge inside its vertex rotation
    _next: Tuple[int, ...] = field(repr=False, default=())
    _prev: Tuple[int, ...] = field(repr=False, default=())

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def half_vertex(self, h: int) -> int:
        edge = self.edges[h >> 1]
        return edge.v if h & 1 else edge.u

    def arc_target(self, h: int) -> int:
        return self.half_vertex(h ^ 1)

    def twist_bits(self) -> int:
        return self.twist_mask

    @cached_property
    def twist_mask(self) -> int:
        """The twist cochain as an edge mask; kept like ``faces``."""
        return sum(1 << e for e, edge in enumerate(self.edges) if edge.twist)

    def is_loop(self, e: int) -> bool:
        return self.edges[e].u == self.edges[e].v

    def rotation_next(self, h: int) -> int:
        return self._next[h]

    def rotation_prev(self, h: int) -> int:
        return self._prev[h]

    @cached_property
    def faces(self) -> FaceSet:
        """The faces of the embedding, traced on first use and kept in the
        instance ``__dict__``, outside the fields that ``==`` and ``hash``
        compare."""
        return trace_faces(self)

    @cached_property
    def orientable(self) -> bool:
        """True iff the twist cochain is a vertex coboundary; kept like ``faces``."""
        return tree_side(self, self.twist_bits()) is not None


def kept(m: CombinatorialMap, key, make: Callable, *args):
    """``make(m, *args)``, computed on first use per map and ``key`` and kept
    in the instance ``__dict__`` outside ``==`` and ``hash``, like ``faces``."""
    store = m.__dict__.setdefault("_kept", {})
    if key not in store:
        store[key] = make(m, *args)
    return store[key]


@dataclass(frozen=True)
class Face:
    steps: Tuple[Tuple[int, int], ...]  # (arc half-edge, sign at the source)

    def __len__(self) -> int:
        return len(self.steps)

    def odd_edge_mask(self) -> int:
        mask = 0
        for h, _ in self.steps:
            mask ^= 1 << (h // 2)
        return mask


@dataclass(frozen=True)
class FaceSet:
    faces: Tuple[Face, ...]

    def __len__(self) -> int:
        return len(self.faces)

    def edge_face_incidence(self, edge_count: int) -> Tuple[Tuple[int, ...], ...]:
        """For each edge, the faces containing it, with multiplicity."""
        inc: list = [[] for _ in range(edge_count)]
        for fi, face in enumerate(self.faces):
            for h, _ in face.steps:
                inc[h // 2].append(fi)
        return tuple(tuple(sorted(lst)) for lst in inc)


@dataclass(frozen=True)
class SurfaceType:
    orientable: bool
    genus: int  # g in Sigma_g, Sigma_g # RP^2 or Sigma_g # Klein
    chi: int
    kind: str  # "orientable" | "nonorientable_odd_chi" | "nonorientable_even_chi"

    @property
    def b1(self) -> int:
        return 2 - self.chi

    @property
    def name(self) -> str:
        if self.orientable:
            return {0: "sphere", 1: "torus"}.get(self.genus, f"genus-{self.genus} surface")
        if self.kind == "nonorientable_odd_chi":
            return "projective plane" if self.genus == 0 else f"genus-{self.genus}#RP2"
        return "klein bottle" if self.genus == 0 else f"genus-{self.genus}#Klein"


def build_map(
    vertex_count: int,
    rotations: Sequence[Sequence[int]],
    edge_endpoints: Sequence[Tuple[int, int]],
    twists: Optional[Sequence[int]] = None,
    weights: Optional[Sequence[Weight]] = None,
) -> CombinatorialMap:
    """Validate raw data and build an immutable map.

    Raises MalformedRotation, NegativeWeight or DisconnectedGraph.
    """
    ne = len(edge_endpoints)
    twists = [0] * ne if twists is None else list(twists)
    weights = [1] * ne if weights is None else list(weights)
    if len(twists) != ne or len(weights) != ne:
        raise MalformedRotation("twist/weight lists must match the edge list")
    if len(rotations) != vertex_count:
        raise MalformedRotation("one rotation per vertex required")

    edges, anchors = [], []  # anchors: the vertex of every half-edge, by the edges
    for (u, v), t, w in zip(edge_endpoints, twists, weights):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise MalformedRotation(f"edge endpoint out of range: ({u}, {v})")
        if t not in (0, 1):
            raise MalformedRotation(f"twist must be 0 or 1, got {t!r}")
        if not 0 < w < math.inf:
            raise NegativeWeight(f"weight must be positive and finite, got {w!r}")
        edges.append(Edge(u, v, t, w))
        anchors += u, v

    seen, nxt, prv = [-1] * (2 * ne), [0] * (2 * ne), [0] * (2 * ne)
    for v, rot in enumerate(rotations):
        for h in rot:
            if not (0 <= h < 2 * ne):
                raise MalformedRotation(f"unknown half-edge {h} at vertex {v}")
            if seen[h] >= 0:
                raise MalformedRotation(f"half-edge {h} listed twice")
            seen[h] = v
        for h, g in zip(rot, [*rot[1:], *rot[:1]]):
            nxt[h], prv[g] = g, h
    if -1 in seen:
        missing = [h for h, v in enumerate(seen) if v < 0]
        raise MalformedRotation(f"half-edges missing from rotations: {missing}")
    if seen != anchors:
        e = next(h for h, (a, b) in enumerate(zip(seen, anchors)) if a != b) >> 1
        raise MalformedRotation(f"half-edges of edge {e} anchored at wrong vertices")

    m = CombinatorialMap(
        vertex_count=vertex_count,
        edges=tuple(edges),
        rotations=tuple(tuple(r) for r in rotations),
        _next=tuple(nxt),
        _prev=tuple(prv),
    )
    _check_connected(m)
    return m


def _check_connected(m: CombinatorialMap) -> None:
    if m.vertex_count == 0:
        raise DisconnectedGraph("empty vertex set")
    count = len(kept(m, "bfs", _bfs)[0])
    if count != m.vertex_count:
        raise DisconnectedGraph(f"{m.vertex_count - count} vertices unreachable")


def trace_faces(m: CombinatorialMap) -> FaceSet:
    """Trace one lift of every face, marking the mirror of each walked state
    in the same pass (see the module docstring).  A walk that meets a visited
    state before it returns to its start raises MalformedRotation.  Total
    step count over faces is 2E.
    """
    twist = [edge.twist for edge in m.edges]
    nxt, prv = m._next, m._prev
    visited = [False] * (4 * m.edge_count)  # state (h, s) -> index 2*h + s
    faces = []
    for start in range(len(visited)):
        if visited[start]:
            continue
        steps, idx = [], start
        while True:
            h, s = idx >> 1, idx & 1
            t = twist[h >> 1]
            visited[idx] = visited[idx ^ 3 ^ t] = True  # (h, s) and (h ^ 1, s ^ t ^ 1)
            steps.append((h, s))
            s ^= t
            idx = 2 * (nxt if s else prv)[h ^ 1] + s
            if idx == start:
                break
            if visited[idx]:
                raise MalformedRotation("face walk meets a visited state")
        faces.append(Face(steps=tuple(steps)))
    return FaceSet(faces=tuple(faces))


def euler_characteristic(m: CombinatorialMap) -> int:
    return m.vertex_count - m.edge_count + len(m.faces)


def _bfs(m: CombinatorialMap) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """BFS from vertex 0: (vertices in visiting order, parent arcs), where
    ``parent_arc[v]`` points from the tree parent of ``v`` to ``v`` and the
    root gets -1.  Callers read it through ``kept``, once per map."""
    parent_arc = [-1] * m.vertex_count
    seen = [False] * m.vertex_count
    seen[0] = True
    order = [0]
    for v in order:
        for h in m.rotations[v]:
            w = m.arc_target(h)
            if not seen[w]:
                seen[w] = True
                parent_arc[w] = h
                order.append(w)
    return tuple(order), tuple(parent_arc)


def spanning_tree(m: CombinatorialMap) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """BFS spanning tree.

    Returns (tree edge ids, parent arcs) where ``parent_arc[v]`` is the arc
    (half-edge) pointing from the tree parent of ``v`` to ``v``; the root 0
    gets -1.
    """
    order, parent_arc = kept(m, "bfs", _bfs)
    return tuple(parent_arc[w] // 2 for w in order[1:]), parent_arc


def is_orientable(m: CombinatorialMap) -> bool:
    """True iff the twist cochain is the coboundary of a vertex chart flip."""
    return m.orientable


def classify(m: CombinatorialMap) -> SurfaceType:
    chi = euler_characteristic(m)
    if m.orientable:
        assert chi % 2 == 0
        return SurfaceType(True, (2 - chi) // 2, chi, "orientable")
    if chi % 2 == 1:
        return SurfaceType(False, (1 - chi) // 2, chi, "nonorientable_odd_chi")
    return SurfaceType(False, (-chi) // 2, chi, "nonorientable_even_chi")


def stiefel_whitney_cocycle(m: CombinatorialMap) -> int:
    """The twist cochain as an edge bitmask; represents the first
    Stiefel-Whitney class of the ambient surface."""
    return m.twist_bits()


def vertex_labels(m: CombinatorialMap, omega: Optional[int] = None) -> Tuple[int, ...]:
    """+-1 labels of one tree section of the orientation double cover.

    The root gets +1 and the sign flips across spanning-tree edges with
    ``omega(e) = 1``.  Well defined up to a global swap.
    """
    omega = m.twist_bits() if omega is None else omega
    order, parent_arc = kept(m, "bfs", _bfs)
    labels = [1] * m.vertex_count
    for w in order[1:]:
        h = parent_arc[w]
        label = labels[m.half_vertex(h)]
        labels[w] = -label if (omega >> (h // 2)) & 1 else label
    return tuple(labels)


def tree_side(m: CombinatorialMap, phi: int) -> Optional[Tuple[int, ...]]:
    """Vertex bits x with x_0 = 0 and x_u + x_v = phi(e) (mod 2) on every
    edge, or None: x is phi's parity along the BFS tree path from vertex 0,
    and its complement is the only other solution."""
    x = tuple(int(label < 0) for label in vertex_labels(m, phi))
    if any(x[edge.u] ^ x[edge.v] != (phi >> e) & 1 for e, edge in enumerate(m.edges)):
        return None
    return x


def odd_join(m: CombinatorialMap) -> int:
    """The BFS-tree edges with an odd number of vertices below, as an edge mask:
    with V even each vertex meets it oddly, so delta(x) has parity |x| on it."""
    order, parent_arc = kept(m, "bfs", _bfs)
    odd, join = [1] * m.vertex_count, 0
    for w in reversed(order[1:]):
        if odd[w]:  # w's odd subtree: its edge joins, its parent's parity flips
            odd[m.half_vertex(parent_arc[w])] ^= 1
            join |= 1 << parent_arc[w] // 2
    return join


def flip_charts(m: CombinatorialMap, vertices: Iterable[int]) -> CombinatorialMap:
    """Reverse the local chart at the given vertices.

    The rotation is reversed there and every non-loop incident edge's twist
    toggles (loops at a flipped vertex keep their twist: both charts flip).
    This is the standard equivalence move of signed rotation systems; it
    describes the same embedding.
    """
    flip = set(vertices)
    rotations = [tuple(reversed(r)) if v in flip else r for v, r in enumerate(m.rotations)]
    edges = []
    for edge in m.edges:
        t = edge.twist ^ ((edge.u in flip) ^ (edge.v in flip))
        edges.append(Edge(edge.u, edge.v, t, edge.weight))
    return build_map(m.vertex_count, rotations, [(e.u, e.v) for e in edges],
                     [e.twist for e in edges], [e.weight for e in edges])


def untwist(m: CombinatorialMap) -> CombinatorialMap:
    """Re-present an orientable map with all twists zero (``tree_side`` charts flipped)."""
    x = tree_side(m, m.twist_bits())
    if x is None:
        raise MalformedRotation("map is not orientable; cannot remove twists")
    return flip_charts(m, [v for v in range(m.vertex_count) if x[v]])


def relabel(m: CombinatorialMap, perm: Sequence[int]) -> CombinatorialMap:
    """Map with vertices renamed by ``perm`` (old id -> new id).

    Edge ids, half-edge anchoring and rotations are carried over unchanged,
    so edge ``e`` still joins the same pair of (renamed) vertices.
    """
    inv = [0] * m.vertex_count
    for old, new in enumerate(perm):
        inv[new] = old
    rotations = [m.rotations[inv[v]] for v in range(m.vertex_count)]
    endpoints = [(perm[e.u], perm[e.v]) for e in m.edges]
    return build_map(m.vertex_count, rotations,
                     endpoints, [e.twist for e in m.edges], [e.weight for e in m.edges])
