"""Canonical test instances with full curve and companion data.

Lattices are m rows by n columns, vertex id = row * n + col, drawn in the
plane with row 0 on top.  Each vertex's rotation lists its present direction
slots counterclockwise as (east, north, west, south).

Surfaces:

* ``planar``       open grid on the sphere; no wrap edges.
* ``torus``        both directions wrap; hexagon word acbc'a'b'.
* ``klein_hexagon``  hexagon word a a b c c b'.  Rows wrap east-west through
  the b sides.  The top boundary consists of the two a sides glued to each
  other, so the top row carries cross edges (0,c)-(0,c+n/2) leaving north at
  both ends, twisted; likewise the two c sides at the bottom.
* ``rp2``          disc with antipodal boundary gluing: cross edges join
  (0,c)-(m-1,n-1-c) through the top/bottom and (r,n-1)-(m-1-r,0) through the
  sides, all twisted.

Each essential surface carries transverse curves: the torus gets the two
seam curves, the Klein bottle the two one-sided boundary loops, the
projective plane its cross-cap loop.  Every curve records its crossing
cochain and an explicit companion cycle that runs alongside it with the
curve to its immediate left.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BadDimensions, OpenSurfaceWord
from .homology import HomologyBasis, Walk, basis_from_cycles, chain_from_edges
from .surface_graph import CombinatorialMap, build_map

SURFACES = ("planar", "torus", "klein_hexagon", "rp2")


@dataclass(frozen=True)
class TransverseCurve:
    kind: str                        # "alpha" | "beta"
    cross: int                       # crossing cochain (edge bitmask)
    companion: Optional[Walk]        # explicit cycle alongside the curve
    crossing_edge: Optional[int] = None   # beta curves: the designated edge
    ordered_crossings: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class LatticeInstance:
    map: CombinatorialMap
    surface: str
    curves: Tuple[TransverseCurve, ...]
    basis: Optional[HomologyBasis]


class _Builder:
    """Accumulates edges with direction slots, then emits rotations."""

    E, N, W, S = 0, 1, 2, 3
    _CCW = (0, 1, 2, 3)

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        self.endpoints: List[Tuple[int, int]] = []
        self.twists: List[int] = []
        self.weights: List[object] = []
        self.slots: Dict[Tuple[int, int], int] = {}  # (vertex, slot) -> half-edge

    def vid(self, r: int, c: int) -> int:
        return r * self.n + c

    def add(self, u: int, slot_u: int, v: int, slot_v: int,
            twist: int = 0, weight: object = 1) -> int:
        e = len(self.endpoints)
        self.endpoints.append((u, v))
        self.twists.append(twist)
        self.weights.append(weight)
        for key, h in (((u, slot_u), 2 * e), ((v, slot_v), 2 * e + 1)):
            if key in self.slots:
                raise BadDimensions(f"slot clash at vertex {key[0]}")
            self.slots[key] = h
        return e

    def build(self) -> CombinatorialMap:
        rotations = []
        for v in range(self.m * self.n):
            rot = [self.slots[(v, s)] for s in self._CCW if (v, s) in self.slots]
            rotations.append(rot)
        return build_map(self.m * self.n, rotations, self.endpoints,
                         self.twists, self.weights)


def _weights_for(count: int, weights: Optional[Sequence[object]]) -> List[object]:
    if weights is None:
        return [1] * count
    if len(weights) != count:
        raise BadDimensions(f"expected {count} weights, got {len(weights)}")
    return list(weights)


def lattice(m: int, n: int, surface: str,
            weights: Optional[Sequence[object]] = None) -> LatticeInstance:
    """Square lattice instance on the requested surface."""
    if surface not in SURFACES:
        raise BadDimensions(f"unknown surface {surface!r}; pick from {SURFACES}")
    if m < 2 or n < 2:
        if not (surface == "planar" and m >= 1 and n >= 1 and m * n >= 2):
            raise BadDimensions("need m, n >= 2 (planar: at least two vertices)")
    if surface == "klein_hexagon" and n % 2:
        raise BadDimensions("klein_hexagon needs an even number of columns")

    b = _Builder(m, n)
    E, N, W, S = _Builder.E, _Builder.N, _Builder.W, _Builder.S
    horiz: Dict[Tuple[int, int], int] = {}
    vert: Dict[Tuple[int, int], int] = {}
    cross_top: List[int] = []
    cross_bottom: List[int] = []
    cross_side: List[int] = []

    wrap_h = surface in ("torus", "klein_hexagon")
    wrap_v = surface == "torus"
    for r in range(m):
        for c in range(n):
            if c + 1 < n or wrap_h:
                c2 = (c + 1) % n
                horiz[(r, c)] = b.add(b.vid(r, c), E, b.vid(r, c2), W)
    for r in range(m):
        for c in range(n):
            if r + 1 < m or wrap_v:
                r2 = (r + 1) % m
                vert[(r, c)] = b.add(b.vid(r, c), S, b.vid(r2, c), N)

    if surface == "klein_hexagon":
        q = n // 2
        for c in range(q):
            cross_top.append(b.add(b.vid(0, c), N, b.vid(0, c + q), N, twist=1))
        for c in range(q):
            cross_bottom.append(b.add(b.vid(m - 1, c), S, b.vid(m - 1, c + q), S, twist=1))
    elif surface == "rp2":
        for c in range(n):
            cross_top.append(b.add(b.vid(0, c), N, b.vid(m - 1, n - 1 - c), S, twist=1))
        for r in range(m):
            cross_side.append(b.add(b.vid(r, n - 1), E, b.vid(m - 1 - r, 0), W, twist=1))

    count = len(b.endpoints)
    b.weights = _weights_for(count, weights)
    graph = b.build()

    curves: List[TransverseCurve] = []
    if surface == "torus":
        # seam curve between columns n-1 and 0, crossed by the horizontal
        # wrap edges; companion = column 0 walked north (seam to its left)
        cross1 = chain_from_edges([horiz[(r, n - 1)] for r in range(m)])
        comp1 = tuple(2 * vert[(r, 0)] + 1 for r in list(range(m - 2, -1, -1)) + [m - 1])
        curves.append(TransverseCurve("alpha", cross1, comp1,
                                      ordered_crossings=tuple(horiz[(r, n - 1)]
                                                              for r in range(m - 1, -1, -1))))
        # seam curve between rows m-1 and 0; companion = row 0 walked east
        cross2 = chain_from_edges([vert[(m - 1, c)] for c in range(n)])
        comp2 = tuple(2 * horiz[(0, c)] for c in range(n))
        curves.append(TransverseCurve("alpha", cross2, comp2,
                                      ordered_crossings=tuple(vert[(m - 1, c)]
                                                              for c in range(n))))
    elif surface == "klein_hexagon":
        q = n // 2
        e1 = cross_top[0]
        comp1 = tuple([2 * horiz[(0, c)] for c in range(q)] + [2 * e1 + 1])
        curves.append(TransverseCurve("beta", chain_from_edges(cross_top), comp1,
                                      crossing_edge=e1,
                                      ordered_crossings=tuple(cross_top)))
        e2 = cross_bottom[0]
        comp2 = tuple([2 * horiz[(m - 1, c)] + 1 for c in range(q - 1, -1, -1)]
                      + [2 * e2])
        curves.append(TransverseCurve("beta", chain_from_edges(cross_bottom), comp2,
                                      crossing_edge=e2,
                                      ordered_crossings=tuple(cross_bottom)))
    elif surface == "rp2":
        e1 = cross_top[0]  # (0,0) - (m-1, n-1)
        walk = [2 * e1]
        walk += [2 * horiz[(m - 1, c)] + 1 for c in range(n - 2, -1, -1)]
        walk += [2 * vert[(r, 0)] + 1 for r in range(m - 2, -1, -1)]
        cross = chain_from_edges(cross_top + cross_side)
        curves.append(TransverseCurve("beta", cross, tuple(walk),
                                      crossing_edge=e1,
                                      ordered_crossings=tuple(cross_top + cross_side)))

    basis = None
    if curves:
        basis = basis_from_cycles(graph, [cv.companion for cv in curves])
    elif surface == "planar":
        basis = basis_from_cycles(graph, [])
    return LatticeInstance(graph, surface, tuple(curves), basis)


# ---------------------------------------------------------------------------
# Polygon-word importer
# ---------------------------------------------------------------------------

def one_sides(word: str) -> frozenset:
    """Letters of a polygon word whose two occurrences have the same
    exponent (an orientation-reversing identification)."""
    seen: Dict[str, List[bool]] = {}
    for ch in word:
        if not ch.isalpha():
            raise OpenSurfaceWord(f"bad token {ch!r} in word")
        seen.setdefault(ch.lower(), []).append(ch.isupper())
    bad = [k for k, v in seen.items() if len(v) != 2]
    if bad:
        raise OpenSurfaceWord(f"letters {bad} do not appear exactly twice")
    return frozenset(k for k, v in seen.items() if v[0] == v[1])


def from_polygon_word(word: str, vertex_count: int,
                      rotations: Sequence[Sequence[int]],
                      edges: Sequence[Tuple[int, int, object, Sequence[str]]],
                      ) -> Tuple[CombinatorialMap, int]:
    """Build a map from a graph drawn in a polygon with identified sides.

    ``edges`` lists (u, v, weight, crossed-side letters); lowercase letters
    carry exponent +1, uppercase -1.  An edge is twisted iff it crosses the
    orientation-reversing sides an odd number of times.  Returns the map and
    its twist cochain.
    """
    ones = one_sides(word)
    endpoints = []
    twists = []
    weights = []
    for u, v, w, crossings in edges:
        endpoints.append((u, v))
        weights.append(w)
        t = sum(1 for ch in crossings if ch.lower() in ones) % 2
        twists.append(t)
    graph = build_map(vertex_count, rotations, endpoints, twists, weights)
    return graph, graph.twist_bits()


# ---------------------------------------------------------------------------
# Random instances for property and agreement tests
# ---------------------------------------------------------------------------

def random_weights(rng, count: int, max_num: int = 5) -> List[Fraction]:
    return [Fraction(rng.randint(1, max_num), rng.randint(1, max_num))
            for _ in range(count)]


def random_lattice(rng, max_vertices: int = 16) -> LatticeInstance:
    """Random small lattice instance over the four surfaces, with random
    rational weights."""
    while True:
        surface = rng.choice(list(SURFACES))
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        if surface == "klein_hexagon" and n % 2:
            n += 1
        if m * n <= max_vertices:
            break
    count = len(lattice(m, n, surface).map.edges)
    return lattice(m, n, surface, weights=random_weights(rng, count))


def random_map(rng, max_vertices: int = 7, extra_edges: int = 4,
               twisted: bool = True) -> CombinatorialMap:
    """Random connected map: random tree plus 1..``extra_edges`` chords (none
    when it is 0), random rotations and twists.  Exercises arbitrary genus,
    multiple edges included."""
    nv = rng.randint(2, max_vertices)
    endpoints = []
    for v in range(1, nv):
        endpoints.append((rng.randint(0, v - 1), v))
    for _ in range(rng.randint(1, extra_edges) if extra_edges else 0):
        u = rng.randint(0, nv - 1)
        v = rng.randint(0, nv - 1)
        if u == v:
            v = (v + 1) % nv
        endpoints.append((min(u, v), max(u, v)))
    twists = [rng.randint(0, 1) if twisted else 0 for _ in endpoints]
    halves = [[] for _ in range(nv)]
    for e, (u, v) in enumerate(endpoints):
        halves[u].append(2 * e)
        halves[v].append(2 * e + 1)
    for lst in halves:
        rng.shuffle(lst)
    return build_map(nv, halves, endpoints, twists, None)
