"""Mod-2 homology of the embedded graph: cycles, cocycles, intersection form.

Chains and cochains over Z2 are plain Python ints used as edge bitmasks
(bit ``e`` set means edge ``e`` carries coefficient 1).  Oriented closed
walks are tuples of arcs (half-edge ids); the walk traverses each arc from
its anchor towards the opposite half.

The intersection pairing pushes the first cycle slightly to its left into a
closed curve transverse to the graph and records which edges that curve
crosses; the resulting crossing cochain represents the Poincare dual of the
cycle's class, and pairing it with any 1-cycle gives the mod-2 intersection
number.  The curve crosses, at each corner of the walk, the half-edges
strictly between its arrival and its departure on one side; ``_sides`` is
that one corner walk, and the enhancement's l (``spin_quadratic``) counts
the dimers among the same half-edges.

Every GF(2) solve goes through one echelon, ``Gf2Span``, keyed by pivot: a
row meets only the pivots it hits, so a basis costs about one pass over the
face boundaries.  A basis builder adds the face boundaries, then each
accepted cycle chain C_j with right-hand side ``1 << j``; back-substitution
on bit i gives the dual cocycle phi_i (zero on faces, phi_i(C_j) =
delta_ij).  ``kasteleyn.construct_kasteleyn`` adds the same face rows with
their curvature constants and takes K from one back-substitution.  The
pivots are the top bits of the span and the solution that is zero off them
is unique, so neither phi_i nor K depends on the elimination order.
Coboundaries need no elimination: ``surface_graph.tree_side`` solves
phi = delta(S) along the BFS tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import NotAClosedWalk, NotSimple
from .surface_graph import CombinatorialMap, euler_characteristic, kept, spanning_tree, tree_side

Walk = Tuple[int, ...]


# ---------------------------------------------------------------------------
# GF(2) elimination on bitmasks
# ---------------------------------------------------------------------------

def parity(bits: int) -> int:
    return bits.bit_count() & 1


def dot(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


class Gf2Span:
    """Incremental GF(2) echelon of bitmask rows with right-hand sides.

    ``pivots`` maps a top bit to the one kept row (mask, rhs) with that top
    bit.  A row is reduced at its top bit until that bit is no pivot, which
    leaves the least top bit of its coset: the pivots are the top bits of
    the span.  Bit ``k`` of ``rhs`` is the right-hand side of system ``k``.
    """

    def __init__(self, rows: Sequence[int] = ()) -> None:
        self.pivots: Dict[int, Tuple[int, int]] = {}
        for r in rows:
            self.add(r)

    def reduce(self, row: int, rhs: int = 0) -> Tuple[int, int]:
        """(row, rhs) reduced until row's top bit is no pivot; in the span, (0, rhs + its rows')."""
        while (hit := self.pivots.get(row.bit_length() - 1)) is not None:
            row, rhs = row ^ hit[0], rhs ^ hit[1]
        return row, rhs

    def add(self, row: int, rhs: int = 0) -> bool:
        """Insert ``row``; True if it enlarged the span, else it is dropped."""
        row, rhs = self.reduce(row, rhs)
        if row:
            self.pivots[row.bit_length() - 1] = (row, rhs)
        return bool(row)

    def contains(self, row: int) -> bool:
        return self.reduce(row, 0)[0] == 0

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, k: int = 0) -> int:
        """x with parity(x & mask) = bit ``k`` of rhs on every kept row, free
        variables 0, set in increasing pivot order: below its pivot a mask
        holds only free bits and earlier pivots.  It is the one solution
        carried by the pivots, whatever order reduced the rows."""
        x = 0
        for pb in sorted(self.pivots):
            pm, pr = self.pivots[pb]
            if ((pr >> k) & 1) ^ dot(x, pm):
                x |= 1 << pb
        return x


# ---------------------------------------------------------------------------
# Chains, walks
# ---------------------------------------------------------------------------

def chain_from_edges(edges: Sequence[int]) -> int:
    bits = 0
    for e in edges:
        bits ^= 1 << e
    return bits


def edges_of(bits: int) -> List[int]:
    return [e for e in range(bits.bit_length()) if (bits >> e) & 1]


def is_cycle(m: CombinatorialMap, chain: int) -> bool:
    """True iff every vertex has even incidence with the chain."""
    deg = [0] * m.vertex_count
    for e in edges_of(chain):
        edge = m.edges[e]
        if edge.u != edge.v:
            deg[edge.u] ^= 1
            deg[edge.v] ^= 1
    return not any(deg)


def walk_chain(walk: Walk) -> int:
    return chain_from_edges(h // 2 for h in walk)


def check_simple_walk(m: CombinatorialMap, walk: Walk) -> None:
    if not walk:
        raise NotAClosedWalk("empty walk")
    if not all(0 <= h < 2 * m.edge_count for h in walk):
        raise NotAClosedWalk("walk leaves the map's half-edges")
    for i, h in enumerate(walk):
        nxt = walk[(i + 1) % len(walk)]
        if m.arc_target(h) != m.half_vertex(nxt):
            raise NotAClosedWalk(f"step {i} ends at {m.arc_target(h)}, "
                                 f"next starts at {m.half_vertex(nxt)}")
    verts = [m.half_vertex(h) for h in walk]
    if len(set(verts)) != len(verts):
        raise NotSimple("walk revisits a vertex")
    edges = [h // 2 for h in walk]
    if len(set(edges)) != len(edges):
        raise NotSimple("walk reuses an edge")


def reverse_walk(walk: Walk) -> Walk:
    return tuple(h ^ 1 for h in reversed(walk))


# ---------------------------------------------------------------------------
# Coboundaries and cocycles
# ---------------------------------------------------------------------------

def vertex_coboundary(m: CombinatorialMap, v: int) -> int:
    """Edges with exactly one endpoint at v (loops drop out)."""
    bits = 0
    for e, edge in enumerate(m.edges):
        if (edge.u == v) ^ (edge.v == v):
            bits |= 1 << e
    return bits


def is_cocycle(m: CombinatorialMap, phi: int) -> bool:
    return all(dot(phi, f.odd_edge_mask()) == 0 for f in m.faces.faces)


def coboundary_preimage(m: CombinatorialMap, phi: int) -> Optional[Tuple[int, ...]]:
    """A vertex set S with delta(S) = phi, or None.

    ``tree_side(m, phi)`` and its complement are the only two candidates;
    the smaller one is returned (ties to the side without vertex 0), so a
    single-vertex coboundary maps back to that vertex."""
    x = tree_side(m, phi)
    if x is None:
        return None
    side = tuple(v for v in range(m.vertex_count) if x[v])
    other = tuple(v for v in range(m.vertex_count) if not x[v])
    return other if len(other) < len(side) else side


def is_coboundary(m: CombinatorialMap, phi: int) -> bool:
    return tree_side(m, phi) is not None


def dual_flip(orientation, phi: int):
    """Reverse an orientation exactly on the support of the cochain."""
    return orientation.flipped(phi)


# ---------------------------------------------------------------------------
# Crossing cochain of a pushed-off cycle; intersection numbers
# ---------------------------------------------------------------------------

def _sides(m: CombinatorialMap, walk: Walk, clockwise: Sequence[bool]) -> List[int]:
    """Half-edges strictly inside each corner of a simple closed walk.

    Step i's corner is at the vertex it arrives at, from the arrival half
    ``walk[i] ^ 1`` to the departure ``walk[i + 1]``, read clockwise (reverse
    rotation order, the walker's left in a counterclockwise chart) where
    ``clockwise[i]`` is true, else counterclockwise.  The walk is closed, so
    each corner's departure lies in the rotation its read starts in.
    """
    out: List[int] = []
    L = len(walk)
    for i, h in enumerate(walk):
        step = m.rotation_prev if clockwise[i] else m.rotation_next
        h_out, hc = walk[(i + 1) % L], step(h ^ 1)
        while hc != h_out:
            out.append(hc)
            hc = step(hc)
    return out


def crossing_cochain(m: CombinatorialMap, walk: Walk) -> int:
    """Crossing cochain of the closed curve obtained by pushing the walk off
    itself to its left.

    The pushed curve stays transverse to the graph; the bit of edge ``e`` is
    the parity of crossings with ``e``.  Its class is the Poincare dual of
    the walk's homology class, so pairing with a cycle chain computes the
    mod-2 intersection number.  If the walk reverses orientation the pushed
    curve returns on the other side and closes across the walk's first edge.
    """
    check_simple_walk(m, walk)
    return _push_off(m, walk)


def _push_off(m: CombinatorialMap, walk: Walk) -> int:
    """``crossing_cochain`` of a walk known to be a simple closed walk: the
    pushed curve crosses the corners on the left of the current chart, which
    is the clockwise side while the twists crossed so far are even."""
    side, clockwise = 0, []
    for h in walk:
        side ^= m.edges[h >> 1].twist
        clockwise.append(not side)
    bits = side << (walk[0] >> 1)  # orientation-reversing: close across the first edge
    for hc in _sides(m, walk, clockwise):
        bits ^= 1 << (hc >> 1)
    return bits


def intersection_number(m: CombinatorialMap, walk: Walk, other) -> int:
    """Mod-2 intersection number of the classes of ``walk`` and ``other``.

    ``other`` may be a walk or a cycle chain bitmask.
    """
    chain = other if isinstance(other, int) else walk_chain(other)
    if not is_cycle(m, chain):
        raise NotAClosedWalk("second argument is not a 1-cycle")
    return dot(crossing_cochain(m, walk), chain)


# ---------------------------------------------------------------------------
# Homology basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyBasis:
    cycles: Tuple[Walk, ...]          # simple closed walks, one per class
    chains: Tuple[int, ...]           # their edge chains
    gram: Tuple[Tuple[int, ...], ...]  # mod-2 intersection matrix
    dual_cochains: Tuple[int, ...]    # cocycles phi_i with phi_i(C_j) = delta_ij
    pd_cochains: Tuple[int, ...]      # crossing cochains of the representatives

    @property
    def rank(self) -> int:
        return len(self.cycles)

    def coordinates(self, chain: int) -> Tuple[int, ...]:
        """Class coordinates of a 1-cycle in this basis."""
        return tuple(dot(phi, chain) for phi in self.dual_cochains)


def fundamental_cycle(m: CombinatorialMap, e: int, parent_arc: Sequence[int]) -> Walk:
    """Simple closed walk: edge ``e`` plus the tree path between its ends."""
    edge = m.edges[e]
    if edge.u == edge.v:
        return (2 * e,)
    # path from each endpoint up to the root
    def root_path(v: int) -> List[int]:
        path = []
        while parent_arc[v] != -1:
            h = parent_arc[v]
            path.append(h)
            v = m.half_vertex(h)
        return path  # arcs pointing from parent to child, listed child-first

    pu = root_path(edge.u)
    pv = root_path(edge.v)
    # drop common tail (shared ancestors)
    while pu and pv and pu[-1] == pv[-1]:
        pu.pop()
        pv.pop()
    # walk: u -> v along e, then v -> meet upwards, then meet -> u downwards
    up = [h ^ 1 for h in pv]              # v towards the meet vertex
    down = list(reversed(pu))             # meet vertex down to u
    return tuple([2 * e] + up + down)


def face_boundary_chains(m: CombinatorialMap) -> List[int]:
    return [f.odd_edge_mask() for f in m.faces.faces]


def cycle_basis(m: CombinatorialMap) -> HomologyBasis:
    """A basis of the first mod-2 homology with simple representatives.

    Fundamental cycles of a spanning tree are vertex-simple by construction;
    the ones independent modulo face boundaries are selected greedily.
    """
    tree, parent_arc = spanning_tree(m)
    span = Gf2Span(face_boundary_chains(m))
    b1 = 2 - euler_characteristic(m)
    tree_set = set(tree)
    cycles: List[Walk] = []
    chains: List[int] = []
    for e in range(m.edge_count):
        if len(cycles) == b1:
            break
        if e in tree_set:
            continue
        w = fundamental_cycle(m, e, parent_arc)
        ch = walk_chain(w)
        if span.add(ch, 1 << len(chains)):
            cycles.append(w)
            chains.append(ch)
    assert len(cycles) == b1, "cycle selection failed to reach rank b1"
    return _basis(m, cycles, chains, span)


def basis_from_cycles(m: CombinatorialMap, cycles: Sequence[Walk]) -> HomologyBasis:
    """Basis with prescribed simple representatives (e.g. curve companions),
    built once per map and walks and kept (``kept``)."""
    walks = tuple(map(tuple, cycles))
    return kept(m, ("basis of", walks), _basis_of_cycles, walks)


def _basis_of_cycles(m: CombinatorialMap, cycles: Sequence[Walk]) -> HomologyBasis:
    for w in cycles:
        check_simple_walk(m, w)
    chains = [walk_chain(w) for w in cycles]
    span = Gf2Span(face_boundary_chains(m))
    for j, ch in enumerate(chains):
        if not span.add(ch, 1 << j):
            raise NotAClosedWalk("prescribed cycles are dependent modulo boundaries")
    b1 = 2 - euler_characteristic(m)
    if len(cycles) != b1:
        raise NotAClosedWalk(f"need {b1} independent cycles, got {len(cycles)}")
    return _basis(m, cycles, chains, span)


def _basis(m: CombinatorialMap, cycles: Sequence[Walk], chains: Sequence[int],
           span: Gf2Span) -> HomologyBasis:
    """Pairing data of a basis; chain ``j`` went into ``span`` with rhs
    ``1 << j`` after the face boundaries, so ``span.solve(i)`` is phi_i."""
    pd = [_push_off(m, w) for w in cycles]  # the cycles are simple
    gram = tuple(tuple(dot(p, ch) for ch in chains) for p in pd)
    assert all(gram[i][j] == gram[j][i] for i in range(len(gram)) for j in range(i)), \
        "intersection pairing asymmetry"
    duals = tuple(span.solve(i) for i in range(len(chains)))
    return HomologyBasis(tuple(cycles), tuple(chains), gram, duals, tuple(pd))
