"""Mod-2 homology of the embedded graph: cycles, cocycles, intersection form.

Chains and cochains over Z2 are plain Python ints used as edge bitmasks
(bit ``e`` set means edge ``e`` carries coefficient 1).  Oriented closed
walks are tuples of arcs (half-edge ids); the walk traverses each arc from
its anchor towards the opposite half.

The intersection pairing pushes the first cycle slightly to its left into a
closed curve transverse to the graph and records which edges that curve
crosses; the resulting crossing cochain represents the Poincare dual of the
cycle's class, and pairing it with any 1-cycle gives the mod-2 intersection
number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import NotAClosedWalk, NotSimple
from .surface_graph import CombinatorialMap, FaceSet, trace_faces

Walk = Tuple[int, ...]


# ---------------------------------------------------------------------------
# GF(2) helpers on bitmasks
# ---------------------------------------------------------------------------

def parity(bits: int) -> int:
    return bits.bit_count() & 1


def dot(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


def gf2_rank(rows: Sequence[int]) -> int:
    basis: List[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def gf2_reduce(row: int, basis: Sequence[int]) -> int:
    """Reduce ``row`` against echelon ``basis`` rows (each with distinct
    leading bit)."""
    for b in basis:
        row = min(row, row ^ b)
    return row


class Gf2Span:
    """Incremental GF(2) span of bitmask rows."""

    def __init__(self, rows: Sequence[int] = ()) -> None:
        self.basis: List[int] = []
        for r in rows:
            self.add(r)

    def add(self, row: int) -> bool:
        """Insert ``row``; returns True if it enlarged the span."""
        row = gf2_reduce(row, self.basis)
        if row == 0:
            return False
        self.basis.append(row)
        self.basis.sort(reverse=True)
        return True

    def contains(self, row: int) -> bool:
        return gf2_reduce(row, self.basis) == 0

    @property
    def rank(self) -> int:
        return len(self.basis)


def solve_parity_system(constraints: Sequence[Tuple[int, int]], nbits: int) -> Optional[int]:
    """Find x with parity(x & mask_i) = b_i for all i, or None.

    Free variables are set to 0.
    """
    rows = [(mask, rhs & 1) for mask, rhs in constraints]
    pivots: List[Tuple[int, int, int]] = []  # (pivot bit, mask, rhs)
    for mask, rhs in rows:
        for pb, pm, pr in pivots:
            if (mask >> pb) & 1:
                mask ^= pm
                rhs ^= pr
        if mask == 0:
            if rhs:
                return None
            continue
        pivots.append((mask.bit_length() - 1, mask, rhs))
    x = 0
    # row k's mask holds no pivot bit of rows before k, so reverse insertion
    # order resolves every non-pivot bit before it is consumed
    for pb, pm, pr in reversed(pivots):
        val = pr ^ dot(x, pm & ~(1 << pb))
        if val:
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
    out = []
    e = 0
    while bits:
        if bits & 1:
            out.append(e)
        bits >>= 1
        e += 1
    return out


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
    bits = 0
    for h in walk:
        bits ^= 1 << (h // 2)
    return bits


def walk_vertices(m: CombinatorialMap, walk: Walk) -> List[int]:
    return [m.half_vertex(h) for h in walk]


def check_closed_walk(m: CombinatorialMap, walk: Walk) -> None:
    if not walk:
        raise NotAClosedWalk("empty walk")
    for i, h in enumerate(walk):
        nxt = walk[(i + 1) % len(walk)]
        if m.arc_target(h) != m.half_vertex(nxt):
            raise NotAClosedWalk(f"step {i} ends at {m.arc_target(h)}, "
                                 f"next starts at {m.half_vertex(nxt)}")


def check_simple_walk(m: CombinatorialMap, walk: Walk) -> None:
    check_closed_walk(m, walk)
    verts = walk_vertices(m, walk)
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


def is_cocycle(m: CombinatorialMap, phi: int, faces: Optional[FaceSet] = None) -> bool:
    faces = faces if faces is not None else trace_faces(m)
    return all(dot(phi, f.odd_edge_mask()) == 0 for f in faces.faces)


def coboundary_preimage(m: CombinatorialMap, phi: int) -> Optional[Tuple[int, ...]]:
    """A vertex set S with delta(S) = phi, or None.

    On a connected graph the two solutions are complements; the smaller one
    is returned (ties broken towards the side without vertex 0), so that a
    single-vertex coboundary always maps back to that vertex.
    """
    constraints = []
    for e, edge in enumerate(m.edges):
        if edge.u == edge.v:
            if (phi >> e) & 1:
                return None
            continue
        mask = (1 << edge.u) | (1 << edge.v)
        constraints.append((mask, (phi >> e) & 1))
    constraints.append((1, 0))  # pin vertex 0 out of S
    x = solve_parity_system(constraints, m.vertex_count)
    if x is None:
        return None
    side = tuple(v for v in range(m.vertex_count) if (x >> v) & 1)
    other = tuple(v for v in range(m.vertex_count) if not (x >> v) & 1)
    return other if len(other) < len(side) else side


def is_coboundary(m: CombinatorialMap, phi: int) -> bool:
    return coboundary_preimage(m, phi) is not None


def dual_flip(orientation, phi: int):
    """Reverse an orientation exactly on the support of the cochain."""
    return orientation.flipped(phi)


# ---------------------------------------------------------------------------
# Crossing cochain of a pushed-off cycle; intersection numbers
# ---------------------------------------------------------------------------

def _strict_interval(m: CombinatorialMap, v: int, h_from: int, h_to: int, clockwise: bool) -> List[int]:
    """Half-edges strictly between ``h_from`` and ``h_to`` around ``v``.

    Walks the rotation starting after ``h_from``, clockwise (reverse rotation
    order) or counterclockwise, until ``h_to`` is reached.
    """
    out = []
    h = m.rotation_prev(h_from) if clockwise else m.rotation_next(h_from)
    guard = 0
    while h != h_to:
        out.append(h)
        h = m.rotation_prev(h) if clockwise else m.rotation_next(h)
        guard += 1
        if guard > len(m.rotations[v]) + 1:  # pragma: no cover
            raise NotAClosedWalk("interval walk failed; corrupt rotation")
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
    bits = 0
    side = 0  # 0: left of the walk in the current chart
    L = len(walk)
    for i, h in enumerate(walk):
        e = h // 2
        side ^= m.edges[e].twist
        v = m.arc_target(h)
        h_in = h ^ 1
        h_out = walk[(i + 1) % L]
        crossed = _strict_interval(m, v, h_in, h_out, clockwise=(side == 0))
        for hc in crossed:
            bits ^= 1 << (hc // 2)
    if side:  # orientation-reversing walk: close up across the first edge
        bits ^= 1 << (walk[0] // 2)
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


def face_boundary_chains(m: CombinatorialMap, faces: FaceSet) -> List[int]:
    return [f.odd_edge_mask() for f in faces.faces]


def cycle_basis(m: CombinatorialMap, faces: Optional[FaceSet] = None) -> HomologyBasis:
    """A basis of the first mod-2 homology with simple representatives.

    Fundamental cycles of a spanning tree are vertex-simple by construction;
    the ones independent modulo face boundaries are selected greedily.
    """
    faces = faces if faces is not None else trace_faces(m)
    tree, parent_arc = _tree(m)
    span = Gf2Span(face_boundary_chains(m, faces))
    b1 = 2 - (m.vertex_count - m.edge_count + len(faces))
    tree_set = set(tree)
    cycles: List[Walk] = []
    chains: List[int] = []
    for e in range(m.edge_count):
        if e in tree_set:
            continue
        w = fundamental_cycle(m, e, parent_arc)
        ch = walk_chain(w)
        if span.add(ch):
            cycles.append(w)
            chains.append(ch)
        if len(cycles) == b1:
            break
    assert len(cycles) == b1, "cycle selection failed to reach rank b1"

    pd = [crossing_cochain(m, w) for w in cycles]
    gram = tuple(tuple(dot(pd[i], chains[j]) for j in range(b1)) for i in range(b1))
    # symmetry check of the pairing
    for i in range(b1):
        for j in range(b1):
            assert gram[i][j] == gram[j][i], "intersection pairing asymmetry"

    duals = _dual_cocycles(m, faces, chains)
    return HomologyBasis(tuple(cycles), tuple(chains), gram, tuple(duals), tuple(pd))


def _tree(m: CombinatorialMap):
    from .surface_graph import spanning_tree
    return spanning_tree(m)


def _dual_cocycles(m: CombinatorialMap, faces: FaceSet, chains: Sequence[int]) -> List[int]:
    """Cocycles phi_i with phi_i(C_j) = delta_ij."""
    face_masks = [f.odd_edge_mask() for f in faces.faces]
    duals = []
    for i in range(len(chains)):
        constraints = [(mask, 0) for mask in face_masks]
        for j, ch in enumerate(chains):
            constraints.append((ch, 1 if i == j else 0))
        x = solve_parity_system(constraints, m.edge_count)
        assert x is not None, "dual cocycle system must be solvable"
        duals.append(x)
    return duals


def basis_from_cycles(m: CombinatorialMap, cycles: Sequence[Walk],
                      faces: Optional[FaceSet] = None) -> HomologyBasis:
    """Basis with prescribed simple representatives (e.g. curve companions)."""
    faces = faces if faces is not None else trace_faces(m)
    for w in cycles:
        check_simple_walk(m, w)
    chains = [walk_chain(w) for w in cycles]
    span = Gf2Span(face_boundary_chains(m, faces))
    for ch in chains:
        if not span.add(ch):
            raise NotAClosedWalk("prescribed cycles are dependent modulo boundaries")
    b1 = 2 - (m.vertex_count - m.edge_count + len(faces))
    if len(cycles) != b1:
        raise NotAClosedWalk(f"need {b1} independent cycles, got {len(cycles)}")
    pd = [crossing_cochain(m, w) for w in cycles]
    gram = tuple(tuple(dot(pd[i], chains[j]) for j in range(b1)) for i in range(b1))
    duals = _dual_cocycles(m, faces, chains)
    return HomologyBasis(tuple(cycles), tuple(chains), gram, tuple(duals), tuple(pd))
