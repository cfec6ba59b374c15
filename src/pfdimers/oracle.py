"""Brute-force ground truth: enumerate perfect matchings directly, in one
search that multiplies in each dimer's weight along the way.  The weights
are integers over one common denominator L, so the search multiplies ints,
and an exact sum over matchings of n/2 dimers divides once, by L^(n/2)."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

from .errors import TooLarge
from .exactnum import over_lcd
from .homology import HomologyBasis
from .surface_graph import CombinatorialMap

VERTEX_BOUND = 36


def _weighted_matchings(m: CombinatorialMap,
                        max_vertices: int) -> Iterator[Tuple[int, int, int]]:
    """Yield (edge bitmask, L^(n/2) times the weight product, L^(n/2)) for
    every perfect matching, each exactly once, with L the least common
    denominator of the weights of m's non-loop edges; loops never match.
    Each weight is read once, as an integer over L, so the search multiplies
    ints.  An odd map has no matching at any size, so parity is checked
    before the bound."""
    n = m.vertex_count
    if n % 2:
        return
    if n > max_vertices:
        raise TooLarge(f"{n} vertices exceeds oracle bound {max_vertices}")
    edges = [(e, edge.u, edge.v) for e, edge in enumerate(m.edges) if edge.u != edge.v]
    weights, lcd = over_lcd(m.edges[e].weight for e, _, _ in edges)
    scale = lcd ** (n // 2)
    incident = [[] for _ in range(n)]
    for (e, u, v), w in zip(edges, weights):
        incident[u].append((e, v, w))
        incident[v].append((e, u, w))

    matched = [False] * n

    def rec(v: int, acc: int, weight: int):
        while v < n and matched[v]:
            v += 1
        if v == n:
            yield acc, weight, scale
            return
        matched[v] = True
        for e, u, w in incident[v]:
            if not matched[u]:
                matched[u] = True
                yield from rec(v + 1, acc | (1 << e), weight * w)
                matched[u] = False
        matched[v] = False

    yield from rec(0, 0, 1)


def enumerate_matchings(m: CombinatorialMap,
                        max_vertices: int = VERTEX_BOUND) -> Iterator[int]:
    """Yield every perfect matching as an edge bitmask, each exactly once.

    Branches on the lowest-index unmatched vertex; loops never match.
    """
    for D, _, _ in _weighted_matchings(m, max_vertices):
        yield D


def find_matching(m: CombinatorialMap,
                  max_vertices: int = VERTEX_BOUND) -> Optional[int]:
    for D in enumerate_matchings(m, max_vertices):
        return D
    return None


def partition_bruteforce(m: CombinatorialMap,
                         max_vertices: int = VERTEX_BOUND) -> Fraction:
    """Exact weighted sum over all perfect matchings."""
    total, scale = 0, 1
    for _, w, scale in _weighted_matchings(m, max_vertices):
        total += w
    return Fraction(total, scale)


def count_matchings(m: CombinatorialMap, max_vertices: int = VERTEX_BOUND) -> int:
    return sum(1 for _ in enumerate_matchings(m, max_vertices))


def homology_buckets(m: CombinatorialMap, D0: int, basis: HomologyBasis,
                     max_vertices: int = VERTEX_BOUND) -> Dict[Tuple[int, ...], Fraction]:
    """Weighted matching sums bucketed by the class of D + D0.

    Coordinates are taken in the given basis; the buckets sum to the full
    partition function.
    """
    sums: Dict[Tuple[int, ...], int] = {}
    scale = 1
    for D, w, scale in _weighted_matchings(m, max_vertices):
        key = basis.coordinates(D ^ D0)
        sums[key] = sums.get(key, 0) + w
    return {key: Fraction(w, scale) for key, w in sums.items()}
