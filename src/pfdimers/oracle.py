"""Brute-force ground truth: enumerate perfect matchings directly, in one
search that multiplies in each dimer's weight along the way."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple, Union

from .errors import TooLarge
from .homology import HomologyBasis
from .surface_graph import CombinatorialMap

VERTEX_BOUND = 36


def _weighted_matchings(m: CombinatorialMap,
                        max_vertices: int) -> Iterator[Tuple[int, Union[int, Fraction]]]:
    """Yield (edge bitmask, exact weight product) for every perfect matching,
    each exactly once; loops never match.  Each weight is made exact once,
    integral ones as ints, whose products are cheap.  An odd map has no
    matching at any size, so parity is checked before the bound."""
    n = m.vertex_count
    if n % 2:
        return
    if n > max_vertices:
        raise TooLarge(f"{n} vertices exceeds oracle bound {max_vertices}")
    incident = [[] for _ in range(n)]
    for e, edge in enumerate(m.edges):
        if edge.u != edge.v:
            w = Fraction(edge.weight)
            w = w.numerator if w.denominator == 1 else w
            incident[edge.u].append((e, edge.v, w))
            incident[edge.v].append((e, edge.u, w))

    matched = [False] * n

    def rec(v: int, acc: int, weight: Union[int, Fraction]):
        while v < n and matched[v]:
            v += 1
        if v == n:
            yield acc, weight
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
    for D, _ in _weighted_matchings(m, max_vertices):
        yield D


def find_matching(m: CombinatorialMap,
                  max_vertices: int = VERTEX_BOUND) -> Optional[int]:
    for D in enumerate_matchings(m, max_vertices):
        return D
    return None


def partition_bruteforce(m: CombinatorialMap,
                         max_vertices: int = VERTEX_BOUND) -> Fraction:
    """Exact weighted sum over all perfect matchings."""
    return sum((w for _, w in _weighted_matchings(m, max_vertices)), Fraction(0))


def count_matchings(m: CombinatorialMap, max_vertices: int = VERTEX_BOUND) -> int:
    return sum(1 for _ in enumerate_matchings(m, max_vertices))


def homology_buckets(m: CombinatorialMap, D0: int, basis: HomologyBasis,
                     max_vertices: int = VERTEX_BOUND) -> Dict[Tuple[int, ...], Fraction]:
    """Weighted matching sums bucketed by the class of D + D0.

    Coordinates are taken in the given basis; the buckets sum to the full
    partition function.
    """
    buckets: Dict[Tuple[int, ...], Fraction] = {}
    for D, w in _weighted_matchings(m, max_vertices):
        key = basis.coordinates(D ^ D0)
        buckets[key] = buckets.get(key, Fraction(0)) + w
    return buckets
