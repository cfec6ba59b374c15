#!/usr/bin/env python3
"""Randomized cross-method agreement sweep.

Usage:  python3 scripts/random_agreement.py [--trials 200] [--seed 0]

Draws random weighted lattices on the four supported surfaces plus random
rotation-system maps of arbitrary genus (up to 10 chords, so b1 reaches 7-8
and beyond; every other map has no twisted edge), computes the partition
function by every applicable route on both backends, and compares against
brute-force enumeration: exactly, and within 1e-9 relative for the float
backend.  It also checks the prepared homology data of every map it draws
(its own basis, if any, and ``cycle_basis``): each dual cocycle phi_i is zero
on every face boundary, phi_i(C_j) = delta_ij, and the intersection matrix is
invertible over GF(2).
A map keeps what its routes derive (odd join, basis, Kasteleyn
orientations, class Pfaffians with their term strings, formatted once per
kept route; classes whose cell values repeat share one elimination), so on
untwisted orientable maps spin reuses pin's Pfaffians and terms.  Every
route therefore also runs on its own fresh copy of the map (an identity
``relabel``), which keeps nothing yet, and must return
the same value and terms there.  Exact routes at a cochain omega also
share the map's known class Pfaffians of omega: a class takes a known one
up to a vertex coboundary, or the conjugate of one across omega, so the
exact routes also run in reverse order on a second copy of the map and must
return what they returned in order.  On untwisted orientable maps pin and spin
must also return identical class terms, and the practical route also runs on
curve data: one alpha curve per ``cycle_basis`` cycle C, crossing the map on
C's left push-off and carrying C or its reverse, by a coin from the seeded
generator, as its companion; and again on those curves in a seeded shuffled
order, with ``cycle_basis`` passed as the basis.  On lattices with two or
more curves the practical route also runs on the curves reversed, with the
lattice's basis passed.  Spin and practical run on the map they are
given, twisted or not: on every orientable map with twists, and on a copy
of every other orientable map with the charts of a seeded random vertex set
reversed (``flip_charts``), spin, pin and practical run again, and so do
spin and practical with that copy's ``cycle_basis`` passed in a seeded
shuffled order, and practical on one alpha curve per cycle of that basis,
crossing the copy on the cycle's left push-off with the cycle as its
companion.  The vertex sets and
orders come from a second generator, so the maps drawn do not depend on
them.  Every random map (b1 up to 7-8, unit weights) is also rebuilt with
wide weights from that second generator, and pin, and spin if it is
orientable, must give that copy's oracle value (exactly on the exact
backend).  The copies with a perfect matching aim in turn below, inside and
above the range of prime widths: integer weights of 1-3 bits, whose exact
routes take one prime of the floor width; weights of 40-80 bits, integers
or, by a coin, over denominators up to 9, one prime sized to the Hadamard
bound; and weights so wide that the bound passes the cap, the fewest primes
of one width at most the cap.  A run in which one of the three does not
occur exits 1, so a run needs three such copies, about a dozen trials.
Every map drawn is also rebuilt with dyadic float weights k/2^j from a third
generator, and every route that ran on it must give that copy's oracle value
exactly on the exact backend, which reads a float weight at its binary value.
Their exact class Pfaffians are Gaussian integers over a scale L^(n/2), L
the least common denominator of the weights.  Exits nonzero on the first
disagreement or violation, naming the map, the route and the backend, or on
the first route that raises, naming the map and the route.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pfdimers import (  # noqa: E402
    TransverseCurve,
    basis_from_cycles,
    build_map,
    classify,
    cycle_basis,
    partition_bruteforce,
    partition_general_pin,
    partition_nonorientable_practical,
    partition_orientable_practical,
    partition_orientable_spin,
    relabel,
)
from pfdimers.generators import random_lattice, random_map  # noqa: E402
from pfdimers.homology import (  # noqa: E402
    Gf2Span,
    chain_from_edges,
    crossing_cochain,
    dot,
    is_cocycle,
    reverse_walk,
)
from pfdimers.pfaffian import _CAP, _FLOOR, _EdgeMatrix  # noqa: E402
from pfdimers.surface_graph import flip_charts  # noqa: E402

FLOAT_REL_TOL = 1e-9
REGIMES = ("floor", "sized", "above")  # one prime of _FLOOR bits, one of bound + 2, several


def width_regime(m):
    """Which prime widths an exact route on m's weights takes: its Hadamard
    bound depends on the weights' moduli alone, not on K, omega or a class."""
    edges = [(e.u, e.v, e.weight, 0) for e in m.edges]
    width = _EdgeMatrix(m.vertex_count, edges, True).bound.bit_length() + 2
    return REGIMES[(width > _FLOOR) + (width > _CAP)]


def wide_weight_shape(side, regime, n):
    """Bit width and denominator bound of weights that put an exact route on
    n <= 6 vertices in ``regime``: a few bits keep the bound far below 2^28;
    40-80 bits, over denominators up to 9, inside the cap; and w bits with
    w n / 2 > 320 put it over the cap, B >= 2^((w - 1) n / 2)."""
    if regime == "floor":
        return side.randint(1, 3), 1
    if regime == "sized":
        return side.randint(40, 80), side.choice((1, 9))
    return side.randint(660 // n, 800 // n), side.choice((1, 9))


def reweighted(m, weights):
    """m with these edge weights."""
    return build_map(m.vertex_count, m.rotations, [(e.u, e.v) for e in m.edges],
                     [e.twist for e in m.edges], weights)


def prepared_violation(m, basis):
    """What is wrong with a basis's dual cocycles or intersection form, or None."""
    for i, phi in enumerate(basis.dual_cochains):
        if not is_cocycle(m, phi):
            return f"phi_{i} is nonzero on a face boundary"
        if [dot(phi, ch) for ch in basis.chains] != [int(i == j) for j in range(basis.rank)]:
            return f"phi_{i} is not dual to the basis cycles"
    rows = [chain_from_edges(j for j, g in enumerate(row) if g) for row in basis.gram]
    if Gf2Span(rows).rank != basis.rank:
        return "the intersection matrix is singular over GF(2)"
    return None


class RouteRaised(Exception):
    """A route raised where it should have returned a value."""


def guarded(where, routes):
    """The routes, each raising ``RouteRaised``, naming the map and itself,
    in place of what it raises."""

    def guard(name, route):
        def run(*args, **kwargs):
            try:
                return route(*args, **kwargs)
            except Exception as exc:
                raise RouteRaised(f"ROUTE RAISES at {where}: {name}: "
                                  f"{type(exc).__name__}: {exc}") from exc
        return run

    return {name: guard(name, route) for name, route in routes.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        return sweep(args)
    except RouteRaised as exc:
        traceback.print_exc()  # to stderr
        print(exc)
        return 1


def sweep(args) -> int:
    """The sweep of the module docstring: 0 if every check passes, else 1."""
    rng, side = random.Random(args.seed), random.Random(args.seed)
    dyadic_rng = random.Random(f"dyadic {args.seed}")
    t0 = time.perf_counter()
    regimes = dict.fromkeys(REGIMES, 0)

    for trial in range(args.trials):
        if trial % 2 == 0:
            inst = random_lattice(rng, max_vertices=14)
            m, basis, curves = inst.map, inst.basis, inst.curves
            label = f"{inst.surface} lattice"
        else:
            twisted = trial % 4 == 1
            m = random_map(rng, max_vertices=6, extra_edges=10, twisted=twisted)
            basis, curves = None, ()
            label = "random map" if twisted else "untwisted random map"
        where = f"trial {trial} ({label}, {m.vertex_count} vertices, {m.edge_count} edges)"
        for prepared in filter(None, (basis, cycle_basis(m))):
            bad = prepared_violation(m, prepared)
            if bad:
                print(f"BAD PREPARED DATA at {where}: {bad}")
                return 1
        z_ref = partition_bruteforce(m)
        routes = {"pin": lambda g, b: partition_general_pin(g, basis=basis, backend=b)}
        orientable = classify(m).orientable
        practical = (partition_orientable_practical if orientable
                     else partition_nonorientable_practical)
        if orientable or curves:
            routes["practical"] = lambda g, b: practical(
                g, curves=curves or None, basis=basis, backend=b)
        if orientable:
            routes["spin"] = lambda g, b: partition_orientable_spin(g, basis=basis, backend=b)
            if not m.twist_bits():
                own = cycle_basis(m)
                pushed = [TransverseCurve("alpha", crossing_cochain(m, c),
                                          reverse_walk(c) if rng.random() < 0.5 else c)
                          for c in own.cycles]
                shuffled = rng.sample(pushed, len(pushed))
                routes["practical on basis-cycle curves"] = \
                    lambda g, b: partition_orientable_practical(g, curves=pushed, backend=b)
                routes["practical on shuffled basis-cycle curves"] = \
                    lambda g, b: partition_orientable_practical(
                        g, curves=shuffled, basis=own, backend=b)
            flipped = [] if m.twist_bits() else \
                [v for v in range(m.vertex_count) if side.random() < 0.5]
            twisted_copy = flip_charts(m, flipped)
            if twisted_copy.twist_bits():
                cycles = cycle_basis(twisted_copy).cycles
                reordered = basis_from_cycles(twisted_copy, side.sample(cycles, len(cycles)))
                routes["spin with twists"] = lambda g, b: partition_orientable_spin(
                    flip_charts(g, flipped), backend=b)
                routes["spin with twists on a shuffled cycle basis"] = \
                    lambda g, b: partition_orientable_spin(
                        flip_charts(g, flipped), basis=reordered, backend=b)
                routes["pin with twists"] = lambda g, b: partition_general_pin(
                    flip_charts(g, flipped), backend=b)
                # each basis cycle of the copy is its own alpha curve's companion
                on_copy = [TransverseCurve("alpha", crossing_cochain(twisted_copy, c), c)
                           for c in cycles]
                routes["practical with twists"] = lambda g, b: partition_orientable_practical(
                    flip_charts(g, flipped), backend=b)
                routes["practical with twists on a shuffled cycle basis"] = \
                    lambda g, b: partition_orientable_practical(
                        flip_charts(g, flipped), basis=reordered, backend=b)
                routes["practical with twists on basis-cycle curves"] = \
                    lambda g, b: partition_orientable_practical(
                        flip_charts(g, flipped), curves=on_copy, backend=b)
        if len(curves) >= 2:
            routes["practical on reversed curves"] = lambda g, b: practical(
                g, curves=curves[::-1], basis=basis, backend=b)
        routes = guarded(where, routes)
        for backend in ("exact", "float"):
            results = {name: route(m, backend) for name, route in routes.items()}
            for name, route in routes.items():
                fresh = route(relabel(m, range(m.vertex_count)), backend)
                if (fresh.value, fresh.terms) != (results[name].value, results[name].terms):
                    print(f"KEPT DATA DIFFERS at {where}: {name} ({backend}) = "
                          f"{results[name].value}, on a fresh copy {fresh.value}")
                    return 1
            # an exact route takes the classes that earlier exact routes at its
            # omega made known on the map: on a second copy, the routes in
            # reverse order give the same results
            if backend == "exact":
                copy = relabel(m, range(m.vertex_count))
                for name, route in reversed(routes.items()):
                    res = route(copy, backend)
                    if (res.value, res.terms) != (results[name].value, results[name].terms):
                        print(f"ORDER CHANGES RESULT at {where}: {name}")
                        return 1
            for name, res in results.items():
                tol = 0 if backend == "exact" else FLOAT_REL_TOL * z_ref
                if abs(res.value - z_ref) > tol:
                    print(f"DISAGREEMENT at {where}: {name} ({backend}) = "
                          f"{res.value}, oracle = {z_ref}")
                    return 1
            # on an untwisted orientable map spin is the pin sum at omega = 0:
            # same K, basis, odd join and flips, so the same class Pfaffians
            if "spin" in results and not m.twist_bits() and \
                    results["spin"].terms != results["pin"].terms:
                print(f"TERMS DIFFER at {where}: pin and spin ({backend})")
                return 1
        # dyadic float weights k/2^j: exact on both sides, read as integers
        # over a power of two
        dyadic = reweighted(m, [dyadic_rng.randint(1, 15) / 2 ** dyadic_rng.randint(0, 6)
                                for _ in m.edges])
        z_dyadic = partition_bruteforce(dyadic)
        for name, route in routes.items():
            value = route(dyadic, "exact").value
            if value != z_dyadic:
                print(f"DISAGREEMENT at {where}: {name} on dyadic float weights "
                      f"(exact) = {value}, oracle = {z_dyadic}")
                return 1
        if trial % 2:
            # wide weights: exact routes below, inside and above the prime
            # widths in turn, counting the copies with a perfect matching
            target = REGIMES[sum(regimes.values()) % len(REGIMES)]
            bits, den = wide_weight_shape(side, target, max(m.vertex_count, 2))
            wide = reweighted(m, [Fraction(side.getrandbits(bits) | 1 << bits - 1,
                                           side.randint(1, den)) for _ in m.edges])
            z_wide = partition_bruteforce(wide)
            if z_wide:  # the routes eliminate
                regimes[width_regime(wide)] += 1
            weighted_routes = {"pin": partition_general_pin}
            if orientable:
                weighted_routes["spin"] = partition_orientable_spin
            for name, route in guarded(where, weighted_routes).items():
                for backend in ("exact", "float"):
                    value = route(wide, backend=backend).value
                    tol = 0 if backend == "exact" else FLOAT_REL_TOL * z_wide
                    if abs(value - z_wide) > tol:
                        print(f"DISAGREEMENT at {where}: {name} on wide weights "
                              f"({backend}) = {value}, oracle = {z_wide}")
                        return 1
    widths = ", ".join(f"{count} {name}" for name, count in regimes.items())
    if not all(regimes.values()):
        print(f"MISSED A PRIME WIDTH: wide-weight routes {widths}")
        return 1
    print(f"{args.trials} trials agree exactly (float backend within "
          f"{FLOAT_REL_TOL:g} relative; wide-weight routes {widths})  "
          f"[{time.perf_counter() - t0:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
