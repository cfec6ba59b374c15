#!/usr/bin/env python3
"""Reproduce the four reference lattice counts with per-route timings.

Usage:  python3 scripts/run_lattice_examples.py [--size 5x6]

Prints, for each surface, the partition function through every applicable
route (practical Pfaffian combination, Arf/Brown invariant sums, bipartite
determinant shortcut where the graph is bipartite, brute force when small),
and the float ``auto`` route.  Exits with status 1 when two routes, or a
route and the brute force, disagree, or when the float value is more than
1e-9 relative away from the exact practical value.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pfdimers import (  # noqa: E402
    bipartite_pfaffian,
    build_adjacency,
    classify,
    construct_kasteleyn,
    lattice,
    partition,
    partition_bruteforce,
    partition_general_pin,
    partition_nonorientable_practical,
    partition_orientable_practical,
    partition_orientable_spin,
    pfaffian,
    relabel,
)
from pfdimers.surface_graph import tree_side  # noqa: E402

FLOAT_REL_TOL = 1e-9


def timed(fn, *args, **kw):
    t0 = time.perf_counter()
    val = fn(*args, **kw)
    return val, time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", default="5x6")
    args = ap.parse_args()
    mm, nn = (int(t) for t in args.size.lower().split("x"))

    status = 0
    for surface in ("planar", "torus", "klein_hexagon", "rp2"):
        inst = lattice(mm, nn, surface)
        m = inst.map
        print(f"== {surface} {mm}x{nn}  ({classify(m).name}, "
              f"V={m.vertex_count}, E={m.edge_count})")
        values = {}
        if classify(m).orientable:
            z, dt = timed(partition_orientable_practical, m,
                          curves=inst.curves or None, basis=inst.basis)
            print(f"  practical : Z = {z.value}   [{dt:.3f}s]")
            values["practical"] = z.value
            z, dt = timed(partition_orientable_spin, m, basis=inst.basis)
            print(f"  spin      : Z = {z.value}   [{dt:.3f}s]")
            values["spin"] = z.value
        else:
            z, dt = timed(partition_nonorientable_practical, m, inst.curves,
                          basis=inst.basis)
            print(f"  practical : Z = {z.value}   [{dt:.3f}s]")
            values["practical"] = z.value
        z, dt = timed(partition_general_pin, m, basis=inst.basis)
        print(f"  pin       : Z = {z.value}   [{dt:.3f}s]")
        values["pin"] = z.value
        z, dt = timed(partition, m, curves=inst.curves or None, basis=inst.basis,
                      backend="float")
        print(f"  float auto: Z = {z.value!r}   [{dt:.3f}s]")
        if abs(z.value - values["practical"]) > FLOAT_REL_TOL * values["practical"]:
            print(f"  FLOAT DISAGREEMENT: {z.value!r} vs {values['practical']}")
            status = 1

        colour = tree_side(m, (1 << m.edge_count) - 1)  # x_u + x_v = 1 on every edge
        if colour is not None and m.vertex_count % 2 == 0:
            order = [v for v in range(m.vertex_count) if colour[v] == 0] + \
                [v for v in range(m.vertex_count) if colour[v] == 1]
            perm = [0] * m.vertex_count
            for new, old in enumerate(order):
                perm[old] = new
            m2 = relabel(m, perm)
            K = construct_kasteleyn(m2)
            a = build_adjacency(m2, K)
            t0 = time.perf_counter()
            pf_block = bipartite_pfaffian(a)
            dt = time.perf_counter() - t0
            assert (pf_block - pfaffian(a)).is_zero()
            print(f"  bipartite determinant shortcut agrees   [{dt:.3f}s]")

        if m.vertex_count <= 36:
            z, dt = timed(partition_bruteforce, m)
            print(f"  oracle    : Z = {z}   [{dt:.3f}s]")
            values["oracle"] = z
        if len(set(values.values())) > 1:
            print(f"  DISAGREEMENT: {values}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
