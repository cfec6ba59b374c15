#!/usr/bin/env python3
"""Randomized cross-method agreement sweep.

Usage:  python3 scripts/random_agreement.py [--trials 200] [--seed 0]

Draws random weighted lattices on the four supported surfaces plus random
rotation-system maps of arbitrary genus, computes the partition function by
every applicable route, and compares against brute-force enumeration.
Exits nonzero on the first disagreement.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pfdimers import (  # noqa: E402
    classify,
    partition_bruteforce,
    partition_general_pin,
    partition_nonorientable_practical,
    partition_orientable_practical,
    partition_orientable_spin,
)
from pfdimers.generators import random_lattice, random_map  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    t0 = time.perf_counter()

    for trial in range(args.trials):
        if trial % 2 == 0:
            inst = random_lattice(rng, max_vertices=14)
            m, basis, curves = inst.map, inst.basis, inst.curves
        else:
            m, basis, curves = random_map(rng, max_vertices=6), None, ()
        z_ref = partition_bruteforce(m)
        vals = {"pin": partition_general_pin(m, basis=basis).value}
        if classify(m).orientable:
            vals["practical"] = partition_orientable_practical(
                m, curves=curves or None, basis=basis).value
            vals["spin"] = partition_orientable_spin(m, basis=basis).value
        elif curves:
            vals["practical"] = partition_nonorientable_practical(
                m, curves, basis=basis).value
        for name, val in vals.items():
            if val != z_ref:
                print(f"DISAGREEMENT at trial {trial}: {name} = {val}, "
                      f"oracle = {z_ref}")
                return 1
    print(f"{args.trials} trials agree exactly  [{time.perf_counter() - t0:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
