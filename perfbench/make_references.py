#!/usr/bin/env python3
"""Regenerate the pinned exact partition functions of the lattice workloads.

Usage:  python3 perfbench/make_references.py [surface:MxN ...]

Each instance is a unit-weight lattice taken through the ``auto`` route with
the exact backend; the float backend must agree to a relative error of 1e-9
before a value is written.  Values are merged into
``perfbench/reference_z.json``.  Without arguments every lattice the
benchmark times is recomputed; the 20x20 and 24x24 ones take tens of
minutes each, which is why the values are committed rather than computed
during a benchmark run.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import LATTICE_SPECS, REFERENCE_FILE, instance_key  # noqa: E402

from pfdimers import lattice, partition  # noqa: E402
from pfdimers.errors import IllConditionedWarning  # noqa: E402


def main(argv: list[str]) -> int:
    specs = [tuple(a.split(":")) for a in argv] or \
        [s for specs in LATTICE_SPECS.values() for s in specs]
    path = HERE / REFERENCE_FILE
    refs = json.loads(path.read_text()) if path.exists() else {}
    warnings.simplefilter("ignore", IllConditionedWarning)
    for surface, size in specs:
        m, n = (int(t) for t in size.split("x"))
        inst = lattice(m, n, surface)
        t0 = time.perf_counter()
        exact = partition(inst.map, "auto", curves=inst.curves, basis=inst.basis,
                          backend="exact").value
        dt = time.perf_counter() - t0
        approx = partition(inst.map, "auto", curves=inst.curves, basis=inst.basis,
                           backend="float").value
        rel = abs(Fraction(approx) - exact) / exact
        if rel > Fraction(1, 10**9):
            print(f"{surface} {size}: float differs by {float(rel):.3g}", file=sys.stderr)
            return 1
        refs[instance_key(surface, size)] = str(exact)
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"{surface} {size}: Z = {exact}  [{dt:.1f}s exact]", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
