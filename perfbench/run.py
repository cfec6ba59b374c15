#!/usr/bin/env python3
"""Layered benchmark of pfdimers.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

An op takes one instance from graph-file text to a checked Z (see
``workloads.py``).  Set-up imports the library from ``src/``, generates the
workload's instances from the seed and serialises them; it is repeated
``SETUP_REPEATS`` times, each from a fresh import, and every repeat must
write byte-identical texts.  Then whole passes over the fixed op list run
until the next pass would end after ``--seconds``.  Everything runs in this
one process with no worker threads (``threads`` is left unset).

With ``--trace 0`` the last line reports the end-to-end metrics, measured
without tracing.  Times are scaled to a reference host speed (see
``hostspeed.py``):

    setup_s      median time of one set-up
    wall_s       one pass over the op list: the sum of each op's median
                 latency over the passes
    op_s_p50     median over the op list of each op's median latency
    op_s_p90     90th percentile of the same per-op latencies
    peak_rss_mb  the process's ru_maxrss

With ``--trace 1`` untraced and traced passes alternate, and the last line
reports per-layer metrics (medians over the traced passes; see
``tracing.py``) plus ``trace.overhead_s``, the traced minus the untraced
pass time.  These times are scaled the same way.  The spans are written,
in wall-clock nanoseconds, to ``.bench_out/``.

The line before the last records the seed, Python version, ``nproc``,
``threads``, the number of passes and op samples, ``fail_ratio`` and, on an
untraced run, the unscaled wall-clock ``wall_s``.  An op fails if it raises
or if its Z is wrong; failures are counted, reported on standard error, and
make ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import REFERENCE_FILE, WORKLOADS, Case, Workload  # noqa: E402

SETUP_REPEATS = 7
LIB_MODULES = ("errors", "generators", "graphfile", "oracle", "partition",
               "surface_graph")

Interval = Tuple[float, float]


def import_library() -> SimpleNamespace:
    """Import pfdimers from ``src/`` afresh, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "pfdimers" or k.startswith("pfdimers.")]:
        del sys.modules[key]
    import pfdimers  # noqa: F401
    import pfdimers.graphfile  # noqa: F401
    return SimpleNamespace(**{name: sys.modules[f"pfdimers.{name}"]
                              for name in LIB_MODULES})


def set_up(wl: Workload, seed: int, refs: Dict[str, str]):
    """Repeated set-up; returns the last library, its cases and the
    interval each repeat took."""
    intervals: List[Interval] = []
    texts = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = import_library()
        cases = wl.make(lib, seed, refs)
        intervals.append((t0, time.perf_counter()))
        if texts is not None and texts != [c.text for c in cases]:
            raise RuntimeError("set-up is not deterministic for a fixed seed")
        texts = [c.text for c in cases]
    warnings.simplefilter("ignore", lib.errors.IllConditionedWarning)
    return lib, cases, intervals


class Runner:
    """Runs passes over the op list, counting attempts and failures."""

    def __init__(self, wl: Workload, lib: SimpleNamespace, cases: List[Case]):
        self.wl, self.lib, self.cases = wl, lib, cases
        self.attempted = 0
        self.failures: List[Tuple[str, str]] = []

    def one_op(self, case: Case) -> None:
        self.attempted += 1
        try:
            if not self.wl.op(self.lib, case):
                self.failures.append((case.label, "wrong Z"))
        except Exception:  # every failure is counted; the run goes on
            self.failures.append((case.label, traceback.format_exc(limit=3)))

    def run_pass(self, tracer: Optional[tracing.Tracer] = None) -> List[Interval]:
        """One pass over the op list; returns the interval of each op."""
        intervals = []
        for case in self.cases:
            t0 = time.perf_counter()
            if tracer is None:
                self.one_op(case)
            else:
                tracer.call(tracing.OP_LAYER, case.label, self.one_op, case)
            intervals.append((t0, time.perf_counter()))
        return intervals

    def run_passes(self, seconds: float, tracer: Optional[tracing.Tracer] = None):
        """Yields each pass's op intervals; stops before a pass that would
        end after ``seconds``, but runs at least one."""
        start = time.perf_counter()
        while True:
            intervals = self.run_pass(tracer)
            yield intervals
            now = time.perf_counter()
            if now - start + (now - intervals[0][0]) > seconds:
                return


def durations(intervals: List[Interval]) -> List[float]:
    return [t1 - t0 for t0, t1 in intervals]


def scaled(probe: hostspeed.SpeedProbe, passes: List[List[Interval]]) -> List[List[float]]:
    return [[probe.scaled(*iv) for iv in p] for p in passes]


def per_op_median(passes: List[List[float]]) -> List[float]:
    """Each op's median latency over the passes."""
    return [statistics.median(lat) for lat in zip(*passes)]


def untraced_run(wl: Workload, seed: int, refs: Dict[str, str], seconds: float):
    """Set-up and untraced passes under the speed probe.  Returns the
    runner, the end-to-end metrics, the pass count and the unscaled
    wall-clock time of a pass."""
    with hostspeed.SpeedProbe() as probe:
        lib, cases, setup = set_up(wl, seed, refs)
        runner = Runner(wl, lib, cases)
        passes = list(runner.run_passes(seconds))
    per_op = per_op_median(scaled(probe, passes))
    raw = per_op_median([[t1 - t0 - probe.own_time(t0, t1) for t0, t1 in p]
                         for p in passes])
    metrics = {
        "setup_s": statistics.median(probe.scaled(*iv) for iv in setup),
        "wall_s": sum(per_op),
        "op_s_p50": statistics.median(per_op),
        "op_s_p90": statistics.quantiles(per_op, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return runner, metrics, len(passes), sum(raw)


def traced_run(wl: Workload, seed: int, refs: Dict[str, str], seconds: float,
               trace_path: Path):
    """Set-up, then untraced and traced passes in turn, under the speed
    probe, until ``seconds`` would be exceeded.  Per-layer metrics are
    medians over the traced passes.  Returns the runner, the metrics and the
    traced pass count."""
    lib, cases, _ = set_up(wl, seed, refs)
    runner = Runner(wl, lib, cases)
    tracer = tracing.Tracer()
    plain, traced, spans, counts = [], [], [], []
    start = time.perf_counter()
    with hostspeed.SpeedProbe() as probe:
        while True:
            plain.append(runner.run_pass())
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.restore()
            spans.append(tracer.spans)
            counts.append(tracer.counts)
            tracer.reset()
            if time.perf_counter() - start + sum(durations(plain[-1])) + \
                    sum(durations(traced[-1])) > seconds:
                break
    tracing.write_spans(trace_path, spans)
    per_pass = [tracing.layer_metrics(s, c, probe) for s, c in zip(spans, counts)]
    out = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
    out["trace.overhead_s"] = sum(per_op_median(scaled(probe, traced))) - \
        sum(per_op_median(scaled(probe, plain)))
    return runner, out, len(traced)


def metric_units(trace: int) -> Dict[str, str]:
    """Names and units of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pfdimers" / "__init__.py").is_file():
        print(f"pfdimers sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    refs = json.loads((HERE / REFERENCE_FILE).read_text())
    wl = WORKLOADS[args.workload]

    trace_file = raw_wall_s = None
    if args.trace:
        trace_file = ROOT / ".bench_out" / f"spans_{wl.name}_seed{args.seed}.tsv"
        runner, metrics, passes = traced_run(wl, args.seed, refs, args.seconds, trace_file)
    else:
        runner, metrics, passes, raw_wall_s = untraced_run(wl, args.seed, refs,
                                                           args.seconds)
    units = metric_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "differ from BENCHMARK.json")

    for label, err in runner.failures[:5]:
        print(f"FAILED {label}: {err}", file=sys.stderr)
    failed = len(runner.failures)
    info = {
        "workload": wl.name, "seed": args.seed,
        "seed_used": wl.seeded, "trace": args.trace, "seconds": args.seconds,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "threads": None, "setup_repeats": SETUP_REPEATS,
        "ops_per_pass": len(runner.cases), "passes": passes,
        "op_samples": len(runner.cases) * passes,
        "fail_ratio": failed / runner.attempted, "raw_wall_s": raw_wall_s,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
