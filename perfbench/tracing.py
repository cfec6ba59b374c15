"""Spans around the public functions of the pfdimers layers.

The tracer replaces a function in every ``pfdimers`` module namespace that
holds it, so each calling module sees the wrapper: ``partition`` calls
``pfaffian`` through its own import, ``graphfile`` imports
``basis_from_cycles`` at module import while ``partition._basis_for_curves``
imports it at call time from ``homology``.  The package attribute
``pfdimers.partition`` is the function, so modules are reached through
``sys.modules``.  ``restore`` puts every original back.

A span is (parent, layer, name, start_ns, end_ns); spans are kept in memory
and written out at the end of a run.  A layer's self time is the duration of
its spans minus the time their child spans cover.
"""

from __future__ import annotations

import sys
import time
import warnings
from collections import Counter
from typing import Callable, Dict, List, Tuple

Span = Tuple[int, str, str, int, int]

# layer -> (defining module, public functions wrapped)
LAYERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "graphfile": ("pfdimers.graphfile", ("load",)),
    "surface_graph": ("pfdimers.surface_graph",
                      ("build_map", "trace_faces", "classify", "untwist")),
    "homology": ("pfdimers.homology", ("cycle_basis", "basis_from_cycles")),
    "kasteleyn": ("pfdimers.kasteleyn", ("construct_kasteleyn", "enumerate_classes")),
    "spin_quadratic": ("pfdimers.spin_quadratic",
                       ("basis_enhancement", "normalize_qB", "matching_sign",
                        "n_mismatch", "arf", "brown")),
    "pfaffian": ("pfdimers.pfaffian", ("build_adjacency", "pfaffian")),
    "oracle": ("pfdimers.oracle", ("find_matching", "partition_bruteforce")),
    "partition": ("pfdimers.partition",
                  ("partition", "partition_orientable_practical",
                   "partition_orientable_spin", "partition_general_pin",
                   "partition_nonorientable_practical")),
}

# The op span is the root of each op's tree; its self time (parsing aside,
# the Z check) is charged to the partition layer with the route functions.
OP_LAYER = "op"


class Tracer:
    """Records spans and counters; ``install`` wraps the layers' functions."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, Callable]] = []
        self._saved_warning_state = None

    # -- spans ------------------------------------------------------------

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append((-1, layer, name, 0, 0))
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (parent, layer, name, t0, t1)

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    # -- installing and removing wrappers ---------------------------------

    def install(self) -> None:
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "pfdimers" or key.startswith("pfdimers.")]
        for layer, (module_name, names) in LAYERS.items():
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrapper(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        self._count_warnings(sys.modules["pfdimers.errors"].IllConditionedWarning)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []
        if self._saved_warning_state is not None:
            warnings.filters[:], warnings.showwarning = self._saved_warning_state
            self._saved_warning_state = None

    def _count_warnings(self, category: type) -> None:
        self._saved_warning_state = (list(warnings.filters), warnings.showwarning)
        shown = warnings.showwarning

        def showwarning(message, cat, *args, **kwargs):
            if issubclass(cat, category):
                self.counts["pfaffian.warnings"] += 1
            else:
                shown(message, cat, *args, **kwargs)

        warnings.simplefilter("always", category)
        warnings.showwarning = showwarning

    def _wrapper(self, layer: str, name: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            result = self.call(layer, name, fn, *args, **kwargs)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


# -- counters recorded at the layer boundaries ----------------------------

def _observe_pfaffian(counts: Counter, args, kwargs, result) -> None:
    matrix = args[0] if args else kwargs["matrix"]
    n = matrix.dimension
    counts["pfaffian.evals"] += 1
    counts["pfaffian.ops"] += n ** 3 / 3
    counts["pfaffian.dim_max"] = max(counts["pfaffian.dim_max"], n)
    zero = result.is_zero() if matrix.exact else result == 0
    counts["pfaffian.zeros"] += zero


def _observe_classes(counts: Counter, args, kwargs, result) -> None:
    counts["kasteleyn.classes"] += len(result)


def _observe_gauss(counts: Counter, args, kwargs, result) -> None:
    q = args[0] if args else kwargs["q"]
    counts["spin_quadratic.gauss_terms"] += 2 ** q.rank


def _observe_partition(counts: Counter, args, kwargs, result) -> None:
    method = args[1] if len(args) > 1 else kwargs.get("method", "auto")
    if method == "auto" and result.method == "pin":
        counts["partition.fallbacks"] += 1


_OBSERVERS = {
    "pfaffian": _observe_pfaffian,
    "enumerate_classes": _observe_classes,
    "arf": _observe_gauss,
    "brown": _observe_gauss,
    "partition": _observe_partition,
}


# -- per-layer metrics ----------------------------------------------------

def self_times(spans: List[Span], probe=None) -> List[float]:
    """Self time of every span in seconds: duration minus child durations.
    With a ``hostspeed.SpeedProbe``, the probe's own time is taken out and
    each duration is scaled to the reference host speed."""
    if probe is None:
        net = [(t1 - t0) / 1e9 for _, _, _, t0, t1 in spans]
    else:
        net = [probe.scaled(t0 / 1e9, t1 / 1e9) for _, _, _, t0, t1 in spans]
    child = [0.0] * len(spans)
    for (parent, _, _, _, _), d in zip(spans, net):
        if parent >= 0:
            child[parent] += d
    return [d - c for d, c in zip(net, child)]


def layer_metrics(spans: List[Span], counts: Counter, probe=None) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    selfs = self_times(spans, probe)
    time_by: Counter = Counter()
    calls_by: Counter = Counter()
    for (_, layer, name, _, _), s in zip(spans, selfs):
        key = "partition" if layer == OP_LAYER else layer
        time_by[key] += s
        calls_by[key] += layer != OP_LAYER
        if layer == "pfaffian":
            time_by["pfaffian." + ("eval" if name == "pfaffian" else "build")] += s
    out: Dict[str, float] = {}
    for layer in ("graphfile", "surface_graph", "homology", "kasteleyn",
                  "spin_quadratic", "oracle"):
        out[f"{layer}.s"] = time_by[layer]
        out[f"{layer}.calls"] = calls_by[layer]
    evals = counts["pfaffian.evals"]
    out.update({
        "kasteleyn.classes": counts["kasteleyn.classes"],
        "spin_quadratic.gauss_terms": counts["spin_quadratic.gauss_terms"],
        "pfaffian.build_s": time_by["pfaffian.build"],
        "pfaffian.eval_s": time_by["pfaffian.eval"],
        "pfaffian.calls": evals,
        "pfaffian.dim_max": counts["pfaffian.dim_max"],
        "pfaffian.ops": counts["pfaffian.ops"],
        "pfaffian.zero_ratio": counts["pfaffian.zeros"] / evals if evals else 0.0,
        "pfaffian.warnings": counts["pfaffian.warnings"],
        "partition.self_s": time_by["partition"],
        "partition.fallbacks": counts["partition.fallbacks"],
    })
    return out


def write_spans(path, passes: List[List[Span]]) -> None:
    """One tab-separated line per span: pass, id, parent, layer, name,
    start and end in nanoseconds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("pass\tid\tparent\tlayer\tname\tstart_ns\tend_ns\n")
        for p, spans in enumerate(passes):
            for sid, (parent, layer, name, t0, t1) in enumerate(spans):
                fh.write(f"{p}\t{sid}\t{parent}\t{layer}\t{name}\t{t0}\t{t1}\n")

