"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import PIN_STRATA, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def lib():
    return run.import_library()


def texts(lib, name, seed):
    return [c.text for c in WORKLOADS[name].make(lib, seed, {})]


@pytest.mark.parametrize("name", ["verify_small", "pin_high_genus"])
def test_same_seed_gives_identical_texts(lib, name):
    assert texts(lib, name, 3) == texts(lib, name, 3)
    assert texts(lib, name, 3) != texts(lib, name, 4)


def test_lattice_workloads_ignore_the_seed(lib):
    refs = json.loads((HERE / "reference_z.json").read_text())
    for name in ("lattice_exact", "lattice_float"):
        wl = WORKLOADS[name]
        assert not wl.seeded
        assert [c.text for c in wl.make(lib, 1, refs)] == \
            [c.text for c in wl.make(lib, 2, refs)]


@pytest.mark.parametrize("seed", [0, 1])
def test_pin_filter_yields_even_v_and_b1_7_or_8(lib, seed):
    untwisted = 0
    for case in WORKLOADS["pin_high_genus"].make(lib, seed, {}):
        m = lib.graphfile.load(io.StringIO(case.text)).map
        surface = lib.surface_graph.classify(m)
        assert m.vertex_count % 2 == 0
        assert surface.b1 in (7, 8)
        if m.twist_bits():
            assert not surface.orientable
        else:
            untwisted += 1
    assert 2 * untwisted == len(PIN_STRATA)


def test_wrong_z_is_counted_not_raised(lib):
    wl = WORKLOADS["lattice_exact"]
    case = wl.make(lib, 0, {"torus 10x10": "1", "klein_hexagon 10x10": "1",
                            "rp2 10x10": "1"})[0]   # planar 5x6, 1183
    runner = run.Runner(wl, lib, [case, replace(case, expect=case.expect + 1)])
    runner.run_pass()
    assert runner.attempted == 2
    assert [label for label, _ in runner.failures] == [case.label]


def last_line(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    result = last_line(["--workload", "verify_small", "--seed", "0",
                        "--seconds", "0", "--trace", str(trace)])
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_self_times_sum_to_op_wall(lib):
    wl = WORKLOADS["verify_small"]
    runner = run.Runner(wl, lib, wl.make(lib, 5, {})[:40])
    untraced = sum(run.durations(runner.run_pass()))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = sum(run.durations(runner.run_pass(tracer)))
    finally:
        tracer.restore()
    assert not runner.failures
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    total_self = sum(v for k, v in metrics.items()
                     if k.endswith(".s") or k in ("pfaffian.build_s", "pfaffian.eval_s",
                                                  "partition.self_s"))
    overhead = traced - untraced
    assert 0 <= traced - total_self <= max(abs(overhead), 1e-3)
    assert {"op", "graphfile", "pfaffian", "homology", "oracle"} <= \
        {layer for _, layer, _, _, _ in tracer.spans}


def test_tracer_wraps_every_alias_and_restores_them(lib):
    part = sys.modules["pfdimers.partition"]
    package = sys.modules["pfdimers"]
    originals = {
        "partition.pfaffian": part.pfaffian,
        "graphfile.basis_from_cycles": lib.graphfile.basis_from_cycles,
        "homology.basis_from_cycles": sys.modules["pfdimers.homology"].basis_from_cycles,
        "pfdimers.partition": package.partition,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        current = {
            "partition.pfaffian": part.pfaffian,
            "graphfile.basis_from_cycles": lib.graphfile.basis_from_cycles,
            "homology.basis_from_cycles":
                sys.modules["pfdimers.homology"].basis_from_cycles,
            "pfdimers.partition": package.partition,
        }
        for key, fn in current.items():
            assert fn.__wrapped__ is originals[key], key
    finally:
        tracer.restore()
    for key, mod in sys.modules.items():
        if key.startswith("pfdimers"):
            assert not any(hasattr(v, "__wrapped__") and callable(v)
                           for v in vars(mod).values()), key
    assert part.pfaffian is originals["partition.pfaffian"]


def test_speed_probe_scales_and_removes_its_own_time():
    probe = hostspeed.SpeedProbe()
    probe.starts = [0.0, 1.0, 2.0]
    probe.durations = [2 * hostspeed.K_REF_S] * 3
    # [0.5, 1.5] holds the sample at 1.0; the host ran at half speed
    assert probe.own_time(0.5, 1.5) == 2 * hostspeed.K_REF_S
    assert probe.scaled(0.5, 1.5) == pytest.approx((1.0 - 2 * hostspeed.K_REF_S) / 2)


def test_speed_probe_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe() as probe:
        time.sleep(2.5 * hostspeed.PROBE_S)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.starts) >= 3
