"""Smoke tests for the command-line scripts under ``scripts/``."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

from conftest import kept_records

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    # the benchmark's tracer wraps these functions by name; a rename in the
    # package must fail here, not only in a traced benchmark run
    tracing = _load_script("tracing", SCRIPTS.parent / "perfbench")
    assert tracing.LAYERS
    for layer, (module_name, names) in tracing.LAYERS.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), (layer, module_name, name)


def test_random_agreement_sweep(monkeypatch, capsys):
    # every route against the oracle on 20 random lattices and maps
    script = _load_script("random_agreement")
    monkeypatch.setattr(sys, "argv",
                        ["random_agreement.py", "--trials", "20", "--seed", "1"])
    assert script.main() == 0
    assert "20 trials agree exactly" in capsys.readouterr().out


def test_run_lattice_examples_agree(monkeypatch):
    # every route and the oracle on the four reference surfaces; the rp2
    # Pfaffian is real at 4x4 but not at 3x4, where the odd-chi weight 1 - i
    # of the practical route tells Re + Im from Re - Im
    script = _load_script("run_lattice_examples")
    for size in ("4x4", "3x4"):
        monkeypatch.setattr(sys, "argv", ["run_lattice_examples.py", "--size", size])
        assert script.main() == 0


def test_random_agreement_names_a_map_with_bad_prepared_data(monkeypatch, capsys):
    from dataclasses import replace

    script = _load_script("random_agreement")
    good = script.cycle_basis

    def swapped_duals(m):
        # reversed duals are still cocycles, but not dual to their cycles
        basis = good(m)
        return replace(basis, dual_cochains=basis.dual_cochains[::-1])

    monkeypatch.setattr(script, "cycle_basis", swapped_duals)
    monkeypatch.setattr(sys, "argv",
                        ["random_agreement.py", "--trials", "20", "--seed", "1"])
    assert script.main() == 1
    assert capsys.readouterr().out.startswith(
        "BAD PREPARED DATA at trial 0 (torus lattice, 8 vertices, 16 edges): "
        "phi_0 is not dual to the basis cycles")


def test_random_agreement_names_a_map_where_pin_and_spin_terms_differ(monkeypatch, capsys):
    from dataclasses import replace

    script = _load_script("random_agreement")
    good = script.partition_orientable_spin

    def dropped_term(m, **kwargs):
        # the same value with one class term fewer
        res = good(m, **kwargs)
        return replace(res, terms=res.terms[1:])

    monkeypatch.setattr(script, "partition_orientable_spin", dropped_term)
    monkeypatch.setattr(sys, "argv",
                        ["random_agreement.py", "--trials", "20", "--seed", "1"])
    assert script.main() == 1
    assert capsys.readouterr().out == (
        "TERMS DIFFER at trial 0 (torus lattice, 8 vertices, 16 edges): "
        "pin and spin (exact)\n")


def test_random_agreement_names_a_map_where_dyadic_weights_disagree(monkeypatch, capsys):
    script = _load_script("random_agreement")
    good = script.partition_bruteforce

    def off_on_float_weights(m):
        # the oracle one off on the copies with float weights alone
        z = good(m)
        return z + 1 if any(type(e.weight) is float for e in m.edges) else z

    monkeypatch.setattr(script, "partition_bruteforce", off_on_float_weights)
    monkeypatch.setattr(sys, "argv",
                        ["random_agreement.py", "--trials", "20", "--seed", "1"])
    assert script.main() == 1
    assert capsys.readouterr().out.startswith(
        "DISAGREEMENT at trial 0 (torus lattice, 8 vertices, 16 edges): "
        "pin on dyadic float weights (exact) = ")


def test_random_agreement_names_a_map_with_corrupted_kept_pfaffians(monkeypatch, capsys):
    script = _load_script("random_agreement")
    good = script.partition_general_pin

    def corrupting_pin(m, **kwargs):
        # negate the first class Pfaffian of every set pin keeps on the map;
        # spin on the same untwisted map reads them, a fresh copy does not
        res = good(m, **kwargs)
        for key, (pfs, scale, strs) in kept_records(m, "classes").items():
            m.__dict__["_kept"][key] = ((-pfs[0],) + pfs[1:], scale, strs)
        return res

    monkeypatch.setattr(script, "partition_general_pin", corrupting_pin)
    monkeypatch.setattr(sys, "argv",
                        ["random_agreement.py", "--trials", "20", "--seed", "1"])
    assert script.main() == 1
    assert capsys.readouterr().out.startswith(
        "KEPT DATA DIFFERS at trial 0 (torus lattice, 8 vertices, 16 edges): spin (exact) = ")


def test_random_agreement_names_a_map_with_corrupted_kept_terms(monkeypatch, capsys):
    script = _load_script("random_agreement")
    good = script.partition_general_pin

    def corrupting_pin(m, **kwargs):
        # alter the first class term string of every set pin keeps on the map;
        # spin on the same untwisted map prints them, a fresh copy does not
        res = good(m, **kwargs)
        for key, (pfs, scale, strs) in kept_records(m, "classes").items():
            m.__dict__["_kept"][key] = (pfs, scale, ("-" + strs[0],) + strs[1:])
        return res

    monkeypatch.setattr(script, "partition_general_pin", corrupting_pin)
    monkeypatch.setattr(sys, "argv",
                        ["random_agreement.py", "--trials", "20", "--seed", "1"])
    assert script.main() == 1
    assert capsys.readouterr().out.startswith(
        "KEPT DATA DIFFERS at trial 0 (torus lattice, 8 vertices, 16 edges): spin (exact) = ")


def test_random_agreement_names_a_map_where_k_is_not_normalized(monkeypatch, capsys):
    from dataclasses import replace

    partition_module = sys.modules["pfdimers.partition"]
    good = partition_module.normalize_orientation

    def skips_last(m, K, basis):
        # leaves K's parity on the last basis cycle as it comes
        return good(m, K, replace(basis, cycles=basis.cycles[:-1]))

    monkeypatch.setattr(partition_module, "normalize_orientation", skips_last)
    script = _load_script("random_agreement")
    monkeypatch.setattr(sys, "argv",
                        ["random_agreement.py", "--trials", "20", "--seed", "0"])
    assert script.main() == 1
    assert capsys.readouterr().out == (
        "DISAGREEMENT at trial 16 (klein_hexagon lattice, 8 vertices, 16 edges): "
        "practical (exact) = 29111/600, oracle = 30271/600\n")


def test_random_agreement_names_a_route_served_with_the_wrong_sign(monkeypatch, capsys):
    # readings lose their parity bit: every served class takes sign +1, not (-1)^|x|
    partition_module = sys.modules["pfdimers.partition"]
    good = partition_module._reading
    monkeypatch.setattr(partition_module, "_reading", lambda *args: good(*args) & ~1)
    script = _load_script("random_agreement")
    monkeypatch.setattr(sys, "argv",
                        ["random_agreement.py", "--trials", "20", "--seed", "1"])
    assert script.main() == 1
    assert capsys.readouterr().out == (
        "KEPT DATA DIFFERS at trial 3 (untwisted random map, 6 vertices, 15 edges): "
        "practical (exact) = 3, on a fresh copy 13\n")


def test_random_agreement_names_a_route_served_without_conjugation(monkeypatch, capsys):
    # a class known only across omega takes the Pfaffian there unconjugated;
    # the sweep names the exact route whose sum is then not real
    from pfdimers.exactnum import GaussianRational

    monkeypatch.setattr(GaussianRational, "conjugate", lambda pf: pf)
    script = _load_script("random_agreement")
    monkeypatch.setattr(sys, "argv",
                        ["random_agreement.py", "--trials", "20", "--seed", "1"])
    assert script.main() == 1
    assert capsys.readouterr().out == (
        "ROUTE RAISES at trial 5 (random map, 2 vertices, 6 edges): "
        "pin: NonRealResult: pin sum is not real: 3 + 3i\n")


def test_random_agreement_names_a_route_whose_result_follows_the_call_order(monkeypatch, capsys):
    # a slot that a practical route makes known reads doubled in every other
    # route.  In order, pin makes every class known before practical runs;
    # on the reversed copy a practical route runs first, and spin reads its slots
    partition_module = sys.modules["pfdimers.partition"]
    good_practical, good_known, running = partition_module._practical, partition_module._Known, []

    def flagged(*args):
        running.append(True)
        try:
            return good_practical(*args)
        finally:
            running.pop()

    class Tagged(list):
        """Slots that remember which classes a practical route wrote."""

        def __init__(self, slots):
            super().__init__(slots)
            self.tagged = set()

        def __setitem__(self, c, slot):
            if running:
                self.tagged.add(c)
            super().__setitem__(c, slot)

        def __getitem__(self, c):
            slot = super().__getitem__(c)
            return (slot[0], slot[1] + slot[1]) if c in self.tagged and not running else slot

    class TaggingKnown(good_known):
        def __init__(self, *args):
            super().__init__(*args)
            self.slots = Tagged(self.slots)

    monkeypatch.setattr(partition_module, "_practical", flagged)
    monkeypatch.setattr(partition_module, "_Known", TaggingKnown)
    script = _load_script("random_agreement")
    monkeypatch.setattr(sys, "argv",
                        ["random_agreement.py", "--trials", "20", "--seed", "1"])
    assert script.main() == 1
    assert capsys.readouterr().out == (
        "ORDER CHANGES RESULT at trial 0 (torus lattice, 8 vertices, 16 edges): spin\n")


def test_random_agreement_fails_a_run_that_misses_a_prime_width(monkeypatch, capsys):
    # four trials draw two wide-weight copies: one of the three widths never occurs
    script = _load_script("random_agreement")
    monkeypatch.setattr(sys, "argv", ["random_agreement.py", "--trials", "4", "--seed", "0"])
    assert script.main() == 1
    assert capsys.readouterr().out == (
        "MISSED A PRIME WIDTH: wide-weight routes 1 floor, 1 sized, 0 above\n")
