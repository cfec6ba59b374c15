"""The benchmark's workloads: instance generation, the op, and the Z check.

An op takes one instance from graph-file text to a checked Z: it parses the
text ``graphfile.dump`` wrote during set-up, runs the route(s) the workload
names, and compares the result with a reference.  Every library function is
looked up through its module at call time, so a tracer that replaces module
attributes sees each call.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

REFERENCE_FILE = "reference_z.json"

# Dimer counts quoted in the paper for the 5x6 square lattice.
PAPER_COUNTS = {("planar", "5x6"): 1183, ("torus", "5x6"): 9922,
                ("klein_hexagon", "5x6"): 20072}

# Unit-weight lattices whose exact Z is pinned in REFERENCE_FILE.
LATTICE_SPECS = {
    "lattice_exact": [("torus", "10x10"), ("klein_hexagon", "10x10"), ("rp2", "10x10")],
    "lattice_float": [("torus", "20x20"), ("klein_hexagon", "20x20"), ("rp2", "20x20"),
                      ("rp2", "24x24")],
}

FLOAT_REL_TOL = Fraction(1, 10**9)
# verify_small alternates a lattice with random rational weights and a
# random twisted map.  The lattice shapes (every shape random_lattice draws
# with V <= 14) and the map (V, b1) strata cycle in a fixed order, and the
# seed draws the weights and the maps, so the op mix is the same for every
# seed.
VERIFY_OPS = 232
VERIFY_LATTICES = [(s, r, c) for s in ("planar", "torus", "klein_hexagon", "rp2")
                   for r in (2, 3, 4) for c in (2, 3, 4)
                   if r * c <= 14 and not (s == "klein_hexagon" and c % 2)]
VERIFY_MAPS = [(v, b1) for b1 in (1, 2, 3) for v in (2, 3, 4, 5, 6)]
# (twisted, b1, V) of each pin_high_genus instance: half untwisted (orientable,
# so spin and pin both run), half twisted and non-orientable (pin only).  A
# fixed stratum list keeps the cost of a pass nearly the same for every seed.
PIN_STRATA = [(False, 8, 2), (False, 8, 4), (False, 8, 6),
              (True, 7, 6), (True, 8, 4), (True, 8, 6)]


@dataclass(frozen=True)
class Case:
    label: str
    text: str                   # graph file written by graphfile.dump
    expect: Optional[Fraction]  # reference Z; None when routes check each other


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool
    make: Callable[[SimpleNamespace, int, Dict[str, str]], List[Case]]
    op: Callable[[SimpleNamespace, Case], bool]


def instance_key(surface: str, size: str) -> str:
    return f"{surface} {size}"


def _dump(lib: SimpleNamespace, inst) -> str:
    buf = io.StringIO()
    lib.graphfile.dump(inst, buf)
    return buf.getvalue()


def _load(lib: SimpleNamespace, case: Case):
    return lib.graphfile.load(io.StringIO(case.text))


def _lattice_case(lib, surface: str, size: str, expect: int | str) -> Case:
    m, n = (int(t) for t in size.split("x"))
    inst = lib.generators.lattice(m, n, surface)
    return Case(instance_key(surface, size), _dump(lib, inst), Fraction(expect))


def _auto(lib, case: Case, backend: str):
    inst = _load(lib, case)
    return lib.partition.partition(inst.map, "auto", curves=inst.curves or None,
                                   basis=inst.basis, backend=backend).value


# ---------------------------------------------------------------------------
# lattice_exact / lattice_float: unit weights, seed-independent
# ---------------------------------------------------------------------------

def make_lattice_exact(lib, seed: int, refs: Dict[str, str]) -> List[Case]:
    cases = [_lattice_case(lib, s, size, z) for (s, size), z in PAPER_COUNTS.items()]
    cases += [_lattice_case(lib, s, size, refs[instance_key(s, size)])
              for s, size in LATTICE_SPECS["lattice_exact"]]
    return cases


def op_lattice_exact(lib, case: Case) -> bool:
    return _auto(lib, case, "exact") == case.expect


def make_lattice_float(lib, seed: int, refs: Dict[str, str]) -> List[Case]:
    return [_lattice_case(lib, s, size, refs[instance_key(s, size)])
            for s, size in LATTICE_SPECS["lattice_float"]]


def op_lattice_float(lib, case: Case) -> bool:
    z = Fraction(_auto(lib, case, "float"))
    return abs(z - case.expect) <= FLOAT_REL_TOL * case.expect


# ---------------------------------------------------------------------------
# verify_small: every route against the oracle on tiny random instances
# ---------------------------------------------------------------------------

def draw_map(lib, rng: random.Random, vertices: int, b1: int, *,
             extra_edges: int = 4, twisted: bool = True, nonorientable: bool = False):
    """Rejection-sample ``random_map`` until it has exactly ``vertices``,
    first Betti number ``b1``, a perfect matching when ``vertices`` is even,
    and a non-orientable surface if asked."""
    while True:
        m = lib.generators.random_map(rng, max_vertices=vertices,
                                      extra_edges=extra_edges, twisted=twisted)
        if m.vertex_count != vertices:
            continue
        surface = lib.surface_graph.classify(m)
        if surface.b1 != b1 or (nonorientable and surface.orientable):
            continue
        if vertices % 2 or lib.oracle.find_matching(m) is not None:
            return m


def make_verify_small(lib, seed: int, refs: Dict[str, str]) -> List[Case]:
    rng = random.Random(seed)
    gen = lib.generators
    cases = []
    for i in range(VERIFY_OPS):
        k = i // 2
        if i % 2 == 0:
            surface, rows, cols = VERIFY_LATTICES[k % len(VERIFY_LATTICES)]
            count = gen.lattice(rows, cols, surface).map.edge_count
            inst = gen.lattice(rows, cols, surface,
                               weights=gen.random_weights(rng, count))
        else:
            m = draw_map(lib, rng, *VERIFY_MAPS[k % len(VERIFY_MAPS)])
            inst = gen.LatticeInstance(m, lib.surface_graph.classify(m).name, (), None)
        cases.append(Case(f"{inst.surface} #{i}", _dump(lib, inst), None))
    return cases


def op_verify_small(lib, case: Case) -> bool:
    inst = _load(lib, case)
    m, basis, curves = inst.map, inst.basis, inst.curves
    part = lib.partition
    z_ref = lib.oracle.partition_bruteforce(m)
    values = [part.partition_general_pin(m, basis=basis).value]
    if lib.surface_graph.classify(m).orientable:
        values.append(part.partition_orientable_practical(
            m, curves=curves or None, basis=basis).value)
        values.append(part.partition_orientable_spin(m, basis=basis).value)
    elif curves:
        values.append(part.partition_nonorientable_practical(
            m, curves, basis=basis).value)
    return all(v == z_ref for v in values)


# ---------------------------------------------------------------------------
# pin_high_genus: b1 in {7, 8}, where the Arf/Brown Gauss sums dominate
# ---------------------------------------------------------------------------

def make_pin_high_genus(lib, seed: int, refs: Dict[str, str]) -> List[Case]:
    rng = random.Random(seed)
    cases = []
    for twisted, b1, vertices in PIN_STRATA:
        m = draw_map(lib, rng, vertices, b1, extra_edges=10, twisted=twisted,
                     nonorientable=twisted)
        inst = lib.generators.LatticeInstance(m, lib.surface_graph.classify(m).name,
                                              (), None)
        label = f"{'twisted' if twisted else 'untwisted'} b1={b1} V={vertices}"
        cases.append(Case(label, _dump(lib, inst), lib.oracle.partition_bruteforce(m)))
    return cases


def op_pin_high_genus(lib, case: Case) -> bool:
    m = _load(lib, case).map
    z = lib.partition.partition_general_pin(m).value
    if z != case.expect:
        return False
    return m.twist_bits() != 0 or lib.partition.partition_orientable_spin(m).value == z


WORKLOADS = {w.name: w for w in (
    Workload("lattice_exact", False, make_lattice_exact, op_lattice_exact),
    Workload("lattice_float", False, make_lattice_float, op_lattice_float),
    Workload("verify_small", True, make_verify_small, op_verify_small),
    Workload("pin_high_genus", True, make_pin_high_genus, op_pin_high_genus),
)}
