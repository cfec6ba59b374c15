"""Command-line front end.

Subcommands: gen, orient, invariants, partition, oracle, verify.  Graph
files travel on stdin/stdout by default, so pipelines like

    pfdimers gen --surface klein_hexagon --size 5x6 | pfdimers partition

work out of the box.  ``--format kv`` emits stable machine-readable
``key value`` lines.  Exit codes: 0 success, 1 usage or parse error,
2 computation error.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from fractions import Fraction

from . import graphfile
from .errors import MalformedFile, PfdimersError
from .exactnum import rational_str
from .generators import SURFACES, lattice
from .homology import cycle_basis
from .kasteleyn import construct_kasteleyn, curvature_report
from .oracle import VERTEX_BOUND, _weighted_matchings, find_matching, homology_buckets
from .partition import (_eps_label, _oracle, partition, partition_general_pin,
                        partition_orientable_spin)
from .pfaffian import _class_matrices, pfaffian
from .spin_quadratic import _enhancement, arf, brown, normalize_qB, shifted_browns
from .surface_graph import classify, is_orientable, odd_join


def _load(args):
    if args.file == "-":
        return graphfile.load(sys.stdin)
    with open(args.file) as fh:
        return graphfile.load(fh)


def _text(v) -> str:
    return rational_str(v) if isinstance(v, (int, Fraction)) else str(v)


def _emit(args, pairs, plain_lines) -> None:
    if args.format == "kv":
        for k, v in pairs:
            print(f"{k} {_text(v)}")
    else:
        for line in plain_lines:
            print(line)


def cmd_gen(args) -> int:
    try:
        mm, nn = args.size.lower().split("x")
        inst = lattice(int(mm), int(nn), args.surface)
    except (ValueError, PfdimersError) as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return 1
    if args.out == "-":
        graphfile.dump(inst, sys.stdout)
    else:
        with open(args.out, "w") as fh:
            graphfile.dump(inst, fh)
    return 0


def cmd_orient(args) -> int:
    inst = _load(args)
    m = inst.map
    K = construct_kasteleyn(m)
    report = curvature_report(m, K)
    name = classify(m).name
    pairs = [("vertices", m.vertex_count), ("edges", m.edge_count),
             ("surface", name.replace(" ", "_"))]
    plain = [f"admissible orientation on {name}"]
    for e in range(m.edge_count):
        a, b = K.arrow(m, e)
        pairs.append((f"edge.{e}", f"{a}->{b}"))
        plain.append(f"edge {e}: {a} -> {b}")
    pairs.append(("curvature", "".join(str(c) for c in report.per_face)))
    plain.append(f"curvature bits: {''.join(str(c) for c in report.per_face)}")
    _emit(args, pairs, plain)
    return 0


def cmd_invariants(args) -> int:
    inst = _load(args)
    m = inst.map
    basis = inst.basis if inst.basis is not None else cycle_basis(m)
    K = None if m.vertex_count % 2 else construct_kasteleyn(m)
    # Z > 0 sums the class Pfaffians, each a signed matching sum, so one is nonzero
    # iff m has a perfect matching; a nonzero residue mod a prime proves it nonzero
    classes = [] if K is None else _class_matrices(m, K, basis.dual_cochains, "exact")
    if not any(c.route.floor_residue(c.flips) for c in classes) and not any(map(pfaffian, classes)):
        print("no perfect matching; invariants undefined", file=sys.stderr)
        return 2
    surface = classify(m)
    pairs = [("b1", basis.rank), ("surface", surface.name.replace(" ", "_"))]
    plain = [f"surface: {surface.name}, b1 = {basis.rank}"]
    J = odd_join(m)  # q_B is the same for it as for every matching
    qB = normalize_qB(m, _enhancement(m, K, J, basis), J, basis)
    browns = shifted_browns(qB, brown(qB))
    if surface.orientable:
        arf(qB)  # its NotOrientableForm checks hold for all classes; arf = brown / 4
    for idx, b in enumerate(browns):
        label = _eps_label(idx, basis.rank)
        q = qB.shifted([(idx >> j) & 1 for j in range(basis.rank)])
        vals = ",".join(str(v) for v in q.basis_values)
        pairs.append((f"q.{label}", vals))
        pairs.append((f"brown.{label}", b))
        plain.append(f"class {label}: q = ({vals}), brown = {b}")
        if surface.orientable:
            a = b // 4
            pairs.append((f"arf.{label}", a))
            plain.append(f"class {label}: arf = {a}")
    _emit(args, pairs, plain)
    return 0


def cmd_partition(args) -> int:
    inst = _load(args)
    res = partition(inst.map, method=args.method,
                    curves=inst.curves or None, basis=inst.basis,
                    backend=args.backend)
    surface = classify(inst.map)
    pairs = [("Z", res.value), ("method", res.method),
             ("b1", surface.b1), ("surface", surface.name.replace(" ", "_"))]
    for label, pf in res.terms:
        pairs.append((f"pf.{label}", pf))
    _emit(args, pairs, [_text(res.value)])
    return 0


def cmd_oracle(args) -> int:
    inst = _load(args)
    z, n, scale = 0, 0, 1
    for _, w, scale in _weighted_matchings(inst.map, args.max_vertices):
        z, n = z + w, n + 1
    z = Fraction(z, scale)
    pairs = [("Z", z), ("matchings", n), ("method", "oracle")]
    plain = [f"Z = {_text(z)} ({n} matchings)"]
    if args.buckets and n:
        basis = inst.basis if inst.basis is not None else cycle_basis(inst.map)
        D0 = find_matching(inst.map, max_vertices=args.max_vertices)
        buckets = homology_buckets(inst.map, D0, basis, max_vertices=args.max_vertices)
        for coords, val in sorted(buckets.items()):
            label = "".join(str(c) for c in coords) or "0"
            pairs.append((f"bucket.{label}", val))
            plain.append(f"bucket {label}: {val}")
    _emit(args, pairs, plain)
    return 0


def cmd_verify(args) -> int:
    inst = _load(args)
    m = inst.map
    results = {}
    results["pin"] = partition_general_pin(m, basis=inst.basis, backend=args.backend)
    orientable = is_orientable(m)
    if orientable or inst.curves and all(cv.companion is not None for cv in inst.curves):
        results["practical"] = partition(m, "practical", curves=inst.curves or None,
                                         basis=inst.basis, backend=args.backend)
    if orientable:
        results["spin"] = partition_orientable_spin(m, basis=inst.basis, backend=args.backend)
    if m.vertex_count <= args.max_vertices:
        results["oracle"] = _oracle(m, args.backend, args.max_vertices)
    ok = all(_close(r, results["pin"]) for r in results.values())
    pairs = [(k, v.value) for k, v in sorted(results.items())]
    pairs.append(("agree", "yes" if ok else "no"))
    plain = [f"{k}: Z = {_text(v.value)}" for k, v in sorted(results.items())]
    plain.append("all methods agree" if ok else "METHOD DISAGREEMENT")
    _emit(args, pairs, plain)
    return 0 if ok else 2


def _close(a, b) -> bool:
    if a.exact and b.exact:
        return a.value == b.value
    return abs(float(a) - float(b)) <= 1e-9 * (1 + abs(float(b)))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pfdimers", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_backend=True):
        p.add_argument("file", nargs="?", default="-",
                       help="graph file, or - for stdin")
        p.add_argument("--format", choices=("plain", "kv"), default="plain")
        if with_backend:
            p.add_argument("--backend", choices=("exact", "float"), default="exact")

    p = sub.add_parser("gen", help="generate a lattice instance")
    p.add_argument("--surface", required=True, choices=SURFACES)
    p.add_argument("--size", required=True, help="MxN, e.g. 5x6")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("orient", help="print an admissible orientation")
    add_common(p, with_backend=False)
    p.set_defaults(fn=cmd_orient)

    p = sub.add_parser("invariants", help="enhancement table per class")
    add_common(p, with_backend=False)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("partition", help="compute the partition function")
    add_common(p)
    p.add_argument("--method", default="auto",
                   choices=("auto", "practical", "pin", "spin", "oracle"))
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("oracle", help="brute-force matching enumeration")
    add_common(p, with_backend=False)
    p.add_argument("--max-vertices", type=int, default=VERTEX_BOUND)
    p.add_argument("--buckets", action="store_true")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="cross-method agreement on one file")
    add_common(p)
    p.add_argument("--max-vertices", type=int, default=VERTEX_BOUND)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, category, *_: print(  # no source line
            f"{category.__name__}: {message}", file=sys.stderr)
        try:
            return args.fn(args)
        except MalformedFile as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 1
        except PfdimersError as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
