from __future__ import annotations

import io
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from pfdimers import build_map, graphfile, lattice
from pfdimers.cli import _parser, main
from pfdimers.errors import MalformedFile
from pfdimers.exactnum import rational_str
from pfdimers.generators import SURFACES, LatticeInstance, random_map
from pfdimers.oracle import VERTEX_BOUND, find_matching
from pfdimers.partition import partition
from pfdimers.pfaffian import _FLOOR, _modulus, pfaffian
from pfdimers.surface_graph import classify


def _roundtrip(inst):
    buf = io.StringIO()
    graphfile.dump(inst, buf)
    buf.seek(0)
    return graphfile.load(buf)


def test_roundtrip_identity():
    for surf in ("planar", "torus", "klein_hexagon", "rp2"):
        inst = lattice(3, 4, surf)
        back = _roundtrip(inst)
        m1, m2 = inst.map, back.map
        assert m1.vertex_count == m2.vertex_count
        assert m1.rotations == m2.rotations
        assert [(e.u, e.v, e.twist) for e in m1.edges] == \
            [(e.u, e.v, e.twist) for e in m2.edges]
        assert len(back.curves) == len(inst.curves)
        for c1, c2 in zip(inst.curves, back.curves):
            assert (c1.kind, c1.cross, c1.companion, c1.crossing_edge) == \
                (c2.kind, c2.cross, c2.companion, c2.crossing_edge)


def test_dependent_companions_load_without_basis():
    # two curves sharing one companion cannot give a homology basis; the
    # file still loads, with its curves and no basis
    buf = io.StringIO()
    graphfile.dump(lattice(3, 4, "torus"), buf)
    lines = buf.getvalue().splitlines()
    first = next(ln for ln in lines if ln.startswith("companion 0 "))
    lines = [first.replace("companion 0 ", "companion 1 ")
             if ln.startswith("companion 1 ") else ln for ln in lines]
    inst = graphfile.load(io.StringIO("\n".join(lines) + "\n"))
    assert inst.basis is None
    assert len(inst.curves) == 2
    assert inst.curves[0].companion == inst.curves[1].companion


def test_malformed_file_messages():
    with pytest.raises(MalformedFile):
        graphfile.load(io.StringIO("vertices 2\nbogus 1\n"))
    with pytest.raises(MalformedFile):
        graphfile.load(io.StringIO("edge 0 0 1 0 1\n"))
    with pytest.raises(MalformedFile):
        graphfile.load(io.StringIO("vertices 2\nedge 5 0 1 0 1\n"))
    with pytest.raises(MalformedFile, match=r"line 2: cannot parse 'edge x 0 1 0 1'"):
        graphfile.load(io.StringIO("vertices 2\nedge x 0 1 0 1\n"))


def test_comment_and_blank_lines_are_skipped():
    plain = ["vertices 2", "edge 0 0 1 0 1", "rotation 0 0.0", "rotation 1 0.1"]
    noted = ["# a dimer", "", plain[0], "   # indented", *plain[1:3], "  ",
             plain[3] + "  # trailing"]
    a, b = (graphfile.load(io.StringIO("\n".join(lines) + "\n")).map for lines in (plain, noted))
    assert a.vertex_count == b.vertex_count == 2
    assert a.edges == b.edges and a.rotations == b.rotations and len(a.edges) == 1


def test_graph_file_weights_past_the_int_str_digit_limit(tmp_path, capsys):
    # integer and p/q weights of 5001 digits, past CPython's default
    # int-to-str limit of 4300, survive dump and load
    w = 10**5000
    inst = lattice(2, 2, "torus", weights=[w, Fraction(w + 1, 7)] * 4)
    path = tmp_path / "huge.txt"
    with open(path, "w") as fh:
        graphfile.dump(inst, fh)
    with open(path) as fh:
        back = graphfile.load(fh)
    assert back.map == inst.map
    z = partition(inst.map, "auto", curves=inst.curves, basis=inst.basis).value
    assert partition(back.map, "auto", curves=back.curves, basis=back.basis).value == z
    assert main(["partition", str(path)]) == 0
    assert capsys.readouterr().out == rational_str(z) + "\n"
    for tok in ("1/0", "1/-2", "1/+2", "1/2/3", "1.5/2", "+-1", "inf", "x12", "1__0", "0x10"):
        with pytest.raises(MalformedFile):
            graphfile.load(io.StringIO(f"vertices 2\nedge 0 0 1 0 {tok}\n"))


def test_fraction_weights_roundtrip(tmp_path):
    from fractions import Fraction

    inst = lattice(2, 2, "planar", weights=[Fraction(3, 2)] * 4)
    back = _roundtrip(inst)
    assert [e.weight for e in back.map.edges] == [Fraction(3, 2)] * 4


def test_cli_gen_partition_pipeline(tmp_path):
    path = tmp_path / "klein.graph"
    assert main(["gen", "--surface", "klein_hexagon", "--size", "3x4",
                 "--out", str(path)]) == 0
    out = subprocess.run(
        [sys.executable, "-m", "pfdimers.cli", "partition", str(path),
         "--method", "practical", "--backend", "exact", "--format", "kv"],
        capture_output=True, text=True)
    assert out.returncode == 0
    kv = dict(line.split(" ", 1) for line in out.stdout.strip().splitlines())
    assert kv["Z"] == "54"
    assert kv["method"] == "practical"
    assert kv["surface"] == "klein_bottle"
    assert kv["b1"] == "2"
    assert any(k.startswith("pf.") for k in kv)


def test_cli_warnings_print_without_their_source_line(tmp_path):
    # the float (+,+) torus class is singular by design; its warning reads
    # alike whatever the install path and the line that raised it
    import warnings

    path = tmp_path / "torus.graph"
    assert main(["gen", "--surface", "torus", "--size", "4x6", "--out", str(path)]) == 0
    shown = warnings.showwarning
    out = subprocess.run(
        [sys.executable, "-m", "pfdimers.cli", "partition", str(path),
         "--backend", "float", "--format", "kv"],
        capture_output=True, text=True)
    assert (out.returncode, out.stdout.splitlines()[0]) == (0, "Z 3108.0")
    assert out.stderr == "IllConditionedWarning: pivot below conditioning threshold\n"
    assert main(["verify", str(path), "--backend", "float"]) == 0
    assert warnings.showwarning is shown  # library calls keep the default display


def test_cli_pipe_stdin(tmp_path):
    gen = subprocess.run(
        [sys.executable, "-m", "pfdimers.cli", "gen", "--surface", "torus",
         "--size", "3x4"],
        capture_output=True, text=True)
    assert gen.returncode == 0
    part = subprocess.run(
        [sys.executable, "-m", "pfdimers.cli", "partition", "-",
         "--method", "pin"],
        input=gen.stdout, capture_output=True, text=True)
    assert part.returncode == 0
    assert part.stdout.strip() == "50"  # brute-force count for the 3x4 torus


def test_cli_verify(tmp_path):
    path = tmp_path / "rp2.graph"
    main(["gen", "--surface", "rp2", "--size", "2x3", "--out", str(path)])
    assert main(["verify", str(path)]) == 0


def test_parser_reads_the_library_constants():
    parser = _parser()
    for command in ("oracle", "verify"):
        assert parser.parse_args([command]).max_vertices == VERTEX_BOUND
    commands = next(a for a in parser._actions if a.dest == "command").choices
    surface = next(a for a in commands["gen"]._actions if a.dest == "surface")
    assert surface.choices == SURFACES


def test_cli_orient_and_invariants(tmp_path, capsys):
    path = tmp_path / "t.graph"
    main(["gen", "--surface", "torus", "--size", "2x2", "--out", str(path)])
    assert main(["orient", str(path)]) == 0
    capsys.readouterr()
    assert main(["invariants", str(path), "--format", "kv"]) == 0
    out = capsys.readouterr().out
    assert "brown." in out and "arf." in out


def test_cli_oracle_buckets(tmp_path, capsys):
    path = tmp_path / "k.graph"
    main(["gen", "--surface", "klein_hexagon", "--size", "2x4", "--out", str(path)])
    assert main(["oracle", str(path), "--buckets", "--format", "kv"]) == 0
    out = capsys.readouterr().out
    assert "Z 16" in out
    assert "bucket." in out


def test_cli_oracle_buckets_without_companions(tmp_path, capsys):
    # the buckets are then taken in the map's own cycle basis
    buf = io.StringIO()
    graphfile.dump(lattice(4, 4, "torus"), buf)
    path = tmp_path / "t.graph"
    path.write_text(re.sub(r"^companion .*\n", "", buf.getvalue(), flags=re.M))
    assert main(["oracle", str(path), "--buckets", "--format", "kv"]) == 0
    pairs = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    buckets = [Fraction(v) for k, v in pairs.items() if k.startswith("bucket.")]
    assert pairs["Z"] == "272"
    assert len(buckets) > 1 and sum(buckets) == 272


def test_cli_partition_with_one_curve_of_two(tmp_path, capsys):
    # without curve 1 the practical route takes the torus's own cycle basis
    buf = io.StringIO()
    graphfile.dump(lattice(4, 4, "torus"), buf)
    path = tmp_path / "t.graph"
    path.write_text(re.sub(r"^(curve|cross|companion) 1 .*\n", "", buf.getvalue(),
                           flags=re.M))
    assert "curve 1" not in path.read_text()
    assert main(["partition", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "272"


def _file_without_companions(tmp_path, surface, size):
    buf = io.StringIO()
    graphfile.dump(lattice(*size, surface), buf)
    path = tmp_path / f"{surface}.graph"
    path.write_text(re.sub(r"^companion .*\n", "", buf.getvalue(), flags=re.M))
    return path


def test_cli_klein_curves_without_companions_give_the_true_z(tmp_path, capsys):
    path = _file_without_companions(tmp_path, "klein_hexagon", (2, 8))
    assert main(["partition", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "196"


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_cli_verify_skips_practical_on_curves_without_companions(tmp_path, capsys,
                                                                 backend):
    path = _file_without_companions(tmp_path, "klein_hexagon", (2, 8))
    assert main(["verify", str(path), "--backend", backend, "--format", "kv"]) == 0
    pairs = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert pairs.keys() == {"oracle", "pin", "agree"}
    assert Fraction(pairs["oracle"]) == 196
    assert float(pairs["pin"]) == pytest.approx(196)


@pytest.mark.parametrize("fault", ["arc-dropped", "walk-repeated"])
@pytest.mark.parametrize("surface", ["torus", "klein_hexagon"])
def test_cli_partition_with_a_malformed_companion_takes_pin(tmp_path, capsys,
                                                            surface, fault):
    buf = io.StringIO()
    graphfile.dump(lattice(4, 4, surface), buf)
    path = tmp_path / "c.graph"
    path.write_text(buf.getvalue())
    assert main(["partition", str(path), "--method", "pin"]) == 0
    pin = capsys.readouterr().out
    repl = r"companion 0 \2" if fault == "arc-dropped" else r"companion 0 \1 \2 \1 \2"
    text, count = re.subn(r"^companion 0 (\S+) (.*)$", repl, buf.getvalue(), flags=re.M)
    assert count == 1
    path.write_text(text)
    assert main(["partition", str(path), "--method", "practical"]) == 2
    assert "not a simple cycle" in capsys.readouterr().err
    assert main(["partition", str(path)]) == 0
    assert capsys.readouterr().out == pin


def test_cli_malformed_exit_code(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("vertices 2\nwhat 1 2\n")
    assert main(["partition", str(path)]) == 1


@pytest.mark.parametrize("pattern, repl", [
    (r"^cross 0 .*$", "cross 0 -1"),
    (r"^cross 0 .*$", "cross 0 999"),
    (r"^cross 1 ", "cross 7 "),
    (r"\Z", "crossing_edge 7 0\n"),
    (r"^companion 1 ", "companion 7 "),
    (r"\Z", "crossing_edge 0 999\n"),
    (r"\Z", "crossing_edge 0 -1\n"),
    (r"^(vertices .*)$", r"\1\n\1"),
    (r"\Z", "curve 0 beta\n"),
    (r"^(cross 1 .*)$", r"\1\n\1"),
    (r"\Z", "crossing_edge 0 3\ncrossing_edge 0 3\n"),
    (r"^(companion 0 .*)$", r"\1\n\1"),
    (r"\Z", "rotation 99\n"),
    (r"\Z", "rotation -1\n"),
    (r"^companion 0 .*$", "companion 0 x.y"),
    (r"^companion 0 .*$", "companion 0 99.0"),
    (r"^curve 0 .*$", "curve 0 gamma"),
    (r"^(edge 0 .*)$", r"\1\n\1"),
    (r"^(rotation 0 .*)$", r"\1\n\1"),
    (r"^edge 0 .*$", "edge 0 a"),
    (r"^(edge 0 .*)$", r"\1 7"),
    (r"^vertices .*$", "vertices 16 9"),
    (r"^curve 0 .*$", "curve 0 alpha beta"),
    (r"\Z", "crossing_edge 0 3 4\n"),
], ids=["negative-cross", "cross-out-of-range", "orphan-cross",
        "orphan-crossing-edge", "orphan-companion", "crossing-edge-out-of-range",
        "negative-crossing-edge", "repeated-vertices", "repeated-curve",
        "repeated-cross", "repeated-crossing-edge", "repeated-companion",
        "rotation-out-of-range", "negative-rotation", "companion-not-a-half-edge",
        "companion-out-of-range", "unknown-curve-kind", "repeated-edge",
        "repeated-rotation", "edge-not-a-number", "edge-extra-field",
        "vertices-extra-field", "curve-extra-field", "crossing-edge-extra-field"])
def test_cli_bad_curve_lines_are_parse_errors(tmp_path, capsys, pattern, repl):
    # curve data naming a missing edge or a curve index without a 'curve'
    # line is rejected at load, not dropped or left to the routes
    buf = io.StringIO()
    graphfile.dump(lattice(4, 4, "torus"), buf)
    text, count = re.subn(pattern, repl, buf.getvalue(), count=1, flags=re.M)
    assert count == 1
    path = tmp_path / "bad.graph"
    path.write_text(text)
    assert main(["partition", str(path)]) == 1
    assert capsys.readouterr().err.startswith("parse error")


def test_crossing_edge_out_of_range_on_rp2_is_a_parse_error(tmp_path, capsys):
    # the rp2 beta curve's own crossing_edge line, pointed past the 24 edges
    assert main(["gen", "--surface", "rp2", "--size", "3x4"]) == 0
    text, count = re.subn(r"^crossing_edge 0 \d+$", "crossing_edge 0 999",
                          capsys.readouterr().out, flags=re.M)
    assert count == 1
    path = tmp_path / "bad.graph"
    path.write_text(text)
    with pytest.raises(MalformedFile, match="crossing_edge 0"):
        graphfile.load(io.StringIO(text))
    assert main(["partition", str(path)]) == 1
    assert capsys.readouterr().err.startswith("parse error")


def test_cli_oracle_buckets_obeys_max_vertices(tmp_path, capsys):
    path = tmp_path / "p.graph"
    main(["gen", "--surface", "planar", "--size", "2x19", "--out", str(path)])
    assert main(["oracle", str(path), "--buckets", "--format", "kv"]) == 2
    assert "TooLarge" in capsys.readouterr().err
    assert main(["oracle", str(path), "--buckets", "--max-vertices", "40",
                 "--format", "kv"]) == 0
    pairs = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert (pairs["Z"], pairs["matchings"], pairs["bucket.0"]) == ("6765", "6765", "6765")


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_cli_verify_obeys_max_vertices(tmp_path, capsys, backend):
    # 39 vertices: above the default bound the oracle is left out
    path = tmp_path / "p.graph"
    main(["gen", "--surface", "planar", "--size", "3x13", "--out", str(path)])
    assert main(["verify", str(path), "--backend", backend, "--format", "kv"]) == 0
    assert "oracle" not in capsys.readouterr().out
    assert main(["verify", str(path), "--backend", backend, "--max-vertices", "40",
                 "--format", "kv"]) == 0
    pairs = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert pairs["oracle"] == ("0" if backend == "exact" else "0.0")
    assert pairs["agree"] == "yes"


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_cli_verify_max_vertices_reaches_the_reference_matching(tmp_path, capsys, backend):
    # 38 vertices: pin and spin read the odd join in place of a reference
    # matching, so they run above the oracle bound; --max-vertices 40 bounds
    # the oracle alone and adds it
    path = tmp_path / "p.graph"
    main(["gen", "--surface", "planar", "--size", "2x19", "--out", str(path)])
    want = "6765" if backend == "exact" else "6765.0"
    assert main(["verify", str(path), "--backend", backend, "--format", "kv"]) == 0
    pairs = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert pairs == {"pin": want, "practical": want, "spin": want, "agree": "yes"}
    assert main(["verify", str(path), "--backend", backend, "--max-vertices", "40",
                 "--format", "kv"]) == 0
    pairs = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert pairs == {"oracle": want, "pin": want, "practical": want, "spin": want,
                     "agree": "yes"}


@pytest.mark.parametrize("fmt", ["plain", "kv"])
def test_cli_oracle_enumerates_once(tmp_path, capsys, monkeypatch, fmt):
    import pfdimers.cli as cli
    import pfdimers.oracle as oracle

    passes = []
    walk = oracle._weighted_matchings

    def counted(m, max_vertices):
        passes.append(m.vertex_count)
        return walk(m, max_vertices)

    monkeypatch.setattr(oracle, "_weighted_matchings", counted)
    monkeypatch.setattr(cli, "_weighted_matchings", counted)
    path = tmp_path / "t.graph"
    main(["gen", "--surface", "torus", "--size", "4x4", "--out", str(path)])
    assert main(["oracle", str(path), "--format", fmt]) == 0
    assert passes == [16]
    out = capsys.readouterr().out
    assert out == ("Z 272\nmatchings 272\nmethod oracle\n" if fmt == "kv"
                   else "Z = 272 (272 matchings)\n")


def test_cli_gen_usage_error():
    assert main(["gen", "--surface", "torus", "--size", "bogus"]) == 1


def test_cli_no_matching_prints_zero(tmp_path, capsys):
    # a path with 3 vertices has no perfect matching: Z = 0, exit 0
    path = tmp_path / "p.graph"
    path.write_text(
        "vertices 4\n"
        "edge 0 0 1 0 1\nedge 1 0 2 0 1\nedge 2 0 3 0 1\n"
        "rotation 0 0.0 1.0 2.0\nrotation 1 0.1\nrotation 2 1.1\nrotation 3 2.1\n")
    assert main(["partition", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_odd_map_above_the_oracle_bound(tmp_path, capsys):
    # 37 vertices: no matching, so the oracle reads Z = 0 without a search
    path = tmp_path / "strip.graph"
    assert main(["gen", "--surface", "planar", "--size", "1x37", "--out", str(path)]) == 0
    assert main(["oracle", str(path)]) == 0
    assert capsys.readouterr().out == "Z = 0 (0 matchings)\n"
    assert main(["partition", "--method", "oracle", str(path)]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["invariants", str(path)]) == 2
    assert "no perfect matching" in capsys.readouterr().err


def test_cli_invariants_without_a_matching_exit_2(tmp_path, capsys):
    # the invariants are read off a reference matching, which a star with
    # three leaves lacks
    star = build_map(4, [[0, 2, 4], [1], [3], [5]],
                     [(0, 1), (0, 2), (0, 3)], [0, 0, 0], [1, 1, 1])
    path = tmp_path / "star.graph"
    with open(path, "w") as fh:
        graphfile.dump(LatticeInstance(star, "planar", (), None), fh)
    assert main(["invariants", str(path)]) == 2
    assert "no perfect matching" in capsys.readouterr().err


def _spy_invariants(monkeypatch):
    """Record the flips of every floor residue, the modulus of every
    elimination and every full class Pfaffian that ``invariants`` takes."""
    module = sys.modules["pfdimers.pfaffian"]
    residue, eliminate = module._EdgeMatrix.floor_residue, module._eliminate
    seen = {"residues": [], "moduli": set(), "pfaffians": []}

    def counting_residue(route, flips):
        seen["residues"].append(flips)
        return residue(route, flips)

    def counting_eliminate(a, end, stop, factor, p=0, *rest):
        seen["moduli"].add(p)
        return eliminate(a, end, stop, factor, p, *rest)

    def counting(matrix):
        seen["pfaffians"].append(matrix)
        return pfaffian(matrix)

    monkeypatch.setattr(module._EdgeMatrix, "floor_residue", counting_residue)
    monkeypatch.setattr(module, "_eliminate", counting_eliminate)
    for name, mod in list(sys.modules.items()):
        if name.startswith("pfdimers") and getattr(mod, "pfaffian", None) is pfaffian:
            monkeypatch.setattr(mod, "pfaffian", counting)
    return seen


def test_invariants_stop_at_the_first_nonzero_class_residue(tmp_path, monkeypatch):
    # a nonzero class residue at one 30-bit prime proves a matching: no class
    # Pfaffian is taken in full, and not every class's residue; the whole pin
    # route, which decided it once, takes all 2^b1 Pfaffians
    rng = random.Random(4)
    while True:
        m = random_map(rng, max_vertices=6, extra_edges=8, twisted=False)
        b1 = classify(m).b1
        if m.vertex_count % 2 == 0 and b1 >= 4 and find_matching(m) is not None:
            break
    path = tmp_path / "m.graph"
    with open(path, "w") as fh:
        graphfile.dump(LatticeInstance(m, classify(m).name, (), None), fh)
    seen = _spy_invariants(monkeypatch)
    assert main(["invariants", str(path)]) == 0
    assert seen["pfaffians"] == [] and 0 < len(seen["residues"]) < 2 ** b1


def test_invariants_eliminate_at_one_30_bit_prime_on_klein_30x30(tmp_path, monkeypatch, capsys):
    path = tmp_path / "klein.graph"
    assert main(["gen", "--surface", "klein_hexagon", "--size", "30x30", "--out", str(path)]) == 0
    seen = _spy_invariants(monkeypatch)
    assert main(["invariants", str(path)]) == 0
    assert "class 00" in capsys.readouterr().out
    assert seen["pfaffians"] == [] and len(seen["moduli"]) == 1
    assert {p.bit_length() for p in seen["moduli"]} == {30}


def test_invariants_take_the_full_pfaffian_when_every_residue_is_zero(tmp_path, monkeypatch,
                                                                      capsys):
    # one edge of weight p: its Pfaffian p is 0 mod p, and the full value decides
    p = _modulus(_FLOOR, 0)[0]
    path = tmp_path / "edge.graph"
    path.write_text(f"vertices 2\nedge 0 0 1 0 {p}\nrotation 0 0.0\nrotation 1 0.1\n")
    seen = _spy_invariants(monkeypatch)
    assert main(["invariants", str(path)]) == 0
    assert capsys.readouterr().out == ("surface: sphere, b1 = 0\n"
                                       "class 0: q = (), brown = 0\nclass 0: arf = 0\n")
    assert seen["residues"] == [0] and len(seen["pfaffians"]) == 1


def test_cli_reversed_klein_companion_gives_the_true_z(tmp_path, capsys):
    # companion 0 written backwards: the face-arc check let it through and
    # the sum read 218365952; verify stops above 36 vertices
    buf = io.StringIO()
    graphfile.dump(lattice(8, 8, "klein_hexagon"), buf)

    def backwards(match):
        halves = [h.split(".") for h in match.group(1).split()]
        return "companion 0 " + " ".join(f"{e}.{1 - int(s)}" for e, s in reversed(halves))
    text, count = re.subn(r"^companion 0 (.*)$", backwards, buf.getvalue(), flags=re.M)
    assert count == 1 and text != buf.getvalue()
    path = tmp_path / "k.graph"
    path.write_text(text)
    assert main(["partition", str(path), "--method", "practical"]) == 0
    assert capsys.readouterr().out.strip() == "220581904"


def test_orient_and_invariants_trace_faces_once(tmp_path, monkeypatch, capsys):
    # loading traces the faces of the map, and every later step of the
    # command (orientation, curvature, basis, surface, each route) reads them
    from pfdimers.surface_graph import trace_faces

    path = tmp_path / "torus.pfd"
    with open(path, "w") as fh:
        graphfile.dump(lattice(4, 4, "torus"), fh)
    calls = []

    def counting(m):
        calls.append(m)
        return trace_faces(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("pfdimers") and getattr(module, "trace_faces", None) is trace_faces:
            monkeypatch.setattr(module, "trace_faces", counting)
    for command in ("orient", "invariants", "partition", "verify"):
        calls.clear()
        assert main([command, str(path)]) == 0
        assert len(calls) == 1, command


def test_cli_partition_past_the_int_str_digit_limit(tmp_path, capsys):
    # Z = 272 * w^8 with w = 10**600 has 4803 digits, past CPython's default
    # int-to-str limit of 4300
    path = tmp_path / "big.txt"
    with open(path, "w") as fh:
        graphfile.dump(lattice(4, 4, "torus", weights=[10**600] * 32), fh)
    zeros = "0" * 4800
    assert main(["partition", str(path), "--format", "kv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"Z 272{zeros}", "method practical", "b1 2", "surface torus",
        f"pf.00 256{zeros}", f"pf.10 144{zeros}", f"pf.01 144{zeros}", "pf.11 0"]
    assert main(["partition", str(path)]) == 0
    assert capsys.readouterr().out == f"272{zeros}\n"


def _tree_with_three_leaves():
    """38 vertices without a perfect matching: a 35-vertex path 0..34 and
    three leaves 35, 36, 37 on vertex 0."""
    from pfdimers import build_map

    ends = [(v, v + 1) for v in range(34)] + [(0, leaf) for leaf in (35, 36, 37)]
    rotations = [[] for _ in range(38)]
    for e, (u, v) in enumerate(ends):
        rotations[u].append(2 * e)
        rotations[v].append(2 * e + 1)
    return build_map(38, rotations, ends)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_cli_verify_max_vertices_on_a_map_without_a_matching(tmp_path, capsys, backend):
    # pin and spin search no matching: above the oracle bound they give
    # Z = 0 from their class Pfaffians, on a twisted copy too
    from pfdimers.generators import LatticeInstance
    from pfdimers.surface_graph import flip_charts

    tree = _tree_with_three_leaves()
    zero = "0" if backend == "exact" else "0.0"
    for m in (tree, flip_charts(tree, [1, 2, 36])):
        path = tmp_path / "tree.graph"
        with open(path, "w") as fh:
            graphfile.dump(LatticeInstance(m, "sphere", (), None), fh)
        assert main(["verify", str(path), "--backend", backend, "--format", "kv"]) == 0
        pairs = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        assert pairs == {"pin": zero, "practical": zero, "spin": zero, "agree": "yes"}
        assert main(["verify", str(path), "--backend", backend, "--max-vertices", "40",
                     "--format", "kv"]) == 0
        pairs = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        assert pairs == {"oracle": zero, "pin": zero, "practical": zero, "spin": zero,
                         "agree": "yes"}
        assert main(["partition", str(path), "--backend", backend]) == 0
        assert capsys.readouterr().out == zero + "\n"


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_cli_verify_max_vertices_on_a_twisted_orientable_map(tmp_path, capsys, backend):
    # spin runs on the twisted map itself, and the oracle under --max-vertices
    from dataclasses import replace

    from pfdimers.surface_graph import flip_charts

    inst = lattice(2, 19, "planar")
    twisted = replace(inst, map=flip_charts(inst.map, [0, 7, 20]))
    path = tmp_path / "p.graph"
    with open(path, "w") as fh:
        graphfile.dump(twisted, fh)
    assert main(["verify", str(path), "--backend", backend, "--max-vertices", "40",
                 "--format", "kv"]) == 0
    pairs = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    want = "6765" if backend == "exact" else "6765.0"
    assert pairs == {"oracle": want, "pin": want, "practical": want, "spin": want,
                     "agree": "yes"}


@pytest.mark.parametrize("args", [
    ["partition"], ["partition", "--backend", "float"], ["verify"], ["invariants"],
    ["oracle"]], ids=["partition", "partition-float", "verify", "invariants", "oracle"])
def test_cli_infinite_weight_exits_2(tmp_path, capsys, args):
    # 1e999 parses to inf; exact routes died with an OverflowError traceback
    # and the float one read a nan Pfaffian
    buf = io.StringIO()
    graphfile.dump(lattice(2, 2, "torus"), buf)
    text, count = re.subn(r"^(edge 0 .*) 1$", r"\1 1e999", buf.getvalue(), flags=re.M)
    assert count == 1
    path = tmp_path / "inf.graph"
    path.write_text(text)
    assert main([args[0], str(path), *args[1:]]) == 2
    assert capsys.readouterr().err.startswith(
        "NegativeWeight: weight must be positive and finite, got inf")
