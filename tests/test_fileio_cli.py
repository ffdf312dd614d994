"""File formats and the command-line interface (exit codes, stability)."""

import hashlib
import json

import pytest

from k3cert import cli, fileio
from k3cert.cases import builtin_cases, get_case, mutation_kit, run_mutation

SAMPLE = """\
# a 6-cycle with two sections
curves: O P c0 c1 c2 c3 c4 c5
meets: c0 c1 1
meets: c1 c2 1
meets: c2 c3 1
meets: c3 c4 1
meets: c4 c5 1
meets: c5 c0 1
meets: O c0 1
meets: P c2 1
divisor E: c0=1 c1=1 c2=1 c3=1 c4=1 c5=1
fibration: fiber=E zero=O rho=10
sections: O P
rfiber E: O=c0 P=c2
"""


def test_parse_round_trip():
    parsed = fileio.parse_config_text(SAMPLE)
    assert parsed.cfg.size == 8
    assert parsed.model is not None
    assert parsed.model.rho == 10
    assert parsed.model.reducible_fibers[0].fiber.kind == "I6"
    text = fileio.dump_config(parsed.cfg, [("E", parsed.divisors["E"])])
    reparsed = fileio.parse_config_text(text)
    assert reparsed.cfg == parsed.cfg
    assert reparsed.divisors["E"] == parsed.divisors["E"]


# the 6-cycle sample with its rfiber line repeated (line 15), and with the
# same fiber declared again under another label (line 16)
REPEATED_RFIBER = SAMPLE + "rfiber E: O=c0 P=c2\n"
RELABELLED_RFIBER = (SAMPLE + "divisor E2: c0=1 c1=1 c2=1 c3=1 c4=1 c5=1\n"
                     "rfiber E2: O=c0 P=c2\n")
# an rfiber line in a file with no fibration: line (line 4), and the
# sample with a second sections: line after the first (line 14)
RFIBER_WITHOUT_FIBRATION = "curves: a b\nmeets: a b 2\ndivisor E: a=1 b=1\nrfiber NOSUCH: O=zz\n"
SECOND_SECTIONS = SAMPLE.replace("sections: O P\n", "sections: O P\nsections: O\n")
# a fiber divisor that is no fiber class, an A2 chain (line 6), and the
# sample with an incidence for the curve c4, which is no section (line 14)
CHAIN_FIBER = """\
curves: O P c0 c1
meets: c0 c1 1
meets: O c0 1
meets: P c1 1
divisor E: c0=1 c1=1
fibration: fiber=E zero=O rho=10
sections: O P
"""
CHAIN_FIBER_ERROR = ("parse error: line 6: fiber divisor 'E' is not a fiber class "
                     "(self-intersection -2 != 0)\n")
NON_SECTION_INCIDENCE = SAMPLE.replace("rfiber E: O=c0 P=c2", "rfiber E: O=c0 P=c2 c4=c1")
TOO_MANY_CURVES = SAMPLE.replace("c4 c5\n", "c4 c5 " + " ".join(f"x{i}" for i in range(249)) + "\n", 1)


@pytest.mark.parametrize("bad,line", [
    ("meets: a b 1", 1),               # no curves line anywhere
    ("curves: a b\nmeets: a b", 2),
    ("curves: a b\nmeets: a b x", 2),
    ("curves: a b\ncurves: a b", 2),
    ("curves: a b\nwibble: 3", 2),
    ("curves: a b\ndivisor D: a=x", 2),
    (REPEATED_RFIBER, 15),
    (RELABELLED_RFIBER, 16),
    (RFIBER_WITHOUT_FIBRATION, 4),
    (SECOND_SECTIONS, 14),
    (CHAIN_FIBER, 6),
    (NON_SECTION_INCIDENCE, 14),
])
def test_parse_errors_carry_line_numbers(bad, line):
    with pytest.raises(fileio.FileFormatError) as exc:
        fileio.parse_config_text(bad)
    if "curves:" not in bad:
        assert exc.value.line_no == 0
    else:
        assert exc.value.line_no == line


def test_isometry_file_parsing():
    g, m = fileio.parse_isometry_text("2  0 1 1 0  1 0 0 1")
    assert g == [[0, 1], [1, 0]]
    assert m == [[1, 0], [0, 1]]
    with pytest.raises(fileio.FileFormatError):
        fileio.parse_isometry_text("2 1 2 3")
    with pytest.raises(fileio.FileFormatError):
        fileio.parse_isometry_text("")


def test_case_dump_reparses(tmp_path):
    for case_id, param in [("rho13", None), ("singular-k3", "I2")]:
        inst = get_case(case_id).instantiate(param)
        text = fileio.dump_case(inst)
        parsed = fileio.parse_config_text(text)
        assert parsed.cfg == inst.cfg
        assert parsed.divisors["E1"] == inst.dec1.e
        assert parsed.divisors["E2"] == inst.dec2.e


# ---------------------------------------------------------------------------
# CLI

def test_cli_lattice_info(capsys):
    assert cli.run(["lattice", "info", "U+D4+A1^7"]) == 0
    out = capsys.readouterr().out
    assert "rank: 13" in out
    assert "(13, 9, 1)" in out
    assert "k: 3" in out


def test_cli_lattice_parse_error(capsys):
    assert cli.run(["lattice", "info", "D3"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_fiber_classify(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text(SAMPLE)
    assert cli.run(["fiber", "classify", str(path), "E"]) == 0
    assert "I6" in capsys.readouterr().out
    assert cli.run(["fiber", "classify", str(path), "missing"]) == 2


def test_cli_mw_and_height(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text(SAMPLE)
    assert cli.run(["mw", "rank", str(path)]) == 0
    assert "shioda-tate rank: 3" in capsys.readouterr().out
    assert cli.run(["height", str(path), "P"]) == 0
    out = capsys.readouterr().out
    assert "<P, P> = 8/3" in out


def test_cli_height_needs_no_declared_incidence(tmp_path, capsys):
    # O's incidence is left out: it is a claim, and heights do not read it
    path = tmp_path / "cfg.txt"
    path.write_text(SAMPLE.replace("rfiber E: O=c0 P=c2", "rfiber E: P=c2"))
    assert cli.run(["height", str(path), "P"]) == 0
    assert capsys.readouterr().out == "<P, P> = 8/3\n"


@pytest.mark.parametrize("argv,text,message", [
    (["fiber", "classify", "{file}", "E"], RFIBER_WITHOUT_FIBRATION,
     "parse error: line 4: rfiber needs a fibration: line\n"),
    (["height", "{file}", "P"], SECOND_SECTIONS,
     "parse error: line 14: duplicate sections: line\n"),
    (["mw", "rank", "{file}"], SECOND_SECTIONS,
     "parse error: line 14: duplicate sections: line\n"),
    (["height", "{file}", "P"], CHAIN_FIBER, CHAIN_FIBER_ERROR),
    (["mw", "rank", "{file}"], CHAIN_FIBER, CHAIN_FIBER_ERROR),
    (["fiber", "classify", "{file}", "E"], CHAIN_FIBER, CHAIN_FIBER_ERROR),
    (["height", "{file}", "P"], NON_SECTION_INCIDENCE,
     "parse error: line 14: rfiber E: c4 is not a declared section\n"),
    (["fiber", "classify", "{file}", "E"], TOO_MANY_CURVES,
     "parse error: line 2: curves: line lists 257 curves, more than 256\n"),
])
def test_cli_refuses_grammar_holes_with_a_line_number(tmp_path, capsys, argv, text, message):
    path = tmp_path / "in.txt"
    path.write_text(text)
    assert cli.run([str(path) if a == "{file}" else a for a in argv]) == 2
    assert capsys.readouterr() == ("", message)


# the sample with O's incidence on zz, which is no curve, and on O, which
# is a curve but no component of E (line 14)
@pytest.mark.parametrize("component", ["zz", "O"])
@pytest.mark.parametrize("argv", [["height", "{file}", "P"], ["mw", "rank", "{file}"],
                                  ["fiber", "classify", "{file}", "E"]])
def test_cli_refuses_an_incidence_off_the_fiber(tmp_path, capsys, argv, component):
    path = tmp_path / "in.txt"
    path.write_text(SAMPLE.replace("O=c0", f"O={component}"))
    assert cli.run([str(path) if a == "{file}" else a for a in argv]) == 2
    assert capsys.readouterr() == (
        "", f"parse error: line 14: rfiber E: O={component} names no component of E\n")


@pytest.mark.parametrize("expr,message", [
    ("D3", "D_m needs m >= 4 (at byte 0)"),
    ("U+", "expected lattice atom (at byte 2)"),
    ("A1(0)", "twist factor must be nonzero (at byte 3)"),
    ("U+E8^0", "power must be >= 1 (at byte 5)"),
    # more digits than int() converts, at each integer of the grammar
    pytest.param("A" + "9" * 5000, "integer is too long (at byte 1)", id="long-index"),
    pytest.param("U(" + "9" * 5000 + ")", "integer is too long (at byte 2)", id="long-twist"),
    pytest.param("A1^" + "9" * 5000, "integer is too long (at byte 3)", id="long-power"),
    # refused at the term that crosses the rank bound, before any Gram is built
    ("A65", "lattice rank exceeds 64 (at byte 0)"),
    ("D100000", "lattice rank exceeds 64 (at byte 0)"),
    ("A1^100000", "lattice rank exceeds 64 (at byte 0)"),
    ("U+E8^7+D8", "lattice rank exceeds 64 (at byte 7)"),
    # a twist of more than 64 digits, refused at its first byte
    pytest.param("U(" + "9" * 65 + ")", "twist factor exceeds 64 digits (at byte 2)",
                 id="twist-65-digits"),
    pytest.param("U(" + "9" * 400 + ")^8", "twist factor exceeds 64 digits (at byte 2)",
                 id="twist-400-digits"),
    pytest.param("A1+U(-" + "9" * 4300 + ")", "twist factor exceeds 64 digits (at byte 5)",
                 id="twist-4300-digits"),
])
def test_cli_lattice_parse_error_bytes(capsys, expr, message):
    assert cli.run(["lattice", "info", expr]) == 2
    assert cli.run(["lattice", "info", expr, "--json"]) == 2
    assert capsys.readouterr() == ("", f"parse error: {message}\n" * 2)


def test_cli_fiber_class_is_a_reducible_fiber_without_its_rfiber(tmp_path, capsys):
    # the fiber class is made of (-2)-curves, so it is a reducible fiber
    # whether or not an rfiber line declares it
    path = tmp_path / "cfg.txt"
    path.write_text(SAMPLE.replace("rfiber E: O=c0 P=c2\n", ""))
    assert cli.run(["height", str(path), "P"]) == 0
    assert capsys.readouterr().out == "<P, P> = 8/3\n"
    assert cli.run(["mw", "rank", str(path)]) == 0
    assert capsys.readouterr().out == (
        "rho: 10\nreducible fibers: I6(6)\nshioda-tate rank: 3\n")


def test_cli_height_refuses_a_repeated_rfiber(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text(REPEATED_RFIBER)
    assert cli.run(["height", str(path), "P"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: line 15: rfiber E shares curve c0 with rfiber E\n"


def test_cli_entropy(tmp_path, capsys):
    path = tmp_path / "iso.txt"
    path.write_text("3  0 1 0  1 0 0  0 0 -2  0 1 0  1 4 -4  0 -2 1\n")
    assert cli.run(["entropy", str(path)]) == 0
    out = capsys.readouterr().out
    assert "class: hyperbolic" in out
    assert "5.8284271247" in out
    assert "salem factor (ascending): 1 -6 1" in out


def test_cli_lattice_twist_of_64_digits_prints(capsys):
    assert cli.run(["lattice", "info", "U(" + "9" * 64 + ")^4"]) == 0
    det = capsys.readouterr().out.split("det: ")[1].split("\n")[0]
    assert det == str((10 ** 64 - 1) ** 8)


@pytest.mark.parametrize("text,message", [
    pytest.param("1 " + "9" * 5000 + " 1\n", "integer is too long", id="long-entry"),
    pytest.param("-" + "9" * 5000 + "\n", "integer is too long", id="long-dimension"),
    pytest.param("65\n", "isometry dimension 65 exceeds 64", id="dimension-65"),
    # refused before the matrices are sliced, whatever the file's length
    pytest.param("65" + " 0" * (2 * 65 * 65) + "\n", "isometry dimension 65 exceeds 64",
                 id="dimension-65-full"),
    pytest.param("1 x 1\n", "non-integer token: invalid literal for int() with base 10: 'x'",
                 id="non-integer"),
])
def test_cli_entropy_parse_error_bytes(tmp_path, capsys, text, message):
    path = tmp_path / "iso.txt"
    path.write_text(text)
    assert cli.run(["entropy", str(path)]) == 2
    assert capsys.readouterr() == ("", f"parse error: line 0: {message}\n")


def test_cli_verify_exit_codes(capsys):
    assert cli.run(["verify", "--only", "rho12"]) == 0
    capsys.readouterr()
    # the singular-k3 rows fail by design, so --all exits 1
    assert cli.run(["verify", "--all"]) == 1
    out = capsys.readouterr().out
    assert "13/16 PASS" in out
    assert cli.run(["verify"]) == 2


def test_cli_verify_json_round_trip(capsys):
    assert cli.run(["verify", "--only", "rho12", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["id"] == "rho12"
    assert data[0]["status"] == "PASS"
    assert all({"name", "status", "detail"} <= set(c) for c in data[0]["checks"])


def test_cli_verify_json_deterministic(capsys):
    cli.run(["verify", "--all", "--json"])
    first = capsys.readouterr().out
    cli.run(["verify", "--all", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_case_dump(capsys):
    assert cli.run(["case", "dump", "rho20"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# case rho20")
    assert "divisor E1:" in out
    assert cli.run(["case", "dump", "nope"]) == 2


# sha256 of `verify --all --json`: a change to any output byte fails here
VERIFY_JSON_SHA256 = "797c8062152a60cb2b86b429fac9179a9a78bfbdee4fd4d25fbb92968a9a2ab6"


def test_cli_verify_all_json_is_pinned(capsys):
    assert cli.run(["verify", "--all", "--json"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_SHA256
    assert sum(row["status"] == "PASS" for row in json.loads(out)) == 13
    assert cli.run(["verify", "--all"]) == 1
    assert capsys.readouterr().out.endswith("13/16 PASS\n")


# sha256 of every `case dump` stdout, of repr(report.checks) of every
# mutation report, and of `height FILE b8` / `mw rank FILE` on the dumped
# singular-k3 rows, each joined in builtin order
PINNED_OUTPUT_SHA256 = {
    "dumps": "16015fe0c051d6a1fd434e73a4522781cecabf9e70b6f5f5f02aad42ba395b70",
    "mutations": "318a17995458885604e8c5e2788f1c58ac4dd2f305b1e6dc6b35fc9a7a267a04",
    "singular-k3-file-ops": "f07c06d78702405779792741854f0b9b51a07d917d2a69bc8c039262bc93a320",
}


def _sha(parts):
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()


def test_dumps_mutations_and_file_ops_are_pinned(tmp_path, capsys):
    dumps, file_ops = [], []
    for rec in builtin_cases():
        for p in rec.param_values:
            assert cli.run(["case", "dump", rec.case_id]
                           + ([] if p is None else ["--param", str(p)])) == 0
            dumps.append(capsys.readouterr().out)
            if rec.case_id != "singular-k3":
                continue
            path = tmp_path / f"{p}.txt"
            path.write_text(dumps[-1])
            for argv in (["height", str(path), "b8"], ["mw", "rank", str(path)]):
                code = cli.run(argv)
                file_ops.append(f"{code}\n{capsys.readouterr().out}")
    assert len(dumps) == 16 and len(file_ops) == 6
    reports = {m.mutation_id: run_mutation(m)[0] for m in mutation_kit()}
    mutations = [repr(report.checks) for report in reports.values()]
    # the section plan refuses the swapped incidence before comparing components
    swapped = reports["swap-section-incidence"].checks
    assert ("mw-evidence-E1", "FAIL",
            "evidence-plan: section G34 is declared on component C6, but its "
            "intersections with the fiber are G34.C3 = 1") in swapped
    assert {"dumps": _sha(dumps), "mutations": _sha(mutations),
            "singular-k3-file-ops": _sha(file_ops)} == PINNED_OUTPUT_SHA256


def test_every_error_class_has_the_one_root():
    from k3cert import curves, errors, exactlinalg, fibration, lattices, spectral
    classes = [exactlinalg.NonSquareError, exactlinalg.NonSymmetricError,
               lattices.LatticeParseError, lattices.DegenerateLatticeError,
               lattices.NotTwoElementaryError, lattices.ParityError,
               curves.ConfigError, curves.FiberError, fibration.EvidenceError,
               fileio.FileFormatError, spectral.NotIsometryError]
    assert all(issubclass(c, errors.K3CertError) for c in classes)
    assert issubclass(errors.K3CertError, ValueError)


@pytest.mark.parametrize("argv,message", [
    (["verify", "--only", "nosuch"], "error: no built-in case row matches --only nosuch\n"),
    (["verify", "--only", "rho11", "--param", "9"],
     "error: no built-in case row matches --only rho11 --param 9\n"),
    (["verify", "--all", "--param", "9"], "error: no built-in case row matches --param 9\n"),
    (["case", "dump", "nosuch"], "error: no case 'nosuch'\n"),
    (["case", "dump", "rho11", "--param", "9"],
     "error: rho11: parameter '9' not in (0, 1, 2)\n"),
])
def test_bad_case_selection_exits_2_with_one_line(capsys, argv, message):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


# an I0* rfiber off the fiber class E whose incidence puts O on the
# multiplicity-2 centre m
CENTRE_ZERO = """\
curves: O P e1 e2 m l1 l2 l3 l4
meets: e1 e2 2
meets: O e1 1
meets: P e1 1
meets: m l1 1
meets: m l2 1
meets: m l3 1
meets: m l4 1
divisor E: e1=1 e2=1
divisor F: m=2 l1=1 l2=1 l3=1 l4=1
fibration: fiber=E zero=O rho=10
sections: O P
rfiber F: O=m P=l1
"""

# a 4-cycle fiber I4 with one section O; rho is substituted
FOUR_CYCLE = """\
curves: O c0 c1 c2 c3
meets: c0 c1 1
meets: c1 c2 1
meets: c2 c3 1
meets: c3 c0 1
meets: O c0 1
divisor E: c0=1 c1=1 c2=1 c3=1
fibration: fiber=E zero=O rho={rho}
sections: O
rfiber E: O=c0
"""


# an I2 rfiber F with F.E = 1 (e1 meets f1), so no fiber of |E|; O and P
# meet both E and F once
OFF_FIBRATION = """\
curves: O P e1 e2 f1 f2
meets: e1 e2 2
meets: f1 f2 2
meets: e1 f1 1
meets: O e1 1
meets: P e2 1
meets: O f1 1
meets: P f2 1
divisor E: e1=1 e2=1
divisor F: f1=1 f2=1
fibration: fiber=E zero=O rho=10
sections: O P
rfiber F: O=f1 P=f2
"""
OFF_FIBRATION_ERROR = ("error: reducible fiber I2/III on f1 f2 meets the fiber class "
                       "1 times, not 0: it is no fiber of the fibration\n")


# two I2 fibers E and D; P meets E once but no component of D (S.D = 0)
SECTION_OFF_FIBER = """\
curves: O P e1 e2 f1 f2
meets: e1 e2 2
meets: f1 f2 2
meets: O e1 1
meets: P e2 1
meets: O f1 1
divisor E: e1=1 e2=1
divisor D: f1=1 f2=1
fibration: fiber=E zero=O rho=10
sections: O P
rfiber D: O=f1
"""
SECTION_OFF_FIBER_ERROR = ("error: section P must meet one component of the I2/III fiber "
                           "on f1 f2 once, but its intersections with the fiber are all 0\n")


# two I2 rfibers F and G off the fiber class E that meet each other
# (f2.g2 = 2), so they are not two fibers of one fibration
MEETING_FIBERS = """\
curves: O P e1 e2 f1 f2 g1 g2
meets: e1 e2 2
meets: f1 f2 2
meets: g1 g2 2
meets: f2 g2 2
meets: O e1 1
meets: P e2 1
meets: O f1 1
meets: P f2 1
meets: O g1 1
meets: P g2 1
divisor E: e1=1 e2=1
divisor F: f1=1 f2=1
divisor G: g1=1 g2=1
fibration: fiber=E zero=O rho=10
sections: O P
rfiber F: O=f1 P=f2
rfiber G: O=g1 P=g2
"""
MEETING_FIBERS_ERROR = ("error: reducible fiber I2/III on g1 g2 meets the reducible fiber "
                        "I2/III on f1 f2 2 times, not 0: it is no fiber of the fibration\n")


# the 6-cycle with P declared on c3, though it meets c2
CONTRADICTED = SAMPLE.replace("rfiber E: O=c0 P=c2", "rfiber E: O=c0 P=c3")
CONTRADICTED_ERROR = ("error: section P is declared on component c3, but its "
                      "intersections with the fiber are P.c2 = 1\n")


@pytest.mark.parametrize("argv,text,message", [
    (["fiber", "classify", "{file}", "E"], "curves: a b\nmeets: a b 2\ndivisor E: a=-1\n",
     "error: divisor class is not effective\n"),
    (["height", "{file}", "Q"], SAMPLE, None),
    (["entropy", "{file}"], "1 2 3\n", "error: matrix does not preserve the form\n"),
    (["height", "{file}", "P"], SECTION_OFF_FIBER, SECTION_OFF_FIBER_ERROR),
    (["height", "{file}", "P"], CENTRE_ZERO,
     "error: section O meets component m of multiplicity 2, "
     "sections meet multiplicity-1 components\n"),
    (["mw", "rank", "{file}"], FOUR_CYCLE.format(rho=3),
     "error: fiber list is inconsistent: Shioda-Tate rank would be -2\n"),
    (["mw", "rank", "{file}"], FOUR_CYCLE.format(rho=1),
     "error: Picard number must be >= 2 for an elliptic surface\n"),
    (["height", "{file}", "P"], CONTRADICTED, CONTRADICTED_ERROR),
    (["mw", "rank", "{file}"], CONTRADICTED, CONTRADICTED_ERROR),
    (["height", "{file}", "P"], OFF_FIBRATION, OFF_FIBRATION_ERROR),
    (["mw", "rank", "{file}"], OFF_FIBRATION, OFF_FIBRATION_ERROR),
    (["mw", "rank", "{file}"], SECTION_OFF_FIBER, SECTION_OFF_FIBER_ERROR),
    (["height", "{file}", "P"], MEETING_FIBERS, MEETING_FIBERS_ERROR),
    # an incidence claim for a name that is no section is still checked
    (["height", "{file}", "P"], SAMPLE.replace("rfiber E: O=c0 P=c2", "rfiber E: O=c0 P=c2 Z=c1"),
     "error: unknown curve 'Z'\n"),
])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv, text, message):
    path = tmp_path / "in.txt"
    path.write_text(text)
    assert cli.run([str(path) if a == "{file}" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message is None or captured.err == message


def test_reused_parser_prints_what_a_fresh_process_prints(capsys):
    import os
    import subprocess
    import sys
    from pathlib import Path
    assert cli.build_parser() is cli.build_parser()
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    commands = [["verify", "--all", "--json"], ["lattice", "info", "D3"],
                ["case", "dump", "rho20"]]
    fresh = {}
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "k3cert.cli", *argv],
                              capture_output=True, text=True, env=env)
        fresh[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
    assert fresh[("lattice", "info", "D3")][0] == 2
    for argv in commands + commands[:1]:
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == fresh[tuple(argv)], argv
