"""File formats and the command-line interface (exit codes, stability)."""

import hashlib
import json

import pytest

from k3cert import cli, fileio
from k3cert.cases import get_case

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


@pytest.mark.parametrize("bad,line", [
    ("meets: a b 1", 1),               # no curves line anywhere
    ("curves: a b\nmeets: a b", 2),
    ("curves: a b\nmeets: a b x", 2),
    ("curves: a b\ncurves: a b", 2),
    ("curves: a b\nwibble: 3", 2),
    ("curves: a b\ndivisor D: a=x", 2),
])
def test_parse_errors_carry_line_numbers(bad, line):
    with pytest.raises(fileio.FileFormatError) as exc:
        fileio.parse_config_text(bad)
    if "curves" not in bad.splitlines()[0]:
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
        assert parsed.divisors["E1"] == inst.e1
        assert parsed.divisors["E2"] == inst.e2


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


def test_cli_entropy(tmp_path, capsys):
    path = tmp_path / "iso.txt"
    path.write_text("3  0 1 0  1 0 0  0 0 -2  0 1 0  1 4 -4  0 -2 1\n")
    assert cli.run(["entropy", str(path)]) == 0
    out = capsys.readouterr().out
    assert "class: hyperbolic" in out
    assert "5.8284271247" in out
    assert "salem factor (ascending): 1 -6 1" in out


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


@pytest.mark.parametrize("argv,text,message", [
    (["fiber", "classify", "{file}", "E"], "curves: a b\nmeets: a b 2\ndivisor E: a=-1\n",
     "error: divisor class is not effective\n"),
    (["height", "{file}", "Q"], SAMPLE, None),
    (["entropy", "{file}"], "1 2 3\n", "error: matrix does not preserve the form\n"),
])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv, text, message):
    path = tmp_path / "in.txt"
    path.write_text(text)
    assert cli.run([str(path) if a == "{file}" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message is None or captured.err == message
