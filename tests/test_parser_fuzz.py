"""Seeded fuzz of the config, lattice-expression and isometry parsers
through the CLI.

Any text gives exit 0, 1 or 2 and never a traceback, and exit 2 prints
exactly one line.  The texts are the 16 `case dump` files under line and
token mutations, random lattice expressions, and the entropy test
vectors' isometry files under token mutations; the seed is fixed, so a
failure reproduces.
"""

import random

from k3cert import cli, fileio
from k3cert.cases import builtin_cases
from k3cert.curves import FiberError, classify_fiber, classify_support
from k3cert.errors import K3CertError

SEED = 20261021
FILE_MUTANTS = 100
EXPRESSIONS = 500
ISOMETRY_MUTANTS = 150

STRAY_LINES = ("sections: zz", "rfiber E2: O=zz", "fibration: fiber=E2 zero=zz rho=3",
               "divisor E3: zz=1", "meets: zz zz -1", "bogus: 1", "divisor : a=1",
               "rfiber E1:", "curves:", "meets: a", "fibration: fiber=E1")
VALUES = ("0", "-1", "1", "2", "3", "99", "-7", "x", "", "=", "E1", "E2", "zz", "a=1")
HUGE = "9" * 5000

# n, then G, then M: the hyperbolic, parabolic and order-2 test vectors
ISOMETRIES = ("3  0 1 0  1 0 0  0 0 -2  0 1 0  1 4 -4  0 -2 1",
              "3  0 1 0  1 0 0  0 0 -2  1 0 0  1 1 2  1 0 1",
              "2  0 1  1 0  0 1  1 0")
ENTRIES = ("0", "1", "-1", "2", "-2", "3", "4", "65", "x", "1.5", "9" * 80, HUGE, "-" + HUGE)


def _dumps():
    return [fileio.dump_case(rec.instantiate(p))
            for rec in builtin_cases() for p in rec.param_values]


def _mutate(rng, text):
    """One to three line or token edits of a config text."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        kind = rng.randrange(6)
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(i, lines[i])
        elif kind == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 3:
            tokens = lines[i].split(" ")
            k = rng.randrange(len(tokens))
            head, eq, _ = tokens[k].partition("=")
            tokens[k] = head + eq + rng.choice(VALUES) if eq else rng.choice(VALUES)
            lines[i] = " ".join(tokens)
        elif kind == 4:
            lines.insert(i, rng.choice(STRAY_LINES))
        else:
            # the curves: line past its bound
            lines = [line + " " + " ".join(f"w{n}" for n in range(300))
                     if line.startswith("curves:") else line for line in lines]
        if not lines:
            lines = ["curves:"]
    return "\n".join(lines) + "\n"


def _mutate_isometry(rng, text):
    """Maybe -G or -M, which M still preserves, then up to two token edits
    of an isometry file."""
    toks = text.split()
    n = int(toks[0])
    if rng.random() < 0.4:
        lo = rng.choice((1, 1 + n * n))
        toks[lo:lo + n * n] = [str(-int(t)) for t in toks[lo:lo + n * n]]
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(toks))
        kind = rng.randrange(6)
        if kind == 0:
            del toks[i]
        elif kind == 1:
            toks.insert(i, toks[i])
        elif kind == 2:
            j = rng.randrange(len(toks))
            toks[i], toks[j] = toks[j], toks[i]
        else:
            toks[i] = rng.choice(ENTRIES)
    return " ".join(toks) + "\n"


def _pick(rng, good, bad):
    return rng.choice(good) if rng.random() < 0.85 else rng.choice(bad)


def _expression(rng):
    """A random lattice expression, mostly well formed: grammar pieces with
    malformed and over-size ones among them, then maybe a stray character."""
    def term():
        return (_pick(rng, ("U", "A1", "A2", "A3", "D4", "D5", "E6", "E8"),
                      ("A", "D3", "E9", "B2", "A0", "A65", "D100000", "A" + HUGE))
                + _pick(rng, ("", "", "", "(2)", "(-1)", "(3)"),
                        ("(0)", "(", "(3", "(" + HUGE + ")"))
                + _pick(rng, ("", "", "", "^2", "^3"), ("^0", "^", "^65", "^" + HUGE)))
    expr = term()
    for _ in range(rng.randint(0, 3)):
        expr += _pick(rng, ("+", " + "), ("", "++", "*")) + term()
    if rng.random() < 0.2:
        i = rng.randint(0, len(expr))
        expr = expr[:i] + rng.choice("UADE0123^()+- x") + expr[i:]
    return expr.lstrip("-")    # argparse reads a leading '-' as an option


def _run(capsys, argv):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)


def _kernel_verdict(cfg, d):
    try:
        fiber = classify_fiber(cfg, d.support(cfg))
    except FiberError as exc:
        return None, str(exc)
    return (fiber.kind, fiber.multiplicities), ""


def test_mutated_case_dumps_exit_cleanly(tmp_path, capsys):
    rng = random.Random(SEED)
    dumps = _dumps()
    assert len(dumps) == 16
    path = tmp_path / "mutant.txt"
    for _ in range(FILE_MUTANTS):
        text = _mutate(rng, rng.choice(dumps))
        path.write_text(text)
        section = next((line.split()[-1] for line in text.splitlines()
                        if line.startswith("sections:") and line.split()[1:]), "zz")
        for argv in (["fiber", "classify", str(path), "E1"],
                     ["fiber", "classify", str(path), "E2"],
                     ["mw", "rank", str(path)], ["height", str(path), section]):
            _run(capsys, argv)
        try:
            parsed = fileio.parse_config_text(text)
        except K3CertError:
            continue
        # stated multiplicities never change a verdict
        for d in parsed.divisors.values():
            fiber, refusal = classify_support(parsed.cfg, d)
            plain = _kernel_verdict(parsed.cfg, d)
            assert (fiber and (fiber.kind, fiber.multiplicities), refusal) == plain


def test_random_lattice_expressions_exit_cleanly(capsys):
    rng = random.Random(SEED)
    for _ in range(EXPRESSIONS):
        _run(capsys, ["lattice", "info", _expression(rng)])


def test_mutated_isometry_files_exit_cleanly(tmp_path, capsys):
    rng = random.Random(SEED)
    path = tmp_path / "iso.txt"
    for _ in range(ISOMETRY_MUTANTS):
        path.write_text(_mutate_isometry(rng, rng.choice(ISOMETRIES)))
        _run(capsys, ["entropy", str(path)])
