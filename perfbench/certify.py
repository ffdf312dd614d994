"""``certify``: the paper's pipeline as users run it.

A round is one ``verify --all --json``, the seven mutation-kit runs and,
for each of the 16 rows, ``case dump`` then ``fiber classify E1/E2`` (and
``mw rank`` / ``height`` where the dump has a fibration block) on a copy
of the dump whose curve order, meets lines and divisor terms the seed
shuffles.  Expected outputs are the recorded ones in
``expected/certify.json``; shuffling the file changes none of them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

from harness import Op

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected", "certify.json")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cli_op(argv):
    from k3cert import cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue()
    return run


def shuffle_config(text, rng):
    """Same configuration, another curve order and line order."""
    head, curves, meets, rest = [], None, [], []
    for line in text.splitlines():
        if line.startswith("curves:"):
            curves = line[len("curves:"):].split()
            rng.shuffle(curves)
        elif line.startswith("meets:"):
            a, b, k = line[len("meets:"):].split()
            meets.append(f"meets: {b} {a} {k}" if rng.random() < 0.5 else line)
        elif line.startswith("divisor "):
            label, _, terms = line.partition(":")
            terms = terms.split()
            rng.shuffle(terms)
            rest.append(f"{label}: {' '.join(terms)}")
        elif curves is None:
            head.append(line)
        else:
            rest.append(line)
    rng.shuffle(meets)
    return "\n".join(head + ["curves: " + " ".join(curves)] + meets + rest) + "\n"


class Certify:
    name = "certify"
    SETUP_CODE = ("import k3cert.cli\nfrom k3cert import cases\n"
                  "cases.builtin_cases()\ncases.mutation_kit()\n")
    DEADLINE_S = 5.0
    DEFECT_CLASSES = ()

    def __init__(self, rng, workdir):
        from k3cert import cases
        with open(EXPECTED, encoding="utf-8") as fh:
            self.expected = json.load(fh)
        self.rng = rng
        self.workdir = workdir
        self.mutations = {m.mutation_id: m for m in cases.mutation_kit()}

    @staticmethod
    def _expect(code, digest):
        return lambda res: res[0] == code and sha256(res[1]) == digest

    def verify_check(self, res):
        code, out = res
        want = self.expected["verify"]
        if code != want["exit"] or sha256(out) != want["sha256"]:
            return False
        rows = json.loads(out)
        verdicts = [(r["id"], r["status"]) for r in rows]
        return verdicts == [tuple(v) for v in want["verdicts"]]

    def _mutation_op(self, mid, expected_check):
        from k3cert import cases
        mut = self.mutations[mid]

        def check(res):
            report, flipped = res
            first = next((n for n, s, _ in report.checks if s == "FAIL"), None)
            return flipped is True and first == expected_check and report.status == "FAIL"
        return Op("mutation", lambda: cases.run_mutation(mut), check)

    def rounds(self):
        n = 0
        while True:
            yield self._round(n)
            n += 1

    def _round(self, n):
        exp = self.expected
        ops = [Op("verify", cli_op(["verify", "--all", "--json"]), self.verify_check)]
        for mid, check_name in exp["mutations"]:
            ops.append(self._mutation_op(mid, check_name))
        for row in exp["rows"]:
            argv = ["case", "dump", row["id"]]
            if row["param"] is not None:
                argv += ["--param", row["param"]]
            ops.append(Op("dump", cli_op(argv), self._expect(0, sha256(row["dump"]))))
            path = os.path.join(self.workdir, f"r{n}-{row['tag']}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(shuffle_config(row["dump"], self.rng))
            for fop in row["file_ops"]:
                argv = [path if a == "{file}" else a for a in fop["argv"]]
                ops.append(Op("file", cli_op(argv), self._expect(fop["exit"], fop["sha256"])))
        self.rng.shuffle(ops)
        return ops
