#!/usr/bin/env python3
"""Write the reference tables in ``expected/``.

    python3 perfbench/record.py

``certify.json`` holds the outputs of the k3cert version in ``src`` (run
it on the commit whose outputs are the reference).  ``spectral.json``
holds characteristic polynomials and Salem factors of the entropy
blocks, computed with sympy alone.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def cli(argv):
    from k3cert import cli as k3cli
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = k3cli.run(argv)
    return code, out.getvalue()


def record_certify():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from certify import sha256
    from k3cert import cases
    code, out = cli(["verify", "--all", "--json"])
    verify = {"exit": code, "sha256": sha256(out),
              "verdicts": [[r["id"], r["status"]] for r in json.loads(out)]}
    mutations = [[m.mutation_id, m.expected_check] for m in cases.mutation_kit()]
    rows = []
    for rec in cases.builtin_cases():
        for p in rec.param_values:
            argv = ["case", "dump", rec.case_id] + ([] if p is None else ["--param", str(p)])
            code, dump = cli(argv)
            assert code == 0
            tag = rec.case_id + ("" if p is None else f"-{p}")
            path = os.path.join(HERE, "..", ".perfbench", "record.txt")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dump)
            templates = [["fiber", "classify", "{file}", "E1"],
                         ["fiber", "classify", "{file}", "E2"]]
            if "\nsections: " in dump:
                section = dump.split("\nsections: ")[1].split()[1]
                templates += [["mw", "rank", "{file}"], ["height", "{file}", section]]
            file_ops = []
            for t in templates:
                c, o = cli([path if a == "{file}" else a for a in t])
                file_ops.append({"argv": t, "exit": c, "sha256": sha256(o)})
            rows.append({"tag": tag, "id": rec.case_id,
                         "param": None if p is None else str(p),
                         "dump": dump, "file_ops": file_ops})
    return {"verify": verify, "mutations": mutations, "rows": rows}


def record_spectral():
    import sympy
    from entropy import FINITE, SALEM22_DIAGRAMS, SALEM_DIAGRAMS, block
    x = sympy.Symbol("x")
    names = ["HYP", "PAR"] + list(FINITE) + sorted(
        {"T%d,%d,%d" % d for d in SALEM_DIAGRAMS + SALEM22_DIAGRAMS})
    charpoly, salem = {}, {}
    for name in names:
        _, m = block(name, random.Random(0))
        cp = sympy.Matrix(m).charpoly(x).as_expr()
        charpoly[name] = [int(c) for c in sympy.Poly(cp, x).all_coeffs()[::-1]]
        for f, _ in sympy.factor_list(cp)[1]:
            if sympy.Poly(f, x).count_roots(1, None) > 0 and f.subs(x, 1) != 0:
                salem[name] = [int(c) for c in sympy.Poly(f, x).all_coeffs()[::-1]]
    return {"charpoly": charpoly, "salem": salem}


def main():
    out = os.path.join(HERE, "expected")
    for name, table in (("certify.json", record_certify()), ("spectral.json", record_spectral())):
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
