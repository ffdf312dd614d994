#!/usr/bin/env python3
"""k3cert benchmark: four exact-arithmetic workloads, one client each.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all              # every workload, end-to-end metrics
    python3 perfbench/run.py --all --trace 1    # every workload, per-layer metrics

Run from the root of a checkout; the program is imported from its
``src``.  The last line of a single-workload run is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  Scratch files and span dumps go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import (Loop, Op, failure_counts, peak_rss_mb, setup_seconds,  # noqa: E402
                     summarize)
from tracing import MODULES, Tracer  # noqa: E402

SETUP_REPEATS = 9
VERIFY_PROBES = 7

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verify_all_s": "s",
}

# functions that get calls, self_ms, raised and overruns
FULL = (
    "exactlinalg.kernel_basis", "exactlinalg.inertia", "exactlinalg.smith_normal_form",
    "exactlinalg.det_exact", "exactlinalg.char_poly", "exactlinalg.mat_mul",
    "lattices.two_elementary_invariants", "lattices.gram_of",
    "curves.classify_fiber",
    "fibration.height_pairing", "fibration.lemma54_check",
    "spectral.irreducible_factor_with_root", "spectral.sturm_sequence",
    "spectral.largest_real_root",
    "cases.verify_case",
    "fileio.parse_config_text",
    "cli.run",
)
# single fields of other functions: (function, field)
PARTIAL = (
    ("lattices.discriminant_group", "calls"),
    ("curves.is_fiber_class", "calls"),
    ("curves.theta_constraints", "self_ms"),
    ("fibration.cor32_verify", "self_ms"),
    ("spectral.strip_cyclotomic_factors", "self_ms"),
    ("spectral.squarefree_part", "self_ms"),
    ("spectral.entropy", "raised"),
    ("spectral.entropy", "overruns"),
    ("cases.run_mutation", "calls"),
    ("fileio.dump_case", "self_ms"),
)
FIELDS = {"calls": "count", "self_ms": "ms", "raised": "count", "overruns": "count"}
EXTRA = {
    "curves.classify_fiber.distinct_ratio": "1",
    "spectral.factor_trial_divisions": "count",
    "spectral.factor_trial_useful_ratio": "1",
    "spectral.sturm_evaluations": "count",
    "failed_ratio": "1",
    "trace.spans": "count",
    "trace.throughput_ops_s": "ops/s",
    "trace.overhead_ops_s": "ops/s",
}


def per_layer_units():
    units = {}
    for fn in FULL:
        for field, unit in FIELDS.items():
            units[f"{fn}.{field}"] = unit
    for fn, field in PARTIAL:
        units[f"{fn}.{field}"] = FIELDS[field]
    for mod in MODULES:
        units[f"{mod}.self_ms"] = "ms"
    units.update(EXTRA)
    return units


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "k3cert", "__init__.py")):
        die(f"no k3cert sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import k3cert
    if os.path.dirname(os.path.dirname(os.path.abspath(k3cert.__file__))) != src:
        die(f"k3cert was imported from {k3cert.__file__}, not from {src}")


def workloads():
    from certify import Certify
    from entropy import EntropyK3, EntropySalem
    from lattice import Lattice
    return {w.name: w for w in (Certify, Lattice, EntropyK3, EntropySalem)}


def verify_probe(deadline_s):
    """Median latency of ``verify --all --json`` measured outside the
    workload's own loop; returns (seconds, outputs correct)."""
    from certify import Certify, cli_op
    wl = Certify(random.Random(0), None)
    op = Op("verify", cli_op(["verify", "--all", "--json"]), wl.verify_check)
    loop = Loop(deadline_s)
    samples, _ = loop.run([[op] * VERIFY_PROBES], 0.0)
    ok = not loop.wrong and not any(s.failure for s in samples)
    return statistics.median(s.seconds for s in samples), ok


def report_failures(failures, defect_classes):
    for (cls, reason), n in sorted(failures.items()):
        tag = "known defect" if cls in defect_classes else "UNEXPECTED"
        print(f"  failed: {n} x {cls} ({reason}) [{tag}]")


def tables_agree(wl):
    ref = getattr(wl, "ref", None)
    if ref is None or not ref.by_sympy:
        return True
    bad = ref.check_tables_with_sympy(random.Random(0))
    if bad:
        print(f"  sympy disagrees with expected/spectral.json on {bad}")
    return not bad


def run_plain(wl, args):
    setup_raw, setup = setup_seconds(wl.SETUP_CODE, SETUP_REPEATS, ROOT)
    loop = Loop(wl.DEADLINE_S)
    samples, rounds = loop.run(wl.rounds(), args.seconds)
    rss = peak_rss_mb()
    correct = not loop.wrong
    if wl.name == "certify":
        verify_s = statistics.median(s.seconds for s in samples if s.cls == "verify")
    else:
        verify_s, probe_ok = verify_probe(wl.DEADLINE_S)
        correct = correct and probe_ok
    correct = correct and tables_agree(wl)
    summary = summarize(samples, wl.DEADLINE_S)
    values = {
        "throughput_ops_s": summary["throughput_ops_s"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_tail_ms": summary["latency_tail_ms"],
        "setup_s": setup,
        "peak_rss_mb": rss,
        "verify_all_s": verify_s,
    }
    print(f"{wl.name} seed {args.seed}: {len(samples)} ops in {rounds} rounds, "
          f"failed_ratio {summary['failed_ratio']:.4f}, correct {correct}")
    for name, unit in END_TO_END.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(f"  latency_tail_ms is p{summary['tail_percentile']:.2f} of "
          f"{summary['samples']} samples")
    print(f"  raw wall time: throughput {summary['raw_throughput_ops_s']:.6g} ops/s, "
          f"setup {setup_raw:.6g} s, speed factor {summary['speed_factor']:.4g}")
    failures = failure_counts(samples)
    report_failures(failures, wl.DEFECT_CLASSES)
    return correct, len(samples), sum(failures.values()), {
        k: (values[k], u) for k, u in END_TO_END.items()}


def run_traced(wl, args):
    recorded = []

    def recording():
        for rnd in wl.rounds():
            recorded.append(rnd)
            yield rnd
    plain_loop = Loop(wl.DEADLINE_S)
    plain, rounds = plain_loop.run(recording(), args.seconds)
    tracer = Tracer()
    tracer.install()
    try:
        traced_loop = Loop(wl.DEADLINE_S, tracer)
        traced, _ = traced_loop.run(recorded, float("inf"))
    finally:
        tracer.uninstall()
    correct = not plain_loop.wrong and not traced_loop.wrong and tables_agree(wl)
    s0 = summarize(plain, wl.DEADLINE_S)
    s1 = summarize(traced, wl.DEADLINE_S)

    tracer.write(os.path.join(ROOT, ".perfbench", f"spans-{wl.name}.csv.gz"))
    agg, by_caller = tracer.per_function()
    values = {}
    for (home, name), (calls, self_s, raised, overruns) in agg.items():
        fn = f"{home}.{name}"
        values[f"{fn}.calls"] = calls
        values[f"{fn}.self_ms"] = 1e3 * self_s
        values[f"{fn}.raised"] = raised
        values[f"{fn}.overruns"] = overruns
        values[f"{home}.self_ms"] = values.get(f"{home}.self_ms", 0.0) + 1e3 * self_s
    classify_calls = values.get("curves.classify_fiber.calls", 0)
    trials = by_caller.get(("spectral", "poly_divmod_monicized", "spectral"), 0)
    values["curves.classify_fiber.distinct_ratio"] = (
        tracer.classify_distinct / classify_calls if classify_calls else 0.0)
    values["spectral.factor_trial_divisions"] = trials
    values["spectral.factor_trial_useful_ratio"] = tracer.trials_useful / trials if trials else 0.0
    values["spectral.sturm_evaluations"] = by_caller.get(("exactlinalg", "poly_eval", "spectral"), 0)
    values["failed_ratio"] = s0["failed_ratio"]
    values["trace.spans"] = len(tracer.spans)
    values["trace.throughput_ops_s"] = s1["throughput_ops_s"]
    values["trace.overhead_ops_s"] = s0["throughput_ops_s"] - s1["throughput_ops_s"]

    units = per_layer_units()
    print(f"{wl.name} seed {args.seed} traced: {len(traced)} ops in {rounds} rounds, "
          f"{len(tracer.spans)} spans, correct {correct}")
    print(f"  throughput untraced {s0['throughput_ops_s']:.6g} ops/s, traced "
          f"{s1['throughput_ops_s']:.6g} ops/s (self times are raw wall time)")
    for name, unit in units.items():
        print(f"  {name} = {values.get(name, 0):.6g} {unit}")
    failures = failure_counts(traced)
    report_failures(failures, wl.DEFECT_CLASSES)
    return correct, len(traced), sum(failures.values()), {
        k: (values.get(k, 0), u) for k, u in units.items()}


def run_all(args):
    """Each workload in its own interpreter, one after another."""
    for name in workloads():
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            return proc.returncode or 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"{name}: OUTPUTS INCORRECT")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    load_program()
    table = workloads()
    if args.all:
        return run_all(args)
    if args.workload not in table:
        die(f"--workload must be one of {sorted(table)}")

    workdir = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = table[args.workload](random.Random(f"{args.workload}:{args.seed}"), workdir)
    run = run_traced if args.trace else run_plain
    correct, attempted, failed, metrics = run(wl, args)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
