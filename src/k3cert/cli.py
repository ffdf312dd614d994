"""Command-line entry point.

Exit codes: 0 success / all PASS, 1 verification FAIL, 2 usage, parse
or input error (every K3CertError).  Output is byte-stable across runs
for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import fileio, spectral
from .curves import is_fiber_class
from .errors import K3CertError
from .fibration import height_pairing, shioda_tate_rank
from .lattices import LatticeParseError, lattice_info

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _print_lattice_info(info, as_json):
    if as_json:
        print(json.dumps(info, sort_keys=True))
        return
    sig = info["signature"]
    print(f"expr: {info['expr']}")
    print(f"rank: {info['rank']}")
    print(f"signature: ({sig['plus']}, {sig['minus']}, {sig['zero']})")
    print(f"det: {info['det']}")
    if "discriminant_group" in info:
        dg = info["discriminant_group"]
        print("discriminant group: " + (" x ".join(f"Z/{d}" for d in dg) or "trivial"))
    if "two_elementary" in info:
        te = info["two_elementary"]
        print(f"2-elementary (rank, a, delta): ({te['rank']}, {te['a']}, {te['delta']})")
    if "fixed_locus_components" in info:
        print(f"fixed locus components k: {info['fixed_locus_components']}")


def cmd_lattice(args):
    _print_lattice_info(lattice_info(args.expr), args.json)
    return EXIT_OK


def cmd_fiber(args):
    parsed = fileio.parse_config_file(args.file)
    if args.label not in parsed.divisors:
        print(f"error: no divisor {args.label!r} in {args.file}", file=sys.stderr)
        return EXIT_USAGE
    ok, fiber, diag = is_fiber_class(parsed.divisors[args.label], parsed.cfg)
    if ok:
        mults = " ".join(f"{n}:{m}" for n, m in sorted(fiber.multiplicities.items()))
        print(f"{args.label}: fiber of type {fiber.kind}")
        print(f"multiplicities: {mults}")
        return EXIT_OK
    print(f"{args.label}: not a fiber class ({diag})")
    return EXIT_FAIL


def _validated_model(path):
    parsed = fileio.parse_config_file(path)
    if parsed.model is None:
        raise K3CertError("file has no fibration: block")
    parsed.model.validate(parsed.cfg)
    return parsed.model, parsed.cfg


def cmd_mw(args):
    model, _ = _validated_model(args.file)
    counts = [fim.fiber.component_count for fim in model.reducible_fibers]
    rank = shioda_tate_rank(model.rho, counts)
    print(f"rho: {model.rho}")
    print("reducible fibers: " + (", ".join(
        f"{fim.fiber.kind}({fim.fiber.component_count})"
        for fim in model.reducible_fibers) or "none"))
    print(f"shioda-tate rank: {rank}")
    return EXIT_OK


def cmd_height(args):
    model, cfg = _validated_model(args.file)
    print(f"<{args.section}, {args.section}> = {height_pairing(model, cfg, args.section)}")
    return EXIT_OK


def cmd_entropy(args):
    g, m = fileio.parse_isometry_file(args.file)
    report = spectral.entropy(m, g)
    print(f"class: {report.dynamical_class}")
    print(f"spectral radius: {report.spectral_radius:.10f}")
    print(f"entropy: {report.entropy:.10f}")
    if report.salem_factor is not None:
        print("salem factor (ascending): "
              + " ".join(str(c) for c in report.salem_factor))
    elif report.dynamical_class == "hyperbolic":
        print(f"salem factor: not certified ({report.no_salem_reason})")
    if report.order is not None:
        print(f"order: {report.order}")
    return EXIT_OK


def cmd_verify(args):
    from . import cases  # imported here: the other commands start faster without it
    if not args.all and args.only is None:
        print("error: need --all or --only <id>", file=sys.stderr)
        return EXIT_USAGE
    reports = cases.verify_all(only=args.only, param=args.param)
    if not reports:
        selection = " ".join(f"--{key} {value}" for key, value in
                             (("only", args.only), ("param", args.param)) if value is not None)
        raise K3CertError(f"no built-in case row matches {selection}")
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], sort_keys=True))
    else:
        for rep in reports:
            tag = rep.case_id + (f"[{rep.param}]" if rep.param is not None else "")
            print(f"{tag:24s} {rep.status}")
            if rep.status == "FAIL" or args.verbose:
                for name, status, detail in rep.checks:
                    if status == "FAIL" or args.verbose:
                        print(f"    {status:4s} {name}: {detail}")
        npass = sum(1 for r in reports if r.status == "PASS")
        print(f"{npass}/{len(reports)} PASS")
    return EXIT_OK if all(r.status == "PASS" for r in reports) else EXIT_FAIL


def cmd_case(args):
    from . import cases  # imported here: the other commands start faster without it
    rec = cases.get_case(args.id)
    sys.stdout.write(fileio.dump_case(rec.instantiate(args.param)))
    return EXIT_OK


@functools.cache
def build_parser():
    """The one parser of this process; parse_args returns a fresh Namespace
    on each call, so run() can reuse it."""
    p = argparse.ArgumentParser(
        prog="k3cert",
        description="Exact lattice and fibration certificates for K3 surfaces")
    sub = p.add_subparsers(dest="command", required=True)

    pl = sub.add_parser("lattice", help="lattice invariants")
    pls = pl.add_subparsers(dest="action", required=True)
    pli = pls.add_parser("info", help="rank, signature, discriminant data")
    pli.add_argument("expr", help="lattice expression, e.g. 'U+D4+A1^7'")
    pli.add_argument("--json", action="store_true")
    pli.set_defaults(func=cmd_lattice)

    pf = sub.add_parser("fiber", help="Kodaira classification")
    pfs = pf.add_subparsers(dest="action", required=True)
    pfc = pfs.add_parser("classify", help="classify a divisor from a config file")
    pfc.add_argument("file")
    pfc.add_argument("label")
    pfc.set_defaults(func=cmd_fiber)

    pm = sub.add_parser("mw", help="Mordell-Weil arithmetic")
    pms = pm.add_subparsers(dest="action", required=True)
    pmr = pms.add_parser("rank", help="Shioda-Tate rank from a model file")
    pmr.add_argument("file")
    pmr.set_defaults(func=cmd_mw)

    ph = sub.add_parser("height", help="height pairing of a section")
    ph.add_argument("file")
    ph.add_argument("section")
    ph.set_defaults(func=cmd_height)

    pe = sub.add_parser("entropy", help="entropy of a lattice isometry")
    pe.add_argument("file", help="n, then G and M as whitespace-separated integers")
    pe.set_defaults(func=cmd_entropy)

    pv = sub.add_parser("verify", help="replay the built-in certificates")
    pv.add_argument("--all", action="store_true")
    pv.add_argument("--only")
    pv.add_argument("--param")
    pv.add_argument("--json", action="store_true")
    pv.add_argument("--verbose", action="store_true")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("case", help="dump a built-in case record")
    pc.add_argument("action", choices=["dump"])
    pc.add_argument("id")
    pc.add_argument("--param")
    pc.set_defaults(func=cmd_case)
    return p


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (fileio.FileFormatError, LatticeParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (K3CertError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
