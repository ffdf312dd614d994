"""Text formats for curve configurations, divisors and fibration models.

Config files are UTF-8 text, one directive per line, '#' starts a
comment.  Directives, in any order (curves: must precede uses):

    curves: NAME NAME ...
    meets: NAME NAME K              # unlisted pairs meet 0 times
    divisor LABEL: NAME=INT ...
    fibration: fiber=LABEL zero=NAME rho=INT
    sections: NAME NAME ...
    rfiber LABEL: NAME=COMPONENT ...   # reducible fiber + section incidence

The diagonal of the intersection matrix is implied -2, and a curves:
line lists at most MAX_CURVES names.  The fibration's
fiber divisor must be a fiber class.  Its curves are (-2)-curves, so its
fiber is always one of the reducible fibers, whether or not an `rfiber`
line declares it.  An `rfiber` line needs a fibration: line and names a
declared divisor, whose support is classified.  Its NAME=COMPONENT pairs
are optional claims that FibrationModel.validate checks against the
meets: lines; each NAME must be a declared section, each COMPONENT a
curve of that divisor's support, and heights never read them.

Isometry files for the entropy command are whitespace-separated
integers: first n, at most lattices.MAX_RANK, then the n*n entries of G
row by row, then the n*n entries of M.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import DivisorClass, classify_fiber, fiber_class_verdict, make_config
from .errors import K3CertError
from .fibration import FiberInModel, FibrationModel
from .lattices import MAX_RANK


# The intersection matrix is dense, so n curves cost n^2 entries.
MAX_CURVES = 256


class FileFormatError(K3CertError):
    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class ParsedConfig:
    cfg: object
    divisors: dict          # label -> DivisorClass
    model: object           # FibrationModel or None


def _parse_assignments(rest, line_no, value_parser):
    out = {}
    for tok in rest.split():
        if "=" not in tok:
            raise FileFormatError(f"expected NAME=VALUE, got {tok!r}", line_no)
        name, _, val = tok.partition("=")
        try:
            out[name] = value_parser(val)
        except ValueError:
            raise FileFormatError(f"bad value in {tok!r}", line_no) from None
    return out


def parse_config_text(text):
    names = None
    meets = []
    raw_divisors = {}
    fibration = None
    sections = None
    rfibers = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("curves:"):
            if names is not None:
                raise FileFormatError("duplicate curves: line", line_no)
            names = line[len("curves:"):].split()
            if not names:
                raise FileFormatError("curves: line lists no curves", line_no)
            if len(names) > MAX_CURVES:
                raise FileFormatError(
                    f"curves: line lists {len(names)} curves, more than {MAX_CURVES}", line_no)
        elif line.startswith("meets:"):
            parts = line[len("meets:"):].split()
            if len(parts) != 3:
                raise FileFormatError("meets: needs NAME NAME K", line_no)
            try:
                k = int(parts[2])
            except ValueError:
                raise FileFormatError(f"bad multiplicity {parts[2]!r}", line_no) from None
            meets.append((parts[0], parts[1], k, line_no))
        elif line.startswith("divisor "):
            head, _, rest = line[len("divisor "):].partition(":")
            label = head.strip()
            if not label:
                raise FileFormatError("divisor needs a label", line_no)
            if label in raw_divisors:
                raise FileFormatError(f"duplicate divisor {label!r}", line_no)
            raw_divisors[label] = (_parse_assignments(rest, line_no, int), line_no)
        elif line.startswith("fibration:"):
            if fibration is not None:
                raise FileFormatError("duplicate fibration: line", line_no)
            kv = _parse_assignments(line[len("fibration:"):], line_no, str)
            for key in ("fiber", "zero", "rho"):
                if key not in kv:
                    raise FileFormatError(f"fibration: missing {key}=", line_no)
            try:
                rho = int(kv["rho"])
            except ValueError:
                raise FileFormatError(f"bad rho {kv['rho']!r}", line_no) from None
            fibration = (kv["fiber"], kv["zero"], rho, line_no)
        elif line.startswith("sections:"):
            if sections is not None:
                raise FileFormatError("duplicate sections: line", line_no)
            sections = line[len("sections:"):].split()
        elif line.startswith("rfiber "):
            head, _, rest = line[len("rfiber "):].partition(":")
            label = head.strip()
            rfibers.append((label, _parse_assignments(rest, line_no, str), line_no))
        else:
            raise FileFormatError(f"unknown directive {line.split()[0]!r}", line_no)

    if names is None:
        raise FileFormatError("missing curves: line", 0)
    try:
        cfg = make_config(names, [(a, b, k) for a, b, k, _ in meets])
    except ValueError as exc:
        raise FileFormatError(str(exc), meets[0][3] if meets else 0) from None

    divisors = {}
    for label, (coeffs, line_no) in raw_divisors.items():
        try:
            divisors[label] = DivisorClass.from_dict(cfg, coeffs)
        except ValueError as exc:
            raise FileFormatError(str(exc), line_no) from None

    if fibration is None:
        if rfibers:
            raise FileFormatError("rfiber needs a fibration: line", rfibers[0][2])
        return ParsedConfig(cfg, divisors, None)
    flabel, zero, rho, line_no = fibration
    if flabel not in divisors:
        raise FileFormatError(f"fiber divisor {flabel!r} not declared", line_no)
    if not sections:
        raise FileFormatError("fibration: needs a sections: line", line_no)
    ok, f_fiber, diag = fiber_class_verdict(divisors[flabel], cfg)
    if not ok:
        raise FileFormatError(f"fiber divisor {flabel!r} is not a fiber class ({diag})", line_no)
    f_support = divisors[flabel].support(cfg)
    f_declared = False
    fims = []
    owner = {}     # curve -> label of the rfiber whose support holds it
    for rlabel, incidence, rline in rfibers:
        if rlabel not in divisors:
            raise FileFormatError(f"rfiber divisor {rlabel!r} not declared", rline)
        support = divisors[rlabel].support(cfg)
        # two fibers of one fibration are disjoint
        for c in support:
            if c in owner:
                raise FileFormatError(
                    f"rfiber {rlabel} shares curve {c} with rfiber {owner[c]}", rline)
        owner.update(dict.fromkeys(support, rlabel))
        for s in incidence:
            cfg.index(s)    # a name that is no curve is reported as such
            if s not in sections:
                raise FileFormatError(f"rfiber {rlabel}: {s} is not a declared section", rline)
            if incidence[s] not in support:
                raise FileFormatError(
                    f"rfiber {rlabel}: {s}={incidence[s]} names no component of {rlabel}", rline)
        if support == f_support:
            fiber, f_declared = f_fiber, True
        else:
            try:
                fiber = classify_fiber(cfg, support)
            except ValueError as exc:
                raise FileFormatError(f"rfiber {rlabel}: {exc}", rline) from None
        fims.append(FiberInModel(fiber, incidence))
    if not f_declared:
        fims.insert(0, FiberInModel(f_fiber, {}))
    return ParsedConfig(cfg, divisors, FibrationModel(
        rho=rho, fiber_class=divisors[flabel], zero_section=zero,
        sections=tuple(sections), reducible_fibers=tuple(fims)))


def parse_config_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _isometry_int(tok):
    try:
        return int(tok)
    except ValueError as exc:
        if (tok[1:] if tok[0] in "+-" else tok).isdecimal():
            # digits that int() refuses: more than it converts
            raise FileFormatError("integer is too long", 0) from None
        raise FileFormatError(f"non-integer token: {exc}", 0) from None


def parse_isometry_text(text):
    toks = text.split()
    if not toks:
        raise FileFormatError("empty isometry file", 0)
    n = _isometry_int(toks[0])
    if n > MAX_RANK:
        raise FileFormatError(f"isometry dimension {n} exceeds {MAX_RANK}", 0)
    vals = [n] + [_isometry_int(t) for t in toks[1:]]
    if n <= 0 or len(vals) != 1 + 2 * n * n:
        raise FileFormatError(
            f"expected 1 + 2*n^2 integers for n = {n}, got {len(vals)}", 0)
    body = vals[1:]
    g = [body[i * n:(i + 1) * n] for i in range(n)]
    m = [body[n * n + i * n: n * n + (i + 1) * n] for i in range(n)]
    return g, m


def parse_isometry_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_isometry_text(fh.read())


def dump_config(cfg, divisors=(), comments=()):
    """Emit a configuration (and labeled divisors) in the file format."""
    lines = [f"# {c}" for c in comments]
    lines.append("curves: " + " ".join(cfg.curve_names))
    n = cfg.size
    for i in range(n):
        for j in range(i + 1, n):
            v = cfg.inter[i][j]
            if v:
                lines.append(f"meets: {cfg.curve_names[i]} {cfg.curve_names[j]} {v}")
    for label, d in divisors:
        parts = " ".join(f"{name}={c}" for name, c in zip(cfg.curve_names, d.coeffs) if c)
        lines.append(f"divisor {label}: {parts}")
    return "\n".join(lines) + "\n"


def dump_case(inst):
    """Emit one case instance as a config file: its curves, E1 and E2, and
    a section plan's fibration: block on E1.  The rest of the case is
    comments or absent, so the case cannot be re-verified from it."""
    comments = [f"case {inst.case_id}"
                + (f" (param {inst.param})" if inst.param is not None else "")]
    if inst.triple:
        comments.append(f"NS = {inst.ns_expr}, (rho,a,delta) = {inst.triple}, k = {inst.k}")
    comments.extend(inst.encoding_flags)
    divisors = [("E1", inst.dec1.e), ("E2", inst.dec2.e)]
    text = dump_config(inst.cfg, divisors, comments)
    extra = []
    if inst.fixed_curves:
        extra.append("# fixed curves: " + " ".join(inst.fixed_curves))
    for label, kind, support in inst.phi_fibers:
        extra.append(f"# phi fiber {label} ({kind}): " + " ".join(support))
    plan = inst.mw_plan
    if plan.kind != "lemma54":
        extra.append(f"fibration: fiber=E1 zero={plan.zero} rho={inst.rho}")
        extra.append(f"sections: {plan.zero} {plan.section}")
        pairs = " ".join(f"{s}={c}" for s, c in sorted(plan.incidence.items()))
        extra.append(f"rfiber E1: {pairs}")
    if extra:
        text += "\n".join(extra) + "\n"
    return text
