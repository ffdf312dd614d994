"""Elliptic-fibration arithmetic: Shioda-Tate rank, Mordell-Weil
positivity evidence by a typed plan, the height pairing and the
two-fibration inertia-group certificate.

Mordell-Weil evidence is the (ok, detail) pair of its report row: the
Lemma 5.4 clauses (lemma54_check) and the section plans of mw_evidence
return it, and cor32_verify turns it into the mw-evidence-E<i> Check.

The local height contributions come from Shioda's formula on the
intersection matrix of each reducible fiber.  A declared reducible
fiber D must be a fiber of the fibration (D.F = 0), and a section's
declared component is checked against the configuration before any
use: it is the only component of the fiber the section meets, once,
and it has multiplicity 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .curves import ConfigError, DivisorClass, pairing
from .errors import K3CertError
from .exactlinalg import kernel_basis


class EvidenceError(K3CertError):
    pass


@dataclass(frozen=True)
class FiberInModel:
    """One reducible fiber of a fibration: its Kodaira type, the named
    components with multiplicities, and which component each declared
    section meets."""
    fiber: object                    # KodairaFiber
    section_meets: dict              # section name -> component name


@dataclass(frozen=True)
class FibrationModel:
    rho: int
    fiber_class: DivisorClass
    zero_section: str
    sections: tuple
    reducible_fibers: tuple          # of FiberInModel

    def validate(self, cfg):
        if self.zero_section not in self.sections:
            raise EvidenceError("zero section is not among the declared sections")
        for s in self.sections:
            v = pairing(DivisorClass.from_dict(cfg, {s: 1}), self.fiber_class, cfg)
            if v != 1:
                raise EvidenceError(f"section {s} meets the fiber class {v} times, not 1")
        for fim in self.reducible_fibers:
            mults = fim.fiber.multiplicities
            v = pairing(DivisorClass.from_dict(cfg, mults), self.fiber_class, cfg)
            if v != 0:
                raise EvidenceError(
                    f"reducible fiber {fim.fiber.kind} on {' '.join(mults)} meets "
                    f"the fiber class {v} times, not 0: it is no fiber of the fibration")
            for s in fim.section_meets:
                _declared_component(fim, s, cfg)


def shioda_tate_rank(rho, component_counts):
    """rho - 2 - sum(m_v - 1) over reducible fibers with m_v components.

    This equals the Mordell-Weil rank when the fiber list is complete;
    a negative result signals an impossible fiber list.
    """
    if rho < 2:
        raise EvidenceError("Picard number must be >= 2 for an elliptic surface")
    rank = rho - 2 - sum(m - 1 for m in component_counts)
    if rank < 0:
        raise EvidenceError(
            f"fiber list is inconsistent: Shioda-Tate rank would be {rank}")
    return rank


def lemma54_check(e, cfg, fixed_curves, rho):
    """Mordell-Weil positivity from the structure of one fiber class e,
    already certified as a fiber class.

    Case 1: every fixed curve lies in Supp E and r < rho - 1.
    Case 2: all but one fixed curve lie in Supp E, the missing one is
    orthogonal to E, and r < rho - 2.
    Returns (ok, detail); detail starts with the case that holds or the
    clause that fails.
    """
    supp = set(e.support(cfg))
    k = len(fixed_curves)
    inside = [c for c in fixed_curves if c in supp]
    r = len(supp)
    if len(inside) == k:
        if r < rho - 1:
            return True, f"lemma54-case1: all {k} fixed curves in Supp E, r={r} < rho-1={rho-1}"
        return False, f"case1:r<rho-1: r={r} is not < rho-1={rho-1}"
    if len(inside) == k - 1:
        missing = [c for c in fixed_curves if c not in supp][0]
        ce = pairing(DivisorClass.from_dict(cfg, {missing: 1}), e, cfg)
        if ce != 0:
            return (False, f"case2:missing-orthogonal: missing fixed curve {missing} "
                           f"has C.E={ce}, expected 0")
        if r < rho - 2:
            return (True, f"lemma54-case2: {k-1} of {k} fixed curves in Supp E, "
                          f"{missing}.E=0, r={r} < rho-2={rho-2}")
        return False, f"case2:r<rho-2: r={r} is not < rho-2={rho-2}"
    return (False, f"fixed-curves-in-support: {len(inside)} of {k} fixed curves "
                   f"in Supp E, need k or k-1")


def _declared_component(fim, s, cfg):
    """The component of the fiber that section s is declared to meet,
    once it is checked against cfg: of multiplicity 1, and the only
    component s meets, with intersection 1."""
    if s not in fim.section_meets:
        raise EvidenceError(f"no incidence recorded for section {s}")
    comp = fim.section_meets[s]
    mults = fim.fiber.multiplicities
    if mults.get(comp) != 1:
        raise EvidenceError(
            f"section {s} meets component {comp} of multiplicity "
            f"{mults.get(comp)}, sections meet multiplicity-1 components")
    row = cfg.inter[cfg.index(s)]
    meets = {c: row[cfg.index(c)] for c in mults if row[cfg.index(c)]}
    if meets != {comp: 1}:
        terms = ", ".join(f"{s}.{c} = {k}" for c, k in meets.items()) or "all 0"
        raise EvidenceError(f"section {s} is declared on component {comp}, "
                            f"but its intersections with the fiber are {terms}")
    return comp


def _local_contribution(fim, cfg, zero, p, q):
    """contr_v(P, Q) = e_P^T (-A_v)^-1 e_Q for one reducible fiber
    (Shioda, On the Mordell-Weil lattices, 1990); zero, p and q are
    section names.

    A_v is the Gram of the components other than the one the zero section
    meets, and e_S holds the intersections of S with them.
    """
    zero_comp = _declared_component(fim, zero, cfg)
    _declared_component(fim, p, cfg)
    _declared_component(fim, q, cfg)
    idx = [cfg.index(c) for c in fim.fiber.multiplicities if c != zero_comp]
    e_p, e_q = ([cfg.inter[cfg.index(s)][j] for j in idx] for s in (p, q))
    # (-A_v) x = t e_Q, so (x, t) spans the kernel of [-A_v | -e_Q]
    [(*x, t)] = kernel_basis([[-cfg.inter[i][j] for j in idx] + [-e]
                              for i, e in zip(idx, e_q)])
    return Fraction(sum(a * b for a, b in zip(e_p, x)), t)


def height_pairing(model, cfg, p, q=None):
    """Height <P, Q> on the Mordell-Weil group (K3: chi = 2).

    <P,Q> = chi + (P.O) + (Q.O) - (P.Q) - sum_v contr_v(P,Q); for the
    quadratic form Q = P this is 4 + 2(P.O) - sum contr_v(P) because
    P.P = -2 on a K3.
    """
    if q is None:
        q = p
    for s in (p, q):
        if s not in model.sections:
            raise EvidenceError(f"{s} is not a declared section")
    dp = DivisorClass.from_dict(cfg, {p: 1})
    dq = DivisorClass.from_dict(cfg, {q: 1})
    do = DivisorClass.from_dict(cfg, {model.zero_section: 1})
    total = Fraction(2) + pairing(dp, do, cfg) + pairing(dq, do, cfg) - pairing(dp, dq, cfg)
    for fim in model.reducible_fibers:
        total -= _local_contribution(fim, cfg, model.zero_section, p, q)
    return total


@dataclass(frozen=True)
class MWPlan:
    """How a case certifies Mordell-Weil positivity on each |E_i|.

    kind "lemma54" reads the fixed curves and names no sections.  The
    section plans name the zero section O, a section P != O and the
    component of E_i each one meets: "height-positive" asks <P,P> > 0,
    "additive-same-component" asks that P and O meet one component of
    an additive fiber, which a torsion section P != O never does (a
    torsion section and O map into the component group injectively).
    """
    kind: str
    zero: str | None = None
    section: str | None = None
    incidence: dict = field(default_factory=dict)   # section name -> component name

    def __post_init__(self):
        if self.kind == "lemma54":
            return
        if self.kind not in ("height-positive", "additive-same-component"):
            raise EvidenceError(f"unknown evidence plan {self.kind!r}")
        if self.section == self.zero:
            raise EvidenceError("P must differ from the zero section")


def mw_evidence(plan, e, fiber, cfg, fixed_curves, rho):
    """Mordell-Weil positivity on the fibration |E| by the given plan.

    e must already be certified as a fiber class, of Kodaira type fiber.
    Returns (ok, detail), detail naming the evidence or the unmet clause;
    raises EvidenceError when the plan's sections do not fit |E|.
    """
    if plan.kind == "lemma54":
        return lemma54_check(e, cfg, fixed_curves, rho)
    model = FibrationModel(
        rho=rho, fiber_class=e, zero_section=plan.zero,
        sections=(plan.zero, plan.section),
        reducible_fibers=(FiberInModel(fiber, dict(plan.incidence)),))
    model.validate(cfg)
    if plan.kind == "height-positive":
        h = height_pairing(model, cfg, plan.section)
        if h > 0:
            return True, f"height-positive: <P,P> = {h}"
        return False, f"height-positive: <P,P> = {h} is not positive"
    if not fiber.kind.endswith("*"):
        return False, f"additive-same-component: fiber {fiber.kind} is not additive"
    cz, cp = plan.incidence[plan.zero], plan.incidence[plan.section]
    if cz == cp:
        return True, (f"additive-same-component: {plan.section} and {plan.zero} meet "
                      f"the same component {cz} of the {fiber.kind} fiber")
    return (False, f"additive-same-component: {plan.zero} meets {cz} "
                   f"but {plan.section} meets {cp}")


@dataclass(frozen=True)
class Decomposition:
    """E = D + a*R + b*C with a, b > 0 and D effective (possibly zero);
    D is not stated but derived as E - a*R - b*C."""
    e: DivisorClass
    a: int
    r_curve: str
    b: int
    c_curve: str

    def check_shape(self, cfg):
        if self.a <= 0 or self.b <= 0:
            raise EvidenceError("decomposition needs a > 0 and b > 0")
        d = self.e + DivisorClass.from_dict(cfg, {self.r_curve: -self.a}) \
            + DivisorClass.from_dict(cfg, {self.c_curve: -self.b})
        if not d.is_effective():
            raise EvidenceError("D part of the decomposition must be effective")


@dataclass(frozen=True)
class TriplePointWitness:
    """Input evidence for C ∩ R1 ∩ R2 != 0 when R1 != R2.

    kind "fixed-pivot": the pivot C is pointwise fixed by an automorphism
    g with R2 = g(R1); any point of C ∩ R1 then lies on R2 as well, so
    consistency demands only C.R1 > 0 and C.R2 > 0.
    """
    kind: str
    note: str = ""

    def __post_init__(self):
        if self.kind != "fixed-pivot":
            raise EvidenceError(f"unknown triple-point witness {self.kind!r}")


class Check(NamedTuple):
    """One row of a verification report: the check's name, "PASS" or
    "FAIL", and the detail behind the verdict."""
    name: str
    status: str
    detail: str

    @classmethod
    def of(cls, name, ok, detail):
        return cls(name, "PASS" if ok else "FAIL", detail)


def cor32_verify(dec1, dec2, ev1, ev2, cfg, fiber_verdicts, witness=None):
    """Verify the two-fibration certificate for a positive-entropy
    inertia group element; returns a tuple of Check.

    Checks: both E_i are fiber classes; the Mordell-Weil evidence items
    are valid; E1.E2 > 0 (two isotropic classes are proportional only if
    their product vanishes); the pivot differs from R1, R2; and the
    common-point condition on C, R1, R2.  fiber_verdicts holds the
    fiber_class_verdict of E1 and E2, and ev1, ev2 the (ok, detail) of
    their Mordell-Weil evidence.
    """
    checks = []
    for i, dec in enumerate((dec1, dec2), 1):
        try:
            dec.check_shape(cfg)
            checks.append(Check(f"decomposition-E{i}", "PASS",
                                "E = D + a*R + b*C with a,b > 0"))
        except (EvidenceError, ConfigError) as exc:
            checks.append(Check(f"decomposition-E{i}", "FAIL", str(exc)))
    if dec1.c_curve != dec2.c_curve:
        checks.append(Check("same-pivot", "FAIL",
                            "the two decompositions name different pivot curves"))
    else:
        checks.append(Check("same-pivot", "PASS",
                            f"both decompositions pivot on {dec1.c_curve}"))
    for i, (ok, _, diag) in enumerate(fiber_verdicts, 1):
        checks.append(Check.of(f"fiber-class-E{i}", ok, diag))
    for i, ev in enumerate((ev1, ev2), 1):
        checks.append(Check.of(f"mw-evidence-E{i}", *ev))
    prod = pairing(dec1.e, dec2.e, cfg)
    checks.append(Check.of("non-proportional", prod > 0, f"E1.E2 = {prod}"))
    c = dec1.c_curve
    r1, r2 = dec1.r_curve, dec2.r_curve
    checks.append(Check.of("pivot-distinct", c != r1 and c != r2,
                           f"C={c}, R1={r1}, R2={r2}"))
    try:
        dc = DivisorClass.from_dict(cfg, {c: 1})
        if r1 == r2:
            v = pairing(dc, DivisorClass.from_dict(cfg, {r1: 1}), cfg)
            checks.append(Check.of("common-point", v > 0, f"R1 = R2 and C.R1 = {v}"))
        elif witness is None:
            checks.append(Check("common-point", "FAIL",
                                "R1 != R2 but no triple-point witness declared"))
        else:
            cr1 = pairing(dc, DivisorClass.from_dict(cfg, {r1: 1}), cfg)
            cr2 = pairing(dc, DivisorClass.from_dict(cfg, {r2: 1}), cfg)
            checks.append(Check.of(
                "common-point", cr1 > 0 and cr2 > 0,
                f"fixed-pivot witness: C.R1 = {cr1}, C.R2 = {cr2} ({witness.note})"))
    except ConfigError as exc:  # C, R1 or R2 is not a curve of the configuration
        checks.append(Check("common-point", "FAIL", str(exc)))
    return tuple(checks)
