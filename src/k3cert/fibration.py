"""Elliptic-fibration arithmetic: Shioda-Tate rank, Mordell-Weil
positivity evidence by a typed plan, the height pairing and the
two-fibration inertia-group certificate.

Mordell-Weil evidence is the (ok, detail) pair of its report row: the
Lemma 5.4 clauses (lemma54_check) and the section plans of mw_evidence
return it, and cor32_verify turns it into the mw-evidence-E<i> Check.

The height pairing is one projection off the trivial lattice, spanned
by the zero section, the fiber class and the reducible fibers.  It reads
no section incidence: a declared incidence is a claim that
FibrationModel.validate checks against the configuration.  A declared
reducible fiber D must be a fiber of the fibration (D.F = 0), and every
section S meets it once (S.D = 1): on one component, of multiplicity 1.
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
    components with multiplicities, and the component each section is
    declared to meet (optional, checked by FibrationModel.validate)."""
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
            v = cfg.meet_class(s, self.fiber_class)
            if v != 1:
                raise EvidenceError(f"section {s} meets the fiber class {v} times, not 1")
        earlier = [(self.fiber_class, "the fiber class")]   # two fibers are disjoint
        for fim in self.reducible_fibers:
            mults = fim.fiber.multiplicities
            d = DivisorClass.from_dict(cfg, mults)
            on = f"{fim.fiber.kind} on {' '.join(mults)}"
            for other, other_on in earlier:
                v = pairing(d, other, cfg)
                if v != 0:
                    raise EvidenceError(f"reducible fiber {on} meets {other_on} {v} times, "
                                        "not 0: it is no fiber of the fibration")
            earlier.append((d, f"the reducible fiber {on}"))
            for s in self.sections:
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
        ce = cfg.meet_class(missing, e)
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
    """The component of the fiber that section s meets, checked against
    cfg: s meets exactly one component, once, and it has multiplicity 1
    (S.D = 1).  A declared incidence must name that component."""
    mults = fim.fiber.multiplicities
    row = cfg.inter[cfg.index(s)]
    meets = {c: row[cfg.index(c)] for c in mults if row[cfg.index(c)]}
    terms = ", ".join(f"{s}.{c} = {k}" for c, k in meets.items()) or "all 0"
    declared = fim.section_meets.get(s)
    if declared is None and list(meets.values()) != [1]:
        raise EvidenceError(f"section {s} must meet one component of the {fim.fiber.kind} "
                            f"fiber on {' '.join(mults)} once, but its intersections "
                            f"with the fiber are {terms}")
    comp = declared or next(iter(meets))
    if mults.get(comp) != 1:
        raise EvidenceError(f"section {s} meets component {comp} of multiplicity "
                            f"{mults.get(comp)}, sections meet multiplicity-1 components")
    if meets != {comp: 1}:
        raise EvidenceError(f"section {s} is declared on component {comp}, "
                            f"but its intersections with the fiber are {terms}")
    return comp


def height_pairing(model, cfg, p, q=None):
    """Height <P, Q> on the Mordell-Weil group: minus the pairing of the
    projections of P and Q orthogonal to the trivial lattice T (Shioda,
    On the Mordell-Weil lattices, 1990, Sec. 8).

    T is spanned by O, the fiber class F and all but one component of
    each reducible fiber, so its Gram G_T is U plus negative-definite root
    lattices, and <P, Q> = b_P^T G_T^-1 b_Q - P.Q with b_S the
    intersections of S with those generators.  F's row is constant:
    F.O = 1, F.F = F.Theta = 0, and F.S = 1 for every section; the model
    must already be validated, which checks that and makes the fibers
    disjoint.
    """
    if q is None:
        q = p
    for s in (p, q):
        if s not in model.sections:
            raise EvidenceError(f"{s} is not a declared section")
    idx = [cfg.index(model.zero_section)] + [
        cfg.index(c) for fim in model.reducible_fibers
        for c in list(fim.fiber.multiplicities)[1:]]
    f_row = [1] + [0] * len(idx)
    g_t = [[cfg.inter[i][j] for j in idx] + [f] for i, f in zip(idx, f_row)] + [f_row]
    b_p, b_q = ([cfg.inter[cfg.index(s)][j] for j in idx] + [1] for s in (p, q))
    # G_T y = t b_Q, so (y, t) spans the kernel of [G_T | -b_Q]
    [(*y, t)] = kernel_basis([row + [-b] for row, b in zip(g_t, b_q)])
    pq = cfg.inter[cfg.index(p)][cfg.index(q)]
    return Fraction(sum(a * b for a, b in zip(b_p, y)), t) - pq


@dataclass(frozen=True)
class MWPlan:
    """How a case certifies Mordell-Weil positivity on each |E_i|.

    kind "lemma54" reads the fixed curves and names no sections.  The
    section plans name the zero section O and a section P != O, and may
    declare the component of E_i each one meets, a claim that
    FibrationModel.validate checks: "height-positive" asks <P,P> > 0,
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
        for s in self.incidence:
            if s not in (self.zero, self.section):
                raise EvidenceError(f"incidence for {s}, which is not a section of the plan")


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
    cz, cp = (_declared_component(model.reducible_fibers[0], s, cfg)
              for s in (plan.zero, plan.section))
    if cz == cp:
        return True, (f"additive-same-component: {plan.section} and {plan.zero} meet "
                      f"the same component {cz} of the {fiber.kind} fiber")
    return (False, f"additive-same-component: {plan.zero} meets {cz} "
                   f"but {plan.section} meets {cp}")


@dataclass(frozen=True)
class Decomposition:
    """E = D + a*R + b*C with a, b > 0 and D effective (possibly zero),
    where a and b are E's own coefficients of R and C: the decomposition
    is its choice of R and the pivot C, and D is E - a*R - b*C."""
    e: DivisorClass
    r_curve: str
    c_curve: str

    def check_shape(self, cfg):
        i, j = cfg.index(self.r_curve), cfg.index(self.c_curve)
        d = list(self.e.coeffs)
        a, b = d[i], d[j]
        if a <= 0 or b <= 0:
            raise EvidenceError("decomposition needs a > 0 and b > 0")
        d[i] -= a
        d[j] -= b
        if min(d) < 0:
            raise EvidenceError("D part of the decomposition must be effective")


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

    When R1 != R2 the common point needs a fixed-pivot witness, given as
    its note: the pivot C is pointwise fixed by an automorphism g with
    R2 = g(R1), so any point of C ∩ R1 lies on R2 as well, and
    consistency demands only C.R1 > 0 and C.R2 > 0.
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
        c_row = cfg.inter[cfg.index(c)]
        if r1 == r2:
            v = c_row[cfg.index(r1)]
            checks.append(Check.of("common-point", v > 0, f"R1 = R2 and C.R1 = {v}"))
        elif witness is None:
            checks.append(Check("common-point", "FAIL",
                                "R1 != R2 but no triple-point witness declared"))
        else:
            cr1, cr2 = c_row[cfg.index(r1)], c_row[cfg.index(r2)]
            checks.append(Check.of(
                "common-point", cr1 > 0 and cr2 > 0,
                f"fixed-pivot witness: C.R1 = {cr1}, C.R2 = {cr2} ({witness})"))
    except ConfigError as exc:  # C, R1 or R2 is not a curve of the configuration
        checks.append(Check("common-point", "FAIL", str(exc)))
    return tuple(checks)
