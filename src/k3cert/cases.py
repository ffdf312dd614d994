"""Embedded dataset of the explicit K3 constructions and the pipeline
that replays their certificates end to end.

Each record carries a curve configuration, the declared reducible fibers
of the base fibration phi, two fiber candidates E1/E2 with their
decompositions around a pivot curve C, and a Mordell-Weil positivity
plan.  verify_case replays everything; failures become report rows, not
exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

from .curves import (
    DivisorClass,
    FiberError,
    classify_fiber,
    classify_support,
    fiber_class_verdict,
    kinds_compatible,
    make_config,
    theta_constraints,
)
from .errors import K3CertError
from .exactlinalg import det_exact
from .fibration import (
    Check,
    Decomposition,
    MWPlan,
    cor32_verify,
    mw_evidence,
    shioda_tate_rank,
)
from .lattices import (
    fixed_locus_component_count,
    gram_of,
    two_elementary_invariants,
)


@dataclass(frozen=True)
class CaseInstance:
    case_id: str
    param: object                  # None, or t in {0,1,2}, or a variant name
    rho: int
    triple: tuple                  # (rho, a, delta) or None when NS has an opaque summand
    ns_expr: str                   # lattice expression text, or None
    cfg: object                    # CurveConfig
    fixed_curves: tuple            # the whole fixed locus of the involution
    phi_fibers: tuple              # (label, expected_kind, support tuple)
    e_kind: str                    # expected Kodaira kind of E1 and E2
    dec1: Decomposition            # E1 = D1 + a1*R1 + b1*C, with E1 as dec1.e
    dec2: Decomposition
    encoding_flags: tuple
    phi_rank_expected: int | None = None   # Shioda-Tate rank of phi when asserted
    mw_plan: MWPlan = MWPlan("lemma54")
    witness: str | None = None     # note of the fixed-pivot argument when R1 != R2

    @property
    def k(self):
        """The fixed curves are the whole fixed locus, so k, the number of
        its components, is their count."""
        return len(self.fixed_curves)


@dataclass(frozen=True)
class CaseRecord:
    case_id: str
    param_values: tuple            # (None,) when concrete
    builder: object = field(compare=False)   # (row, param) -> CaseInstance

    def matching(self, param=None):
        """The parameter values named by param, compared as text, so 1 and
        "1" name the same row; every value when param is None."""
        return [v for v in self.param_values if param is None or str(v) == str(param)]

    def instantiate(self, param=None):
        """The row at param, the first value when param is None.  The
        builder gets the parameter and row, the CaseInstance constructor
        with this record's id and that parameter filled in."""
        named = self.matching(param)
        if not named:
            raise K3CertError(
                f"{self.case_id}: parameter {param!r} not in {self.param_values}")
        return self.builder(partial(CaseInstance, self.case_id, named[0]), named[0])


def _cycle_div(cfg, names):
    return DivisorClass.from_dict(cfg, {n: 1 for n in names})


def _chain_meets(names):
    return [(a, b, 1) for a, b in zip(names, names[1:])]


# ---------------------------------------------------------------------------
# case builders


def _build_rho11(row, t):
    """Parametric template: fixed curve C, a curve H with C.H = 2 and its
    image gH under an automorphism fixing C pointwise; t = H.gH."""
    cfg = make_config(
        ["C", "H", "gH"],
        [("C", "H", 2), ("C", "gH", 2)] + ([("H", "gH", t)] if t else []))
    dec1 = Decomposition(DivisorClass.from_dict(cfg, {"H": 1, "C": 1}), 1, "H", 1, "C")
    dec2 = Decomposition(DivisorClass.from_dict(cfg, {"gH": 1, "C": 1}), 1, "gH", 1, "C")
    return row(
        rho=11, triple=(11, 11, 1), ns_expr="U(2)+A1^9", cfg=cfg, fixed_curves=("C",),
        phi_fibers=(), e_kind="I2/III", dec1=dec1, dec2=dec2,
        witness=("C is pointwise fixed and gH is the image of H, so any point "
                 "of C.H lies on gH"),
        encoding_flags=(
            "t = H.gH is a free parameter of the template, run over {0,1,2}",
            "R1 = H and R2 = gH differ; the common point comes from the "
            "fixed-pivot witness, not from a declared triple point",
        ))


def _build_rho12(row, _):
    names = ["C1", "C2"] + [f"H{i}" for i in range(1, 11)] \
        + [f"H{i}'" for i in range(1, 11)]
    meets = []
    for i in range(1, 11):
        meets += [("C1", f"H{i}", 1), ("C2", f"H{i}", 1),
                  ("C2", f"H{i}'", 2), (f"H{i}", f"H{i}'", 2)]
    cfg = make_config(names, meets)
    e1 = _cycle_div(cfg, ["C1", "H1", "C2", "H2"])
    e2 = _cycle_div(cfg, ["C1", "H1", "C2", "H3"])
    dec1 = Decomposition(e1, 1, "H1", 1, "C1")
    dec2 = Decomposition(e2, 1, "H1", 1, "C1")
    return row(
        rho=12, triple=(12, 10, 1), ns_expr="U+A1^10", cfg=cfg, fixed_curves=("C1", "C2"),
        phi_fibers=tuple((f"F{i}", "I2", (f"H{i}", f"H{i}'"))
                         for i in range(1, 11)),
        e_kind="I4", dec1=dec1, dec2=dec2,
        encoding_flags=(
            "C1.H_i = 1 and C2.H_i = 1 by the normalization of the fixed "
            "curves against the bisected fibers H_i + H_i'",
            "C2.H_i' = 2 so that each curve off the fixed locus meets "
            "C1 + C2 exactly twice",
        ))


def _build_rho13(row, _):
    names = ["C1", "C2", "C3"] + [f"F{j}" for j in range(1, 5)] \
        + [f"H{i}" for i in range(1, 8)] + [f"H{i}'" for i in range(1, 8)]
    meets = [("C2", f"F{j}", 1) for j in range(1, 5)]
    meets += [("C1", "F1", 1), ("C3", "F2", 1), ("C3", "F3", 1), ("C3", "F4", 1)]
    for i in range(1, 8):
        meets += [("C1", f"H{i}", 1), ("C3", f"H{i}", 1),
                  ("C3", f"H{i}'", 2), (f"H{i}", f"H{i}'", 2)]
    cfg = make_config(names, meets)
    e1 = _cycle_div(cfg, ["C2", "F1", "C1", "H1", "C3", "F2"])
    e2 = _cycle_div(cfg, ["C2", "F1", "C1", "H2", "C3", "F2"])
    dec1 = Decomposition(e1, 1, "F1", 1, "C1")
    dec2 = Decomposition(e2, 1, "F1", 1, "C1")
    return row(
        rho=13, triple=(13, 9, 1), ns_expr="U+D4+A1^7", cfg=cfg,
        fixed_curves=("C1", "C2", "C3"),
        phi_fibers=(("F0", "I0*", ("C2", "F1", "F2", "F3", "F4")),)
        + tuple((f"G{i}", "I2", (f"H{i}", f"H{i}'")) for i in range(1, 8)),
        e_kind="I6", dec1=dec1, dec2=dec2,
        encoding_flags=(
            "the I0* fiber is 2C2 + F1 + F2 + F3 + F4 with C2 central",
            "F1 meets C1, F2..F4 meet C3: each leaf meets the fixed locus "
            "once more outside the fiber's central curve",
        ))


def _build_rho14(row, _):
    names = ["C1", "C2", "C3", "C4",
             "F12", "F24", "F24'", "F24''",
             "F13", "F34", "F34'", "F34''",
             "F14", "F44", "F14'", "F44'", "F14''", "F44''", "F14'''", "F44'''"]
    meets = [("C1", "F12", 1), ("C2", "F12", 1),
             ("C1", "F13", 1), ("C3", "F13", 1)]
    for s in ("", "'", "''"):
        meets += [("C2", f"F24{s}", 1), ("C4", f"F24{s}", 1),
                  ("C3", f"F34{s}", 1), ("C4", f"F34{s}", 1)]
    for s in ("", "'", "''", "'''"):
        meets += [("C1", f"F14{s}", 1), ("C4", f"F14{s}", 1),
                  ("C4", f"F44{s}", 2), (f"F14{s}", f"F44{s}", 2)]
    cfg = make_config(names, meets)
    e1 = _cycle_div(cfg, ["C2", "F12", "C1", "F14", "C4", "F24"])
    e2 = _cycle_div(cfg, ["C2", "F12", "C1", "F14'", "C4", "F24"])
    dec1 = Decomposition(e1, 1, "F12", 1, "C1")
    dec2 = Decomposition(e2, 1, "F12", 1, "C1")
    return row(
        rho=14, triple=(14, 8, 1), ns_expr="U+D4^2+A1^4", cfg=cfg,
        fixed_curves=("C1", "C2", "C3", "C4"),
        phi_fibers=(("F0", "I0*", ("C2", "F12", "F24", "F24'", "F24''")),
                    ("F0'", "I0*", ("C3", "F13", "F34", "F34'", "F34''")))
        + tuple((f"G{s or '0'}", "I2", (f"F14{s}", f"F44{s}"))
                for s in ("", "'", "''", "'''")),
        e_kind="I6", dec1=dec1, dec2=dec2,
        encoding_flags=(
            "F44-type curves meet C4 at two distinct points (intersection "
            "number 2)",
            "Mordell-Weil positivity uses the case with one fixed curve "
            "(C3) off the support, orthogonal to E_i",
        ))


def _build_rho15(row, _):
    names = ["C1", "C2", "C3", "C4", "C5"]
    for i, s3 in (("2", "F25"), ("3", "F35"), ("4", "F45")):
        names += [f"F1{i}", s3, s3 + "'", s3 + "''"]
    names += ["F15", "F55"]
    meets = []
    for i, leaf in (("2", "F25"), ("3", "F35"), ("4", "F45")):
        meets += [(f"C{i}", f"F1{i}", 1), ("C1", f"F1{i}", 1)]
        for s in ("", "'", "''"):
            meets += [(f"C{i}", leaf + s, 1), ("C5", leaf + s, 1)]
    meets += [("C1", "F15", 1), ("C5", "F15", 1),
              ("C5", "F55", 2), ("F15", "F55", 2)]
    cfg = make_config(names, meets)
    e1 = _cycle_div(cfg, ["C4", "F45", "C5", "F25", "C2", "F12", "C1", "F14"])
    e2 = _cycle_div(cfg, ["C4", "F45", "C5", "F25'", "C2", "F12", "C1", "F14"])
    dec1 = Decomposition(e1, 1, "F12", 1, "C1")
    dec2 = Decomposition(e2, 1, "F12", 1, "C1")
    return row(
        rho=15, triple=(15, 7, 1), ns_expr="U+D4^3+A1", cfg=cfg,
        fixed_curves=("C1", "C2", "C3", "C4", "C5"),
        phi_fibers=(("F0", "I0*", ("C2", "F12", "F25", "F25'", "F25''")),
                    ("F0'", "I0*", ("C3", "F13", "F35", "F35'", "F35''")),
                    ("F0''", "I0*", ("C4", "F14", "F45", "F45'", "F45''")),
                    ("G0", "I2", ("F15", "F55"))),
        e_kind="I8", dec1=dec1, dec2=dec2,
        encoding_flags=(
            "three I0* fibers centered at C2, C3, C4; C3 stays off "
            "Supp E_i and is orthogonal to both",
            "the classifier's verdict on the 8-component cycles is "
            "authoritative over the printed label",
        ))


def _build_rho16(row, _):
    names = ["C1", "C2", "C3", "C4", "C5", "C6", "G23", "G45",
             "F13", "F36", "F26", "F26'", "F15", "F56", "F46", "F46'",
             "F16", "F66", "F16'", "F66'"]
    meets = [("C2", "G23", 1), ("C3", "G23", 1),
             ("C4", "G45", 1), ("C5", "G45", 1),
             ("C1", "F13", 1), ("C3", "F13", 1),
             ("C3", "F36", 1), ("C6", "F36", 1),
             ("C2", "F26", 1), ("C6", "F26", 1),
             ("C2", "F26'", 1), ("C6", "F26'", 1),
             ("C1", "F15", 1), ("C5", "F15", 1),
             ("C5", "F56", 1), ("C6", "F56", 1),
             ("C4", "F46", 1), ("C6", "F46", 1),
             ("C4", "F46'", 1), ("C6", "F46'", 1)]
    for s in ("", "'"):
        meets += [("C1", f"F16{s}", 1), ("C6", f"F16{s}", 1),
                  ("C6", f"F66{s}", 2), (f"F16{s}", f"F66{s}", 2)]
    cfg = make_config(names, meets)
    e1 = _cycle_div(cfg, ["C3", "F13", "C1", "F15", "C5", "G45",
                          "C4", "F46", "C6", "F26", "C2", "G23"])
    e2 = _cycle_div(cfg, ["C3", "F13", "C1", "F15", "C5", "G45",
                          "C4", "F46", "C6", "F26'", "C2", "G23"])
    dec1 = Decomposition(e1, 1, "F13", 1, "C1")
    dec2 = Decomposition(e2, 1, "F13", 1, "C1")
    return row(
        rho=16, triple=(16, 6, 1), ns_expr="U+D6^2+A1^2", cfg=cfg,
        fixed_curves=("C1", "C2", "C3", "C4", "C5", "C6"),
        phi_fibers=(("FA", "I2*", ("C2", "G23", "C3", "F13", "F36", "F26", "F26'")),
                    ("FB", "I2*", ("C4", "G45", "C5", "F15", "F56", "F46", "F46'")),
                    ("GA", "I2", ("F16", "F66")),
                    ("GB", "I2", ("F16'", "F66'"))),
        e_kind="I12", dec1=dec1, dec2=dec2,
        encoding_flags=(
            "the I2* fibers have double chains C2-G23-C3 and C4-G45-C5 with "
            "multiplicity-1 leaves F13, F36 / F26, F26' and F15, F56 / F46, F46'",
        ))


def _build_rho17(row, _):
    names = ["C1", "C2", "C3", "C4", "C5", "C6", "C7",
             "G23", "G45", "G56",
             "F27", "F27'", "F37", "F31",
             "F47", "F47'", "F61", "F67", "F17", "F77"]
    meets = [("C2", "G23", 1), ("C3", "G23", 1),
             ("C4", "G45", 1), ("C5", "G45", 1),
             ("C5", "G56", 1), ("C6", "G56", 1),
             ("C2", "F27", 1), ("C7", "F27", 1),
             ("C2", "F27'", 1), ("C7", "F27'", 1),
             ("C3", "F37", 1), ("C7", "F37", 1),
             ("C3", "F31", 1), ("C1", "F31", 1),
             ("C4", "F47", 1), ("C7", "F47", 1),
             ("C4", "F47'", 1), ("C7", "F47'", 1),
             ("C6", "F61", 1), ("C1", "F61", 1),
             ("C6", "F67", 1), ("C7", "F67", 1),
             ("C1", "F17", 1), ("C7", "F17", 1),
             ("C7", "F77", 2), ("F17", "F77", 2)]
    cfg = make_config(names, meets)
    e1 = _cycle_div(cfg, ["C4", "G45", "C5", "G56", "C6", "F61", "C1",
                          "F31", "C3", "G23", "C2", "F27", "C7", "F47"])
    e2 = _cycle_div(cfg, ["C4", "G45", "C5", "G56", "C6", "F61", "C1",
                          "F31", "C3", "G23", "C2", "F27", "C7", "F47'"])
    dec1 = Decomposition(e1, 1, "F31", 1, "C1")
    dec2 = Decomposition(e2, 1, "F31", 1, "C1")
    return row(
        rho=17, triple=(17, 5, 1), ns_expr="U+D6+D8+A1", cfg=cfg,
        fixed_curves=("C1", "C2", "C3", "C4", "C5", "C6", "C7"),
        phi_fibers=(("FA", "I2*", ("F27", "F27'", "C2", "G23", "C3", "F37", "F31")),
                    ("FB", "I4*", ("F47", "F47'", "C4", "G45", "C5", "G56",
                                   "C6", "F61", "F67")),
                    ("GA", "I2", ("F17", "F77"))),
        e_kind="I14", dec1=dec1, dec2=dec2,
        encoding_flags=(
            "the I4* fiber's chain is C4-G45-C5-G56-C6 with leaves F47, "
            "F47' at C4 and F61, F67 at C6",
        ))


def _build_rho18_delta0(row, _):
    names = [f"C{i}" for i in range(1, 9)]
    names += ["F28", "F28'", "F28''", "F12", "F38", "F38'",
              "G34", "G45", "G56", "G67", "F17", "F78"]
    meets = []
    for s in ("", "'", "''"):
        meets += [("C2", f"F28{s}", 1), ("C8", f"F28{s}", 1)]
    meets += [("C1", "F12", 1), ("C2", "F12", 1),
              ("C3", "F38", 1), ("C8", "F38", 1),
              ("C3", "F38'", 1), ("C8", "F38'", 1),
              ("C3", "G34", 1), ("C4", "G34", 1),
              ("C4", "G45", 1), ("C5", "G45", 1),
              ("C5", "G56", 1), ("C6", "G56", 1),
              ("C6", "G67", 1), ("C7", "G67", 1),
              ("C1", "F17", 1), ("C7", "F17", 1),
              ("C7", "F78", 1), ("C8", "F78", 1)]
    cfg = make_config(names, meets)
    cyc = ["C3", "G34", "C4", "G45", "C5", "G56", "C6", "G67", "C7",
           "F17", "C1", "F12", "C2", "F28''", "C8", "F38"]
    e1 = _cycle_div(cfg, cyc)
    e2 = _cycle_div(cfg, cyc[:-1] + ["F38'"])
    dec1 = Decomposition(e1, 1, "F12", 1, "C1")
    dec2 = Decomposition(e2, 1, "F12", 1, "C1")
    return row(
        rho=18, triple=(18, 4, 0), ns_expr="U+D4+D12", cfg=cfg,
        fixed_curves=tuple(f"C{i}" for i in range(1, 9)),
        phi_fibers=(("F0", "I0*", ("C2", "F28", "F28'", "F28''", "F12")),
                    ("FB", "I8*", ("F38", "F38'", "C3", "G34", "C4", "G45",
                                   "C5", "G56", "C6", "G67", "C7", "F17", "F78"))),
        e_kind="I16", dec1=dec1, dec2=dec2,
        encoding_flags=(
            "the delta = 0 case: fibers I0* + I8* (discriminant forms of "
            "D4 and D12 are integer valued)",
        ))


def _build_rho18_delta1(row, _):
    names = [f"C{i}" for i in range(1, 9)]
    names += ["F28", "F28'", "G23", "G34", "G45", "G56", "G67",
              "F78", "F17", "F18", "F88", "F18'", "F88'"]
    meets = [("C2", "F28", 1), ("C8", "F28", 1),
             ("C2", "F28'", 1), ("C8", "F28'", 1),
             ("C2", "G23", 1), ("C3", "G23", 1),
             ("C3", "G34", 1), ("C4", "G34", 1),
             ("C4", "G45", 1), ("C5", "G45", 1),
             ("C5", "G56", 1), ("C6", "G56", 1),
             ("C6", "G67", 1), ("C7", "G67", 1),
             ("C7", "F78", 1), ("C8", "F78", 1),
             ("C1", "F17", 1), ("C7", "F17", 1)]
    for s in ("", "'"):
        meets += [("C1", f"F18{s}", 1), ("C8", f"F18{s}", 1),
                  ("C8", f"F88{s}", 2), (f"F18{s}", f"F88{s}", 2)]
    cfg = make_config(names, meets)
    cyc = ["C2", "G23", "C3", "G34", "C4", "G45", "C5", "G56", "C6", "G67",
           "C7", "F17", "C1", "F18", "C8", "F28"]
    e1 = _cycle_div(cfg, cyc)
    e2 = _cycle_div(cfg, cyc[:-1] + ["F28'"])
    dec1 = Decomposition(e1, 1, "F17", 1, "C1")
    dec2 = Decomposition(e2, 1, "F17", 1, "C1")
    return row(
        rho=18, triple=(18, 4, 1), ns_expr="U+D14+A1^2", cfg=cfg,
        fixed_curves=tuple(f"C{i}" for i in range(1, 9)),
        phi_fibers=(("FA", "I10*", ("F28", "F28'", "C2", "G23", "C3", "G34",
                                    "C4", "G45", "C5", "G56", "C6", "G67",
                                    "C7", "F78", "F17")),
                    ("GA", "I2", ("F18", "F88")),
                    ("GB", "I2", ("F18'", "F88'"))),
        e_kind="I16", dec1=dec1, dec2=dec2,
        encoding_flags=(
            "the delta = 1 companion of rank 18: one I10* fiber plus two "
            "I2 fibers from the A1 summands",
        ))


def _build_rho19(row, _):
    names = [f"C{i}" for i in range(1, 10)]
    names += ["F29", "F29'", "G23", "G34", "G45", "G56", "G67", "G78",
              "F89", "F18", "F19", "F99"]
    meets = [("C2", "F29", 1), ("C9", "F29", 1),
             ("C2", "F29'", 1), ("C9", "F29'", 1),
             ("C8", "F89", 1), ("C9", "F89", 1),
             ("C8", "F18", 1), ("C1", "F18", 1),
             ("C1", "F19", 1), ("C9", "F19", 1),
             ("C9", "F99", 2), ("F19", "F99", 2)]
    for g, (a, b) in (("G23", (2, 3)), ("G34", (3, 4)), ("G45", (4, 5)),
                      ("G56", (5, 6)), ("G67", (6, 7)), ("G78", (7, 8))):
        meets += [(f"C{a}", g, 1), (f"C{b}", g, 1)]
    cfg = make_config(names, meets)
    cyc = ["C2", "G23", "C3", "G34", "C4", "G45", "C5", "G56", "C6", "G67",
           "C7", "G78", "C8", "F89", "C9", "F29"]
    e1 = _cycle_div(cfg, cyc)
    e2 = _cycle_div(cfg, cyc[:-1] + ["F29'"])
    dec1 = Decomposition(e1, 1, "F89", 1, "C9")
    dec2 = Decomposition(e2, 1, "F89", 1, "C9")
    return row(
        rho=19, triple=(19, 3, 1), ns_expr="U+D16+A1", cfg=cfg,
        fixed_curves=tuple(f"C{i}" for i in range(1, 10)),
        phi_fibers=(("FA", "I12*", ("F29", "F29'", "C2", "G23", "C3", "G34",
                                    "C4", "G45", "C5", "G56", "C6", "G67",
                                    "C7", "G78", "C8", "F89", "F18")),
                    ("GA", "I2", ("F19", "F99"))),
        e_kind="I16", dec1=dec1, dec2=dec2,
        encoding_flags=(
            "C1 stays off Supp E_i with C1.E_i = 0; Mordell-Weil "
            "positivity is the k-1 case",
        ))


def _build_rho20(row, _):
    names = ["C0"] + [f"C{i}" for i in range(1, 10)]
    names += ["G23", "G34", "G45", "F30", "F15",
              "F16", "F60", "G67", "G78", "G89", "F90", "F90'"]
    meets = [("C2", "G23", 1), ("C3", "G23", 1),
             ("C3", "G34", 1), ("C4", "G34", 1),
             ("C4", "G45", 1), ("C5", "G45", 1),
             ("C3", "F30", 1), ("C0", "F30", 1),
             ("C1", "F15", 1), ("C5", "F15", 1),
             ("C1", "F16", 1), ("C6", "F16", 1),
             ("C6", "F60", 1), ("C0", "F60", 1),
             ("C6", "G67", 1), ("C7", "G67", 1),
             ("C7", "G78", 1), ("C8", "G78", 1),
             ("C8", "G89", 1), ("C9", "G89", 1),
             ("C9", "F90", 1), ("C0", "F90", 1),
             ("C9", "F90'", 1), ("C0", "F90'", 1)]
    cfg = make_config(names, meets)
    arms = {"C0": 3, "F30": 2, "C3": 1, "F60": 2, "C6": 1, "C9": 1}
    e1 = DivisorClass.from_dict(cfg, {**arms, "F90": 2})
    e2 = DivisorClass.from_dict(cfg, {**arms, "F90'": 2})
    dec1 = Decomposition(e1, 2, "F30", 3, "C0")
    dec2 = Decomposition(e2, 2, "F30", 3, "C0")
    return row(
        rho=20, triple=(20, 2, 1), ns_expr="U+E8+D10", cfg=cfg,
        fixed_curves=("C0",) + tuple(f"C{i}" for i in range(1, 10)),
        phi_fibers=(("FA", "II*", ("C2", "G23", "C3", "F30", "G34", "C4",
                                   "G45", "C5", "F15")),
                    ("FB", "I6*", ("F16", "F60", "C6", "G67", "C7", "G78",
                                   "C8", "G89", "C9", "F90", "F90'"))),
        e_kind="IV*", dec1=dec1, dec2=dec2,
        mw_plan=MWPlan("additive-same-component", "G23", "G34",
                       {"G23": "C3", "G34": "C3"}),
        encoding_flags=(
            "the fiber list of the IV* fibrations |E_i| is not declared "
            "complete; positivity comes from the additive component-group "
            "argument, not from a height computation",
            "[G23] is the zero section and [G34] the candidate section of "
            "|E_i|; both meet the multiplicity-1 component C3",
        ))


def _build_singular_k3(row, variant):
    """Two II* fibers joined through a section; the surgered classes E1,
    E2 are I12* fibers of two new fibrations.  variant in {none, I2, III}
    selects the extra reducible fiber of the base fibration."""
    a = [f"a{i}" for i in range(1, 10)]
    b = [f"b{i}" for i in range(1, 10)]
    names = a + b + ["D1", "D2"]
    meets = _chain_meets(a[:8]) + [("a6", "a9", 1)]
    meets += _chain_meets(b[:8]) + [("b6", "b9", 1)]
    meets += [("D1", "a1", 1), ("D1", "b1", 1),
              ("D2", "a1", 1), ("D2", "b1", 1)]
    phi_fibers = [("FA", "II*", tuple(a)), ("FB", "II*", tuple(b))]
    if variant != "none":
        names += ["T1", "T2"]
        meets += [("T1", "T2", 2), ("D1", "T1", 1), ("D2", "T1", 1)]
        phi_fibers.append(("FT", variant, ("T1", "T2")))
    cfg = make_config(names, meets)
    chain = {n: 2 for n in ("a1", "a2", "a3", "a4", "a5", "a6",
                            "b1", "b2", "b3", "b4", "b5", "b6")}
    leaves = {"a7": 1, "a9": 1, "b7": 1, "b9": 1}
    e1 = DivisorClass.from_dict(cfg, {**chain, **leaves, "D1": 2})
    e2 = DivisorClass.from_dict(cfg, {**chain, **leaves, "D2": 2})
    dec1 = Decomposition(e1, 2, "a2", 2, "a1")
    dec2 = Decomposition(e2, 2, "a2", 2, "a1")
    return row(
        rho=20, triple=None, ns_expr=None, cfg=cfg, fixed_curves=(),
        phi_fibers=tuple(phi_fibers),
        phi_rank_expected=2 if variant == "none" else 1,
        e_kind="I12*", dec1=dec1, dec2=dec2,
        mw_plan=MWPlan("height-positive", "a8", "b8", {"a8": "a7", "b8": "b7"}),
        encoding_flags=(
            "NS = U + E8^2 + N with N opaque (det N not in {3,4}); no "
            "2-elementary invariant check applies",
            "D1.D2 = 0 chosen: the two sections of the base fibration are "
            "taken disjoint",
            "D1.T1 = D2.T1 = 1 chosen for the extra-fiber variants: both "
            "sections meet the same component of the I2/III fiber",
            "the reducible-fiber list of the I12* fibrations |E_i| is the "
            "declared data only; completeness is an assumption of the "
            "height computation",
        ))


def builtin_cases():
    """All built-in case records in deterministic order."""
    return [
        CaseRecord("rho11", (0, 1, 2), _build_rho11),
        CaseRecord("rho12", (None,), _build_rho12),
        CaseRecord("rho13", (None,), _build_rho13),
        CaseRecord("rho14", (None,), _build_rho14),
        CaseRecord("rho15", (None,), _build_rho15),
        CaseRecord("rho16", (None,), _build_rho16),
        CaseRecord("rho17", (None,), _build_rho17),
        CaseRecord("rho18-delta0", (None,), _build_rho18_delta0),
        CaseRecord("rho18-delta1", (None,), _build_rho18_delta1),
        CaseRecord("rho19", (None,), _build_rho19),
        CaseRecord("rho20", (None,), _build_rho20),
        CaseRecord("singular-k3", ("none", "I2", "III"),
                   _build_singular_k3),
    ]


def get_case(case_id):
    for rec in builtin_cases():
        if rec.case_id == case_id:
            return rec
    raise K3CertError(f"no case {case_id!r}")


# ---------------------------------------------------------------------------
# verification pipeline

@dataclass(frozen=True)
class CaseReport:
    case_id: str
    param: object
    checks: tuple        # of Check
    status: str          # PASS|FAIL

    def to_dict(self):
        return {
            "id": self.case_id,
            "params": {} if self.param is None else {"value": self.param},
            "checks": [{"name": n, "status": s, "detail": d}
                       for n, s, d in self.checks],
            "status": self.status,
        }


def _candidate(inst, e):
    """Classify Supp E once; the fiber-class verdict and the
    Mordell-Weil evidence both read that one classification, and the
    evidence is only sought on a certified fiber class."""
    classified = classify_support(inst.cfg, e)
    verdict = fiber_class_verdict(e, inst.cfg, classified)
    ok, fiber, diag = verdict
    if not ok:
        ev = False, f"evidence-plan: not a fiber class: {diag}"
    else:
        try:
            ev = mw_evidence(inst.mw_plan, e, fiber, inst.cfg, inst.fixed_curves, inst.rho)
        except K3CertError as exc:
            ev = False, f"evidence-plan: {exc}"
    return classified, verdict, ev


def verify_case(inst):
    """Replay every check of one case instance and aggregate a report."""
    checks = []
    cfg = inst.cfg

    # 1. lattice invariants, and their fixed-locus count k against the
    # declared fixed curves
    if inst.ns_expr is None:
        checks.append(Check(
            "lattice-invariants", "PASS",
            "skipped: NS contains an opaque summand (rho = %d declared)" % inst.rho))
    else:
        try:
            inv = two_elementary_invariants(gram_of(inst.ns_expr))
            got = (inv.rank, inv.a, inv.delta)
            kk = fixed_locus_component_count(inv.rank, inv.a)
            ok = got == inst.triple and kk == inst.k and inv.rank == inst.rho
            checks.append(Check.of(
                "lattice-invariants", ok,
                f"{inst.ns_expr}: (rank,a,delta) = {got}, k = {kk}; "
                f"expected {inst.triple}, k = {inst.k}"))
        except ValueError as exc:
            checks.append(Check("lattice-invariants", "FAIL", str(exc)))

    # 2. classify the declared reducible fibers of phi, collecting the
    # fiber classes for the theta validator
    phi_classes = []
    for label, expected, support in inst.phi_fibers:
        try:
            fiber = classify_fiber(cfg, support)
        except FiberError as exc:
            checks.append(Check(f"phi-fiber-{label}", "FAIL", str(exc)))
            continue
        ok = kinds_compatible(expected, fiber.kind)
        checks.append(Check.of(f"phi-fiber-{label}", ok,
                               f"classified {fiber.kind}, declared {expected}"))
        if ok:
            phi_classes.append((label, DivisorClass.from_dict(cfg, fiber.multiplicities)))

    # 3. theta constraints (fixed locus vs configuration)
    if inst.fixed_curves:
        problems = theta_constraints(cfg, inst.fixed_curves, phi_classes)
        checks.append(Check.of(
            "theta-constraints", not problems,
            "C_i.C_j = 0, C.H = 2, C.F = 4 all hold" if not problems
            else "; ".join(problems)))
    else:
        checks.append(Check("theta-constraints", "PASS",
                            "skipped: no fixed-curve list declared"))

    # 4. Shioda-Tate rank of phi, when the record asserts one
    if inst.phi_rank_expected is not None:
        counts = [len(support) for _, _, support in inst.phi_fibers]
        try:
            rank = shioda_tate_rank(inst.rho, counts)
            checks.append(Check.of(
                "shioda-tate", rank == inst.phi_rank_expected,
                f"rank = {rank}, expected {inst.phi_rank_expected} "
                "(declared fiber list assumed complete)"))
        except ValueError as exc:
            checks.append(Check("shioda-tate", "FAIL", str(exc)))

    # 5. the full certificate, then the expected Kodaira kind of each
    # candidate, all from one classification per candidate
    (c1, v1, ev1), (c2, v2, ev2) = (_candidate(inst, d.e) for d in (inst.dec1, inst.dec2))
    checks.extend(cor32_verify(inst.dec1, inst.dec2, ev1, ev2, cfg, (v1, v2),
                               witness=inst.witness))
    for i, (fiber, refusal) in ((1, c1), (2, c2)):
        if fiber is None:
            checks.append(Check(f"e{i}-kind", "FAIL", refusal))
        else:
            checks.append(Check.of(f"e{i}-kind", kinds_compatible(inst.e_kind, fiber.kind),
                                   f"classified {fiber.kind}, declared {inst.e_kind}"))

    status = "PASS" if all(c.status == "PASS" for c in checks) else "FAIL"
    return CaseReport(inst.case_id, inst.param, tuple(checks), status)


def verify_all(only=None, param=None):
    """Verify every record x parameter combination, in deterministic order.

    only: restrict to one case id; param: restrict to the parameter values
    it names (CaseRecord.matching).
    """
    reports = []
    for rec in builtin_cases():
        if only is None or rec.case_id == only:
            reports += [verify_case(rec.instantiate(p)) for p in rec.matching(param)]
    return reports


# ---------------------------------------------------------------------------
# the Q-basis determinant check

def qbasis_config():
    names = ["C"] + [f"H{i}" for i in range(1, 10)] + ["H1'"]
    meets = [("C", f"H{i}", 2) for i in range(1, 10)]
    meets += [("C", "H1'", 2), ("H1", "H1'", 2)]
    return make_config(names, meets)


def qbasis_check(drop=None, duplicate=None):
    """Determinant of the Gram matrix of the classes [H1'], [C], [H1..H9].

    drop removes one listed class (reporting the smaller minor);
    duplicate repeats one class (forcing determinant 0).  Returns
    (det, nonzero).
    """
    cfg = qbasis_config()
    classes = ["H1'", "C"] + [f"H{i}" for i in range(1, 10)]
    if drop is not None:
        classes = [c for c in classes if c != drop]
    if duplicate is not None:
        classes = classes + [duplicate]
    idx = [cfg.index(c) for c in classes]
    g = [[cfg.inter[i][j] for j in idx] for i in idx]
    d = det_exact(g)
    return d, d != 0


# ---------------------------------------------------------------------------
# negative controls: documented mutations, each breaking exactly one check

@dataclass(frozen=True)
class Mutation:
    mutation_id: str
    case_id: str
    expected_check: str
    note: str
    apply: object = field(compare=False)


def _mut_e2_equals_e1(inst):
    return replace(inst, dec2=inst.dec1)


def _mut_corrupt_multiplicity(inst):
    # rho20: the IV* candidate with the F30 coefficient knocked from 2 to 1
    d = inst.dec1.e.to_dict(inst.cfg)
    d["F30"] = 1
    e = DivisorClass.from_dict(inst.cfg, d)
    return replace(inst, dec1=replace(inst.dec1, e=e, a=1))


def _mut_drop_component(inst):
    # rho13: E1 with F2 removed is no longer isotropic
    d = inst.dec1.e.to_dict(inst.cfg)
    del d["F2"]
    return replace(inst, dec1=replace(inst.dec1, e=DivisorClass.from_dict(inst.cfg, d)))


def _mut_swap_incidence(inst):
    # rho20: declare the candidate section on C6, though it meets C3
    plan = inst.mw_plan
    return replace(inst, mw_plan=replace(
        plan, incidence={**plan.incidence, plan.section: "C6"}))


def _mut_lower_rho(inst):
    # rho19: with rho = 17 the case-2 inequality r < rho - 2 fails
    return replace(inst, rho=17, ns_expr=None, triple=None)


def _mut_stray_intersection(inst):
    # rho12: an extra C1.H1' = 1 breaks C.H = 2 for H1'
    names = list(inst.cfg.curve_names)
    meets = []
    n = len(names)
    for i in range(n):
        for j in range(i + 1, n):
            v = inst.cfg.inter[i][j]
            if v:
                meets.append((names[i], names[j], v))
    meets.append(("C1", "H1'", 1))
    return replace(inst, cfg=make_config(names, meets))


def _mut_corrupt_triple(inst):
    return replace(inst, triple=(13, 8, 1))


def mutation_kit():
    return [
        Mutation("e2-equals-e1", "rho12", "non-proportional",
                 "setting E2 := E1 makes the isotropic product vanish",
                 _mut_e2_equals_e1),
        Mutation("corrupt-multiplicity", "rho20", "fiber-class-E1",
                 "an IV* arm coefficient of 1 breaks the kernel-vector match",
                 _mut_corrupt_multiplicity),
        Mutation("drop-component", "rho13", "fiber-class-E1",
                 "removing one cycle component leaves self-intersection -2",
                 _mut_drop_component),
        Mutation("swap-section-incidence", "rho20", "mw-evidence-E1",
                 "declaring G34 on C6, which it does not meet, fails the incidence check",
                 _mut_swap_incidence),
        Mutation("lower-rho", "rho19", "mw-evidence-E1",
                 "with rho = 17 the inequality r < rho - 2 fails",
                 _mut_lower_rho),
        Mutation("stray-intersection", "rho12", "theta-constraints",
                 "an undeclared C1.H1' = 1 breaks C.H = 2",
                 _mut_stray_intersection),
        Mutation("corrupt-triple", "rho13", "lattice-invariants",
                 "a wrong printed triple is caught against the lattice",
                 _mut_corrupt_triple),
    ]


def run_mutation(mutation):
    """Apply one mutation and verify; returns (report, flipped_ok) where
    flipped_ok means the expected check failed and no earlier check did."""
    inst = get_case(mutation.case_id).instantiate()
    report = verify_case(mutation.apply(inst))
    first_fail = next((n for n, s, _ in report.checks if s == "FAIL"), None)
    return report, first_fail == mutation.expected_check
