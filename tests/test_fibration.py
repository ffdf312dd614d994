"""Shioda-Tate, Mordell-Weil positivity evidence, height pairing and the
two-fibration certificate."""

import itertools
import random
from fractions import Fraction

import pytest

from k3cert.curves import DivisorClass, classify_fiber, fiber_class_verdict, make_config
from k3cert.fibration import (
    Check,
    Decomposition,
    EvidenceError,
    FiberInModel,
    FibrationModel,
    MWPlan,
    cor32_verify,
    height_pairing,
    lemma54_check,
    mw_evidence,
    shioda_tate_rank,
)


def cycle_config(n, prefix="v"):
    names = [f"{prefix}{i}" for i in range(n)]
    meets = [(names[i], names[(i + 1) % n], 1) for i in range(n)]
    return make_config(names, meets), names


# ---------------------------------------------------------------------------
# Shioda-Tate

def test_shioda_tate_examples():
    assert shioda_tate_rank(20, [9, 9, 2]) == 1
    assert shioda_tate_rank(2, []) == 0
    assert shioda_tate_rank(12, [4]) == 7


def test_shioda_tate_monotone():
    assert shioda_tate_rank(18, [5]) == shioda_tate_rank(18, []) - 4


def test_shioda_tate_rejects_impossible():
    with pytest.raises(ValueError):
        shioda_tate_rank(4, [9])
    with pytest.raises(ValueError):
        shioda_tate_rank(1, [])


# ---------------------------------------------------------------------------
# Lemma 5.4 and its Shioda-Tate consistency

def _cycle_with_fixed(r, n_fixed, extra_fixed=False):
    """Config: an r-cycle whose first n_fixed nodes are the fixed curves,
    optionally plus one isolated fixed curve off the cycle."""
    cfg, names = cycle_config(r)
    fixed = list(names[:n_fixed])
    if extra_fixed:
        all_names = names + ["Z"]
        meets = [(names[i], names[(i + 1) % r], 1) for i in range(r)]
        cfg = make_config(all_names, meets)
        fixed.append("Z")
    e = DivisorClass.from_dict(cfg, {n: 1 for n in names})
    return cfg, fixed, e


def test_lemma54_case1():
    cfg, fixed, e = _cycle_with_fixed(4, 2)
    ok, detail = lemma54_check(e, cfg, fixed, rho=12)
    assert ok and detail.startswith("lemma54-case1: ")


def test_lemma54_case2():
    cfg, fixed, e = _cycle_with_fixed(6, 2, extra_fixed=True)
    ok, detail = lemma54_check(e, cfg, fixed, rho=10)
    assert ok and detail.startswith("lemma54-case2: ")
    assert "Z.E=0" in detail


def test_lemma54_boundaries():
    cfg, fixed, e = _cycle_with_fixed(6, 2)
    ok, detail = lemma54_check(e, cfg, fixed, rho=7)
    assert not ok and detail.startswith("case1:")
    cfg, fixed, e = _cycle_with_fixed(6, 2, extra_fixed=True)
    ok, detail = lemma54_check(e, cfg, fixed, rho=8)
    assert not ok and detail.startswith("case2:")


def test_lemma54_refusals_name_the_clause():
    # E is a 4-cycle; Y and Z lie off it, and Z meets v0 once, so Z is
    # not orthogonal to E
    _, names = cycle_config(4)
    cycle = [(names[i], names[(i + 1) % 4], 1) for i in range(4)]
    cfg = make_config(names + ["Y", "Z"], cycle + [("Z", "v0", 1)])
    e = DivisorClass.from_dict(cfg, {n: 1 for n in names})
    assert lemma54_check(e, cfg, ["v0", "Z"], rho=10) == (
        False, "case2:missing-orthogonal: missing fixed curve Z has C.E=1, expected 0")
    assert lemma54_check(e, cfg, ["v0", "Y", "Z"], rho=10) == (
        False, "fixed-curves-in-support: 1 of 3 fixed curves in Supp E, need k or k-1")


def test_lemma54_shioda_tate_consistency_randomized():
    """Verdicts agree with sign(rho-1-r) / sign(rho-2-r) on 100 random
    synthetic fiber setups; with E the only reducible fiber the rank is
    exactly rho-1-r (case 1) or rho-2-r counting the isolated curve."""
    rng = random.Random(42)
    for _ in range(100):
        r = rng.randint(3, 10)
        case2 = rng.random() < 0.5
        n_fixed = rng.randint(1, r)
        rho = rng.randint(r - 1, r + 4)
        cfg, fixed, e = _cycle_with_fixed(r, n_fixed, extra_fixed=case2)
        ok, _ = lemma54_check(e, cfg, fixed, rho)
        margin = (rho - 2 - r) if case2 else (rho - 1 - r)
        assert ok == (margin > 0)
        if ok:
            # completeness: the cycle is the only declared reducible fiber
            st = shioda_tate_rank(rho, [r])
            assert st == rho - 1 - r
            assert st - (1 if case2 else 0) == margin


# ---------------------------------------------------------------------------
# height pairing

def _two_section_model(meet_po=0, fibers=(), incidences=(), rho=10):
    """O and P with the given reducible fibers and declared incidences.
    The fiber class F = f1 + f2 is a separate I2 fiber that O and P each
    meet once, so the model gets past S.F = 1 in validate; heights never
    read F's curves."""
    names = ["O", "P", "f1", "f2"]
    meets = [("f1", "f2", 2), ("O", "f1", 1), ("P", "f2", 1)]
    meets += [("O", "P", meet_po)] if meet_po else []
    support_names = []
    for support in fibers:
        support_names += list(support[0])
        meets += support[1]
    for inc in incidences:
        meets += [(s, c, 1) for s, c in inc.items()]
    cfg = make_config(names + support_names, meets)
    fims = []
    for (support, _), inc in zip(fibers, incidences):
        fims.append(FiberInModel(classify_fiber(cfg, support), dict(inc)))
    fclass = DivisorClass.from_dict(cfg, {"f1": 1, "f2": 1})
    model = FibrationModel(rho=rho, fiber_class=fclass, zero_section="O",
                           sections=("O", "P"), reducible_fibers=tuple(fims))
    return model, cfg


def test_height_zero_section():
    model, cfg = _two_section_model()
    assert height_pairing(model, cfg, "O") == 0


def test_height_disjoint_no_fibers():
    model, cfg = _two_section_model()
    assert height_pairing(model, cfg, "P") == 4


def test_height_in_contribution():
    # I5 cycle, P meets the component at cyclic distance 2
    cyc = [f"c{i}" for i in range(5)]
    edges = [(cyc[i], cyc[(i + 1) % 5], 1) for i in range(5)]
    model, cfg = _two_section_model(
        fibers=[(cyc, edges)], incidences=[{"O": "c0", "P": "c2"}])
    assert height_pairing(model, cfg, "P") == 4 - Fraction(2 * 3, 5)


def test_height_symmetric_bilinear():
    cyc = [f"c{i}" for i in range(4)]
    edges = [(cyc[i], cyc[(i + 1) % 4], 1) for i in range(4)]
    names = ["O", "P", "Q"] + cyc
    cfg = make_config(names, edges + [("P", "Q", 1), ("O", "c0", 1), ("P", "c1", 1),
                                      ("Q", "c2", 1)])
    fim = FiberInModel(classify_fiber(cfg, cyc),
                       {"O": "c0", "P": "c1", "Q": "c2"})
    model = FibrationModel(rho=8, fiber_class=DivisorClass.from_dict(cfg, {}),
                           zero_section="O", sections=("O", "P", "Q"),
                           reducible_fibers=(fim,))
    pq = height_pairing(model, cfg, "P", "Q")
    qp = height_pairing(model, cfg, "Q", "P")
    assert pq == qp
    # polarization identity consistency on the quadratic values
    pp = height_pairing(model, cfg, "P")
    qq = height_pairing(model, cfg, "Q")
    assert pp == 4 - Fraction(3, 4)
    assert qq == 4 - 1
    assert pq == 2 + 0 + 0 - 1 - Fraction(1 * 2, 4)


def test_height_star_contributions():
    # I1*: chain of 2 doubled nodes, leaves p1,p2 near / q1,q2 far
    chain = ["m0", "m1"]
    support = chain + ["p1", "p2", "q1", "q2"]
    edges = [("m0", "m1", 1), ("p1", "m0", 1), ("p2", "m0", 1),
             ("q1", "m1", 1), ("q2", "m1", 1)]
    for pcomp, expected in [("p2", Fraction(1)), ("q1", 1 + Fraction(1, 4))]:
        model, cfg = _two_section_model(
            fibers=[(support, edges)],
            incidences=[{"O": "p1", "P": pcomp}])
        assert height_pairing(model, cfg, "P") == 4 - expected


def test_height_rejects_multiplicity_two_component():
    chain = ["m0", "m1"]
    support = chain + ["p1", "p2", "q1", "q2"]
    edges = [("m0", "m1", 1), ("p1", "m0", 1), ("p2", "m0", 1),
             ("q1", "m1", 1), ("q2", "m1", 1)]
    model, cfg = _two_section_model(
        fibers=[(support, edges)], incidences=[{"O": "p1", "P": "m0"}])
    with pytest.raises(EvidenceError, match="section P meets component m0 of multiplicity 2"):
        model.validate(cfg)


def test_contribution_table_symmetry():
    # I_n: contr at distance i equals contr at n - i
    n = 7
    cyc = [f"c{i}" for i in range(n)]
    edges = [(cyc[i], cyc[(i + 1) % n], 1) for i in range(n)]
    values = []
    for i in range(1, n):
        model, cfg = _two_section_model(
            fibers=[(cyc, edges)], incidences=[{"O": "c0", "P": f"c{i}"}])
        values.append(4 - height_pairing(model, cfg, "P"))
    assert values == values[::-1]
    assert all(0 <= v <= Fraction(n, 4) for v in values)


def _chain(names):
    return [(a, b, 1) for a, b in zip(names, names[1:])]


def _fiber_shapes():
    """(label, component names, meetings) of I2-I9, I0*-I4*, IV*, III*
    and II*, each listed in construction order."""
    shapes = [("I2", ["c0", "c1"], [("c0", "c1", 2)])]
    for n in range(3, 10):
        cyc = [f"c{i}" for i in range(n)]
        shapes.append((f"I{n}", cyc, _chain(cyc) + [(cyc[-1], cyc[0], 1)]))
    for b in range(5):
        chain = [f"m{i}" for i in range(b + 1)]
        leaves = [("p1", chain[0]), ("p2", chain[0]), ("q1", chain[-1]), ("q2", chain[-1])]
        shapes.append((f"I{b}*", chain + [x for x, _ in leaves],
                       _chain(chain) + [(x, m, 1) for x, m in leaves]))
    for label, arms in (("IV*", (2, 2, 2)), ("III*", (1, 3, 3)), ("II*", (1, 2, 5))):
        names, meets = ["z"], []
        for k, length in enumerate(arms):
            arm = [f"a{k}{i}" for i in range(length)]
            names += arm
            meets += _chain(["z"] + arm)
        shapes.append((label, names, meets))
    return shapes


def _all_heights(names, meets):
    """<P, Q> for every placement of O, P, Q on multiplicity-1 components,
    each section meeting its component once in the configuration."""
    fiber = classify_fiber(make_config(names, meets), names)
    ones = sorted(c for c, m in fiber.multiplicities.items() if m == 1)
    heights = {}
    for o, p, q in itertools.product(ones, repeat=3):
        cfg = make_config(["O", "P", "Q"] + names,
                          meets + [("O", o, 1), ("P", p, 1), ("Q", q, 1)])
        fim = FiberInModel(fiber, {"O": o, "P": p, "Q": q})
        model = FibrationModel(rho=20, fiber_class=DivisorClass.from_dict(cfg, {}),
                               zero_section="O", sections=("O", "P", "Q"),
                               reducible_fibers=(fim,))
        heights[o, p, q] = height_pairing(model, cfg, "P", "Q")
    return fiber.kind, heights


def test_height_ignores_support_order_and_cycle_direction():
    rng = random.Random(14)
    for label, names, meets in _fiber_shapes():
        kind, want = _all_heights(names, meets)
        assert kind == ("I2/III" if label == "I2" else label)
        orders = [rng.sample(names, len(names)) for _ in range(3)]
        if label.startswith("I") and not label.endswith("*"):
            orders.append(names[::-1])
        for order in orders:
            assert _all_heights(order, meets) == (kind, want), (label, order)


def _table_contribution(label, o, p, q):
    """The standard contr_v(P, Q) table, an oracle for Shioda's formula.
    It reads the names of _fiber_shapes(): c{i} is the i-th component of
    an I_n cycle, and the p and q leaves of an I_b* sit at the two ends of
    its chain."""
    if o in (p, q):
        return Fraction(0)
    if label in ("II*", "III*"):
        return Fraction(0) if label == "II*" else Fraction(3, 2)
    if label == "IV*":
        return Fraction(4, 3) if p == q else Fraction(2, 3)
    if label.endswith("*"):
        b = int(label[1:-1])
        far = [c[0] != o[0] for c in (p, q)]
        if p == q:
            return 1 + Fraction(b, 4) * far[0]
        return Fraction(2 + b, 4) if all(far) else Fraction(1, 2)
    n = int(label[1:])
    i, j = sorted((int(c[1:]) - int(o[1:])) % n for c in (p, q))
    return Fraction(i * (n - j), n)


def test_height_matches_the_contribution_table():
    placements = 0
    for label, names, meets in _fiber_shapes():
        _, heights = _all_heights(names, meets)
        for (o, p, q), h in heights.items():
            assert h == 2 - _table_contribution(label, o, p, q), (label, o, p, q)
        placements += len(heights)
    assert placements == 2380


def test_height_over_two_fibers_matches_the_contribution_table():
    """Two disjoint reducible fibers with no declared incidence; O, P and Q
    on random multiplicity-1 components and meeting each other 0-2 times.
    Then <P, Q> = 2 + P.O + Q.O - P.Q minus each fiber's table value."""
    rng = random.Random(29)
    # per name prefix: (label, fiber, meetings, multiplicity-1 components)
    shapes = {x: [] for x in "xy"}
    for label, names, meets in _fiber_shapes():
        for x, found in shapes.items():
            renamed = [(x + a, x + b, k) for a, b, k in meets]
            support = [x + n for n in names]
            fiber = classify_fiber(make_config(support, renamed), support)
            ones = sorted(c for c, m in fiber.multiplicities.items() if m == 1)
            found.append((label, fiber, renamed, ones))
    for _ in range(300):
        (lx, fx, mx, ox), (ly, fy, my, oy) = (rng.choice(shapes[x]) for x in "xy")
        po, qo, pq = (rng.randint(0, 2) for _ in range(3))
        meets = mx + my + [(a, b, k) for a, b, k in
                           (("P", "O", po), ("Q", "O", qo), ("P", "Q", pq)) if k]
        want = 2 + po + qo - pq
        for label, ones in ((lx, ox), (ly, oy)):
            o, p, q = (rng.choice(ones) for _ in range(3))
            meets += [("O", o, 1), ("P", p, 1), ("Q", q, 1)]
            want -= _table_contribution(label, o[1:], p[1:], q[1:])
        cfg = make_config(["O", "P", "Q"] + list(fx.multiplicities)
                          + list(fy.multiplicities), meets)
        fclass = DivisorClass.from_dict(cfg, fx.multiplicities)
        model = FibrationModel(rho=20, fiber_class=fclass,
                               zero_section="O", sections=("O", "P", "Q"),
                               reducible_fibers=(FiberInModel(fx, {}), FiberInModel(fy, {})))
        model.validate(cfg)
        assert height_pairing(model, cfg, "P", "Q") == want, (lx, ly, meets)


def test_height_refuses_a_section_meeting_two_components_or_one_twice():
    names = [f"c{i}" for i in range(6)]
    cycle = [(a, b, 1) for a, b in zip(names, names[1:] + names[:1])]
    for extra, terms in (([("P", "c2", 1), ("P", "c3", 1)], "P.c2 = 1, P.c3 = 1"),
                         ([("P", "c2", 2)], "P.c2 = 2"), ([], "all 0")):
        # the fiber class F = f1 + f2 is a separate I2 fiber
        fclass = [("f1", "f2", 2), ("O", "f1", 1), ("P", "f1", 1)]
        cfg = make_config(["O", "P", "f1", "f2"] + names,
                          cycle + fclass + [("O", "c0", 1)] + extra)
        fim = FiberInModel(classify_fiber(cfg, names), {"O": "c0", "P": "c2"})
        model = FibrationModel(rho=10,
                               fiber_class=DivisorClass.from_dict(cfg, {"f1": 1, "f2": 1}),
                               zero_section="O", sections=("O", "P"),
                               reducible_fibers=(fim,))
        with pytest.raises(EvidenceError) as exc:
            model.validate(cfg)
        assert str(exc.value) == ("section P is declared on component c2, but its "
                                  f"intersections with the fiber are {terms}")


def test_height_rejects_zero_section_off_multiplicity_one():
    # IV*: O on the centre z of multiplicity 3
    names, meets = ["z"], []
    for k in range(3):
        meets += _chain(["z", f"a{k}0", f"a{k}1"])
        names += [f"a{k}0", f"a{k}1"]
    model, cfg = _two_section_model(fibers=[(names, meets)],
                                    incidences=[{"O": "z", "P": "a01"}])
    with pytest.raises(EvidenceError, match="section O meets component z of multiplicity 3"):
        model.validate(cfg)


# ---------------------------------------------------------------------------
# infinite order certificates: the section plans of mw_evidence

def _six_cycle_with_sections(p_component):
    # O and P each meet one component of an I6 fiber E
    names = [f"c{i}" for i in range(6)]
    cfg = make_config(["O", "P"] + names,
                      [(a, b, 1) for a, b in zip(names, names[1:] + names[:1])]
                      + [("O", "c0", 1), ("P", p_component, 1)])
    e = DivisorClass.from_dict(cfg, {n: 1 for n in names})
    return cfg, e, classify_fiber(cfg, names)


def test_infinite_order_height_route():
    cfg, e, fiber = _six_cycle_with_sections("c2")
    plan = MWPlan("height-positive", "O", "P", {"O": "c0", "P": "c2"})
    ev = mw_evidence(plan, e, fiber, cfg, (), 10)
    assert ev == (True, "height-positive: <P,P> = 8/3")
    # the additive argument does not apply to the multiplicative I6
    cfg, e, fiber = _six_cycle_with_sections("c0")
    plan = MWPlan("additive-same-component", "O", "P", {"O": "c0", "P": "c0"})
    ev = mw_evidence(plan, e, fiber, cfg, (), 10)
    assert ev == (False, "additive-same-component: fiber I6 is not additive")


def test_contradicted_incidence_is_refused_by_both_plans():
    # P meets c2 in the configuration, but the plans declare it on c3
    cfg, e, fiber = _six_cycle_with_sections("c2")
    for kind in ("height-positive", "additive-same-component"):
        plan = MWPlan(kind, "O", "P", {"O": "c0", "P": "c3"})
        with pytest.raises(EvidenceError) as exc:
            mw_evidence(plan, e, fiber, cfg, (), 10)
        assert str(exc.value) == ("section P is declared on component c3, but its "
                                  "intersections with the fiber are P.c2 = 1")


def test_additive_plan_fails_on_different_components():
    # I0*: O and P meet two different leaves, as the plan declares
    names = ["m", "p1", "p2", "q1", "q2"]
    cfg = make_config(["O", "P"] + names, [("m", x, 1) for x in names[1:]]
                      + [("O", "p1", 1), ("P", "p2", 1)])
    e = DivisorClass.from_dict(cfg, {"m": 2, "p1": 1, "p2": 1, "q1": 1, "q2": 1})
    plan = MWPlan("additive-same-component", "O", "P", {"O": "p1", "P": "p2"})
    ev = mw_evidence(plan, e, classify_fiber(cfg, names), cfg, (), 10)
    assert ev == (False, "additive-same-component: O meets p1 but P meets p2")


def test_infinite_order_requires_p_not_o():
    with pytest.raises(EvidenceError, match="P must differ"):
        MWPlan("height-positive", "O", "O", {"O": "c0"})
    with pytest.raises(EvidenceError, match="unknown evidence plan"):
        MWPlan("shioda-tate")
    # sections must meet the fiber class once
    cfg, e, fiber = _six_cycle_with_sections("c2")
    plan = MWPlan("height-positive", "O", "P", {"O": "c0", "P": "c2"})
    with pytest.raises(EvidenceError, match="meets the fiber class 2 times"):
        mw_evidence(plan, DivisorClass(tuple(2 * c for c in e.coeffs)), fiber, cfg, (), 10)


# ---------------------------------------------------------------------------
# Corollary 3.6 certificate

def _toy_certificate():
    # two 4-cycles C-R-A-B and C-R-A'-B' sharing the edge C-R
    names = ["C", "R", "A", "B", "A'", "B'"]
    meets = [("C", "R", 1), ("R", "A", 1), ("A", "B", 1), ("B", "C", 1),
             ("R", "A'", 1), ("A'", "B'", 1), ("B'", "C", 1)]
    cfg = make_config(names, meets)
    e1 = DivisorClass.from_dict(cfg, {"C": 1, "R": 1, "A": 1, "B": 1})
    e2 = DivisorClass.from_dict(cfg, {"C": 1, "R": 1, "A'": 1, "B'": 1})
    dec1 = Decomposition(e1, "R", "C")
    dec2 = Decomposition(e2, "R", "C")
    ev = (True, "lemma54-case1: synthetic")
    return cfg, e1, e2, dec1, dec2, ev


def _verdicts(cfg, *decs):
    return [fiber_class_verdict(dec.e, cfg) for dec in decs]


def test_cor32_pass_and_symmetry():
    cfg, e1, e2, dec1, dec2, ev = _toy_certificate()
    v12 = cor32_verify(dec1, dec2, ev, ev, cfg, _verdicts(cfg, dec1, dec2))
    v21 = cor32_verify(dec2, dec1, ev, ev, cfg, _verdicts(cfg, dec2, dec1))
    assert all(c.status == "PASS" for c in v12 + v21)
    assert all(isinstance(c, Check) for c in v12)


def test_cor32_fails_on_proportional():
    cfg, e1, e2, dec1, dec2, ev = _toy_certificate()
    checks = cor32_verify(dec1, dec1, ev, ev, cfg, _verdicts(cfg, dec1, dec1))
    failed = {n for n, s, _ in checks if s == "FAIL"}
    assert failed == {"non-proportional"}


def test_cor32_needs_witness_when_r_curves_differ():
    cfg, e1, e2, dec1, dec2, ev = _toy_certificate()
    dec2b = Decomposition(e2, "A'", "C")
    checks = cor32_verify(dec1, dec2b, ev, ev, cfg, _verdicts(cfg, dec1, dec2b))
    assert ("common-point", "FAIL") in {(n, s) for n, s, _ in checks}
    # a fixed-pivot witness needs C.R positive for both curves; C.A' = 0 here
    checks2 = cor32_verify(dec1, dec2b, ev, ev, cfg, _verdicts(cfg, dec1, dec2b),
                           witness="C is pointwise fixed")
    assert ("common-point", "FAIL") in {(n, s) for n, s, _ in checks2}


def test_cor32_reports_bad_decomposition():
    cfg, e1, e2, dec1, dec2, ev = _toy_certificate()
    # R = A' lies outside Supp E1, so a = 0 there; a curve the
    # configuration lacks is reported, not raised
    for bad in (Decomposition(e1, "A'", "C"), Decomposition(e1, "nosuch", "C"),
                Decomposition(e1, "R", "nosuch")):
        checks = cor32_verify(bad, dec2, ev, ev, cfg, _verdicts(cfg, bad, dec2))
        assert ("decomposition-E1", "FAIL") in {(n, s) for n, s, _ in checks}
    # the common-point check needs the unknown pivot, so it fails too
    assert Check("common-point", "FAIL", "unknown curve 'nosuch'") in checks


def test_cor32_propagates_evidence_failure():
    cfg, e1, e2, dec1, dec2, ev = _toy_certificate()
    fail = (False, "case1:r<rho-1: synthetic failure")
    checks = cor32_verify(dec1, dec2, ev, fail, cfg, _verdicts(cfg, dec1, dec2))
    assert Check("mw-evidence-E2", "FAIL", "case1:r<rho-1: synthetic failure") in checks


def test_plan_incidence_names_only_its_sections():
    with pytest.raises(EvidenceError) as exc:
        MWPlan("height-positive", "O", "P", {"O": "c0", "P": "c2", "c4": "c1"})
    assert str(exc.value) == "incidence for c4, which is not a section of the plan"
