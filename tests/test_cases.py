"""The built-in case records, the verification pipeline, the Q-basis
determinant and the negative-control mutations."""

from dataclasses import replace

import pytest

from k3cert.cases import (
    builtin_cases,
    get_case,
    mutation_kit,
    qbasis_check,
    run_mutation,
    verify_all,
    verify_case,
)
from k3cert.curves import classify_fiber, pairing
from k3cert.lattices import fixed_locus_component_count, gram_of, two_elementary_invariants

CONCRETE_IDS = ["rho12", "rho13", "rho14", "rho15", "rho16", "rho17",
                "rho18-delta0", "rho18-delta1", "rho19", "rho20"]

EXPECTED_E_KINDS = {
    "rho12": "I4", "rho13": "I6", "rho14": "I6", "rho15": "I8",
    "rho16": "I12", "rho17": "I14", "rho18-delta0": "I16",
    "rho18-delta1": "I16", "rho19": "I16", "rho20": "IV*",
}

EXPECTED_EVIDENCE = {
    "rho12": "lemma54-case1", "rho13": "lemma54-case1",
    "rho14": "lemma54-case2", "rho15": "lemma54-case2",
    "rho16": "lemma54-case1", "rho17": "lemma54-case1",
    "rho18-delta0": "lemma54-case1", "rho18-delta1": "lemma54-case1",
    "rho19": "lemma54-case2", "rho20": "additive-same-component",
}


def test_record_inventory():
    records = builtin_cases()
    ids = [r.case_id for r in records]
    assert ids == ["rho11"] + CONCRETE_IDS + ["singular-k3"]
    total_rows = sum(len(r.param_values) for r in records)
    assert total_rows == 16


def test_records_match_lattice_invariants():
    for rec in builtin_cases():
        inst = rec.instantiate(rec.param_values[0])
        if inst.ns_expr is None:
            continue
        inv = two_elementary_invariants(gram_of(inst.ns_expr))
        assert (inv.rank, inv.a, inv.delta) == inst.triple
        assert inst.k == fixed_locus_component_count(inv.rank, inv.a)


@pytest.mark.parametrize("case_id", CONCRETE_IDS)
def test_concrete_cases_pass(case_id):
    rep = verify_case(get_case(case_id).instantiate())
    assert rep.status == "PASS", rep.checks


@pytest.mark.parametrize("case_id", CONCRETE_IDS)
def test_candidate_types_and_products(case_id):
    inst = get_case(case_id).instantiate()
    for e in (inst.dec1.e, inst.dec2.e):
        assert pairing(e, e, inst.cfg) == 0
        kind = classify_fiber(inst.cfg, e.support(inst.cfg)).kind
        assert kind == EXPECTED_E_KINDS[case_id]
    assert pairing(inst.dec1.e, inst.dec2.e, inst.cfg) > 0


@pytest.mark.parametrize("case_id", CONCRETE_IDS)
def test_planned_evidence_kinds(case_id):
    rep = verify_case(get_case(case_id).instantiate())
    details = {n: d for n, s, d in rep.checks if s == "PASS"}
    for name in ("mw-evidence-E1", "mw-evidence-E2"):
        assert details[name].startswith(EXPECTED_EVIDENCE[case_id])


@pytest.mark.parametrize("t", [0, 1, 2])
def test_rho11_template(t):
    inst = get_case("rho11").instantiate(t)
    assert pairing(inst.dec1.e, inst.dec2.e, inst.cfg) == t + 2
    rep = verify_case(inst)
    assert rep.status == "PASS", rep.checks
    details = {n: d for n, s, d in rep.checks if s == "PASS"}
    # with k = 1 and C inside Supp E the applicable clause is case 1
    assert details["mw-evidence-E1"].startswith("lemma54-case1")


@pytest.mark.parametrize("variant", ["none", "I2", "III"])
def test_singular_k3_structure(variant):
    """The surgery checks hold: I12* with 17 components and multiplicity
    vector (1,1,2,...,2,1,1), sections meeting E once, Shioda-Tate rank
    2 / 1 / 1.  The height of the far-edge section evaluates to exactly
    0 (the section is 2-torsion), so the record's positivity plan fails
    and the overall row is an expected FAIL."""
    inst = get_case("singular-k3").instantiate(variant)
    rep = verify_case(inst)
    checks = {n: (s, d) for n, s, d in rep.checks}
    fiber = classify_fiber(inst.cfg, inst.dec1.e.support(inst.cfg))
    assert fiber.kind == "I12*"
    assert len(fiber.multiplicities) == 17
    assert sorted(fiber.multiplicities.values()) == [1] * 4 + [2] * 13
    from k3cert.curves import DivisorClass
    for s in ("a8", "b8"):
        sec = DivisorClass.from_dict(inst.cfg, {s: 1})
        assert pairing(sec, inst.dec1.e, inst.cfg) == 1
        assert pairing(sec, inst.dec2.e, inst.cfg) == 1
    assert checks["shioda-tate"][0] == "PASS"
    expected_rank = 2 if variant == "none" else 1
    assert str(expected_rank) in checks["shioda-tate"][1]
    # the honest failure: height is exactly 0, not positive
    assert rep.status == "FAIL"
    assert checks["mw-evidence-E1"] == ("FAIL",
                                        "height-positive: <P,P> = 0 is not positive")
    failing = [n for n, s, d in rep.checks if s == "FAIL"]
    assert failing == ["mw-evidence-E1", "mw-evidence-E2"]


def test_k_is_the_count_of_the_declared_fixed_curves():
    # the fixed curves are the whole fixed locus, so a row that leaves one
    # out disagrees with the lattice's component count
    inst = get_case("rho13").instantiate()
    rep = verify_case(replace(inst, fixed_curves=inst.fixed_curves[:-1]))
    assert rep.checks[0] == (
        "lattice-invariants", "FAIL",
        "U+D4+A1^7: (rank,a,delta) = (13, 9, 1), k = 3; expected (13, 9, 1), k = 2")


def test_unknown_curve_in_a_decomposition_is_reported():
    inst = get_case("rho12").instantiate(None)
    bad = replace(inst, dec1=replace(inst.dec1, r_curve="nosuch"))
    rep = verify_case(bad)
    assert rep.status == "FAIL"
    first = next(c for c in rep.checks if c.status == "FAIL")
    assert first == ("decomposition-E1", "FAIL", "unknown curve 'nosuch'")


def test_verify_all_rows_and_expectations():
    reports = verify_all()
    assert len(reports) == 16
    by_id = {}
    for rep in reports:
        by_id.setdefault(rep.case_id, []).append(rep)
    assert all(r.status == "PASS" for r in by_id["rho11"])
    for cid in CONCRETE_IDS:
        assert by_id[cid][0].status == "PASS"
    assert all(r.status == "FAIL" for r in by_id["singular-k3"])
    npass = sum(1 for r in reports if r.status == "PASS")
    assert npass == 13


def test_verify_all_filters():
    assert len(verify_all(only="rho18-delta0")) == 1
    assert len(verify_all(only="rho11", param="1")) == 1
    assert verify_all(only="nonexistent") == []


def test_verify_all_deterministic():
    a = [r.to_dict() for r in verify_all()]
    b = [r.to_dict() for r in verify_all()]
    assert a == b


def test_qbasis_check():
    det, nonzero = qbasis_check()
    assert nonzero
    assert det == 8192  # frozen regression value
    det10, nz10 = qbasis_check(drop="H9")
    assert nz10
    det_dup, nz_dup = qbasis_check(duplicate="C")
    assert det_dup == 0 and not nz_dup


def test_mutation_kit_flips_exactly_the_intended_check():
    kit = mutation_kit()
    assert len(kit) >= 6
    for mut in kit:
        rep, flipped = run_mutation(mut)
        assert rep.status == "FAIL", mut.mutation_id
        assert flipped, (mut.mutation_id, rep.checks)


def test_evidence_is_sought_per_candidate_on_certified_fiber_classes():
    # a broken E1 neither hides E2's evidence nor gets evidence of its own
    reports = {m.mutation_id: run_mutation(m)[0] for m in mutation_kit()}
    drop = {n: (s, d) for n, s, d in reports["drop-component"].checks}
    assert drop["mw-evidence-E1"] == (
        "FAIL", "evidence-plan: not a fiber class: self-intersection -2 != 0")
    assert drop["mw-evidence-E2"] == (
        "PASS", "lemma54-case1: all 3 fixed curves in Supp E, r=6 < rho-1=12")
    corrupt = {n: (s, d) for n, s, d in reports["corrupt-multiplicity"].checks}
    assert corrupt["mw-evidence-E1"] == (
        "FAIL", "evidence-plan: not a fiber class: self-intersection -2 != 0")
    assert corrupt["mw-evidence-E2"][0] == "PASS"


def test_verify_all_classifies_each_candidate_once(monkeypatch):
    # 52 phi fibers plus one classification per E_i on the 16 rows.  A phi
    # fiber states no multiplicities, so it is one kernel; each of the 32
    # E_i is accepted from its own coefficients, with no kernel.  One
    # kernel per height on the three singular-k3 rows, and no
    # classification needs inertia
    from k3cert import cli, curves, exactlinalg, fibration, fileio, lattices, spectral
    import k3cert.cases as cases_mod
    calls = {"classify_fiber": [], "kernel_basis": [], "inertia": []}
    modules = (exactlinalg, lattices, spectral, curves, cases_mod, fibration, fileio, cli)
    for name, calls_of in calls.items():
        original = getattr(curves, name)

        def counted(*args, _original=original, _calls=calls_of):
            _calls.append(args)
            return _original(*args)
        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    reports = verify_all()
    assert len(calls["classify_fiber"]) == 52 + 2 * len(reports) == 84
    assert len(calls["kernel_basis"]) == 52 + 2 * 3 == 58
    assert calls["inertia"] == []


def test_theta_constraints_hold_for_all_records():
    from k3cert.curves import DivisorClass, theta_constraints
    for rec in builtin_cases():
        for p in rec.param_values:
            inst = rec.instantiate(p)
            if not inst.fixed_curves:
                continue
            classes = []
            for label, _, support in inst.phi_fibers:
                fiber = classify_fiber(inst.cfg, support)
                classes.append((label, DivisorClass.from_dict(
                    inst.cfg, fiber.multiplicities)))
            assert theta_constraints(inst.cfg, inst.fixed_curves, classes) == []
