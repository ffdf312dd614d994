"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line.

Criteria 2 and 3 assert the documented singular-K3 verdict.  The far-edge
section b8 of the surgered I12* fibrations |E1| and |E2| has height
exactly 0 on the declared data: 4 + 2*0 - (1 + 12/4) = 0.  So the
record's positivity plan cannot validate, and its three rows FAIL at
exactly the two mw-evidence checks while the other 13 rows PASS
(criterion 2).  Criterion 3 replays the surgery and backs the zero
height with two derivations that do not use the contribution table: the
orthogonal projection of b8 off the trivial lattice, and an integral
witness 2*b8 - t (t in the trivial lattice) that pairs to 0 with every
curve, so b8 - a8 is 2-torsion.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction

import conftest

from k3cert import cli
from k3cert.cases import (
    builtin_cases,
    get_case,
    mutation_kit,
    run_mutation,
    verify_all,
    verify_case,
)
from k3cert.curves import DivisorClass, classify_fiber, pairing
from k3cert.exactlinalg import char_poly, identity, mat_mul
from k3cert.fibration import (
    FiberInModel,
    FibrationModel,
    height_pairing,
    shioda_tate_rank,
)
from k3cert.lattices import fixed_locus_component_count, gram_of, two_elementary_invariants
from k3cert.spectral import entropy, is_isometry, is_reciprocal


def _report(num, slug, ok, note=""):
    line = f"ACCEPTANCE {num} ({slug}): {'PASS' if ok else 'FAIL'}"
    if note:
        line += f" -- {note}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


NIKULIN_TABLE = [
    ("U(2)+A1^9", (11, 11, 1), 1), ("U+A1^10", (12, 10, 1), 2),
    ("U+D4+A1^7", (13, 9, 1), 3), ("U+D4^2+A1^4", (14, 8, 1), 4),
    ("U+D4^3+A1", (15, 7, 1), 5), ("U+D6^2+A1^2", (16, 6, 1), 6),
    ("U+D6+D8+A1", (17, 5, 1), 7), ("U+D4+D12", (18, 4, 0), 8),
    ("U+D14+A1^2", (18, 4, 1), 8), ("U+D16+A1", (19, 3, 1), 9),
    ("U+E8+D10", (20, 2, 1), 10),
]


def test_criterion_1_nikulin_table():
    start = time.perf_counter()
    ok = True
    for expr, triple, k in NIKULIN_TABLE:
        inv = two_elementary_invariants(gram_of(expr))
        ok = ok and (inv.rank, inv.a, inv.delta) == triple
        ok = ok and fixed_locus_component_count(inv.rank, inv.a) == k
    elapsed = time.perf_counter() - start
    _report(1, "nikulin-table", ok and elapsed < 1.0,
            f"11 triples in {elapsed:.3f}s")


EXPECTED_KINDS = {
    "rho11": "I2/III", "rho12": "I4", "rho13": "I6", "rho14": "I6",
    "rho15": "I8", "rho16": "I12", "rho17": "I14", "rho18-delta0": "I16",
    "rho18-delta1": "I16", "rho19": "I16", "rho20": "IV*",
    "singular-k3": "I12*",
}


HEIGHT_ZERO = ("FAIL", "height-positive: <P,P> = 0 is not positive")


def test_criterion_2_certificate_replay():
    start = time.perf_counter()
    reports = verify_all()
    elapsed = time.perf_counter() - start
    rows_ok = len(reports) == 16
    singular = [r for r in reports if r.case_id == "singular-k3"]
    others_pass = all(r.status == "PASS" for r in reports
                      if r.case_id != "singular-k3")
    # the documented verdict: each singular-K3 row fails at exactly the
    # two mw-evidence checks, both with the height-0 detail
    singular_ok = [r.param for r in singular] == ["none", "I2", "III"]
    for r in singular:
        checks = {n: (s, d) for n, s, d in r.checks}
        failing_checks = [n for n, s, _ in r.checks if s == "FAIL"]
        singular_ok = singular_ok and r.status == "FAIL"
        singular_ok = singular_ok and failing_checks == ["mw-evidence-E1",
                                                         "mw-evidence-E2"]
        singular_ok = singular_ok and all(checks[n] == HEIGHT_ZERO
                                          for n in failing_checks)
    side_ok = True
    for rec in builtin_cases():
        for p in rec.param_values:
            inst = rec.instantiate(p)
            for e in (inst.dec1.e, inst.dec2.e):
                side_ok = side_ok and pairing(e, e, inst.cfg) == 0
                kind = classify_fiber(inst.cfg, e.support(inst.cfg)).kind
                expected = EXPECTED_KINDS[rec.case_id]
                side_ok = side_ok and kind == expected
            side_ok = side_ok and pairing(inst.dec1.e, inst.dec2.e, inst.cfg) > 0
    failing = [f"{r.case_id}[{r.param}]" for r in reports if r.status != "PASS"]
    _report(2, "verify-all-16-rows",
            rows_ok and others_pass and singular_ok and side_ok
            and elapsed < 5.0,
            f"{16 - len(failing)}/16 PASS in {elapsed:.3f}s; documented "
            f"FAIL rows {failing} fail only at mw-evidence-E1/E2: the "
            "declared section b8 has height exactly 0 (2-torsion), so the "
            "positivity evidence cannot validate on the recorded data")


def _solve(a, b):
    """Solve a x = b over Q by Gauss-Jordan elimination; a is invertible."""
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n] for row in m]


def _curve(cfg, name):
    return DivisorClass.from_dict(cfg, {name: 1})


def _projection_height(cfg, trivial, p):
    """-phi(P)^2, where phi(P) is P minus its orthogonal projection onto
    the span of `trivial`: phi(P)^2 = P^2 - c.r, where r_t = P.t and
    gram c = r."""
    sec = _curve(cfg, p)
    gram = [[pairing(s, t, cfg) for t in trivial] for s in trivial]
    rhs = [pairing(sec, t, cfg) for t in trivial]
    coeffs = _solve(gram, rhs)
    return -(pairing(sec, sec, cfg) - sum(c * r for c, r in zip(coeffs, rhs)))


def _torsion_witness(cfg, e, d):
    """2*b8 - 2*a8 - 4*E + (I12* components other than a7, and D):
    2*b8 minus an element of the trivial lattice of |E|."""
    t = {"a1": 7, "a2": 6, "a3": 5, "a4": 4, "a5": 3, "a6": 2, "a9": 1,
         d: 8, "b1": 9, "b2": 10, "b3": 11, "b4": 12, "b5": 13, "b6": 14,
         "b7": 8, "b9": 7}
    base = DivisorClass.from_dict(cfg, {"b8": 2, "a8": -2, **t})
    return DivisorClass(tuple(b - 4 * c for b, c in zip(base.coeffs, e.coeffs)))


def test_criterion_3_surgered_fibration_replay():
    parts_ok = True
    zero_ok = True
    heights = {}
    for variant, rank in (("none", 2), ("I2", 1), ("III", 1)):
        inst = get_case("singular-k3").instantiate(variant)
        counts = [len(supp) for _, _, supp in inst.phi_fibers]
        parts_ok = parts_ok and shioda_tate_rank(inst.rho, counts) == rank
        for label, e, d in (("E1", inst.dec1.e, "D1"), ("E2", inst.dec2.e, "D2")):
            fiber = classify_fiber(inst.cfg, e.support(inst.cfg))
            parts_ok = parts_ok and fiber.kind == "I12*"
            parts_ok = parts_ok and len(fiber.multiplicities) == 17
            parts_ok = parts_ok and sorted(fiber.multiplicities.values()) == [1] * 4 + [2] * 13
            for s in ("a8", "b8"):
                parts_ok = parts_ok and pairing(_curve(inst.cfg, s), e, inst.cfg) == 1
            model = FibrationModel(
                rho=inst.rho, fiber_class=e, zero_section="a8",
                sections=("a8", "b8"),
                reducible_fibers=(FiberInModel(fiber, {"a8": "a7", "b8": "b7"}),))
            h = height_pairing(model, inst.cfg, "b8")
            heights[f"{variant}/{label}"] = h
            # independent of the contribution table: the projection of b8
            # off the trivial lattice has square 0, and 2*b8 - t pairs to 0
            # with every curve, so b8 - a8 is 2-torsion
            trivial = [_curve(inst.cfg, "a8"), e] + [
                _curve(inst.cfg, c) for c in fiber.multiplicities if c != "a7"]
            proj = _projection_height(inst.cfg, trivial, "b8")
            witness = _torsion_witness(inst.cfg, e, d)
            kills_all = all(pairing(witness, _curve(inst.cfg, c), inst.cfg) == 0
                            for c in inst.cfg.curve_names)
            zero_ok = zero_ok and h == 0 and proj == 0 and kills_all
    _report(3, "i12star-surgery",
            parts_ok and zero_ok,
            "I12* recognition, S.E = 1 and Shioda-Tate ranks hold; heights "
            "of b8 "
            + ", ".join(f"{k}={h}" for k, h in heights.items())
            + " are exactly 0, matching the projection off the trivial "
            "lattice and the 2-torsion witness, so b8 is no positivity "
            "witness and the singular-k3 rows FAIL")


def test_criterion_4_lemma54_shioda_tate_consistency():
    from k3cert.curves import make_config
    from k3cert.fibration import lemma54_check
    rng = random.Random(4242)
    agree = True
    for _ in range(100):
        r = rng.randint(3, 10)
        case2 = rng.random() < 0.5
        n_fixed = rng.randint(1, r)
        rho = rng.randint(r - 1, r + 4)
        names = [f"v{i}" for i in range(r)] + (["Z"] if case2 else [])
        meets = [(f"v{i}", f"v{(i + 1) % r}", 1) for i in range(r)]
        cfg = make_config(names, meets)
        fixed = [f"v{i}" for i in range(n_fixed)] + (["Z"] if case2 else [])
        e = DivisorClass.from_dict(cfg, {f"v{i}": 1 for i in range(r)})
        ev = lemma54_check(e, cfg, fixed, rho)
        margin = (rho - 2 - r) if case2 else (rho - 1 - r)
        agree = agree and ev[0] == (margin > 0)
    _report(4, "lemma54-consistency", agree, "100 randomized fiber setups")


def test_criterion_5_exact_linalg_properties():
    from k3cert.exactlinalg import det_exact, inertia, smith_normal_form, transpose
    rng = random.Random(5)

    def rand(n):
        return [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]

    ok = True
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rand(n)
        # Cayley-Hamilton
        p = char_poly(m)
        acc = [[0] * n for _ in range(n)]
        power = identity(n)
        for c in p:
            for i in range(n):
                for j in range(n):
                    acc[i][j] += c * power[i][j]
            power = mat_mul(power, m)
        ok = ok and acc == [[0] * n for _ in range(n)]
        # SNF reconstruction
        d, u, v = smith_normal_form(m)
        ok = ok and mat_mul(u, mat_mul(m, v)) == d
        ok = ok and abs(det_exact(u)) == 1 and abs(det_exact(v)) == 1
        # inertia congruence invariance under a random unimodular change
        sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        s = identity(n)
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for t in range(n):
                    s[i][t] += c * s[j][t]
        cong = mat_mul(transpose(s), mat_mul(sym, s))
        ok = ok and inertia(cong) == inertia(sym)
        # det multiplicativity
        b = rand(n)
        ok = ok and det_exact(mat_mul(m, b)) == det_exact(m) * det_exact(b)
    _report(5, "exact-linalg-properties", ok, "200 randomized trials")


def test_criterion_6_spectral_suite():
    g3 = [[0, 1, 0], [1, 0, 0], [0, 0, -2]]
    m_hyp = [[0, 1, 0], [1, 4, -4], [0, -2, 1]]
    ok = True
    for m in (identity(3), [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]):
        rep = entropy(m, g3)
        ok = ok and rep.dynamical_class == "elliptic" and rep.entropy == 0.0
    rep = entropy(m_hyp, g3)
    ok = ok and rep.dynamical_class == "hyperbolic" and rep.spectral_radius > 1
    ok = ok and is_reciprocal(rep.salem_factor)
    rep_again = entropy(m_hyp, g3)
    ok = ok and abs(rep.spectral_radius - rep_again.spectral_radius) <= 1e-9
    m2 = mat_mul(m_hyp, m_hyp)
    ok = ok and abs(entropy(m2, g3).entropy - 2 * rep.entropy) < 3e-9
    for m in (identity(3), m_hyp, m2):
        ok = ok and is_isometry(m, g3) and is_reciprocal(char_poly(m))
    _report(6, "spectral-suite", ok)


def test_criterion_7_negative_controls():
    kit = mutation_kit()
    ok = len(kit) >= 6
    for mut in kit:
        _, flipped = run_mutation(mut)
        ok = ok and flipped
    _report(7, "negative-controls", ok, f"{len(kit)} documented mutations")


def test_criterion_8_determinism():
    runs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.run(["verify", "--all", "--json"])
        runs.append(buf.getvalue())
    first, second = runs
    ok = first == second and first
    json.loads(first)  # well-formed
    _report(8, "byte-determinism", bool(ok))
