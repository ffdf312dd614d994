"""Entropy, cyclotomic stripping and the Salem certificate.

The hyperbolic test vector was found by the brute-force search in
scripts/find_isometry.py (isometries of U + A1 with trace > 3); sympy
provides an independent characteristic-polynomial oracle.
"""

import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from k3cert import cli, exactlinalg, spectral
from k3cert.errors import K3CertError
from k3cert.exactlinalg import char_poly, identity, mat_mul, poly_mul, transpose
from k3cert.lattices import gram_of
from k3cert.spectral import (
    NotIsometryError,
    count_real_roots,
    cyclotomic,
    entropy,
    euler_phi,
    is_isometry,
    is_reciprocal,
    largest_real_root,
    root_bound,
    squarefree_part,
    strip_cyclotomic_factors,
    sturm_sequence,
    trace_polynomial,
)

G3 = [[0, 1, 0], [1, 0, 0], [0, 0, -2]]
# discovered by exhaustive search: smallest-trace hyperbolic example
M_HYP = [[0, 1, 0], [1, 4, -4], [0, -2, 1]]
# unipotent isometry: char poly (x-1)^3, infinite order
M_PAR = [[1, 0, 0], [1, 1, 2], [1, 0, 1]]


def test_is_isometry_basics():
    g = gram_of("U+A1").gram_rows()
    assert is_isometry(identity(3), g)
    assert is_isometry([[-1, 0, 0], [0, -1, 0], [0, 0, -1]], g)
    # swap the two U coordinates and flip the A1 sign
    swap_flip = [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
    assert is_isometry(swap_flip, g)
    assert not is_isometry([[1, 1, 0], [0, 1, 0], [0, 0, 1]], g)


def test_cyclotomic_polynomials():
    assert list(cyclotomic(1)) == [-1, 1]
    assert list(cyclotomic(2)) == [1, 1]
    assert list(cyclotomic(4)) == [1, 0, 1]
    assert list(cyclotomic(6)) == [1, -1, 1]
    assert list(cyclotomic(12)) == [1, 0, -1, 0, 1]
    for n in (5, 8, 9, 15):
        assert len(cyclotomic(n)) - 1 == euler_phi(n)


def test_strip_cyclotomic():
    # (x-1)^2 (x^2+x+1)
    p = [-1, 1]
    full = poly_mul(poly_mul(p, p), [1, 1, 1])
    rest, orders = strip_cyclotomic_factors(full)
    assert rest == [1]
    assert sorted(orders) == [1, 1, 3]
    # repeated factors in front of a non-cyclotomic rest
    rng = random.Random(130)
    for _ in range(20):
        orders = sorted(rng.choice([1, 2, 3, 4, 5, 6, 8, 10, 12]) for _ in range(rng.randint(1, 6)))
        rest = rng.choice([[1], [1, -6, 1], LEHMER])
        p = rest
        for n in orders:
            p = poly_mul(p, list(cyclotomic(n)))
        got_rest, got_orders = strip_cyclotomic_factors(p)
        assert got_rest == rest and sorted(got_orders) == orders


def test_sturm_root_isolation():
    # x^2 - 2: one root in (1, 2], none in (2, 3]
    p = [-2, 0, 1]
    assert count_real_roots(p, 1, 2) == 1
    assert count_real_roots(p, 2, 3) == 0
    lo, hi = largest_real_root(p, tol=Fraction(1, 10**12))
    mid = (lo + hi) / 2
    assert abs(float(mid) - math.sqrt(2)) < 1e-9
    # a bisection point that hits a rational root keeps it in (lo, hi]
    lo, hi = largest_real_root([-1, 0, 1])
    assert lo < 1 <= hi and float(hi) == 1.0


def test_entropy_elliptic():
    g = gram_of("U+A1").gram_rows()
    rep = entropy(identity(3), g)
    assert rep.dynamical_class == "elliptic"
    assert rep.entropy == 0.0 and rep.order == 1
    neg = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    rep2 = entropy(neg, g)
    assert rep2.dynamical_class == "elliptic" and rep2.order == 2
    # exact powering confirms the computed order
    m = neg
    power = identity(3)
    for _ in range(rep2.order):
        power = mat_mul(power, m)
    assert power == identity(3)


def test_entropy_parabolic():
    assert is_isometry(M_PAR, G3)
    rep = entropy(M_PAR, G3)
    assert rep.dynamical_class == "parabolic"
    assert rep.entropy == 0.0 and rep.salem_factor is None


def test_entropy_hyperbolic_discovered_example():
    assert is_isometry(M_HYP, G3)
    rep = entropy(M_HYP, G3)
    assert rep.dynamical_class == "hyperbolic"
    assert rep.spectral_radius > 1
    assert rep.entropy > 0
    assert is_reciprocal(rep.salem_factor)
    # 3 + 2*sqrt(2) is the large root of x^2 - 6x + 1
    assert rep.salem_factor == [1, -6, 1]
    assert abs(rep.spectral_radius - (3 + 2 * math.sqrt(2))) < 1e-9
    lo, hi = rep.radius_interval
    assert hi - lo <= Fraction(1, 10**10)


def test_entropy_stable_across_runs():
    r1 = entropy(M_HYP, G3)
    r2 = entropy(M_HYP, G3)
    assert r1.spectral_radius == r2.spectral_radius
    assert r1.radius_interval == r2.radius_interval


def test_char_poly_against_sympy_oracle():
    for m in (M_HYP, [[1, 0, 0], [1, 1, 2], [1, 0, 1]],
              [[0, 1, 0], [1, 0, 0], [0, 0, -1]]):
        ours = char_poly(m)
        theirs = sympy.Matrix(m).charpoly().all_coeffs()  # descending
        assert ours == [int(c) for c in reversed(theirs)]


def test_char_poly_reciprocity_for_isometries():
    for m in (M_HYP, identity(3), [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
              [[1, 0, 0], [1, 1, 2], [1, 0, 1]]):
        assert is_isometry(m, G3)
        assert is_reciprocal(char_poly(m))


def test_entropy_of_inverse_and_powers():
    inv = [[int(x) for x in row] for row in sympy.Matrix(M_HYP).inv().tolist()]
    assert mat_mul(M_HYP, inv) == identity(3)
    base = entropy(M_HYP, G3).entropy
    assert abs(entropy(inv, G3).entropy - base) < 3e-9
    m2 = mat_mul(M_HYP, M_HYP)
    m3 = mat_mul(m2, M_HYP)
    assert abs(entropy(m2, G3).entropy - 2 * base) < 3e-9
    assert abs(entropy(m3, G3).entropy - 3 * base) < 3e-9


def test_entropy_rejects_non_isometry():
    with pytest.raises(NotIsometryError):
        entropy([[2, 0, 0], [0, 1, 0], [0, 0, 1]], G3)


# ---------------------------------------------------------------------------
# repeated eigenvalues, the Salem certificate, rank 22

X = sympy.Symbol("x")
LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def brackets(interval, root):
    """lo < root <= hi, decided exactly by sympy."""
    lo, hi = (sympy.Rational(f.numerator, f.denominator) for f in interval)
    return bool(lo < root) and bool(root <= hi)


def test_sturm_counts_at_a_repeated_root():
    # (x - 1)^2 (x + 1) (x^2 - 6x + 1): every Sturm term of p itself
    # vanishes at x = 1
    p = [1, -7, 6, 6, -7, 1]
    assert count_real_roots(p, 1, root_bound(p)) == 1
    assert count_real_roots(p, 1, 6) == 1
    assert count_real_roots(p, 0, 1) == 2
    assert count_real_roots(p, -2, 0) == 1


def test_entropy_hyperbolic_with_repeated_eigenvalue_one():
    g = block_diag(G3, [[-2]], [[-2]])
    m = block_diag(M_HYP, [[1]], [[1]])
    assert char_poly(m) == [1, -7, 6, 6, -7, 1]
    rep = entropy(m, g)
    assert rep.dynamical_class == "hyperbolic"
    assert rep.salem_factor == [1, -6, 1]
    assert brackets(rep.radius_interval, 3 + 2 * sympy.sqrt(2))


def test_spectral_radius_is_the_rounded_interval():
    for m in (M_HYP, mat_mul(M_HYP, M_HYP)):
        rep = entropy(m, G3)
        lo, hi = rep.radius_interval
        assert rep.spectral_radius == float(lo) == float(hi)


@settings(max_examples=60, deadline=None)
@given(st.integers(-20, 20).filter(bool), st.lists(st.integers(-20, 20), max_size=5),
       st.integers(-20, 20))
def test_trace_polynomial_round_trip(lead, inner, middle):
    # palindromic of degree 2d
    s = [lead] + inner + [middle] + inner[::-1] + [lead]
    d = len(inner) + 1
    q = trace_polynomial(s)
    assert len(q) == d + 1
    y = sympy.Poly(list(reversed(q)), X).as_expr()
    back = sympy.expand(X**d * y.subs(X, X + 1 / X))
    assert sympy.Poly(back, X).all_coeffs()[::-1] == s


def test_lehmer_polynomial_is_certified():
    # the Coxeter element of T_{2,3,7} has Lehmer's polynomial as its
    # characteristic polynomial, M_HYP has (x + 1)(x^2 - 6x + 1)
    g = t_pqr_gram(2, 3, 7)
    assert entropy(coxeter_element(g), g).salem_factor == LEHMER
    assert entropy(M_HYP, G3).salem_factor == [1, -6, 1]
    # the cyclotomic x^2 + x + 1 of A2's Coxeter element has no root off
    # the unit circle
    a2 = [[-2, 1], [1, -2]]
    rep = entropy(coxeter_element(a2), a2)
    assert (rep.dynamical_class, rep.order, rep.salem_factor) == ("elliptic", 3, None)


def t_pqr_gram(p, q, r):
    """Gram of the T_{p,q,r} diagram: arms of p, q and r nodes sharing a
    centre, simple roots of square -2."""
    n = p + q + r - 2
    g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    node = 1
    for arm in (p, q, r):
        prev = 0
        for _ in range(arm - 1):
            g[prev][node] = g[node][prev] = 1
            prev, node = node, node + 1
    return g


def coxeter_element(g):
    """Product of the simple reflections x -> x + (x.e_i) e_i."""
    n = len(g)
    m = identity(n)
    for i in range(n):
        s = identity(n)
        s[i] = [s[i][j] + g[i][j] for j in range(n)]
        m = mat_mul(m, s)
    return m


def test_rank22_coxeter_salem_factor():
    g = t_pqr_gram(2, 3, 19)
    m = coxeter_element(g)
    assert len(m) == 22 and is_isometry(m, g)
    start = time.perf_counter()
    rep = entropy(m, g)
    elapsed = time.perf_counter() - start
    cp = sympy.Poly(list(reversed(char_poly(m))), X)
    (want,) = [sympy.Poly(f, X) for f, _ in sympy.factor_list(cp.as_expr())[1]
               if sympy.Poly(f, X).count_roots(1, None) > 0 and f.subs(X, 1) != 0]
    assert rep.salem_factor == [int(c) for c in reversed(want.all_coeffs())]
    assert len(rep.salem_factor) == 23
    assert rep.dynamical_class == "hyperbolic"
    assert brackets(rep.radius_interval, max(want.real_roots()))
    assert elapsed < 1.0


def test_two_pairs_off_the_unit_circle_are_not_certified():
    # M_HYP + M_HYP^2: eigenvalues lambda, lambda^2 and their inverses
    g = block_diag(G3, G3)
    m = block_diag(M_HYP, mat_mul(M_HYP, M_HYP))
    rest, _ = strip_cyclotomic_factors(char_poly(m))
    q = trace_polynomial(rest)
    assert sympy.factor(sympy.Poly(list(reversed(q)), X).as_expr()) == (X - 6) * (X - 34)
    rep = entropy(m, g)
    assert rep.dynamical_class == "hyperbolic"
    assert rep.salem_factor is None
    assert brackets(rep.radius_interval, 17 + 12 * sympy.sqrt(2))


def test_cli_reports_an_uncertified_salem_factor(tmp_path, capsys):
    g = block_diag(G3, G3)
    m = block_diag(M_HYP, mat_mul(M_HYP, M_HYP))
    path = tmp_path / "iso.txt"
    path.write_text("6 " + " ".join(str(x) for row in g + m for x in row) + "\n")
    assert cli.run(["entropy", str(path)]) == 0
    out = capsys.readouterr().out
    assert "class: hyperbolic" in out
    assert ("salem factor: not certified "
            "(more than one pair of eigenvalues off the unit circle)") in out


@pytest.mark.parametrize("m,g", [
    (block_diag(M_HYP, mat_mul(M_HYP, M_HYP)), block_diag(G3, G3)),
    ([[-x for x in row] for row in M_HYP], G3),
], ids=["two-pairs", "negative-radius"])
def test_cli_entropy_computes_one_char_poly(tmp_path, capsys, monkeypatch, m, g):
    # the "not certified" reason comes with the report, not from a second
    # characteristic polynomial
    calls = []

    def counted(a):
        calls.append(a)
        return char_poly(a)
    for mod in (cli, spectral):
        if hasattr(mod, "char_poly"):
            monkeypatch.setattr(mod, "char_poly", counted)
    path = tmp_path / "iso.txt"
    path.write_text(f"{len(m)} " + " ".join(str(x) for row in g + m for x in row) + "\n")
    assert cli.run(["entropy", str(path)]) == 0
    assert "salem factor: not certified" in capsys.readouterr().out
    assert len(calls) == 1


def test_negative_spectral_radius_on_u_plus_a1():
    # -M_HYP: char poly (x - 1)(x^2 + 6x + 1), radius 3 + 2 sqrt 2 at -lambda
    neg = [[-x for x in row] for row in M_HYP]
    assert is_isometry(neg, G3)
    rep = entropy(neg, G3)
    assert rep.dynamical_class == "hyperbolic"
    assert rep.salem_factor is None
    assert brackets(rep.radius_interval, 3 + 2 * sympy.sqrt(2))
    assert abs(rep.entropy - entropy(M_HYP, G3).entropy) < 3e-9


@pytest.mark.parametrize("sign1,sign2", [(1, -1), (-1, 1)])
def test_spectral_radius_is_the_largest_absolute_eigenvalue(sign1, sign2):
    # +-M_HYP + -+M_HYP^2: real eigenvalues +-lambda^{+-1} and -+lambda^{+-2}
    g = block_diag(G3, G3)
    m = block_diag([[sign1 * x for x in row] for row in M_HYP],
                   [[sign2 * x for x in row] for row in mat_mul(M_HYP, M_HYP)])
    rep = entropy(m, g)
    assert rep.dynamical_class == "hyperbolic"
    assert rep.salem_factor is None
    assert brackets(rep.radius_interval, 17 + 12 * sympy.sqrt(2))
    assert abs(rep.spectral_radius - 33.970562748477) < 1e-9


def test_cli_note_for_a_negative_spectral_radius(tmp_path, capsys):
    path = tmp_path / "iso.txt"
    neg = [[-x for x in row] for row in M_HYP]
    path.write_text("3 " + " ".join(str(x) for row in G3 + neg for x in row) + "\n")
    assert cli.run(["entropy", str(path)]) == 0
    out = capsys.readouterr().out
    assert "spectral radius: 5.8284271247" in out
    assert "salem factor: not certified (the spectral radius is a negative eigenvalue)" in out
    assert "more than one pair" not in out


def finite_block(name):
    """(Gram, isometry) of finite order: the Coxeter element of a root
    lattice in its simple-root basis, or +-1 on A1."""
    if name in ("+1", "-1"):
        return [[-2]], [[int(name)]]
    g = gram_of(name).gram_rows()
    return g, coxeter_element(g)


def random_basis(rng, n, steps):
    """A unimodular S and its inverse, by elementary column operations."""
    s, s_inv = identity(n), identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        for row in s:
            row[j] += c * row[i]
        s_inv[i] = [x - c * y for x, y in zip(s_inv[i], s_inv[j])]
    return s, s_inv


def block(name):
    """finite_block, plus "PAR" and "-PAR": +-M_PAR on U + A1."""
    if name.endswith("PAR"):
        sign = -1 if name == "-PAR" else 1
        return G3, [[sign * x for x in row] for row in M_PAR]
    return finite_block(name)


def in_random_basis(names):
    """(Gram, isometry) of the block sum, in a basis seeded by the names."""
    rng = random.Random(" ".join(names))
    gs, ms = zip(*(block(name) for name in names))
    g, m = block_diag(*gs), block_diag(*ms)
    s, s_inv = random_basis(rng, len(m), 3 * len(m))
    assert mat_mul(s, s_inv) == identity(len(m))
    return mat_mul(transpose(s), mat_mul(g, s)), mat_mul(s_inv, mat_mul(m, s))


def brute_force_order(m):
    ident = identity(len(m))
    power, k = m, 1
    while power != ident:
        power, k = mat_mul(power, m), k + 1
    return k


@pytest.mark.parametrize("names", [
    ("E8",), ("A6", "A4"), ("E8", "D4", "A2"), ("D4", "A2", "-1"), ("A6", "-1", "+1"),
    ("E8", "A6", "A4", "-1"), ("+1", "+1"), ("-1", "-1"), ("A2", "A2", "+1"),
])
def test_elliptic_order_is_the_least_period(names):
    g, m = in_random_basis(names)
    rep = entropy(m, g)
    assert rep.dynamical_class == "elliptic"
    assert rep.order == brute_force_order(m)


def cyclotomic_lcm(m):
    """lcm of the n with Phi_n dividing the characteristic polynomial, from
    sympy's charpoly, factor_list and cyclotomic_poly."""
    out = 1
    for f, _ in sympy.factor_list(sympy.Matrix(m).charpoly(X).as_expr())[1]:
        deg = sympy.degree(f, X)
        n = next(n for n in range(1, 2 * deg * deg + 1)
                 if sympy.Poly(sympy.cyclotomic_poly(n, X), X) == sympy.Poly(f, X))
        out = math.lcm(out, n)
    return out


def has_order_dividing(m, k):
    """m^k == I, by exact repeated squaring."""
    power, base = identity(len(m)), m
    while k:
        if k & 1:
            power = mat_mul(power, base)
        base, k = mat_mul(base, base), k >> 1
    return power == identity(len(m))


@pytest.mark.parametrize("names", [
    ("PAR",), ("-PAR",), ("PAR", "A2"), ("PAR", "E8"), ("PAR", "D4", "-1"),
    ("-PAR", "A6", "+1"), ("PAR", "A6", "A4"), ("PAR", "-PAR"),
    ("E8", "A4"), ("D4", "A2", "+1"), ("A6", "-1", "-1"),
])
def test_class_matches_the_matrix_power_oracle(names):
    g, m = in_random_basis(names)
    n = cyclotomic_lcm(m)
    rep = entropy(m, g)
    if has_order_dividing(m, n):
        assert (rep.dynamical_class, rep.order) == ("elliptic", n)
    else:
        assert (rep.dynamical_class, rep.order) == ("parabolic", None)
    assert ("PAR" in " ".join(names)) == (rep.dynamical_class == "parabolic")


def test_parabolic_refuted_by_a_later_start_vector():
    # E8 + M_PAR conjugated by T = I with column 0 all ones: T^-1 maps the
    # first start vector (1, ..., 1) to e_0 in the E8 block, which the
    # radical Phi_30 Phi_1 kills, so only v_1 or a later one refutes
    ge, me = finite_block("E8")
    g, m = block_diag(ge, G3), block_diag(me, M_PAR)
    n = len(m)
    t, t_inv = identity(n), identity(n)
    for i in range(1, n):
        t[i][0], t_inv[i][0] = 1, -1
    m = mat_mul(t, mat_mul(m, t_inv))
    g = mat_mul(transpose(t_inv), mat_mul(g, t_inv))
    f = poly_mul(list(cyclotomic(30)), list(cyclotomic(1)))
    w, total = [1] * n, [0] * n
    for c in f:
        total = [x + c * y for x, y in zip(total, w)]
        w = [sum(a * b for a, b in zip(row, w)) for row in m]
    assert total == [0] * n
    rep = entropy(m, g)
    assert rep.dynamical_class == "parabolic" and rep.order is None


def test_killed_by_needs_full_rank():
    # (1, 1) is fixed by this unipotent m, so x - 1 kills the first start
    # vector and its Krylov space, a line; the second start vector refutes
    m = [[0, 1], [-1, 2]]
    assert not spectral._killed_by(m, [-1, 1])
    assert spectral._killed_by(m, [1, -2, 1])
    assert spectral._killed_by(identity(2), [-1, 1])


@pytest.mark.parametrize("names,cls", [
    (("E8", "E8", "A4", "A2"), "elliptic"),
    (("PAR", "E8", "A6", "A4", "-1"), "parabolic"),
])
def test_entropy_forms_no_matrix_power(monkeypatch, names, cls):
    # the only matrix products are the two of is_isometry
    g, m = in_random_basis(names)
    assert len(m) == 22
    calls = []

    def counted(a, b):
        calls.append(1)
        return mat_mul(a, b)
    monkeypatch.setattr(spectral, "mat_mul", counted)
    assert entropy(m, g).dynamical_class == cls
    assert len(calls) == 2
    assert exactlinalg._is_prime(spectral._RANK_PRIME) and 22 < spectral._RANK_PRIME < 2**30


@pytest.mark.parametrize("m,g", [
    (block_diag(M_HYP, mat_mul(M_HYP, M_HYP)), block_diag(G3, G3)),
    ([[-x for x in row] for row in M_HYP], G3),
], ids=["two-pairs", "negative-radius"])
def test_entropy_builds_one_sturm_chain_of_the_trace_polynomial(monkeypatch, m, g):
    # on a non-Salem hyperbolic map the Salem certificate and the reason
    # come from the same root counts of Q
    rest, _ = strip_cyclotomic_factors(char_poly(m))
    q = trace_polynomial(squarefree_part(rest))
    chains = []

    def counted(p):
        chains.append(list(p))
        return sturm_sequence(p)
    monkeypatch.setattr(spectral, "sturm_sequence", counted)
    rep = entropy(m, g)
    assert rep.salem_factor is None and rep.no_salem_reason is not None
    assert chains.count(q) == 1
    # the other chain is the one the radius is isolated on
    assert len(chains) == 2


# ---------------------------------------------------------------------------
# the integer Sturm layer against sympy

def _poly_from_factors(lead, factors):
    """lead * prod f^e, ascending coefficients; repeated factors on purpose."""
    p = sympy.Integer(lead)
    for coeffs, e in factors:
        p *= sympy.Poly(list(reversed(coeffs)), X).as_expr() ** e
    return [int(c) for c in reversed(sympy.Poly(p, X).all_coeffs())]


FACTORS = st.lists(
    st.tuples(st.lists(st.integers(-4, 4), min_size=2, max_size=4).filter(lambda c: c[-1] != 0),
              st.integers(1, 3)),
    min_size=1, max_size=3)
LEADS = st.sampled_from([-3, -2, -1, 1, 2, 3])
POINTS = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@settings(max_examples=60, deadline=None)
@given(LEADS, FACTORS, POINTS, POINTS)
def test_count_real_roots_matches_sympy(lead, factors, a, b):
    p = _poly_from_factors(lead, factors)
    a, b = min(a, b), max(a, b)
    poly = sympy.Poly(list(reversed(p)), X)
    ra, rb = sympy.Rational(a.numerator, a.denominator), sympy.Rational(b.numerator, b.denominator)
    # sympy counts distinct roots in [a, b]; count_real_roots in (a, b]
    want = poly.count_roots(ra, rb) - (poly.eval(ra) == 0) if a < b else 0
    assert count_real_roots(p, a, b) == want


def _normal(coeffs):
    """Primitive, positive leading coefficient."""
    g = math.gcd(*coeffs)
    coeffs = [c // g for c in coeffs]
    return [-c for c in coeffs] if coeffs[-1] < 0 else coeffs


@settings(max_examples=60, deadline=None)
@given(LEADS, FACTORS)
def test_squarefree_part_matches_sympy(lead, factors):
    p = _poly_from_factors(lead, factors)
    want = sympy.Poly(list(reversed(p)), X).sqf_part()
    got = squarefree_part(p)
    assert got == _normal([int(c) for c in reversed(want.all_coeffs())])
    assert got[-1] > 0 and math.gcd(*got) == 1


@settings(max_examples=40, deadline=None)
@given(LEADS, FACTORS)
def test_largest_real_root_brackets_sympy(lead, factors):
    p = _poly_from_factors(lead, factors)
    roots = sympy.Poly(list(reversed(p)), X).real_roots()
    if not roots:
        with pytest.raises(ValueError):
            largest_real_root(p)
        return
    lo, hi = largest_real_root(p)
    assert brackets((lo, hi), max(roots))
    assert hi - lo <= Fraction(1, 10**12)
    # near 0 the doubles are finer than the refinement floor tol / 2**64
    assert float(lo) == float(hi) or max(roots) == 0


def test_sturm_sequence_is_integral_and_primitive():
    seq = sturm_sequence(LEHMER)
    assert seq[0] == LEHMER
    for term in seq[1:]:
        assert all(isinstance(c, int) for c in term)
        assert math.gcd(*term) == 1
    assert len(seq[-1]) == 1


# ---------------------------------------------------------------------------
# inputs the Salem path cannot certify exit 2 with one line

# U + U as M_2(Z) with q = 2 det, in the basis E11, E12, E21, E22
G_UU = [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]


def left_right(a, b):
    """X -> A X B on M_2(Z), row-major coordinates: A (x) B^T."""
    return [[a[i][k] * b[l][j] for k in range(2) for l in range(2)]
            for i in range(2) for j in range(2)]


def iso_file(tmp_path, g, m):
    path = tmp_path / "iso.txt"
    path.write_text(f"{len(g)} " + " ".join(str(x) for row in g + m for x in row) + "\n")
    return str(path)


# X -> A X B with A of order 3, eigenvalues the primitive cube roots
A_CUBE = [[0, -1], [1, -1]]


@pytest.mark.parametrize("b,cls,order", [
    # chi = (x^2 + x + 1)^2 with a Jordan block at each cube root
    ([[1, 1], [0, 1]], "parabolic", None),
    # chi = Phi_12
    ([[0, -1], [1, 0]], "elliptic", 12),
])
def test_left_right_classes_on_u_plus_u(b, cls, order):
    m = left_right(A_CUBE, b)
    assert is_isometry(m, G_UU)
    rep = entropy(m, G_UU)
    assert (rep.dynamical_class, rep.order) == (cls, order)
    assert has_order_dividing(m, 12) == (cls == "elliptic")
    if cls == "parabolic":
        assert char_poly(m) == [1, 2, 3, 2, 1]


def test_complex_eigenvalues_off_the_unit_circle_exit_2(tmp_path, capsys):
    m = left_right([[2, 1], [1, 1]], [[0, -1], [1, 0]])
    assert is_isometry(m, G_UU)
    assert char_poly(m) == [1, 0, 7, 0, 1]
    assert cli.run(["entropy", iso_file(tmp_path, G_UU, m)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: eigenvalues off the unit circle are not real: "
                            "spectral radius not certified\n")


def test_real_and_complex_pairs_off_the_unit_circle_are_refused():
    # eigenvalues 3 +- 2 sqrt 2 and +-i ((7 +- 3 sqrt 5) / 2): the complex
    # pair has the larger modulus, which the real Sturm counts cannot see
    g = block_diag(G3, G_UU)
    m = block_diag(M_HYP, left_right([[5, 3], [3, 2]], [[0, -1], [1, 0]]))
    assert is_isometry(m, g)
    with pytest.raises(K3CertError, match="eigenvalues off the unit circle are not real"):
        entropy(m, g)


def test_degenerate_form_exits_2(tmp_path, capsys):
    path = iso_file(tmp_path, [[0, 0], [0, 0]], [[2, 1], [0, 3]])
    assert cli.run(["entropy", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: characteristic polynomial is not reciprocal: "
                            "the form is degenerate\n")


# ---------------------------------------------------------------------------
# the exact stdout of `k3cert entropy`, byte for byte

SALEM_10 = "1 1 0 -1 -1 -1 -1 -1 0 1 1"
SALEM_22 = "1 1 0 " + " ".join(["-1"] * 17) + " 0 1 1"


@pytest.mark.parametrize("g,m,out", [
    (G3, M_HYP,
     "class: hyperbolic\nspectral radius: 5.8284271247\nentropy: 1.7627471740\n"
     "salem factor (ascending): 1 -6 1\n"),
    (t_pqr_gram(2, 3, 7), coxeter_element(t_pqr_gram(2, 3, 7)),
     "class: hyperbolic\nspectral radius: 1.1762808183\nentropy: 0.1623576120\n"
     f"salem factor (ascending): {SALEM_10}\n"),
    (t_pqr_gram(2, 3, 19), coxeter_element(t_pqr_gram(2, 3, 19)),
     "class: hyperbolic\nspectral radius: 1.3220142396\nentropy: 0.2791565126\n"
     f"salem factor (ascending): {SALEM_22}\n"),
], ids=["M_HYP", "T2,3,7", "T2,3,19"])
def test_cli_entropy_stdout_is_pinned(tmp_path, capsys, g, m, out):
    assert cli.run(["entropy", iso_file(tmp_path, g, m)]) == 0
    assert capsys.readouterr().out == out
