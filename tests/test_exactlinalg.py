"""Property suite for the exact linear algebra kernels.

Randomized trials use a fixed seed; oracles are independent
implementations (cofactor expansion, direct reconstruction) rather than
the functions under test.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3cert.exactlinalg import (
    NonSquareError,
    NonSymmetricError,
    adjugate_inverse,
    char_poly,
    det_exact,
    identity,
    inertia,
    kernel_basis,
    mat_mul,
    mat_vec,
    poly_divmod_exact,
    poly_eval,
    poly_mul,
    smith_normal_form,
    transpose,
)

TRIALS = 200


def cofactor_det(m):
    """Independent oracle: recursive cofactor expansion."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def random_matrix(rng, n, m=None):
    m = n if m is None else m
    return [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]


def random_symmetric(rng, n):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(-5, 5)
    return a


def random_unimodular(rng, n):
    """Product of random elementary row operations: det is +-1."""
    u = identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for t in range(n):
            u[i][t] += c * u[j][t]
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        u[i], u[j] = u[j], u[i]
    return u


# ---------------------------------------------------------------------------
# determinant

def test_det_examples():
    assert det_exact([[0, 1], [1, 0]]) == -1
    assert det_exact([[-2]]) == -2
    assert det_exact([]) == 1


def test_det_e8_gram_is_one():
    from k3cert.lattices import gram_of
    g = gram_of("E8").gram_rows()
    assert cofactor_det(g) == 1  # oracle
    assert det_exact(g) == 1


def test_det_matches_cofactor_oracle():
    rng = random.Random(101)
    for _ in range(TRIALS):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        assert det_exact(m) == cofactor_det(m)


def test_det_multiplicative():
    rng = random.Random(102)
    for _ in range(TRIALS):
        n = rng.randint(1, 6)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert det_exact(mat_mul(a, b)) == det_exact(a) * det_exact(b)


def test_det_rejects_non_square():
    with pytest.raises(NonSquareError):
        det_exact([[1, 2, 3], [4, 5, 6]])


# ---------------------------------------------------------------------------
# Smith normal form

def test_snf_examples():
    d, _, _ = smith_normal_form([[2, 0], [0, 2]])
    assert [d[0][0], d[1][1]] == [2, 2]
    d, _, _ = smith_normal_form([[0, 1], [1, 0]])
    assert [d[0][0], d[1][1]] == [1, 1]
    d, _, _ = smith_normal_form([[0, 2], [2, 0]])
    assert [d[0][0], d[1][1]] == [2, 2]


def test_snf_reconstruction():
    rng = random.Random(103)
    for _ in range(TRIALS):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = random_matrix(rng, r, c)
        d, u, v = smith_normal_form(m)
        assert mat_mul(u, mat_mul(m, v)) == d
        assert abs(det_exact(u)) == 1
        assert abs(det_exact(v)) == 1
        diag = [d[i][i] for i in range(min(r, c))]
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert d[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a:
                assert b % a == 0
            else:
                assert b == 0


# ---------------------------------------------------------------------------
# inertia

def test_inertia_examples():
    assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert inertia([[-2]]) == (0, 1, 0)
    # 4-cycle of (-2)-curves
    cyc = [[-2, 1, 0, 1], [1, -2, 1, 0], [0, 1, -2, 1], [1, 0, 1, -2]]
    assert inertia(cyc) == (0, 3, 1)
    # oracle: leading principal minors of the negated matrix alternate
    minors = [det_exact([row[:k] for row in cyc[:k]]) for k in range(1, 5)]
    assert minors == [-2, 3, -4, 0]


def test_inertia_congruence_invariance():
    rng = random.Random(104)
    for _ in range(TRIALS):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n)
        s = random_unimodular(rng, n)
        cong = mat_mul(transpose(s), mat_mul(m, s))
        assert inertia(cong) == inertia(m)


def test_inertia_counts_sum_to_dimension():
    rng = random.Random(105)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n)
        p, q, z = inertia(m)
        assert p + q + z == n
        assert z == n - _rank(m)


def _rank(m):
    a = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col] / a[rank][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def test_inertia_rejects_non_symmetric():
    with pytest.raises(NonSymmetricError):
        inertia([[0, 1], [2, 0]])


# ---------------------------------------------------------------------------
# characteristic polynomial / Cayley-Hamilton

def test_char_poly_cayley_hamilton():
    rng = random.Random(106)
    for _ in range(TRIALS):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n)
        p = char_poly(m)
        assert len(p) == n + 1 and p[-1] == 1
        acc = [[0] * n for _ in range(n)]
        power = identity(n)
        for c in p:
            for i in range(n):
                for j in range(n):
                    acc[i][j] += c * power[i][j]
            power = mat_mul(power, m)
        assert acc == [[0] * n for _ in range(n)]


def _sympy_char_poly(m):
    import sympy
    return [int(c) for c in reversed(sympy.Matrix(m).charpoly().all_coeffs())]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_char_poly_matches_sympy(m):
    assert char_poly(m) == _sympy_char_poly(m)


def test_char_poly_dense_rank22_matches_sympy():
    rng = random.Random(109)
    m = [[rng.choice([x for x in range(-5, 6) if x]) for _ in range(22)] for _ in range(22)]
    assert char_poly(m) == _sympy_char_poly(m)


def test_char_poly_raises_on_inexact_division():
    # a non-integral matrix: the exactness check raises instead of
    # flooring -1/2 to -1
    with pytest.raises(ArithmeticError):
        char_poly([[Fraction(1, 2)]])


def test_char_poly_constant_term_is_det():
    rng = random.Random(107)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        p = char_poly(m)
        assert p[0] == (-1) ** n * det_exact(m)


# ---------------------------------------------------------------------------
# kernel, adjugate, polynomial helpers

def test_kernel_basis_annihilates():
    rng = random.Random(108)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = random_matrix(rng, r, c)
        for v in kernel_basis(m):
            assert mat_vec(m, v) == [0] * r
            from math import gcd
            g = 0
            for x in v:
                g = gcd(g, x)
            assert g == 1


def test_adjugate_inverse():
    rng = random.Random(109)
    done = 0
    while done < 40:
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        if det_exact(m) == 0:
            continue
        adj, d = adjugate_inverse(m)
        prod = mat_mul(m, adj)
        assert prod == [[d if i == j else 0 for j in range(n)] for i in range(n)]
        done += 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_poly_divmod_roundtrip(p, q):
    q = q + [1]  # monic divisor
    quo, rem = poly_divmod_exact(p, q)
    rebuilt = poly_mul(quo, q)
    n = max(len(p), len(rebuilt), len(rem))
    total = [(rebuilt[i] if i < len(rebuilt) else 0)
             + (rem[i] if i < len(rem) else 0) for i in range(n)]
    trimmed = p[:]
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    while total and total[-1] == 0:
        total.pop()
    assert total == trimmed
    assert len(rem) < len(q)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=5),
       st.integers(-4, 4))
def test_poly_eval_mul_compatible(p, x):
    q = [1, 2, 1]
    assert poly_eval(poly_mul(p, q), x) == poly_eval(p, x) * poly_eval(q, x)
