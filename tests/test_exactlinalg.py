"""Property suite for the exact linear algebra kernels.

Randomized trials use a fixed seed; oracles are independent
implementations (cofactor expansion, direct reconstruction) rather than
the functions under test.
"""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3cert.exactlinalg import (
    NonSquareError,
    NonSymmetricError,
    char_poly,
    det_exact,
    elementary_divisors,
    identity,
    inertia,
    kernel_basis,
    mat_mul,
    poly_mul,
    poly_pseudo_divmod,
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


def _sympy_invariant_factors(m):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors
    return [abs(int(x)) for x in invariant_factors(Matrix(m), domain=ZZ)]


def test_snf_beyond_six_by_six_matches_sympy():
    from k3cert.lattices import gram_of
    rng = random.Random(110)

    def rand(r, c):
        return [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]

    cases = [rand(n, n) for n in range(7, 13)]
    cases += [rand(r, c) for r, c in [(7, 12), (12, 8), (9, 11), (11, 10)]]
    # rank-deficient: a product through k < min(r, c) dimensions
    cases += [mat_mul(rand(r, k), rand(k, c)) for r, c, k in [(12, 12, 7), (10, 12, 5), (12, 9, 3)]]
    # zero first row and column around a nonzero interior
    inner = rand(8, 8)
    cases.append([[0] * 9] + [[0] + row for row in inner])
    cases += [[[0] * 5 for _ in range(4)], rand(1, 12), rand(12, 1)]
    # a dense rank-16 Gram in a random basis of 64 elementary steps
    g = gram_of("U+E8+A1^6").gram_rows()
    s = identity(16)
    for _ in range(64):
        i, j = rng.sample(range(16), 2)
        s[i] = [x + rng.choice((1, -1)) * y for x, y in zip(s[i], s[j])]
    cases.append(mat_mul(s, mat_mul(g, transpose(s))))
    for m in cases:
        d, u, v = smith_normal_form(m)
        assert mat_mul(u, mat_mul(m, v)) == d
        assert abs(det_exact(u)) == 1 and abs(det_exact(v)) == 1
        k = min(len(m), len(m[0]))
        assert all(d[i][j] == 0 for i in range(len(m)) for j in range(len(m[0])) if i != j)
        inv = _sympy_invariant_factors(m)
        assert [d[i][i] for i in range(k)] == inv + [0] * (k - len(inv))


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


# the multimodular characteristic polynomial: primes just below 2**62

def _first_prime():
    import sympy
    return sympy.prevprime(2**62)


def _col_bound(m):
    """The Hadamard bound char_poly uses: prod_j (isqrt(|col_j|^2) + 2)."""
    out = 1
    for j in range(len(m)):
        out *= isqrt(sum(row[j] ** 2 for row in m)) + 2
    return out


def test_char_poly_large_entries_need_several_primes():
    import sympy
    rng = random.Random(110)
    m = [[rng.randint(-10**6, 10**6) for _ in range(10)] for _ in range(10)]
    p0 = _first_prime()
    p1 = sympy.prevprime(p0)
    # the CRT cannot stop before a third prime
    assert 2 * _col_bound(m) >= p0 * p1
    assert char_poly(m) == _sympy_char_poly(m)


def _permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[int(perm[i] == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("seed", range(6))
def test_char_poly_pivot_swaps_and_skipped_columns(seed):
    rng = random.Random(120 + seed)
    n = rng.randint(3, 8)
    k = rng.randint(1, n - 1)
    # a permutation puts zeros on the subdiagonal (a swap or a skip)
    perm = _permutation(rng, n)
    # block triangular: the lower-left block is zero, so whole columns
    # below the subdiagonal are zero
    block = [[0 if i >= k and j < k else rng.randint(-4, 4) for j in range(n)]
             for i in range(n)]
    # strictly upper triangular, and the same nilpotent map in another basis
    nil = [[rng.randint(-4, 4) if j > i else 0 for j in range(n)] for i in range(n)]
    nil_conj = mat_mul(perm, mat_mul(nil, transpose(perm)))
    # a sparse matrix whose first subdiagonal entry is zero
    sparse = [[rng.choice([0, 0, 0, rng.randint(-3, 3)]) for _ in range(n)] for _ in range(n)]
    sparse[1][0] = 0
    for m in (perm, block, nil, nil_conj, sparse):
        assert char_poly(m) == _sympy_char_poly(m)
    assert char_poly(nil) == [0] * n + [1]


def test_char_poly_entries_divisible_by_the_first_prime():
    p0 = _first_prime()
    rng = random.Random(111)
    for n in (1, 3, 5):
        m = [[p0 * rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        # plus the identity: modulo p0 the matrix is I, every residue 0 or +-1
        shifted = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
        assert char_poly(m) == _sympy_char_poly(m)
        assert char_poly(shifted) == _sympy_char_poly(shifted)


def test_char_poly_coefficients_near_half_the_modulus():
    import sympy
    p0 = _first_prime()
    p1 = sympy.prevprime(p0)
    # one prime: 2 * bound = 2a + 4 = p0 - 1, and -a lifts from p0 - a > p0 / 2
    a = (p0 - 5) // 2
    assert char_poly([[a]]) == [-a, 1]
    assert char_poly([[-a]]) == [a, 1]
    # 2 * bound = p0 + 1: a second prime is needed
    a = (p0 - 3) // 2
    assert char_poly([[a]]) == [-a, 1]
    # two primes, M = p0 p1 > 2 (a + 2)^2, constant term +-a^2 near +-M / 2
    a = isqrt(p0 * p1 // 2) - 2
    assert 2 * (a + 2) ** 2 < p0 * p1 < 2 * (a + 3) ** 2
    assert char_poly([[a, 0], [0, a]]) == [a * a, -2 * a, 1]
    assert char_poly([[a, 0], [0, -a]]) == [-a * a, 0, 1]


def test_cached_primes_are_prime():
    import sympy
    from k3cert import exactlinalg
    char_poly([[10**40]])    # needs three primes
    primes = exactlinalg._PRIMES
    assert len(primes) >= 3
    assert all(sympy.isprime(q) for q in primes)
    # the largest primes below 2**62, in order, none skipped
    assert primes[0] == _first_prime()
    assert all(q == sympy.prevprime(r) for r, q in zip(primes, primes[1:]))


def test_import_does_no_prime_search():
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, k3cert.cli, k3cert.exactlinalg as x; "
            "print(len(x._PRIMES), 'k3cert.cases' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    # no primes are searched, and the case records are not loaded
    assert out.stdout == "0 False\n"


def test_char_poly_constant_term_is_det():
    rng = random.Random(107)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        p = char_poly(m)
        assert p[0] == (-1) ** n * det_exact(m)


# ---------------------------------------------------------------------------
# kernel and polynomial helpers

def test_kernel_basis_annihilates():
    rng = random.Random(108)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = random_matrix(rng, r, c)
        for v in kernel_basis(m):
            assert mat_mul(m, [[x] for x in v]) == [[0]] * r
            from math import gcd, isqrt
            g = 0
            for x in v:
                g = gcd(g, x)
            assert g == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_poly_divmod_roundtrip(p, q):
    q = q + [1]  # monic divisor
    quo, rem = poly_pseudo_divmod(p, q)
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


def test_poly_pseudo_divmod_by_a_primitive_divisor():
    # (2x + 3)(3x^2 - x + 1) divided by the non-monic 2x + 3
    assert poly_pseudo_divmod(poly_mul([3, 2], [1, -1, 3]), [3, 2]) == ([1, -1, 3], [])
    assert poly_pseudo_divmod(poly_mul([3, 2], [1, -1, 3]), [-3, -2]) == ([-1, 1, -3], [])
    # inexact: 4(x^2 + 1) = (2x - 3)(2x + 3) + 13
    assert poly_pseudo_divmod([1, 0, 1], [3, 2]) == ([-3, 2], [13])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=7),
       st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(lambda q: q[-1] != 0))
def test_poly_pseudo_divmod_is_a_positive_multiple_of_the_division(p, q):
    import sympy
    x = sympy.Symbol("x")
    quo, r = poly_pseudo_divmod(p, q)
    want_q, want_r = sympy.div(sympy.Poly(p[::-1], x), sympy.Poly(q[::-1], x), domain="QQ")
    got_q = sympy.Poly(quo[::-1], x, domain="QQ")
    got_r = sympy.Poly(r[::-1], x, domain="QQ")
    assert len(r) < len(q) and all(isinstance(c, int) for c in quo + r)
    if want_q.is_zero:
        assert quo == [] and got_r == want_r
        return
    ratio = got_q.LC() / want_q.LC()
    assert ratio > 0 and got_q == want_q * ratio and got_r == want_r * ratio


def test_tuple_of_tuples_matrices():
    g = ((2, 1, 0), (1, 2, 1), (0, 1, 2))
    rows = [list(r) for r in g]
    assert det_exact(g) == det_exact(rows) == 4
    assert inertia(g) == inertia(rows) == (3, 0, 0)
    assert elementary_divisors(g) == elementary_divisors(rows) == [1, 1, 4]
    singular = ((1, 2, 3), (2, 4, 6))
    assert kernel_basis(singular) == kernel_basis([list(r) for r in singular])
    assert g == ((2, 1, 0), (1, 2, 1), (0, 1, 2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=5),
       st.integers(-4, 4))
def test_poly_eval_mul_compatible(p, x):
    def horner(c, x):
        acc = 0
        for a in reversed(c):
            acc = acc * x + a
        return acc
    q = [1, 2, 1]
    assert horner(poly_mul(p, q), x) == horner(p, x) * horner(q, x)


# ---------------------------------------------------------------------------
# fraction-free inertia and kernel against a Fraction reference

def _frac_inertia(m):
    """Reference: rational symmetric elimination with the same pivoting."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    plus = minus = 0
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None)
            if off is None:
                return plus, minus, n - k
            i, j = off
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            piv = i
        a[k], a[piv] = a[piv], a[k]
        for row in a:
            row[k], row[piv] = row[piv], row[k]
        d = a[k][k]
        if d > 0:
            plus += 1
        else:
            minus += 1
        for i in range(k + 1, n):
            f = a[i][k] / d
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        for i in range(k + 1, n):
            a[k][i] = Fraction(0)
    return plus, minus, 0


def _frac_kernel_basis(m):
    """Reference: reduced row echelon form over Q; one vector per free
    column, cleared of denominators and made primitive and positive there."""
    a = [[Fraction(x) for x in row] for row in m]
    r, c = len(a), len(a[0])
    pivots = []
    for col in range(c):
        row = len(pivots)
        sel = next((i for i in range(row, r) if a[i][col]), None)
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        a[row] = [x / a[row][col] for x in a[row]]
        for i in range(r):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        pivots.append(col)
    basis = []
    for fj in (j for j in range(c) if j not in pivots):
        vec = [Fraction(0)] * c
        vec[fj] = Fraction(1)
        for i, pj in enumerate(pivots):
            vec[pj] = -a[i][fj]
        den = 1
        for x in vec:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in vec]
        g = 0
        for x in ints:
            g = gcd(g, x)
        basis.append([x // g for x in ints])
    return basis


def _oracle_matrices(rng):
    """Random symmetric matrices, rank-deficient A^T D A, and zero-diagonal
    matrices built from hyperbolic blocks, n <= 8."""
    for _ in range(60):
        n = rng.randint(1, 8)
        yield random_symmetric(rng, n)
    for _ in range(60):
        n = rng.randint(2, 8)
        k = rng.randint(1, n - 1)
        a = random_matrix(rng, k, n)
        d = [rng.choice((-3, -1, 1, 2)) for _ in range(k)]
        yield [[sum(a[t][i] * d[t] * a[t][j] for t in range(k)) for j in range(n)]
               for i in range(n)]
    for _ in range(60):
        n = rng.randint(2, 8)
        m = [[0] * n for _ in range(n)]
        for i in range(0, n - 1, 2):
            m[i][i + 1] = m[i + 1][i] = rng.choice((-2, -1, 1, 3))
        s = random_unimodular(rng, n)
        yield rng.choice((m, mat_mul(transpose(s), mat_mul(m, s))))


def test_inertia_and_kernel_match_fraction_reference():
    rng = random.Random(110)
    for m in _oracle_matrices(rng):
        assert inertia(m) == _frac_inertia(m), m
        assert kernel_basis(m) == _frac_kernel_basis(m), m


def test_kernel_matches_fraction_reference_on_rectangular_matrices():
    rng = random.Random(111)
    for _ in range(100):
        r, c = rng.randint(1, 6), rng.randint(1, 8)
        m = random_matrix(rng, r, c)
        if r > 2:
            m[-1] = [x - y for x, y in zip(m[0], m[1])]
        assert kernel_basis(m) == _frac_kernel_basis(m), m


def _congruent(rng, m):
    s = random_unimodular(rng, len(m))
    return mat_mul(transpose(s), mat_mul(m, s))


def test_inertia_by_descartes_matches_fraction_reference_on_hard_grams():
    from k3cert.lattices import gram_of
    rng = random.Random(113)
    # zero-diagonal hyperbolic blocks, and repeated eigenvalues
    grams = [gram_of(e).gram_rows() for e in
             ("U", "U^2", "U^3", "U^4", "U(2)+U", "U(3)+U(2)+U",
              "A1^3+U", "A1^6+U", "A1(-1)^4+U^2", "E8+E8+U")]
    grams += [_congruent(rng, g) for g in grams]
    # rank-deficient: the Gram of n + k vectors spanning a rank-n lattice
    for expr in ("A2+U", "D4", "U(2)+A1^2", "E6"):
        g = gram_of(expr).gram_rows()
        n = len(g)
        s = [[rng.randint(-2, 2) for _ in range(n + 2)] for _ in range(n)]
        grams.append(mat_mul(transpose(s), mat_mul(g, s)))
    for m in grams:
        assert inertia(m) == _frac_inertia(m), m
    assert inertia([]) == _frac_inertia([]) == (0, 0, 0)


def test_inertia_with_entries_past_two_to_the_31():
    from k3cert.lattices import gram_of
    rng = random.Random(114)
    big = 2**31 + 11
    for expr in ("U", "U(2)+A1^2", "A2+U(3)", "D4+U"):
        g = gram_of(expr).gram_rows()
        for m in ([[big * x for x in row] for row in g],
                  _congruent(rng, [[big * x + (i == j) for j, x in enumerate(row)]
                                   for i, row in enumerate(g)])):
            # the Hadamard bound needs at least two primes
            assert 2 * _col_bound(m) >= _first_prime()
            assert max(abs(x) for row in m for x in row) >= 2**31
            assert inertia(m) == _frac_inertia(m), m


def test_det_rescale_only_rows_match_cofactor_oracle():
    # after the pivot 2 and then the pivot 3 (a 2-minor), the last row has
    # a zero in each pivot column, so it is only rescaled: by 2/1, then 3/2
    m = [[2, 1, 0], [1, 2, 0], [0, 0, 3]]
    assert det_exact(m) == cofactor_det(m) == 9
    assert det_exact([[3, 0, 0, 1], [0, 5, 0, 0], [0, 0, 7, 0], [1, 0, 0, 2]]) == 175
    rng = random.Random(115)
    for _ in range(TRIALS):
        n = rng.randint(2, 6)
        m = [[rng.choice((0, 0, 0, rng.randint(-6, 6))) for _ in range(n)] for _ in range(n)]
        assert det_exact(m) == cofactor_det(m), m
        assert kernel_basis(m) == _frac_kernel_basis(m), m


def test_fiber_matrices_of_verify_all_match_fraction_reference(monkeypatch):
    # the submatrix of every support verify_all() classifies, whether it is
    # accepted from stated multiplicities or by its kernel
    from k3cert import cases, curves
    seen = set()
    real = curves.classify_fiber

    def record(cfg, support, *rest):
        idx = [cfg.index(c) for c in support]
        seen.add(tuple(tuple(cfg.inter[i][j] for j in idx) for i in idx))
        return real(cfg, support, *rest)
    monkeypatch.setattr(curves, "classify_fiber", record)
    monkeypatch.setattr(cases, "classify_fiber", record)
    cases.verify_all()
    assert len(seen) > 20
    for key in seen:
        m = [list(row) for row in key]
        assert inertia(m) == _frac_inertia(m)
        assert kernel_basis(m) == _frac_kernel_basis(m)


# affine diagrams with r <= 7: I_2 (double bond), I_3..I_7, D~4, D~5, D~6, E~6
_AFFINE = ([(2, [(0, 1, 2)])]
           + [(r, [(i, (i + 1) % r, 1) for i in range(r)]) for r in range(3, 8)]
           + [(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)]),
              (6, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 4, 1), (1, 5, 1)]),
              (7, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (0, 4, 1), (2, 5, 1), (2, 6, 1)]),
              (7, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 4, 1), (0, 5, 1), (5, 6, 1)])])


@st.composite
def _connected_curve_matrices(draw):
    """Symmetric, diagonal -2, off-diagonal entries in 0..4, connected.
    Half are random (every node after the first meets an earlier one);
    half are an affine diagram, relabelled, with one pair possibly
    re-weighted to 1..4, so fibers and near-fibers both occur."""
    if draw(st.booleans()):
        r = draw(st.integers(1, 7))
        weight = st.sampled_from((0, 0, 0, 1, 1, 2, 3, 4))
        m = [[-2 if i == j else 0 for j in range(r)] for i in range(r)]
        for j in range(1, r):
            parent = draw(st.integers(0, j - 1))
            for i in range(j):
                m[i][j] = m[j][i] = draw(st.integers(1, 4) if i == parent else weight)
        return m
    r, edges = draw(st.sampled_from(_AFFINE))
    perm = draw(st.permutations(range(r)))
    m = [[-2 if i == j else 0 for j in range(r)] for i in range(r)]
    for i, j, k in edges:
        m[perm[i]][perm[j]] = m[perm[j]][perm[i]] = k
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True))
        m[i][j] = m[j][i] = draw(st.integers(1, 4))
    return m


def _curve_config(m):
    from k3cert.curves import make_config
    r = len(m)
    names = [f"c{i}" for i in range(r)]
    return make_config(names, [(names[i], names[j], m[i][j]) for i in range(r)
                               for j in range(i + 1, r) if m[i][j]]), names


@settings(max_examples=200, deadline=None)
@given(_connected_curve_matrices())
# two double bonds, or two triangles, joined through one curve: the
# kernel is one line, but its vector (the difference of the two fibers'
# null vectors) has mixed signs
@example([[-2, 1, 0, 1, 0], [1, -2, 2, 0, 0], [0, 2, -2, 0, 0],
          [1, 0, 0, -2, 2], [0, 0, 0, 2, -2]])
@example([[-2, 0, 0, 0, 1, 1, 1], [0, -2, 1, 1, 1, 0, 0], [0, 1, -2, 1, 0, 0, 0],
          [0, 1, 1, -2, 0, 0, 0], [1, 1, 0, 0, -2, 0, 0], [1, 0, 0, 0, 0, -2, 1],
          [1, 0, 0, 0, 0, 1, -2]])
def test_classify_fiber_accepts_exactly_the_fiber_signature(m):
    from k3cert.curves import FiberError, classify_fiber
    r = len(m)
    cfg, names = _curve_config(m)
    signature = _frac_inertia(m)
    try:
        fiber = classify_fiber(cfg, names)
    except FiberError as exc:
        # every refusal of a connected support is the signature refusal
        assert signature != (0, r - 1, 1), m
        assert str(exc) == (f"intersection matrix has inertia {signature}, "
                            f"not the fiber signature (0, {r - 1}, 1)")
    else:
        assert signature == (0, r - 1, 1), m
        mult = [fiber.multiplicities[c] for c in names]
        assert all(x > 0 for x in mult)
        assert all(sum(a * x for a, x in zip(row, mult)) == 0 for row in m)


@settings(max_examples=100, deadline=None)
@given(_connected_curve_matrices(), st.data())
def test_stated_multiplicities_agree_with_the_kernel_path(m, data):
    # m is a multiple of the kernel vector, when there is one, or any small
    # vector; either way the verdict is the one the kernel path gives
    from k3cert.curves import FiberError, classify_fiber
    cfg, names = _curve_config(m)
    r = len(m)
    stated = st.lists(st.integers(-1, 4), min_size=r, max_size=r)
    kern = kernel_basis(m)
    if len(kern) == 1:
        stated = st.one_of(stated, st.sampled_from((1, 2, 3, -1)).map(
            lambda k: [k * x for x in kern[0]]))
    stated = data.draw(stated)

    def verdict(*args):
        try:
            fiber = classify_fiber(cfg, names, *args)
        except FiberError as exc:
            return str(exc)
        return fiber.kind, fiber.multiplicities
    assert verdict(stated) == verdict()


# ---------------------------------------------------------------------------
# Smith invariants modulo the determinant

def _sympy_invariants(m):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors
    return [abs(int(d)) for d in invariant_factors(Matrix(m), domain=ZZ)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_elementary_divisors_match_sympy(m):
    if det_exact(m) == 0:
        with pytest.raises(ValueError):
            elementary_divisors(m)
        return
    assert elementary_divisors(m) == _sympy_invariants(m)


def test_elementary_divisors_of_a_dense_rank16_basis():
    # a rank-16 Gram in a basis of 64 elementary steps: the entries grow
    # large, the invariants are those of the block-diagonal Gram
    from k3cert.lattices import gram_of
    rng = random.Random(112)
    for expr in ("U+D4+A1^2+E8", "U(2)+D6+A1^8", "U+A2+D5+A1^7"):
        g = gram_of(expr).gram_rows()
        s = identity(16)
        for _ in range(64):
            i, j = rng.sample(range(16), 2)
            c = rng.choice((1, -1))
            for row in s:
                row[j] += c * row[i]
        dense = mat_mul(transpose(s), mat_mul(g, s))
        assert max(abs(x) for row in dense for x in row) > 100
        assert elementary_divisors(dense) == _sympy_invariants(g)
