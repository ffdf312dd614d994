"""Entropy and dynamical classification of lattice isometries.

Everything that decides between entropy 0 and entropy > 0 is an exact
sign computation on integer polynomials: Sturm chains and gcds are
primitive pseudo-remainder sequences over Z, and signs at a rational
point come from integer Horner.  The spectral radius is refined by
integer bisection, and floats appear only in the reported radius and
entropy.  Between elliptic and parabolic, finite order is decided by
whether the product of the distinct cyclotomic factors of the
characteristic polynomial kills the map, on exact Krylov vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import K3CertError
from .exactlinalg import (
    char_poly,
    dims,
    mat_mul,
    poly_derivative,
    poly_mul,
    poly_primitive,
    poly_pseudo_divmod,
    poly_trim,
    transpose,
)


class NotIsometryError(K3CertError):
    pass


def is_isometry(m, g):
    """Exact test M^T G M = G."""
    rm, cm = dims(m)
    rg, cg = dims(g)
    if rm != cm or rg != cg or rm != rg:
        raise ValueError("dimension mismatch")
    return mat_mul(transpose(m), mat_mul(g, m)) == g


@lru_cache(maxsize=None)
def cyclotomic(n):
    """Coefficients of the n-th cyclotomic polynomial, ascending."""
    # x^n - 1 divided by all proper cyclotomic divisors
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p, _ = poly_pseudo_divmod(p, cyclotomic(d))
    return tuple(p)


def euler_phi(n):
    out = n
    for p in _prime_factors(n):
        out -= out // p
    return out


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _cyclotomic_orders(deg):
    """Every n whose cyclotomic polynomial has degree phi(n) <= deg; the
    bound phi(n) >= sqrt(n/2) limits the search to n <= 2 deg^2."""
    return tuple(n for n in range(1, 2 * deg * deg + 1) if euler_phi(n) <= deg)


def strip_cyclotomic_factors(p):
    """Divide out every cyclotomic factor; returns (rest, orders).

    orders lists n once per removed copy of the n-th cyclotomic.  One pass
    over the candidates: each is divided out for as long as it divides,
    and a quotient never gains a factor, so no candidate needs a retry.
    """
    orders = []
    for n in _cyclotomic_orders(len(p) - 1):
        phi = cyclotomic(n)
        while len(phi) <= len(p):
            q, rem = poly_pseudo_divmod(p, phi)
            if rem:
                break
            p = q
            orders.append(n)
    return p, orders


# ---------------------------------------------------------------------------
# Sturm sequences over the integers (exact signs, no Fraction arithmetic)
#
# A rational point a/b, b > 0, travels as the two integers a and b, and a
# polynomial p of degree k is signed there by b^k p(a/b), which is an
# integer with the same sign (homogeneous Horner).

def sturm_sequence(p):
    """Sturm chain of p as a primitive pseudo-remainder sequence.

    Each term is a positive multiple of the classical one (p, p', then
    minus the remainder of the two before), so every sign and every count
    of sign changes is the same (Cohen, GTM 138, section 3.3).
    """
    seq = [list(p), poly_primitive(poly_derivative(p))]
    while len(seq[-1]) > 1:
        _, rem = poly_pseudo_divmod(seq[-2], seq[-1])
        if not rem:
            break
        seq.append([-c for c in poly_primitive(rem)])
    return seq


def _value(p, a, b):
    """b^deg(p) * p(a / b): the sign of p at a/b for b > 0."""
    if not p:
        return 0
    acc, bk = p[-1], 1
    for c in p[-2::-1]:
        bk *= b
        acc = acc * a + c * bk
    return acc


def _sign_changes(seq, a, b=1):
    """Sign changes of the chain at a/b, b > 0, zeros skipped."""
    changes = last = 0
    for p in seq:
        v = _value(p, a, b)
        if v:
            if last and (v < 0) != (last < 0):
                changes += 1
            last = v
    return changes


def _changes_at(seq, x):
    x = Fraction(x)
    return _sign_changes(seq, x.numerator, x.denominator)


def count_real_roots(p, a, b):
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    seq = sturm_sequence(squarefree_part(p))
    return _changes_at(seq, a) - _changes_at(seq, b)


def root_bound(p):
    """Cauchy bound on absolute values of roots, as a Fraction."""
    p = poly_trim(list(p))
    if len(p) <= 1:
        return Fraction(1)
    lead = abs(p[-1])
    return Fraction(lead + max(abs(c) for c in p[:-1]), lead)


def largest_real_root(p, tol=Fraction(1, 10**12), squarefree=False):
    """Isolate and refine the largest real root of p; exact bisection.

    Returns (lo, hi) with lo < root <= hi, hi - lo <= tol and, unless the
    root lies within tol / 2**12 of 0 or within tol / 2**64 of a midpoint
    between two doubles, float(lo) == float(hi), so float(hi) is the
    correctly rounded root.  squarefree=True says that p is already
    squarefree with a positive leading coefficient, as squarefree_part
    returns it, and skips that step.

    The ends are integers over one denominator that doubles each step, so
    the midpoints are exactly those of a bisection of (-bound, bound].
    """
    if not squarefree:
        p = squarefree_part(p)
    chain = sturm_sequence(p)
    bound = root_bound(p)
    den = bound.denominator
    lo, hi = -bound.numerator, bound.numerator
    v_lo, v_hi = _sign_changes(chain, lo, den), _sign_changes(chain, hi, den)
    if v_lo == v_hi:
        raise ValueError("polynomial has no real root")
    # push lo up until only the largest root remains in (lo, hi]
    while v_lo - v_hi > 1:
        mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
        v_mid = _sign_changes(chain, mid, den)
        if v_mid - v_hi >= 1:
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    # the root is simple and p has a positive leading coefficient, so p is
    # negative on (lo, root) and positive above it: one evaluation a step.
    # hi - lo > tol is (hi - lo) * tol_den > tol_num * den, and the floor
    # is tol / 2**64; int / int is correctly rounded, as float(Fraction) is.
    tol_num, tol_den = tol.numerator, tol.denominator
    while ((hi - lo) * tol_den > tol_num * den
           or (lo / den != hi / den and (hi - lo) * tol_den << 64 > tol_num * den)):
        mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
        if _value(p, mid, den) >= 0:
            hi = mid
        else:
            lo = mid
    return Fraction(lo, den), Fraction(hi, den)


def _reflect(p):
    """p(-x)."""
    return [-c if k % 2 else c for k, c in enumerate(p)]


# ---------------------------------------------------------------------------
# Squarefree parts and the Salem certificate

def squarefree_part(p):
    """Primitive squarefree part of an integer polynomial, with a positive
    leading coefficient."""
    p = poly_trim(list(p))
    g = _int_poly_gcd(p, poly_derivative(p))
    if len(g) <= 1:
        q = poly_primitive(p)
    else:
        q = poly_primitive(poly_pseudo_divmod(p, g)[0])
    return [-c for c in q] if q and q[-1] < 0 else q


def _int_poly_gcd(a, b):
    """Primitive gcd of integer polynomials, up to sign, by the primitive
    pseudo-remainder sequence."""
    a, b = poly_primitive(poly_trim(a)), poly_primitive(poly_trim(b))
    while b:
        a, b = b, poly_primitive(poly_pseudo_divmod(a, b)[1])
    return a


def trace_polynomial(s):
    """Q with s(x) = x^d Q(x + 1/x) for a palindromic s of degree 2d.

    x^-d s(x) = a_d + sum_k a_{d+k} (x^k + x^-k), and x^k + x^-k = T_k(y)
    with T_0 = 2, T_1 = y, T_k = y T_{k-1} - T_{k-2}.
    """
    s = poly_trim(list(s))
    if len(s) % 2 == 0 or s != s[::-1]:
        raise ValueError("trace polynomial needs a palindromic polynomial of even degree")
    d = (len(s) - 1) // 2
    q = [0] * (d + 1)
    q[0] = s[d]
    t_prev, t = [2], [0, 1]
    for k in range(1, d + 1):
        for i, c in enumerate(t):
            q[i] += s[d + k] * c
        nxt = [0] + t
        for i, c in enumerate(t_prev):
            nxt[i] -= c
        t_prev, t = t, nxt
    return q


def _trace_root_counts(s):
    """Distinct roots of the trace polynomial Q of s below -2, in (-2, 2)
    and above 2, from one Sturm chain of Q evaluated at -bound, -2, 2 and
    bound.  s must be palindromic of even degree and free of cyclotomic
    factors, so that Q has no root at -2 or 2.

    A root y of Q is the pair {x, 1/x} of roots of s with x + 1/x = y:
    below -2 a real pair under -1, in (-2, 2) a pair on the unit circle,
    above 2 a real pair over 1, and off the real line a pair of non-real
    roots off the unit circle.
    """
    q = trace_polynomial(s)
    seq = sturm_sequence(q)
    bound = root_bound(q)
    v = [_changes_at(seq, x) for x in (-bound, -2, 2, bound)]
    return v[0] - v[1], v[1] - v[2], v[2] - v[3]


def is_reciprocal(p):
    """x^deg * p(1/x) == +-p(x), exact."""
    p = poly_trim(list(p))
    rev = list(reversed(p))
    return rev == p or rev == [-c for c in p]


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyReport:
    """Dynamical class and entropy of a lattice isometry.

    salem_factor is None for elliptic and parabolic maps, and for a
    hyperbolic map whose squarefree non-cyclotomic part is not certified
    as Salem, which happens exactly when two or more pairs of real
    eigenvalues lie off the unit circle or when the one pair off it is
    negative; the radius, the largest |eigenvalue|, is still certified
    then, and no_salem_reason says which case it is.  Non-real
    eigenvalues off the unit circle raise K3CertError.
    """
    spectral_radius: float       # float(lo) == float(hi), the rounded root
    radius_interval: tuple       # (Fraction lo, Fraction hi), certified
    entropy: float
    dynamical_class: str         # elliptic | parabolic | hyperbolic
    salem_factor: list | None
    order: int | None            # finite order for elliptic maps
    no_salem_reason: str | None = None


def entropy(m, g, tol=Fraction(1, 10**10)):
    """Classify an isometry and compute its entropy log(spectral radius).

    The characteristic polynomial is computed once, modulo primes
    (exactlinalg.char_poly).  Hyperbolic vs radius-1 is decided by whether
    anything is left after the cyclotomic factors are stripped
    (Kronecker).  On a hyperbolic map the squarefree part s of the rest
    and one Sturm chain of its trace polynomial give both the Salem
    certificate and the position of the eigenvalues off the unit circle;
    the radius is the largest real root of s, or of s(x) s(-x) when it
    may be negative, refined by exact bisection.

    The Salem certificate: s is monic and palindromic of degree 2d, and
    its trace polynomial Q has one root in (2, bound] and d - 1 roots in
    (-2, 2), counted exactly by Sturm.  Then s has one root lambda > 1,
    its inverse, and 2d - 2 roots on the unit circle.  By Kronecker's
    theorem a factor with only unit-circle roots would be cyclotomic, and
    one holding 1/lambda without lambda would have constant term of
    absolute value 1/lambda < 1, so s is irreducible (Smyth, Seventy years
    of Salem numbers), and it is the salem_factor of the report.  The
    certificate fails exactly when two or more pairs of eigenvalues lie
    off the unit circle, or when the one pair off it is negative.  Otherwise the
    characteristic polynomial is a product of cyclotomic Phi_n, and the
    map is elliptic, of order exactly the lcm N of those n, when the
    radical f, the product of the distinct Phi_n, kills m, and parabolic
    when not: f is squarefree and divides x^N - 1, so f(m) = 0 exactly
    when m is semisimple, that is of finite order.  f(m) = 0 is decided on
    Krylov vectors by matrix-vector products (_killed_by); no power of m
    is formed.  Raises K3CertError when the form is degenerate (the
    characteristic polynomial is not reciprocal) and when eigenvalues off
    the unit circle are not real, which no isometry of signature (1, n-1)
    has.
    """
    if not is_isometry(m, g):
        raise NotIsometryError("matrix does not preserve the form")
    p = char_poly(m)
    if not is_reciprocal(p):
        # M^T G M = G with G invertible makes M conjugate to its inverse
        # transpose, whose characteristic polynomial is the reciprocal one
        raise K3CertError("characteristic polynomial is not reciprocal: the form is degenerate")
    rest, orders = strip_cyclotomic_factors(list(p))
    if len(rest) > 1:
        # rest is monic, palindromic of even degree and has a root off the
        # unit circle (Kronecker), so s has one too, and s is monic and
        # palindromic: its roots pair off as x, 1/x with none at +-1
        s = squarefree_part(rest)
        below, inside, above = _trace_root_counts(s)
        factor = s if above == 1 and inside == len(s) // 2 - 1 else None
        radius_poly = s
        reason = None
        if factor is None:
            if below + inside + above < len(s) // 2:
                raise K3CertError("eigenvalues off the unit circle are not real: "
                                  "spectral radius not certified")
            # with no eigenvalue above 1, the radius belongs to one below -1
            reason = ("more than one pair of eigenvalues off the unit circle" if above
                      else "the spectral radius is a negative eigenvalue")
            if below:
                # the radius may sit at a negative eigenvalue; the largest
                # root of s(x) s(-x) is the largest |real root| of s
                radius_poly = poly_mul(s, _reflect(s))
        lo, hi = largest_real_root(radius_poly, tol, squarefree=radius_poly is s)
        radius = float(hi)
        return EntropyReport(
            spectral_radius=radius,
            radius_interval=(lo, hi),
            entropy=math.log(radius),
            dynamical_class="hyperbolic",
            salem_factor=factor,
            order=None,
            no_salem_reason=reason)
    order, radical = 1, [1]
    for k in orders:
        order = order * k // math.gcd(order, k)
    for k in set(orders):
        radical = poly_mul(radical, cyclotomic(k))
    if _killed_by(m, radical):
        # each n in orders gives a primitive n-th root of unity as an
        # eigenvalue, so n divides every k with m^k = I: order is exact
        return EntropyReport(1.0, (Fraction(1), Fraction(1)), 0.0, "elliptic", None, order)
    return EntropyReport(1.0, (Fraction(1), Fraction(1)), 0.0, "parabolic", None, None)


# A prime below 2**30, so that a residue is one CPython digit.
_RANK_PRIME = 2**30 - 35


def _killed_by(m, f):
    """Whether f(M) = 0, exactly, for a monic f of degree d >= 1.

    f(M) commutes with M, so it kills the whole Krylov space of every
    vector it kills.  Start vectors v_k = ((i + 1)^k)_i are tried in turn:
    f(M) v_k = sum_j f_j M^j v_k from exact matrix-vector products, and a
    nonzero sum refutes f(M) = 0.  Once the Krylov vectors M^j v_k,
    j < d, of the vectors that passed have rank n modulo one prime p > n,
    they span Q^n (rank mod p <= rank over Q), and f(M) = 0.  The v_k are
    the rows of a Vandermonde matrix whose nodes 1 ... n stay distinct
    mod p, so v_0 ... v_(n-1) span Q^n, and already do mod p: the rank
    reaches n by k = n - 1 at the latest.
    """
    n, p = len(m), _RANK_PRIME
    echelon = {}  # pivot column -> the row mod p from there on, led by 1
    for k in range(n):
        w = [(i + 1) ** k for i in range(n)]
        total = [f[0] * x for x in w]
        krylov = [w]
        for c in f[1:]:
            w = [sum(map(mul, row, w)) for row in m]
            if c:
                total = [t + c * x for t, x in zip(total, w)]
            krylov.append(w)
        if any(total):
            return False
        krylov.pop()  # M^d v_k is a combination of the others now
        for w in krylov:
            _add_to_echelon(echelon, w, p)
            if len(echelon) == n:
                return True
    return True  # not reached: v_0 ... v_(n-1) passed and span Q^n


def _add_to_echelon(echelon, w, p):
    """Reduce w modulo p against the echelon rows and keep what is left."""
    w = [x % p for x in w]
    for col in sorted(echelon):
        c = w[col]
        if c:
            w[col:] = [(x - c * y) % p for x, y in zip(w[col:], echelon[col])]
    col = next((i for i, x in enumerate(w) if x), None)
    if col is not None:
        inv = pow(w[col], -1, p)
        echelon[col] = [x * inv % p for x in w[col:]]
