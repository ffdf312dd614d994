"""Entropy and dynamical classification of lattice isometries.

Everything that decides between entropy 0 and entropy > 0 is an exact
sign computation on integer polynomials; the spectral radius is refined
by exact bisection, and floats appear only in the reported radius and
entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import K3CertError
from .exactlinalg import (
    char_poly,
    dims,
    identity,
    mat_mul,
    poly_divmod_exact,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_primitive,
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
            q, rem = poly_divmod_exact(p, cyclotomic(d))
            assert rem == []
            p = q
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

    orders lists n once per removed copy of the n-th cyclotomic.
    """
    orders = []
    candidates = _cyclotomic_orders(len(p) - 1)
    changed = True
    while changed and len(p) > 1:
        changed = False
        for n in candidates:
            phi = cyclotomic(n)
            if len(phi) > len(p):
                continue
            q, rem = poly_divmod_exact(p, list(phi))
            if rem == []:
                p = q
                orders.append(n)
                changed = True
    return p, orders


# ---------------------------------------------------------------------------
# Sturm sequences (rational arithmetic, exact signs)

def _to_frac_poly(p):
    return [Fraction(c) for c in p]


def _frac_poly_divmod(a, b):
    a = list(a)
    out = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        k = len(a) - len(b)
        f = a[-1] / b[-1]
        out[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return out, a


def sturm_sequence(p):
    p0 = _to_frac_poly(p)
    p1 = _to_frac_poly(poly_derivative(p))
    seq = [p0, p1]
    while len(seq[-1]) > 1:
        _, rem = _frac_poly_divmod(seq[-2], seq[-1])
        if not rem:
            break
        seq.append([-c for c in rem])
    return seq


def _sign_changes(seq, x):
    signs = []
    for p in seq:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p, a, b):
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    seq = sturm_sequence(squarefree_part(p))
    return _sign_changes(seq, Fraction(a)) - _sign_changes(seq, Fraction(b))


def root_bound(p):
    """Cauchy bound on absolute values of roots, as a Fraction."""
    p = poly_trim(list(p))
    lead = abs(p[-1])
    return 1 + max(Fraction(abs(c), lead) for c in p[:-1]) if len(p) > 1 else Fraction(1)


def largest_real_root(p, tol=Fraction(1, 10**12)):
    """Isolate and refine the largest real root of p; exact bisection.

    Returns (lo, hi) with lo < root <= hi, hi - lo <= tol and, unless the
    root lies within tol / 2**64 of a midpoint between two doubles,
    float(lo) == float(hi), so float(hi) is the correctly rounded root.
    """
    s = squarefree_part(p)
    seq = sturm_sequence(s)
    hi = root_bound(s)
    lo = -hi
    v_lo, v_hi = _sign_changes(seq, lo), _sign_changes(seq, hi)
    if v_lo == v_hi:
        raise ValueError("polynomial has no real root")
    # push lo up until only the largest root remains in (lo, hi]
    while v_lo - v_hi > 1:
        mid = (lo + hi) / 2
        v_mid = _sign_changes(seq, mid)
        if v_mid - v_hi >= 1:
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    # the root is simple and s has a positive leading coefficient, so s is
    # negative on (lo, root) and positive above it: one evaluation a step
    floor = tol / 2**64
    while hi - lo > tol or (float(lo) != float(hi) and hi - lo > floor):
        mid = (lo + hi) / 2
        if poly_eval(s, mid) >= 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _reflect(p):
    """p(-x)."""
    return [-c if k % 2 else c for k, c in enumerate(p)]


def has_root_above_one(p):
    """Exact: does p have a real root in (1, bound]?"""
    s = squarefree_part(p)
    seq = sturm_sequence(s)
    return _sign_changes(seq, Fraction(1)) - _sign_changes(seq, root_bound(s)) > 0


# ---------------------------------------------------------------------------
# Squarefree parts and the Salem certificate

def squarefree_part(p):
    """Primitive squarefree part of an integer polynomial, with a positive
    leading coefficient."""
    d = poly_derivative(p)
    g = _int_poly_gcd(p, d)
    if len(g) <= 1:
        q = poly_primitive(list(p))
    else:
        q, rem = poly_divmod_monicized(p, g)
        assert rem == []
        q = poly_primitive(q)
    return [-c for c in q] if q and q[-1] < 0 else q


def _int_poly_gcd(a, b):
    fa, fb = _to_frac_poly(a), _to_frac_poly(b)
    while fb and any(fb):
        _, rem = _frac_poly_divmod(fa, fb)
        fa, fb = fb, rem
    # clear denominators, make primitive
    den = 1
    for c in fa:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in fa]
    return poly_primitive(ints) if ints else []


def poly_divmod_monicized(p, q):
    """Exact division of integer polynomials with arbitrary leading
    coefficients, via rationals; result must be integral."""
    fq, rem = _frac_poly_divmod(_to_frac_poly(p), _to_frac_poly(q))
    out = []
    for c in fq:
        if c.denominator != 1:
            raise ValueError("inexact division")
        out.append(int(c))
    remi = []
    for c in rem:
        if c.denominator != 1:
            raise ValueError("inexact remainder")
        remi.append(int(c))
    return poly_trim(out), poly_trim(remi)


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


def salem_factor(s):
    """s itself when it is certified as the minimal polynomial of a Salem
    number, else None.

    s must be free of cyclotomic factors (the `rest` of
    strip_cyclotomic_factors).  The certificate: s is monic and
    palindromic of degree 2d, and its trace polynomial Q has one root in
    (2, bound] and d - 1 roots in (-2, 2), counted exactly by Sturm.  Then
    s has one root lambda > 1, its inverse, and 2d - 2 roots on the unit
    circle.  By Kronecker's theorem a factor with only unit-circle roots
    would be cyclotomic, and one holding 1/lambda without lambda would
    have constant term of absolute value 1/lambda < 1, so s is
    irreducible (Smyth, Seventy years of Salem numbers).  For the
    squarefree non-cyclotomic part of an isometry's characteristic
    polynomial with a root above 1, the certificate fails exactly when two
    or more pairs of eigenvalues lie off the unit circle.
    """
    s = poly_trim(list(s))
    if len(s) % 2 == 0 or s[-1] != 1 or s != s[::-1]:
        return None
    q = trace_polynomial(s)
    d = len(q) - 1
    if count_real_roots(q, 2, root_bound(q)) == 1 and count_real_roots(q, -2, 2) == d - 1:
        return s
    return None


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
    as Salem, which happens exactly when two or more pairs of eigenvalues
    lie off the unit circle or when the one pair off it is negative; the
    radius, the largest |eigenvalue|, is still certified then.
    """
    spectral_radius: float       # float(lo) == float(hi), the rounded root
    radius_interval: tuple       # (Fraction lo, Fraction hi), certified
    entropy: float
    dynamical_class: str         # elliptic | parabolic | hyperbolic
    salem_factor: list | None
    order: int | None            # finite order for elliptic maps


def entropy(m, g, tol=Fraction(1, 10**10)):
    """Classify an isometry and compute its entropy log(spectral radius).

    Hyperbolic vs radius-1 is decided by exact Sturm counts of the real
    eigenvalues above 1 and below -1;
    elliptic vs parabolic by exact matrix powering up to the lcm of the
    cyclotomic orders in the characteristic polynomial.
    """
    if not is_isometry(m, g):
        raise NotIsometryError("matrix does not preserve the form")
    n = len(m)
    p = char_poly(m)
    rest, orders = strip_cyclotomic_factors(list(p))
    if len(rest) > 1:
        # the radius is the largest |eigenvalue|.  A certified Salem factor
        # holds it at a positive eigenvalue; otherwise it may sit at a
        # negative one, and the largest root of s(x) s(-x) is max |root|.
        positive = has_root_above_one(rest)
        s = squarefree_part(rest)
        factor = salem_factor(s) if positive else None
        radius_poly = s
        if factor is None:
            reflected = _reflect(s)
            if has_root_above_one(reflected):
                radius_poly = poly_mul(s, reflected)
            elif not positive:
                # Kronecker: a monic integer polynomial with all roots in
                # the closed unit disk is a product of cyclotomics and a
                # power of x, which an isometry excludes
                raise NotIsometryError("spectrum on the unit circle but not cyclotomic")
        lo, hi = largest_real_root(radius_poly, tol)
        radius = float(hi)
        return EntropyReport(
            spectral_radius=radius,
            radius_interval=(lo, hi),
            entropy=math.log(radius),
            dynamical_class="hyperbolic",
            salem_factor=factor,
            order=None)
    order = 1
    for k in orders:
        order = order * k // math.gcd(order, k)
    if _mat_pow(m, order) == identity(n):
        true_order = _exact_order(m, order)
        return EntropyReport(1.0, (Fraction(1), Fraction(1)), 0.0, "elliptic", None, true_order)
    return EntropyReport(1.0, (Fraction(1), Fraction(1)), 0.0, "parabolic", None, None)


def _mat_pow(m, k):
    n = len(m)
    out = identity(n)
    base = [row[:] for row in m]
    while k:
        if k & 1:
            out = mat_mul(out, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return out


def _exact_order(m, bound):
    """Order of m, given that m^bound = I: divide each prime out of bound
    while the power stays the identity."""
    ident = identity(len(m))
    order = bound
    for p in _prime_factors(bound):
        while order % p == 0 and _mat_pow(m, order // p) == ident:
            order //= p
    return order
