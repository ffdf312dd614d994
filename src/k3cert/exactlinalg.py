"""Exact integer/rational linear algebra kernels.

All matrices are rectangular lists of lists of Python ints (row-major);
arithmetic is arbitrary precision throughout, no floating point.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import mul

from .errors import K3CertError


class NonSquareError(K3CertError):
    pass


class NonSymmetricError(K3CertError):
    pass


def dims(m):
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for row in m:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    return rows, cols


def is_symmetric(m):
    r, c = dims(m)
    if r != c:
        return False
    return all(m[i][j] == m[j][i] for i in range(r) for j in range(i + 1, r))


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[0] * c for _ in range(r)]

def copy_matrix(m):
    return [list(row) for row in m]


def mat_mul(a, b):
    ra, ca = dims(a)
    rb, cb = dims(b)
    if ca != rb:
        raise ValueError("dimension mismatch in mat_mul")
    out = zeros(ra, cb)
    for i in range(ra):
        ai = a[i]
        oi = out[i]
        for k in range(ca):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cb):
                    oi[j] += aik * bk[j]
    return out


def transpose(m):
    r, c = dims(m)
    return [[m[i][j] for i in range(r)] for j in range(c)]


def _echelon(m):
    """Fraction-free (Bareiss) row echelon form of an integer matrix
    (Cohen, GTM 138, section 2.2): (rows, pivot columns, sign of the row
    permutation).  The pivot of each column is its first nonzero entry on
    or below the current row.  After k pivots every entry right of the
    pivots is a (k+1)-minor divided exactly by the k-minor prev, so the
    pivot of row t is the minor of the first t+1 permuted rows on the
    first t+1 pivot columns.  Entries left of a row's pivot are stale,
    not zeroed.
    """
    r, c = dims(m)
    a = copy_matrix(m)
    pivots = []
    sign = 1
    prev = 1
    for col in range(c):
        row = len(pivots)
        if row == r:
            break
        sel = next((i for i in range(row, r) if a[i][col]), None)
        if sel is None:
            continue
        if sel != row:
            a[row], a[sel] = a[sel], a[row]
            sign = -sign
        p = a[row][col]
        tail = a[row][col + 1:]
        for i in range(row + 1, r):
            f = a[i][col]
            if f:
                a[i][col + 1:] = [(p * x - f * y) // prev for x, y in zip(a[i][col + 1:], tail)]
            elif p != prev:
                # nothing to eliminate, so only rescale; most rows of a
                # block-diagonal Gram land here, and skip it when p == prev
                a[i][col + 1:] = [p * x // prev for x in a[i][col + 1:]]
        pivots.append(col)
        prev = p
    return a, pivots, sign


def det_exact(m):
    """Exact determinant: the last pivot of the Bareiss echelon."""
    r, c = dims(m)
    if r != c:
        raise NonSquareError("determinant needs a square matrix")
    if r == 0:
        return 1
    a, pivots, sign = _echelon(m)
    return sign * a[r - 1][r - 1] if len(pivots) == r else 0


def smith_normal_form(m):
    """Return (d, u, v) with u*m*v = d in Smith normal form.

    d is diagonal with nonnegative entries, each dividing the next;
    u and v are unimodular.  Pivot choice: smallest nonzero absolute
    value, which keeps intermediate entries small.
    """
    r, c = dims(m)
    a = copy_matrix(m)
    u = identity(r)
    v = identity(c)
    t = 0
    while t < min(r, c):
        # locate smallest nonzero entry in the trailing block
        best = None
        for i in range(t, r):
            for j in range(t, c):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
            for row in v:
                row[t], row[bj] = row[bj], row[t]
        # clear row and column t; restart if a reduction leaves a remainder
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, r):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(c):
                        a[i][j] -= q * a[t][j]
                    for j in range(r):
                        u[i][j] -= q * u[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        u[t], u[i] = u[i], u[t]
                        dirty = True
            for j in range(t + 1, c):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        for row in v:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
        # divisibility: pivot must divide every remaining entry
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if a[i][j] % a[t][t]:
                    # pull the offending row into the pivot row; the next
                    # elimination pass then strictly shrinks the pivot
                    for jj in range(c):
                        a[t][jj] += a[i][jj]
                    for jj in range(r):
                        u[t][jj] += u[i][jj]
                    break
            else:
                continue
            break
        else:
            t += 1
            continue
        # re-run elimination on the same corner
    for t in range(min(r, c)):
        if a[t][t] < 0:
            for j in range(c):
                a[t][j] = -a[t][j]
            for j in range(r):
                u[t][j] = -u[t][j]
    return a, u, v


def elementary_divisors(m, det=None):
    """Smith invariants d_1 | d_2 | ... | d_n of a nonsingular integer
    matrix, without transforms; det is det_exact(m) when the caller has it.

    Smith elimination modulo R = |det m| (Cohen, GTM 138, Alg. 2.4.14).
    Z^n / m Z^n has order R, so R Z^n lies in the column lattice and
    every entry may be reduced mod R.  Once a divisor d splits off, the
    rest has order R / d, and R shrinks with it.  Entries stay below R.
    """
    r, c = dims(m)
    if r != c:
        raise NonSquareError("elementary divisors need a square matrix")
    n = r
    big = abs(det_exact(m) if det is None else det)
    if big == 0:
        raise ValueError("elementary divisors need a nonsingular matrix")
    a = [[x % big for x in row] for row in m]
    out = []
    for t in range(n):
        if big == 1:
            return out + [1] * (n - t)
        while True:
            _clear_cross(a, t, big)
            d = gcd(a[t][t], big)
            bad = next((i for i in range(t + 1, n) if any(x % d for x in a[i][t + 1:])), None)
            if bad is None:
                break
            # d does not divide the rest: pull the offending row into the
            # pivot row, so the next clearing pass shrinks the pivot
            a[t] = [(x + y) % big for x, y in zip(a[t], a[bad])]
        out.append(d)
        big //= d
        for i in range(t + 1, n):
            a[i] = [x % big for x in a[i]]
    return out


def _xgcd(x, y):
    """(g, s, u) with s*x + u*y = g = gcd(x, y) >= 0."""
    s0, s1, u0, u1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    return (x, s0, u0) if x >= 0 else (-x, -s0, -u0)


def _clear_cross(a, t, mod):
    """Zero column t below and row t right of a[t][t], modulo mod, by
    unimodular row and column operations on rows and columns >= t (the
    rows and columns above t are already clear).  Each gcd step that is
    not a plain subtraction strictly lowers a[t][t], so this ends."""
    n = len(a)
    while True:
        for i in range(t + 1, n):
            y = a[i][t]
            if not y:
                continue
            x = a[t][t]
            rt, ri = a[t], a[i]
            if x and y % x == 0:
                q = y // x
                a[i] = [(v - q * w) % mod for v, w in zip(ri, rt)]
            else:
                g, s, u = _xgcd(x, y)
                xg, yg = x // g, y // g
                a[t] = [(s * w + u * v) % mod for w, v in zip(rt, ri)]
                a[i] = [(xg * v - yg * w) % mod for w, v in zip(rt, ri)]
        clean = True
        for j in range(t + 1, n):
            y = a[t][j]
            if not y:
                continue
            x = a[t][t]
            if x and y % x == 0:
                q = y // x
                for row in a[t:]:
                    row[j] = (row[j] - q * row[t]) % mod
            else:
                g, s, u = _xgcd(x, y)
                xg, yg = x // g, y // g
                for row in a[t:]:
                    w, v = row[t], row[j]
                    row[t] = (s * w + u * v) % mod
                    row[j] = (xg * v - yg * w) % mod
                clean = False
        if clean:
            return


def inertia(m):
    """Sylvester inertia (n_plus, n_minus, n_zero) of a symmetric matrix.

    A symmetric matrix has only real eigenvalues, so Descartes' rule of
    signs is exact on its characteristic polynomial p: p has as many
    positive roots as sign changes, p(-x) as many as there are negative
    roots, and 0 is a root of multiplicity the index of p's first
    nonzero coefficient.
    """
    if not is_symmetric(m):
        raise NonSymmetricError("inertia needs a symmetric matrix")
    p = char_poly(m)
    return (_sign_changes(p),
            _sign_changes([-x if k % 2 else x for k, x in enumerate(p)]),
            next(k for k, x in enumerate(p) if x))


def _sign_changes(coeffs):
    """Sign changes in a sequence, zeros skipped."""
    signs = [x > 0 for x in coeffs if x]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def kernel_basis(m):
    """Rational kernel of an integer matrix, as primitive integer vectors.

    The Bareiss echelon of _echelon, then integer back substitution
    that scales the vector whenever a pivot does not divide.
    The vector of the t-th free column is positive there and 0 at the
    other free columns: the primitive positive multiple of the kernel
    vector that the reduced row echelon form gives for that column.
    """
    c = dims(m)[1]
    a, pivots, _ = _echelon(m)
    pivot_set = set(pivots)
    basis = []
    for fj in range(c):
        if fj in pivot_set:
            continue
        vec = [0] * c
        vec[fj] = 1
        for i in reversed(range(len(pivots))):
            pj = pivots[i]
            row = a[i]
            s = sum(row[j] * vec[j] for j in range(pj + 1, c) if vec[j])
            d = row[pj]
            scale = abs(d) // gcd(s, d)
            if scale != 1:
                vec = [scale * x for x in vec]
                s *= scale
            vec[pj] = -s // d
        g = gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


# ---------------------------------------------------------------------------
# Integer polynomials, ascending-degree coefficient lists.

def poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_pseudo_divmod(a, b):
    """(q, r) with c*a = q*b + r and deg r < deg b, for an integer c > 0
    that is a product of divisors of |lc(b)|, so c = 1 when b is monic up
    to sign: the quotient and remainder of a by b over Q, both times c,
    computed in integers."""
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError
    sign = -1 if b[-1] < 0 else 1
    if sign < 0:
        b = [-c for c in b]
    lead, low = b[-1], b[:-1]
    r = list(poly_trim(a))
    q = [0] * max(len(r) - len(low), 0)
    while len(r) >= len(b):
        f = r.pop()
        g = gcd(f, lead)
        f //= g
        if lead != g:
            m = lead // g
            r = [m * c for c in r]
            q = [m * c for c in q]
        k = len(r) - len(low)
        q[k] = f
        for i, c in enumerate(low):
            r[k + i] -= f * c
        while r and not r[-1]:
            r.pop()
    return (q if sign > 0 else [-c for c in q]), r


def poly_derivative(p):
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def poly_content(p):
    g = 0
    for x in p:
        g = gcd(g, x)
    return g or 1


def poly_primitive(p):
    g = poly_content(p)
    return [x // g for x in p]


def char_poly(m):
    """Monic characteristic polynomial det(xI - M) of an integer matrix,
    exact, as ints in ascending degree.

    Multimodular: det(xI - M) modulo primes just below 2**62, each in
    O(n^3) small-integer steps, combined by the Chinese remainder theorem
    until the modulus exceeds twice a bound on every coefficient.  The
    coefficient of x^(n-k) is +-e_k of the eigenvalues, the sum of the
    principal k-minors; by Hadamard each is at most the product of its
    column norms, so all are at most prod_j (1 + beta_j) with beta_j the
    norm of column j rounded up.
    """
    r, c = dims(m)
    if r != c:
        raise NonSquareError("char_poly needs a square matrix")
    if not all(isinstance(x, int) for row in m for x in row):
        raise ArithmeticError("char_poly needs an integer matrix")
    bound = 1
    for j in range(c):
        bound *= isqrt(sum(row[j] * row[j] for row in m)) + 2
    coeffs, modulus = [0] * (r + 1), 1
    i = 0
    while modulus <= 2 * bound:
        p = _prime(i)
        i += 1
        lift = pow(modulus, -1, p)
        coeffs = [x + modulus * ((y - x) * lift % p)
                  for x, y in zip(coeffs, _char_poly_mod(m, p))]
        modulus *= p
    half = modulus // 2
    return [x - modulus if x > half else x for x in coeffs]


def _char_poly_mod(m, p):
    """det(xI - M) modulo the prime p, ascending: reduce M to upper
    Hessenberg form H by similarity, then read the polynomial off the
    recurrence on the leading principal blocks of H (Cohen, GTM 138,
    Alg. 2.2.9)."""
    n = len(m)
    h = [[x % p for x in row] for row in m]
    for k in range(1, n - 1):
        # zero column k-1 below row k
        piv = next((i for i in range(k, n) if h[i][k - 1]), None)
        if piv is None:
            continue
        if piv != k:
            h[k], h[piv] = h[piv], h[k]
            for row in h:
                row[k], row[piv] = row[piv], row[k]
        inv = pow(h[k][k - 1], -1, p)
        top = h[k][k - 1:]
        mult = [0] * (n - k - 1)
        for i in range(k + 1, n):
            u = h[i][k - 1] * inv % p
            if u:
                mult[i - k - 1] = u
                h[i][k - 1:] = [(x - u * y) % p for x, y in zip(h[i][k - 1:], top)]
        if any(mult):
            # the inverse of the row operations: column k += u_i column i
            for row in h:
                row[k] = (row[k] + sum(map(mul, mult, row[k + 1:]))) % p
    # polys[k] = det(xI - H_k) for the leading k x k block H_k:
    # polys[k+1] = (x - h_kk) polys[k]
    #              - sum_{i<k} h_ik h_{i+1,i} ... h_{k,k-1} polys[i]
    polys = [[1]]
    for k in range(n):
        prev = polys[-1]
        d = h[k][k]
        new = [0] + prev
        new[:k + 1] = [x - d * y for x, y in zip(new, prev)]
        t = 1
        for i in range(k - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            f = h[i][k] * t % p
            if f:
                new[:i + 1] = [x - f * y for x, y in zip(new, polys[i])]
        polys.append([x % p for x in new])
    return polys[-1]


# Primes just below 2**62, largest first, found on first use.
_PRIMES = []
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _prime(i):
    """The (i+1)-th largest prime below 2**62."""
    while len(_PRIMES) <= i:
        q = _PRIMES[-1] - 2 if _PRIMES else 2**62 - 1
        while not _is_prime(q):
            q -= 2
        _PRIMES.append(q)
    return _PRIMES[i]


def _is_prime(n):
    """Miller-Rabin to the twelve prime bases 2, 3, ..., 37, which proves
    primality for n < 3.18 * 10**23 (Sorenson and Webster, 2015)."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
