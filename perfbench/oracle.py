"""Reference mathematics for building benchmark inputs and checking outputs.

Nothing here imports k3cert: every expected value the benchmark compares
against comes either from these independent constructions, from the
tables in ``expected/``, or from sympy when it is importable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------------------
# integer matrices

def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(m):
    return [list(r) for r in zip(*m)]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def random_basis(rng, n, steps):
    """A seeded unimodular S and its inverse: a signed permutation followed
    by ``steps`` elementary column operations col_j += c * col_i, c = +-1."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    s = [[0] * n for _ in range(n)]
    for j, i in enumerate(perm):
        s[i][j] = signs[j]
    s_inv = transpose(s)  # a signed permutation is orthogonal
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        for row in s:
            row[j] += c * row[i]
        s_inv[i] = [x - c * y for x, y in zip(s_inv[i], s_inv[j])]
    return s, s_inv


def congruent(g, s):
    """S^T G S: the same form in the basis given by the columns of S."""
    return matmul(transpose(s), matmul(g, s))


# ---------------------------------------------------------------------------
# Gram matrices of even lattices (A/D/E negative definite)

U = [[0, 1], [1, 0]]


def dynkin_gram(n, edges):
    g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return g


def chain(n):
    return [(i, i + 1) for i in range(n - 1)]


def root_gram(family, n):
    if family == "A":
        return dynkin_gram(n, chain(n))
    if family == "D":
        return dynkin_gram(n, chain(n - 1) + [(n - 3, n - 1)])
    if family == "E":
        return dynkin_gram(n, chain(n - 1) + [(2, n - 1)])
    raise ValueError(family)


def t_pqr_gram(p, q, r):
    """T_{p,q,r}: arms of p, q and r nodes sharing the centre node 0."""
    n = p + q + r - 2
    edges = []
    nxt = 1
    for arm in (p, q, r):
        prev = 0
        for _ in range(arm - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return dynkin_gram(n, edges)


def coxeter_element(g, order=None):
    """Product of the reflections x -> x + (x.e_i) e_i in the simple roots
    (all of norm -2), taken in ``order``; an isometry of g."""
    n = len(g)
    m = identity(n)
    for i in (order or range(n)):
        s = identity(n)
        s[i] = [s[i][j] + g[i][j] for j in range(n)]
        m = matmul(m, s)
    return m


# ---------------------------------------------------------------------------
# integer polynomials, ascending coefficients

def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_rem(p, q):
    """Remainder of p by q over Q."""
    r = [Fraction(c) for c in poly_trim(p)]
    q = poly_trim(q)
    while len(r) >= len(q) and r:
        f = r[-1] / q[-1]
        k = len(r) - len(q)
        for i, c in enumerate(q):
            r[k + i] -= f * c
        r = poly_trim(r)
    return r


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def sign(x):
    return (x > 0) - (x < 0)


def brackets_root(p, lo, hi):
    """Exact test that p changes sign on (lo, hi] (or vanishes at hi)."""
    a, b = sign(poly_eval(p, lo)), sign(poly_eval(p, hi))
    return b == 0 or (a != 0 and a != b)


# ---------------------------------------------------------------------------
# lattice invariants from the summands of an expression

# (rank, det, cyclic factors of L*/L, signature, 2-elementary (a, delta) or None)
def atom_invariants(family, n, twist=1):
    if family == "U":
        rank, det, cyc, sig = 2, -1, [], (1, 1)
        te = (0, 0)
    elif family == "A":
        rank, det, cyc, sig = n, (-1) ** n * (n + 1), [n + 1], (0, n)
        te = (1, 1) if n == 1 else None
    elif family == "D":
        rank, det, sig = n, (-1) ** n * 4, (0, n)
        cyc = [2, 2] if n % 2 == 0 else [4]
        te = None if n % 2 else (2, 0 if n % 4 == 0 else 1)
    elif family == "E":
        rank, sig = n, (0, n)
        det = {6: 3, 7: -2, 8: 1}[n]
        cyc = {6: [3], 7: [2], 8: []}[n]
        te = {6: None, 7: (1, 1), 8: (0, 0)}[n]
    else:
        raise ValueError(family)
    if twist != 1:
        # L(k): Smith divisors all scale by k; only the twists used here
        # (U(2), E8(2), A1(-1)) are tabulated for the 2-elementary data
        full = [1] * (rank - len(cyc)) + cyc
        cyc = [abs(twist) * d for d in full]
        det *= twist ** rank
        if twist < 0:
            sig = (sig[1], sig[0])
        te = {("U", 2): (2, 0), ("E", 2): (8, 0), ("A", -1): (1, 1)}.get((family, twist))
    return rank, det, [d for d in cyc if d > 1], sig, te


def invariant_factors(cyclic):
    """Invariant factors d1 | d2 | ... (> 1) of a sum of cyclic groups."""
    by_prime = {}
    for m in cyclic:
        p = 2
        while m > 1:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                by_prime.setdefault(p, []).append(p ** e)
            p += 1
    length = max((len(v) for v in by_prime.values()), default=0)
    out = [1] * length
    for powers in by_prime.values():
        powers.sort(reverse=True)
        for i, q in enumerate(powers):
            out[i] *= q
    return sorted(out)


def expected_lattice_info(summands):
    """Expected ``lattice info --json`` fields for a list of
    (family, n, twist) summands."""
    rank, det, cyc, plus, minus = 0, 1, [], 0, 0
    a, delta, two_el = 0, 0, True
    for fam, n, tw in summands:
        r, d, c, (sp, sm), te = atom_invariants(fam, n, tw)
        rank += r
        det *= d
        cyc += c
        plus += sp
        minus += sm
        if te is None:
            two_el = False
        else:
            a += te[0]
            delta = max(delta, te[1])
    info = {
        "rank": rank,
        "signature": {"plus": plus, "minus": minus, "zero": 0},
        "det": det,
        "discriminant_group": invariant_factors(cyc),
    }
    if two_el:
        info["two_elementary"] = {"rank": rank, "a": a, "delta": delta}
        if (rank + a) % 2 == 0 and rank >= a:
            info["fixed_locus_components"] = (rank - a + 2) // 2
    return info


def summands_gram(summands):
    blocks = []
    for fam, n, tw in summands:
        g = U if fam == "U" else root_gram(fam, n)
        blocks.append([[tw * x for x in row] for row in g])
    return block_diag(blocks)


def summands_text(summands):
    parts = []
    for fam, n, tw in summands:
        s = "U" if fam == "U" else f"{fam}{n}"
        parts.append(s + (f"({tw})" if tw != 1 else ""))
    return "+".join(parts)


def brute_force_a_delta(g):
    """(a, delta) of a 2-elementary even lattice by enumerating A_L.

    A_L = {v/2 : G v = 0 mod 2} / L, i.e. the kernel of G over F_2, and
    delta = 0 iff q(v/2) = v.Gv/4 is an integer for every element.
    """
    n = len(g)
    rows = [sum(((g[i][j] & 1) << j) for j in range(n)) for i in range(n)]
    # kernel of the F_2 matrix by elimination on bit rows
    pivots = {}
    for row in rows:
        for col, prow in pivots.items():
            if row >> col & 1:
                row ^= prow
        if row:
            col = row.bit_length() - 1
            for c, prow in list(pivots.items()):
                if prow >> col & 1:
                    pivots[c] = prow ^ row
            pivots[col] = row
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        v = 1 << f
        for col, prow in pivots.items():
            if prow >> f & 1:
                v |= 1 << col
        basis.append(v)
    delta = 0
    for mask in range(1, 1 << len(basis)):
        v = 0
        for k, b in enumerate(basis):
            if mask >> k & 1:
                v ^= b
        x = [v >> j & 1 for j in range(n)]
        q = sum(x[i] * g[i][j] * x[j] for i in range(n) for j in range(n))
        if q % 4:
            delta = 1
            break
    return len(basis), delta


def lcm(a, b):
    return a * b // gcd(a, b)
