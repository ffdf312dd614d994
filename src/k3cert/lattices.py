"""Even lattices given by Gram matrices.

Grammar for lattice expressions (ASCII):

    expr  := term ('+' term)*
    term  := atom twist? power?
    atom  := 'U' | 'A'int | 'D'int | 'E'int
    twist := '(' int ')'
    power := '^' int

A/D/E atoms are NEGATIVE definite root lattices: -2 on the diagonal and
+1 on Dynkin-adjacent pairs.  Node order is the chain first, then the
branch node(s): for D_m the chain e1..e_{m-1} with the fork node e_m
attached to e_{m-2}; for E_n the chain e1..e_{n-1} with e_n attached
to e3.  An expression of total rank above MAX_RANK, or with a twist of
more than MAX_TWIST_DIGITS digits, is refused before its Gram matrix is
built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import K3CertError
from .exactlinalg import (
    det_exact,
    elementary_divisors,
    inertia,
    is_symmetric,
)


# The Gram is dense, so a rank-n expression costs n^2 entries and an
# O(n^3) determinant; rank 64 with small entries takes well under a second.
MAX_RANK = 64
# A twist k scales a rank-r block's determinant by k^r, and an untwisted
# |det| of rank at most 64 is at most 2^64, so every determinant has
# at most 64*64 + 20 digits: str() still prints it (it refuses over 4300).
MAX_TWIST_DIGITS = 64


class LatticeParseError(K3CertError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def parse_lattice_expr(text):
    """The Gram rows of a lattice expression: each term gives its block, a
    twist scales it, a power repeats it, and the terms of a sum stack
    block-diagonally.  Raises LatticeParseError with the byte offset."""
    pos = 0
    n = len(text)
    rank = 0    # of the terms parsed so far

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_int():
        nonlocal pos
        start = pos
        if pos < n and text[pos] == '-':
            pos += 1
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start or (pos == start + 1 and text[start] == '-'):
            raise LatticeParseError("expected integer", start)
        try:
            return int(text[start:pos])
        except ValueError:  # more digits than int() converts
            raise LatticeParseError("integer is too long", start) from None

    def check_rank(size, start):
        if rank + size > MAX_RANK:
            raise LatticeParseError(f"lattice rank exceeds {MAX_RANK}", start)

    def parse_term():
        """The blocks of one term."""
        nonlocal pos, rank
        skip_ws()
        if pos >= n:
            raise LatticeParseError("expected lattice atom", pos)
        ch = text[pos]
        start = pos
        if ch == 'U':
            pos += 1
            idx, size = 0, 2
        elif ch in ('A', 'D', 'E'):
            pos += 1
            idx = parse_int()
            if ch == 'A' and idx < 1:
                raise LatticeParseError("A_l needs l >= 1", start)
            if ch == 'D' and idx < 4:
                raise LatticeParseError("D_m needs m >= 4", start)
            if ch == 'E' and idx not in (6, 7, 8):
                raise LatticeParseError("E_n needs n in {6,7,8}", start)
            size = idx
        else:
            raise LatticeParseError(f"unknown atom {ch!r}", pos)
        check_rank(size, start)
        g = _root_gram(ch, idx)
        skip_ws()
        if pos < n and text[pos] == '(':
            pos += 1
            tstart = pos
            k = parse_int()
            if k == 0:
                raise LatticeParseError("twist factor must be nonzero", tstart)
            if abs(k) >= 10 ** MAX_TWIST_DIGITS:
                raise LatticeParseError(
                    f"twist factor exceeds {MAX_TWIST_DIGITS} digits", tstart)
            skip_ws()
            if pos >= n or text[pos] != ')':
                raise LatticeParseError("expected ')'", pos)
            pos += 1
            g = [[k * x for x in row] for row in g]
        skip_ws()
        k = 1
        if pos < n and text[pos] == '^':
            pos += 1
            pstart = pos
            k = parse_int()
            if k < 1:
                raise LatticeParseError("power must be >= 1", pstart)
            check_rank(size * k, start)
        rank += size * k
        return [g] * k

    skip_ws()
    blocks = parse_term()
    skip_ws()
    while pos < n and text[pos] == '+':
        pos += 1
        blocks += parse_term()
        skip_ws()
    if pos < n:
        raise LatticeParseError(f"unexpected character {text[pos]!r}", pos)
    return _block_diag(blocks)


def _root_gram(family, m):
    if family == 'U':
        return [[0, 1], [1, 0]]
    g = [[-2 if i == j else 0 for j in range(m)] for i in range(m)]
    chain = m if family == 'A' else m - 1
    for i in range(chain - 1):
        g[i][i + 1] = g[i + 1][i] = 1
    if family != 'A':
        # the branch node e_m meets e_{m-2} (D_m) or e3 (E_n)
        b = m - 3 if family == 'D' else 2
        g[b][m - 1] = g[m - 1][b] = 1
    return g


def _block_diag(blocks):
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return out


@dataclass(frozen=True)
class GramLattice:
    gram: tuple          # tuple of tuples of ints

    @property
    def rank(self):
        return len(self.gram)

    def gram_rows(self):
        return [list(r) for r in self.gram]


def make_lattice(gram):
    if not is_symmetric(gram):
        raise ValueError("Gram matrix must be symmetric")
    for i in range(len(gram)):
        if gram[i][i] % 2:
            raise ValueError("lattice is not even: odd diagonal entry")
    return GramLattice(tuple(tuple(r) for r in gram))


def gram_of(text):
    return make_lattice(parse_lattice_expr(text))


class DegenerateLatticeError(K3CertError):
    pass


class NotTwoElementaryError(K3CertError):
    pass


def discriminant_group(lat, det=None):
    """Elementary divisors > 1 of the Gram matrix, i.e. L*/L as cyclic
    orders; det is the Gram determinant when the caller has it."""
    g = lat.gram_rows()
    if det is None:
        det = det_exact(g)
    if det == 0:
        raise DegenerateLatticeError("degenerate lattice has no finite discriminant group")
    return [d for d in elementary_divisors(g, det) if d > 1]


@dataclass(frozen=True)
class TwoElementaryInvariants:
    rank: int
    a: int
    delta: int


def _kernel_mod_2(g):
    """An F_2 basis of the kernel of g mod 2, each vector as its support."""
    n = len(g)
    rows = [sum(1 << j for j in range(n) if g[i][j] & 1) for i in range(n)]
    reduced = []   # (pivot column, row) in reduced row echelon form
    for col in range(n):
        bit = 1 << col
        sel = next((k for k, r in enumerate(rows) if r & bit), None)
        if sel is None:
            continue
        prow = rows.pop(sel)
        rows = [r ^ prow if r & bit else r for r in rows]
        reduced = [(pc, r ^ prow if r & bit else r) for pc, r in reduced]
        reduced.append((col, prow))
    pivot_cols = {pc for pc, _ in reduced}
    return [[f] + [pc for pc, r in reduced if r >> f & 1]
            for f in range(n) if f not in pivot_cols]


def two_elementary_invariants(lat, det=None):
    """(rank, a, delta) of a 2-elementary even lattice; det is the Gram
    determinant when the caller has it.

    When 2L* lies in L, x -> 2x maps L*/L onto K/2L, where K holds the y
    in L with G y = 0 mod 2.  So a = n - rank(G mod 2), and L is
    2-elementary iff |det G| = 2^a (the even elementary divisors of G
    number a, and their product is 2^a only when each is 2).  The
    discriminant form is q(y/2) = y.y/4 mod 2Z.  On K, y.z is even, so
    y.y mod 4 is additive and does not depend on the lift: delta = 0 iff
    y.y = 0 mod 4 for every y in an F_2 basis of K.
    """
    g = lat.gram_rows()
    n = lat.rank
    if det is None:
        det = det_exact(g)
    if det == 0:
        raise DegenerateLatticeError("degenerate lattice")
    kernel = _kernel_mod_2(g)
    a = len(kernel)
    if abs(det) != 1 << a:
        raise NotTwoElementaryError(
            f"|det| = {abs(det)} is not 2^a = {1 << a}: the discriminant group "
            f"is not 2-elementary")
    delta = int(any(sum(g[i][j] for i in y for j in y) % 4 for y in kernel))
    return TwoElementaryInvariants(rank=n, a=a, delta=delta)


class ParityError(K3CertError):
    pass


def fixed_locus_component_count(rank, a):
    """k = (rank - a + 2) / 2 for a 2-elementary K3 with rank + a = 22."""
    if rank < a:
        raise ParityError("rank must be >= a")
    if (rank + a) % 2:
        raise ParityError("rank + a must be even")
    return (rank - a + 2) // 2


def lattice_info(text):
    """Rank, signature, determinant, discriminant group and, when the
    lattice is 2-elementary, (rank, a, delta) — used by the CLI."""
    lat = gram_of(text)
    g = lat.gram_rows()
    det = det_exact(g)
    sig = inertia(g)
    info = {
        "expr": text,
        "rank": lat.rank,
        "signature": {"plus": sig[0], "minus": sig[1], "zero": sig[2]},
        "det": det,
    }
    if det != 0:
        dg = discriminant_group(lat, det)
        info["discriminant_group"] = dg
        if all(x == 2 for x in dg):
            inv = two_elementary_invariants(lat, det)
            info["two_elementary"] = {"rank": inv.rank, "a": inv.a, "delta": inv.delta}
            if (inv.rank + inv.a) % 2 == 0 and inv.rank >= inv.a:
                info["fixed_locus_components"] = fixed_locus_component_count(inv.rank, inv.a)
    return info

