"""``entropy-k3`` and ``entropy-salem``: ``spectral.entropy`` on isometries
built block by block, then conjugated into a seeded random basis.

Every block's characteristic polynomial and Salem factor is known by
construction (``expected/spectral.json``, re-derived with sympy when it
is importable), so the class, the order, the Salem factor and the
certified radius interval are all checked without the code under test.
"""

from __future__ import annotations

import importlib.util
import json
import os

import oracle as O
from harness import Op

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected", "spectral.json")


# U + A1 with Gram [[0,1,0],[1,0,0],[0,0,-2]]
G3 = [[0, 1, 0], [1, 0, 0], [0, 0, -2]]
# hyperbolic, spectral radius 3 + 2 sqrt 2, a root of x^2 - 6x + 1
M_HYP = [[0, 1, 0], [1, 4, -4], [0, -2, 1]]
# Eichler transvection x -> x + (x.u1) w - (x.w) u1 + (x.u1) u1: unipotent
M_PAR = [[1, 1, 2], [0, 1, 0], [0, 1, 1]]

# finite-order blocks: name -> (rank, order)
FINITE = {"E8": (8, 30), "A6": (6, 7), "A4": (4, 5), "D4": (4, 6), "A2": (2, 3),
          "-1": (1, 2), "+1": (1, 1)}

# T_{p,q,r} Coxeter elements with Salem factors of degree 6 to 10, whose
# costs (0.07 to 1.6 s) are spaced so that the median and the tail of a
# run's 18 latencies each sit inside one diagram's pair of ops
SALEM_DIAGRAMS = ((3, 3, 4), (3, 3, 6), (3, 4, 4), (4, 4, 5), (2, 4, 5), (2, 3, 9),
                  (3, 6, 7), (2, 3, 7))
# rank 8-10 diagrams that get finite blocks up to rank 22
SALEM22_DIAGRAMS = ((3, 3, 4), (2, 4, 5), (3, 4, 4), (2, 5, 5), (2, 3, 7))


def block(name, rng):
    """(Gram, isometry) of one named block; Coxeter elements take a seeded
    reflection order (all orders are conjugate on a tree)."""
    if name == "HYP":
        return G3, M_HYP
    if name == "PAR":
        return G3, M_PAR
    if name in ("+1", "-1"):
        return [[-2]], [[int(name)]]
    if name.startswith("T"):
        g = O.t_pqr_gram(*map(int, name[1:].split(",")))
    else:
        g = O.root_gram(name[0], int(name[1:]))
    order = list(range(len(g)))
    rng.shuffle(order)
    return g, O.coxeter_element(g, order)


def fill(rng, rank):
    """Finite-order blocks of total ``rank``, none with eigenvalue 1."""
    out = []
    while rank:
        name = rng.choice([n for n, (r, _) in FINITE.items() if r <= rank and n != "+1"])
        out.append(name)
        rank -= FINITE[name][0]
    return out


def conjugate(rng, names, steps):
    gs, ms = zip(*(block(n, rng) for n in names))
    g, m = O.block_diag(gs), O.block_diag(ms)
    s, s_inv = O.random_basis(rng, len(g), steps)
    return O.congruent(g, s), O.matmul(s_inv, O.matmul(m, s))


class Reference:
    """Characteristic polynomials and Salem factors of the blocks."""

    def __init__(self):
        with open(EXPECTED, encoding="utf-8") as fh:
            table = json.load(fh)
        self.charpoly = table["charpoly"]
        self.salem = table["salem"]
        # sympy is only an oracle; it is imported after the timed pass
        self.by_sympy = importlib.util.find_spec("sympy") is not None

    def check_tables_with_sympy(self, rng):
        """Re-derive every tabulated polynomial with sympy's charpoly and
        factor_list.  Returns the names that disagree."""
        import sympy
        x = sympy.Symbol("x")
        bad = []
        for name, coeffs in self.charpoly.items():
            g, m = block(name, rng)
            cp = sympy.Matrix(m).charpoly(x).as_expr()
            if sympy.Poly(cp, x).all_coeffs()[::-1] != coeffs:
                bad.append(name)
                continue
            want = self.salem.get(name)
            got = None
            for f, _ in sympy.factor_list(cp)[1]:
                if sympy.Poly(f, x).count_roots(1, None) > 0 and f.subs(x, 1) != 0:
                    got = [int(c) for c in sympy.Poly(f, x).all_coeffs()[::-1]]
            if got != want:
                bad.append(name)
        return bad

    def charpoly_of(self, names):
        p = [1]
        for n in names:
            p = O.poly_mul(p, self.charpoly[n])
        return p


def entropy_op(cls, names, rng, steps, ref, expect):
    g, m = conjugate(rng, names, steps)

    def run():
        from k3cert import spectral
        return spectral.entropy(m, g)
    return Op(cls, run, lambda rep: expect(rep, names, ref))


def expect_hyperbolic(rep, names, ref):
    (block_with_salem,) = [n for n in names if n in ref.salem]
    salem = ref.salem[block_with_salem]
    lo, hi = rep.radius_interval
    got = list(rep.salem_factor or [])
    return (rep.dynamical_class == "hyperbolic" and got == salem
            and not O.poly_rem(ref.charpoly_of(names), got)
            and lo > 1 and O.brackets_root(salem, lo, hi))


def expect_elliptic(rep, names, ref):
    order = 1
    for n in names:
        order = O.lcm(order, FINITE[n][1])
    return rep.dynamical_class == "elliptic" and rep.order == order and rep.salem_factor is None


def expect_parabolic(rep, names, ref):
    return rep.dynamical_class == "parabolic" and rep.salem_factor is None


class EntropyK3:
    """Rank-22 isometries, a round of seven: two hyperbolic, two elliptic,
    two parabolic and one hyperbolic map whose eigenvalue 1 is repeated
    (the known Sturm defect).  The block patterns are fixed, so every
    round costs about the same; the seed picks the bases."""

    name = "entropy-k3"
    SETUP_CODE = "import k3cert.cli\n"
    DEADLINE_S = 5.0
    DEFECT_CLASSES = ("hyperbolic-repeated-1",)
    STEPS = 24
    ROUND = (
        ("hyperbolic", ("HYP", "E8", "A6", "A4", "-1")),
        ("hyperbolic", ("HYP", "E8", "D4", "A4", "A2", "-1")),
        ("elliptic", ("E8", "E8", "A4", "A2")),
        ("elliptic", ("E8", "E8", "D4", "A2")),
        ("parabolic", ("PAR", "E8", "A6", "A4", "-1")),
        ("parabolic", ("PAR", "D4", "A6", "A4", "A2", "A2", "-1")),
        ("hyperbolic-repeated-1", ("HYP", "+1", "+1", "E8", "A6", "A2", "-1")),
    )

    def __init__(self, rng, workdir):
        self.rng = rng
        self.ref = Reference()

    def rounds(self):
        expect = {"hyperbolic": expect_hyperbolic, "hyperbolic-repeated-1": expect_hyperbolic,
                  "elliptic": expect_elliptic, "parabolic": expect_parabolic}
        while True:
            ops = [entropy_op(cls, list(names), self.rng, self.STEPS, self.ref, expect[cls])
                   for cls, names in self.ROUND]
            self.rng.shuffle(ops)
            yield ops


class EntropySalem:
    """Coxeter elements of hyperbolic T_{p,q,r} diagrams (rank 8-14), one of
    each per round, plus one rank-22 Salem case (diagram + E8 + finite
    blocks), the known Kronecker-search blow-up."""

    name = "entropy-salem"
    SETUP_CODE = "import k3cert.cli\n"
    DEADLINE_S = 4.0
    DEFECT_CLASSES = ("salem-rank22",)
    STEPS = 12

    def __init__(self, rng, workdir):
        self.rng = rng
        self.ref = Reference()

    def rounds(self):
        rng, ref, steps = self.rng, self.ref, self.STEPS
        while True:
            ops = [entropy_op("coxeter", ["T%d,%d,%d" % d], rng, steps, ref, expect_hyperbolic)
                   for d in SALEM_DIAGRAMS]
            d = rng.choice(SALEM22_DIAGRAMS)
            t = "T%d,%d,%d" % d
            rest = 22 - 8 - (sum(d) - 2)
            ops.append(entropy_op("salem-rank22", [t, "E8"] + fill(rng, rest),
                                  rng, steps, ref, expect_hyperbolic))
            rng.shuffle(ops)
            yield ops
