"""``lattice``: ``lattice info`` on seeded expressions, and the same
lattices in a seeded random basis through ``two_elementary_invariants``
and ``discriminant_group``.

Expected invariants come from the summands (``oracle.expected_lattice_info``);
for a <= 4 the random-basis Gram's (a, delta) is also found by brute
force over A_L.  A round has a fixed number of expressions per stratum
and one dense random-basis Gram of rank 16 (64 elementary steps), the
class on which ``smith_normal_form`` shows unbounded entry growth.
"""

from __future__ import annotations

import json

import oracle as O
from certify import cli_op
from harness import Op


TWO_EL = [("A", 1, 1), ("A", 1, -1), ("D", 4, 1), ("D", 6, 1), ("D", 8, 1), ("D", 10, 1),
          ("E", 7, 1), ("E", 8, 1), ("U", 0, 1), ("U", 0, 2)]
OTHER = [("A", 2, 1), ("A", 4, 1), ("D", 5, 1), ("E", 6, 1)]

# stratum -> (rank range, extra summand palette, expressions per round);
# the ranks of a stratum cycle through its range, so every round has the
# same ranks and the seed only picks the summands
STRATA = {
    "small": ((2, 8), None, 28),
    "medium": ((9, 16), None, 28),
    "large": ((17, 22), None, 28),
    "non-2-elementary": ((4, 22), OTHER, 20),
}
# delta = 0 costs a pairwise pass over A_L, quadratic in a and in the
# rank: a fixed mix of a, all at rank 22
DELTA0_A = (2, 4, 6, 8) * 7
# A signed permutation and one elementary step.  From two steps on, Smith
# growth already overruns on a small, seed-dependent share of Grams; the
# defect gets its own class with a fixed share instead.
MILD_STEPS = 1
DENSE_STEPS = 64     # random basis of the known-defect op
DENSE_RANK = 16


def rank_of(s):
    return 2 if s[0] == "U" else s[1]


def expression(rng, target, extra=None):
    """Summands of a hyperbolic lattice of rank ``target`` (more when the
    extra summand does not fit)."""
    out = [rng.choice([("U", 0, 1), ("U", 0, 2)])]
    if extra:
        out.append(rng.choice(extra))
    while True:
        room = target - sum(map(rank_of, out))
        fits = [s for s in TWO_EL if rank_of(s) <= room]
        if not fits:
            return out
        out.append(rng.choice(fits))


def delta0_expression(rng, a):
    """A hyperbolic lattice of rank 22 with delta = 0 and the given a."""
    if a == 8 and rng.random() < 0.5:
        out = [("U", 0, 1), ("E", 8, 2)]
    else:
        out = [rng.choice([("U", 0, 1), ("U", 0, 2)])]
        left = a - 2 * (out[0][2] == 2)
        while left:
            room = 22 - sum(map(rank_of, out))
            out.append(rng.choice([d for d in (("D", 4, 1), ("D", 8, 1)) if d[1] <= room - 4 * (left // 2 - 1)]))
            left -= 2
    while True:
        room = 22 - sum(map(rank_of, out))
        fits = [s for s in (("E", 8, 1), ("U", 0, 1)) if rank_of(s) <= room]
        if not fits:
            return out
        out.append(rng.choice(fits))


def text_of(summands):
    """Expression text, with runs of equal summands written as powers."""
    parts, i = [], 0
    while i < len(summands):
        j = i
        while j < len(summands) and summands[j] == summands[i]:
            j += 1
        t = O.summands_text([summands[i]])
        if j - i > 1:
            t = f"{t}^{j - i}"
        parts.append(t)
        i = j
    return "+".join(parts)


def info_op(summands):
    text = text_of(summands)
    want = dict(O.expected_lattice_info(summands), expr=text)
    return Op("info", cli_op(["lattice", "info", text, "--json"]),
              lambda res: res[0] == 0 and json.loads(res[1]) == want)


def basis_op(cls, summands, rng, steps):
    want = O.expected_lattice_info(summands)
    s, _ = O.random_basis(rng, sum(map(rank_of, summands)), steps)
    g = O.congruent(O.summands_gram(summands), s)
    two_el = "two_elementary" in want

    def run():
        from k3cert import lattices
        dg = lattices.discriminant_group(lattices.make_lattice(g))
        if not two_el:
            return None, dg
        inv = lattices.two_elementary_invariants(lattices.make_lattice(g))
        return (inv.rank, inv.a, inv.delta), dg

    def check(res):
        inv, dg = res
        if dg != want["discriminant_group"]:
            return False
        if not two_el:
            return inv is None
        te = want["two_elementary"]
        if inv != (te["rank"], te["a"], te["delta"]):
            return False
        return te["a"] > 4 or O.brute_force_a_delta(g) == (te["a"], te["delta"])
    return Op(cls, run, check)


class Lattice:
    name = "lattice"
    SETUP_CODE = "import k3cert.cli\n"
    DEADLINE_S = 1.0
    # Smith growth is the one known defect here: it always hits the dense
    # class and, rarely, an ordinary random-basis op
    DEFECT_CLASSES = ("dense-basis-smith", "basis-small", "basis-medium", "basis-large",
                      "basis-non-2-elementary", "basis-delta0")

    def __init__(self, rng, workdir):
        self.rng = rng

    def rounds(self):
        rng = self.rng
        while True:
            ops = []
            exprs = [("basis-" + stratum, expression(rng, lo + k % (hi - lo + 1), extra))
                     for stratum, ((lo, hi), extra, count) in STRATA.items()
                     for k in range(count)]
            exprs += [("basis-delta0", delta0_expression(rng, a)) for a in DELTA0_A]
            for cls, summands in exprs:
                ops.append(info_op(summands))
                ops.append(basis_op(cls, summands, rng, MILD_STEPS))
            summands = expression(rng, DENSE_RANK)
            ops.append(basis_op("dense-basis-smith", summands, rng, DENSE_STEPS))
            rng.shuffle(ops)
            yield ops
