"""Lattice grammar, Gram construction and 2-elementary invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3cert.exactlinalg import det_exact, inertia
from k3cert.lattices import (
    DegenerateLatticeError,
    LatticeParseError,
    NotTwoElementaryError,
    discriminant_group,
    fixed_locus_component_count,
    gram_of,
    lattice_info,
    make_lattice,
    parse_lattice_expr,
    two_elementary_invariants,
)

# the 11 published configurations: expression -> (rank, a, delta), k
TABLE = [
    ("U(2)+A1^9", (11, 11, 1), 1),
    ("U+A1^10", (12, 10, 1), 2),
    ("U+D4+A1^7", (13, 9, 1), 3),
    ("U+D4^2+A1^4", (14, 8, 1), 4),
    ("U+D4^3+A1", (15, 7, 1), 5),
    ("U+D6^2+A1^2", (16, 6, 1), 6),
    ("U+D6+D8+A1", (17, 5, 1), 7),
    ("U+D4+D12", (18, 4, 0), 8),
    ("U+D14+A1^2", (18, 4, 1), 8),
    ("U+D16+A1", (19, 3, 1), 9),
    ("U+E8+D10", (20, 2, 1), 10),
]


@pytest.mark.parametrize("expr,triple,k", TABLE)
def test_published_triples(expr, triple, k):
    inv = two_elementary_invariants(gram_of(expr))
    assert (inv.rank, inv.a, inv.delta) == triple
    assert fixed_locus_component_count(inv.rank, inv.a) == k


@pytest.mark.parametrize("expr,triple,k", TABLE)
def test_published_signatures(expr, triple, k):
    g = gram_of(expr).gram_rows()
    assert inertia(g) == (1, triple[0] - 1, 0)


def test_root_gram_shapes():
    a3 = gram_of("A3").gram_rows()
    assert a3 == [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
    d4 = gram_of("D4").gram_rows()
    assert d4[0][1] == 1 and d4[1][2] == 1 and d4[1][3] == 1 and d4[0][3] == 0
    e8 = gram_of("E8").gram_rows()
    assert det_exact(e8) == 1
    assert det_exact(gram_of("E7").gram_rows()) == -2
    assert det_exact(gram_of("E6").gram_rows()) == 3
    # |det A_n| = n+1, |det D_n| = 4
    assert abs(det_exact(gram_of("A5").gram_rows())) == 6
    assert abs(det_exact(gram_of("D7").gram_rows())) == 4


def test_twist_and_power():
    u2 = gram_of("U(2)").gram_rows()
    assert u2 == [[0, 2], [2, 0]]
    lat = gram_of("A1^3")
    assert lat.rank == 3
    assert lat.gram_rows() == [[-2, 0, 0], [0, -2, 0], [0, 0, -2]]
    assert gram_of("U+E8").rank == 10


def test_discriminant_groups():
    assert discriminant_group(gram_of("U")) == []
    assert discriminant_group(gram_of("E8")) == []
    assert discriminant_group(gram_of("A1")) == [2]
    assert discriminant_group(gram_of("A5")) == [6]
    assert discriminant_group(gram_of("U(2)")) == [2, 2]
    assert discriminant_group(gram_of("D4")) == [2, 2]
    assert discriminant_group(gram_of("D5")) == [4]


def test_delta_zero_example():
    # D4 and D12 have integer-valued discriminant forms
    assert two_elementary_invariants(gram_of("U+D4+D12")).delta == 0
    assert two_elementary_invariants(gram_of("U+D4")).delta == 0
    # a single A1 twist forces delta = 1 (q = -1/2 mod 2Z)
    assert two_elementary_invariants(gram_of("U+A1")).delta == 1


def test_not_two_elementary():
    with pytest.raises(NotTwoElementaryError):
        two_elementary_invariants(gram_of("U+A2"))
    with pytest.raises(NotTwoElementaryError):
        two_elementary_invariants(gram_of("U+D5"))


@pytest.mark.parametrize("expr", ["U+A2", "U+D5", "U(3)", "U(4)", "U+A3"])
def test_not_two_elementary_in_any_basis(expr):
    g = _random_basis_gram(gram_of(expr).gram_rows(), random.Random(expr))
    with pytest.raises(NotTwoElementaryError):
        two_elementary_invariants(make_lattice(g))


def _random_basis_gram(g, rng, steps=12):
    """S^T G S for S a signed permutation times elementary column steps."""
    n = len(g)
    s = [[0] * n for _ in range(n)]
    for j, i in enumerate(rng.sample(range(n), n)):
        s[i][j] = rng.choice((1, -1))
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        for row in s:
            row[j] += c * row[i]
    gs = [[sum(g[i][k] * s[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(s[k][i] * gs[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _discriminant_form_brute_force(g):
    """(a, delta) by enumerating A_L = L*/L: close the columns of G^-1
    under addition modulo Z^n, then read the order, the exponent and the
    values q(x) = x.x mod 2Z."""
    n = len(g)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(g)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    gens = [tuple(a[i][n + j] % 1 for i in range(n)) for j in range(n)]
    group = {tuple([Fraction(0)] * n)}
    frontier = list(group)
    while frontier:
        x = frontier.pop()
        for y in gens:
            z = tuple((u + v) % 1 for u, v in zip(x, y))
            if z not in group:
                group.add(z)
                frontier.append(z)
    assert all(all((2 * u) % 1 == 0 for u in x) for x in group), "not 2-elementary"
    order = len(group)
    assert order & (order - 1) == 0
    q = [sum(x[i] * g[i][j] * x[j] for i in range(n) for j in range(n)) for x in group]
    return order.bit_length() - 1, int(any(v.denominator != 1 for v in q))


@pytest.mark.parametrize("expr", [
    "U", "U+A1", "U(2)", "U(2)+A1", "U+A1^2", "U+D4", "U(2)+D4", "U+A1^4",
    "U+E8+A1^3", "U+D6+A1^2", "U+D4^2", "U+D8", "U(2)+A1^2", "E7+A1", "U+E8^2+D4"])
def test_two_elementary_invariants_match_brute_force_in_random_bases(expr):
    rng = random.Random(expr)
    g = gram_of(expr).gram_rows()
    for _ in range(3):
        dense = _random_basis_gram(g, rng)
        inv = two_elementary_invariants(make_lattice(dense))
        assert inv.a <= 4
        assert (inv.a, inv.delta) == _discriminant_form_brute_force(dense)


def test_degenerate_rejected():
    from k3cert.lattices import make_lattice
    with pytest.raises(DegenerateLatticeError):
        discriminant_group(make_lattice([[0, 0], [0, 0]]))


@pytest.mark.parametrize("bad,offset", [
    ("D3", 0),
    ("E5", 0),
    ("A0", 0),
    ("U(0)", 2),
    ("U^0", 2),
    ("U+", 2),
    ("U)", 1),
    ("X8", 0),
    ("", 0),
])
def test_parse_errors_carry_offsets(bad, offset):
    with pytest.raises(LatticeParseError) as exc:
        parse_lattice_expr(bad)
    assert exc.value.offset == offset


def test_parity_helper():
    assert fixed_locus_component_count(20, 2) == 10
    with pytest.raises(ValueError):
        fixed_locus_component_count(5, 4)
    with pytest.raises(ValueError):
        fixed_locus_component_count(3, 5)


def test_lattice_info_shape():
    info = lattice_info("U+D4+A1^7")
    assert info["rank"] == 13
    assert info["two_elementary"] == {"rank": 13, "a": 9, "delta": 1}
    assert info["fixed_locus_components"] == 3
    assert info["det"] == 512


def test_lattice_info_takes_the_determinant_once(monkeypatch):
    from k3cert import exactlinalg, lattices
    calls = []

    def counting(m):
        calls.append(len(m))
        return det_exact(m)
    monkeypatch.setattr(lattices, "det_exact", counting)
    monkeypatch.setattr(exactlinalg, "det_exact", counting)
    info = lattice_info("U+D4+A1^7")
    assert info["det"] == 512 and info["fixed_locus_components"] == 3
    assert calls == [13]


ATOMS = st.sampled_from(["U", "A1", "A2", "A3", "D4", "D5", "E6", "E7", "E8"])


@settings(max_examples=50, deadline=None)
@given(st.lists(ATOMS, min_size=1, max_size=4))
def test_sum_rank_additive(parts):
    expr = "+".join(parts)
    lat = gram_of(expr)
    assert lat.rank == sum(gram_of(p).rank for p in parts)
    # determinant of a direct sum is the product
    assert det_exact(lat.gram_rows()) == _prod(
        det_exact(gram_of(p).gram_rows()) for p in parts)


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


@settings(max_examples=40, deadline=None)
@given(ATOMS, st.integers(1, 3))
def test_power_matches_repeated_sum(atom, k):
    lhs = gram_of(f"{atom}^{k}")
    rhs = gram_of("+".join([atom] * k))
    assert lhs.gram == rhs.gram
