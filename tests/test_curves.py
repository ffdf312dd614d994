"""Curve configurations, divisor arithmetic and Kodaira recognition."""

import random

import pytest

from k3cert.curves import (
    ConfigError,
    DivisorClass,
    FiberError,
    classify_fiber,
    is_fiber_class,
    kinds_compatible,
    make_config,
    pairing,
    theta_constraints,
)
from k3cert.exactlinalg import det_exact, kernel_basis
from k3cert.lattices import discriminant_group, gram_of


def cycle_config(n, prefix="v"):
    names = [f"{prefix}{i}" for i in range(n)]
    meets = [(names[i], names[(i + 1) % n], 1) for i in range(n)]
    return make_config(names, meets), names


def chain_config(names):
    return make_config(names, [(a, b, 1) for a, b in zip(names, names[1:])])


def test_pairing_basics():
    cfg, names = cycle_config(4)
    one = DivisorClass.from_dict(cfg, {names[0]: 1})
    assert pairing(one, one, cfg) == -2
    e = DivisorClass.from_dict(cfg, {n: 1 for n in names})
    assert pairing(e, e, cfg) == 0


def test_config_validation():
    with pytest.raises(ConfigError):
        make_config(["a", "a"], [])
    with pytest.raises(ConfigError):
        make_config(["a", "b"], [("a", "c", 1)])
    with pytest.raises(ConfigError):
        make_config(["a", "b"], [("a", "a", 1)])
    with pytest.raises(ConfigError):
        make_config(["a", "b"], [("a", "b", -1)])


def test_classify_cycles():
    for n in (3, 6, 16):
        cfg, names = cycle_config(n)
        fiber = classify_fiber(cfg, names)
        assert fiber.kind == f"I{n}"
        assert set(fiber.multiplicities.values()) == {1}


def test_classify_double_bond():
    cfg = make_config(["a", "b"], [("a", "b", 2)])
    fiber = classify_fiber(cfg, ["a", "b"])
    assert fiber.kind == "I2/III"
    assert fiber.multiplicities == {"a": 1, "b": 1}
    assert kinds_compatible("I2", fiber.kind)
    assert kinds_compatible("III", fiber.kind)
    assert not kinds_compatible("I3", fiber.kind)


def test_classify_i0star():
    names = ["c", "f1", "f2", "f3", "f4"]
    cfg = make_config(names, [("c", f, 1) for f in names[1:]])
    fiber = classify_fiber(cfg, names)
    assert fiber.kind == "I0*"
    assert fiber.multiplicities["c"] == 2


def test_classify_ibstar_17_chain():
    # D~16 shape: 13-node multiplicity-2 chain with two leaves at each end
    chain = [f"m{i}" for i in range(13)]
    names = chain + ["p1", "p2", "q1", "q2"]
    meets = [(a, b, 1) for a, b in zip(chain, chain[1:])]
    meets += [("p1", "m0", 1), ("p2", "m0", 1), ("q1", "m12", 1), ("q2", "m12", 1)]
    cfg = make_config(names, meets)
    fiber = classify_fiber(cfg, names)
    assert fiber.kind == "I12*"
    mults = sorted(fiber.multiplicities.values())
    assert mults == [1, 1, 1, 1] + [2] * 13


def test_classify_affine_e_shapes():
    # IV*: central node, three arms of length 2
    names = ["c", "a1", "a2", "b1", "b2", "d1", "d2"]
    meets = [("c", "a1", 1), ("a1", "a2", 1), ("c", "b1", 1), ("b1", "b2", 1),
             ("c", "d1", 1), ("d1", "d2", 1)]
    cfg = make_config(names, meets)
    fiber = classify_fiber(cfg, names)
    assert fiber.kind == "IV*"
    assert fiber.multiplicities["c"] == 3
    assert sorted(fiber.multiplicities.values()) == [1, 1, 1, 2, 2, 2, 3]

    # III*: chain of 7 with branch at the middle
    chain = [f"x{i}" for i in range(7)]
    cfg2 = make_config(chain + ["y"],
                       [(a, b, 1) for a, b in zip(chain, chain[1:])] + [("x3", "y", 1)])
    assert classify_fiber(cfg2, chain + ["y"]).kind == "III*"

    # II*: chain of 8 with branch at position 5 (arm lengths 1, 2, 5)
    chain = [f"z{i}" for i in range(8)]
    cfg3 = make_config(chain + ["w"],
                       [(a, b, 1) for a, b in zip(chain, chain[1:])] + [("z5", "w", 1)])
    fiber = classify_fiber(cfg3, chain + ["w"])
    assert fiber.kind == "II*"
    assert max(fiber.multiplicities.values()) == 6


def test_classify_rejects_non_fibers():
    cfg = chain_config(["a", "b", "c"])
    with pytest.raises(FiberError) as exc:
        classify_fiber(cfg, ["a", "b", "c"])  # A3 chain: negative definite
    assert str(exc.value) == ("intersection matrix has inertia (0, 3, 0), "
                              "not the fiber signature (0, 2, 1)")
    cfg3 = make_config(["a", "b"], [("a", "b", 3)])
    with pytest.raises(FiberError) as exc:
        classify_fiber(cfg3, ["a", "b"])  # meeting 3 times: hyperbolic
    assert str(exc.value) == ("intersection matrix has inertia (1, 1, 0), "
                              "not the fiber signature (0, 1, 1)")
    cfg2 = make_config(["a", "b"], [])
    with pytest.raises(FiberError):
        classify_fiber(cfg2, ["a", "b"])  # disconnected


def test_classify_permutation_invariant():
    rng = random.Random(7)
    cfg, names = cycle_config(8)
    for _ in range(10):
        shuffled = names[:]
        rng.shuffle(shuffled)
        assert classify_fiber(cfg, shuffled).kind == "I8"


def test_is_fiber_class():
    cfg, names = cycle_config(6)
    e = DivisorClass.from_dict(cfg, {n: 1 for n in names})
    ok, fiber, _ = is_fiber_class(e, cfg)
    assert ok and fiber.kind == "I6"
    ok2, _, diag2 = is_fiber_class(DivisorClass(tuple(2 * c for c in e.coeffs)), cfg)
    assert not ok2 and "multiplicity" in diag2
    chain3 = chain_config(["a", "b", "c"])
    bad = DivisorClass.from_dict(chain3, {"a": 1, "b": 1, "c": 1})
    ok3, _, diag3 = is_fiber_class(bad, chain3)
    assert not ok3 and "-2" in diag3


def _affine_diagram(kind):
    """A configuration whose curves form the dual graph of a fiber of
    the given Kodaira kind."""
    arms = {"II*": (1, 2, 5), "III*": (1, 3, 3), "IV*": (2, 2, 2)}.get(kind)
    if arms:
        # three arms from one center
        names, meets = ["c"], []
        for k, length in enumerate(arms):
            arm = [f"x{k}_{j}" for j in range(length)]
            meets += [(a, b, 1) for a, b in zip(["c"] + arm, arm)]
            names += arm
        return make_config(names, meets)
    if kind.endswith("*"):
        # I_b*: a chain of b + 1 double curves with two leaves at each end
        chain = [f"m{i}" for i in range(int(kind[1:-1]) + 1)]
        meets = [(a, b, 1) for a, b in zip(chain, chain[1:])]
        meets += [("p1", chain[0], 1), ("p2", chain[0], 1),
                  ("q1", chain[-1], 1), ("q2", chain[-1], 1)]
        return make_config(chain + ["p1", "p2", "q1", "q2"], meets)
    return cycle_config(int(kind[1:]))[0]


@pytest.mark.parametrize("kind,root", [
    ("I6", "A5"), ("I4", "A3"), ("II*", "E8"), ("III*", "E7"),
    ("IV*", "E6"), ("I0*", "D4"), ("I2*", "D6"), ("I12*", "D16"),
])
def test_component_group_order_matches_root_discriminant(kind, root):
    # the component group of the smooth locus has one element per
    # multiplicity-1 component, and its order is |det| of the root lattice
    cfg = _affine_diagram(kind)
    fiber = classify_fiber(cfg, cfg.curve_names)
    assert fiber.kind == kind
    order = sum(1 for m in fiber.multiplicities.values() if m == 1)
    disc = 1
    for d in discriminant_group(gram_of(root)):
        disc *= d
    assert order == disc
    assert disc == abs(det_exact(gram_of(root).gram_rows()))


def test_theta_constraints():
    cfg = make_config(
        ["C1", "C2", "H", "H'"],
        [("C1", "H", 1), ("C2", "H", 1), ("C2", "H'", 2), ("H", "H'", 2)])
    f = DivisorClass.from_dict(cfg, {"H": 1, "H'": 1})
    assert theta_constraints(cfg, ("C1", "C2"), [("F", f)]) == []
    # break C.H = 2
    cfg_bad = make_config(
        ["C1", "C2", "H", "H'"],
        [("C1", "H", 1), ("C2", "H", 1), ("C1", "H'", 1),
         ("C2", "H'", 2), ("H", "H'", 2)])
    problems = theta_constraints(cfg_bad, ("C1", "C2"), [])
    assert any("H'" in p for p in problems)
    # meeting fixed curves
    cfg_meet = make_config(["C1", "C2", "H"],
                           [("C1", "C2", 1), ("C1", "H", 1), ("C2", "H", 1)])
    problems = theta_constraints(cfg_meet, ("C1", "C2"), [])
    assert any("C1" in p and "C2" in p for p in problems)


# affine diagrams (fiber supports: I2 by a double bond, I3, I4, I0*, IV*)
# and A_n chains (negative definite), as (size, weighted edges)
_FIBER_SHAPES = [(2, [(0, 1, 2)]), (3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)]),
                 (4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]),
                 (5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)]),
                 (7, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 4, 1), (0, 5, 1), (5, 6, 1)])]
_FAR_CURVE = (1, [])


def _chain(n):
    return n, [(i, i + 1, 1) for i in range(n - 1)]


def _disjoint_blocks(rng, blocks):
    """The blocks as one support of pairwise disjoint pieces, under shuffled
    names and in shuffled order.  A bridge curve outside the support meets
    one curve of every block, so the whole configuration is connected."""
    names, meets, offset = [], [], 0
    for size, edges in blocks:
        block = [f"b{offset + i}" for i in range(size)]
        rng.shuffle(block)
        meets += [(block[i], block[j], k) for i, j, k in edges]
        meets.append(("bridge", rng.choice(block), 1))
        names += block
        offset += size
    support = names[:]
    rng.shuffle(support)
    return make_config(["bridge"] + names, meets), support


def test_disconnected_supports_are_refused_as_not_connected():
    rng = random.Random(20261020)
    families = [
        lambda: [rng.choice(_FIBER_SHAPES), _FAR_CURVE],                # kernel 1, 0 on the far curve
        lambda: [rng.choice(_FIBER_SHAPES), rng.choice(_FIBER_SHAPES)],  # kernel 2
        lambda: [_chain(rng.randint(1, 4)), _chain(rng.randint(1, 4))],  # kernel 0
    ]
    for family in families:
        for _ in range(20):
            blocks = family()
            rng.shuffle(blocks)
            cfg, support = _disjoint_blocks(rng, blocks)
            with pytest.raises(FiberError) as exc:
                classify_fiber(cfg, support)
            assert str(exc.value) == "support is not connected", (blocks, support)


# ---------------------------------------------------------------------------
# Fibers accepted from stated multiplicities

def _no_kernel(monkeypatch):
    """Make any kernel or inertia computation in curves fail the test."""
    import k3cert.curves as curves

    def forbidden(*args):
        raise AssertionError("stated multiplicities need no kernel or inertia")
    monkeypatch.setattr(curves, "kernel_basis", forbidden)
    monkeypatch.setattr(curves, "inertia", forbidden)


def _submatrix(cfg, support):
    idx = [cfg.index(c) for c in support]
    return [[cfg.inter[i][j] for j in idx] for i in idx]


@pytest.mark.parametrize("kind", ["I2", "I6", "I0*", "I3*", "IV*", "III*", "II*"])
def test_stated_multiplicities_are_accepted_without_a_kernel(kind, monkeypatch):
    cfg = make_config(["a", "b"], [("a", "b", 2)]) if kind == "I2" else _affine_diagram(kind)
    names = list(cfg.curve_names)
    expected = classify_fiber(cfg, names)
    _no_kernel(monkeypatch)
    for scale in (1, 3):
        fiber = classify_fiber(cfg, names, [scale * expected.multiplicities[c] for c in names])
        assert fiber.kind == expected.kind == (kind if kind != "I2" else "I2/III")
        assert fiber.multiplicities == expected.multiplicities


def test_twice_a_fiber_is_a_fiber_support_but_not_a_fiber_class(monkeypatch):
    cfg = _affine_diagram("I0*")
    names = list(cfg.curve_names)
    twice = DivisorClass(tuple(2 * classify_fiber(cfg, names).multiplicities[c] for c in names))
    _no_kernel(monkeypatch)
    fiber = classify_fiber(cfg, names, list(twice.coeffs))
    assert fiber.kind == "I0*" and fiber.multiplicities == {
        "m0": 2, "p1": 1, "p2": 1, "q1": 1, "q2": 1}
    assert is_fiber_class(twice, cfg) == (False, fiber, (
        "coefficient of m0 is 4, fiber multiplicity is 2 (non-primitive or wrong class)"))


def test_stated_multiplicities_on_disjoint_fibers_are_refused_as_not_connected():
    # two affine diagrams side by side: each block's null vector makes a
    # positive m with sub.m = 0, yet the support is no fiber
    rng = random.Random(20261021)
    for _ in range(20):
        cfg, support = _disjoint_blocks(rng, [rng.choice(_FIBER_SHAPES),
                                              rng.choice(_FIBER_SHAPES)])
        sub = _submatrix(cfg, support)
        m = [sum(col) for col in zip(*kernel_basis(sub))]
        assert all(x > 0 for x in m)
        assert all(sum(a * x for a, x in zip(row, m)) == 0 for row in sub)
        with pytest.raises(FiberError) as exc:
            classify_fiber(cfg, support, m)
        assert str(exc.value) == "support is not connected", (support, m)


def test_a_mixed_sign_kernel_vector_is_refused_by_inertia():
    # two double bonds joined through one curve: connected and indefinite,
    # and its kernel is spanned by a vector with a zero and negative entries
    names = ["x", "a1", "a2", "b1", "b2"]
    cfg = make_config(names, [("x", "a1", 1), ("a1", "a2", 2), ("x", "b1", 1), ("b1", "b2", 2)])
    assert kernel_basis(_submatrix(cfg, names)) == [[0, -1, -1, 1, 1]]
    for m in ([0, -1, -1, 1, 1], [0, 1, 1, -1, -1]):
        with pytest.raises(FiberError) as exc:
            classify_fiber(cfg, names, m)
        assert str(exc.value) == ("intersection matrix has inertia (1, 3, 1), "
                                  "not the fiber signature (0, 4, 1)")


def test_stated_multiplicities_off_the_kernel_give_the_kernel_verdict():
    # sub.m != 0: the kernel decides, with the same fiber or refusal
    chain = chain_config(["a", "b", "c"])
    with pytest.raises(FiberError) as exc:
        classify_fiber(chain, ["a", "b", "c"], [1, 1, 1])
    assert str(exc.value) == ("intersection matrix has inertia (0, 3, 0), "
                              "not the fiber signature (0, 2, 1)")
    cfg = _affine_diagram("I0*")
    names = list(cfg.curve_names)
    fiber = classify_fiber(cfg, names, [1, 1, 1, 1, 1])
    assert fiber.kind == "I0*" and fiber.multiplicities == {
        "m0": 2, "p1": 1, "p2": 1, "q1": 1, "q2": 1}
    hyperbolic = make_config(["a", "b"], [("a", "b", 3)])
    with pytest.raises(FiberError) as exc:
        classify_fiber(hyperbolic, ["a", "b"], [1, 1])
    assert str(exc.value) == ("intersection matrix has inertia (1, 1, 0), "
                              "not the fiber signature (0, 1, 1)")
