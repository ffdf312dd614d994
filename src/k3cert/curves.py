"""Configurations of (-2)-curves, divisor classes and Kodaira fiber
recognition from weighted dual graphs.

A fiber support is accepted when the kernel of its restricted
intersection matrix is spanned by one positive vector (Zariski's lemma):
that vector gives the component multiplicities, and the graph shape
decides the Kodaira kind.  A divisor's support is accepted from its own
coefficients m, with no kernel computed, when m > 0, the support is
connected and G.m = 0: by Perron-Frobenius such an m spans the kernel.
On the kernel path a disconnected support never passes, so there
connectivity, like inertia, is computed only to word a refusal.
Two curves meeting twice cannot be told apart from a tangential meeting
at the lattice level, so a 2-component fiber is reported as "I2/III".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import K3CertError
from .exactlinalg import inertia, kernel_basis


class ConfigError(K3CertError):
    """A configuration that cannot be built.  meeting is the index of the
    offending (name, name, k) triple given to make_config, or None when
    no one meeting is at fault."""

    def __init__(self, message, meeting=None):
        super().__init__(message)
        self.meeting = meeting


class FiberError(K3CertError):
    pass


@dataclass(frozen=True)
class CurveConfig:
    curve_names: tuple
    inter: tuple  # symmetric tuple-of-tuples, diagonal -2
    pos: dict = field(compare=False, repr=False)  # curve name -> index

    def index(self, name):
        try:
            return self.pos[name]
        except KeyError:
            raise ConfigError(f"unknown curve {name!r}") from None

    def meet(self, a, b):
        return self.inter[self.index(a)][self.index(b)]

    def meet_class(self, name, d):
        """C . D for the curve C of that name and a divisor class D."""
        return sum(k * c for k, c in zip(self.inter[self.index(name)], d.coeffs))

    @property
    def size(self):
        return len(self.curve_names)


def make_config(names, meetings):
    """Build a CurveConfig from curve names and (name, name, k) triples.

    Unlisted pairs meet 0 times; the diagonal is fixed at -2.  A pair
    is listed at most once, in either order.
    """
    names = list(names)
    if len(set(names)) != len(names):
        raise ConfigError("duplicate curve names")
    n = len(names)
    pos = {c: i for i, c in enumerate(names)}
    m = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    zeros = set()       # pairs listed as meeting 0 times, which m cannot tell
    for t, (a, b, k) in enumerate(meetings):
        if a not in pos or b not in pos:
            missing = a if a not in pos else b
            raise ConfigError(f"unknown curve {missing!r}", t)
        if a == b:
            raise ConfigError(f"diagonal of {a!r} is fixed at -2", t)
        if k < 0:
            raise ConfigError("intersection numbers are nonnegative off the diagonal", t)
        i, j = pos[a], pos[b]
        if m[i][j] or zeros and ((i, j) in zeros or (j, i) in zeros):
            raise ConfigError(f"meeting of {a!r} and {b!r} is listed twice", t)
        if not k:
            zeros.add((i, j))
        m[i][j] = m[j][i] = k
    return CurveConfig(tuple(names), tuple(tuple(r) for r in m), pos)


@dataclass(frozen=True)
class DivisorClass:
    coeffs: tuple  # parallel to cfg.curve_names

    @classmethod
    def from_dict(cls, cfg, d):
        v = [0] * cfg.size
        for name, c in d.items():
            v[cfg.index(name)] = c
        return cls(tuple(v))

    def to_dict(self, cfg):
        return {n: c for n, c in zip(cfg.curve_names, self.coeffs) if c}

    def support(self, cfg):
        return [n for n, c in zip(cfg.curve_names, self.coeffs) if c]

    def is_effective(self):
        return all(c >= 0 for c in self.coeffs)


def pairing(d1, d2, cfg):
    """Intersection number D1 . D2 in the configuration."""
    if len(d1.coeffs) != cfg.size or len(d2.coeffs) != cfg.size:
        raise ConfigError("divisor class is not indexed by this configuration")
    total = 0
    for i, a in enumerate(d1.coeffs):
        if a:
            row = cfg.inter[i]
            for j, b in enumerate(d2.coeffs):
                if b:
                    total += a * row[j] * b
    return total


@dataclass(frozen=True)
class KodairaFiber:
    kind: str                 # "I_n" as "In", "I_b*" as "Ib*", "II*", "III*", "IV*", "I2/III"
    multiplicities: dict = field(compare=False)

    @property
    def component_count(self):
        return len(self.multiplicities)


def _connected(sub):
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j, k in enumerate(sub[i]):
            if k > 0 and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(sub)


def classify_fiber(cfg, support, m=None):
    """Kodaira type of a connected configuration of (-2)-curves.

    Returns a KodairaFiber whose multiplicities span the kernel of the
    restricted intersection matrix.  m, when given, is a stated
    multiplicity vector in support order: it is checked, not solved for,
    and any m that fails the check leaves the kernel to decide.  Raises
    FiberError when the support is not the dual graph of a fiber.
    """
    support = list(support)
    if not support:
        raise FiberError("empty support")
    idx = [cfg.index(c) for c in support]
    sub = [[cfg.inter[i][j] for j in idx] for i in idx]
    r = len(support)
    # The diagonal is -2 and the off-diagonal part is nonnegative.  On a
    # connected support it is irreducible, and by Perron-Frobenius the
    # signature is (0, r-1, 1) exactly when the kernel is one line spanned
    # by a positive vector.  A positive m with sub.m = 0 is that vector,
    # so the kernel is Q.m and m/gcd(m) is what kernel_basis would return.
    # All three tests are needed: two affine diagrams side by side have a
    # positive m with sub.m = 0, and a mixed-sign m can span the kernel of
    # an indefinite support.
    if (m is not None and all(x > 0 for x in m)
            and all(sum(a * x for a, x in zip(row, m)) == 0 for row in sub)
            and _connected(sub)):
        g = gcd(*m)
        mults = {c: x // g for c, x in zip(support, m)}
    else:
        # kernel_basis makes its vector primitive and positive at its free
        # column.  A disconnected support never passes: its kernel is the
        # direct sum of its blocks' kernels, so it has dimension != 1 or
        # its one vector is 0 on a block.
        kern = kernel_basis(sub)
        if len(kern) != 1 or any(x <= 0 for x in kern[0]):
            if not _connected(sub):
                raise FiberError("support is not connected")
            raise FiberError(
                f"intersection matrix has inertia {inertia(sub)}, "
                f"not the fiber signature (0, {r-1}, 1)")
        mults = dict(zip(support, kern[0]))
    # An accepted support is an affine ADE diagram: A~1 with its double
    # bond when r == 2, else a simply laced cycle (A~) or tree (D~, E~),
    # so the shape only has to name the Kodaira kind.
    if r == 2:
        return KodairaFiber("I2/III", mults)
    degree = [sum(k > 0 for k in row) for row in sub]
    branch = [d for d in degree if d >= 3]
    if not branch:
        return KodairaFiber(f"I{r}", mults)
    if len(branch) == 2:
        return KodairaFiber(f"I{r - 5}*", mults)
    if branch[0] == 4:
        return KodairaFiber("I0*", mults)
    # E~6, E~7, E~8: one node of degree 3
    return KodairaFiber({7: "IV*", 8: "III*", 9: "II*"}[r], mults)


def classify_support(cfg, d):
    """The one classification of Supp d: (KodairaFiber, "") or, when
    classify_fiber refuses the support, (None, its reason).  d's own
    coefficients are the stated multiplicities."""
    try:
        return classify_fiber(cfg, d.support(cfg), [c for c in d.coeffs if c]), ""
    except FiberError as exc:
        return None, str(exc)


def is_fiber_class(d, cfg, classified=None):
    """Check that an effective divisor is a primitive fiber class.

    classified is classify_support(cfg, d) when the caller has it.
    Returns (ok, fiber_or_None, diagnostics).
    """
    if not d.is_effective():
        raise FiberError("divisor class is not effective")
    supp = d.support(cfg)
    if not supp:
        return False, None, "empty divisor"
    sq = pairing(d, d, cfg)
    if sq != 0:
        return False, None, f"self-intersection {sq} != 0"
    fiber, refusal = classify_support(cfg, d) if classified is None else classified
    if fiber is None:
        return False, None, refusal
    for name in supp:
        if d.coeffs[cfg.index(name)] != fiber.multiplicities[name]:
            return False, fiber, (
                f"coefficient of {name} is {d.coeffs[cfg.index(name)]}, "
                f"fiber multiplicity is {fiber.multiplicities[name]} (non-primitive or wrong class)")
    return True, fiber, f"fiber of type {fiber.kind}"


def fiber_class_verdict(d, cfg, classified=None):
    """is_fiber_class, with a divisor that is not effective reported as
    (False, None, reason) instead of raised."""
    try:
        return is_fiber_class(d, cfg, classified)
    except FiberError as exc:
        return False, None, str(exc)


def kinds_compatible(expected, actual):
    """Whether a record's fiber label matches the classifier verdict.

    I2 and III are lattice-indistinguishable and both match "I2/III".
    """
    if expected == actual:
        return True
    if actual == "I2/III" and expected in ("I2", "III", "I2/III"):
        return True
    return False


def theta_constraints(cfg, fixed_curves, fiber_classes=()):
    """Constraints on the fixed locus of the NS-trivial involution.

    fixed_curves C_1..C_k must be pairwise disjoint; every other curve H
    meets their sum exactly twice; every given fiber class F meets the
    sum exactly 4 times.  Returns a list of violation strings (empty on
    success).
    """
    problems = []
    for i, a in enumerate(fixed_curves):
        for b in fixed_curves[i + 1:]:
            if cfg.meet(a, b) != 0:
                problems.append(f"fixed curves {a} and {b} meet ({cfg.meet(a, b)})")
    fixed = {cfg.index(c) for c in fixed_curves}
    for i, (h, row) in enumerate(zip(cfg.curve_names, cfg.inter)):
        if i in fixed:
            continue
        v = sum(row[j] for j in fixed)
        if v != 2:
            problems.append(f"C.{h} = {v}, expected 2")
    for label, f in fiber_classes:
        v = sum(cfg.meet_class(c, f) for c in fixed_curves)
        if v != 4:
            problems.append(f"C.{label} = {v}, expected 4")
    return problems
