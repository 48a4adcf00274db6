"""Group cochains, cyclic cochains over twisted algebras, and the transfer.

A homogeneous group n-cochain is a left invariant function on (n+1)-fold
tuples of group elements.  Each such cochain c induces a cyclic cochain
tau_c on the twisted algebra, supported on tuples whose product is the
identity and weighted by the convolution phase.  The transfer
intertwines the simplicial differential with the twisted cyclic
boundary, which is checked numerically rather than assumed.

The module also carries the length filtration: Sobolev norms weighted by
word length, the commutator chain with the length operator, and log-log
growth fits for cochains.
"""

from __future__ import annotations

import copy
import itertools
import math
import random
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Sequence

import numpy as np

from .algebra import AlgebraElement
from .errors import TwistlabError
from .groups import Group, FreeAbelianGroup
from .multipliers import Multiplier
from .spectral import relative_tol


class CohomologyError(TwistlabError):
    pass


class GroupCochain:
    """Homogeneous group cochain: function on (degree+1)-tuples."""

    def __init__(self, group: Group, degree: int, fn: Callable):
        if degree < 0:
            raise CohomologyError("degree must be nonnegative")
        self.group = group
        self.degree = degree
        self._fn = fn

    def __call__(self, *args) -> complex:
        if len(args) != self.degree + 1:
            raise CohomologyError(
                f"degree {self.degree} cochain takes {self.degree + 1} arguments")
        return complex(self._fn(*args))

    def differential(self) -> "GroupCochain":
        """Simplicial coboundary: alternating sum over omitted arguments."""
        n = self.degree

        def dfn(*args):
            total = 0.0 + 0.0j
            for i in range(n + 2):
                omitted = args[:i] + args[i + 1:]
                total += (-1) ** i * self._fn(*omitted)
            return total

        return GroupCochain(self.group, n + 1, dfn)

    def check_invariance(self) -> float:
        """Worst defect of left invariance over 100 random translates."""
        rng = random.Random(17)
        worst = 0.0
        grp = self.group
        for _ in range(100):
            h = grp.random_element(rng, 3)
            args = tuple(grp.random_element(rng, 3) for _ in range(self.degree + 1))
            shifted = tuple(grp.multiply(h, g) for g in args)
            worst = max(worst, abs(self(*shifted) - self(*args)))
        return worst

    @classmethod
    def constant(cls, group: Group) -> "GroupCochain":
        return cls(group, 0, lambda g: 1.0)

    @classmethod
    def area_z2(cls, group: FreeAbelianGroup) -> "GroupCochain":
        """Signed area of the lattice triangle (g0, g1, g2), degree 2."""
        if group.rank != 2:
            raise CohomologyError("the area cochain lives on Z^2")

        def fn(g0, g1, g2):
            u = (g1[0] - g0[0], g1[1] - g0[1])
            v = (g2[0] - g0[0], g2[1] - g0[1])
            return (u[0] * v[1] - u[1] * v[0]) / 2.0

        return cls(group, 2, fn)

    @classmethod
    def coordinate_z(cls, group: FreeAbelianGroup, k: int) -> "GroupCochain":
        """Increment of the k-th coordinate along an edge, degree 1."""
        if not 0 <= k < group.rank:
            raise CohomologyError("coordinate index out of range")
        return cls(group, 1, lambda g0, g1: float(g1[k] - g0[k]))


def inhomogeneous(c: GroupCochain) -> Callable:
    """Bar form: cbar(g1, ..., gn) = c(e, g1, g1 g2, ...)."""
    grp = c.group

    def fn(*gs):
        if len(gs) != c.degree:
            raise CohomologyError(f"bar form of degree {c.degree} takes {c.degree} arguments")
        args = [grp.identity()]
        for g in gs:
            args.append(grp.multiply(args[-1], g))
        return c(*args)

    return fn


def homogeneous(group: Group, degree: int, bar_fn: Callable) -> GroupCochain:
    """Rebuild the invariant cochain from its bar form via increments."""

    def fn(*args):
        gs = [
            group.multiply(group.inverse(args[i]), args[i + 1])
            for i in range(degree)
        ]
        return bar_fn(*gs)

    return GroupCochain(group, degree, fn)


class CyclicCochain:
    """Multilinear functional on (degree+1)-tuples of algebra elements.

    The basis function gives the value on delta tuples; evaluation
    expands supports multilinearly.
    """

    def __init__(self, sigma: Multiplier, degree: int, basis_fn: Callable):
        self.sigma = sigma
        self.group = sigma.group
        self.degree = degree
        self._basis_fn = basis_fn

    def basis_value(self, gammas: Sequence) -> complex:
        if len(gammas) != self.degree + 1:
            raise CohomologyError(
                f"degree {self.degree} cochain takes {self.degree + 1} entries")
        return complex(self._basis_fn(tuple(gammas)))

    def evaluate(self, *elements: AlgebraElement) -> complex:
        if len(elements) != self.degree + 1:
            raise CohomologyError(
                f"degree {self.degree} cochain takes {self.degree + 1} elements")
        total = 0.0 + 0.0j

        def rec(i, gammas, coeff):
            nonlocal total
            if i == len(elements):
                total += coeff * self.basis_value(gammas)
                return
            for g in elements[i].support():
                rec(i + 1, gammas + [g], coeff * elements[i].coefficient(g))

        rec(0, [], 1.0 + 0.0j)
        return total

    __call__ = evaluate

    def boundary(self) -> "CyclicCochain":
        """Twisted cyclic boundary, one degree up.

        On delta tuples each neighbor contraction delta_g delta_h
        contributes its convolution phase sigma(g, h) times the cochain
        at the contracted tuple, with simplicial signs and the wrapped
        term closing the cycle.
        """
        n = self.degree
        sigma = self.sigma
        grp = self.group

        def basis(gammas):
            if len(gammas) != n + 2:
                raise CohomologyError("boundary cochain arity mismatch")
            total = 0.0 + 0.0j
            for i in range(n + 1):
                merged = (gammas[:i]
                          + (grp.multiply(gammas[i], gammas[i + 1]),)
                          + gammas[i + 2:])
                total += ((-1) ** i) * sigma.value(gammas[i], gammas[i + 1]) \
                    * self._basis_fn(merged)
            wrapped = (grp.multiply(gammas[n + 1], gammas[0]),) + gammas[1:n + 1]
            total += ((-1) ** (n + 1)) * sigma.value(gammas[n + 1], gammas[0]) \
                * self._basis_fn(wrapped)
            return total

        return CyclicCochain(sigma, n + 1, basis)

    def is_localized(self, seed: int = 19) -> bool:
        """True when off-identity tuples (product != e) evaluate to zero, on 200 samples."""
        rng = random.Random(seed)
        grp = self.group
        e = grp.identity()
        for _ in range(200):
            gammas = [grp.random_element(rng, 3) for _ in range(self.degree + 1)]
            prod = e
            for g in gammas:
                prod = grp.multiply(prod, g)
            if prod == e:
                continue
            if self.basis_value(gammas) != 0:
                return False
        return True


def convolution_phase(sigma: Multiplier, gammas: Sequence) -> complex:
    """Phase of delta_{g0} * ... * delta_{gn} relative to the product delta."""
    grp = sigma.group
    phase = 1.0 + 0.0j
    acc = gammas[0]
    for g in gammas[1:]:
        phase *= sigma.value(acc, g)
        acc = grp.multiply(acc, g)
    return phase


def to_cyclic(c: GroupCochain, sigma: Multiplier) -> CyclicCochain:
    """Transfer a group cochain to a cyclic cochain over the twisted algebra.

    tau_c(delta_{g0}, ..., delta_{gn}) vanishes unless g0 ... gn = e; on
    identity tuples it is the convolution phase times the cochain at the
    partial products (e, g1, g1 g2, ...).
    """
    if c.group != sigma.group:
        raise CohomologyError("cochain and multiplier must share a group")
    grp = c.group
    e = grp.identity()
    cbar = inhomogeneous(c)

    def basis(gammas):
        prod = gammas[0]
        for g in gammas[1:]:
            prod = grp.multiply(prod, g)
        if prod != e:
            return 0.0 + 0.0j
        return convolution_phase(sigma, gammas) * cbar(*gammas[1:])

    return CyclicCochain(sigma, c.degree, basis)


def transfer_boundary_defect(c: GroupCochain, sigma: Multiplier, samples: int = 200,
                             seed: int = 23) -> float:
    """Worst |b tau_c - tau_{dc}| over sampled delta tuples.

    Both sides are multilinear, so delta tuples witness the identity on
    the whole algebra.
    """
    lhs = to_cyclic(c, sigma).boundary()
    rhs = to_cyclic(c.differential(), sigma)
    rng = random.Random(seed)
    grp = sigma.group
    worst = 0.0
    arity = c.degree + 2
    for _ in range(samples):
        gammas = tuple(grp.random_element(rng, 2) for _ in range(arity))
        worst = max(worst, abs(lhs.basis_value(gammas) - rhs.basis_value(gammas)))
    return worst


def sobolev_inner(a: AlgebraElement, b: AlgebraElement, s: float) -> complex:
    """Length weighted pairing sum conj(a_g) b_g (1 + l(g))^{2s}."""
    grp = a.group
    total = 0.0 + 0.0j
    for g in set(a.support()) | set(b.support()):
        try:
            w = (1.0 + grp.word_length(g)) ** (2.0 * s)
        except OverflowError:
            raise CohomologyError(f"Sobolev order s = {s} overflows (1 + l)^(2s)") from None
        total += a.coefficient(g).conjugate() * b.coefficient(g) * w
    return total


def sobolev_norm(a: AlgebraElement, s: float) -> float:
    """sqrt(sobolev_inner(a, a, s)), squared on an unpruned copy of a times 2^-e, every
    coefficient part below 2^e, so that no square overflows where the norm fits.  Products
    by powers of two are exact: the bits are those of the unscaled formula where it fits."""
    if not math.isfinite(s):
        raise CohomologyError(f"Sobolev order must be finite, not {s!r}")
    _, e = math.frexp(max((max(abs(c.real), abs(c.imag)) for c in a.coeffs.values()), default=0.0))
    scaled = copy.copy(a)
    scaled.coeffs = {g: c * math.ldexp(1.0, -e) for g, c in a.coeffs.items()}
    # Times 2^(e - 1), then 2: 2^e itself is past the floats at e = 1024.
    norm = math.sqrt(max(0.0, sobolev_inner(scaled, scaled, s).real)) * math.ldexp(1.0, e - 1) * 2.0
    if not math.isfinite(norm):
        raise CohomologyError(f"the Sobolev norm of order s = {s} overflows a float")
    return norm


@dataclass
class DerivationChainReport:
    """Commutator chain of the length operator against one element.

    ``identity_defect`` is the worst deviation of the j-fold commutator
    column at the identity from the length-weighted coefficients, which
    is an exact identity once the truncation covers the support.
    ``chain_norms`` holds the l2 norms of those columns, and the bound
    fields audit the binomial comparison with the Sobolev norm.
    """

    j_max: int
    radius: int
    identity_defect: float
    chain_norms: list = field(default_factory=list)
    bound_constants: list = field(default_factory=list)
    bound_margins: list = field(default_factory=list)
    bound_ok: bool = True


def derivation_chain(a: AlgebraElement, j_max: int = 4) -> DerivationChainReport:
    """Iterated commutators with the word length operator on a truncation.

    The chain d^j(x) = [D, d^{j-1}(x)] applied to the identity basis
    vector reproduces the coefficients weighted by l(g)^j exactly, because
    the length operator annihilates the identity.  The Sobolev norm of
    order j is then controlled by the chain norms times the middle
    binomial coefficient:

        ||a||_{H^j} <= binom(j, floor(j/2)) * sum_{k<=j} ||d^k(x) e||_2.
    """
    from .representations import left_regular

    if j_max < 0:
        raise CohomologyError(f"chain order j_max must be >= 0, not {j_max}")
    # First, so that an order or a norm too large for a float fails as a CohomologyError.
    sobolev = [sobolev_norm(a, j) for j in range(j_max + 1)]
    radius = a.support_radius()
    op = left_regular(a, radius)
    grp = a.group
    lengths = np.array([grp.word_length(g) for g in op.basis], dtype=float)
    dmat = np.diag(lengths)
    e_col = op.index[grp.identity()]
    current = op.matrix.copy()
    defect = 0.0
    norms = []
    # An overflow here is raised once, by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(j_max + 1):
            if j > 0:
                current = dmat @ current - current @ dmat
            col = current[:, e_col]
            expect = np.zeros_like(col)
            for g in a.support():
                expect[op.index[g]] = a.coefficient(g) * grp.word_length(g) ** j
            defect = max(defect, float(np.abs(col - expect).max()))
            norms.append(float(np.linalg.norm(col)))
    constants = []
    margins = []
    ok = True
    for j in range(j_max + 1):
        c_j = comb(j, j // 2)
        lhs = sobolev[j]
        try:
            rhs = c_j * sum(norms[: j + 1])
        except OverflowError:
            raise CohomologyError(f"the chain constant binom({j}, {j // 2}) at order j = {j} "
                                  "overflows a float") from None
        constants.append(c_j)
        margins.append(rhs - lhs)
        if lhs > rhs + relative_tol(rhs):
            ok = False
    if not all(map(math.isfinite, norms + margins)):
        raise CohomologyError(f"the derivation chain up to order {j_max} overflows a float")
    return DerivationChainReport(j_max, radius, defect, norms, constants, margins, ok)


def growth_fit(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least squares slope of log y against log x (zero values dropped)."""
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    slope = np.polyfit(lx, ly, 1)[0]
    return float(slope)


def cochain_growth(c: GroupCochain, radii: Sequence[int]) -> float:
    """Growth exponent of sup |c(e, g1, g2, ...)| over increasing balls."""
    grp = c.group
    sups = []
    for r in radii:
        ball = grp.ball(r)
        worst = 0.0
        e = grp.identity()
        rng = random.Random(29 + r)
        tuples_needed = c.degree
        if len(ball) ** tuples_needed <= 20000:
            combos = itertools.product(ball, repeat=tuples_needed)
        else:
            combos = (
                tuple(rng.choice(ball) for _ in range(tuples_needed))
                for _ in range(20000)
            )
        for tail in combos:
            worst = max(worst, abs(c(e, *tail)))
        sups.append(worst)
    return growth_fit(list(radii), sups)

