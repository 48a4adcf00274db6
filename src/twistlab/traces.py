"""Invariant linear functionals on twisted group algebras.

A functional here is a weight map g -> c_g applied to coefficients,
tau(a) = sum c_g a_g.  The canonical trace weights the identity alone;
delocalized functionals weight conjugacy classes away from the identity.
Whether a weight map is an honest trace depends on the multiplier, so
every functional can be audited against the trace, positivity and
invariance laws, each audit a sampled ``CheckReport`` with its witness.
"""

from __future__ import annotations

import cmath
import math
import random
from collections.abc import Mapping
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, json_terms, random_element
from .errors import TwistlabError
from .groups import FiniteTableGroup, Homomorphism, ProductGroup
from .multipliers import (CheckReport, Multiplier, PhaseMap, _same_multiplier, all_characters,
                          product_characters)
from .spectral import relative_tol


class TraceError(TwistlabError):
    pass


class TraceFunctional:
    """Linear functional tau(a) = sum_g weight(g) a_g on a twisted algebra.

    ``weights`` is a finite mapping g -> c_g, each key an element of the
    group, or a callable g -> c_g for functionals whose support may be
    infinite (summation, characters).  ``support`` lists the elements of
    nonzero weight when the mapping is finite, else it is None.
    """

    def __init__(self, sigma: Multiplier, weights, kind: str = "custom", label: str = ""):
        if isinstance(weights, Mapping):
            for g in weights:
                sigma.group.check_element(g)
            table = {g: complex(c) for g, c in weights.items() if complex(c) != 0}
            self.support, self._weight = list(table), lambda g: table.get(g, 0.0 + 0.0j)
        elif callable(weights):
            self.support, self._weight = None, weights
        else:
            raise TraceError(f"weights must be a mapping or a callable, not {weights!r}")
        self.sigma = sigma
        self.group = sigma.group
        self.kind = kind
        self.label = label or kind

    def weight(self, g) -> complex:
        return complex(self._weight(g))

    def weights(self) -> dict:
        """Finite weight map, over the support or else over a finite group's elements."""
        if self.support is None and not self.group.is_finite():
            raise TraceError(f"{self.label}: no finite weight support on an infinite group")
        elements = self.group.elements() if self.support is None else self.support
        return {g: c for g in elements if (c := self.weight(g)) != 0}

    def value(self, a: AlgebraElement) -> complex:
        """The sum over the support, or over a's sorted support when the support is None."""
        if not _same_multiplier(a.sigma, self.sigma):
            raise TraceError("element lives on a different twisted algebra")
        elements = a.support() if self.support is None else self.support
        return sum((self.weight(g) * a.coefficient(g) for g in elements), 0.0 + 0.0j)

    __call__ = value

    @property
    def is_delocalized(self) -> bool:
        """True when the identity coefficient does not contribute."""
        return self.weight(self.group.identity()) == 0

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "weights": [
                {"g": self.group.element_to_json(g), "re": w.real, "im": w.imag}
                for g, w in sorted(self.weights().items(), key=lambda kv: self.group.element_key(kv[0]))
            ],
        }

    def __repr__(self) -> str:
        return f"TraceFunctional({self.label})"


def trace_from_json(data: dict, sigma: Multiplier) -> TraceFunctional:
    """The functional {"kind", "label", "weights": [{"g", "re", "im"}, ...]}, its weights read by
    algebra.json_terms as element terms are: the weights of a repeated element sum."""
    return TraceFunctional(sigma, json_terms(sigma.group, data, "weights"), kind=data.get("kind", "custom"),
                           label=data.get("label", ""))


def regular_trace(sigma: Multiplier) -> TraceFunctional:
    """The canonical trace a -> a_e; a trace for every multiplier."""
    return TraceFunctional(sigma, {sigma.group.identity(): 1.0}, kind="regular", label="tr_e")


def summation_trace(sigma: Multiplier) -> TraceFunctional:
    """Coefficient sum a -> sum_g a_g, the trivial one dimensional weight.

    This is a trace exactly when the multiplier is symmetric; on a
    magnetic lattice algebra it fails the trace law and the failure is
    the basic obstruction to delocalized functionals there.
    """
    return TraceFunctional(sigma, lambda g: 1.0, kind="summation", label="tr_sum")


def character_functional(sigma: Multiplier, chi: PhaseMap) -> TraceFunctional:
    """Weight map g -> chi(g) for a character chi of the group."""
    return TraceFunctional(sigma, chi, kind="character")


def conjugacy_functional(sigma: Multiplier, g) -> TraceFunctional:
    """Indicator weight of the conjugacy class of g (delocalized for g != e)."""
    cls = sigma.group.conjugacy_class(g)
    return TraceFunctional(sigma, {h: 1.0 for h in cls}, kind="conjugacy",
                           label=f"tr<{sigma.group.element_to_json(g)}>")


def linear_combination(pairs: Sequence[tuple]) -> TraceFunctional:
    """Finite linear combination sum c_i tau_i over one algebra."""
    if not pairs:
        raise TraceError("empty combination")
    sigma = pairs[0][1].sigma
    weights: dict = {}
    for c, tau in pairs:
        if not _same_multiplier(tau.sigma, sigma):
            raise TraceError("functionals live on different algebras")
        for g, w in tau.weights().items():
            weights[g] = weights.get(g, 0.0 + 0.0j) + complex(c) * w
    return TraceFunctional(sigma, weights, kind="combination", label="combination")


def product_trace(tau_left: TraceFunctional, sigma: Multiplier) -> TraceFunctional:
    """tau (x) tr_e on a product algebra: weight (g, e) -> tau weight of g.

    The right factor contributes only through its identity coefficient,
    so the product is a trace whenever tau_left is one; the cross phases
    of a product multiplier cancel along (h, h^{-1}) pairs.
    """
    group = sigma.group
    if not isinstance(group, ProductGroup):
        raise TraceError("product trace needs a product group")
    if tau_left.group != group.left:
        raise TraceError("left functional must live on the left factor")
    e_r, fn = group.right.identity(), tau_left.weight
    weights = ({(g, e_r): fn(g) for g in tau_left.support} if tau_left.support is not None
               else lambda pair: fn(pair[0]) if pair[1] == e_r else 0.0)
    return TraceFunctional(sigma, weights, kind="product", label=f"{tau_left.label}(x)tr_e")


class UnitaryRep:
    """Unitary representation of a finite group by explicit matrices.

    Raises TraceError unless the map holds one finite square matrix per group
    element, all of one size of at least 1; ``verify`` checks the unitary laws."""

    def __init__(self, group: FiniteTableGroup, matrices: dict):
        mats = {g: np.asarray(m, dtype=complex) for g, m in matrices.items()}
        if mats.keys() != set(group.elements()):
            raise TraceError(f"a unitary representation needs a matrix for each of the {group.n} "
                             f"group elements and no other key")
        shape = mats[group.identity()].shape
        if (len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1
                or any(m.shape != shape for m in mats.values())):
            raise TraceError("a unitary representation needs nonempty square matrices of one size")
        if not all(np.isfinite(m).all() for m in mats.values()):
            raise TraceError("a unitary representation needs finite matrix entries")
        self.group = group
        self.dim = shape[0]
        self._matrices = mats

    def matrix(self, g) -> np.ndarray:
        return self._matrices[g]

    def character(self, g) -> complex:
        return complex(np.trace(self._matrices[g]))

    @classmethod
    def regular(cls, group: FiniteTableGroup) -> "UnitaryRep":
        """Left regular permutation representation, dimension |G|."""
        n = group.n
        mats = {}
        for g in group.elements():
            m = np.zeros((n, n))
            for x in group.elements():
                m[group.multiply(g, x), x] = 1.0
            mats[g] = m
        return cls(group, mats)

    @classmethod
    def from_character(cls, chi: PhaseMap) -> "UnitaryRep":
        group = chi.group
        mats = {g: np.array([[chi(g)]]) for g in group.elements()}
        return cls(group, mats)

    @classmethod
    def direct_sum(cls, reps: Sequence["UnitaryRep"]) -> "UnitaryRep":
        """The block diagonal sum; raises TraceError for no summands or summands on different groups."""
        if not reps:
            raise TraceError("a direct sum needs at least one representation")
        group = reps[0].group
        if any(r.group != group for r in reps):
            raise TraceError("a direct sum needs representations of one group")
        mats = {}
        for g in group.elements():
            blocks = [r.matrix(g) for r in reps]
            dim = sum(b.shape[0] for b in blocks)
            m = np.zeros((dim, dim), dtype=complex)
            at = 0
            for b in blocks:
                m[at:at + b.shape[0], at:at + b.shape[0]] = b
                at += b.shape[0]
            mats[g] = m
        return cls(group, mats)

    def verify(self) -> CheckReport:
        """u(g) u(h) = u(gh) on every pair and u(g) unitary (witness (g, None)), each to the
        largest entry of the difference; passes at relative_tol(1.0), the scale of unitary entries."""
        eye = np.eye(self.dim)
        mats, mul, elements = self._matrices, self.group.multiply, self.group.elements()

        def defect(g, h):
            diff = mats[g] @ mats[g].conj().T - eye if h is None else mats[g] @ mats[h] - mats[mul(g, h)]
            return float(np.abs(diff).max())

        cases = ((g, h) for g in elements for h in (None, *elements))
        return CheckReport.from_cases(cases, defect, relative_tol(1.0), "exhaustive")


def unitary_trace(u: UnitaryRep, pi: Homomorphism, tau_h: TraceFunctional,
                  sigma: Multiplier) -> TraceFunctional:
    """Weight g -> tr u(g) times the pulled back weight of pi(g).

    With pi the identity and tau_h the canonical trace, only g = e
    contributes and the value is dim(u) a_e regardless of the choice of
    representation.
    """
    if u.group != sigma.group:
        raise TraceError("representation must live on the algebra group")
    return TraceFunctional(sigma, lambda g: u.character(g) * tau_h.weight(pi(g)), kind="unitary")


def matrix_trace(tau: TraceFunctional, blocks: Sequence[Sequence[AlgebraElement]]) -> complex:
    """Apply tau entrywise down the diagonal of a matrix over the algebra."""
    n = len(blocks)
    for row in blocks:
        if len(row) != n:
            raise TraceError("matrix of algebra elements must be square")
    return sum((tau(blocks[i][i]) for i in range(n)), 0.0 + 0.0j)


def _sample_pairs(sigma: Multiplier, rng: random.Random):
    ball = sigma.group.ball(2)
    # Delta pairs over a small ball give sharp witnesses; random elements
    # cover mixed supports.
    if len(ball) ** 2 <= 4 * 40:
        for g in ball:
            for h in ball:
                yield AlgebraElement(sigma, [(g, 1.0)]), AlgebraElement(sigma, [(h, 1.0)])
    for _ in range(40):
        yield random_element(sigma, rng, 3, 2), random_element(sigma, rng, 3, 2)


# The defect at which an audit's law holds: absolute, whatever the functional's scale (ROADMAP item 15).
_AUDIT_TOL = 1e-10


def check_trace_property(tau: TraceFunctional, seed: int = 11) -> CheckReport:
    """Sample tau(a b) = tau(b a) on 40 random pairs, after every pair of deltas of ball(2) if
    that has at most 12 elements (so not on Z^2, where it has 13); keeps the worst witness."""
    rng = random.Random(seed)
    return CheckReport.from_cases(_sample_pairs(tau.sigma, rng),
                                  lambda a, b: abs(tau(a.convolve(b)) - tau(b.convolve(a))), _AUDIT_TOL)


def check_positivity(tau: TraceFunctional, seed: int = 12) -> CheckReport:
    """Sample tau(a* a) real and nonnegative on 40 random elements."""
    def defect(a):
        v = tau(a.star().convolve(a))
        # max would drop a NaN real part behind a number; NaN is no nonnegative real.
        return math.nan if cmath.isnan(v) else max(abs(v.imag), max(0.0, -v.real))

    rng = random.Random(seed)
    samples = ((random_element(tau.sigma, rng, 3, 2),) for _ in range(40))
    return CheckReport.from_cases(samples, defect, _AUDIT_TOL)


def check_invariance(tau: TraceFunctional, chi: PhaseMap) -> CheckReport:
    """Invariance under the gauge action a_g -> chi(g) a_g of a character.

    The action is an automorphism of the same algebra (the coboundary of
    a character vanishes), and a functional is invariant exactly when its
    weights sit where chi = 1.
    """
    rng = random.Random(13)
    samples = ((random_element(tau.sigma, rng, 3, 2),) for _ in range(40))
    return CheckReport.from_cases(samples, lambda a: abs(tau(a.apply_phase_map(chi, tau.sigma)) - tau(a)),
                                  _AUDIT_TOL)


def character_functionals(sigma: Multiplier) -> list[TraceFunctional]:
    """One functional per character of a finite (or product) group."""
    group = sigma.group
    if isinstance(group, FiniteTableGroup):
        chis = all_characters(group)
    elif isinstance(group, ProductGroup):
        chis = product_characters(group)
    else:
        raise TraceError("character enumeration needs a finite group")
    return [character_functional(sigma, chi) for chi in chis]
