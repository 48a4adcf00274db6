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
from typing import Callable, Sequence

import numpy as np

from .algebra import AlgebraElement, _same_multiplier, json_coefficient, random_element
from .errors import TwistlabError
from .groups import FiniteTableGroup, Homomorphism, ProductGroup
from .multipliers import CheckReport, Multiplier, PhaseMap, all_characters, product_characters
from .spectral import relative_tol


class TraceError(TwistlabError):
    pass


class TraceFunctional:
    """Linear functional tau(a) = sum_g weight(g) a_g on a twisted algebra.

    Weights are stored either as a finite dict or as a callable for
    functionals with infinite support (summation, pullback along a map
    with infinite kernel).  ``weights()`` materializes the finite dict
    when one exists and raises otherwise.
    """

    def __init__(self, sigma: Multiplier, weights=None, weight_fn: Callable | None = None,
                 kind: str = "custom", label: str = ""):
        if (weights is None) == (weight_fn is None):
            raise TraceError("provide exactly one of weights or weight_fn")
        self.sigma = sigma
        self.group = sigma.group
        self._weights = None
        self._weight_fn = weight_fn
        if weights is not None:
            self._weights = {g: complex(c) for g, c in weights.items() if complex(c) != 0}
        self.kind = kind
        self.label = label or kind

    def weight(self, g) -> complex:
        if self._weights is not None:
            return self._weights.get(g, 0.0 + 0.0j)
        return complex(self._weight_fn(g))

    def weights(self) -> dict:
        """Finite weight map; materialized from the group when possible."""
        if self._weights is not None:
            return dict(self._weights)
        if self.group.is_finite():
            out = {}
            for g in self.group.elements():
                c = complex(self._weight_fn(g))
                if c != 0:
                    out[g] = c
            return out
        raise TraceError(f"{self.label}: no finite weight support on an infinite group")

    def value(self, a: AlgebraElement) -> complex:
        if not _same_multiplier(a.sigma, self.sigma):
            raise TraceError("element lives on a different twisted algebra")
        if self._weights is not None:
            return sum((c * a.coefficient(g) for g, c in self._weights.items()), 0.0 + 0.0j)
        return sum((complex(self._weight_fn(g)) * a.coefficient(g) for g in a.support()),
                   0.0 + 0.0j)

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
    group = sigma.group
    weights = {
        group.element_from_json(item["g"]): json_coefficient(item)
        for item in data["weights"]
    }
    return TraceFunctional(sigma, weights, kind=data.get("kind", "custom"),
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
    return TraceFunctional(sigma, weight_fn=lambda g: 1.0, kind="summation", label="tr_sum")


def character_functional(sigma: Multiplier, chi: PhaseMap) -> TraceFunctional:
    """Weight map g -> chi(g) for a character chi of the group."""
    return TraceFunctional(sigma, weight_fn=lambda g: chi(g), kind="character")


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
    e_r = group.right.identity()
    try:
        weights = {(g, e_r): c for g, c in tau_left.weights().items()}
        return TraceFunctional(sigma, weights, kind="product",
                               label=f"{tau_left.label}(x)tr_e")
    except TraceError:
        fn = tau_left.weight
        return TraceFunctional(
            sigma,
            weight_fn=lambda pair: fn(pair[0]) if pair[1] == e_r else 0.0,
            kind="product", label=f"{tau_left.label}(x)tr_e")


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
        worst, witness = 0.0, None
        eye = np.eye(self.dim)
        mats, mul, elements = self._matrices, self.group.multiply, self.group.elements()
        for g in elements:
            cases = [((g, None), mats[g] @ mats[g].conj().T - eye)]
            cases += [((g, h), mats[g] @ mats[h] - mats[mul(g, h)]) for h in elements]
            for case, diff in cases:
                defect = float(np.abs(diff).max())
                if defect > worst:
                    worst, witness = defect, case
        passed = worst <= relative_tol(1.0)
        return CheckReport(passed, len(elements) ** 2, worst, None if passed else witness, "exhaustive")


def unitary_trace(u: UnitaryRep, pi: Homomorphism, tau_h: TraceFunctional,
                  sigma: Multiplier) -> TraceFunctional:
    """Weight g -> tr u(g) times the pulled back weight of pi(g).

    With pi the identity and tau_h the canonical trace, only g = e
    contributes and the value is dim(u) a_e regardless of the choice of
    representation.
    """
    if u.group != sigma.group:
        raise TraceError("representation must live on the algebra group")
    return TraceFunctional(sigma, weight_fn=lambda g: u.character(g) * tau_h.weight(pi(g)),
                           kind="unitary")


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


def _worst_case(samples, defect: Callable) -> CheckReport:
    """Worst defect(*sample) over the samples with its first witness; the law holds at <= 1e-10.

    A NaN defect is worse than any number: the first one is the witness, and the law fails.
    """
    worst, witness, checked = 0.0, None, 0
    for checked, sample in enumerate(samples, 1):
        d = defect(*sample)
        if d > worst or (math.isnan(d) and not math.isnan(worst)):
            worst, witness = d, sample
    holds = worst <= 1e-10
    return CheckReport(holds, checked, worst, None if holds else witness, "sampled")


def check_trace_property(tau: TraceFunctional, seed: int = 11) -> CheckReport:
    """Sample tau(a b) = tau(b a) on 40 random pairs, after every pair of deltas of ball(2) if
    that has at most 12 elements (so not on Z^2, where it has 13); keeps the worst witness."""
    rng = random.Random(seed)
    return _worst_case(_sample_pairs(tau.sigma, rng),
                       lambda a, b: abs(tau(a.convolve(b)) - tau(b.convolve(a))))


def check_positivity(tau: TraceFunctional, seed: int = 12) -> CheckReport:
    """Sample tau(a* a) real and nonnegative on 40 random elements."""
    def defect(a):
        v = tau(a.star().convolve(a))
        # max would drop a NaN real part behind a number; NaN is no nonnegative real.
        return math.nan if cmath.isnan(v) else max(abs(v.imag), max(0.0, -v.real))

    rng = random.Random(seed)
    samples = ((random_element(tau.sigma, rng, 3, 2),) for _ in range(40))
    return _worst_case(samples, defect)


def check_invariance(tau: TraceFunctional, chi: PhaseMap) -> CheckReport:
    """Invariance under the gauge action a_g -> chi(g) a_g of a character.

    The action is an automorphism of the same algebra (the coboundary of
    a character vanishes), and a functional is invariant exactly when its
    weights sit where chi = 1.
    """
    rng = random.Random(13)
    samples = ((random_element(tau.sigma, rng, 3, 2),) for _ in range(40))
    return _worst_case(samples, lambda a: abs(tau(a.apply_phase_map(chi, tau.sigma)) - tau(a)))


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
