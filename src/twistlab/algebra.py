"""Finitely supported elements of a twisted group algebra.

An element is a complex linear combination of point masses delta_g with
twisted convolution

    (a * b)(g) = sum over g1 g2 = g of a(g1) b(g2) sigma(g1, g2)

and involution (c delta_g)^* = conj(c) conj(sigma(g, g^-1)) delta_{g^-1}.
Coefficients below PRUNE_TOL are dropped after every operation; NaN or
infinite coefficients are rejected.  The results of the arithmetic here
skip the constructor's element checks but keep the finiteness check and the prune.

A normal-form multiplier gives sigma(g1, g2) as ``phases.root(r, D)`` for
the residue r of an integer numerator mod D, and ``convolve`` computes each
residue's root once per call, in a memo that lives only for that call: D can
be 10^9 + 7, so no table outlives it.  Lazy multipliers are evaluated pair
by pair through ``sigma.value``, which reads the same ``root``.
``distance_l1`` is the l1 norm of a difference, summed as
``(a - b).norm_l1()`` sums it, without building the difference.
"""

from __future__ import annotations

import cmath
import random
import reprlib
from collections.abc import Iterable, Mapping

from .errors import TwistlabError
from .multipliers import Multiplier, MultiplierError, PhaseMap, _same_multiplier, is_cohomologous_via
from .phases import root

PRUNE_TOL = 1e-15


class AlgebraError(TwistlabError):
    """Raised for mismatched algebras or malformed element data."""


def _pruned(c: complex) -> complex | None:
    """c, or None where an element drops it (|c| <= PRUNE_TOL); raises AlgebraError unless finite."""
    if not cmath.isfinite(c):
        raise AlgebraError("coefficients must be finite")
    return c if abs(c) > PRUNE_TOL else None


def _checked(data: dict) -> dict:
    """data without its coefficients of modulus PRUNE_TOL or less; raises if one is not finite."""
    out = {}  # a loop, not a comprehension: most dicts here hold one to four terms
    for g, c in data.items():
        if (c := _pruned(c)) is not None:
            out[g] = c
    return out


def _add_into(out: dict, other: dict) -> dict:
    """out + other coefficientwise, in place: other's new keys go last, in its order."""
    get = out.get
    for g, c in other.items():
        out[g] = get(g, 0.0) + c
    return out


class AlgebraElement:
    """A finitely supported function on the group, tied to a multiplier."""

    __slots__ = ("sigma", "group", "coeffs")

    def __init__(self, sigma: Multiplier, coeffs: Mapping | Iterable = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        data: dict = {}
        for g, c in items:
            c = complex(c)
            sigma.group.check_element(g)
            if g in data:
                c = data[g] + c
            data[g] = c
        self._set(sigma, data)

    def _set(self, sigma: Multiplier, data: dict) -> None:
        self.coeffs = _checked(data)
        self.sigma = sigma
        self.group = sigma.group

    @classmethod
    def _from_dict(cls, sigma: Multiplier, data: dict) -> "AlgebraElement":
        """An element from a dict of group elements to complex coefficients, unchecked."""
        out = cls.__new__(cls)
        out._set(sigma, data)
        return out

    @classmethod
    def delta(cls, sigma: Multiplier, g, coeff: complex = 1.0) -> "AlgebraElement":
        return cls(sigma, [(g, coeff)])

    @classmethod
    def unit(cls, sigma: Multiplier) -> "AlgebraElement":
        return cls.delta(sigma, sigma.group.identity())

    def coefficient(self, g) -> complex:
        return self.coeffs.get(g, 0.0 + 0.0j)

    def support(self) -> list:
        return sorted(self.coeffs, key=self.group.element_key)

    def support_radius(self) -> int:
        """Largest word length appearing in the support (0 for the zero element)."""
        if not self.coeffs:
            return 0
        return max(self.group.word_length(g) for g in self.coeffs)

    def norm_l1(self) -> float:
        return sum(abs(c) for c in self.coeffs.values())

    def distance_l1(self, other: "AlgebraElement") -> float:
        """(self - other).norm_l1(), bit for bit: the same (-1.0) products, sums, check and prune."""
        self._require_same_algebra(other)
        minus_one = complex(-1.0)
        negated = {g: c * minus_one for g, c in other.coeffs.items()}
        return sum(map(abs, _checked(_add_into(dict(self.coeffs), negated)).values()))

    def _require_same_algebra(self, other: "AlgebraElement") -> None:
        # Equal multipliers live on equal groups; the same object returns at once.
        if not _same_multiplier(self.sigma, other.sigma):
            raise AlgebraError("elements live in different twisted algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_algebra(other)
        return AlgebraElement._from_dict(self.sigma, _add_into(dict(self.coeffs), other.coeffs))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self) -> "AlgebraElement":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.convolve(other)
        s = complex(other)
        return AlgebraElement._from_dict(self.sigma, {g: c * s for g, c in self.coeffs.items()})

    # s * a is a * s: a complex product is the same double either way round.
    __rmul__ = __mul__

    def convolve(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_algebra(other)
        return AlgebraElement._from_dict(self.sigma, self._products(other))

    def _products(self, other: "AlgebraElement") -> dict:
        """The sums of c1 c2 sigma(g1, g2) over g1 g2 = g, before the check and the prune."""
        sigma = self.sigma
        multiply, d = self.group.multiply, sigma._denominator
        out: dict = {}
        get = out.get
        right = other.coeffs.items()
        if d is None:
            value = sigma.value
            for g1, c1 in self.coeffs.items():
                for g2, c2 in right:
                    g = multiply(g1, g2)
                    out[g] = get(g, 0.0) + c1 * c2 * value(g1, g2)
        else:
            # sigma.value, computed once per residue of the numerator mod d.
            numerator, roots = sigma._numerator, {}
            for g1, c1 in self.coeffs.items():
                for g2, c2 in right:
                    g = multiply(g1, g2)
                    r = numerator(g1, g2) % d
                    w = roots.get(r)
                    if w is None:
                        w = roots[r] = root(r, d)
                    out[g] = get(g, 0.0) + c1 * c2 * w
        return out

    def star(self) -> "AlgebraElement":
        """Involution: (c delta_g)^* = conj(c) conj(sigma(g, g^-1)) delta_{g^-1}."""
        grp, sigma = self.group, self.sigma
        out = {}
        for g, c in self.coeffs.items():
            ginv = grp.inverse(g)
            out[ginv] = c.conjugate() * sigma.value(g, ginv).conjugate()
        return AlgebraElement._from_dict(sigma, out)

    def apply_phase_map(self, z: PhaseMap, target: Multiplier) -> "AlgebraElement":
        """delta_g -> z(g) delta_g, reinterpreted over the target multiplier."""
        out = {g: c * z(g) for g, c in self.coeffs.items()}
        return AlgebraElement._from_dict(target, out)

    def to_json(self) -> dict:
        terms = []
        for g in self.support():
            c = self.coeffs[g]
            terms.append({"g": self.group.element_to_json(g), "re": c.real, "im": c.imag})
        return {"terms": terms}

    def __repr__(self) -> str:
        parts = []
        for g in self.support()[:6]:
            parts.append(f"{self.coeffs[g]:.3g}*d[{g}]")
        body = " + ".join(parts) if parts else "0"
        if len(self.coeffs) > 6:
            body += f" + ... ({len(self.coeffs)} terms)"
        return f"AlgebraElement({body})"


def json_numbers(values) -> bool:
    """Whether every value is a JSON number: an int or a float, not a bool or a string."""
    return {type(x) for x in values} <= {int, float}


def json_coefficient(term: dict) -> complex:
    """complex(re, im) of a JSON term, each part 0 when absent; raises AlgebraError unless
    both are JSON numbers."""
    re, im = term.get("re", 0.0), term.get("im", 0.0)
    if not json_numbers((re, im)):
        raise AlgebraError(f"a term's re and im must be JSON numbers, not {reprlib.repr((re, im))}")
    return complex(float(re), float(im))


def json_terms(group, data, key: str = "terms") -> dict:
    """{g: c} of data[key], a list of {"g", "re", "im"} objects read by element_from_json and
    json_coefficient; a repeated g sums its coefficients in order.  AlgebraError for other data."""
    terms = data.get(key) if isinstance(data, dict) else None
    if not isinstance(terms, list) or not all(isinstance(term, dict) for term in terms):
        raise AlgebraError(f'element {key} must be a list of {{"g", "re", "im"}} objects')
    out: dict = {}
    for term in terms:
        g, c = group.element_from_json(term["g"]), json_coefficient(term)
        out[g] = out[g] + c if g in out else c
    return out


def element_from_json(sigma: Multiplier, data: dict) -> AlgebraElement:
    """The element {"terms": [{"g", "re", "im"}, ...]} of sigma's algebra, its terms read by
    json_terms: the coefficients of a repeated element sum."""
    return AlgebraElement(sigma, json_terms(sigma.group, data))


def projective_iso(z: PhaseMap, a: AlgebraElement, target: Multiplier,
                   check: bool = True) -> AlgebraElement:
    """The isomorphism b_z: delta_g -> z(g) delta_g between twisted algebras.

    Multiplying coefficients by z shifts the multiplier by the coboundary
    of the conjugate map, so the target must equal sigma * d(conj z);
    with check=True that relation is verified on a finite pair set before
    mapping.
    """
    if check and not is_cohomologous_via(a.sigma, target, z.conjugate(), radius=4):
        raise MultiplierError("target multiplier is not sigma * d(conj z) for the given z")
    return a.apply_phase_map(z, target)


def random_element(sigma: Multiplier, rng: random.Random, n_terms: int = 4,
                   spread: int = 3) -> AlgebraElement:
    """Deterministic pseudo-random element for sampling-based checks."""
    items = []
    for _ in range(n_terms):
        g = sigma.group.random_element(rng, spread)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        items.append((g, c))
    return AlgebraElement(sigma, items)
