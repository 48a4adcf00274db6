"""Unit complex phases stored as exact rational turns.

A phase is exp(2*pi*i*t) with t a Fraction reduced mod 1.  Phases compare
and hash by their reduced turns, exactly; a complex value is computed only
when ``value`` is read.  ``root(n, d)`` is the one float of an exact phase:
``Phase.value``, every multiplier's ``value`` and the convolution's root memo
all read it, from integer pairs (n, d) for n / d turns.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from numbers import Integral


def as_rational(value: object) -> Fraction:
    """Parse an exact rational from an int, Fraction or a "p/q" string.

    Floats are rejected on purpose: every phase in twistlab is an exact
    rational number of turns.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Integral):
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {value!r}") from exc
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def rational_str(value: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" when integral)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def root(n: int, d: int) -> complex:
    """exp(2 pi i n / d) for d > 0: (n mod d) / d is the correctly rounded float of n / d mod 1."""
    return cmath.exp(2j * cmath.pi * (n % d / d))


class Phase:
    """The unit complex number exp(2*pi*i*turns).

    ``turns`` is a Fraction reduced mod 1; a float raises ``TypeError``.
    """

    __slots__ = ("turns",)

    def __init__(self, turns: object):
        self.turns = as_rational(turns) % 1

    @property
    def value(self) -> complex:
        return root(*self.turns.as_integer_ratio())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Phase):
            return NotImplemented
        return self.turns == other.turns

    def __hash__(self) -> int:
        return hash(("Phase", self.turns))

    def __repr__(self) -> str:
        return f"Phase({rational_str(self.turns)})"
