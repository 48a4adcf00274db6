"""Unit complex phases stored as exact rational turns.

A phase is exp(2*pi*i*t) with t a Fraction reduced mod 1.  Phases compare
and hash by their reduced turns, exactly; a complex value is computed only
when ``value`` is read.  Multipliers in normal form do not build phases:
they evaluate integer numerators over a common denominator (see
``twistlab.multipliers``); lazy multipliers are evaluated through ``Phase``.
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


class Phase:
    """The unit complex number exp(2*pi*i*turns).

    ``turns`` is a Fraction reduced mod 1; a float raises ``TypeError``.
    """

    __slots__ = ("turns",)

    def __init__(self, turns: object):
        self.turns = as_rational(turns) % 1

    @property
    def value(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.turns))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Phase):
            return NotImplemented
        return self.turns == other.turns

    def __hash__(self) -> int:
        return hash(("Phase", self.turns))

    def __repr__(self) -> str:
        return f"Phase({rational_str(self.turns)})"
