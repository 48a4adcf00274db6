import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistlab import Phase, as_rational, rational_str
from twistlab.phases import root

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=60
)


def test_as_rational_accepts_exact_inputs():
    assert as_rational(3) == Fraction(3)
    assert as_rational("-7/12") == Fraction(-7, 12)
    assert as_rational(Fraction(5, 8)) == Fraction(5, 8)


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)
    with pytest.raises(ValueError):
        as_rational("1/0")
    with pytest.raises(ValueError):
        as_rational("nope")


@given(rationals)
def test_rational_str_round_trip(t):
    assert as_rational(rational_str(t)) == t


@given(rationals)
def test_phase_turns_reduced_mod_one(t):
    p = Phase(t)
    assert 0 <= p.turns < 1
    assert (t - p.turns) % 1 == 0


@given(rationals)
def test_phase_value_on_unit_circle(t):
    assert abs(abs(Phase(t).value) - 1.0) < 1e-12


def test_phase_value_at_quarter_turn():
    assert abs(Phase(Fraction(1, 4)).value - 1j) < 1e-15
    assert abs(Phase(Fraction(1, 2)).value + 1.0) < 1e-15


def test_phase_rejects_floats():
    with pytest.raises(TypeError):
        Phase(0.5)


@given(rationals)
def test_phase_hash_consistent_with_eq(t):
    a, b = Phase(t), Phase(t + 3)
    assert a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("d", [1, 7, 10**9 + 7, 2**61 + 1, 10**30 + 57])
def test_root_is_the_float_of_the_fraction_mod_one_bitwise(d):
    rng = random.Random(d)
    for _ in range(2000):
        n = rng.randint(-10 * d, 10 * d)
        old = cmath.exp(2j * cmath.pi * float(Fraction(n, d) % 1))
        assert root(n, d) == old, (n, d)  # bitwise, not approximately
        assert root(n, d) == Phase(Fraction(n, d)).value
