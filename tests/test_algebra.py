import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistlab import (
    AlgebraElement,
    AlgebraError,
    BilinearMultiplier,
    FreeAbelianGroup,
    PhaseMap,
    ProductGroup,
    coboundary,
    element_from_json,
    magnetic_multiplier,
    projective_iso,
    random_element,
    symmetric_group,
    trivial_multiplier,
)
from twistlab.multipliers import ProductMultiplier

Z2 = FreeAbelianGroup(2)
S3 = symmetric_group(3)
THETA = Fraction(1, 3)

SIGMAS = {
    "lattice-trivial": trivial_multiplier(Z2),
    "lattice-magnetic": magnetic_multiplier(THETA),
    "s3-coboundary": coboundary(PhaseMap.random_exact(S3, random.Random(71))),
    "product": ProductMultiplier(
        ProductGroup(Z2, S3),
        magnetic_multiplier(THETA),
        coboundary(PhaseMap.random_exact(S3, random.Random(72))),
    ),
}

coefficients = st.builds(
    complex,
    st.floats(min_value=-2, max_value=2, allow_nan=False),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
)
sigma_keys = st.sampled_from(sorted(SIGMAS))


def group_element_strategy(group):
    if isinstance(group, ProductGroup):
        return st.tuples(
            group_element_strategy(group.left), group_element_strategy(group.right)
        )
    if isinstance(group, FreeAbelianGroup):
        small = st.integers(min_value=-3, max_value=3)
        return st.tuples(*[small] * group.rank)
    return st.integers(min_value=0, max_value=group.n - 1)


def element_strategy(sigma, max_terms=4):
    term = st.tuples(group_element_strategy(sigma.group), coefficients)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda items: AlgebraElement(sigma, items)
    )


GROUP_STRATEGIES = {k: group_element_strategy(s.group) for k, s in SIGMAS.items()}
ELEMENT_STRATEGIES = {k: element_strategy(s) for k, s in SIGMAS.items()}


def close(a, b, tol=1e-12):
    return (a - b).norm_l1() <= tol


@given(sigma_keys, st.data())
def test_delta_convolution_is_structure_constant(key, data):
    sigma = SIGMAS[key]
    g = data.draw(GROUP_STRATEGIES[key])
    h = data.draw(GROUP_STRATEGIES[key])
    product = AlgebraElement.delta(sigma, g) * AlgebraElement.delta(sigma, h)
    gh = sigma.group.multiply(g, h)
    assert product.support() == [gh]
    assert product.coefficient(gh) == sigma.value(g, h)
    assert abs(abs(product.coefficient(gh)) - 1.0) < 1e-12


@given(sigma_keys, st.data())
def test_unit_is_neutral(key, data):
    sigma = SIGMAS[key]
    a = data.draw(ELEMENT_STRATEGIES[key])
    one = AlgebraElement.unit(sigma)
    assert close(one * a, a, tol=0.0)
    assert close(a * one, a, tol=0.0)


@given(sigma_keys, st.data())
def test_convolution_associative(key, data):
    sigma = SIGMAS[key]
    a = data.draw(ELEMENT_STRATEGIES[key])
    b = data.draw(ELEMENT_STRATEGIES[key])
    c = data.draw(ELEMENT_STRATEGIES[key])
    assert close((a * b) * c, a * (b * c))


@given(sigma_keys, st.data())
def test_convolution_distributes(key, data):
    sigma = SIGMAS[key]
    a = data.draw(ELEMENT_STRATEGIES[key])
    b = data.draw(ELEMENT_STRATEGIES[key])
    c = data.draw(ELEMENT_STRATEGIES[key])
    assert close(a * (b + c), a * b + a * c)


@given(sigma_keys, st.data())
def test_involution_laws(key, data):
    sigma = SIGMAS[key]
    a = data.draw(ELEMENT_STRATEGIES[key])
    b = data.draw(ELEMENT_STRATEGIES[key])
    lam = data.draw(coefficients)
    assert close(a.star().star(), a)
    assert close((a * b).star(), b.star() * a.star())
    assert close((lam * a).star(), lam.conjugate() * a.star(), tol=1e-13)


@given(sigma_keys, st.data())
def test_star_positivity_formula(key, data):
    sigma = SIGMAS[key]
    a = data.draw(ELEMENT_STRATEGIES[key])
    value = (a.star() * a).coefficient(sigma.group.identity())
    expected = sum(abs(c) ** 2 for c in a.coeffs.values())
    assert abs(value - expected) < 1e-11
    assert value.real >= -1e-12


@given(st.data())
def test_projective_iso_is_multiplicative(data):
    sigma = SIGMAS["lattice-magnetic"]
    z = PhaseMap.quadratic_on_lattice(Z2, -THETA / 2)
    target = sigma.twist(z.conjugate())
    a = data.draw(ELEMENT_STRATEGIES["lattice-magnetic"])
    b = data.draw(ELEMENT_STRATEGIES["lattice-magnetic"])
    fa = projective_iso(z, a, target, check=False)
    fb = projective_iso(z, b, target, check=False)
    fab = projective_iso(z, a * b, target, check=False)
    assert close(fab, fa * fb)
    assert close(projective_iso(z, a.star(), target, check=False), fa.star())


def test_projective_iso_accepts_the_correct_target():
    sigma = SIGMAS["lattice-magnetic"]
    z = PhaseMap.quadratic_on_lattice(Z2, -THETA / 2)
    target = sigma.twist(z.conjugate())
    a = AlgebraElement.delta(sigma, (1, 2))
    out = projective_iso(z, a, target)
    assert out.coefficient((1, 2)) == z((1, 2))


def test_projective_iso_checks_the_coboundary_relation():
    sigma = SIGMAS["lattice-magnetic"]
    wrong_target = magnetic_multiplier(Fraction(1, 5))
    a = AlgebraElement.delta(sigma, (1, 0))
    with pytest.raises(Exception):
        projective_iso(PhaseMap.quadratic_on_lattice(Z2, -THETA / 2), a, wrong_target)


def test_phase_map_keeps_identity_coefficient():
    sigma = SIGMAS["lattice-magnetic"]
    rng = random.Random(5)
    z = PhaseMap.quadratic_on_lattice(Z2, -THETA / 2)
    target = sigma.twist(z.conjugate())
    for _ in range(20):
        a = random_element(sigma, rng)
        assert abs(
            a.apply_phase_map(z, target).coefficient((0, 0)) - a.coefficient((0, 0))
        ) < 1e-15


def test_elements_of_different_algebras_do_not_mix():
    a = AlgebraElement.delta(SIGMAS["lattice-trivial"], (1, 0))
    b = AlgebraElement.delta(SIGMAS["lattice-magnetic"], (1, 0))
    with pytest.raises(AlgebraError):
        a * b
    with pytest.raises(AlgebraError):
        a + b


@given(sigma_keys, st.data())
def test_element_json_round_trip(key, data):
    sigma = SIGMAS[key]
    a = data.draw(ELEMENT_STRATEGIES[key])
    back = element_from_json(sigma, a.to_json())
    assert close(back, a, tol=0.0)


def test_support_and_norms():
    sigma = SIGMAS["lattice-trivial"]
    a = AlgebraElement(sigma, [((0, 0), 3.0), ((2, 1), -4.0)])
    assert a.norm_l1() == 7.0
    assert a.norm_l2() == 5.0
    assert a.support_radius() == 3
    assert a.support() == sorted(a.support(), key=sigma.group.element_key)


def test_random_element_respects_requested_size():
    rng = random.Random(11)
    for sigma in SIGMAS.values():
        a = random_element(sigma, rng, n_terms=5)
        assert 1 <= len(a.support()) <= 5


def test_separately_built_equal_multipliers_share_an_algebra():
    z = PhaseMap.random_exact(S3, random.Random(71))
    a = AlgebraElement.delta(coboundary(z), 1)
    b = AlgebraElement.delta(coboundary(z), 2)
    assert (a * b).support() == [S3.multiply(1, 2)]
    c = AlgebraElement.delta(magnetic_multiplier("1/3"), (1, 0))
    d = AlgebraElement.delta(BilinearMultiplier(Z2, [[0, Fraction(1, 3)], [0, 0]]), (0, 1))
    assert sorted((c + d).support()) == [(0, 1), (1, 0)]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1, float("-inf"))])
def test_non_finite_coefficients_are_rejected(bad):
    sigma = SIGMAS["lattice-magnetic"]
    for check in (True, False):
        with pytest.raises(AlgebraError):
            AlgebraElement(sigma, [((1, 0), 1.0), ((0, 1), bad)], check=check)
    with pytest.raises(AlgebraError):
        bad * AlgebraElement.delta(sigma, (1, 0))
