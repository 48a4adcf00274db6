import cmath
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistlab import (
    AlgebraElement,
    AlgebraError,
    BilinearMultiplier,
    FreeAbelianGroup,
    GeometricMultiplier,
    LatticeGeometry,
    PhaseMap,
    ProductGroup,
    phases,
    coboundary,
    cyclic_group,
    element_from_json,
    magnetic_multiplier,
    projective_iso,
    random_element,
    symmetric_group,
    trivial_multiplier,
)
from twistlab.multipliers import Multiplier, ProductMultiplier

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
    with pytest.raises(AlgebraError):
        AlgebraElement(sigma, [((1, 0), 1.0), ((0, 1), bad)])
    # Internal results skip the element checks but not the finiteness check.
    with pytest.raises(AlgebraError):
        AlgebraElement._from_dict(sigma, {(1, 0): 1.0 + 0j, (0, 1): complex(bad)})
    with pytest.raises(AlgebraError):
        bad * AlgebraElement.delta(sigma, (1, 0))


# Reference arithmetic: every result goes through the validating constructor,
# with the accumulation order of the element methods.
def ref_add(a, b):
    out = dict(a.coeffs)
    for g, c in b.coeffs.items():
        out[g] = out.get(g, 0.0) + c
    return AlgebraElement(a.sigma, out)


def ref_scaled(s, a):
    return AlgebraElement(a.sigma, {g: complex(s) * c for g, c in a.coeffs.items()})


def ref_times(a, s):
    return AlgebraElement(a.sigma, {g: c * complex(s) for g, c in a.coeffs.items()})


def ref_convolve(a, b):
    out = {}
    for g1, c1 in a.coeffs.items():
        for g2, c2 in b.coeffs.items():
            g = a.group.multiply(g1, g2)
            out[g] = out.get(g, 0.0) + c1 * c2 * a.sigma.value(g1, g2)
    return AlgebraElement(a.sigma, out)


def ref_star(a):
    out = {}
    for g, c in a.coeffs.items():
        ginv = a.group.inverse(g)
        out[ginv] = c.conjugate() * a.sigma.value(g, ginv).conjugate()
    return AlgebraElement(a.sigma, out)


def bits(a):
    return a.sigma, [(g, c.real.hex(), c.imag.hex()) for g, c in a.coeffs.items()]


C2 = cyclic_group(2)
BIG_PRIME = 10**9 + 7
_prime_rng = random.Random(11)
ARITHMETIC_SIGMAS = {
    "landau": magnetic_multiplier("1/3", "landau"),
    "symmetric": magnetic_multiplier("2/7", "symmetric"),
    "s3-coboundary": coboundary(PhaseMap.random_exact(S3, random.Random(5))),
    "c2xs3": ProductMultiplier(
        ProductGroup(C2, S3),
        coboundary(PhaseMap.random_exact(C2, random.Random(6))),
        coboundary(PhaseMap.random_exact(S3, random.Random(7))),
    ),
    # Denominators 4 and 6: their lcm is smaller than their product.
    "zxz": ProductMultiplier(
        ProductGroup(FreeAbelianGroup(1), FreeAbelianGroup(1)),
        BilinearMultiplier(FreeAbelianGroup(1), [[Fraction(3, 4)]]),
        BilinearMultiplier(FreeAbelianGroup(1), [[Fraction(5, 6)]]),
    ),
    "z3-prime": BilinearMultiplier(FreeAbelianGroup(3), [
        [Fraction(_prime_rng.randrange(BIG_PRIME), BIG_PRIME) for _ in range(3)] for _ in range(3)]),
    "geometric": GeometricMultiplier(LatticeGeometry("2/5", "symmetric", ("1/3", "-1/2"))),
}
ARITHMETIC_SIGMAS["s3-coboundary^2/3"] = ARITHMETIC_SIGMAS["s3-coboundary"].power(Fraction(2, 3))


def test_the_arithmetic_cases_cover_a_prime_denominator_and_a_lazy_form():
    assert ARITHMETIC_SIGMAS["z3-prime"]._denominator == BIG_PRIME
    assert ARITHMETIC_SIGMAS["geometric"]._denominator is None


@pytest.mark.parametrize("key", sorted(ARITHMETIC_SIGMAS))
def test_element_arithmetic_equals_the_validated_reference_bitwise(key):
    sigma = ARITHMETIC_SIGMAS[key]
    rng = random.Random(2024)
    z = PhaseMap.random_exact(sigma.group, random.Random(8))
    target = sigma.twist(z.conjugate())
    elements = [random_element(sigma, rng, n_terms=rng.randint(1, 6), spread=2) for _ in range(8)]
    # Elements a tiny step from the first one: their differences land near the prune tolerance.
    g = next(iter(elements[0].coeffs))
    elements += [elements[0] + AlgebraElement(sigma, [(g, tiny)]) for tiny in (1e-16, 5e-16, 2e-15)]
    elements.append(AlgebraElement(sigma, []))
    scalars = [3, -1.0, 2.5, -1j, complex(0.3, -0.7)]
    for a in elements:
        for b in elements:
            assert bits(a.convolve(b)) == bits(ref_convolve(a, b))
            want = (a - b).norm_l1()  # the int 0 when the difference prunes away
            got = a.distance_l1(b)
            assert type(got) is type(want) and float(got).hex() == float(want).hex()
            assert bits(a * b) == bits(ref_convolve(a, b))
            assert bits(a + b) == bits(ref_add(a, b))
            assert bits(a - b) == bits(ref_add(a, ref_scaled(-1.0, b)))
        assert bits(a - a) == bits(ref_add(a, ref_scaled(-1.0, a)))
        assert bits(-a) == bits(ref_scaled(-1.0, a))
        for s in scalars:
            assert bits(a * s) == bits(ref_times(a, s))
            assert bits(s * a) == bits(ref_scaled(s, a))
        assert bits(a.star()) == bits(ref_star(a))
        mapped = a.apply_phase_map(z, target)
        assert mapped.sigma is target
        assert bits(mapped) == bits(AlgebraElement(target, {g: c * z(g) for g, c in a.coeffs.items()}))


def test_the_same_algebra_check_still_compares_distinct_multipliers():
    a = AlgebraElement.delta(magnetic_multiplier("1/3"), (1, 0))
    equal = BilinearMultiplier(Z2, [[0, Fraction(1, 3)], [1, 0]])
    assert equal is not a.sigma
    b = AlgebraElement.delta(equal, (0, 1))
    assert bits(a.convolve(b)) == bits(ref_convolve(a, b))
    assert (a + b).support() == [(0, 1), (1, 0)]
    for other in (AlgebraElement.delta(magnetic_multiplier("1/4"), (0, 1)),
                  AlgebraElement.delta(SIGMAS["s3-coboundary"], 1),
                  AlgebraElement.delta(SIGMAS["product"], ((0, 1), 2))):
        for op in (AlgebraElement.__add__, AlgebraElement.__sub__, AlgebraElement.convolve,
                   AlgebraElement.distance_l1):
            with pytest.raises(AlgebraError, match="different twisted algebras"):
                op(a, other)


def counting_cmath(calls):
    def exp(z):
        calls.append(z)
        return cmath.exp(z)

    return SimpleNamespace(exp=exp, pi=cmath.pi, isfinite=cmath.isfinite)


def test_convolve_computes_each_root_once_per_call(monkeypatch):
    sigma = magnetic_multiplier("1/3")
    rng = random.Random(8)
    a = random_element(sigma, rng, n_terms=7, spread=3)
    b = random_element(sigma, rng, n_terms=7, spread=3)
    want = bits(ref_convolve(a, b))
    residues = {sigma._numerator(g1, g2) % 3 for g1 in a.coeffs for g2 in b.coeffs}
    calls = []
    monkeypatch.setattr(phases, "cmath", counting_cmath(calls))
    monkeypatch.setattr(Multiplier, "value", None)  # a normal form does not call it
    assert bits(a.convolve(b)) == want
    assert len(calls) == len(residues) < len(a.coeffs) * len(b.coeffs)
    calls.clear()
    assert bits(a.convolve(b)) == want
    assert len(calls) == len(residues)  # the memo does not outlive a call


def test_a_lazy_multiplier_is_evaluated_for_every_pair(monkeypatch):
    sigma = ARITHMETIC_SIGMAS["geometric"]
    rng = random.Random(9)
    a = random_element(sigma, rng, n_terms=5, spread=2)
    b = random_element(sigma, rng, n_terms=4, spread=2)
    pairs = []
    value = Multiplier.value
    monkeypatch.setattr(Multiplier, "value", lambda s, g, h: pairs.append((g, h)) or value(s, g, h))
    a.convolve(b)
    assert pairs == [(g1, g2) for g1 in a.coeffs for g2 in b.coeffs]


def test_distance_l1_keeps_the_finiteness_check_of_the_difference():
    big = AlgebraElement(magnetic_multiplier("1/3"), [((1, 0), 1e308)])
    with pytest.raises(AlgebraError, match="finite"):
        big - (-1.0) * big
    with pytest.raises(AlgebraError, match="finite"):
        big.distance_l1((-1.0) * big)
