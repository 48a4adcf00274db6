"""Tests for group cochains, the cyclic transfer, and smoothness norms."""

import math
import random

import pytest

from twistlab import (
    AlgebraElement,
    FreeAbelianGroup,
    magnetic_multiplier,
    trivial_multiplier,
)
from twistlab.algebra import random_element
from twistlab.cohomology import (
    CohomologyError,
    GroupCochain,
    cochain_growth,
    convolution_phase,
    derivation_chain,
    growth_fit,
    homogeneous,
    inhomogeneous,
    sobolev_inner,
    sobolev_norm,
    to_cyclic,
    transfer_boundary_defect,
)

Z2 = FreeAbelianGroup(2)
AREA = GroupCochain.area_z2(Z2)


def random_cochain(group, degree, seed):
    rng = random.Random(seed)
    cache = {}

    def fn(*args):
        if args not in cache:
            cache[args] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return cache[args]

    return GroupCochain(group, degree, fn)


def test_differential_squares_to_zero(rng):
    for degree in (0, 1, 2):
        c = random_cochain(Z2, degree, 100 + degree)
        dd = c.differential().differential()
        for _ in range(30):
            args = [Z2.random_element(rng, 3) for _ in range(degree + 3)]
            assert abs(dd(*args)) <= 1e-10


def test_area_cochain_is_an_invariant_cocycle(rng):
    assert AREA.check_invariance() == 0.0
    d = AREA.differential()
    for _ in range(50):
        args = [Z2.random_element(rng, 4) for _ in range(4)]
        assert d(*args) == 0.0


def test_invariance_check_flags_noninvariant_cochain():
    c = GroupCochain(Z2, 1, lambda g0, g1: float(g0[0] * g1[1]))
    assert c.check_invariance() > 0.1


def test_bar_form_round_trip(rng):
    for c in (AREA, GroupCochain.coordinate_z(Z2, 1)):
        back = homogeneous(Z2, c.degree, inhomogeneous(c))
        for _ in range(30):
            args = [Z2.random_element(rng, 4) for _ in range(c.degree + 1)]
            assert abs(back(*args) - c(*args)) <= 1e-12


def test_cochain_arity_is_enforced():
    with pytest.raises(CohomologyError):
        AREA((0, 0), (1, 0))
    with pytest.raises(CohomologyError):
        GroupCochain(Z2, -1, lambda *a: 0.0)
    with pytest.raises(CohomologyError):
        GroupCochain.area_z2(FreeAbelianGroup(3))
    with pytest.raises(CohomologyError):
        GroupCochain.coordinate_z(Z2, 5)


def test_transfer_of_constant_recovers_canonical_trace(rng):
    for sigma in (trivial_multiplier(Z2), magnetic_multiplier("1/3")):
        tau = to_cyclic(GroupCochain.constant(Z2), sigma)
        for _ in range(10):
            a = random_element(sigma, rng, 4, 3)
            assert abs(tau(a) - a.coefficient(Z2.identity())) <= 1e-12


def test_transferred_cochains_are_localized():
    sigma = magnetic_multiplier("1/3")
    tau = to_cyclic(AREA, sigma)
    assert tau.is_localized()
    assert tau.basis_value(((1, 0), (0, 1), (1, 1))) == 0.0


def test_convolution_phase_matches_iterated_product():
    sigma = magnetic_multiplier("1/3")
    gammas = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    a = AlgebraElement(sigma, [(gammas[0], 1.0)])
    for g in gammas[1:]:
        a = a.convolve(AlgebraElement(sigma, [(g, 1.0)]))
    prod = (0, 0)
    assert abs(a.coefficient(prod) - convolution_phase(sigma, gammas)) <= 1e-14


@pytest.mark.parametrize("theta", ["0", "1/3"])
def test_transfer_intertwines_boundaries(theta):
    sigma = magnetic_multiplier(theta)
    for c in (GroupCochain.constant(Z2), GroupCochain.coordinate_z(Z2, 0), AREA):
        assert transfer_boundary_defect(c, sigma) <= 1e-12


def test_cyclic_evaluation_is_multilinear(rng):
    sigma = magnetic_multiplier("1/3")
    tau = to_cyclic(GroupCochain.coordinate_z(Z2, 0), sigma)
    a = random_element(sigma, rng, 3, 2)
    b = random_element(sigma, rng, 3, 2)
    c = random_element(sigma, rng, 3, 2)
    lhs = tau(a + b, c)
    assert abs(lhs - tau(a, c) - tau(b, c)) <= 1e-12
    assert abs(tau(2.0 * a, c) - 2.0 * tau(a, c)) <= 1e-12


def test_sobolev_norm_at_zero_is_l2(rng):
    sigma = magnetic_multiplier("1/3")
    for _ in range(20):
        a = random_element(sigma, rng, 4, 3)
        assert sobolev_norm(a, 0.0) == pytest.approx(a.norm_l2(), abs=1e-12)


def test_sobolev_norm_is_monotone_in_order(rng):
    sigma = magnetic_multiplier("1/3")
    for _ in range(20):
        a = random_element(sigma, rng, 4, 3)
        s_values = [0.0, 0.5, 1.0, 2.0]
        norms = [sobolev_norm(a, s) for s in s_values]
        assert all(x <= y + 1e-12 for x, y in zip(norms, norms[1:]))


def test_sobolev_inner_is_hermitian(rng):
    sigma = magnetic_multiplier("1/3")
    a = random_element(sigma, rng, 4, 3)
    b = random_element(sigma, rng, 4, 3)
    assert abs(sobolev_inner(a, b, 1.0) - sobolev_inner(b, a, 1.0).conjugate()) <= 1e-12


def test_derivation_chain_identity_column_is_exact(rng):
    sigma = magnetic_multiplier("1/3")
    for _ in range(20):
        a = random_element(sigma, rng, 4, 2)
        rep = derivation_chain(a, j_max=4)
        assert rep.identity_defect <= 1e-12
        assert rep.bound_ok
        assert rep.chain_norms[0] == pytest.approx(a.norm_l2(), abs=1e-12)


def test_chain_order_and_sobolev_order_are_checked():
    a = AlgebraElement(magnetic_multiplier("1/3"), [((1, 0), 1.0)])
    with pytest.raises(CohomologyError, match="j_max"):
        derivation_chain(a, j_max=-1)
    assert derivation_chain(a, j_max=0).chain_norms == pytest.approx([1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(CohomologyError, match="finite"):
            sobolev_norm(a, bad)


def test_a_norm_beyond_the_floats_names_its_order():
    # 1e154 squares to 1e308; the weight (1 + l)^2s = 25^s at l((3, 1)) = 4 takes order 1 past it.
    a = AlgebraElement(magnetic_multiplier("1/3"), [((3, 1), 1e154)])
    assert sobolev_norm(a, 0.0) == pytest.approx(1e154)
    with pytest.raises(CohomologyError, match="norm of order s = 1.0 overflows"):
        sobolev_norm(a, 1.0)
    with pytest.raises(CohomologyError, match="norm of order s = 1 overflows"):
        derivation_chain(a, j_max=2)


def test_binomial_constant_is_needed():
    # A single generator delta has chain norms all 1 but Sobolev norm 2^j,
    # so a sqrt(j + 1) constant fails at j = 4 while binom(4, 2) holds.
    sigma = magnetic_multiplier("1/3")
    a = AlgebraElement(sigma, [((1, 0), 1.0)])
    rep = derivation_chain(a, j_max=4)
    assert rep.chain_norms == pytest.approx([1.0] * 5)
    lhs = sobolev_norm(a, 4)
    assert lhs == pytest.approx(16.0)
    assert lhs > math.sqrt(5) * sum(rep.chain_norms)
    assert lhs <= rep.bound_constants[4] * sum(rep.chain_norms)
    assert rep.bound_margins[4] >= 0.0


def test_growth_fit_recovers_power_law():
    xs = [1.0, 2.0, 4.0, 8.0]
    assert growth_fit(xs, [3.0 * x ** 2.5 for x in xs]) == pytest.approx(2.5, abs=1e-9)
    assert growth_fit([0.0, 0.0], [1.0, 1.0]) == 0.0


def test_area_cochain_grows_quadratically():
    assert cochain_growth(AREA, [2, 4, 6, 8]) == pytest.approx(2.0, abs=0.01)

