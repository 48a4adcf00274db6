"""Tests for group cochains, the cyclic transfer, and smoothness norms."""

import itertools
import math
import random
import re

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
    CyclicCochain,
    GroupCochain,
    cochain_growth,
    convolution_phase,
    derivation_chain,
    growth_fit,
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
    # An invariant cochain is its bar form at the increments g_i^-1 g_{i+1}.
    for c in (AREA, GroupCochain.coordinate_z(Z2, 1)):
        cbar = inhomogeneous(c)
        for _ in range(30):
            args = [Z2.random_element(rng, 4) for _ in range(c.degree + 1)]
            steps = [Z2.multiply(Z2.inverse(g), h) for g, h in zip(args, args[1:])]
            assert abs(cbar(*steps) - c(*args)) <= 1e-12


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
        tau = to_cyclic(GroupCochain(Z2, 0, lambda g: 1.0), sigma)
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
    for c in (GroupCochain(Z2, 0, lambda g: 1.0), GroupCochain.coordinate_z(Z2, 0), AREA):
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


def l2_norm(a):
    return math.sqrt(sum(abs(c) ** 2 for c in a.coeffs.values()))


def test_sobolev_norm_at_zero_is_l2(rng):
    sigma = magnetic_multiplier("1/3")
    for _ in range(20):
        a = random_element(sigma, rng, 4, 3)
        assert sobolev_norm(a, 0.0) == pytest.approx(l2_norm(a), abs=1e-12)


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
        assert rep.chain_norms[0] == pytest.approx(l2_norm(a), abs=1e-12)


def test_chain_order_and_sobolev_order_are_checked():
    a = AlgebraElement(magnetic_multiplier("1/3"), [((1, 0), 1.0)])
    for j_max in (-1, 1.5, True):
        with pytest.raises(CohomologyError, match="j_max"):
            derivation_chain(a, j_max=j_max)
    assert derivation_chain(a, j_max=0).chain_norms == pytest.approx([1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(CohomologyError, match="finite"):
            sobolev_norm(a, bad)


def test_a_norm_beyond_the_floats_names_its_order():
    # The weight (1 + l)^2s = 25^s at l((3, 1)) = 4 takes the norm 1e308 past the floats at order 1.
    a = AlgebraElement(magnetic_multiplier("1/3"), [((3, 1), 1e308)])
    assert sobolev_norm(a, 0.0) == 1e308
    with pytest.raises(CohomologyError, match="norm of order s = 1.0 overflows"):
        sobolev_norm(a, 1.0)
    with pytest.raises(CohomologyError, match="norm of order s = 1 overflows"):
        derivation_chain(a, j_max=2)


def test_a_norm_whose_square_overflows_is_still_returned():
    a = AlgebraElement(magnetic_multiplier("1/3"), [((3, 1), 1e200)])
    assert sobolev_norm(a, 0.0) == 1e200
    assert sobolev_norm(a, 1.0) == pytest.approx(5e200)
    assert sobolev_norm(AlgebraElement(a.sigma), 2.0) == 0.0


def test_sobolev_norm_equals_the_unscaled_formula_bitwise():
    # Scaling by a power of two is exact, so the bits are those of sqrt(<a, a>_s).
    rng = random.Random(12)
    sigmas = [magnetic_multiplier("1/3"), magnetic_multiplier("2/7", "symmetric"),
              trivial_multiplier(FreeAbelianGroup(3))]
    for _ in range(200):
        a = random_element(rng.choice(sigmas), rng, rng.randint(1, 8), rng.randint(1, 4))
        a = a * 10.0 ** rng.uniform(-100, 100)
        for s in (0, 0.5, 1, 2, 3, 4):
            plain = math.sqrt(max(0.0, sobolev_inner(a, a, s).real))
            assert sobolev_norm(a, s).hex() == plain.hex()


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


def reference_growth(c, radii):
    """The reference: cochain_growth with each value through GroupCochain.__call__, folded by max."""
    grp, sups = c.group, []
    for r in radii:
        ball, worst, rng = grp.ball(r), 0.0, random.Random(29 + r)
        if len(ball) ** c.degree <= 20000:
            combos = itertools.product(ball, repeat=c.degree)
        else:
            combos = (tuple(rng.choice(ball) for _ in range(c.degree)) for _ in range(20000))
        for tail in combos:
            worst = max(worst, abs(c(grp.identity(), *tail)))
        sups.append(worst)
    return growth_fit(list(radii), sups)


@pytest.mark.parametrize("cochain, radii", [
    (AREA, [2, 3, 4, 6]),  # verify's area-growth check
    (GroupCochain(Z2, 1, lambda g0, g1: complex(g1[0] ** 3 - g0[1], 0.5 * g1[1])), [1, 2, 5]),
    (GroupCochain(Z2, 1, lambda g0, g1: g1[0] * g1[1]), [1, 3]),  # int values
    (GroupCochain(Z2, 3, lambda *gs: sum(g[0] * g[1] for g in gs) / 3.0), [1, 4]),  # sampled at 4
])
def test_cochain_growth_is_bit_equal_to_the_called_cochain(cochain, radii):
    assert cochain_growth(cochain, radii).hex() == reference_growth(cochain, radii).hex()



NAN_COCHAIN = GroupCochain(Z2, 1, lambda g0, g1: math.nan)


def test_a_nan_cochain_fails_the_transfer_and_invariance_checks():
    # max(0.0, nan) is 0.0: both checks once read every NaN defect as a pass.
    defect = transfer_boundary_defect(NAN_COCHAIN, magnetic_multiplier("1/3"), samples=50)
    assert math.isnan(defect) and not defect <= 1e-12
    assert math.isnan(NAN_COCHAIN.check_invariance())


def test_a_nan_off_identity_value_is_not_localized():
    sigma = trivial_multiplier(Z2)
    assert not CyclicCochain(sigma, 1, lambda gammas: math.nan).is_localized()
    assert CyclicCochain(sigma, 1, lambda gammas: math.nan if gammas[0] == Z2.inverse(gammas[1]) else 0.0
                         ).is_localized()


@pytest.mark.parametrize("cochain, named", [
    (NAN_COCHAIN, "NaN"),
    (GroupCochain(Z2, 1, lambda g0, g1: math.nan if g1 == (2, 0) else 1.0), "NaN at (e, *((2, 0),))"),
    (GroupCochain(Z2, 1, lambda g0, g1: math.inf if g1 == (0, 3) else 1.0), "ball(3) is infinite"),
    (GroupCochain(Z2, 2, lambda g0, g1, g2: complex(1.0, math.inf)), "ball(2) is infinite"),
])
def test_cochain_growth_refuses_nan_and_infinite_values(cochain, named):
    # A NaN once dropped out of every supremum, and the fit of nothing was 0.0.
    with pytest.raises(CohomologyError, match=re.escape(named)):
        cochain_growth(cochain, [2, 3, 4])
