import itertools
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistlab import (
    BilinearMultiplier,
    FreeAbelianGroup,
    GeometricMultiplier,
    LatticeGeometry,
    MultiplierError,
    PhaseMap,
    ProductGroup,
    all_characters,
    coboundary,
    cyclic_group,
    is_cohomologous_via,
    magnetic_multiplier,
    multiplier_from_json,
    multipliers_equal,
    symmetric_group,
    trivial_group,
    trivial_multiplier,
    verify_cocycle,
)
from twistlab.multipliers import (
    CocycleReport,
    ProductMultiplier,
    TableMultiplier,
    TwistedMultiplier,
    decided_equal,
)
from twistlab.phases import Phase

Z2 = FreeAbelianGroup(2)
S3 = symmetric_group(3)
THETA = Fraction(1, 3)
X, Y = (1, 0), (0, 1)


def s3_coboundary():
    z = PhaseMap.random_exact(S3, random.Random(71))
    return coboundary(z), z


MULTIPLIER_ZOO = [
    trivial_multiplier(Z2),
    magnetic_multiplier(THETA),
    magnetic_multiplier(THETA, gauge="symmetric"),
    magnetic_multiplier(Fraction(1, 2)),
    s3_coboundary()[0],
    ProductMultiplier(
        ProductGroup(Z2, S3), magnetic_multiplier(THETA), s3_coboundary()[0]
    ),
    trivial_multiplier(ProductGroup(S3, ProductGroup(cyclic_group(3), FreeAbelianGroup(1)))),
]


@pytest.mark.parametrize("sigma", MULTIPLIER_ZOO)
def test_cocycle_identity_and_normalization(sigma):
    report = verify_cocycle(sigma, samples=300, seed=2)
    assert report
    assert report.worst_defect == 0.0
    e = sigma.group.identity()
    rng = random.Random(8)
    for _ in range(25):
        g = sigma.group.random_element(rng)
        assert sigma.turns(e, g) % 1 == 0
        assert sigma.turns(g, e) % 1 == 0


def test_small_finite_cocycle_check_is_exhaustive():
    sigma, _ = s3_coboundary()
    report = verify_cocycle(sigma)
    assert report.qualifier == "exhaustive"
    assert report.checked == 6 ** 3


def test_cocycle_check_is_exact_for_tiny_defects():
    # sigma(1, 1) = 10^-15 turns and nothing else: not a cocycle, though its
    # worst defect on the unit circle is only about 6.3e-15.
    sigma = TableMultiplier(cyclic_group(3), [[0, 0, 0], [0, Fraction(1, 10**15), 0], [0, 0, 0]])
    report = verify_cocycle(sigma)
    assert report.passed is False
    assert report.witness == (1, 1, 2)
    assert 0 < report.worst_defect < 1e-14


def test_landau_gauge_convention():
    sigma = magnetic_multiplier(THETA)
    assert sigma.turns(X, Y) % 1 == THETA
    assert sigma.turns(Y, X) % 1 == 0
    assert (sigma.turns(X, Y) - sigma.turns(Y, X)) % 1 == THETA


def test_symmetric_gauge_is_antisymmetric():
    sigma = magnetic_multiplier(THETA, gauge="symmetric")
    rng = random.Random(3)
    for _ in range(40):
        g = Z2.random_element(rng)
        h = Z2.random_element(rng)
        assert (sigma.turns(g, h) + sigma.turns(h, g)) % 1 == 0
    assert (sigma.turns(X, Y) - sigma.turns(Y, X)) % 1 == THETA


def test_gauges_share_the_antisymmetrized_pairing():
    lan = magnetic_multiplier(THETA)
    sym = magnetic_multiplier(THETA, gauge="symmetric")
    assert lan.antisymmetrized() == sym.antisymmetrized()


def test_landau_symmetric_cohomologous_via_quadratic():
    lan = magnetic_multiplier(THETA)
    sym = magnetic_multiplier(THETA, gauge="symmetric")
    z = PhaseMap.quadratic_on_lattice(Z2, THETA / 2)
    assert is_cohomologous_via(lan, sym, z)
    assert not is_cohomologous_via(lan, sym, PhaseMap.quadratic_on_lattice(Z2, THETA))


def test_coboundary_is_cohomologous_to_trivial():
    sigma, z = s3_coboundary()
    assert is_cohomologous_via(trivial_multiplier(S3), sigma, z)


def test_twist_matches_explicit_coboundary_turns():
    sigma = magnetic_multiplier(THETA)
    z = PhaseMap.quadratic_on_lattice(Z2, Fraction(1, 5))
    twisted = sigma.twist(z)
    rng = random.Random(4)
    for _ in range(40):
        g = Z2.random_element(rng)
        h = Z2.random_element(rng)
        gh = Z2.multiply(g, h)
        expected = sigma.turns(g, h) + z.turns(g) + z.turns(h) - z.turns(gh)
        assert twisted.turns(g, h) % 1 == expected % 1


def test_power_scales_bilinear_turns():
    sigma = magnetic_multiplier(THETA)
    half = sigma.power(Fraction(1, 2))
    rng = random.Random(5)
    for _ in range(30):
        g = Z2.random_element(rng)
        h = Z2.random_element(rng)
        assert half.turns(g, h) == sigma.turns(g, h) / 2
    assert multipliers_equal(sigma.power(1), sigma)
    assert multipliers_equal(sigma.power(0), trivial_multiplier(Z2))
    assert multipliers_equal(sigma.conjugate(), sigma.power(-1))


def test_geometric_multiplier_matches_direct_formula():
    for gauge in ("landau", "symmetric"):
        geo = GeometricMultiplier(LatticeGeometry(THETA, gauge=gauge))
        direct = magnetic_multiplier(THETA, gauge=gauge)
        for g in Z2.ball(3):
            for h in Z2.ball(2):
                assert geo.turns(g, h) % 1 == direct.turns(g, h) % 1


def test_geometric_multiplier_base_point_independent():
    reference = GeometricMultiplier(LatticeGeometry(THETA))
    for bx in range(3):
        for by in range(3):
            moved = GeometricMultiplier(LatticeGeometry(THETA, base_point=(bx, by)))
            for g in Z2.ball(3):
                for h in Z2.ball(2):
                    assert moved.turns(g, h) == reference.turns(g, h)


def test_geometry_offsets_shift_by_a_coboundary():
    z = PhaseMap.random_exact(Z2, random.Random(9))
    plain = GeometricMultiplier(LatticeGeometry(THETA))
    shifted = GeometricMultiplier(
        LatticeGeometry(THETA, offsets=lambda g: z.turns(g) if g != (0, 0) else 0)
    )
    assert is_cohomologous_via(plain, shifted, z)


def test_geometric_power_matches_direct_power():
    z = PhaseMap.random_exact(Z2, random.Random(9))
    offsets = lambda g: z.turns(g) if g != (0, 0) else 0
    for s in (Fraction(1, 2), -1):
        geo = GeometricMultiplier(LatticeGeometry(THETA, offsets=offsets)).power(s)
        direct = magnetic_multiplier(THETA).power(s).twist(z.scaled(s))
        assert multipliers_equal(geo, direct, radius=3)
    geo = GeometricMultiplier(LatticeGeometry(THETA))
    assert multipliers_equal(geo.conjugate(), magnetic_multiplier(-THETA), radius=3)


def test_plaquette_curvature_equals_flux():
    for gauge in ("landau", "symmetric"):
        geometry = LatticeGeometry(THETA, gauge=gauge)
        assert geometry.verify_curvature()
        assert geometry.plaquette_curvature_turns((5, -3)) == THETA


def test_product_multiplier_adds_turns():
    prod = ProductGroup(Z2, S3)
    right, _ = s3_coboundary()
    sigma = ProductMultiplier(prod, magnetic_multiplier(THETA), right)
    rng = random.Random(7)
    for _ in range(30):
        g = prod.random_element(rng)
        h = prod.random_element(rng)
        expected = magnetic_multiplier(THETA).turns(g[0], h[0]) + right.turns(g[1], h[1])
        assert sigma.turns(g, h) % 1 == expected % 1


ZERO_FORM_GROUPS = {
    "Z1": FreeAbelianGroup(1),
    "Z2": Z2,
    "Z3": FreeAbelianGroup(3),
    "S3": S3,
    "point": trivial_group(),
    "Z2xS3": ProductGroup(Z2, S3),
    "S3x(C3xZ)": ProductGroup(S3, ProductGroup(cyclic_group(3), FreeAbelianGroup(1))),
}


@pytest.mark.parametrize("name", ZERO_FORM_GROUPS)
def test_trivial_multiplier_is_a_zero_normal_form(name):
    group = ZERO_FORM_GROUPS[name]
    sigma = trivial_multiplier(group)
    one = struct.pack("<dd", 1.0, 0.0)
    rng = random.Random(13)
    for _ in range(40):
        g, h = group.random_element(rng), group.random_element(rng)
        value = sigma.value(g, h)
        assert struct.pack("<dd", value.real, value.imag) == one
        assert sigma.turns(g, h) == 0
    assert verify_cocycle(sigma, samples=200, seed=5)
    assert decided_equal(sigma, multiplier_from_json({"kind": "trivial"}, group)) is True
    for s in (0, 2, Fraction(-3, 7)):
        assert decided_equal(sigma.power(s), sigma) is True
    with pytest.raises(TypeError):
        sigma.power(0.5)
    if isinstance(group, ProductGroup):
        with pytest.raises(MultiplierError, match="no JSON form"):
            sigma.to_json()
    else:
        assert decided_equal(multiplier_from_json(sigma.to_json(), group), sigma) is True


def test_trivial_multiplier_needs_a_group():
    with pytest.raises(MultiplierError, match="needs an explicit group"):
        multiplier_from_json({"kind": "trivial"})


def test_table_multiplier_round_trip():
    base, _ = s3_coboundary()
    table = [[base.turns(g, h) for h in S3.elements()] for g in S3.elements()]
    sigma = TableMultiplier(S3, table)
    assert verify_cocycle(sigma)
    assert multipliers_equal(sigma, base)
    back = multiplier_from_json(sigma.to_json(), S3)
    assert multipliers_equal(back, sigma)


def test_table_multiplier_rejects_unnormalized_tables():
    table = [[Fraction(1, 3)] * 6 for _ in range(6)]
    with pytest.raises(MultiplierError):
        TableMultiplier(S3, table)


def test_characters_of_s3():
    chars = all_characters(S3)
    assert len(chars) == 2
    for chi in chars:
        for a, b in itertools.product(S3.elements(), repeat=2):
            assert chi.turns(S3.multiply(a, b)) == (chi.turns(a) + chi.turns(b)) % 1
    values = sorted({chi.turns(g) for chi in chars for g in S3.elements()})
    assert values == [Fraction(0), Fraction(1, 2)]


def test_lattice_character_is_multiplicative():
    chi = PhaseMap.character_on_lattice(Z2, (Fraction(1, 3), Fraction(1, 4)))
    for a, b in itertools.product(Z2.ball(3), repeat=2):
        assert chi.turns(Z2.multiply(a, b)) % 1 == (chi.turns(a) + chi.turns(b)) % 1
    assert chi.turns((2, 1)) % 1 == (Fraction(2, 3) + Fraction(1, 4)) % 1


def test_random_phase_map_has_exact_turns_and_unit_at_identity():
    z = PhaseMap.random_exact(Z2, random.Random(10))
    assert z.turns((0, 0)) == 0
    g = (2, -1)
    assert z.turns(g).denominator <= 24


def test_multiplier_json_round_trips():
    cases = [
        magnetic_multiplier(THETA),
        magnetic_multiplier(THETA, gauge="symmetric"),
        BilinearMultiplier(FreeAbelianGroup(3), [[0, 1, 0], [0, 0, 0], [Fraction(1, 2), 0, 0]]),
        trivial_multiplier(Z2),
        s3_coboundary()[0],
        magnetic_multiplier(THETA).twist(PhaseMap.quadratic_on_lattice(Z2, Fraction(1, 5))),
        trivial_multiplier(S3),
    ]
    for sigma in cases:
        back = multiplier_from_json(sigma.to_json(), sigma.group)
        assert multipliers_equal(back, sigma)
        # Both sides have normal forms, so equality is decided without a window.
        assert decided_equal(back, sigma) is True


def test_power_json_round_trip():
    sigma = magnetic_multiplier(THETA)
    data = {"kind": "power", "base": sigma.to_json(), "s": "1/2"}
    back = multiplier_from_json(data, Z2)
    assert multipliers_equal(back, sigma.power(Fraction(1, 2)))


def test_bilinear_needs_matching_rank():
    with pytest.raises(MultiplierError):
        BilinearMultiplier(Z2, [[0, 1]])


def test_coboundary_twist_payload_writes_back_and_reads_again():
    payloads = [
        ({"kind": "coboundary-twist", "base": {"kind": "magnetic", "theta": "2/5", "gauge": "symmetric"},
          "z": {"quadratic": "1/5"}}, Z2),
        ({"kind": "coboundary-twist", "base": {"kind": "trivial"},
          "z": {"entries": ["0", "1/3", "1/2", "2/3", "1/4", "5/6"]}}, S3),
    ]
    for data, group in payloads:
        sigma = multiplier_from_json(data, group)
        again = multiplier_from_json(sigma.to_json(), group)
        assert decided_equal(again, sigma) is True


def test_lazy_multipliers_have_no_json_form():
    lazy = [
        magnetic_multiplier(THETA).twist(PhaseMap.random_exact(Z2, random.Random(12))),
        GeometricMultiplier(LatticeGeometry(THETA)),
    ]
    for sigma in lazy:
        with pytest.raises(MultiplierError):
            sigma.to_json()


def test_constructions_return_normal_forms():
    sigma, z = s3_coboundary()
    assert isinstance(sigma, TableMultiplier)
    assert isinstance(trivial_multiplier(S3).twist(z), TableMultiplier)
    lan = magnetic_multiplier(THETA)
    for z2 in (PhaseMap.quadratic_on_lattice(Z2, Fraction(1, 6)),
               PhaseMap.character_on_lattice(Z2, ["1/5", "2/7"]).conjugate()):
        assert isinstance(lan.twist(z2), BilinearMultiplier)
    assert lan.twist(PhaseMap.quadratic_on_lattice(Z2, Fraction(1, 6))).pairing == (
        (0, Fraction(1, 6)), (Fraction(-1, 6), 0))
    assert isinstance(lan.twist(PhaseMap.random_exact(Z2, random.Random(3))), TwistedMultiplier)
    assert decided_equal(lan.conjugate(), lan.power(-1)) is True


def test_decided_equality_of_normal_forms():
    shifted = BilinearMultiplier(Z2, [[2, THETA - 1], [-3, 0]])
    assert decided_equal(shifted, magnetic_multiplier(THETA)) is True
    assert decided_equal(magnetic_multiplier(THETA, "symmetric"), magnetic_multiplier(THETA)) is False
    prod = ProductGroup(Z2, S3)
    assert decided_equal(
        trivial_multiplier(prod),
        ProductMultiplier(prod, trivial_multiplier(Z2), trivial_multiplier(S3)),
    ) is True
    assert decided_equal(trivial_multiplier(S3), s3_coboundary()[0]) is False
    assert decided_equal(trivial_multiplier(Z2), trivial_multiplier(FreeAbelianGroup(3))) is False
    assert decided_equal(GeometricMultiplier(LatticeGeometry(THETA)), magnetic_multiplier(THETA)) is None


def test_rational_power_of_a_twist_twists_the_power():
    sigma = magnetic_multiplier(Fraction(2, 5), gauge="symmetric")
    z = PhaseMap.quadratic_on_lattice(Z2, Fraction(1, 5))
    for s in (Fraction(1, 2), Fraction(-3, 7), 2):
        power = sigma.twist(z).power(s)
        assert power.pairing is not None
        assert decided_equal(power, sigma.power(s).twist(z.scaled(s))) is True
    # A tabulated coboundary keeps the turns of z unreduced, so its powers
    # are the coboundaries of the powers of z.
    _, z3 = s3_coboundary()
    for s in (Fraction(1, 2), Fraction(2, 3)):
        power = trivial_multiplier(S3).twist(z3).power(s)
        assert decided_equal(power, coboundary(z3.scaled(s))) is True
        assert verify_cocycle(power)
    # A lazy twist scales z before reducing its turns mod 1 as well.
    lazy_z = PhaseMap.random_exact(Z2, random.Random(21))
    half = sigma.twist(lazy_z).power(Fraction(1, 2))
    assert multipliers_equal(half, sigma.power(Fraction(1, 2)).twist(lazy_z.scaled(Fraction(1, 2))),
                             radius=3)
    assert verify_cocycle(half, samples=200, seed=4)


# --- integer kernels against the Fraction arithmetic they replace ------------

S4 = symmetric_group(4)
BIG_PRIME = 10**9 + 7


def fraction_loop_turns(pairing, g, h) -> Fraction:
    """The bilinear turns as summed one Fraction at a time (the reference)."""
    total = Fraction(0)
    for i, gi in enumerate(g):
        if gi:
            row = pairing[i]
            total += gi * sum(row[j] * hj for j, hj in enumerate(h) if hj)
    return total


def reference_cocycle_report(sigma, triples, qualifier) -> CocycleReport:
    """verify_cocycle decided and measured entirely through Phase (the reference)."""
    grp = sigma.group
    e = grp.identity()
    worst, witness = 0.0, None
    for g1, g2, g3 in triples:
        lhs = Phase(sigma.turns(grp.multiply(g1, g2), g3) + sigma.turns(g1, g2))
        rhs = Phase(sigma.turns(g1, grp.multiply(g2, g3)) + sigma.turns(g2, g3))
        if lhs != rhs:
            defect = abs(lhs.value - rhs.value)
            if witness is None or defect > worst:
                worst, witness = defect, (g1, g2, g3)
        if Phase(sigma.turns(e, g1)) != Phase(0) or Phase(sigma.turns(g1, e)) != Phase(0):
            defect = max(abs(Phase(sigma.turns(e, g1)).value - 1.0),
                         abs(Phase(sigma.turns(g1, e)).value - 1.0))
            if witness is None or defect > worst:
                worst, witness = defect, (e, g1, None)
    return CocycleReport(witness is None, len(triples), worst, witness, qualifier)


def assert_kernel_matches_phase(sigma, g, h):
    turns = sigma.turns(g, h)
    assert sigma.value(g, h) == Phase(turns).value  # bitwise, not approximately


@st.composite
def pairings_and_pairs(draw):
    rank = draw(st.integers(1, 3))
    denominators = st.one_of(st.integers(1, 60), st.integers(1, BIG_PRIME),
                             st.just(BIG_PRIME))
    entry = st.builds(Fraction, st.integers(-2 * BIG_PRIME, 2 * BIG_PRIME), denominators)
    pairing = [[draw(entry) for _ in range(rank)] for _ in range(rank)]
    vector = st.tuples(*[st.integers(-10**6, 10**6)] * rank)
    return pairing, draw(vector), draw(vector)


@given(pairings_and_pairs())
def test_bilinear_kernel_equals_the_fraction_loop(case):
    pairing, g, h = case
    sigma = BilinearMultiplier(FreeAbelianGroup(len(pairing)), pairing)
    assert sigma.turns(g, h) == fraction_loop_turns(pairing, g, h)
    assert_kernel_matches_phase(sigma, g, h)


def test_bilinear_kernel_at_a_large_prime_flux():
    sigma = magnetic_multiplier(Fraction(123456789, BIG_PRIME), gauge="symmetric")
    rng = random.Random(13)
    for _ in range(2000):
        g = (rng.randint(-999, 999), rng.randint(-999, 999))
        h = (rng.randint(-999, 999), rng.randint(-999, 999))
        assert sigma.turns(g, h) == fraction_loop_turns(sigma.pairing, g, h)
        assert_kernel_matches_phase(sigma, g, h)


@pytest.mark.parametrize("group", [S3, S4], ids=["S3", "S4"])
@pytest.mark.parametrize("s", [1, Fraction(1, 3), Fraction(-5, 7), Fraction(22, 9)])
def test_table_kernel_matches_phase_on_coboundary_powers(group, s):
    z = PhaseMap.random_exact(group, random.Random(41), denominator=12)
    sigma = coboundary(z).power(s)
    assert isinstance(sigma, TableMultiplier)
    scaled = coboundary(z.scaled(s))
    for g in group.elements():
        for h in group.elements():
            # turns stay unreduced, so the power is the coboundary of z^s
            assert sigma.turns(g, h) == scaled.turns(g, h)
            assert_kernel_matches_phase(sigma, g, h)


@given(pairings_and_pairs(), st.integers(0, 23), st.integers(0, 23))
def test_product_kernel_matches_phase_of_summed_turns(case, a, b):
    pairing, g, h = case
    left = BilinearMultiplier(FreeAbelianGroup(len(pairing)), pairing)
    right = coboundary(PhaseMap.random_exact(S4, random.Random(3), denominator=35)).power(
        Fraction(7, 11))
    sigma = ProductMultiplier(ProductGroup(left.group, S4), left, right)
    assert sigma.turns((g, a), (h, b)) == left.turns(g, h) + right.turns(a, b)
    assert_kernel_matches_phase(sigma, (g, a), (h, b))


def perturbed_table(group, entries):
    z = PhaseMap.random_exact(group, random.Random(17), denominator=12)
    table = [list(row) for row in coboundary(z).turn_table]
    for (g, h), shift in entries.items():
        table[g][h] += shift
    return TableMultiplier(group, table)


@pytest.mark.parametrize("entries", [
    {},
    {(3, 5): Fraction(1, 7)},
    {(3, 5): Fraction(1, 7), (5, 3): Fraction(1, 7), (20, 9): Fraction(-2, 5)},
    {(1, 1): Fraction(1, 10**15), (7, 11): Fraction(1, 2), (11, 7): Fraction(1, 2)},
    {(2, 4): 3, (4, 2): Fraction(-1, BIG_PRIME)},
])
def test_cocycle_check_on_perturbed_s4_tables_matches_the_phase_path(entries):
    sigma = perturbed_table(S4, entries)
    triples = list(itertools.product(S4.elements(), repeat=3))
    assert verify_cocycle(sigma) == reference_cocycle_report(sigma, triples, "exhaustive")


def test_sampled_cocycle_check_on_a_perturbed_product_matches_the_phase_path():
    right = perturbed_table(S3, {(1, 2): Fraction(1, 9), (4, 4): Fraction(5, 6)})
    prod = ProductGroup(Z2, S3)
    sigma = ProductMultiplier(prod, magnetic_multiplier(THETA), right)
    rng = random.Random(4)
    triples = [tuple(prod.random_element(rng, 4) for _ in range(3)) for _ in range(400)]
    report = verify_cocycle(sigma, samples=400, seed=4)
    assert not report.passed
    assert report == reference_cocycle_report(sigma, triples, "sampled")
