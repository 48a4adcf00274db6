import itertools
import math
import random
import struct
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistlab import (
    BilinearMultiplier,
    CheckReport,
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
    Multiplier,
    ProductMultiplier,
    TableMultiplier,
    TwistedMultiplier,
    _same_multiplier,
    _table_cocycle_holds,
)
from twistlab.phases import Phase, as_rational, rational_str

Z2 = FreeAbelianGroup(2)
S3 = symmetric_group(3)
THETA = Fraction(1, 3)
X, Y = (1, 0), (0, 1)


def equality(a, b):
    """The route and the verdict of multipliers_equal(a, b)."""
    report = multipliers_equal(a, b)
    return report.how, report.passed


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
    assert report.how == "exhaustive"
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
    assert equality(sigma, multiplier_from_json({"kind": "trivial"}, group)) == ("decided", True)
    for s in (0, 2, Fraction(-3, 7)):
        assert equality(sigma.power(s), sigma) == ("decided", True)
    with pytest.raises(TypeError):
        sigma.power(0.5)
    if isinstance(group, ProductGroup):
        with pytest.raises(MultiplierError, match="no JSON form"):
            sigma.to_json()
    else:
        assert equality(multiplier_from_json(sigma.to_json(), group), sigma) == ("decided", True)


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


C4 = cyclic_group(4)
S3_C4 = ProductGroup(S3, C4)
PHASE_MAPS = {
    "character": (PhaseMap.character_on_lattice(Z2, ["1/3", "-2/7"]), Z2.ball(2)),
    "quadratic": (PhaseMap.quadratic_on_lattice(Z2, "5/12"), Z2.ball(2)),
    "table": (PhaseMap.random_exact(S3, random.Random(5), denominator=12), S3.elements()),
    "random": (PhaseMap.random_exact(Z2, random.Random(6)), Z2.ball(2)),
    "product": (PhaseMap.product(S3_C4, all_characters(S3)[1],
                                 PhaseMap.random_exact(C4, random.Random(7), denominator=8)),
                list(itertools.product(S3.elements(), C4.elements()))),
}


@pytest.mark.parametrize("kind", sorted(PHASE_MAPS))
def test_conjugate_is_scaling_by_minus_one(kind):
    z, points = PHASE_MAPS[kind]
    conj, scaled = z.conjugate(), z.scaled(-1)
    for g in points:
        assert conj.turns(g) == scaled.turns(g) == -z.turns(g) % 1
    pairing = z.coboundary_pairing
    negated = None if pairing is None else tuple(tuple(-x for x in row) for row in pairing)
    assert conj.coboundary_pairing == scaled.coboundary_pairing == negated
    assert (pairing is None) == (kind not in ("character", "quadratic"))


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
        assert equality(back, sigma) == ("decided", True)


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
        assert equality(again, sigma) == ("decided", True)


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
    assert equality(lan.conjugate(), lan.power(-1)) == ("decided", True)


def test_decided_equality_of_normal_forms():
    shifted = BilinearMultiplier(Z2, [[2, THETA - 1], [-3, 0]])
    assert equality(shifted, magnetic_multiplier(THETA)) == ("decided", True)
    assert equality(magnetic_multiplier(THETA, "symmetric"), magnetic_multiplier(THETA)) == ("decided", False)
    prod = ProductGroup(Z2, S3)
    assert equality(
        trivial_multiplier(prod),
        ProductMultiplier(prod, trivial_multiplier(Z2), trivial_multiplier(S3)),
    ) == ("decided", True)
    assert equality(trivial_multiplier(S3), s3_coboundary()[0]) == ("decided", False)
    assert equality(trivial_multiplier(Z2), trivial_multiplier(FreeAbelianGroup(3))) == ("decided", False)
    assert equality(GeometricMultiplier(LatticeGeometry(THETA)), magnetic_multiplier(THETA))[0] != "decided"


def test_rational_power_of_a_twist_twists_the_power():
    sigma = magnetic_multiplier(Fraction(2, 5), gauge="symmetric")
    z = PhaseMap.quadratic_on_lattice(Z2, Fraction(1, 5))
    for s in (Fraction(1, 2), Fraction(-3, 7), 2):
        power = sigma.twist(z).power(s)
        assert power.pairing is not None
        assert equality(power, sigma.power(s).twist(z.scaled(s))) == ("decided", True)
    # A tabulated coboundary keeps the turns of z unreduced, so its powers
    # are the coboundaries of the powers of z.
    _, z3 = s3_coboundary()
    for s in (Fraction(1, 2), Fraction(2, 3)):
        power = trivial_multiplier(S3).twist(z3).power(s)
        assert equality(power, coboundary(z3.scaled(s))) == ("decided", True)
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


def reference_cocycle_report(sigma, triples, how) -> CheckReport:
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
    return CheckReport(witness is None, len(triples), worst, witness, how)


def assert_kernel_matches_phase(sigma, g, h):
    turns = sigma.turns(g, h)
    assert sigma.value(g, h) == Phase(turns).value  # bitwise, not approximately
    n, d = sigma._pair(g, h)
    assert d > 0 and turns == Fraction(n, d)


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


def lazy_multipliers():
    """A geometric multiplier with offsets, a twist by a random Z^2 phase map, and a
    product with a lazy factor."""
    z = PhaseMap.random_exact(Z2, random.Random(23), denominator=35)
    offsets = lambda g: z.turns(g) if g != (0, 0) else 0
    geometric = GeometricMultiplier(LatticeGeometry(Fraction(5, 7), "symmetric", ("1/3", "-2/5"),
                                                    offsets))
    twisted = magnetic_multiplier(Fraction(2, 9)).twist(z)
    right = coboundary(PhaseMap.random_exact(S3, random.Random(5), denominator=12))
    product = ProductMultiplier(ProductGroup(Z2, S3), twisted, right)
    return geometric, twisted, product


def test_lazy_kernels_match_phase():
    geometric, twisted, product = lazy_multipliers()
    assert isinstance(twisted, TwistedMultiplier) and product._denominator is None
    ball = Z2.ball(2)
    for g in ball:
        for h in ball:
            assert_kernel_matches_phase(geometric, g, h)
            assert_kernel_matches_phase(twisted, g, h)
    for (g, a), (h, b) in itertools.product(itertools.product(ball, S3.elements()), repeat=2):
        assert_kernel_matches_phase(product, (g, a), (h, b))


def test_lazy_equality_agrees_with_the_fraction_test():
    geometric, twisted, _ = lazy_multipliers()
    shifted = twisted.twist(PhaseMap.character_on_lattice(Z2, [5, -3]))  # an integer shift
    unequal = twisted.twist(PhaseMap.random_exact(Z2, random.Random(2), denominator=5))
    for a, b in ((twisted, shifted), (twisted, unequal), (geometric, geometric.power(1))):
        old = all((a.turns(g, h) - b.turns(g, h)).denominator == 1
                  for g in Z2.ball(3) for h in Z2.ball(3))
        assert multipliers_equal(a, b, radius=3).passed is old
    assert multipliers_equal(twisted, shifted, radius=3)
    assert not multipliers_equal(twisted, unequal, radius=3)


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


def huge_coboundary(group, seed):
    """A table coboundary whose numerators do not fit in int64."""
    return coboundary(PhaseMap.random_exact(group, random.Random(seed), denominator=2**80 + 13))


def shifted(sigma, g, h, shift):
    table = [list(row) for row in sigma.turn_table]
    table[g][h] += shift
    return TableMultiplier(sigma.group, table)


S3_TABLE = coboundary(PhaseMap.random_exact(S3, random.Random(31), denominator=12))
S4_TABLE = coboundary(PhaseMap.random_exact(S4, random.Random(32), denominator=35))
EXHAUSTIVE_TABLES = {
    "s3": S3_TABLE,
    "s3^2/3": S3_TABLE.power(Fraction(2, 3)),
    "s3^-5/7": S3_TABLE.power(Fraction(-5, 7)),
    "s4": S4_TABLE,
    "s4^7/11": S4_TABLE.power(Fraction(7, 11)),
    "s4-zero": trivial_multiplier(S4),
    "s4-shifted": shifted(S4_TABLE, 3, 5, Fraction(1, 7)),
    "s3-huge": huge_coboundary(S3, 33),
    "s3-huge-shifted": shifted(huge_coboundary(S3, 34), 2, 4, Fraction(1, 2**70)),
}


@pytest.mark.parametrize("key", sorted(EXHAUSTIVE_TABLES))
def test_exhaustive_table_check_returns_the_loop_report(key):
    sigma = EXHAUSTIVE_TABLES[key]
    triples = list(itertools.product(sigma.group.elements(), repeat=3))
    report = verify_cocycle(sigma)
    assert report == reference_cocycle_report(sigma, triples, "exhaustive")
    assert report.passed == ("shifted" not in key)


def test_the_array_pass_decides_the_tables_that_fit_in_int64():
    for key, sigma in EXHAUSTIVE_TABLES.items():
        huge = "huge" in key
        assert (max(abs(x) for row in sigma._numerators for x in row) >= 2**63) == huge
        assert _table_cocycle_holds(sigma) == (not huge and "shifted" not in key)


def test_a_passing_table_check_walks_no_triple(monkeypatch):
    def refuse(*args):
        raise AssertionError("walked a triple")

    monkeypatch.setattr(TableMultiplier, "_numerator", refuse)
    monkeypatch.setattr(TableMultiplier, "turns", refuse)
    report = verify_cocycle(S4_TABLE, samples=5)
    assert report == CheckReport(True, 24**3, 0.0, None, "exhaustive")


def test_sampled_cocycle_check_on_a_perturbed_product_matches_the_phase_path():
    right = perturbed_table(S3, {(1, 2): Fraction(1, 9), (4, 4): Fraction(5, 6)})
    prod = ProductGroup(Z2, S3)
    sigma = ProductMultiplier(prod, magnetic_multiplier(THETA), right)
    rng = random.Random(4)
    triples = [tuple(prod.random_element(rng, 4) for _ in range(3)) for _ in range(400)]
    report = verify_cocycle(sigma, samples=400, seed=4)
    assert not report.passed
    assert report == reference_cocycle_report(sigma, triples, "sampled")


def entrywise_kernel(turn_table):
    """Turn table, denominator and numerators with every entry converted on its own."""
    table = tuple(tuple(as_rational(x) for x in row) for row in turn_table)
    d = math.lcm(*(x.denominator for row in table for x in row))
    return table, d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in table)


def table_kernel(sigma):
    return sigma.turn_table, sigma._denominator, sigma._numerators


@pytest.mark.parametrize("n", [3, 4])
def test_table_multipliers_equal_the_entrywise_conversion(n):
    group = symmetric_group(n)
    table = coboundary(PhaseMap.random_exact(group, random.Random(n), denominator=12)).turn_table
    as_text = [[rational_str(x) for x in row] for row in table]
    shared = [as_text[0]] * group.n  # one row object, repeated
    shared[group.identity_index] = ["0"] * group.n
    for rows in (table, as_text, shared):
        assert table_kernel(TableMultiplier(group, rows)) == entrywise_kernel(rows)
    # Fresh row lists from a generator: a row freed before the next is made
    # could reuse its id, so the rows must be held while ids are compared.
    fresh = TableMultiplier(group, ([*row] for row in as_text))
    assert table_kernel(fresh) == entrywise_kernel(as_text)


def test_the_s6_zero_table_converts_one_row():
    s6 = symmetric_group(6)
    start = time.perf_counter()
    sigma = trivial_multiplier(s6)
    elapsed = time.perf_counter() - start
    assert table_kernel(sigma) == entrywise_kernel(((Fraction(0),) * 720,) * 720)
    assert elapsed < 0.05, f"trivial_multiplier(S6) took {elapsed:.3f} s"


def test_scaled_tables_equal_the_entrywise_reference():
    for n in (3, 4):
        group = symmetric_group(n)
        table = coboundary(PhaseMap.random_exact(group, random.Random(n), denominator=12)).turn_table
        shared = [table[1]] * group.n  # one row object, repeated
        shared[group.identity_index] = (Fraction(0),) * group.n
        for rows in (table, shared):
            sigma = TableMultiplier(group, rows)
            for s in (Fraction(1, 2), Fraction(-7, 3), 0, -1):
                scaled = [[x * s for x in row] for row in rows]
                assert table_kernel(sigma.power(s)) == entrywise_kernel(scaled)
            assert table_kernel(sigma.conjugate()) == entrywise_kernel([[-x for x in row] for row in rows])


def test_the_s6_zero_table_scales_one_row():
    sigma = trivial_multiplier(symmetric_group(6))
    for scaled in (sigma.power(Fraction(1, 2)), sigma.conjugate()):
        assert len({id(row) for row in scaled.turn_table}) == 1
        assert len({id(row) for row in scaled._numerators}) == 1
        assert table_kernel(scaled) == table_kernel(sigma)


def psi_turns(geometry, g, x):
    """psi_g(x) / (2 pi) at a rational point x, from the integer pair of LatticeGeometry."""
    return Fraction(*geometry._psi_pair(g, *(as_rational(v).as_integer_ratio() for v in x)))


def reference_psi_turns(geometry, g, x):
    """psi_g(x) in Fraction arithmetic, as LatticeGeometry computed it term by term."""
    x1, x2 = (as_rational(v) for v in x)
    g1, g2 = g
    if geometry.gauge == "landau":
        out = geometry.theta * g1 * x2
    else:
        out = geometry.theta * (Fraction(g1) * x2 - Fraction(g2) * x1) / 2
    if geometry.offsets is not None:
        off = as_rational(geometry.offsets(g))
        if g == (0, 0) and off != 0:
            raise MultiplierError("offset at the identity must vanish")
        out += off
    return out


def reference_geometric_turns(geometry, g, h):
    x0 = geometry.base_point
    hx0 = (x0[0] + h[0], x0[1] + h[1])
    gh = (g[0] + h[0], g[1] + h[1])
    return (reference_psi_turns(geometry, h, x0) + reference_psi_turns(geometry, g, hx0)
            - reference_psi_turns(geometry, gh, x0))


def random_rational(rng, max_denominator):
    return Fraction(rng.randint(-10 * max_denominator, 10 * max_denominator), rng.randint(1, max_denominator))


@pytest.mark.parametrize("gauge", ["landau", "symmetric"])
@pytest.mark.parametrize("theta", [Fraction(1, 3), Fraction(-5, 12), Fraction(7, 2),
                                   Fraction(123456789, 10**9 + 7), Fraction(-10**9 - 6, 10**9 + 7)])
def test_integer_psi_equals_the_fraction_reference(gauge, theta):
    rng = random.Random(f"{gauge} {theta}")
    table = {g: random_rational(rng, 97) for g in itertools.product(range(-4, 5), repeat=2)}
    table[(0, 0)] = Fraction(0)
    for offsets in (None, table.__getitem__, lambda g: g[0] - 2 * g[1]):
        point = (random_rational(rng, 10**9 + 7), random_rational(rng, 30))
        geometry = LatticeGeometry(theta, gauge, point, offsets)
        geometric = GeometricMultiplier(geometry)
        for _ in range(40):
            g = (rng.randint(-2, 2), rng.randint(-2, 2))
            h = (rng.randint(-2, 2), rng.randint(-2, 2))
            x = random_rational(rng, 10**6), random_rational(rng, 10**9 + 7)
            psi = psi_turns(geometry, g, x)
            assert type(psi) is Fraction
            assert psi == reference_psi_turns(geometry, g, x)
            assert psi_turns(geometry, g, (str(x[0]), x[1])) == psi
            assert geometric.turns(g, h) == reference_geometric_turns(geometry, g, h)


def test_a_nonzero_offset_at_the_identity_still_raises():
    geometry = LatticeGeometry(THETA, offsets=lambda g: Fraction(1, 4))
    with pytest.raises(MultiplierError, match="offset at the identity"):
        psi_turns(geometry, (0, 0), (Fraction(1, 2), 3))
    with pytest.raises(MultiplierError, match="offset at the identity"):
        GeometricMultiplier(geometry).turns((1, 2), (-1, -2))
    assert psi_turns(geometry, (1, 0), (0, 0)) == Fraction(1, 4)


def test_lazy_equality_compares_turns_mod_one():
    geometric = GeometricMultiplier(LatticeGeometry("1/3"))
    assert equality(geometric, magnetic_multiplier("2/3"))[0] != "decided"
    assert not multipliers_equal(geometric, magnetic_multiplier("2/3"))
    assert multipliers_equal(geometric, magnetic_multiplier("1/3"))
    integral = GeometricMultiplier(LatticeGeometry("1/3", offsets=lambda g: 3 * g[0] - g[1] * g[1]))
    assert any(integral.turns(g, h) != geometric.turns(g, h) for g in Z2.ball(2) for h in Z2.ball(2))
    assert multipliers_equal(integral, magnetic_multiplier("1/3"))
    assert multipliers_equal(integral, geometric)


def test_a_twist_that_moves_the_identity_fails_normalization():
    # A raw PhaseMap with z(e) = 1/4 turn: sigma(e, g) becomes i, at distance sqrt 2 from 1.
    z = PhaseMap(Z2, lambda g: Fraction(1, 4) if g == (0, 0) else Fraction(0))
    sigma = magnetic_multiplier(THETA).twist(z)
    assert isinstance(sigma, TwistedMultiplier)
    report = verify_cocycle(sigma)
    assert not report.passed
    assert report.witness[0] == (0, 0) and report.witness[2] is None
    assert report.worst_defect == pytest.approx(math.sqrt(2), abs=1e-15)


# --- how a cocycle check is reached ------------------------------------------

PAIRINGS = [trivial_multiplier(Z2), magnetic_multiplier(THETA), magnetic_multiplier("2/7", "symmetric"),
            BilinearMultiplier(FreeAbelianGroup(3), [[0, "1/5", 0], ["2/3", 0, 1], [0, 0, "-3/4"]])]


@pytest.mark.parametrize("sigma", PAIRINGS)
def test_a_pairing_is_decided_without_evaluating_a_triple(monkeypatch, sigma):
    def refuse(*args):
        raise AssertionError("evaluated a triple")

    monkeypatch.setattr(BilinearMultiplier, "_numerator", refuse)
    for name in ("_pair", "turns", "value"):
        monkeypatch.setattr(Multiplier, name, refuse)
    for samples in (1, 150, 0, -1):
        report = verify_cocycle(sigma, samples=samples, seed=3)
        assert report == CheckReport(True, 0, 0.0, None, "decided")
        assert report


def test_how_names_the_route_and_only_pairings_are_decided():
    lazy = [GeometricMultiplier(LatticeGeometry(THETA)),
            magnetic_multiplier(THETA).twist(PhaseMap.random_exact(Z2, random.Random(5)))]
    for sigma in MULTIPLIER_ZOO + list(EXHAUSTIVE_TABLES.values()) + lazy:
        report = verify_cocycle(sigma, samples=20, seed=1)
        if isinstance(sigma, BilinearMultiplier):
            assert (report.how, report.checked) == ("decided", 0)
        elif sigma.group.is_finite() and len(sigma.group.elements()) <= 24:
            assert (report.how, report.checked) == ("exhaustive", len(sigma.group.elements()) ** 3)
        else:
            assert (report.how, report.checked) == ("sampled", 20)
    assert verify_cocycle(S4_TABLE).how == "exhaustive"
    assert verify_cocycle(lazy[0]).how == "sampled"


def test_a_sampled_cocycle_check_needs_one_sample():
    geometric = GeometricMultiplier(LatticeGeometry("1/3"))
    for samples in (0, -1, 2.5, True):
        with pytest.raises(MultiplierError, match="samples >= 1"):
            verify_cocycle(geometric, samples=samples)
    assert verify_cocycle(geometric, samples=1) == CheckReport(True, 1, 0.0, None, "sampled")
    # A small finite group is walked whole, whatever the sample count.
    assert verify_cocycle(s3_coboundary()[0], samples=0).checked == 6 ** 3


def test_lazy_multipliers_are_compared_on_a_ball_of_radius_at_least_one():
    geometric = GeometricMultiplier(LatticeGeometry("1/3"))
    for radius in (-1, 0, 1.5, True):
        with pytest.raises(MultiplierError, match="radius >= 1"):
            multipliers_equal(geometric, magnetic_multiplier("2/7"), radius=radius)
    assert not multipliers_equal(geometric, magnetic_multiplier("2/7"), radius=1)
    assert multipliers_equal(geometric, magnetic_multiplier("1/3"), radius=1)


@pytest.mark.parametrize("defects, worst, witness_at", [
    ([0.5, 2.0, 1.0, 2.0], 2.0, 1),  # the first worst case is the witness
    ([0.5, 2.0, math.nan, 3.0, math.nan], math.nan, 2),  # a NaN is worse than any number
    ([math.nan, math.inf], math.nan, 0),
    ([0.0, 0.0], 0.0, None),
    ([], 0.0, None),
])
def test_a_report_from_cases_keeps_the_first_worst_case(defects, worst, witness_at):
    cases = [(d, i) for i, d in enumerate(defects)]
    report = CheckReport.from_cases(cases, lambda d, i: d, 1.0, "exhaustive")
    assert report.checked == len(defects) and report.how == "exhaustive"
    assert struct.pack("d", report.worst_defect) == struct.pack("d", worst)
    assert report.passed is (witness_at is None or worst <= 1.0)
    assert report.witness == (None if report.passed else cases[witness_at])


def test_a_report_from_cases_holds_at_its_tolerance():
    assert CheckReport.from_cases([(1e-10,)], abs, 1e-10).passed
    assert not CheckReport.from_cases([(2e-10,)], abs, 1e-10).passed
    assert CheckReport.from_cases([(0.0,)], abs) == CheckReport(True, 1, 0.0, None, "sampled")
    assert not CheckReport.from_cases([(5e-324,)], abs)


def test_equality_of_two_pairings_is_decided():
    a = BilinearMultiplier(FreeAbelianGroup(3), [[0, 1, 0], [0, 0, 0], [Fraction(1, 2), 0, 0]])
    b = BilinearMultiplier(FreeAbelianGroup(3), [[2, 0, -1], [0, 0, 3], [Fraction(-1, 2), 0, 5]])
    assert multipliers_equal(a, b) == CheckReport(True, 0, 0.0, None, "decided")
    assert multipliers_equal(a, a.power(2)) == CheckReport(False, 0, math.inf, None, "decided")


def test_a_lazy_multiplier_on_z2_is_sampled_on_the_square_of_a_ball():
    geometric = GeometricMultiplier(LatticeGeometry(THETA))
    report = multipliers_equal(geometric, magnetic_multiplier(THETA), radius=3)
    assert len(Z2.ball(3)) == 25
    assert report == CheckReport(True, 25 ** 2, 0.0, None, "sampled")


def test_a_lazy_product_twist_on_a_small_group_is_checked_on_every_pair():
    group = ProductGroup(S3, cyclic_group(2))
    left = PhaseMap.random_exact(S3, random.Random(4), denominator=12)
    right = PhaseMap.random_exact(group.right, random.Random(5), denominator=12)
    z = PhaseMap.product(group, left, right)
    lazy = trivial_multiplier(group).twist(z)
    normal = ProductMultiplier(group, coboundary(left), coboundary(right))
    assert isinstance(lazy, TwistedMultiplier)
    assert multipliers_equal(lazy, normal) == CheckReport(True, 12 ** 2, 0.0, None, "exhaustive")
    assert is_cohomologous_via(trivial_multiplier(group), normal, z) == multipliers_equal(lazy, normal)
    other = ProductMultiplier(group, trivial_multiplier(S3), coboundary(right))
    assert not multipliers_equal(lazy, other) and multipliers_equal(lazy, other).how == "exhaustive"


class Nudged(Multiplier):
    """base with the turns of one pair moved by a rational amount: lazy, and no cocycle."""

    kind = "nudged"

    def __init__(self, base, at, turns):
        super().__init__(base.group)
        self.base, self.at, self.nudge = base, at, Fraction(turns)

    def _pair(self, g, h):
        turns = self.base.turns(g, h) + (self.nudge if (g, h) == self.at else 0)
        return turns.numerator, turns.denominator


@pytest.mark.parametrize("turns", [Fraction(1, 10 ** 12), Fraction(-1, 10 ** 12), Fraction(1, 10 ** 400)],
                         ids=["1e-12", "-1e-12", "1e-400"])
def test_lazy_multipliers_that_differ_at_one_pair_fail_there(turns):
    base = GeometricMultiplier(LatticeGeometry(THETA))
    at = ((1, -1), (0, 2))
    report = multipliers_equal(base, Nudged(base, at, turns), radius=2)
    assert not report.passed and report.how == "sampled" and report.checked == 13 ** 2
    assert report.witness == at
    assert 0.0 < report.worst_defect == max(float(abs(turns)), 5e-324)
    assert multipliers_equal(base, Nudged(base, at, 1), radius=2).passed  # a whole turn moves no phase


def test_multipliers_on_different_groups_are_decided_unequal():
    lazy = GeometricMultiplier(LatticeGeometry(THETA))
    for a, b in ((trivial_multiplier(Z2), trivial_multiplier(FreeAbelianGroup(3))),
                 (lazy, trivial_multiplier(S3))):
        assert multipliers_equal(a, b) == CheckReport(False, 0, math.inf, None, "decided")


def test_the_normal_form_comparison_evaluates_no_pair(monkeypatch):
    def no_pair(self, g, h):
        raise AssertionError("a pair was evaluated")

    for cls in (Multiplier, ProductMultiplier, TwistedMultiplier, GeometricMultiplier):
        monkeypatch.setattr(cls, "_pair", no_pair)
    sigma, _ = s3_coboundary()
    lazy = GeometricMultiplier(LatticeGeometry(THETA))
    assert _same_multiplier(BilinearMultiplier(Z2, [[2, THETA - 1], [-3, 0]]), magnetic_multiplier(THETA))
    assert _same_multiplier(sigma.power(1), sigma) and not _same_multiplier(sigma, trivial_multiplier(S3))
    assert _same_multiplier(lazy, lazy) and not _same_multiplier(lazy, magnetic_multiplier(THETA))
    assert not _same_multiplier(trivial_multiplier(Z2), trivial_multiplier(S3))
    assert multipliers_equal(sigma.power(1), sigma).how == "decided"
