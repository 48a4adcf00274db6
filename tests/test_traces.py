"""Tests for invariant functionals: trace laws, positivity, invariance, witnesses."""

import cmath
import random
import re

import numpy as np
import pytest

from twistlab import (
    AlgebraElement,
    AlgebraError,
    CheckReport,
    FreeAbelianGroup,
    Homomorphism,
    PhaseMap,
    ProductGroup,
    ProductMultiplier,
    TraceError,
    TraceFunctional,
    TwistlabError,
    UnitaryRep,
    all_characters,
    character_functionals,
    check_invariance,
    check_positivity,
    check_trace_property,
    coboundary,
    conjugacy_functional,
    cyclic_group,
    element_from_json,
    linear_combination,
    magnetic_multiplier,
    matrix_trace,
    product_trace,
    regular_trace,
    summation_trace,
    symmetric_group,
    trace_from_json,
    trivial_multiplier,
    unitary_trace,
)
from twistlab.algebra import random_element

S3 = symmetric_group(3)
TRANSPOSITION = next(g for g in S3.elements() if S3.element_order(g) == 2)
MAGNETIC = magnetic_multiplier("1/3")
LATTICE_TRIVIAL = trivial_multiplier(FreeAbelianGroup(2))


def test_regular_trace_satisfies_all_laws_on_magnetic_algebra():
    tau = regular_trace(MAGNETIC)
    trace = check_trace_property(tau)
    pos = check_positivity(tau)
    assert trace.passed and trace.worst_defect <= 1e-12
    assert pos.passed and pos.worst_defect <= 1e-12
    assert trace.witness is None


def test_trace_property_checks_delta_pairs_only_on_a_small_ball():
    # ball(2) of Z^2 has 13 elements: 40 random pairs.  That of S3 has 5: 25 delta pairs first.
    assert check_trace_property(regular_trace(MAGNETIC)).checked == 40
    assert check_trace_property(regular_trace(trivial_multiplier(S3))).checked == 65


def test_regular_trace_is_faithful(rng):
    tau = regular_trace(MAGNETIC)
    for _ in range(20):
        a = random_element(MAGNETIC, rng, 4, 3)
        v = tau(a.star().convolve(a))
        expected = sum(abs(a.coefficient(g)) ** 2 for g in a.support())
        assert abs(v - expected) <= 1e-12
        if a.support():
            assert v.real > 0


def test_summation_trace_fails_exactly_on_magnetic_twist():
    bad = check_trace_property(summation_trace(MAGNETIC))
    assert not bad.passed
    assert bad.witness is not None
    good = check_trace_property(summation_trace(LATTICE_TRIVIAL))
    assert good.passed


def test_summation_defect_on_delta_pair_matches_commutator_phase():
    tau = summation_trace(MAGNETIC)
    x = AlgebraElement(MAGNETIC, [((1, 0), 1.0)])
    y = AlgebraElement(MAGNETIC, [((0, 1), 1.0)])
    defect = abs(tau(x.convolve(y)) - tau(y.convolve(x)))
    assert abs(defect - abs(cmath.exp(2j * cmath.pi / 3) - 1)) <= 1e-12


def test_conjugacy_functional_is_trace_without_twist():
    for sigma, g in [
        (trivial_multiplier(S3), TRANSPOSITION),
        (LATTICE_TRIVIAL, (1, 0)),
    ]:
        rep = check_trace_property(conjugacy_functional(sigma, g))
        assert rep.passed, rep.worst_defect


def test_conjugacy_functional_breaks_under_generic_coboundary():
    z = PhaseMap.random_exact(S3, random.Random(71))
    sigma = coboundary(z)
    rep = check_trace_property(conjugacy_functional(sigma, TRANSPOSITION))
    assert not rep.passed
    a, b = rep.witness
    tau = conjugacy_functional(sigma, TRANSPOSITION)
    assert abs(tau(a.convolve(b)) - tau(b.convolve(a))) == pytest.approx(rep.worst_defect)


def test_product_trace_weights_and_law():
    C3 = cyclic_group(3)
    pg = ProductGroup(S3, C3)
    sigma = ProductMultiplier(pg, trivial_multiplier(S3), trivial_multiplier(C3))
    left = conjugacy_functional(trivial_multiplier(S3), TRANSPOSITION)
    tau = product_trace(left, sigma)
    e_r = C3.identity()
    assert tau.weights() == {(g, e_r): 1.0 for g in S3.conjugacy_class(TRANSPOSITION)}
    assert check_trace_property(tau).passed
    # The canonical trace on a product is the product of canonical traces.
    assert product_trace(regular_trace(trivial_multiplier(S3)), sigma).weights() == \
        regular_trace(sigma).weights()


def test_product_trace_rejects_wrong_factor():
    C3 = cyclic_group(3)
    pg = ProductGroup(S3, C3)
    sigma = ProductMultiplier(pg, trivial_multiplier(S3), trivial_multiplier(C3))
    with pytest.raises(TraceError):
        product_trace(regular_trace(trivial_multiplier(C3)), sigma)


def test_pullback_weights_need_finite_support():
    tau = summation_trace(LATTICE_TRIVIAL)
    with pytest.raises(TraceError):
        tau.weights()


def test_unitary_trace_value_independent_of_representation(rng):
    sigma = trivial_multiplier(S3)
    ident = Homomorphism.identity(S3)
    base = regular_trace(sigma)
    u1 = UnitaryRep.regular(S3)
    u2 = UnitaryRep.direct_sum([u1, u1])
    t1 = unitary_trace(u1, ident, base, sigma)
    t2 = unitary_trace(u2, ident, base, sigma)
    for _ in range(10):
        a = random_element(sigma, rng, 4, 2)
        assert abs(t1(a) / u1.dim - a.coefficient(S3.identity())) <= 1e-10
        assert abs(t1(a) / u1.dim - t2(a) / u2.dim) <= 1e-10


def test_unitary_rep_constructors():
    u = UnitaryRep.regular(S3)
    assert u.dim == 6
    # n unitarity cases and n^2 product cases.
    assert u.verify() == CheckReport(True, 42, 0.0, None, "exhaustive")
    chis = all_characters(S3)
    onedim = [UnitaryRep.from_character(chi) for chi in chis]
    assert all(r.dim == 1 for r in onedim)
    s = UnitaryRep.direct_sum(onedim)
    assert s.dim == len(chis)
    report = s.verify()
    assert report.passed and report.worst_defect <= 1e-12 and report.how == "exhaustive"
    g = TRANSPOSITION
    assert s.character(g) == pytest.approx(sum(r.character(g) for r in onedim))


NAN = float("nan")


@pytest.mark.parametrize("check", [check_trace_property, check_positivity])
@pytest.mark.parametrize("make", [
    lambda: TraceFunctional(MAGNETIC, lambda g: NAN),
    lambda: TraceFunctional(MAGNETIC, {(0, 0): NAN}),
], ids=["callable", "dict"])
def test_a_nan_defect_fails_with_its_witness(check, make):
    report = check(make())
    assert not report.passed and cmath.isnan(report.worst_defect)
    assert report.witness is not None and report.checked == 40 and report.how == "sampled"


def test_a_nan_defect_after_finite_ones_is_the_witness():
    # The summation weight fails the twisted trace law by a finite defect on
    # most pairs; a NaN weight at (1, 1) makes the pairs that reach it NaN.
    tau = TraceFunctional(MAGNETIC, lambda g: NAN if g == (1, 1) else 1.0)
    finite = check_trace_property(summation_trace(MAGNETIC))
    assert not finite.passed and finite.worst_defect > 1e-10
    report = check_trace_property(tau)
    assert not report.passed and cmath.isnan(report.worst_defect)
    a, b = report.witness
    assert cmath.isnan(abs(tau(a.convolve(b)) - tau(b.convolve(a))))


def test_unitary_rep_check_keeps_its_worst_witness():
    def scaled(c):
        mats = {g: UnitaryRep.regular(S3).matrix(g) for g in S3.elements()}
        mats[TRANSPOSITION] = c * mats[TRANSPOSITION]
        return UnitaryRep(S3, mats).verify()

    report = scaled(2.0)
    assert not report and report.checked == 42 and report.how == "exhaustive"
    # 2P (2P)* - 1 = 3 on the diagonal, first met at the unitarity of 2P.
    assert report.worst_defect == 3.0
    assert report.witness == (TRANSPOSITION, None)
    # The check passes at relative_tol(1.0) = 1e-9.
    assert scaled(1 + 1e-10).passed
    assert not scaled(1 + 1e-8).passed


@pytest.mark.parametrize("matrices", [
    {},
    {0: np.eye(2)},
    {**{g: np.eye(1) for g in range(6)}, 6: np.eye(1)},
    {g: np.ones((2, 3)) for g in range(6)},
    {g: np.ones(2) for g in range(6)},
    {g: np.eye(3 if g == 4 else 2) for g in range(6)},
    {g: np.full((1, 1), np.nan) for g in range(6)},
], ids=["empty", "one-element", "extra-key", "non-square", "vector", "mixed-size", "nan"])
def test_unitary_rep_refuses_a_malformed_matrix_map(matrices):
    with pytest.raises(TraceError):
        UnitaryRep(S3, matrices)


def test_direct_sum_needs_summands_of_one_group():
    with pytest.raises(TraceError):
        UnitaryRep.direct_sum([])
    with pytest.raises(TraceError):
        UnitaryRep.direct_sum([UnitaryRep.regular(S3), UnitaryRep.regular(cyclic_group(6))])


def test_matrix_trace_is_cyclic(rng):
    tau = regular_trace(MAGNETIC)
    zero = AlgebraElement(MAGNETIC, [])

    def rand_block():
        return [[random_element(MAGNETIC, rng, 3, 2) for _ in range(2)] for _ in range(2)]

    def mul(x, y):
        return [
            [sum((x[i][k].convolve(y[k][j]) for k in range(2)), zero) for j in range(2)]
            for i in range(2)
        ]

    for _ in range(5):
        a, b = rand_block(), rand_block()
        assert abs(matrix_trace(tau, mul(a, b)) - matrix_trace(tau, mul(b, a))) <= 1e-10
    with pytest.raises(TraceError):
        matrix_trace(tau, [[zero, zero]])


def test_linear_combination_merges_weights():
    sigma = trivial_multiplier(S3)
    tau = linear_combination([
        (2.0, regular_trace(sigma)),
        (-1.0, conjugacy_functional(sigma, TRANSPOSITION)),
    ])
    w = tau.weights()
    assert w[S3.identity()] == 2.0
    assert all(w[g] == -1.0 for g in S3.conjugacy_class(TRANSPOSITION))
    with pytest.raises(TraceError):
        linear_combination([])
    with pytest.raises(TraceError):
        linear_combination([(1.0, regular_trace(sigma)), (1.0, regular_trace(MAGNETIC))])


def test_character_functionals_are_traces_on_untwisted_s3():
    sigma = trivial_multiplier(S3)
    taus = character_functionals(sigma)
    assert len(taus) == 2
    for tau in taus:
        assert check_trace_property(tau).passed


def test_delocalization_flags():
    assert not regular_trace(MAGNETIC).is_delocalized
    assert not summation_trace(MAGNETIC).is_delocalized
    assert conjugacy_functional(LATTICE_TRIVIAL, (1, 0)).is_delocalized


def test_trace_audits_are_sampled_check_reports():
    sigma = trivial_multiplier(FreeAbelianGroup(1))
    chi = PhaseMap.character_on_lattice(FreeAbelianGroup(1), ["1/5"])
    for report in (check_trace_property(regular_trace(MAGNETIC)), check_positivity(regular_trace(MAGNETIC)),
                   check_invariance(regular_trace(sigma), chi),
                   check_invariance(conjugacy_functional(sigma, (1,)), chi)):
        assert isinstance(report, CheckReport)
        assert report.how == "sampled" and report.checked > 0
        assert bool(report) is report.passed


def test_gauge_invariance_separates_localized_from_delocalized():
    Z1 = FreeAbelianGroup(1)
    sigma = trivial_multiplier(Z1)
    chi = PhaseMap.character_on_lattice(Z1, ["1/5"])
    assert check_invariance(regular_trace(sigma), chi).passed
    bad = check_invariance(conjugacy_functional(sigma, (1,)), chi)
    assert not bad.passed
    assert bad.witness is not None


def test_trace_json_round_trip():
    sigma = trivial_multiplier(S3)
    tau = conjugacy_functional(sigma, TRANSPOSITION)
    back = trace_from_json(tau.to_json(), sigma)
    assert back.weights() == tau.weights()
    assert back.kind == "conjugacy"


@pytest.mark.parametrize("weight", [{"g": 1, "re": True}, {"g": 1, "re": "1"}, {"g": 1.0, "re": 1.0},
                                    {"g": True, "re": 1.0}])
def test_trace_json_weights_are_checked_not_coerced(weight):
    with pytest.raises(TwistlabError):
        trace_from_json({"weights": [weight]}, trivial_multiplier(S3))


def test_a_mapping_and_a_callable_of_the_same_weights_agree_bit_for_bit(rng):
    sigma = coboundary(PhaseMap.random_exact(S3, random.Random(5)))
    table = {g: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for g in sorted(S3.elements())}
    mapped, called = TraceFunctional(sigma, table), TraceFunctional(sigma, lambda g: table[g])
    assert mapped.weights() == called.weights() == table
    for _ in range(20):
        a = random_element(sigma, rng, 4, 2)
        assert mapped(a).real.hex() == called(a).real.hex()
        assert mapped(a).imag.hex() == called(a).imag.hex()


def test_the_support_is_known_exactly_for_finite_weight_maps():
    e = MAGNETIC.group.identity()
    assert regular_trace(MAGNETIC).support == [e]
    assert summation_trace(MAGNETIC).support is None
    assert character_functionals(trivial_multiplier(S3))[0].support is None
    sigma = trivial_multiplier(S3)
    assert sorted(conjugacy_functional(sigma, TRANSPOSITION).support) == sorted(S3.conjugacy_class(TRANSPOSITION))
    # A zero weight is not in the support.
    assert TraceFunctional(sigma, {0: 1.0, 1: 0.0}).support == [0]
    C3 = cyclic_group(3)
    finite = ProductMultiplier(ProductGroup(S3, C3), sigma, trivial_multiplier(C3))
    assert sorted(product_trace(conjugacy_functional(sigma, TRANSPOSITION), finite).support) == \
        sorted((g, 0) for g in S3.conjugacy_class(TRANSPOSITION))
    infinite = ProductMultiplier(ProductGroup(FreeAbelianGroup(2), C3), LATTICE_TRIVIAL, trivial_multiplier(C3))
    tau = product_trace(summation_trace(LATTICE_TRIVIAL), infinite)
    assert tau.support is None
    assert tau(AlgebraElement(infinite, [(((1, 2), 0), 2.0), (((3, 0), 1), 5.0)])) == 2.0


@pytest.mark.parametrize("weights", [None, [((0, 0), 1.0)], 1.0], ids=["none", "list", "number"])
def test_weights_are_a_mapping_or_a_callable(weights):
    with pytest.raises(TraceError, match="mapping or a callable"):
        TraceFunctional(MAGNETIC, weights)


def test_functional_rejects_foreign_elements():
    tau = regular_trace(MAGNETIC)
    a = AlgebraElement(LATTICE_TRIVIAL, [((0, 0), 1.0)])
    with pytest.raises(TraceError):
        tau(a)
    with pytest.raises(TraceError):
        TraceFunctional(MAGNETIC, None)


@pytest.mark.parametrize("weights, foreign", [
    ({(0, 0, 0): 1.0, "x": 2.0}, (0, 0, 0)), ({(0, 0): 1.0, "x": 0.0}, "x"), ({(0, 0.0): 1.0}, (0, 0.0)),
])
def test_a_weight_map_holds_only_elements_of_the_group(weights, foreign):
    with pytest.raises(TwistlabError, match=re.escape(repr(foreign))):
        TraceFunctional(MAGNETIC, weights)


def test_a_repeated_element_sums_its_weights_as_element_terms_do():
    payload = [{"g": [0, 0], "re": 1.0}, {"g": [1, 0], "im": 2.0}, {"g": [0, 0], "re": 5.0}]
    tau = trace_from_json({"weights": payload}, MAGNETIC)
    assert tau.weights() == {(0, 0): 6, (1, 0): 2j}
    assert tau.weights() == element_from_json(MAGNETIC, {"terms": payload}).coeffs


@pytest.mark.parametrize("data", [{"weights": {"g": [0, 0], "re": 1.0}}, {"weights": ["g"]}, {}, []])
def test_trace_json_weights_must_be_a_list_of_objects(data):
    with pytest.raises(AlgebraError, match="element weights must be a list"):
        trace_from_json(data, MAGNETIC)


def test_product_trace_of_a_functional_without_finite_support_weighs_by_function():
    group = ProductGroup(FreeAbelianGroup(2), cyclic_group(3))
    tau = product_trace(summation_trace(LATTICE_TRIVIAL), trivial_multiplier(group))
    assert tau.weight(((2, 5), 0)) == 1
    assert tau.weight(((2, 5), 1)) == 0
    with pytest.raises(TraceError, match="no finite weight support"):
        tau.weights()


def test_character_functionals_of_a_product_group():
    group = ProductGroup(S3, cyclic_group(3))
    # S3 has two characters and C3 three.
    assert len(character_functionals(trivial_multiplier(group))) == 6
