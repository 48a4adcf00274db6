"""Tests for invariant functionals: trace laws, positivity, invariance, witnesses."""

import cmath
import random

import pytest

from twistlab import (
    AlgebraElement,
    FreeAbelianGroup,
    Homomorphism,
    PhaseMap,
    ProductGroup,
    ProductMultiplier,
    TraceError,
    TraceFunctional,
    UnitaryRep,
    all_characters,
    character_functionals,
    check_invariance,
    check_positivity,
    check_trace_property,
    coboundary,
    conjugacy_functional,
    cyclic_group,
    linear_combination,
    magnetic_multiplier,
    matrix_trace,
    product_trace,
    pullback_trace,
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


def test_pullback_to_point_group_sums_coefficients(rng):
    point = cyclic_group(1)
    collapse = Homomorphism.from_table(S3, point, [0] * 6)
    sigma = trivial_multiplier(S3)
    tau = pullback_trace(collapse, regular_trace(trivial_multiplier(point)), sigma)
    a = random_element(sigma, rng, 4, 2)
    total = sum(a.coefficient(g) for g in a.support())
    assert abs(tau(a) - total) <= 1e-12


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
    assert u.verify() <= 1e-12
    chis = all_characters(S3)
    onedim = [UnitaryRep.from_character(chi) for chi in chis]
    assert all(r.dim == 1 for r in onedim)
    s = UnitaryRep.direct_sum(onedim)
    assert s.dim == len(chis)
    assert s.verify() <= 1e-12
    g = TRANSPOSITION
    assert s.character(g) == pytest.approx(sum(r.character(g) for r in onedim))


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


def test_functional_rejects_foreign_elements():
    tau = regular_trace(MAGNETIC)
    a = AlgebraElement(LATTICE_TRIVIAL, [((0, 0), 1.0)])
    with pytest.raises(TraceError):
        tau(a)
    with pytest.raises(TraceError):
        TraceFunctional(MAGNETIC)
