"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion is checked at its stated tolerance; the summary line goes
to the real stdout so it survives pytest capture.
"""

import functools
import itertools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from twistlab import (
    AlgebraElement,
    GradedMatrix,
    Homomorphism,
    MatrixPath,
    Phase,
    PhaseMap,
    ProductGroup,
    ProductMultiplier,
    TableMultiplier,
    UnitaryRep,
    alternating_group,
    check_invariance,
    check_trace_property,
    coboundary,
    conjugacy_functional,
    cyclic_group,
    eta_closed_form,
    eta_quadrature,
    is_cohomologous_via,
    linear_combination,
    magnetic_multiplier,
    mckean_singer,
    multipliers_equal,
    product_characters,
    product_eta_check,
    product_trace,
    projective_iso,
    regular_trace,
    spectral_flow,
    summation_trace,
    symmetric_group,
    trivial_multiplier,
    unitary_trace,
    verify_cocycle,
)
from twistlab.algebra import random_element
from twistlab.cli import main as cli_main
from twistlab.cohomology import (
    GroupCochain,
    derivation_chain,
    to_cyclic,
    transfer_boundary_defect,
)
from twistlab.groups import FreeAbelianGroup
from twistlab.mishchenko import (
    CircleCover,
    circle_projection,
    lott_pairing_circle,
    torus_projection,
)
from twistlab.multipliers import GeometricMultiplier, LatticeGeometry
from twistlab.representations import (
    harper_element,
    moment_match_study,
    algebraic_moment,
    spectrum_union,
    butterfly_rows,
)

Z2 = FreeAbelianGroup(2)
S3 = symmetric_group(3)
C3 = cyclic_group(3)

_CAPTURE_MANAGER = [None]


@pytest.fixture(scope="module", autouse=True)
def _find_capture_manager(pytestconfig):
    _CAPTURE_MANAGER[0] = pytestconfig.pluginmanager.getplugin("capturemanager")
    yield


def _announce(line):
    manager = _CAPTURE_MANAGER[0]
    if manager is not None and hasattr(manager, "global_and_fixture_disabled"):
        with manager.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _announce(f"[criterion {number:02d}] FAIL {title}")
                raise
            _announce(f"[criterion {number:02d}] PASS {title}")
        return wrapper
    return decorate


def _s3_table_multiplier():
    z = PhaseMap.random_exact(S3, random.Random(71))
    cob = coboundary(z)
    return TableMultiplier(S3, [[cob.turns(g, h) for h in S3.elements()]
                                for g in S3.elements()])


def _fixture_zoo():
    s3_table = _s3_table_multiplier()
    pg = ProductGroup(S3, C3)
    return {
        "lattice-trivial": trivial_multiplier(Z2),
        "lattice-magnetic": magnetic_multiplier("1/3"),
        "s3-table": s3_table,
        "product": ProductMultiplier(pg, s3_table, trivial_multiplier(C3)),
    }


def _random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def _random_graded(rng, n_plus, n_minus):
    block = rng.normal(size=(n_plus, n_minus)) + 1j * rng.normal(size=(n_plus, n_minus))
    dim = n_plus + n_minus
    mat = np.zeros((dim, dim), dtype=complex)
    mat[:n_plus, n_plus:] = block
    mat[n_plus:, :n_plus] = block.conj().T
    grading = np.array([1.0] * n_plus + [-1.0] * n_minus)
    return GradedMatrix(mat, grading)


@criterion(1, "algebraic laws exact in phases, 1e-12 in coefficients, 1000+ samples/law")
def test_criterion_01_algebraic_exactness():
    start = time.perf_counter()
    zoo = _fixture_zoo()
    for sigma in zoo.values():
        report = verify_cocycle(sigma, samples=300, seed=2)
        assert report.passed and report.worst_defect == 0.0

    rng = random.Random(20260823)
    for sigma in zoo.values():
        group = sigma.group
        unit = AlgebraElement.unit(sigma)
        for _ in range(300):
            g = group.random_element(rng, 3)
            h = group.random_element(rng, 3)
            prod = AlgebraElement(sigma, [(g, 1.0)]).convolve(
                AlgebraElement(sigma, [(h, 1.0)]))
            assert prod.support() == [group.multiply(g, h)]
            assert prod.coefficient(group.multiply(g, h)) == sigma.value(g, h)
        for _ in range(250):
            a = random_element(sigma, rng, 3, 2)
            b = random_element(sigma, rng, 3, 2)
            c = random_element(sigma, rng, 2, 2)
            assert (unit.convolve(a) - a).norm_l1() == 0.0
            assert (a.convolve(unit) - a).norm_l1() == 0.0
            assert (a.convolve(b).convolve(c) - a.convolve(b.convolve(c))).norm_l1() <= 1e-12
            assert (a.convolve(b).star() - b.star().convolve(a.star())).norm_l1() <= 1e-12
            assert (a.star().star() - a).norm_l1() <= 1e-12

        z = PhaseMap.random_exact(group, random.Random(5))
        target = sigma.twist(z.conjugate())
        for _ in range(250):
            a = random_element(sigma, rng, 3, 2)
            b = random_element(sigma, rng, 3, 2)
            fa = projective_iso(z, a, target, check=False)
            fb = projective_iso(z, b, target, check=False)
            fab = projective_iso(z, a.convolve(b), target, check=False)
            assert (fab - fa.convolve(fb)).norm_l1() <= 1e-12
    assert time.perf_counter() - start < 10.0


@criterion(2, "gauge change is the explicit coboundary; base point independent over 9 points")
def test_criterion_02_gauge_independence():
    landau = magnetic_multiplier("1/3", gauge="landau")
    symmetric = magnetic_multiplier("1/3", gauge="symmetric")
    z = PhaseMap.quadratic_on_lattice(landau.group, Fraction(1, 6))
    assert is_cohomologous_via(landau, symmetric, z)

    for gauge, direct in (("landau", landau), ("symmetric", symmetric)):
        for x1 in (0, Fraction(1, 2), 1):
            for x2 in (0, Fraction(1, 2), 1):
                geo = GeometricMultiplier(
                    LatticeGeometry("1/3", gauge=gauge, base_point=(x1, x2)))
                assert multipliers_equal(geo, direct, radius=4)


@criterion(3, "trace and invariance laws, product trace under all characters, rep independence")
def test_criterion_03_trace_laws():
    tr2 = regular_trace(magnetic_multiplier("1/3"))
    assert check_trace_property(tr2).worst_defect <= 1e-12
    chi = PhaseMap.character_on_lattice(Z2, ["1/5", "2/7"])
    assert check_invariance(tr2, chi).worst_defect == 0.0

    # Product trace with a delocalized left factor over a perfect group:
    # every character of the product restricts trivially to the support.
    A5 = alternating_group(5)
    pg = ProductGroup(A5, C3)
    sigma = ProductMultiplier(pg, trivial_multiplier(A5), trivial_multiplier(C3))
    five_cycle = next(g for g in A5.elements() if A5.element_order(g) == 5)
    tau = product_trace(conjugacy_functional(trivial_multiplier(A5), five_cycle), sigma)
    characters = product_characters(pg)
    assert len(characters) == 3
    for character in characters:
        assert check_invariance(tau, character).passed
    assert check_trace_property(tau).passed

    # With the trivial target group, the weighted value is dim(u) a_e for
    # every representation u.
    triv = trivial_multiplier(S3)
    ident = Homomorphism.identity(S3)
    base = regular_trace(triv)
    u1 = UnitaryRep.regular(S3)
    u2 = UnitaryRep.direct_sum([u1, u1])
    t1 = unitary_trace(u1, ident, base, triv)
    t2 = unitary_trace(u2, ident, base, triv)
    rng = random.Random(9)
    for _ in range(50):
        a = random_element(triv, rng, 4, 2)
        assert abs(t1(a) / u1.dim - a.coefficient(S3.identity())) <= 1e-10
        assert abs(t1(a) / u1.dim - t2(a) / u2.dim) <= 1e-10

    # Delocalization flags on the two difference fixtures.
    tr1 = summation_trace(triv)
    tr2_s3 = regular_trace(triv)
    assert not tr1.is_delocalized and not tr2_s3.is_delocalized
    assert linear_combination([(1.0, tr1), (-1.0, tr2_s3)]).is_delocalized
    everywhere = summation_trace(triv)
    tu1 = unitary_trace(u1, ident, everywhere, triv)
    flat = UnitaryRep.direct_sum(
        [UnitaryRep.from_character(PhaseMap.one(S3))] * 6)
    tu2 = unitary_trace(flat, ident, everywhere, triv)
    rho = linear_combination([(1.0, tu1), (-1.0, tu2)])
    assert not tu1.is_delocalized and not tu2.is_delocalized
    assert rho.is_delocalized

    # A delocalized functional over a lattice factor loses invariance
    # under a character that is nontrivial on its support.
    Z1 = FreeAbelianGroup(1)
    deloc = conjugacy_functional(trivial_multiplier(Z1), (1,))
    assert not check_invariance(deloc, PhaseMap.character_on_lattice(Z1, ["1/5"])).passed


@criterion(4, "band edges, q bands for q<=8, moment order >= 1.8, walk-count fourth moment")
def test_criterion_04_bloch_spectra():
    start = time.perf_counter()
    free = spectrum_union(harper_element(magnetic_multiplier(0)), kgrid=16).flat()
    assert abs(free[0] + 4.0) <= 1e-6 and abs(free[-1] - 4.0) <= 1e-6
    half = spectrum_union(harper_element(magnetic_multiplier("1/2")), kgrid=16).flat()
    assert abs(half[0] + 2 * math.sqrt(2)) <= 1e-6
    assert abs(half[-1] - 2 * math.sqrt(2)) <= 1e-6

    for q in range(1, 9):
        sigma = magnetic_multiplier(Fraction(1, q))
        assert spectrum_union(harper_element(sigma), kgrid=16).distinct_band_count() == q

    study = moment_match_study(harper_element(magnetic_multiplier("1/3")),
                               n_max=8, grids=(8, 16, 32))
    assert study.min_order() >= 1.8

    def walk_moment(theta):
        # Closed 4-step walks with the Landau phase accumulated along the way.
        steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
        theta = Fraction(theta)
        total = 0.0 + 0.0j
        for path in itertools.product(steps, repeat=4):
            pos = (0, 0)
            turns = Fraction(0)
            for step in path:
                turns += theta * pos[0] * step[1]
                pos = (pos[0] + step[0], pos[1] + step[1])
            if pos == (0, 0):
                total += Phase(turns).value
        return total

    for theta, expected in (("1/2", 20.0), ("1/4", 28.0), (0, 36.0)):
        oracle = walk_moment(theta)
        value = algebraic_moment(harper_element(magnetic_multiplier(theta)), 4)
        assert abs(oracle.imag) <= 1e-12
        assert abs(value - oracle) <= 1e-10
        assert abs(value.real - expected) <= 1e-10

    rows = sum(1 for _ in butterfly_rows(8, 128))
    assert rows > 0
    assert time.perf_counter() - start < 60.0


@criterion(5, "eta quadrature vs closed form 1e-6 on 200 matrices; odd and unitary invariant")
def test_criterion_05_eta_engine():
    rng = np.random.default_rng(20260823)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        a = _random_hermitian(rng, n)
        assert abs(eta_quadrature(a).eta - eta_closed_form(a)) <= 1e-6
        assert abs(eta_closed_form(-a) + eta_closed_form(a)) <= 1e-9
        q = np.linalg.qr(_random_hermitian(rng, n) + 1j * _random_hermitian(rng, n))[0]
        assert abs(eta_closed_form(q @ a @ q.conj().T) - eta_closed_form(a)) <= 1e-9


@criterion(6, "spectral flow integer-exact on 100 random paths; diag(t - 1/2) flows by one")
def test_criterion_06_spectral_flow():
    rng = np.random.default_rng(7)
    done = 0
    while done < 100:
        a0 = _random_hermitian(rng, 12)
        a1 = _random_hermitian(rng, 12)
        if min(np.abs(np.linalg.eigvalsh(a0)).min(),
               np.abs(np.linalg.eigvalsh(a1)).min()) < 1e-4:
            continue
        res = spectral_flow(MatrixPath.linear(a0, a1))
        assert res.flow == round(res.endpoint_formula)
        assert abs(res.endpoint_formula - res.flow) <= 1e-9
        done += 1
    simple = spectral_flow(MatrixPath.linear(np.array([[-0.5]]), np.array([[0.5]])))
    assert simple.flow == 1


@criterion(7, "supertrace of the heat kernel is flat to 1e-8 and equals the rank oracle index")
def test_criterion_07_mckean_singer():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n_plus = int(rng.integers(2, 6))
        n_minus = int(rng.integers(2, 6))
        d = _random_graded(rng, n_plus, n_minus)
        if rng.integers(2):
            # Collapse a column to force extra kernel on one side.
            mat = d.matrix.copy()
            mat[:n_plus, n_plus] = 0.0
            mat[n_plus, :n_plus] = 0.0
            d = GradedMatrix(mat, d.grading)
        report = mckean_singer(d, t_values=(0.05, 0.2, 1.0, 5.0))
        block = d.matrix[:n_plus, n_plus:]
        rank = np.linalg.matrix_rank(block, tol=1e-9)
        assert report["index"] == (n_plus - rank) - (n_minus - rank)
        assert report["max_deviation"] <= 1e-8


@criterion(8, "eta of the graded product matches eta times index to 1e-8 on 50 instances")
def test_criterion_08_product_formula():
    rng = np.random.default_rng(13)
    for _ in range(50):
        d_l = _random_hermitian(rng, int(rng.integers(2, 5)))
        d_n = _random_graded(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        assert product_eta_check(d_l, d_n)["defect"] <= 1e-8


@criterion(9, "cyclic transfer intertwines boundaries to 1e-12; transfers stay localized")
def test_criterion_09_cohomology_transfer():
    area = GroupCochain.area_z2(Z2)
    for theta in ("0", "1/3"):
        sigma = magnetic_multiplier(theta)
        assert transfer_boundary_defect(area, sigma, samples=500) <= 1e-12
        tau = to_cyclic(area, sigma)
        assert tau.is_localized()
        rng = random.Random(3)
        checked = 0
        while checked < 200:
            gammas = tuple(Z2.random_element(rng, 3) for _ in range(3))
            total = tuple(sum(g[i] for g in gammas) for i in range(2))
            if total == (0, 0):
                continue
            assert tau.basis_value(gammas) == 0.0
            checked += 1


@criterion(10, "derivation chain exact on dyadic elements; binomial bound on 200 random ones")
def test_criterion_10_derivation_chain():
    sigma = magnetic_multiplier("1/3")
    rng = random.Random(17)
    dyadic = (1.0, -1.0, 0.5, -0.5, 0.25)
    ball = sigma.group.ball(3)
    for _ in range(50):
        support = rng.sample(ball, 4)
        a = AlgebraElement(sigma, [(g, rng.choice(dyadic)) for g in support])
        assert derivation_chain(a, j_max=4).identity_defect == 0.0
    for _ in range(200):
        a = random_element(sigma, rng, 4, 3)
        report = derivation_chain(a, j_max=4)
        assert report.identity_defect <= 1e-12
        assert report.bound_ok


@criterion(11, "projection identities exact to 1e-13, unit rank trace, pairing gives winding")
def test_criterion_11_mishchenko_projection():
    circle = circle_projection(1)
    report = circle.verify(n_grid=32)
    assert report["idempotent_defect"] <= 1e-13
    assert report["selfadjoint_defect"] <= 1e-13
    assert abs(circle.rank_trace(64) - 1.0) <= 1e-13

    torus = torus_projection(LatticeGeometry("1/3"))
    report = torus.verify(n_grid=8)
    assert report["idempotent_defect"] <= 1e-13
    assert report["selfadjoint_defect"] <= 1e-13
    assert abs(torus.rank_trace(16) - 1.0) <= 1e-13

    for winding in (1, 2, 3):
        value = lott_pairing_circle(CircleCover(winding), n_grid=1024)
        assert abs(value - winding) <= 1e-3


@criterion(12, "every CLI command is byte-reproducible under a fixed seed and config")
def test_criterion_12_cli_determinism(tmp_path):
    eta_cfg = tmp_path / "eta.json"
    eta_cfg.write_text('{"matrix": {"re": [[1, 0, 0], [0, 2, 0], [0, 0, -3]]}}')
    flow_cfg = tmp_path / "flow.json"
    flow_cfg.write_text(
        '{"path": {"A0": {"re": [[-1, 0], [0, -1]]}, "A1": {"re": [[1, 0], [0, 1]]}}}')
    betti_cfg = tmp_path / "betti.json"
    betti_cfg.write_text('{"cycle": 5}')
    sobolev_cfg = tmp_path / "sobolev.json"
    sobolev_cfg.write_text(
        '{"group": "z2", "multiplier": {"kind": "magnetic", "theta": "1/3"},'
        ' "terms": [{"g": [1, 0], "re": 1.0}, {"g": [0, 1], "re": 0.5}],'
        ' "s": [0, 1, 2], "chain_j_max": 3}')
    commands = [
        ["verify", "--suite", "algebra", "--seed", "11"],
        ["butterfly", "--qmax", "4", "--kgrid", "16"],
        ["eta", "--config", str(eta_cfg)],
        ["spectral-flow", "--config", str(flow_cfg)],
        ["betti", "--config", str(betti_cfg)],
        ["sobolev", "--config", str(sobolev_cfg)],
        ["pairing-circle", "--winding", "2", "--n-grid", "128"],
    ]
    for k, argv in enumerate(commands):
        first = tmp_path / f"out_{k}_a"
        second = tmp_path / f"out_{k}_b"
        assert cli_main(argv + ["--out", str(first)]) == 0
        assert cli_main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
