import math
import random
from fractions import Fraction

import numpy as np
import pytest

from twistlab import (
    AlgebraElement,
    GradedMatrix,
    MatrixPath,
    SpectralError,
    cycle_complex,
    derivation_chain,
    eigh,
    eigvalsh,
    eta_closed_form,
    eta_operator,
    eta_quadrature,
    harper_element,
    magnetic_multiplier,
    mckean_singer,
    product_eta_check,
    sobolev_norm,
    spectral_flow,
    twisted_betti,
)
from twistlab import spectral
from twistlab.spectral import _head_integral, default_zero_tol, kernel_report, require_hermitian


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def random_graded(rng: np.random.Generator, n_plus: int, n_minus: int) -> GradedMatrix:
    b = rng.normal(size=(n_minus, n_plus)) + 1j * rng.normal(size=(n_minus, n_plus))
    n = n_plus + n_minus
    mat = np.zeros((n, n), dtype=complex)
    mat[n_plus:, :n_plus] = b
    mat[:n_plus, n_plus:] = b.conj().T
    grading = np.array([1.0] * n_plus + [-1.0] * n_minus)
    return GradedMatrix(mat, grading)


def test_eigh_residual_unitarity_and_order():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 13, 24):
        a = random_hermitian(rng, n)
        dec = eigh(a)
        assert dec.residual < 1e-10
        assert dec.residual == np.abs(a @ dec.vectors - dec.vectors * dec.eigenvalues).max()
        assert np.abs(dec.vectors @ dec.vectors.conj().T - np.eye(n)).max() < 1e-12
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        assert np.abs(eigvalsh(a) - dec.eigenvalues).max() < 1e-12


def test_eigh_is_bitwise_repeatable():
    rng = np.random.default_rng(1)
    a = random_hermitian(rng, 9)
    d1, d2 = eigh(a.copy()), eigh(a.copy())
    assert d1.eigenvalues.tobytes() == d2.eigenvalues.tobytes()
    assert d1.vectors.tobytes() == d2.vectors.tobytes()
    assert eigvalsh(a).tobytes() == eigvalsh(a.copy()).tobytes()


def test_require_hermitian_rejects_asymmetric():
    with pytest.raises(SpectralError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(SpectralError):
        require_hermitian(np.ones((2, 3)))


@pytest.mark.parametrize("a", [[[0.0, 1e-10], [0.0, 0.0]], [[1e-10, 5e-10], [-5e-10, -1e-10]]])
def test_a_small_non_hermitian_matrix_is_refused(a):
    # Its defect is small, but not against its own scale.
    with pytest.raises(SpectralError, match="not Hermitian"):
        eta_operator(np.array(a), method="dense")


def test_require_hermitian_accepts_the_empty_matrix():
    assert require_hermitian(np.zeros((0, 0))).shape == (0, 0)


@pytest.mark.parametrize("zero_tol", [math.nan, math.inf, -1e-9, True, "1e-9",
                                      pytest.param(10**400, id="10**400")])
def test_bad_zero_tol_raises_on_entry(zero_tol):
    calls = []
    path = MatrixPath(lambda t: calls.append(t) or np.diag([t - 0.5, 1.0]))
    even, odd = cycle_complex(6)
    with pytest.raises(SpectralError, match="zero_tol"):
        eta_operator(np.eye(2), method="dense", zero_tol=zero_tol)
    with pytest.raises(SpectralError, match="zero_tol"):
        twisted_betti(even, odd, zero_tol=zero_tol)
    with pytest.raises(SpectralError, match="zero_tol"):
        spectral_flow(path, zero_tol=zero_tol)
    assert calls == []  # the path was never sampled


def test_an_integer_zero_tol_is_kept_as_given():
    even, odd = cycle_complex(6)
    for tol in (0, 1, 2):
        assert type(kernel_report(np.array([0.0, 2.0]), tol).zero_tol) is int
        assert type(twisted_betti(even, odd, zero_tol=tol).zero_tol) is int


@pytest.mark.parametrize("sizes", [(1, 12), (0, 12), (17, -1)])
def test_spectral_flow_rejects_too_few_samples(sizes):
    path = MatrixPath.linear(np.diag([-1.0, 1.0]), np.diag([1.0, 1.0]))
    with pytest.raises(SpectralError, match="initial_samples"):
        spectral_flow(path, initial_samples=sizes[0], max_refinements=sizes[1])


def test_truncation_eta_rejects_a_negative_radius():
    a = harper_element(magnetic_multiplier("1/3"))
    with pytest.raises(SpectralError, match="radius"):
        eta_operator(a, method="truncation", radius=-1)
    assert eta_operator(a, method="truncation", radius=0).method == "truncation"


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_require_hermitian_rejects_non_finite(bad):
    a = np.eye(2, dtype=complex)
    a[0, 0] = bad
    with pytest.raises(SpectralError, match="non-finite"):
        require_hermitian(a)
    with pytest.raises(SpectralError):
        MatrixPath.linear(a, np.eye(2))


def test_a_spectrum_beyond_the_floats_names_the_largest_entry():
    # Finite and Hermitian, but its eigenvalue 2e308 is past the largest float.
    a = np.full((2, 2), 1e308)
    for solve in (eigh, eigvalsh):
        with pytest.raises(SpectralError, match=r"largest \|entry\| 1\.000e\+308"):
            solve(a)


def test_eta_closed_form_counts_signs():
    a = np.diag([3.0, 1.0, -2.0])
    assert eta_closed_form(a) == 0.5
    assert eta_closed_form(a, normalization="full") == 1.0
    assert eta_closed_form(np.diag([1.0, -1.0])) == 0.0
    assert eta_closed_form(np.zeros((3, 3))) == 0.0


def test_eta_quadrature_matches_closed_form():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(25):
        a = random_hermitian(rng, int(rng.integers(2, 16)))
        res = eta_quadrature(a)
        worst = max(worst, abs(res.eta - eta_closed_form(a)))
        assert res.error_bound < 1e-6
    assert worst < 1e-6


def scalar_head_integral(ev: np.ndarray, u_max: float, rel_tol: float) -> tuple[float, float]:
    """Reference: Simpson node by node, every level evaluated from scratch."""

    def f(u: float) -> float:
        return float(np.sum(ev * np.exp(-(u * u) * ev * ev))) / math.sqrt(math.pi)

    panels, prev, estimate, change = 8, None, 0.0, 0.0
    for _ in range(14):
        ys = np.array([f(x) for x in np.linspace(0.0, u_max, 2 * panels + 1)])
        h = u_max / (2 * panels)
        estimate = h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())
        if prev is not None:
            change = abs(estimate - prev)
            if change <= rel_tol * (1.0 + abs(estimate)):
                break
        prev = estimate
        panels *= 2
    return estimate, change


@pytest.mark.parametrize("n", [1, 40, 5000])
def test_head_integral_matches_scalar_simpson(n):
    # 5000 eigenvalues split every level into several blocks.
    rng = np.random.default_rng(9)
    ev = rng.uniform(0.2, 3.0, n) * rng.choice([-1.0, 1.0], n)
    got = _head_integral(ev, 25.0)
    want = scalar_head_integral(ev, 25.0, 1e-9)
    # Summation order differs, so allow rounding that grows with the term count.
    tol = 100 * n * np.finfo(float).eps * max(1.0, abs(want[0]))
    assert abs(got[0] - want[0]) <= tol
    assert abs(got[1] - want[1]) <= tol


def test_eta_is_odd_and_unitarily_invariant():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_hermitian(rng, 8)
        assert abs(eta_closed_form(-a) + eta_closed_form(a)) < 1e-12
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        assert abs(eta_closed_form(q @ a @ q.conj().T) - eta_closed_form(a)) < 1e-9


def test_eta_quadrature_reports_insufficient_window():
    a = np.diag([1.0, -0.5])
    with pytest.raises(SpectralError):
        eta_quadrature(a, t_max=0.5)


def test_kernel_report_flags_ambiguous_values():
    ev = np.array([-1.0, 2e-10, 5.0])
    report = kernel_report(ev, zero_tol=1e-9)
    assert report.dim == 1
    assert report.ambiguous == [2e-10]
    clean = kernel_report(np.array([-1.0, 0.0, 5.0]), zero_tol=1e-12)
    assert clean.dim == 1
    assert clean.ambiguous == []


def reference_ambiguous(eigenvalues, zero_tol):
    return [float(x) for x in eigenvalues if zero_tol / 10 < abs(x) < zero_tol * 10]


@pytest.mark.parametrize("zero_tol", [1e-9, 1e-3, 0.3, 0, 1, Fraction(1, 1000), np.float64(1e-3)])
def test_kernel_report_band_equals_the_loop_reference(zero_tol):
    rng = np.random.default_rng(5)
    ev = rng.standard_normal(400) * 10.0 ** rng.integers(-12, 1, 400)
    tol = float(zero_tol)
    # Values exactly at both ends of the band, and next to them, of both signs.
    edges = [tol / 10, tol * 10, np.nextafter(tol / 10, 1), np.nextafter(tol * 10, 0)]
    ev = np.concatenate([ev, edges, np.negative(edges), [0.0, -0.0, tol, -tol]])
    rng.shuffle(ev)
    band = kernel_report(ev, zero_tol).ambiguous
    want = reference_ambiguous(ev, zero_tol)
    assert [type(x) for x in band] == [float] * len(want)
    assert [x.hex() for x in band] == [x.hex() for x in want]
    if isinstance(zero_tol, float) and zero_tol:  # the ends themselves are outside
        assert tol / 10 not in band and tol * 10 not in band and -tol * 10 not in band


def test_default_zero_tol_scales_with_spectrum():
    assert default_zero_tol(np.array([1e6, -1e6])) > default_zero_tol(
        np.array([1.0, -1.0])
    )
    assert default_zero_tol(np.zeros(3)) == 0.0


# sign(c * a) = sign(a) for c > 0, products by 2^k are exact, and LAPACK's
# Hermitian eigenvalues of 2^k * a are 2^k times those of a for |k| <= 400.  So
# with relative thresholds every invariant of 2^k * a is that of a, bit for bit,
# and every threshold and eigenvalue reported is 2^k times that of a.
@pytest.mark.parametrize("k", range(-400, 401, 50))
def test_dense_invariants_do_not_change_when_the_input_is_scaled_by_a_power_of_two(k):
    rng = np.random.default_rng(28)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    # A kernel of dimension 2 up to rounding, and a positive eigenvalue in the ambiguity band.
    a = (q * [0.0, 0.0, -1.5, -0.25, 0.75, 2.0]) @ q.conj().T
    laplacian = (q * [0.0, 0.0, 1e-8, 0.25, 1.0, 2.0]) @ q.conj().T
    even, _ = cycle_complex(12)
    path = (random_hermitian(rng, 8), random_hermitian(rng, 8))
    graded = random_graded(rng, 3, 5)
    c = math.ldexp(1.0, k)

    def results(c):
        dense = eta_operator(a * c, method="dense")
        quad = eta_quadrature(a * c)
        betti = twisted_betti(even * c, laplacian * c)
        flow = spectral_flow(MatrixPath.linear(path[0] * c, path[1] * c))
        return ((dense.eta, dense.kernel.dim, quad.eta, quad.error_bound, quad.kernel.dim),
                (betti.b_even, betti.b_odd, betti.index),
                (betti.zero_tol, betti.ambiguous, dense.kernel.zero_tol),
                (flow.flow, flow.samples, flow.refinements, flow.crossings, flow.endpoint_formula),
                GradedMatrix(graded.matrix * c, graded.grading).index())

    base, scaled = results(1.0), results(c)
    assert base[0][1] == 2 and base[1] == (1.0, 2.0, -1) and len(base[2][1]) == 1
    assert repr(scaled[0]) == repr(base[0]) and scaled[1] == base[1]
    zero_tol, ambiguous, dense_tol = base[2]
    assert scaled[2] == (zero_tol * c, [x * c for x in ambiguous], dense_tol * c)
    assert repr(scaled[3]) == repr(base[3]) and scaled[4] == base[4] == -2


@pytest.mark.parametrize("k", range(-40, 401, 40))
def test_algebra_invariants_do_not_change_when_the_element_is_scaled_by_a_power_of_two(k):
    # From 2^-40 on every coefficient of 2^k * a stays above algebra.PRUNE_TOL.
    sigma = magnetic_multiplier("1/3")
    a = harper_element(sigma) + AlgebraElement.delta(sigma, (0, 0), 0.5)
    c = math.ldexp(1.0, k)

    def results(c):
        b = a * c
        bloch = eta_operator(b, method="bloch", kgrid=8)
        trunc = eta_operator(b, method="truncation", radius=4)
        chain = derivation_chain(b, 3)
        return ((bloch.eta, bloch.error_bound, bloch.kernel.dim, trunc.eta, trunc.error_bound,
                 chain.bound_ok),
                (bloch.params["zero_tol"], [sobolev_norm(b, s) for s in (0, 1, 2)], chain.chain_norms))

    (invariants, scales), (scaled_invariants, scaled_scales) = results(1.0), results(c)
    assert invariants[0] == 0.140625 and invariants[3] == 0.14806866952789724
    assert repr(scaled_invariants) == repr(invariants)
    zero_tol, norms, chain_norms = scales
    assert scaled_scales == (zero_tol * c, [x * c for x in norms], [x * c for x in chain_norms])


def test_spectral_flow_on_shifted_diagonal():
    path = MatrixPath(lambda t: np.diag([t - 0.5]))
    res = spectral_flow(path)
    assert res.flow == 1
    assert abs(res.endpoint_formula - 1.0) < 1e-12
    assert len(res.crossings) >= 1


def test_spectral_flow_downward_crossing_counts_negative():
    path = MatrixPath(lambda t: np.diag([0.5 - t]))
    assert spectral_flow(path).flow == -1


def test_spectral_flow_no_crossing():
    path = MatrixPath.linear(np.diag([1.0, -2.0]), np.diag([2.0, -1.0]))
    assert spectral_flow(path).flow == 0


@pytest.mark.parametrize("sample, message", [
    (lambda t: np.array([[math.nan, 0.0], [0.0, 1.0]]), "non-finite"),
    # An upper entry with no lower one: eigvalsh alone would read the lower triangle.
    (lambda t: np.array([[t - 0.5, 1.0], [0.0, 1.0]]), "not Hermitian"),
])
def test_a_generated_path_checks_each_sample(sample, message):
    with pytest.raises(SpectralError, match=message):
        spectral_flow(MatrixPath(sample))


def test_linear_and_sampled_paths_check_only_at_construction(monkeypatch):
    rng = np.random.default_rng(6)
    a0, a1 = random_hermitian(rng, 5), random_hermitian(rng, 5)
    paths = [MatrixPath.linear(a0, a1), MatrixPath.from_samples([a0, a1, a0])]
    checked = []
    monkeypatch.setattr(spectral, "require_hermitian", lambda a: checked.append(a) or a)
    for path in paths:
        spectral_flow(path)
    assert checked == []


def test_spectral_flow_equals_endpoint_formula_on_random_paths():
    rng = np.random.default_rng(4)
    for _ in range(30):
        a0 = random_hermitian(rng, 6)
        a1 = random_hermitian(rng, 6)
        res = spectral_flow(MatrixPath.linear(a0, a1))
        assert res.flow == round(res.endpoint_formula)
        assert abs(res.endpoint_formula - res.flow) < 1e-9


def test_spectral_flow_stable_under_extra_refinement():
    rng = np.random.default_rng(5)
    a0, a1 = random_hermitian(rng, 7), random_hermitian(rng, 7)
    coarse = spectral_flow(MatrixPath.linear(a0, a1), initial_samples=9)
    fine = spectral_flow(MatrixPath.linear(a0, a1), initial_samples=65)
    assert coarse.flow == fine.flow


def test_matrix_path_from_samples_interpolates():
    mats = [np.diag([-1.0]), np.diag([0.0]), np.diag([3.0])]
    path = MatrixPath.from_samples(mats)
    assert path.matrix(0.0)[0, 0] == -1.0
    assert path.matrix(0.5)[0, 0] == 0.0
    assert path.matrix(1.0)[0, 0] == 3.0
    assert abs(path.matrix(0.25)[0, 0] + 0.5) < 1e-15


def test_graded_matrix_validates_anticommutation():
    with pytest.raises(SpectralError):
        GradedMatrix(np.diag([1.0, -1.0]), np.array([1.0, -1.0]))
    with pytest.raises(SpectralError):
        GradedMatrix(np.zeros((2, 2)), np.array([1.0, 2.0]))


def test_graded_index_matches_dimension_count():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n_plus = int(rng.integers(1, 5))
        n_minus = int(rng.integers(1, 5))
        d = random_graded(rng, n_plus, n_minus)
        # generic off-diagonal block has full rank
        assert d.index() == n_plus - n_minus


def test_mckean_singer_supertrace_is_constant():
    rng = np.random.default_rng(7)
    for _ in range(15):
        d = random_graded(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        out = mckean_singer(d)
        assert out["max_deviation"] < 1e-8
        assert out["index"] == d.index()


def test_product_eta_formula():
    rng = np.random.default_rng(8)
    for _ in range(10):
        d_l = random_hermitian(rng, int(rng.integers(2, 6)))
        d_n = random_graded(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        out = product_eta_check(d_l, d_n)
        assert out["defect"] < 1e-8


def test_cycle_complex_betti_numbers():
    even, odd = cycle_complex(6)
    res = twisted_betti(even, odd)
    assert abs(res.b_even - 1.0) < 1e-10
    assert abs(res.b_odd - 1.0) < 1e-10
    assert abs(res.euler) < 1e-10
    assert res.index == 0


def test_twisted_betti_rejects_indefinite_blocks():
    with pytest.raises(SpectralError):
        twisted_betti(np.diag([-1.0, 1.0]), np.diag([1.0, 1.0]))


@pytest.mark.parametrize("zero_tol", [0, 1e-300])
def test_twisted_betti_rejects_indefinite_blocks_under_a_tiny_zero_tol(zero_tol):
    with pytest.raises(SpectralError, match="positive semidefinite"):
        twisted_betti(np.diag([-1e-6, 1.0]), np.diag([1.0, 1.0]), zero_tol=zero_tol)


def test_twisted_betti_custom_functional():
    even, odd = cycle_complex(5)
    res = twisted_betti(even, odd, tau=lambda p: 2.0 * np.trace(p))
    assert abs(res.b_even - 2.0) < 1e-9


def test_eta_operator_dense_matches_closed_form():
    a = np.diag([2.0, -1.0, -1.0, 0.0])
    res = eta_operator(a, method="dense")
    assert res.eta == eta_closed_form(a)
    assert res.kernel.dim == 1


def test_eta_operator_bloch_and_truncation_agree():
    sigma = magnetic_multiplier(Fraction(1, 3))
    h = harper_element(sigma)
    shifted = h + 1.5 * AlgebraElement.unit(sigma)
    bloch = eta_operator(shifted, method="bloch", kgrid=36)
    trunc = eta_operator(shifted, method="truncation", radius=9)
    assert abs(bloch.eta - trunc.eta) < 0.08


def test_eta_operator_germ_tabulates_powers():
    sigma = magnetic_multiplier(Fraction(1, 3))
    h = harper_element(sigma)
    shifted = h + 1.5 * AlgebraElement.unit(sigma)
    res = eta_operator(shifted, kgrid=12, s_grid=["1", "2/3"])
    assert set(res.germ) == {"1", "2/3"}
    assert abs(res.germ["1"] - res.eta) < 1e-12


@pytest.mark.parametrize("method", ["bloch", "truncation"])
def test_eta_operator_germ_solves_each_power_once(monkeypatch, method):
    from twistlab import spectral

    solved = []
    for name in ("_eta_bloch", "_eta_truncation"):
        inner = getattr(spectral, name)
        monkeypatch.setattr(spectral, name,
                            lambda a, *args, inner=inner: solved.append(a.sigma) or inner(a, *args))
    sigma = magnetic_multiplier(Fraction(1, 3))
    shifted = harper_element(sigma) + 0.5 * AlgebraElement.unit(sigma)
    res = eta_operator(shifted, method=method, kgrid=8, radius=3, s_grid=["9/10", "1", "11/10"])
    assert list(res.germ) == ["9/10", "1", "11/10"]
    assert res.germ["1"] == res.eta
    assert [s.theta for s in solved] == [Fraction(1, 3), Fraction(3, 10), Fraction(11, 30)]


def _dense_term(bloch, g):
    """T(g) at zero momentum as a dense q x q matrix, built as BlochMap first did."""
    q, scalar = bloch.q, bloch.phase_correction(g)
    mat = np.zeros((q, q), dtype=complex)
    for j in range(q):
        i = (j + g[1]) % q
        mat[i, j] = scalar * bloch.zeta ** ((i * g[0]) % q)
    return mat


def _reference_eta_bloch(a, tau, normalization, kgrid, zero_tol):
    """Bloch eta as first written: every fiber's full q x q sign operator,
    its Frobenius pairing with T_k(g), and a separately solved half grid
    (kgrid 4 against the 2-grid, as _eta_bloch does)."""
    from twistlab.representations import BlochMap, _flat_grid
    from twistlab.spectral import EtaResult, _eta_scale, _weights_of_trace

    bm = BlochMap(a.sigma)
    weights = _weights_of_trace(tau, a.group)
    dense = {g: _dense_term(bm, g) for g in weights}
    scale = _eta_scale(normalization)
    bound = 1e-9 * a.norm_l1()
    etas = []
    for n in (kgrid, 2 if kgrid == 4 else max(4, kgrid // 2)):
        ks = bm.grid(n)
        k1f, k2f = _flat_grid(ks, ks)
        evals = np.empty((n * n, bm.q))
        traces = {g: np.empty(n * n, dtype=complex) for g in weights}

        def sign_traces(tol, only=None):
            for part, ev, vecs in bm.blocks(a, n, vectors=True, only=only):
                evals[part] = ev
                signs = np.where(np.abs(ev) > tol, np.sign(ev), 0.0)
                sign_ops = np.einsum("kij,kj,klj->kil", vecs, signs, vecs.conj())
                for g, trace in traces.items():
                    wave = np.exp(1j * (k1f[part] * g[0] + k2f[part] * g[1]))
                    tmats = wave[:, None, None] * dense[g][None, :, :]
                    trace[part] = np.einsum("kij,kij->k", sign_ops, tmats.conj())

        sign_traces(bound if zero_tol is None else zero_tol)
        if zero_tol is None:
            zero_tol = default_zero_tol(evals.reshape(-1))
            sign_traces(zero_tol, np.abs(evals).min(axis=1) <= max(bound, zero_tol))
        if not etas:
            kernel = kernel_report(evals.reshape(-1), zero_tol)
        total = sum(complex(c) * complex(traces[g].mean() / bm.q) for g, c in weights.items())
        etas.append(scale * complex(total).real)
    eta, eta_half = etas
    return EtaResult(eta, abs(eta - eta_half), "bloch",
                     {"kgrid": kgrid, "zero_tol": zero_tol, "normalization": normalization},
                     kernel=kernel)


def _eta_fields(res):
    return (res.eta, res.error_bound, res.method, res.germ, res.params, res.kernel)


def _assert_bloch_eta_matches_reference(monkeypatch, element, **kwargs):
    from twistlab import spectral

    new = _eta_fields(eta_operator(element, **kwargs))
    with monkeypatch.context() as m:
        m.setattr(spectral, "_eta_bloch", _reference_eta_bloch)
        old = _eta_fields(eta_operator(element, **kwargs))
    # == on floats is bit equality here: no field is NaN, and the signed
    # zeros of eta and error_bound are compared by their repr as well.
    assert new == old, kwargs
    assert repr(new) == repr(old)
    return new


@pytest.mark.parametrize("theta", ["0", "1/7", "1/3", "2/5", "3/7", "1/2", "5/11"])
def test_bloch_eta_is_bit_equal_to_the_full_sign_operator(monkeypatch, theta):
    from twistlab import TraceFunctional

    kernels = 0
    for gauge in ("landau", "symmetric"):
        sigma = magnetic_multiplier(Fraction(theta), gauge)
        h = harper_element(sigma)
        for mass in (0.0, 0.5, 2.0):
            element = h + mass * AlgebraElement.unit(sigma) if mass else h
            grids = (1, 3, 4, 6, 7, 8, 9, 16, 17, 32) if gauge == "landau" else (7, 16)
            for kgrid in grids:
                res = _assert_bloch_eta_matches_reference(monkeypatch, element, kgrid=kgrid)
                kernels += res[-1].dim > 0
            for zero_tol in (0, 1e-6):
                _assert_bloch_eta_matches_reference(monkeypatch, element, kgrid=16, zero_tol=zero_tol)
        _assert_bloch_eta_matches_reference(monkeypatch, h, kgrid=12, normalization="full",
                                            s_grid=["1/2", "1", "2"])
        for weights in ({(3, 0): 1.0}, {(0, 3): 1.0, (3, 3): 0.5j},
                        {(1, 0): 1.0, (0, 0): -0.25, (2, -1): 2.0}):
            tau = TraceFunctional(sigma, weights)
            for kgrid in (9, 16):
                _assert_bloch_eta_matches_reference(monkeypatch, h + 0.5 * AlgebraElement.unit(sigma),
                                                    tau=tau, kgrid=kgrid)
    # Harper without a mass has zero modes on these grids, so the re-solve
    # of kernel blocks is covered.
    assert kernels > 0


def test_a_functional_is_read_by_its_weights_and_not_by_its_kind():
    from twistlab.traces import trace_from_json

    sigma = magnetic_multiplier("1/3")
    a = harper_element(sigma) + 0.3 * AlgebraElement.unit(sigma)
    data = {"weights": [{"g": [1, 0], "re": 1.0}]}
    custom, regular = (trace_from_json(dict(data, kind=kind), sigma) for kind in ("custom", "regular"))
    etas = []
    for options in ({"method": "bloch", "kgrid": 16}, {"method": "truncation", "radius": 4}):
        etas.append(eta_operator(a, tau=custom, **options).eta)
        assert eta_operator(a, tau=regular, **options).eta == etas[-1]
    # tau_e gives 0.0924 and 0.1481.
    assert etas == pytest.approx([0.2115, 0.2077], abs=1e-4)


def test_gathered_sign_entries_and_traces_equal_the_full_einsum():
    from twistlab.representations import BlochMap

    rng = np.random.default_rng(20141)
    for q in range(1, 41):
        bm = BlochMap(magnetic_multiplier(Fraction(1, q)))
        assert bm.q == q
        k = int(rng.integers(1, 6))
        m = rng.normal(size=(k, q, q)) + 1j * rng.normal(size=(k, q, q))
        ev, vecs = np.linalg.eigh((m + m.conj().transpose(0, 2, 1)) / 2)
        signs = np.where(np.abs(ev) > 0.3, np.sign(ev), 0.0)
        full = np.einsum("kij,kj,klj->kil", vecs, signs, vecs.conj())
        k1f, k2f = rng.uniform(0.0, 2 * np.pi, size=(2, k))
        for _ in range(3):
            g = tuple(int(x) for x in rng.integers(-2 * q - 3, 2 * q + 4, size=2))
            rows = np.arange(q)
            cols = (rows - g[1]) % q
            entries = np.einsum("kij,kj,kij->ki", vecs, signs, vecs[:, cols, :].conj())
            assert np.array_equal(entries, full[:, rows, cols])
            wave = np.exp(1j * (k1f * g[0] + k2f * g[1]))
            dense = _dense_term(bm, g)
            tmats = wave[:, None, None] * dense[None, :, :]
            assert set(zip(*np.nonzero(dense))) == set(zip(rows, cols))
            expected = np.einsum("kij,kij->k", full, tmats.conj())
            assert np.array_equal(bm.sign_traces(vecs, signs, g, k1f, k2f), expected)


@pytest.mark.parametrize("kgrid, fibers", [(32, 32 ** 2), (33, 33 ** 2 + 16 ** 2),
                                           (6, 6 ** 2 + 4 ** 2), (4, 4 ** 2)])
def test_bloch_eta_solves_the_half_grid_only_when_it_is_no_subgrid(monkeypatch, kgrid, fibers):
    from twistlab.representations import BlochMap

    solved, einsums = [], []
    fiber_stack, einsum = BlochMap.fiber_stack, np.einsum
    monkeypatch.setattr(BlochMap, "fiber_stack", lambda self, a, k1s, k2s: solved.append(
        k1s.size * k2s.size) or fiber_stack(self, a, k1s, k2s))

    def recording_einsum(*args):
        out = einsum(*args)
        einsums.append(out.shape)
        return out

    monkeypatch.setattr(np, "einsum", recording_einsum)
    sigma = magnetic_multiplier(Fraction(1, 3))
    # Gapped (|lambda| >= 0.5 on every fiber), so no block is solved again.
    res = eta_operator(harper_element(sigma) + 1.5 * AlgebraElement.unit(sigma), kgrid=kgrid)
    monkeypatch.undo()
    assert res.kernel.dim == 0
    assert sum(solved) == fibers
    # Per-fiber entries and traces only: no (k, q, q) sign operator.
    assert einsums and all(len(shape) <= 2 for shape in einsums)


def test_bloch_eta_at_kgrid_4_is_bounded_by_the_2_grid():
    sigma = magnetic_multiplier(Fraction(1, 3))
    shifted = harper_element(sigma) + 0.5 * AlgebraElement.unit(sigma)
    res, two = eta_operator(shifted, kgrid=4), eta_operator(shifted, kgrid=2)
    assert res.error_bound == abs(res.eta - two.eta) == 0.0625
    # The 4-grid is 0.011 off the 64-grid value; a bound of 0 claimed it exact.
    assert abs(res.eta - eta_operator(shifted, kgrid=64).eta) < res.error_bound
    # kgrid 2 keeps comparing with the 4-grid.
    assert two.error_bound == res.error_bound


def test_bloch_eta_bounds_the_grid_of_every_power(monkeypatch):
    from twistlab import representations

    sigma = magnetic_multiplier(Fraction(1, 3))
    h = harper_element(sigma)
    with pytest.raises(SpectralError, match="kgrid"):
        eta_operator(h, kgrid=10_000_000)
    assert eta_operator(h, kgrid=8, s_grid=["11/10"]).germ
    # q = 3 at s = 1, q = 30 at s = 11/10.
    monkeypatch.setattr(representations, "MAX_FIBER_ENTRIES", 8 * 8 * 3)
    assert eta_operator(h, kgrid=8).kernel is not None
    with pytest.raises(SpectralError, match=r"8\^2 \* 30"):
        eta_operator(h, kgrid=8, s_grid=["11/10"])


def _eta_hex(res):
    """The float fields of an eta result by float.hex, so signed zeros count."""
    return (res.eta.hex(), res.error_bound.hex(),
            None if res.germ is None else {s: v.hex() for s, v in res.germ.items()},
            res.kernel.dim, float(res.kernel.zero_tol).hex(), [x.hex() for x in res.kernel.ambiguous],
            res.params)


def _band_edge_mass(sigma, kgrid):
    """Minus the top of band 0 over the grid: Harper plus this mass has a zero eigenvalue."""
    from twistlab.representations import BlochMap

    return -float(BlochMap(sigma).eigenvalues(harper_element(sigma), kgrid)[:, 0].max())


def _bloch_eta_cases():
    from twistlab import TraceFunctional

    third = magnetic_multiplier(Fraction(1, 3))
    fifth = magnetic_multiplier(Fraction(5, 11))
    seventh = magnetic_multiplier(Fraction(1, 7))
    thirtieth = magnetic_multiplier(Fraction(11, 30))
    mass = _band_edge_mass(seventh, 32)
    return {
        # The invariants workload: 1, 7 and 64 blocks at s = 1, 9/10 and 11/10.
        "invariants": (harper_element(third) + 0.5 * AlgebraElement.unit(third),
                       {"kgrid": 32, "s_grid": ["9/10", "1", "11/10"]}),
        # A kernel at a band edge and zero modes: blocks are solved again with only=.
        "band edge": (harper_element(seventh) + mass * AlgebraElement.unit(seventh), {"kgrid": 32}),
        "zero modes": (harper_element(fifth), {"kgrid": 32}),
        "zero_tol": (harper_element(fifth), {"kgrid": 32, "zero_tol": 1e-6}),
        "delta_(3,0)": (harper_element(fifth) + 0.5 * AlgebraElement.unit(fifth),
                        {"kgrid": 32, "tau": TraceFunctional(fifth, {(3, 0): 1.0})}),
        # kgrid 5 compares with a separately solved 4-grid; q = 30 takes two blocks.
        "kgrid 5": (harper_element(thirtieth) + 0.5 * AlgebraElement.unit(thirtieth), {"kgrid": 5}),
    }


@pytest.mark.parametrize("case", ["invariants", "band edge", "zero modes", "zero_tol",
                                  "delta_(3,0)", "kgrid 5"])
def test_bloch_eta_does_not_depend_on_the_schedule(monkeypatch, schedule, case):
    from twistlab.representations import BlochMap

    element, kwargs = _bloch_eta_cases()[case]
    solves = []
    plan = BlochMap._plan

    def counted_plan(self, a, n, only=None):
        entries, tol, parts = plan(self, a, n, only)
        parts = list(parts)
        solves.append((only is not None, len(parts)))
        return entries, tol, iter(parts)

    monkeypatch.setattr(BlochMap, "_plan", counted_plan)
    results = []
    for cpus in (1, 2):
        schedule(cpus)
        solves.clear()
        results.append(_eta_hex(eta_operator(element, **kwargs)))
    assert results[1] == results[0]
    # Each case solves more than one block somewhere, so the helper takes part.
    assert max(blocks for _, blocks in solves) > 1
    if case in ("band edge", "zero modes"):
        assert any(only for only, _ in solves)


@pytest.mark.parametrize("failing", [0, 1])  # a block of this process, then the helper's
def test_a_non_hermitian_bloch_block_raises_the_same_error_in_both_schedules(monkeypatch, schedule,
                                                                              failing):
    from twistlab.representations import BlochMap

    sigma = magnetic_multiplier(Fraction(5, 11))
    element = harper_element(sigma) + 0.5 * AlgebraElement.unit(sigma)
    schedule(1)
    firsts = []
    fiber_stack = BlochMap.fiber_stack
    monkeypatch.setattr(BlochMap, "fiber_stack", lambda self, a, k1s, k2s: (
        firsts.append((k1s[0], k2s[0])) or fiber_stack(self, a, k1s, k2s)))
    eta_operator(element, kgrid=32)
    assert len(firsts) > 2

    def skewed_stack(self, a, k1s, k2s):
        stack = fiber_stack(self, a, k1s, k2s)
        if (k1s[0], k2s[0]) == firsts[failing]:
            stack[:, 0, 1] += 1.0
        return stack

    monkeypatch.setattr(BlochMap, "fiber_stack", skewed_stack)
    messages = []
    for cpus in (1, 2):
        schedule(cpus)
        with pytest.raises(SpectralError, match="not Hermitian") as info:
            eta_operator(element, kgrid=32)
        messages.append(str(info.value))
    assert messages[1] == messages[0]


def test_a_helper_task_runs_its_own_tasks_in_the_helper(schedule):
    import os

    from twistlab.representations import _in_order

    schedule(2)

    def task(index):
        return os.getpid(), list(_in_order(range(4), lambda inner: os.getpid()))

    (here, inner_here), (helper, inner_helper) = _in_order(range(2), task)
    assert here == os.getpid() != helper
    # The helper forks no helper of its own; this process still does.
    assert inner_helper == [helper] * 4
    assert inner_here[0::2] == [here] * 2 and here not in inner_here[1::2]


def _reference_spectral_flow(path, zero_tol=None, initial_samples=17, max_refinements=12):
    """spectral_flow as it was written with a loop per interval, kept as the bitwise reference."""
    zero_tol = spectral._zero_tol(zero_tol)
    ev0 = path.eigenvalues(0.0)
    ev1 = path.eigenvalues(1.0)
    if zero_tol is None:
        zero_tol = max(default_zero_tol(ev0), default_zero_tol(ev1))
    ts = list(np.linspace(0.0, 1.0, initial_samples))
    refinements = 0
    for _ in range(max_refinements):
        new_ts = []
        for left, right in zip(ts[:-1], ts[1:]):
            evl = path.eigenvalues(left)
            evr = path.eigenvalues(right)
            move = float(np.abs(evl - evr).max())
            near = min(float(np.abs(evl).min()), float(np.abs(evr).min()))
            crossing_candidate = bool(np.any(np.sign(evl) * np.sign(evr) <= 0))
            if crossing_candidate and move > max(near / 2, 4 * zero_tol):
                new_ts.append((left + right) / 2.0)
        if not new_ts:
            break
        refinements += 1
        ts = sorted(set(ts) | set(new_ts))

    def category(x):
        return 1 if x > zero_tol else -1 if x < -zero_tol else 0

    def weight(cat, endpoint):
        return 1.0 if cat < 0 else (0.0 if endpoint else 0.5) if cat == 0 else 0.0

    crossings = []
    total = 0.0
    for left, right in zip(ts[:-1], ts[1:]):
        for lam_l, lam_r in zip(path.eigenvalues(left), path.eigenvalues(right)):
            cl, cr = category(float(lam_l)), category(float(lam_r))
            if cl == cr:
                continue
            step = weight(cl, left == 0.0) - weight(cr, right == 1.0)
            if step != 0.0:
                total += step
                crossings.append((float(left), float(right), step))

    def corrected(ev):
        nonzero = ev[np.abs(ev) > zero_tol]
        return 0.5 * float(np.sum(np.sign(nonzero))) + 0.5 * kernel_report(ev, zero_tol).dim

    flow = int(round(total))
    assert abs(total - flow) <= 1e-9
    return spectral.SpectralFlowResult(flow, crossings, corrected(ev1) - corrected(ev0), len(ts),
                                       refinements)


def _flow_paths():
    """(name, make_path) pairs: seeded linear, sampled and generic paths, some with
    kernel eigenvalues at an end.  make_path(calls) records each t the path solves."""
    rng = np.random.default_rng(2741)
    paths = []
    for n in (3, 8, 20):
        a0, a1 = random_hermitian(rng, n), random_hermitian(rng, n)
        paths.append((f"linear {n}", lambda a0=a0, a1=a1: MatrixPath.linear(a0, a1)))
        mats = [random_hermitian(rng, n) for _ in range(4)]
        paths.append((f"samples {n}", lambda mats=mats: MatrixPath.from_samples(mats)))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    # Kernel eigenvalues at both ends, exact and rotated.
    d0, d1 = np.diag([0.0, 1.0, -1.0, 0.5]), np.diag([1.0, 0.0, -1.0, -0.5])
    paths.append(("kernel ends", lambda: MatrixPath.linear(d0, d1)))
    paths.append(("rotated kernel ends", lambda: MatrixPath.linear(q @ d0 @ q.conj().T,
                                                                   q @ d1 @ q.conj().T)))
    paths.append(("generic", lambda: MatrixPath(
        lambda t: q @ np.diag([t - 0.5, 0.3 - t, math.sin(7 * t), 2.0 - t]) @ q.conj().T)))
    paths.append(("generic diagonal", lambda: MatrixPath(
        lambda t: np.diag([t - 1 / 3, (t - 0.5) ** 2, 0.25 - t * t, -1.0]))))
    paths.append(("one eigenvalue", lambda: MatrixPath(lambda t: np.diag([t - 0.5]))))
    return paths


@pytest.mark.parametrize("name, make_path", _flow_paths(), ids=[name for name, _ in _flow_paths()])
def test_spectral_flow_is_bit_equal_to_the_interval_loop(monkeypatch, name, make_path):
    # zero_tol 1/4 from two samples puts diag(t - 1/2) exactly at the split bar.
    options = [{}, {"zero_tol": 1e-3}, {"zero_tol": 0}, {"initial_samples": 2},
               {"initial_samples": 5, "max_refinements": 2}, {"max_refinements": 0},
               {"zero_tol": 0.25, "initial_samples": 2}]
    for kwargs in options:
        outcomes = []
        for flow in (spectral_flow, _reference_spectral_flow):
            path = make_path()
            solved = []
            solve = path._solve
            monkeypatch.setattr(path, "_solve", lambda m, solve=solve: solved.append(m) or solve(m))
            try:
                res = flow(path, **kwargs)
            except (SpectralError, AssertionError):
                outcomes.append(("not an integer", len(solved)))
                continue
            outcomes.append((res.flow, res.endpoint_formula.hex(), res.samples, res.refinements,
                             [(l.hex(), r.hex(), s.hex()) for l, r, s in res.crossings],
                             [m.tobytes() for m in solved]))
        assert outcomes[0] == outcomes[1], (name, kwargs)


def test_samples_of_unequal_dimension_are_refused():
    with pytest.raises(SpectralError, match="share a dimension"):
        MatrixPath.from_samples([np.eye(1), np.diag([1.0, -1.0])])
    calls = []
    path = MatrixPath(lambda t: calls.append(t) or np.diag([t - 0.5] * (1 if t < 0.3 else 2)))
    with pytest.raises(SpectralError, match="changes dimension: 2 eigenvalues at t = 0.3125, 1 at t = 0"):
        spectral_flow(path)
    # The first round stops at the first sample of the other dimension.
    assert calls[-1] == 0.3125
