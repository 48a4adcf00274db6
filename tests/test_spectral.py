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
    eigh,
    eigvalsh,
    eta_closed_form,
    eta_operator,
    eta_quadrature,
    harper_element,
    magnetic_multiplier,
    mckean_singer,
    product_eta_check,
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


def test_require_hermitian_accepts_the_empty_matrix():
    assert require_hermitian(np.zeros((0, 0))).shape == (0, 0)


@pytest.mark.parametrize("zero_tol", [math.nan, math.inf, -1e-9, True, "1e-9"])
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
    for tol in (1, 2):
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
    bound = max(1e-12, 1e-9 * a.norm_l1())
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
