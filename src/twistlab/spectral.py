"""Finite dimensional spectral invariants: eta, spectral flow, index.

Every eigensolve goes through LAPACK (numpy.linalg): ``eigvalsh`` where
only eigenvalues are needed, ``eigh`` where eigenvectors are, the latter
reporting the residual of the decomposition.  Both validate their input
first: square, finite and Hermitian.  Eta invariants come in a closed form
(half the signature) and a quadrature form for the heat-kernel integral;
both support the two normalizations found in the literature (with and
without the factor 2 in the denominator).  Bloch eta solves its fibers
block by block; with two usable CPUs a forked helper solves half the
blocks.  Spectral flow decides each refinement round in one array pass
over the samples of that round.  Every default threshold is relative_tol of
a scale of the input, so scaling the input by 2^k does not change a result.
"""

from __future__ import annotations

import math
import numbers
import reprlib
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import AlgebraElement
from .errors import TwistlabError
from .phases import as_rational


class SpectralError(TwistlabError):
    """Raised for non-finite or non-Hermitian input or insufficient quadrature windows."""


def _as_matrix(a) -> np.ndarray:
    mat = np.asarray(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SpectralError("expected a square matrix")
    return mat


def relative_tol(scale: float) -> float:
    """The default "is this zero?" threshold for quantities of size scale: 1e-9 * scale."""
    return 1e-9 * scale


def require_hermitian(a) -> np.ndarray:
    mat = _as_matrix(a)
    if not np.isfinite(mat).all():
        raise SpectralError("matrix has non-finite entries")
    defect = float(np.abs(mat - mat.conj().T).max()) if mat.size else 0.0
    if defect > relative_tol(float(np.abs(mat).max(initial=0.0))):
        raise SpectralError(f"matrix is not Hermitian (defect {defect:.3e})")
    return mat


@dataclass
class EigenDecomposition:
    eigenvalues: np.ndarray  # ascending
    vectors: np.ndarray  # columns, unitary
    residual: float  # max entry of |A V - V diag(lambda)|


def _finite_spectrum(eigenvalues: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The eigenvalues of a, or a SpectralError naming a's scale if one is not finite."""
    if not np.isfinite(eigenvalues).all():
        raise SpectralError(f"eigenvalues beyond the floats (largest |entry| {np.abs(a).max():.3e})")
    return eigenvalues


def eigh(a) -> EigenDecomposition:
    """Eigenvalues and eigenvectors of a complex Hermitian matrix (LAPACK)."""
    a = require_hermitian(a)
    eigenvalues, vectors = np.linalg.eigh(a)
    _finite_spectrum(eigenvalues, a)
    residual = float(np.abs(a @ vectors - vectors * eigenvalues).max())
    return EigenDecomposition(eigenvalues, vectors, residual)


def eigvalsh(a) -> np.ndarray:
    """Ascending eigenvalues of a complex Hermitian matrix (LAPACK)."""
    a = require_hermitian(a)
    return _finite_spectrum(np.linalg.eigvalsh(a), a)


def default_zero_tol(eigenvalues: np.ndarray) -> float:
    """Kernel threshold: relative_tol of the spectral radius, so 0 for a zero operator."""
    return relative_tol(float(np.abs(eigenvalues).max(initial=0.0)))


def _zero_tol(zero_tol, eigenvalues: np.ndarray | None = None):
    """A checked zero_tol, or for None the default of the eigenvalues (None without them)."""
    if zero_tol is None:
        return None if eigenvalues is None else default_zero_tol(eigenvalues)
    # NaN, inf and an int past the floats all fail the exact comparison with the largest float.
    if (isinstance(zero_tol, bool) or not isinstance(zero_tol, numbers.Real)
            or not 0 <= zero_tol <= sys.float_info.max):
        raise SpectralError(f"zero_tol must be a finite number >= 0, not {reprlib.repr(zero_tol)}")
    return zero_tol


def _eta_scale(normalization: str) -> float:
    if normalization == "half":
        return 0.5
    if normalization == "full":
        return 1.0
    raise SpectralError(f"unknown eta normalization {normalization!r}")


@dataclass
class KernelReport:
    dim: int
    zero_tol: float
    ambiguous: list  # eigenvalues inside [zero_tol/10, zero_tol*10]


def kernel_report(eigenvalues: np.ndarray, zero_tol: float | None = None) -> KernelReport:
    ev = np.asarray(eigenvalues, dtype=float)
    zero_tol = _zero_tol(zero_tol, ev)
    mag = np.abs(ev)
    dim = int(np.sum(mag <= zero_tol))
    band = ev[(zero_tol / 10 < mag) & (mag < zero_tol * 10)].tolist()
    return KernelReport(dim, zero_tol, band)


def eta_closed_form(a, zero_tol: float | None = None, normalization: str = "half") -> float:
    """Signature form of the eta invariant of a Hermitian matrix.

    Each eigenvalue above the kernel threshold contributes
    scale * sign(lambda), where scale is 1/2 ('half', the default) or 1
    ('full', the convention without the 2 in the denominator).
    """
    ev = a if isinstance(a, np.ndarray) and a.ndim == 1 else eigvalsh(a)
    zero_tol = _zero_tol(zero_tol, ev)
    scale = _eta_scale(normalization)
    return scale * float(np.sum(np.sign(ev[np.abs(ev) > zero_tol])))


@dataclass
class EtaResult:
    eta: float
    error_bound: float
    method: str
    params: dict = field(default_factory=dict)
    germ: dict | None = None  # rational s -> eta for power families
    kernel: KernelReport | None = None


# Largest node-by-eigenvalue array _head_integral builds at once.
_QUAD_BLOCK = 1 << 16


def _head_integral(ev: np.ndarray, u_max: float) -> tuple[float, float]:
    """Adaptive Simpson for (1/sqrt(pi)) * int_0^{u_max} sum(l exp(-u^2 l^2)) du.

    Returns the estimate and its last change, which stops the refinement
    once it is at most 1e-9 * (1 + |estimate|).  Each level halves the
    step; the nodes of the previous level are the even-indexed nodes of the
    next, so only the new odd-indexed nodes are evaluated, in blocks of
    about _QUAD_BLOCK node-eigenvalue pairs.
    """
    ev2 = ev * ev
    rows = max(1, _QUAD_BLOCK // ev.size)

    def f(us: np.ndarray) -> np.ndarray:
        out = np.empty(us.size)
        for i in range(0, us.size, rows):
            u = us[i:i + rows]
            out[i:i + rows] = np.exp(-(u * u)[:, None] * ev2) @ ev
        return out / math.sqrt(math.pi)

    panels = 4
    ys = f(np.linspace(0.0, u_max, 2 * panels + 1))
    prev = None
    estimate = 0.0
    change = 0.0
    for _ in range(14):
        panels *= 2
        h = u_max / (2 * panels)
        finer = np.empty(2 * panels + 1)
        finer[0::2] = ys
        finer[1::2] = f(h * np.arange(1, 2 * panels, 2))
        ys = finer
        estimate = h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())
        if prev is not None:
            change = abs(estimate - prev)
            if change <= 1e-9 * (1.0 + abs(estimate)):
                break
        prev = estimate
    return estimate, change


def eta_quadrature(a, t_max: float | None = None, normalization: str = "half") -> EtaResult:
    """Eta via the heat-kernel integral (1/(2 sqrt(pi))) int t^{-1/2} Tr(A e^{-t A^2}) dt.

    The integral over [0, t_max] is evaluated with adaptive Simpson after
    the substitution t = u^2; the tail beyond t_max is bounded by
    sum erfc(|lambda| sqrt(t_max)) / 2 over nonzero eigenvalues.  When the
    requested window makes the tail bound exceed 1e-6 the call fails and
    reports the t_max needed.
    """
    ev = eigvalsh(a)
    zero_tol = default_zero_tol(ev)
    nonzero = ev[np.abs(ev) > zero_tol]
    scale = _eta_scale(normalization)
    if nonzero.size == 0:
        return EtaResult(0.0, 0.0, "quadrature", {"t_max": 0.0, "zero_tol": zero_tol})
    lam_min = float(np.abs(nonzero).min())
    required = (5.0 / lam_min) ** 2
    if t_max is None:
        t_max = required
    tail_bound = 0.5 * float(np.sum([math.erfc(abs(l) * math.sqrt(t_max)) for l in nonzero]))
    if tail_bound > 1e-6:
        raise SpectralError(
            f"tail bound {tail_bound:.2e} exceeds 1e-6; use t_max >= {required:.6g}"
        )
    head, quad_err = _head_integral(nonzero, math.sqrt(t_max))
    eta = 2.0 * scale * head
    error = 2.0 * scale * (quad_err + tail_bound)
    return EtaResult(eta, error, "quadrature",
                     {"t_max": t_max, "zero_tol": zero_tol, "normalization": normalization},
                     kernel=kernel_report(ev, zero_tol))


def _weights_of_trace(tau, group) -> dict:
    """Finite weight map g -> c_g of a linear functional tau(x) = sum c_g x_g.

    No functional weights the identity alone, as the regular trace does.
    """
    return {group.identity(): 1.0 + 0.0j} if tau is None else tau.weights()


def eta_operator(operator, tau=None, method: str = "bloch", normalization: str = "half",
                 kgrid: int = 64, radius: int = 8, s_grid: Sequence | None = None,
                 zero_tol: float | None = None) -> EtaResult:
    """Eta invariant of a self adjoint algebra element against a trace.

    method 'bloch': Z^2 with rational magnetic multiplier; the spectral
    sign function is computed per Bloch fiber, and the trace weights are
    read off the gathered sign entries of BlochMap.sign_traces.  With two
    usable CPUs a forked helper solves half the Bloch blocks
    (BlochMap.sign_trace_blocks); the result does not change.  The error
    is the change from the every-other-point subgrid for kgrid 4 and even
    kgrid >= 8, else from a separate max(4, kgrid // 2) grid; kgrid^2 * q
    is at most MAX_FIBER_ENTRIES.
    method 'truncation': the sign of the left regular truncation to the
    ball of radius r, read at the identity column against the trace
    weights; the change from radius max(2, r - 2), or from radius 0 at
    r = 2, is reported as the error.
    method 'dense': plain matrix input with the matrix trace; reduces to
    eta_closed_form.

    With s_grid the multiplier is raised to each rational power s and the
    germ {s: eta} is tabulated.
    """
    zero_tol = _zero_tol(zero_tol)
    if method == "dense":
        ev = eigvalsh(operator)
        eta = eta_closed_form(ev, zero_tol, normalization)
        return EtaResult(eta, 0.0, "dense", {"normalization": normalization},
                         kernel=kernel_report(ev, zero_tol))
    if not isinstance(operator, AlgebraElement):
        raise SpectralError("bloch/truncation methods need an algebra element")
    if s_grid is not None:
        args = (tau, method, normalization, kgrid, radius, None, zero_tol)
        base = eta_operator(operator, *args)
        germ = {}
        for s in map(as_rational, s_grid):
            # sigma^1 is sigma, so its eta is the base eta, bit for bit.
            res = base if s == 1 else eta_operator(
                AlgebraElement._from_dict(operator.sigma.power(s), operator.coeffs), *args)
            germ[str(s)] = res.eta
        base.germ = germ
        return base
    if method == "bloch":
        return _eta_bloch(operator, tau, normalization, kgrid, zero_tol)
    if method == "truncation":
        return _eta_truncation(operator, tau, normalization, radius, zero_tol)
    raise SpectralError(f"unknown eta method {method!r}")


def _eta_bloch(a: AlgebraElement, tau, normalization: str, kgrid: int,
               zero_tol: float | None) -> EtaResult:
    """Bloch eta on the kgrid x kgrid grid; error_bound is its change on a coarser grid.

    That is every other point of the full grid for kgrid 4 and even kgrid >= 8
    (2 pi i / m is 2 pi (2i) / (2m) bit for bit, so nothing is solved again),
    else a separate max(4, kgrid // 2) grid.
    """
    from .representations import MAX_FIBER_ENTRIES, BlochMap

    bm = BlochMap(a.sigma)
    # The eigenvalue array below holds kgrid^2 * q floats at once.
    if kgrid * kgrid * bm.q > MAX_FIBER_ENTRIES:
        raise SpectralError(f"Bloch eta needs kgrid^2 * q at most {MAX_FIBER_ENTRIES}, "
                            f"not {kgrid}^2 * {bm.q}")
    weights = _weights_of_trace(tau, a.group)
    scale = _eta_scale(normalization)
    # Each fiber is a sum of c_g times unitaries, so bound >= the default
    # zero_tol.  Signs are taken against bound until that is known; then the
    # blocks with an eigenvalue at or below either are solved again.
    bound = relative_tol(a.norm_l1())
    # kgrid 4 against a 4-grid of its own would bound nothing.
    coarse = 2 if kgrid == 4 else max(4, kgrid // 2)
    subgrid = 2 * coarse == kgrid

    def eta_of(traces: dict) -> float:
        total = sum(complex(c) * complex(traces[g].mean() / bm.q) for g, c in weights.items())
        return scale * complex(total).real

    etas = []
    for n in (kgrid,) if subgrid else (kgrid, coarse):
        evals = np.empty((n * n, bm.q))
        traces = {g: np.empty(n * n, dtype=complex) for g in weights}

        def solve(tol: float, only=None) -> None:
            for part, ev, block_traces in bm.sign_trace_blocks(a, n, weights, tol, only):
                evals[part] = ev
                for g, trace in traces.items():
                    trace[part] = block_traces[g]

        solve(bound if zero_tol is None else zero_tol)
        if zero_tol is None:
            # Blocks left alone have no eigenvalue at or below either, so
            # after this every fiber's signs are taken against zero_tol.
            zero_tol = default_zero_tol(evals.reshape(-1))
            solve(zero_tol, np.abs(evals).min(axis=1) <= max(bound, zero_tol))
        if not etas:
            kernel = kernel_report(evals.reshape(-1), zero_tol)
        etas.append(eta_of(traces))
    if subgrid:
        # A copy, so the mean sums in the order of a separately solved grid.
        etas.append(eta_of({g: np.ascontiguousarray(t.reshape(kgrid, kgrid)[::2, ::2]).reshape(-1)
                            for g, t in traces.items()}))
    eta, eta_half = etas
    return EtaResult(eta, abs(eta - eta_half), "bloch",
                     {"kgrid": kgrid, "zero_tol": zero_tol, "normalization": normalization},
                     kernel=kernel)


def _eta_truncation(a: AlgebraElement, tau, normalization: str, radius: int,
                    zero_tol: float | None) -> EtaResult:
    from .representations import left_regular

    if radius < 0:
        raise SpectralError(f"truncation radius must be >= 0, not {radius}")
    weights = _weights_of_trace(tau, a.group)
    values = []
    # Radius 2 compares with 0, not with itself; radii 0 and 1 with the finer 2.
    for r in (0 if radius == 2 else max(2, radius - 2), radius):
        op = left_regular(a, r)
        dec = eigh(op.matrix)
        ev = dec.eigenvalues
        tol_r = _zero_tol(zero_tol, ev)
        signs = np.where(np.abs(ev) > tol_r, np.sign(ev), 0.0)
        sign_op = dec.vectors @ (signs[:, None] * dec.vectors.conj().T)
        e_col = op.index[a.group.identity()]
        total = 0.0 + 0.0j
        for g, c in weights.items():
            row = op.index.get(g)
            if row is not None:
                total += complex(c) * sign_op[row, e_col]
        values.append(_eta_scale(normalization) * total.real)
    eta = values[-1]
    error = abs(values[-1] - values[0])
    return EtaResult(eta, error, "truncation",
                     {"radius": radius, "normalization": normalization})


@dataclass
class SpectralFlowResult:
    flow: int
    crossings: list  # (t_left, t_right, direction)
    endpoint_formula: float  # [eta + ker/2](end) - [eta + ker/2](start)
    samples: int
    refinements: int


class MatrixPath:
    """Hermitian path on [0, 1], from samples or a generator callback.

    A generator's matrices are checked as they are solved.  ``from_samples``
    interpolates linearly between equally spaced samples, checks them at
    construction, and solves checking only finiteness; ``linear(a0, a1)`` is
    the path of the two samples a0 and a1.
    """

    def __init__(self, fn: Callable[[float], np.ndarray]):
        self._fn = fn
        self._cache: dict = {}
        self._solve = eigvalsh

    @classmethod
    def linear(cls, a0, a1) -> "MatrixPath":
        return cls.from_samples([a0, a1])

    @classmethod
    def from_samples(cls, mats: Sequence) -> "MatrixPath":
        mats = [require_hermitian(m) for m in mats]
        if len(mats) < 2:
            raise SpectralError("a path needs at least two samples")
        if any(m.shape != mats[0].shape for m in mats):
            raise SpectralError("samples must share a dimension")

        def fn(t: float) -> np.ndarray:
            pos = t * (len(mats) - 1)
            i = min(int(pos), len(mats) - 2)
            w = pos - i
            return (1.0 - w) * mats[i] + w * mats[i + 1]

        path = cls(fn)
        # Only finiteness: a Hermitian check costs about 70 us per 80 x 80 sample, and a flow solves 77-148.
        path._solve = lambda m: _finite_spectrum(np.linalg.eigvalsh(m), m)
        return path

    def eigenvalues(self, t: float) -> np.ndarray:
        key = round(t, 15)
        if key not in self._cache:
            # Values only, sampled many times per flow computation.
            self._cache[key] = self._solve(self._fn(t))
        return self._cache[key]

    def matrix(self, t: float) -> np.ndarray:
        return self._fn(t)


def spectral_flow(path: MatrixPath, zero_tol: float | None = None,
                  initial_samples: int = 17, max_refinements: int = 12) -> SpectralFlowResult:
    """Net signed count of eigenvalues crossing zero along the path.

    Tracking: per sorted index, sign categories (-, 0, +) are compared on
    adjacent samples; intervals are bisected until every per-index move is
    smaller than half the distance to zero at crossing candidates.
    Endpoint kernel eigenvalues count with the kernel-corrected weight, so
    the result equals [eta + ker/2](end) - [eta + ker/2](start) and is an
    integer whenever the endpoint kernels match the convention.
    """
    zero_tol = _zero_tol(zero_tol)
    if initial_samples < 2 or max_refinements < 0:
        raise SpectralError("spectral flow needs initial_samples >= 2 and max_refinements >= 0")
    ev0 = path.eigenvalues(0.0)
    ev1 = path.eigenvalues(1.0)
    if zero_tol is None:
        zero_tol = max(default_zero_tol(ev0), default_zero_tol(ev1))
    ts = np.linspace(0.0, 1.0, initial_samples)
    evs = _path_samples(path, ts, ev0.shape)
    refinements = 0
    while refinements < max_refinements:
        # Per interval (row): the largest move of an index, the eigenvalue
        # nearest zero at either end, and whether an index may change sign.
        left, right = evs[:-1], evs[1:]
        move = np.abs(left - right).max(axis=1)
        nearest = np.abs(evs).min(axis=1)
        bar = np.maximum(4 * zero_tol, np.minimum(nearest[1:], nearest[:-1]) / 2)
        split = (np.sign(left) * np.sign(right) <= 0).any(axis=1) & (move > bar)
        if not split.any():
            break
        refinements += 1
        mids = (ts[:-1][split] + ts[1:][split]) / 2.0
        # Not np.union1d: its first call imports numpy.ma, 0.8 MB of peak RSS.
        ts = np.array(sorted(set(ts.tolist()) | set(mids.tolist())))
        evs = _path_samples(path, ts, ev0.shape)

    # Sign categories (-1, 0, +1) per sample and index; the (interval, index)
    # pairs where one changes, in row-major order, as the intervals are walked.
    category = (evs > zero_tol).astype(np.int8) - (evs < -zero_tol)
    rows, cols = np.nonzero(category[:-1] != category[1:])

    def weight(cat: np.ndarray, at_end: np.ndarray) -> np.ndarray:
        # Negative eigenvalues carry weight 1; kernel eigenvalues carry 1/2
        # at interior samples and 0 at endpoints (kernel-corrected rule).
        return np.where(cat < 0, 1.0, np.where(cat == 0, np.where(at_end, 0.0, 0.5), 0.0))

    steps = (weight(category[rows, cols], ts[rows] == 0.0)
             - weight(category[rows + 1, cols], ts[rows + 1] == 1.0))
    rows, steps = rows[steps != 0.0], steps[steps != 0.0].tolist()
    crossings = list(zip(ts[rows].tolist(), ts[rows + 1].tolist(), steps))
    total = sum(steps, 0.0)

    # [eta + ker/2] at each end: half its sign sum plus half its kernel count.
    ends = category[[0, -1]]
    corrected = 0.5 * ends.sum(axis=1) + 0.5 * (ends == 0).sum(axis=1)
    endpoint_formula = float(corrected[1] - corrected[0])
    flow = int(round(total))
    if abs(total - flow) > 1e-9:
        raise SpectralError(f"tracking count {total} is not an integer; refine the path")
    return SpectralFlowResult(flow, crossings, endpoint_formula, len(ts), refinements)


def _path_samples(path: MatrixPath, ts: np.ndarray, shape: tuple) -> np.ndarray:
    """path.eigenvalues(t) for each t of ts, solved in that order, as the rows of one array.

    Raises SpectralError at the first sample whose shape is not shape.
    """
    rows = []
    for t in ts:
        ev = path.eigenvalues(t)
        if ev.shape != shape:
            raise SpectralError(f"the path changes dimension: {ev.size} eigenvalues at t = {float(t)!r}, "
                                f"{shape[0]} at t = 0")
        rows.append(ev)
    return np.array(rows)


@dataclass
class GradedMatrix:
    """Odd self adjoint operator with a +-1 grading that anticommutes with it."""

    matrix: np.ndarray
    grading: np.ndarray

    def __post_init__(self):
        self.matrix = require_hermitian(self.matrix)
        self.grading = np.asarray(self.grading, dtype=float).reshape(-1)
        if self.grading.size != self.matrix.shape[0]:
            raise SpectralError("grading length must match the matrix dimension")
        if not np.all(np.isin(self.grading, (-1.0, 1.0))):
            raise SpectralError("grading entries must be +-1")
        anti = self.grading[:, None] * self.matrix + self.matrix * self.grading[None, :]
        if float(np.abs(anti).max()) > relative_tol(float(np.abs(self.matrix).max())):
            raise SpectralError("operator does not anticommute with the grading")

    def index(self) -> int:
        """dim ker D+ - dim ker D- = dim E+ - dim E-, as D+ and D- = (D+)* have one rank."""
        return int(np.count_nonzero(self.grading > 0)) - int(np.count_nonzero(self.grading < 0))


def mckean_singer(d: GradedMatrix, t_values: Sequence[float] = (0.1, 0.5, 1.0, 2.0)) -> dict:
    """Supertrace of the heat operator against the graded index.

    Str exp(-t D^2) is constant in t and equals ind(D+); returns the
    samples and the maximal deviation from the index.
    """
    dec = eigh(d.matrix)
    index = d.index()
    supertraces = []
    for t in t_values:
        heat = dec.vectors @ (np.exp(-t * dec.eigenvalues ** 2)[:, None] * dec.vectors.conj().T)
        supertraces.append(float(np.real(np.sum(d.grading * np.diag(heat)))))
    deviation = max(abs(s - index) for s in supertraces)
    return {"index": index, "t_values": list(t_values), "supertraces": supertraces,
            "max_deviation": deviation}


def product_eta_check(d_l, d_n: GradedMatrix, normalization: str = "half") -> dict:
    """Eta of z_N (x) D_L + D_N (x) 1 against eta(D_L) * ind(D_N)."""
    d_l = require_hermitian(d_l)
    big = np.kron(np.diag(d_n.grading), d_l) + np.kron(d_n.matrix, np.eye(d_l.shape[0]))
    lhs = eta_closed_form(big, normalization=normalization)
    rhs = eta_closed_form(d_l, normalization=normalization) * d_n.index()
    return {"lhs": lhs, "rhs": rhs, "defect": abs(lhs - rhs)}


@dataclass
class BettiResult:
    b_even: float
    b_odd: float
    euler: float
    index: int
    ambiguous: list
    zero_tol: float


def twisted_betti(even_block, odd_block, zero_tol: float | None = None,
                  tau: Callable | None = None) -> BettiResult:
    """Kernel traces of positive semidefinite even/odd Laplacian blocks.

    With tau = None the matrix trace is used, so the Betti numbers are
    kernel dimensions, counted exactly from the eigenvalues.  A custom tau
    receives the kernel projection matrix and must return a real number.
    Eigenvalues inside the ambiguity band (zero_tol/10, 10 * max(zero_tol,
    default_zero_tol)) are reported, not silently resolved: a zero_tol below
    rounding still flags the rounded zero eigenvalues.
    """
    zero_tol = _zero_tol(zero_tol)
    results = []
    ambiguous: list = []
    tol_used = zero_tol
    for block in (even_block, odd_block):
        if tau is None:
            ev = eigvalsh(block)
        else:
            dec = eigh(block)
            ev = dec.eigenvalues
        tol = _zero_tol(zero_tol, ev)
        tol_used = tol if tol_used is None else max(tol_used, tol)
        # Rounding leaves a zero eigenvalue near -eps * |block|, whatever
        # kernel threshold the caller chose.
        margin = 10 * max(tol, default_zero_tol(ev))
        if ev.size and float(ev.min()) < -margin:
            raise SpectralError("Laplacian block is not positive semidefinite")
        ambiguous += [float(x) for x in ev if tol / 10 < abs(x) < margin]
        kernel = np.abs(ev) <= tol
        if tau is None:
            results.append(float(np.count_nonzero(kernel)))
        else:
            kernel_cols = dec.vectors[:, kernel]
            results.append(float(np.real(tau(kernel_cols @ kernel_cols.conj().T))))
    b_even, b_odd = results
    index = int(round(b_even - b_odd))
    return BettiResult(b_even, b_odd, b_even - b_odd, index, ambiguous, tol_used)


def cycle_complex(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Laplacians of the discretized circle de Rham complex on n vertices.

    d maps vertex functions to edge functions, (df)(j) = f(j+1) - f(j);
    returns (d^T d, d d^T).
    """
    if n < 3:
        raise SpectralError("a cycle complex needs at least 3 vertices")
    d = np.zeros((n, n))
    for j in range(n):
        d[j, j] = -1.0
        d[j, (j + 1) % n] = 1.0
    return d.T @ d, d @ d.T
