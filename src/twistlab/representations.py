"""Finite dimensional pictures of twisted algebra elements.

Two routes: ball-truncated compressions of the left regular
representation, and clock-and-shift Bloch fibers for Z^2 elements with a
rational magnetic multiplier.  The fiber route powers the Hofstadter
butterfly sweep and the k-grid trace formulas.  ``BlochMap.blocks``
checks and solves one element's fibers block by block and hands each block
to a work function (fiber eigenvalues, or Bloch eta's sign traces); with
two usable CPUs a forked helper solves every other block, and only work's
results cross the pipe.  A fiber has one nonzero per row and term, so
blocks are built and checked at those entries only.  The butterfly splits
its blocks across all fluxes the same way, and a process builds a flux's
map and strings only if it solves one of the flux's blocks: one
%-template per block, filled with all of its eigenvalues at once, gives
one text chunk, and the chunks come out in grid order.
"""

from __future__ import annotations

import cmath
import math
import os
import pickle
import signal
import sys
from collections.abc import Sized
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .algebra import AlgebraElement
from .errors import require_int
from .groups import FreeAbelianGroup
from .multipliers import Multiplier, MultiplierError, magnetic_multiplier
from .phases import Phase
from .spectral import SpectralError, relative_tol

# Most fiber entries (fibers * q^2) one block of BlochMap.blocks holds: one
# block per flux for q <= 2 at kgrid 64.  Blocks set the peak RSS of Bloch
# sweeps, mostly through a butterfly chunk's text.  Measured VmHWM of
# butterfly --qmax 1 --kgrid 1024 and --qmax 8 --kgrid 64 (2 vCPU): 36 and
# 34 MB here, and 30 and 29 MB for the helper that formats half the blocks;
# one process with 2^16 took 49 and 37 MB, with 2^12 32 and 33 MB.  Building
# and checking the 206 blocks of the second cost 0.12-0.15 s in one process,
# as the 60 of 2^16 did (0.18 s built dense), and the 953 of 2^12 0.22 s;
# with the helper each process does half of that work.
_BLOCK_ENTRIES = 1 << 14

# Largest n^2 * q of a Bloch grid (8 MB of eigenvalues) and kgrid^2 * qmax^2
# of a butterfly sweep.  Blocks bound the rest: qmax 1 at kgrid 1024 peaks at
# 36 MB (VmHWM; 31 MB after import) and its helper at 30 MB, each holding
# one block of 2^14 rows and its text.
MAX_FIBER_ENTRIES = 2**20


@dataclass
class TruncatedOperator:
    """Compression of left convolution by an element to a word-length ball."""

    basis: list
    index: dict
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis)


def left_regular(a: AlgebraElement, radius: int) -> TruncatedOperator:
    """Matrix of x -> a * x compressed to the ball of the given radius.

    Entry (gx, x) equals a(g) sigma(g, x); products of truncations agree
    with the truncation of the product on the sub-ball whose radius is
    reduced by the support radii of the factors.
    """
    grp = a.group
    basis = grp.ball(radius)
    index = {g: i for i, g in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for g, c in a.coeffs.items():
        for x in basis:
            gx = grp.multiply(g, x)
            row = index.get(gx)
            if row is not None:
                mat[row, index[x]] += c * a.sigma.value(g, x)
    return TruncatedOperator(basis, index, mat)


def harper_element(sigma: Multiplier, coefficients: Sequence[float] = (1.0, 1.0, 1.0, 1.0)) -> AlgebraElement:
    """Nearest neighbour hopping element on Z^2.

    coefficients = (c1, c2, c3, c4) weight delta_(1,0), its star,
    delta_(0,1) and its star; equal real pairs give a self adjoint element.
    """
    if not isinstance(sigma.group, FreeAbelianGroup) or sigma.group.rank != 2:
        raise MultiplierError("harper elements live on Z^2")
    coefficients = tuple(coefficients)
    if len(coefficients) != 4:
        raise MultiplierError(f"a harper element needs four coefficients, not {len(coefficients)}")
    c1, c2, c3, c4 = (complex(c) for c in coefficients)
    dx = AlgebraElement.delta(sigma, (1, 0))
    dy = AlgebraElement.delta(sigma, (0, 1))
    return c1 * dx + c2 * dx.star() + c3 * dy + c4 * dy.star()


class BlochMap:
    """Clock-and-shift fibers for a rational magnetic multiplier on Z^2.

    At flux p/q the generators map to u = exp(i k1) clock and
    v = exp(i k2) shift with u v = exp(2 pi i p / q) v u, and a quadratic
    phase correction extends this to all of Z^2 so that
    T(g) T(h) = sigma(g, h) T(g + h) holds exactly per k.
    """

    def __init__(self, sigma: Multiplier):
        pairing = sigma.pairing
        if pairing is None or len(pairing) != 2:
            raise MultiplierError("Bloch fibers need a bilinear multiplier on Z^2")
        self.sigma = sigma
        theta = (pairing[0][1] - pairing[1][0]) % 1
        self.theta = theta
        self.q = theta.denominator
        self.p = theta.numerator
        # Symmetric matrix m with T(g) = exp(-pi i g^T m g) u^g1 v^g2.
        self.correction = [
            [pairing[0][0], pairing[0][1]],
            [pairing[0][1], pairing[1][1]],
        ]
        self.zeta = cmath.exp(2j * cmath.pi * self.p / self.q)
        self._terms: dict = {}

    def phase_correction(self, g) -> complex:
        m = self.correction
        turns = -(m[0][0] * g[0] * g[0] + 2 * m[0][1] * g[0] * g[1] + m[1][1] * g[1] * g[1]) / 2
        return Phase(turns).value

    def _nonzeros(self, g, scalar: complex):
        """(columns, values) of scalar * u^g1 v^g2 without the Bloch momenta.

        Row i holds its one nonzero, values[i], at column columns[i].
        """
        q = self.q
        columns = (np.arange(q) - g[1]) % q
        values = np.array([scalar * self.zeta ** ((i * g[0]) % q) for i in range(q)], dtype=complex)
        return columns, values

    def _term(self, g):
        """_nonzeros of T(g) at zero momentum, built once per g and shared read-only."""
        term = self._terms.get(g)
        if term is None:
            term = self._terms[g] = self._nonzeros(g, self.phase_correction(g))
            for part in term:
                part.flags.writeable = False
        return term

    def rep_matrix(self, g, k1: float, k2: float) -> np.ndarray:
        """T(g) at Bloch momentum (k1, k2), a q x q unitary."""
        scalar = self.phase_correction(g) * cmath.exp(1j * (k1 * g[0] + k2 * g[1]))
        columns, values = self._nonzeros(g, scalar)
        mat = np.zeros((self.q, self.q), dtype=complex)
        mat[np.arange(self.q), columns] = values
        return mat

    def fiber_stack(self, a: AlgebraElement, k1s: np.ndarray, k2s: np.ndarray) -> np.ndarray:
        """Stacked fibers over the k1 x k2 grid, shape (len(k1s)*len(k2s), q, q).

        Row order is lexicographic in (k1 index, k2 index).
        """
        k1f, k2f = _flat_grid(k1s, k2s)
        rows = np.arange(self.q)
        stack = np.zeros((k1f.size, self.q, self.q), dtype=complex)
        for g, c in a.coeffs.items():
            cols, values = self._term(g)
            wave = np.exp(1j * (k1f * g[0] + k2f * g[1]))
            # Only the q nonzeros of T(g): the rest of a dense c T_k(g) would
            # add signed zeros, which leave every sum as it is.
            stack[:, rows, cols] += (c * wave)[:, None] * values
        return stack

    def grid(self, n: int) -> np.ndarray:
        """Uniform Bloch grid on [0, 2 pi), endpoint excluded."""
        return 2.0 * np.pi * np.arange(n) / n

    def blocks(self, a: AlgebraElement, n: int, work, vectors: bool = False):
        """work(part, eigenvalues, vectors, k1f, k2f) per block of a's fibers, in grid order.

        Blocks of at most _BLOCK_ENTRIES entries, or one fiber, tile the n x n
        grid in lexicographic (k1, k2) order.  work gets a block's slice of
        the flat grid, eigenvalues ascending per fiber, eigh vectors if asked
        for (else None) and flat momenta, in the process that solved it and
        after its fiber stack is freed.  Via _in_order, with two usable CPUs
        a forked helper solves every other block; one block forks nothing.
        Raises SpectralError at the call unless n is an int >= 1 with
        n^2 * q <= MAX_FIBER_ENTRIES, and at its block's place if a fiber is
        not Hermitian (checked at the nonzero pattern of a's terms and its
        transpose) or a fiber or its spectrum not finite.
        """
        entries, tol, parts = self._plan(a, n)

        def solve(block):
            part, k1s, k2s = block
            eigs, vecs = self._solve(a, k1s, k2s, entries, tol, vectors)
            return work(part, eigs, vecs, *_flat_grid(k1s, k2s))

        # A list, so that a grid of one block forks no helper.
        return _in_order(list(parts), solve)

    def _plan(self, a: AlgebraElement, n: int):
        """(entries, tol, parts): the Hermitian check of a's fibers and the blocks of blocks().

        parts yields (part, k1s, k2s) for every block of the grid: its slice
        of the flat grid and its momenta.  Raises SpectralError for a grid
        blocks() refuses.
        """
        require_int(n, 1, SpectralError, "a Bloch grid needs an integer kgrid >= 1")
        if n * n * self.q > MAX_FIBER_ENTRIES:
            raise SpectralError(f"a Bloch grid needs kgrid^2 * q at most {MAX_FIBER_ENTRIES}, "
                                f"not {n}^2 * {self.q}")
        # Fibers are zero off the clock-and-shift pattern of a's terms, and
        # the defect at an entry equals the defect at its transpose, so the
        # pattern entries give the defect of the whole fiber.
        pattern = np.zeros((self.q, self.q), dtype=bool)
        for g in a.coeffs:
            pattern[np.arange(self.q), self._term(g)[0]] = True
        # Entries are sums of c_g times unit phases: rounding leaves a defect
        # near eps * |a|_1, so the bound is relative to |a|_1.
        tol = relative_tol(a.norm_l1())
        ks = self.grid(n)
        parts = ((part, ks[k1], ks[k2]) for part, k1, k2 in _grid_blocks(self.q, n))
        return np.nonzero(pattern), tol, parts

    def _solve(self, a: AlgebraElement, k1s: np.ndarray, k2s: np.ndarray, entries, tol: float,
               vectors: bool):
        """Eigenvalues and eigh vectors (or None) of one block of fibers, checked at entries."""
        rows, cols = entries
        # Entries past the floats become inf or NaN without a numpy warning:
        # the checks below report them as the one error.
        with np.errstate(over="ignore", invalid="ignore"):
            stack = self.fiber_stack(a, k1s, k2s)
            defect = float(np.abs(stack[:, cols, rows].conj() - stack[:, rows, cols]).max(initial=0.0))
        if defect <= tol:
            eigs, vecs = np.linalg.eigh(stack) if vectors else (np.linalg.eigvalsh(stack), None)
            # min and max pass NaN on, and unlike an isfinite mask allocate nothing eigs-sized.
            if -np.inf < eigs.min() and eigs.max() < np.inf:
                return eigs, vecs
        elif np.isfinite(stack).all():
            raise SpectralError(f"Bloch fibers are not Hermitian (defect {defect:.2e})")
        raise SpectralError(f"Bloch fibers or their spectra are not finite (|a|_1 = {a.norm_l1():.3e})")

    def eigenvalues(self, a: AlgebraElement, n: int) -> np.ndarray:
        """Fiber eigenvalues over the n x n grid, shape (n*n, q), in (k1, k2) order."""
        blocks = self.blocks(a, n, lambda part, eigs, vecs, k1f, k2f: (part, eigs))
        out = np.empty((n * n, self.q))
        for part, eigs in blocks:
            out[part] = eigs
        return out

    def sign_traces(self, vecs: np.ndarray, signs: np.ndarray, g, k1f: np.ndarray,
                    k2f: np.ndarray) -> np.ndarray:
        """tr(S_k T_k(g)^*) per fiber at the flat momenta (k1f, k2f).

        S_k = V_k diag(signs_k) V_k^*.  T_k(g) has one nonzero per row, row i
        at column (i - g2) mod q, so only those q entries of S_k and of
        T_k(g) are formed, each the same j-ordered sum or product as in the
        full matrices.  The grid mean over q is the coefficient at g of the
        element the fibers represent, once the grid is finer than the
        support.
        """
        cols, values = self._term(g)
        entries = np.einsum("kij,kj,kij->ki", vecs, signs, vecs[:, cols, :].conj())
        wave = np.exp(1j * (k1f * g[0] + k2f * g[1]))
        return np.einsum("ki,ki->k", entries, (wave[:, None] * values).conj())


def _grid_blocks(q: int, n: int):
    """(part, k1 indices, k2 indices) per block of BlochMap.blocks at denominator q, as slices.

    A block holds at most _BLOCK_ENTRIES fiber entries, or one fiber: whole
    k1 rows of the n x n grid, or part of one row.
    """
    per_block = max(1, _BLOCK_ENTRIES // (q * q))
    rows, cols = max(1, per_block // n), min(n, per_block)
    for i in range(0, n, rows):
        for j in range(0, n, cols):
            start = i * n + j
            yield (slice(start, start + min(rows, n - i) * min(cols, n - j)),
                   slice(i, i + rows), slice(j, j + cols))


def _flat_grid(k1s: np.ndarray, k2s: np.ndarray):
    """The k1 x k2 grid flattened in lexicographic (k1 index, k2 index) order."""
    grid1, grid2 = np.meshgrid(k1s, k2s, indexing="ij")
    return grid1.reshape(-1), grid2.reshape(-1)


@dataclass
class SpectrumResult:
    """Bloch spectrum data over a k-grid."""

    theta: Fraction
    q: int
    kgrid: int
    eigenvalues: np.ndarray  # shape (kgrid**2, q), ascending per row
    bands: list = field(default_factory=list)  # per sorted index (lo, hi)
    gaps: list = field(default_factory=list)  # (gap lo, gap hi) between separated bands
    threshold: float = 0.0

    def flat(self) -> np.ndarray:
        return np.sort(self.eigenvalues.reshape(-1))

    def distinct_band_count(self) -> int:
        """Number of per-index bands after merging proper overlaps."""
        count = 0
        current_hi = None
        for lo, hi in self.bands:
            if current_hi is None or lo > current_hi + self.threshold or abs(lo - current_hi) <= self.threshold:
                count += 1
            current_hi = hi if current_hi is None else max(current_hi, hi)
        return count


def spectrum_union(a: AlgebraElement, kgrid: int = 64) -> SpectrumResult:
    """Union of Bloch fiber spectra over a uniform k-grid.

    Band intervals are read per sorted eigenvalue index, so touching bands
    are kept separate; gaps up to the threshold 1e-4 * width of the union
    count as touching.
    """
    bm = BlochMap(a.sigma)
    eigs = bm.eigenvalues(a, kgrid)
    lo = float(eigs.min())
    hi = float(eigs.max())
    threshold = 1e-4 * (hi - lo)
    bands = [(float(eigs[:, b].min()), float(eigs[:, b].max())) for b in range(bm.q)]
    gaps = [(top, bottom) for (_, top), (bottom, _) in zip(bands, bands[1:])
            if bottom - top > threshold]
    return SpectrumResult(bm.theta, bm.q, kgrid, eigs, bands, gaps, threshold)


def algebraic_moment(a: AlgebraElement, n: int) -> complex:
    """tau_e(a^n), the n-th moment of a under the canonical trace, from half powers.

    With x = a^(n // 2) and y = a^(n - n // 2), a^n = x y and

        tau_e(x y) = sum over g in supp x of x(g) y(g^-1) sigma(g, g^-1),

    read through ``group.inverse`` and ``sigma.value`` on every group and
    multiplier kind: at most ceil(n / 2) convolutions, each of at most half
    the radius.  n = 0 gives 1.  Raises SpectralError unless n is an int >= 0.
    """
    require_int(n, 0, SpectralError, "a moment needs an integer order n >= 0")
    return _moment(_powers(a, (n + 1) // 2), n)


def _powers(a: AlgebraElement, m: int) -> list:
    """[a^0, ..., a^m], each a^(k + 1) made as a^k a from the unit: m convolutions."""
    powers = [AlgebraElement.unit(a.sigma)]
    for _ in range(m):
        powers.append(powers[-1] * a)
    return powers


def _moment(powers: list, n: int) -> complex:
    """tau_e(a^n) from powers = [a^0, a^1, ...] up to at least a^ceil(n / 2), paired as
    algebraic_moment says, summed in the order of x's support."""
    x, y = powers[n // 2], powers[n - n // 2].coeffs
    inverse, value = x.group.inverse, x.sigma.value
    total = 0j
    for g, c in x.coeffs.items():
        h = inverse(g)
        if h in y:
            total += c * y[h] * value(g, h)
    return total


@dataclass
class MomentStudy:
    """Per order n in ``orders``: ``errors[n]``, |tau_e(a^n) - grid average| per k-grid of
    ``grids``, and ``convergence[n]``, the least log2 ratio of successive errors (inf
    at or below ``saturation``, 1e-12 times max(1, largest |tau_e(a^n)|))."""

    orders: list
    grids: list
    errors: dict
    convergence: dict
    saturation: float = 1e-12

    def min_order(self) -> float:
        return min(self.convergence.values())


def moment_match_study(a: AlgebraElement, n_max: int = 8, grids: Sequence[int] = (16, 32, 64)) -> MomentStudy:
    """Compare algebraic moments with k-grid fiber averages under grid doubling.

    The exact moments are tau_e(a^n) = sum_g x(g) y(g^-1) sigma(g, g^-1) for
    n = 1..n_max, from the half powers x, y of ``algebraic_moment``, all made
    once: a^0 .. a^ceil(n_max / 2) in ceil(n_max / 2) convolutions.  The
    uniform trigonometric grid integrates the fiber moments exactly once the
    grid resolves the support, so errors typically sit at the noise floor;
    such saturated sequences report infinite order.  Raises SpectralError
    unless n_max is an int >= 1 and grids is not empty.
    """
    require_int(n_max, 1, SpectralError, "a moment study needs an integer n_max >= 1")
    grids = list(grids)
    if not grids:
        raise SpectralError("a moment study needs at least one grid")
    bm = BlochMap(a.sigma)
    powers = _powers(a, (n_max + 1) // 2)
    exact = {n: _moment(powers, n) for n in range(1, n_max + 1)}
    scale = max(1.0, max(abs(v) for v in exact.values()))
    errors: dict = {n: [] for n in exact}
    for n_grid in grids:
        eigs = bm.eigenvalues(a, n_grid)
        for n in exact:
            approx = float((eigs ** n).mean())
            errors[n].append(abs(approx - exact[n].real))
    saturation = 1e-12 * scale
    convergence = {}
    for n, errs in errors.items():
        rates = [math.inf if e0 <= saturation or e1 <= saturation else math.log2(e0 / e1)
                 for e0, e1 in zip(errs, errs[1:])]
        convergence[n] = math.inf if errs[-1] <= saturation else min(rates, default=math.inf)
    return MomentStudy(list(exact), grids, errors, convergence, saturation)


def reduced_fractions(qmax: int) -> Iterator[Fraction]:
    """0/1 and all reduced p/q in (0,1) with q <= qmax, sorted by (q, p)."""
    yield Fraction(0)
    for q in range(2, qmax + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                yield Fraction(p, q)


def butterfly_csv(qmax: int, kgrid: int, coefficients: Sequence[float] = (1.0, 1.0, 1.0, 1.0)) -> Iterator[str]:
    """CSV text of the Hofstadter sweep: one chunk per Bloch block, the header first.

    Columns: theta_num,theta_den,k1,k2,band_index,eigenvalue; every line
    ends in a newline and floats carry 17 significant digits.  Each block
    is built and solved in this process or in a forked helper (see
    _in_order), which also formats it by one %-template with an eigenvalue
    slot per row; the chunks come out in grid order either way.  The header
    comes with the first block's chunk, so a sweep that fails there yields
    no text.  Raises SpectralError at the call, before any text or fork,
    unless qmax and kgrid are ints >= 1 with (kgrid * qmax)^2 <=
    MAX_FIBER_ENTRIES and the coefficients are four finite numbers with
    c1 == c2 and c3 == c4 exactly.
    """
    for size in (qmax, kgrid):
        require_int(size, 1, SpectralError, "a butterfly sweep needs integers qmax >= 1 and kgrid >= 1")
    if (kgrid * qmax) ** 2 > MAX_FIBER_ENTRIES:
        raise SpectralError(f"a butterfly sweep needs kgrid^2 * qmax^2 at most {MAX_FIBER_ENTRIES}")
    if len(coefficients) != 4 or not all(map(cmath.isfinite, coefficients)):
        raise SpectralError(f"a butterfly sweep needs four finite coefficients, not {coefficients!r}")
    c1, c2, c3, c4 = coefficients
    if c1 != c2 or c3 != c4:
        raise SpectralError("a butterfly sweep needs a self adjoint element: c1 == c2 and c3 == c4")
    return _butterfly_chunks(qmax, kgrid, coefficients)


def _butterfly_chunks(qmax: int, kgrid: int, coefficients: Sequence[float]) -> Iterator[str]:
    """The chunks of butterfly_csv, made as they are read.

    A task is (theta, part, k1 indices, k2 indices), one per Bloch block in
    CSV order.  A process builds a flux's state (see _butterfly_flux) when it
    solves the first block of that flux of its own, and keeps only the last.
    """
    built: dict = {}

    def chunk(block):
        theta = block[0]
        if theta not in built:
            built.clear()  # the blocks of a flux are consecutive
            built[theta] = _butterfly_flux(theta, kgrid, coefficients)
        return _butterfly_chunk(built[theta], block)

    blocks = ((theta, *block) for theta in reduced_fractions(qmax)
              for block in _grid_blocks(theta.denominator, kgrid))
    chunks = _in_order(blocks, chunk)
    # Flux 0 gives at least one block.
    yield "theta_num,theta_den,k1,k2,band_index,eigenvalue\n" + next(chunks)
    yield from chunks


def _butterfly_flux(theta: Fraction, kgrid: int, coefficients: Sequence[float]) -> tuple:
    """What the blocks of flux theta share: its map, element, check and strings."""
    sigma = magnetic_multiplier(theta, "landau")
    h = harper_element(sigma, coefficients)
    bm = BlochMap(sigma)
    ks = bm.grid(kgrid)
    kstr = [f"{k:.17g}" for k in ks.tolist()]
    label = f"{theta.numerator},{theta.denominator},"
    # Row tails in (k2, band) order; a k1 row is its prefix before each.
    tails = [f"{k2},{b},%.17g\n" for k2 in kstr for b in range(bm.q)]
    entries, tol, _ = bm._plan(h, kgrid)
    return bm, h, entries, tol, ks, kstr, label, tails


def _butterfly_chunk(flux: tuple, block: tuple) -> str:
    """The CSV text of one block of _butterfly_chunks, with its flux from _butterfly_flux."""
    bm, h, entries, tol, ks, kstr, label, tails = flux
    _, part, k1, k2 = block
    eigs, _ = bm._solve(h, ks[k1], ks[k2], entries, tol, False)
    kgrid = len(kstr)
    segments = []
    # A block is whole k1 rows, or part of one row.
    for i in range(part.start // kgrid, (part.stop - 1) // kgrid + 1):
        lo, hi = max(part.start - i * kgrid, 0), min(part.stop - i * kgrid, kgrid)
        prefix = f"{label}{kstr[i]},"
        segments += (prefix, prefix.join(tails[lo * bm.q:hi * bm.q]))
    return "".join(segments) % tuple(eigs.ravel().tolist())


# Pipe size asked for by _in_order.  Butterfly chunks reach 0.5 MB; with the
# default 64 KiB the helper waits on a full pipe, and hofstadter took 4% more
# wall time (0.768 against 0.736 s, 4 alternating pairs of runs, 2 vCPU).
_PIPE_BYTES = 1 << 20

# Set in a helper forked by _in_order, and only there (it never returns to the
# caller), so that the helper forks no helper of its own.
_in_helper = False


def _in_order(tasks, work, helper=range(1, sys.maxsize, 2)):
    """work(task) for each task, in task order, computed by two processes.

    With two or more usable CPUs, a helper forked here runs the tasks whose
    indices are in helper (by default the odd ones) and pickles each result
    into a pipe, while this process runs the others and unpickles the
    helper's results in turn.  An exception of the helper is raised here at
    its task's place.  Both processes walk their own copy of tasks, so it
    must give the same tasks in each, and both make every task: a task
    should be a cheap description, and what solving it needs is built by
    work, so that each process builds only what it solves.  Fork keeps the
    state built before the call, which a spawned helper would import and
    build again; the helper leaves through os._exit, so it runs no exit
    hooks and flushes no stdio buffer it inherited.  With one usable CPU, a
    sized list of fewer than two tasks, or in a helper (whose tasks may call
    this again), this is map(work, tasks).
    """
    global _in_helper
    cpus = getattr(os, "sched_getaffinity", None)
    if (_in_helper or cpus is None or len(cpus(0)) < 2
            or (isinstance(tasks, Sized) and len(tasks) < 2)):
        yield from map(work, tasks)
        return
    import fcntl

    read_fd, write_fd = os.pipe()
    try:
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except OSError:
        pass  # the default size is slower, not wrong
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _in_helper = True
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                try:
                    for index, task in enumerate(tasks):
                        if index in helper:
                            _send(pipe, (False, work(task)))
                except BaseException as exc:
                    _send(pipe, (True, exc))
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            for index, task in enumerate(tasks):
                yield _receive(pipe, index) if index in helper else work(task)
    finally:
        # Killing a helper that has already exited does nothing; waitpid reaps it either way.
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _send(pipe, message) -> None:
    pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
    pipe.flush()


def _receive(pipe, index: int):
    try:
        raised, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError(f"the helper process ended before sending task {index}") from None
    if raised:
        raise value
    return value


def butterfly_rows(qmax: int, kgrid: int, coefficients: Sequence[float] = (1.0, 1.0, 1.0, 1.0)) -> Iterator[str]:
    """The lines of butterfly_csv without their newlines, header first."""
    for chunk in butterfly_csv(qmax, kgrid, coefficients):
        yield from chunk.splitlines()

