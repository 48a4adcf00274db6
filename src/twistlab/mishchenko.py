"""Projections over twisted algebras from covers with lattice transitions.

A finite cover of the circle or torus with a subordinate partition of
unity and locally constant transition elements produces an idempotent
matrix over (functions on the base) tensor (twisted group algebra).  The
off diagonal phases come from the magnetic potential evaluated at the
rational lifts, which makes the idempotent and self adjointness
identities exact at the phase level; the only float content is the
partition of unity.

A lift of x mod 1 through a chart is x + shift with an integer shift, so
transitions, the differences of lifts, are integer differences of shifts.
A cover computes a point's shifts, and the torus its lifts, in one
``_point`` call; the projection makes one per base point and reads that
point's transitions and phases from it.  Without gauge offsets the torus
cover's geometric multiplier is the magnetic pairing exactly, as
rationals, so the torus projection reads sigma from that normal form and
its integer kernel.

The checks build no element: P_ij is one coefficient at the transition
g_ij, and so is each entry of P^2 and of P^*, since products of transitions
are transitions.  ``defects_at`` computes those coefficients and the l1
norms of P^2 - P and P^* - P on plain complex numbers, with the float
operations, checks and prunes that element arithmetic would make.
``rank_trace`` reads the diagonal only: a diagonal transition is the
identity, whose phase is a constant, so it builds no point per grid point.

The pairing of such a projection with a degree one group cochain
recovers the winding of the transition cocycle by a discretized
Stokes sum over the base grid.  The circle pairing walks the integer grid
indices k = 0, ..., n - 1 and holds the partition at k - 1, k and k + 1
as six floats, so it runs in constant memory and builds nothing per k.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from numbers import Integral
from typing import Callable, Sequence

from .algebra import AlgebraElement, _pruned
from .cohomology import GroupCochain, inhomogeneous
from .errors import TwistlabError
from .groups import FreeAbelianGroup
from .multipliers import (
    GeometricMultiplier,
    LatticeGeometry,
    Multiplier,
    magnetic_multiplier,
    trivial_multiplier,
)
from .phases import as_rational, root


class CoverError(TwistlabError):
    pass


def _chi_pair(x: float) -> tuple[float, float]:
    """Partition square roots on the circle: (|cos pi x|, sin pi x)."""
    return abs(math.cos(math.pi * x)), abs(math.sin(math.pi * x))


def _lift_shift(patch: int, num: int, den: int) -> int:
    """Integer s with x mod 1 + s the lift of x = num / den (den > 0) through circle patch 0 or 1.

    Patch 0 charts (-1/2, 1/2] and patch 1 charts [0, 1), so s is -1 on
    patch 0 when x mod 1 > 1/2 and 0 otherwise; transition values are
    differences of lifts and jump by one unit across x = 1/2.
    """
    return -1 if patch == 0 and 2 * (num % den) > den else 0


def _distance(c: complex | None, ref: complex | None) -> float:
    """distance_l1 of c delta_g and ref delta_g, None standing for zero: the same float, bit for bit."""
    if ref is not None:
        c = _pruned((0.0 if c is None else c) + ref * complex(-1.0))
    return 0.0 if c is None else abs(c)


MAX_GRID_POINTS = 1 << 20  # a projection's grid is a list of n_grid^dim Fractions or pairs


def _check_grid(n_grid: int, dim: int = 1) -> None:
    if n_grid < 1:
        raise CoverError(f"a cover grid needs n_grid >= 1, got {n_grid}")
    if n_grid ** dim > MAX_GRID_POINTS:
        raise CoverError(f"n_grid = {n_grid} gives more than {MAX_GRID_POINTS} grid points")


class _Point:
    """A base point of a cover: its transitions, and the lifts for the phases.

    The transition g_ij is shifts[i] - shifts[j] for integer lift shifts;
    its phase is minus the gauge potential psi of g_ij at lifts[j], or zero
    without a potential.  A lift is a pair of integer ratios (a, b) for a / b,
    and psi(g, *lift) gives turns as an integer pair (n, d) for n / d.
    """

    __slots__ = ("transitions", "lifts", "psi")

    def __init__(self, shifts: list, lifts: list | None = None, psi: Callable | None = None):
        self.transitions = [[tuple(map(operator.sub, si, sj)) for sj in shifts] for si in shifts]
        self.lifts = lifts
        self.psi = psi

    def _phase_pair(self, i: int, j: int) -> tuple[int, int]:
        if self.psi is None:
            return 0, 1
        n, d = self.psi(self.transitions[i][j], *self.lifts[j])
        return -n, d

    def phase_value(self, i: int, j: int) -> complex:
        """The phase e^{2 pi i n / d} of the turns n / d, read by ``phases.root`` from the integer pair."""
        return root(*self._phase_pair(i, j))


class CircleCover:
    """Two patch cover of the circle with winding scaled transitions.

    The transition cocycle is w times the basic lift-difference cocycle,
    oriented so pairing against the coordinate cochain returns +w.
    """

    def __init__(self, winding: int = 1):
        if isinstance(winding, bool) or not isinstance(winding, Integral):
            raise CoverError(f"the winding must be an integer, not {winding!r}")
        self.winding = int(winding)
        self.group = FreeAbelianGroup(1)
        self.sigma: Multiplier = trivial_multiplier(self.group)
        self.n_patches = 2

    def chi(self, patch: int, x) -> float:
        return _chi_pair(float(x) % 1.0)[patch]

    def _point(self, x) -> _Point:
        """The point's lift shifts, times the winding."""
        ratio = as_rational(x).as_integer_ratio()
        return _Point([(self.winding * _lift_shift(p, *ratio),) for p in (0, 1)])

    def grid(self, n: int) -> list:
        return [Fraction(k, n) for k in range(n)]


class TorusCover:
    """Four patch product cover of the torus over a magnetic lattice.

    Patches are pairs of circle patches; transitions are lift differences
    in Z^2 and the off diagonal phases are minus the magnetic phase of
    the transition element at the rational lift, which closes the
    idempotent identity exactly against the geometric multiplier.
    Without offsets that multiplier is held in its magnetic normal form.
    ``lift_shifts`` moves each patch lift by a fixed lattice vector,
    which conjugates the projection without changing its invariants.
    """

    def __init__(self, geometry: LatticeGeometry,
                 lift_shifts: Sequence[tuple] | None = None):
        self.geometry = geometry
        self.group = FreeAbelianGroup(2)
        # psi_h(x0) + psi_g(h x0) - psi_gh(x0) is theta g1 h2 (landau) or
        # theta (g1 h2 - g2 h1) / 2 (symmetric) at every base point x0.
        self.sigma: Multiplier = (
            magnetic_multiplier(geometry.theta, geometry.gauge) if geometry.offsets is None
            else GeometricMultiplier(geometry)
        )
        self.patches = [(0, 0), (0, 1), (1, 0), (1, 1)]
        self.n_patches = 4
        if lift_shifts is None:
            lift_shifts = [(0, 0)] * 4
        if len(lift_shifts) != 4:
            raise CoverError("one lift shift per patch")
        self.lift_shifts = tuple(tuple(int(v) for v in s) for s in lift_shifts)

    def chi(self, patch: int, x) -> float:
        p = self.patches[patch]
        return _chi_pair(float(x[0]) % 1.0)[p[0]] * _chi_pair(float(x[1]) % 1.0)[p[1]]

    def _point(self, x) -> _Point:
        """Each patch's shift and lift: lift(patch, x) = x mod 1 + shift."""
        ratios = [(as_rational(v) % 1).as_integer_ratio() for v in x]
        shifts = [
            tuple(_lift_shift(p[c], *ratios[c]) + s[c] for c in (0, 1))
            for p, s in zip(self.patches, self.lift_shifts)
        ]
        lifts = [tuple((a + s * b, b) for (a, b), s in zip(ratios, shift)) for shift in shifts]
        return _Point(shifts, lifts, self.geometry._psi_pair)

    def grid(self, n: int) -> list:
        return [(Fraction(a, n), Fraction(b, n)) for a in range(n) for b in range(n)]


class Projection:
    """Matrix of algebra elements chi_i chi_j e^{2 pi i phase} delta_g."""

    def __init__(self, cover):
        self.cover = cover
        self.sigma = cover.sigma
        self.group = cover.group

    def _entries(self, x) -> tuple[list, list]:
        """(transitions, coefficients) at x: P_ij is coefficients[i][j] delta_g for g the
        transition g_ij, or zero where the coefficient is None."""
        cover = self.cover
        n = cover.n_patches
        chis = [cover.chi(i, x) for i in range(n)]
        point = cover._point(x)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                w = chis[i] * chis[j]
                row.append(None if w == 0.0 else _pruned(w * point.phase_value(i, j)))
            rows.append(row)
        return point.transitions, rows

    def matrix_at(self, x) -> list:
        transitions, coeffs = self._entries(x)
        element = AlgebraElement._from_dict
        return [[element(self.sigma, {} if c is None else {g: c}) for g, c in zip(grow, crow)]
                for grow, crow in zip(transitions, coeffs)]

    def defects_at(self, x) -> tuple[float, float]:
        """(idempotent, self adjointness) defects in the l1 coefficient norm.

        Every product P_ij P_jk sits at g_ij + g_jk = g_ik, and P_ji^* at
        -g_ji = g_ij, so each entry of P^2 and of P^* is one coefficient at
        the transition of P.  It is computed as element arithmetic computes
        it: the products summed in j order, checked and pruned after every
        product and every sum, and the l1 distance through the same (-1.0)
        product, check and prune as ``AlgebraElement.distance_l1``.
        """
        g, p = self._entries(x)
        value = functools.cache(self.sigma.value)
        worst_idem = 0.0
        worst_star = 0.0
        n = len(p)
        for i in range(n):
            for k in range(n):
                acc = None
                for j in range(n):
                    a, b = p[i][j], p[j][k]
                    if a is None or b is None:
                        continue
                    product = _pruned(0.0 + a * b * value(g[i][j], g[j][k]))
                    if product is not None:
                        acc = _pruned((0.0 if acc is None else acc) + product)
                worst_idem = max(worst_idem, _distance(acc, p[i][k]))
                c = p[k][i]
                if c is not None:
                    c = _pruned(c.conjugate() * value(g[k][i], g[i][k]).conjugate())
                worst_star = max(worst_star, _distance(c, p[i][k]))
        return worst_idem, worst_star

    def verify(self, n_grid: int = 32) -> dict:
        _check_grid(n_grid, self.group.rank)
        worst_idem = 0.0
        worst_star = 0.0
        count = 0
        for x in self.cover.grid(n_grid):
            idem, star = self.defects_at(x)
            worst_idem = max(worst_idem, idem)
            worst_star = max(worst_star, star)
            count += 1
        return {
            "points": count,
            "idempotent_defect": worst_idem,
            "selfadjoint_defect": worst_star,
        }

    def rank_trace(self, n_grid: int = 64) -> float:
        """Grid average of the fiberwise trace sum_i (P_ii)_e.

        A diagonal transition g_ii is the identity, so P_ii sits at e with the
        phase minus psi_e, a constant: it is read once per patch, at the first
        grid point, and a nonzero offset at the identity raises there.
        """
        _check_grid(n_grid, self.group.rank)
        cover = self.cover
        pts = cover.grid(n_grid)
        patches = range(cover.n_patches)
        point = cover._point(pts[0])
        phases = [point.phase_value(i, i).real for i in patches]
        total = 0.0
        for x in pts:
            for i in patches:
                chi = cover.chi(i, x)
                if chi == 0.0:
                    continue
                total += chi * chi * phases[i]
        return total / len(pts)


def circle_projection(winding: int = 1) -> Projection:
    return Projection(CircleCover(winding))


def torus_projection(geometry: LatticeGeometry,
                     lift_shifts: Sequence[tuple] | None = None) -> Projection:
    return Projection(TorusCover(geometry, lift_shifts))


def lott_pairing_circle(cover: CircleCover, cochain: GroupCochain | None = None,
                        n_grid: int = 1024) -> float:
    """Pairing of the circle projection with a degree one cochain.

    w_c = sum over the grid of chi_{i0}^2 d(chi_{i1}^2) cbar(g_{i1 i0})
    with centered differences over the points k / n; for the coordinate
    cochain this is the transition winding, normalized so winding one
    gives +1.
    """
    if cover.group != FreeAbelianGroup(1):
        raise CoverError(f"the circle pairing needs a cover over Z^1, not {cover.group!r}")
    if cochain is None:
        cochain = GroupCochain.coordinate_z(cover.group, 0)
    if cochain.degree != 1:
        raise CoverError("the circle pairing takes a degree one cochain")
    if n_grid < 3:
        raise CoverError(f"centered differences need n_grid >= 3, got {n_grid}")
    _check_grid(n_grid)
    cbar = inhomogeneous(cochain)
    n = n_grid
    # Patch 1 has shift 0, so g_{i1 i0} is (0,) on the diagonal and (+-s,) off it,
    # for patch 0's shift s; one cochain value per s.
    cbar_at = functools.cache(lambda s: cbar((s,)))
    # chi^2 of patches 0 and 1 at k - 1 (b0, b1), k (h0, h1) and k + 1 (a0, a1), mod n;
    # cos^2 and sin^2 are the squares of _chi_pair's |cos| and |sin|.
    t = math.pi * (-1 % n / n)
    b0, b1 = math.cos(t) ** 2, math.sin(t) ** 2
    h0, h1 = 1.0, 0.0  # cos(0)^2 and sin(0)^2
    total = 0.0
    for k in range(n):
        t = math.pi * ((k + 1) % n / n)
        a0, a1 = math.cos(t) ** 2, math.sin(t) ** 2
        d0, d1 = (a0 - b0) / 2.0, (a1 - b1) / 2.0
        s = cover.winding * _lift_shift(0, k, n)
        if h0:
            if d0 and (value := cbar_at(0)):
                total += h0 * d0 * value.real
            if d1 and (value := cbar_at(s)):
                total += h0 * d1 * value.real
        if h1:
            if d0 and (value := cbar_at(-s)):
                total += h1 * d0 * value.real
            if d1 and (value := cbar_at(0)):
                total += h1 * d1 * value.real
        b0, b1, h0, h1 = h0, h1, a0, a1
    return total
