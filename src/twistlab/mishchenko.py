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
A cover computes a point's shifts, and the torus its lifts, once per
point (``_point``, which keeps the last point it built); transitions and
phases at that point are read from them.  Without gauge offsets the torus
cover's geometric multiplier is the magnetic pairing exactly, as
rationals, so the torus projection convolves over that normal form and
its integer kernel.

The pairing of such a projection with a degree one group cochain
recovers the winding of the transition cocycle by a discretized
Stokes sum over the base grid.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Sequence

from .algebra import AlgebraElement
from .cohomology import GroupCochain, inhomogeneous
from .groups import FreeAbelianGroup
from .multipliers import (
    GeometricMultiplier,
    LatticeGeometry,
    Multiplier,
    magnetic_multiplier,
    trivial_multiplier,
)
from .phases import Phase, as_rational


class CoverError(Exception):
    pass


def _chi_pair(x: float) -> tuple[float, float]:
    """Partition square roots on the circle: (|cos pi x|, sin pi x)."""
    return abs(math.cos(math.pi * x)), abs(math.sin(math.pi * x))


def _lift_shift(patch: int, x: Fraction) -> int:
    """Integer s with x mod 1 + s the lift through circle patch 0 or 1.

    Patch 0 charts (-1/2, 1/2] and patch 1 charts [0, 1), so s is -1 on
    patch 0 when x mod 1 > 1/2 and 0 otherwise; transition values are
    differences of lifts and jump by one unit across x = 1/2.
    """
    return -1 if patch == 0 and 2 * (x.numerator % x.denominator) > x.denominator else 0


def _check_grid(n_grid: int) -> None:
    if n_grid < 1:
        raise CoverError(f"a cover grid needs n_grid >= 1, got {n_grid}")


class _Point:
    """A base point of a cover: its transitions, and the lifts for the phases.

    The transition g_ij is shifts[i] - shifts[j] for integer lift shifts;
    its phase is minus the gauge potential psi of g_ij at lifts[j], or zero
    without a potential.
    """

    __slots__ = ("transitions", "lifts", "psi")

    def __init__(self, shifts: list, lifts: list | None = None,
                 psi: Callable | None = None):
        self.transitions = [[tuple(map(operator.sub, si, sj)) for sj in shifts] for si in shifts]
        self.lifts = lifts
        self.psi = psi

    def phase_turns(self, i: int, j: int) -> Fraction:
        if self.psi is None:
            return Fraction(0)
        return -self.psi(self.transitions[i][j], self.lifts[j])


class CircleCover:
    """Two patch cover of the circle with winding scaled transitions.

    The transition cocycle is w times the basic lift-difference cocycle,
    oriented so pairing against the coordinate cochain returns +w.
    """

    def __init__(self, winding: int = 1):
        self.winding = int(winding)
        self.group = FreeAbelianGroup(1)
        self.sigma: Multiplier = trivial_multiplier(self.group)
        self.n_patches = 2
        self._last: tuple | None = None  # (key, point) of the last _point call

    def chi(self, patch: int, x) -> float:
        value = _chi_pair(float(x) % 1.0)
        return value[patch]

    def _point(self, x) -> _Point:
        """The point's lift shifts, times the winding."""
        x = Fraction(x).limit_denominator(10 ** 9) if isinstance(x, float) else as_rational(x)
        key = (x.numerator, x.denominator, self.winding)
        if self._last is None or self._last[0] != key:
            self._last = (key, _Point([(self.winding * _lift_shift(p, x),) for p in (0, 1)]))
        return self._last[1]

    def transition(self, i: int, j: int, x) -> tuple:
        return self._point(x).transitions[i][j]

    def phase_turns(self, i: int, j: int, x) -> Fraction:
        return self._point(x).phase_turns(i, j)

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
        # A tuple, so the point memo, keyed on it, cannot go stale.
        self.lift_shifts = tuple(tuple(int(v) for v in s) for s in lift_shifts)
        self._last: tuple | None = None  # (key, point) of the last _point call

    def chi(self, patch: int, x) -> float:
        p = self.patches[patch]
        return self.chi1(p[0], x[0]) * self.chi1(p[1], x[1])

    @staticmethod
    def chi1(circle_patch: int, coord) -> float:
        return _chi_pair(float(coord) % 1.0)[circle_patch]

    def _point(self, x) -> _Point:
        """Each patch's shift and lift: lift(patch, x) = x mod 1 + shift."""
        frac = tuple(as_rational(v) % 1 for v in x)
        key = (frac, self.lift_shifts)
        if self._last is None or self._last[0] != key:
            shifts = [
                tuple(_lift_shift(p[c], frac[c]) + s[c] for c in (0, 1))
                for p, s in zip(self.patches, self.lift_shifts)
            ]
            lifts = [(frac[0] + s[0], frac[1] + s[1]) for s in shifts]
            self._last = (key, _Point(shifts, lifts, self.geometry.psi_turns))
        return self._last[1]

    def lift(self, patch: int, x) -> tuple:
        return self._point(x).lifts[patch]

    def transition(self, i: int, j: int, x) -> tuple:
        return self._point(x).transitions[i][j]

    def phase_turns(self, i: int, j: int, x) -> Fraction:
        return self._point(x).phase_turns(i, j)

    def grid(self, n: int) -> list:
        return [
            (Fraction(a, n), Fraction(b, n)) for a in range(n) for b in range(n)
        ]


class Projection:
    """Matrix of algebra elements chi_i chi_j e^{2 pi i phase} delta_g."""

    def __init__(self, cover):
        self.cover = cover
        self.sigma = cover.sigma
        self.group = cover.group

    def matrix_at(self, x) -> list:
        cover = self.cover
        n = cover.n_patches
        chis = [cover.chi(i, x) for i in range(n)]
        point = cover._point(x)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                w = chis[i] * chis[j]
                if w == 0.0:
                    row.append(AlgebraElement(self.sigma, []))
                    continue
                g = point.transitions[i][j]
                phase = Phase(point.phase_turns(i, j)).value
                row.append(AlgebraElement(self.sigma, [(g, w * phase)]))
            rows.append(row)
        return rows

    def _mat_mul(self, a: list, b: list) -> list:
        n = len(a)
        out = []
        for i in range(n):
            row = []
            for k in range(n):
                acc = AlgebraElement(self.sigma, [])
                for j in range(n):
                    acc = acc + a[i][j].convolve(b[j][k])
                row.append(acc)
            out.append(row)
        return out

    def _mat_star(self, a: list) -> list:
        n = len(a)
        return [[a[j][i].star() for j in range(n)] for i in range(n)]

    def defects_at(self, x) -> tuple[float, float]:
        """(idempotent, self adjointness) defects in the l1 coefficient norm."""
        p = self.matrix_at(x)
        p2 = self._mat_mul(p, p)
        ps = self._mat_star(p)
        worst_idem = 0.0
        worst_star = 0.0
        n = len(p)
        for i in range(n):
            for j in range(n):
                worst_idem = max(worst_idem, (p2[i][j] - p[i][j]).norm_l1())
                worst_star = max(worst_star, (ps[i][j] - p[i][j]).norm_l1())
        return worst_idem, worst_star

    def verify(self, n_grid: int = 32) -> dict:
        _check_grid(n_grid)
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
        """Grid average of the fiberwise trace sum_i (P_ii)_e."""
        _check_grid(n_grid)
        total = 0.0
        pts = self.cover.grid(n_grid)
        e = self.group.identity()
        for x in pts:
            point = self.cover._point(x)
            for i in range(self.cover.n_patches):
                chi = self.cover.chi(i, x)
                if chi == 0.0:
                    continue
                if point.transitions[i][i] == e:
                    total += chi * chi * Phase(point.phase_turns(i, i)).value.real
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
    with centered differences; for the coordinate cochain this is the
    transition winding, normalized so winding one gives +1.
    """
    if cover.group != FreeAbelianGroup(1):
        raise CoverError(f"the circle pairing needs a cover over Z^1, not {cover.group!r}")
    if cochain is None:
        cochain = GroupCochain.coordinate_z(cover.group, 0)
    if cochain.degree != 1:
        raise CoverError("the circle pairing takes a degree one cochain")
    if n_grid < 3:
        raise CoverError(f"centered differences need n_grid >= 3, got {n_grid}")
    cbar = inhomogeneous(cochain)
    xs = cover.grid(n_grid)
    n = len(xs)
    patches = range(cover.n_patches)
    chi_sq = ([], [])  # one _chi_pair per point serves both patches
    for x in xs:
        c0, c1 = _chi_pair(float(x) % 1.0)
        chi_sq[0].append(c0 ** 2)
        chi_sq[1].append(c1 ** 2)
    # Transitions take few values (0 and +-winding): one cochain value each.
    values: dict = {}
    total = 0.0
    for k, x in enumerate(xs):
        point = cover._point(x)
        diffs = [(row[(k + 1) % n] - row[(k - 1) % n]) / 2.0 for row in chi_sq]
        for i0 in patches:
            w0 = chi_sq[i0][k]
            if w0 == 0.0:
                continue
            for i1 in patches:
                diff = diffs[i1]
                if diff == 0.0:
                    continue
                g = point.transitions[i0][i1]
                value = values.get(g)
                if value is None:
                    value = values[g] = cbar(g)
                if value:
                    total += w0 * diff * value.real
    return total
