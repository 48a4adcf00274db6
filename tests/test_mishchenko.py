"""Tests for cover-built projections and their cochain pairings."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from twistlab import FreeAbelianGroup, mishchenko
from twistlab.algebra import AlgebraElement, AlgebraError
from twistlab.cohomology import GroupCochain, growth_fit, inhomogeneous
from twistlab.mishchenko import (
    CircleCover,
    CoverError,
    TorusCover,
    circle_projection,
    lott_pairing_circle,
    torus_projection,
)
from twistlab.multipliers import (
    BilinearMultiplier,
    GeometricMultiplier,
    LatticeGeometry,
    MultiplierError,
)
from twistlab.phases import Phase, as_rational

GEOMETRY = LatticeGeometry("1/3")


def transition(cover, i, j, x):
    """The transition g_ij at x, as a projection reads it."""
    return cover._point(x).transitions[i][j]


def lift(cover, patch, x):
    """The torus lift of x through a patch, as Fractions."""
    return tuple(Fraction(a, b) for a, b in cover._point(x).lifts[patch])


def phase_turns(cover, i, j, x):
    """The turns of the phase of P_ij at x."""
    return Fraction(*cover._point(x)._phase_pair(i, j))


def psi_turns(geometry, g, x):
    """psi_g(x) / (2 pi) at a rational point x, from the integer pair of LatticeGeometry."""
    return Fraction(*geometry._psi_pair(g, *(as_rational(v).as_integer_ratio() for v in x)))


def test_partition_of_unity_sums_to_one():
    cover = CircleCover(1)
    for x in [Fraction(k, 32) for k in range(32)]:
        assert sum(cover.chi(i, x) ** 2 for i in range(2)) == pytest.approx(1.0, abs=1e-14)
    torus = TorusCover(GEOMETRY)
    for x in torus.grid(8):
        assert sum(torus.chi(i, x) ** 2 for i in range(4)) == pytest.approx(1.0, abs=1e-14)


def test_transitions_form_an_additive_cocycle():
    torus = TorusCover(GEOMETRY, lift_shifts=[(1, 0), (0, 1), (2, 3), (0, 0)])
    for x in torus.grid(5):
        for i in range(4):
            assert transition(torus, i, i, x) == (0, 0)
            for j in range(4):
                gij = transition(torus, i, j, x)
                gji = transition(torus, j, i, x)
                assert gij == (-gji[0], -gji[1])
                for k in range(4):
                    gjk = transition(torus, j, k, x)
                    gik = transition(torus, i, k, x)
                    assert (gij[0] + gjk[0], gij[1] + gjk[1]) == gik


def test_circle_transition_winding():
    cover = CircleCover(3)
    values = {transition(cover, 0, 1, Fraction(k, 16))[0] for k in range(16)}
    assert values == {0, 3} or values == {0, -3}
    with pytest.raises(TypeError):
        transition(cover, 0, 1, 0.3)


def test_circle_projection_identities_are_exact():
    report = circle_projection(2).verify(n_grid=16)
    assert report["idempotent_defect"] == 0.0
    assert report["selfadjoint_defect"] == 0.0
    assert circle_projection(2).rank_trace(64) == pytest.approx(1.0, abs=1e-13)


def test_torus_projection_identities_are_exact():
    proj = torus_projection(GEOMETRY)
    report = proj.verify(n_grid=8)
    assert report["points"] == 64
    assert report["idempotent_defect"] == 0.0
    assert report["selfadjoint_defect"] == 0.0
    assert proj.rank_trace(16) == pytest.approx(1.0, abs=1e-13)


def test_lift_shifts_leave_invariants_unchanged():
    shifted = torus_projection(GEOMETRY, lift_shifts=[(1, 0), (0, 1), (2, 3), (0, 0)])
    report = shifted.verify(n_grid=8)
    assert report["idempotent_defect"] == 0.0
    assert report["selfadjoint_defect"] == 0.0
    assert shifted.rank_trace(16) == pytest.approx(1.0, abs=1e-13)


def test_torus_cover_validates_lift_shifts():
    with pytest.raises(CoverError):
        TorusCover(GEOMETRY, lift_shifts=[(0, 0)])


@pytest.mark.parametrize("winding", [1, 2, 3])
def test_pairing_recovers_winding(winding):
    value = lott_pairing_circle(CircleCover(winding), n_grid=1024)
    assert abs(value - winding) <= 1e-3


def test_pairing_default_cochain_is_the_coordinate():
    cover = CircleCover(3)
    coord = GroupCochain.coordinate_z(FreeAbelianGroup(1), 0)
    assert lott_pairing_circle(cover, n_grid=256) == \
        lott_pairing_circle(cover, cochain=coord, n_grid=256)


def test_grids_past_the_bound_are_refused():
    past = mishchenko.MAX_GRID_POINTS + 1
    circle, torus = circle_projection(1), torus_projection(GEOMETRY)
    calls = [lambda: lott_pairing_circle(CircleCover(1), n_grid=past),
             lambda: circle.verify(past), lambda: circle.rank_trace(past),
             lambda: torus.verify(1025), lambda: torus.rank_trace(1025)]
    for call in calls:
        with pytest.raises(CoverError, match="more than 1048576 grid points"):
            call()


def test_pairing_rejects_wrong_degree():
    area_like = GroupCochain(FreeAbelianGroup(1), 0, lambda g: 1.0)
    with pytest.raises(CoverError):
        lott_pairing_circle(CircleCover(1), cochain=area_like)


def test_pairing_converges_at_second_order():
    grids = [64, 128, 256, 512]
    errors = [abs(lott_pairing_circle(CircleCover(1), n_grid=n) - 1.0) for n in grids]
    slope = growth_fit([float(n) for n in grids], errors)
    assert slope == pytest.approx(-2.0, abs=0.01)


def fraction_lift(patch: int, x: Fraction) -> Fraction:
    """Lift of x mod 1 through circle patch 0 or 1, in Fraction arithmetic (the reference)."""
    x = x % 1
    if patch == 0:
        return x if x <= Fraction(1, 2) else x - 1
    return x


@pytest.mark.parametrize("n_grid", [3, 7, 48, 1024])
@pytest.mark.parametrize("winding", [1, 2, 3])
def test_circle_transitions_are_fraction_lift_differences(n_grid, winding):
    cover = CircleCover(winding)
    points = cover.grid(n_grid) + [Fraction(-1, 3), Fraction(5, 2), Fraction(7, 4)]
    for x in points:
        for i in range(2):
            for j in range(2):
                step = fraction_lift(i, x) - fraction_lift(j, x)
                assert step.denominator == 1
                assert transition(cover, i, j, x) == (winding * int(step),)
                with pytest.raises(TypeError):
                    transition(cover, i, j, float(x))


@pytest.mark.parametrize("n_grid", [3, 7, 48])
def test_torus_transitions_and_lifts_match_fraction_lifts(n_grid):
    shifts = [(1, 0), (0, 1), (2, 3), (-4, 0)]
    cover = TorusCover(GEOMETRY, lift_shifts=shifts)
    points = cover.grid(n_grid) + [(Fraction(3, 2), Fraction(-2, 3))]
    for x in points:
        lifts = [
            tuple(fraction_lift(p[c], x[c]) + s[c] for c in (0, 1))
            for p, s in zip(cover.patches, shifts)
        ]
        for i in range(4):
            assert lift(cover, i, x) == lifts[i]
            for j in range(4):
                step = (lifts[i][0] - lifts[j][0], lifts[i][1] - lifts[j][1])
                assert all(v.denominator == 1 for v in step)
                assert transition(cover, i, j, x) == (int(step[0]), int(step[1]))
                assert phase_turns(cover, i, j, x) == -psi_turns(GEOMETRY, step, lifts[j])


def test_covers_build_one_point_per_base_point(monkeypatch):
    built = []

    class CountingPoint(mishchenko._Point):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(mishchenko, "_Point", CountingPoint)
    x = (Fraction(5, 7), Fraction(-1, 3))
    for projection, point in ((circle_projection(2), x[0]), (torus_projection(GEOMETRY), x)):
        built.clear()
        for calls in (1, 2):
            projection.matrix_at(point)
            assert len(built) == calls
    # A point follows what it depends on, not only the argument.
    circle = CircleCover(2)
    circle.winding = 3
    assert transition(circle, 0, 1, x[0]) == (-3,)
    torus = TorusCover(GEOMETRY)
    torus.lift_shifts = ((1, 0), (0, 1), (2, 3), (-4, 0))
    assert lift(torus, 3, x) == (Fraction(5, 7) - 4, Fraction(2, 3))
    assert lift(torus, 3, (Fraction(5, 7) + 1, "-1/3")) == (Fraction(5, 7) - 4, Fraction(2, 3))


@pytest.mark.parametrize("make", [
    lambda: circle_projection(1),
    lambda: torus_projection(GEOMETRY),
])
@pytest.mark.parametrize("n_grid", [0, -3])
def test_projection_rejects_empty_grids(make, n_grid):
    proj = make()
    with pytest.raises(CoverError, match="n_grid >= 1"):
        proj.verify(n_grid=n_grid)
    with pytest.raises(CoverError, match="n_grid >= 1"):
        proj.rank_trace(n_grid)


def test_pairing_rejects_a_torus_cover():
    with pytest.raises(CoverError, match="Z\\^1"):
        lott_pairing_circle(torus_projection(GEOMETRY).cover, n_grid=16)


WINDOW = range(-3, 4)


@pytest.mark.parametrize("gauge", ["landau", "symmetric"])
@pytest.mark.parametrize("theta", ["1/3", "2/7", "-5/4"])
@pytest.mark.parametrize("base_point", [(0, 0), ("1/2", "-3/5"), (7, "2/3")])
def test_torus_cover_convolves_over_the_magnetic_normal_form(gauge, theta, base_point):
    geometry = LatticeGeometry(theta, gauge, base_point)
    sigma = TorusCover(geometry).sigma
    lazy = GeometricMultiplier(geometry)
    assert isinstance(sigma, BilinearMultiplier)
    for g in itertools.product(WINDOW, WINDOW):
        for h in itertools.product(WINDOW, WINDOW):
            assert sigma.turns(g, h) == lazy.turns(g, h)
            assert sigma.value(g, h) == lazy.value(g, h)


def test_torus_cover_with_offsets_keeps_the_geometric_multiplier():
    geometry = LatticeGeometry("1/3", offsets=lambda g: Fraction(g[0] * g[1], 5))
    sigma = TorusCover(geometry).sigma
    assert isinstance(sigma, GeometricMultiplier)
    assert sigma.geometry is geometry


# The construction as it was before covers kept per-point data: lifts in
# Fraction arithmetic for every (i, j) pair, phases through Phase, the torus
# over the lazy geometric multiplier.  New results must equal it bitwise.

def reference_sigma(cover):
    if isinstance(cover, CircleCover):
        return cover.sigma
    return GeometricMultiplier(cover.geometry)


def reference_lifts(cover, x):
    if isinstance(cover, CircleCover):
        return [(cover.winding * fraction_lift(p, x),) for p in (0, 1)]
    return [
        tuple(fraction_lift(p[c], x[c]) + s[c] for c in (0, 1))
        for p, s in zip(cover.patches, cover.lift_shifts)
    ]


def reference_transition(cover, i, j, x):
    lifts = reference_lifts(cover, x)
    return tuple(int(a - b) for a, b in zip(lifts[i], lifts[j]))


def reference_phase_turns(cover, i, j, x):
    if isinstance(cover, CircleCover):
        return Fraction(0)
    g = reference_transition(cover, i, j, x)
    return -psi_turns(cover.geometry, g, reference_lifts(cover, x)[j])


def reference_matrix_at(cover, sigma, x):
    n = cover.n_patches
    chis = [cover.chi(i, x) for i in range(n)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            w = chis[i] * chis[j]
            if w == 0.0:
                row.append(AlgebraElement(sigma, []))
                continue
            g = reference_transition(cover, i, j, x)
            phase = Phase(reference_phase_turns(cover, i, j, x)).value
            row.append(AlgebraElement(sigma, [(g, w * phase)]))
        rows.append(row)
    return rows


def reference_mat_mul(sigma, a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for k in range(n):
            acc = AlgebraElement(sigma, [])
            for j in range(n):
                acc = acc + a[i][j].convolve(b[j][k])
            row.append(acc)
        out.append(row)
    return out


def reference_defects_at(cover, sigma, x):
    p = reference_matrix_at(cover, sigma, x)
    p2 = reference_mat_mul(sigma, p, p)
    n = len(p)
    ps = [[p[j][i].star() for j in range(n)] for i in range(n)]
    worst_idem = 0.0
    worst_star = 0.0
    for i in range(n):
        for j in range(n):
            worst_idem = max(worst_idem, (p2[i][j] - p[i][j]).norm_l1())
            worst_star = max(worst_star, (ps[i][j] - p[i][j]).norm_l1())
    return worst_idem, worst_star


def reference_verify(cover, n_grid):
    sigma = reference_sigma(cover)
    worst_idem = 0.0
    worst_star = 0.0
    count = 0
    for x in cover.grid(n_grid):
        idem, star = reference_defects_at(cover, sigma, x)
        worst_idem = max(worst_idem, idem)
        worst_star = max(worst_star, star)
        count += 1
    return {"points": count, "idempotent_defect": worst_idem, "selfadjoint_defect": worst_star}


def reference_rank_trace(cover, n_grid):
    total = 0.0
    pts = cover.grid(n_grid)
    e = cover.group.identity()
    for x in pts:
        for i in range(cover.n_patches):
            chi = cover.chi(i, x)
            if chi == 0.0:
                continue
            g = reference_transition(cover, i, i, x)
            if g == e:
                total += chi * chi * Phase(reference_phase_turns(cover, i, i, x)).value.real
    return total / len(pts)


def reference_pairing(cover, cochain, n_grid):
    cbar = inhomogeneous(cochain)
    xs = cover.grid(n_grid)
    n = len(xs)
    chi_sq = [[cover.chi(i, x) ** 2 for x in xs] for i in range(cover.n_patches)]
    total = 0.0
    for k, x in enumerate(xs):
        for i0 in range(cover.n_patches):
            w0 = chi_sq[i0][k]
            if w0 == 0.0:
                continue
            for i1 in range(cover.n_patches):
                diff = (chi_sq[i1][(k + 1) % n] - chi_sq[i1][(k - 1) % n]) / 2.0
                if diff == 0.0:
                    continue
                value = cbar(reference_transition(cover, i0, i1, x))
                if value:
                    total += w0 * diff * value.real
    return total


def same_float(a, b):
    return a.hex() == b.hex()


def same_matrix(a, b):
    """Entries with the same keys in the same order and the same coefficient bits."""
    def bits(element):
        return [(g, c.real.hex(), c.imag.hex()) for g, c in element.coeffs.items()]

    return len(a) == len(b) and all(
        len(row_a) == len(row_b) and all(bits(x) == bits(y) for x, y in zip(row_a, row_b))
        for row_a, row_b in zip(a, b)
    )


@pytest.mark.parametrize("n_grid", [3, 7, 1024, 8000])
@pytest.mark.parametrize("winding", [1, 2, 3])
def test_pairing_equals_the_reference_loop_bitwise(n_grid, winding):
    cover = CircleCover(winding)
    coord = GroupCochain(cover.group, 1, lambda g0, g1: float(g1[0] - g0[0]))
    assert same_float(lott_pairing_circle(cover, n_grid=n_grid),
                      reference_pairing(cover, coord, n_grid))


def fraction_grid_pairing(cover, n_grid):
    """The circle pairing as a loop over a Fraction grid, with n-long chi^2 lists
    and transitions from Fraction lifts (the reference for the integer walk)."""
    cbar = inhomogeneous(GroupCochain.coordinate_z(cover.group, 0))
    xs = [Fraction(k, n_grid) for k in range(n_grid)]
    n = len(xs)
    chi_sq = ([], [])
    for x in xs:
        c0, c1 = mishchenko._chi_pair(float(x) % 1.0)
        chi_sq[0].append(c0 ** 2)
        chi_sq[1].append(c1 ** 2)
    values = {}
    total = 0.0
    for k, x in enumerate(xs):
        diffs = [(row[(k + 1) % n] - row[(k - 1) % n]) / 2.0 for row in chi_sq]
        for i0 in range(2):
            w0 = chi_sq[i0][k]
            if w0 == 0.0:
                continue
            for i1 in range(2):
                diff = diffs[i1]
                if diff == 0.0:
                    continue
                step = fraction_lift(i0, x) - fraction_lift(i1, x)
                g = (cover.winding * int(step),)
                value = values.get(g)
                if value is None:
                    value = values[g] = cbar(g)
                if value:
                    total += w0 * diff * value.real
    return total


# Even grids put k = n / 2 on the chart boundary x = 1/2.
@pytest.mark.parametrize("n_grid", [3, 4, 7, 10, 1024])
@pytest.mark.parametrize("winding", [-3, 0, 1, 2])
def test_integer_grid_pairing_equals_the_fraction_grid_loop_bitwise(n_grid, winding):
    cover = CircleCover(winding)
    assert same_float(lott_pairing_circle(cover, n_grid=n_grid),
                      fraction_grid_pairing(cover, n_grid))


@pytest.mark.parametrize("winding", [2.7, 2.0, True, False, "3", Fraction(2), None])
def test_circle_cover_rejects_non_integer_windings(winding):
    with pytest.raises(CoverError, match="winding must be an integer"):
        CircleCover(winding)


def test_circle_cover_keeps_integer_windings():
    assert CircleCover(-3).winding == -3
    assert type(CircleCover(np.int64(2)).winding) is int


def test_pairing_with_a_custom_cochain_equals_the_reference_bitwise():
    calls = []

    def fn(g0, g1):
        calls.append(g1[0] - g0[0])
        d = g1[0] - g0[0]
        return complex(d ** 3 - 0.75 * d + 0.25, 0.5 * d)

    cover = CircleCover(2)
    cochain = GroupCochain(cover.group, 1, fn)
    want = reference_pairing(cover, cochain, 512)
    calls.clear()
    assert same_float(lott_pairing_circle(cover, cochain, n_grid=512), want)
    # One evaluation per distinct transition: 0 and +-2.
    assert sorted(calls) == [-2, 0, 2]


@pytest.mark.parametrize("n_grid", [3, 7, 16])
@pytest.mark.parametrize("winding", [1, 2, 3])
def test_circle_projection_equals_the_reference_bitwise(n_grid, winding):
    proj = circle_projection(winding)
    cover = proj.cover
    for x in cover.grid(n_grid):
        p = proj.matrix_at(x)
        assert same_matrix(p, reference_matrix_at(cover, cover.sigma, x))
        assert proj.defects_at(x) == reference_defects_at(cover, cover.sigma, x)
        for i in range(2):
            for j in range(2):
                assert phase_turns(cover, i, j, x) == reference_phase_turns(cover, i, j, x)
    assert proj.verify(n_grid) == reference_verify(cover, n_grid)
    assert same_float(proj.rank_trace(n_grid), reference_rank_trace(cover, n_grid))


TORUS_CASES = [
    (LatticeGeometry("1/3"), None),
    (LatticeGeometry("1/3"), [(1, 0), (0, 1), (2, 3), (-4, 0)]),
    (LatticeGeometry("2/7", "symmetric"), None),
    (LatticeGeometry("-5/4", "symmetric", ("1/2", "-3/5")), [(1, -1), (0, 2), (0, 0), (3, 1)]),
    (LatticeGeometry("1/3", offsets=lambda g: Fraction(g[0] * g[1], 5)), None),
]


@pytest.mark.parametrize("geometry, shifts", TORUS_CASES)
def test_torus_projection_equals_the_reference_bitwise(geometry, shifts):
    proj = torus_projection(geometry, shifts)
    cover = proj.cover
    lazy = reference_sigma(cover)
    for x in cover.grid(4):
        p = proj.matrix_at(x)
        ref = reference_matrix_at(cover, lazy, x)
        assert same_matrix(p, ref)
        # The normal form gives the defects of convolution over the lazy form.
        assert proj.defects_at(x) == reference_defects_at(cover, lazy, x)
    report = proj.verify(n_grid=5)
    assert report == reference_verify(cover, 5)
    assert report["idempotent_defect"] == 0.0 and report["selfadjoint_defect"] == 0.0
    assert same_float(proj.rank_trace(6), reference_rank_trace(cover, 6))


PROJECTIONS = [lambda: circle_projection(2)] + [
    lambda geometry=geometry, shifts=shifts: torus_projection(geometry, shifts)
    for geometry, shifts in TORUS_CASES
]


@pytest.mark.parametrize("make", PROJECTIONS)
@pytest.mark.parametrize("scale", [1.0, 3e-4, 1e-7, 1e-300])
def test_defects_of_a_perturbed_partition_equal_the_reference_bitwise(make, scale):
    # Unequal patch weights make P fail both laws, so entries have nonzero
    # defects; scaled down, products (at 3e-4), then all of P^2 (at 1e-7) and
    # all of P (at 1e-300) fall under the prune.
    proj = make()
    cover = proj.cover
    chi = cover.chi
    cover.chi = lambda i, x: chi(i, x) * scale * (1.0 + 0.013 * i)
    lazy = reference_sigma(cover)
    defects = []
    for x in cover.grid(5):
        got = proj.defects_at(x)
        assert got == reference_defects_at(cover, lazy, x)
        assert all(type(d) is float for d in got)
        defects += got
    assert (max(defects) > 0.0) == (scale != 1e-300)


@pytest.mark.parametrize("make", PROJECTIONS)
@pytest.mark.parametrize("weight", [1e200, 1e100])  # P itself, then only P^2, overflows
def test_a_non_finite_partition_raises_as_elements_do(make, weight):
    proj = make()
    cover = proj.cover
    cover.chi = lambda i, x: weight * (1.0 + 0.013 * i)
    x = cover.grid(3)[1]
    with pytest.raises(AlgebraError, match="coefficients must be finite"):
        reference_defects_at(cover, reference_sigma(cover), x)
    with pytest.raises(AlgebraError, match="coefficients must be finite"):
        proj.defects_at(x)


@pytest.mark.parametrize("geometry, shifts", TORUS_CASES)
def test_rank_trace_reads_one_point_and_equals_the_reference(geometry, shifts, monkeypatch):
    proj = torus_projection(geometry, shifts)
    cover = proj.cover
    want = reference_rank_trace(cover, 12)
    points = []
    point = cover._point
    monkeypatch.setattr(cover, "_point", lambda x: points.append(x) or point(x))
    assert same_float(proj.rank_trace(12), want)
    assert points == [cover.grid(12)[0]]


def test_rank_trace_raises_for_a_nonzero_offset_at_the_identity():
    geometry = LatticeGeometry("1/3", offsets=lambda g: Fraction(1, 5))
    with pytest.raises(MultiplierError, match="offset at the identity"):
        torus_projection(geometry).rank_trace(4)


@pytest.mark.parametrize("geometry, shifts", TORUS_CASES)
def test_phase_values_equal_the_phase_of_the_turns_bitwise(geometry, shifts):
    cover = TorusCover(geometry, shifts)
    points = cover.grid(7) + [(Fraction(3, 2), Fraction(-2, 3)), ("1/1000003", "-999/1024")]
    for x in points:
        point = cover._point(x)
        for i, j in itertools.product(range(4), repeat=2):
            want = Phase(Fraction(*point._phase_pair(i, j))).value
            got = point.phase_value(i, j)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
