"""Tests for cover-built projections and their cochain pairings."""

from fractions import Fraction

import pytest

from twistlab import FreeAbelianGroup
from twistlab.cohomology import GroupCochain, growth_fit
from twistlab.mishchenko import (
    CircleCover,
    CoverError,
    TorusCover,
    circle_projection,
    lott_pairing_circle,
    torus_projection,
)
from twistlab.multipliers import LatticeGeometry

GEOMETRY = LatticeGeometry("1/3")


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
            assert torus.transition(i, i, x) == (0, 0)
            for j in range(4):
                gij = torus.transition(i, j, x)
                gji = torus.transition(j, i, x)
                assert gij == (-gji[0], -gji[1])
                for k in range(4):
                    gjk = torus.transition(j, k, x)
                    gik = torus.transition(i, k, x)
                    assert (gij[0] + gjk[0], gij[1] + gjk[1]) == gik


def test_circle_transition_winding():
    cover = CircleCover(3)
    values = {cover.transition(0, 1, Fraction(k, 16))[0] for k in range(16)}
    assert values == {0, 3} or values == {0, -3}
    assert cover.transition(0, 1, 0.3) == (0,)


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
                assert cover.transition(i, j, x) == (winding * int(step),)
                assert cover.transition(i, j, float(x)) == (winding * int(step),)


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
            assert cover.lift(i, x) == lifts[i]
            for j in range(4):
                step = (lifts[i][0] - lifts[j][0], lifts[i][1] - lifts[j][1])
                assert all(v.denominator == 1 for v in step)
                assert cover.transition(i, j, x) == (int(step[0]), int(step[1]))
                assert cover.phase_turns(i, j, x) == -GEOMETRY.psi_turns(step, lifts[j])
