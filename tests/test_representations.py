import cmath
import io
import itertools
import math
import os
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from twistlab import (
    AlgebraElement,
    BilinearMultiplier,
    BlochMap,
    FreeAbelianGroup,
    GeometricMultiplier,
    GroupError,
    LatticeGeometry,
    MultiplierError,
    PhaseMap,
    ProductGroup,
    ProductMultiplier,
    SpectralError,
    butterfly_csv,
    butterfly_rows,
    coboundary,
    eta_operator,
    harper_element,
    left_regular,
    magnetic_multiplier,
    moment_match_study,
    random_element,
    reduced_fractions,
    spectrum_union,
    symmetric_group,
    trivial_multiplier,
)
from twistlab import cli, representations
from twistlab.representations import algebraic_moment

THETAS = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]


def closed_walk_moment(theta, n=4):
    """Sum of Landau phase products over length-n closed walks from the origin."""
    sigma = magnetic_multiplier(theta)
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    total = 0.0
    for walk in itertools.product(steps, repeat=n):
        if any(sum(s[i] for s in walk) for i in (0, 1)):
            continue
        pos = walk[0]
        phase = 1.0 + 0.0j
        for step in walk[1:]:
            phase *= sigma.value(pos, step)
            pos = (pos[0] + step[0], pos[1] + step[1])
        total += phase.real
    return total


def test_harper_element_is_self_adjoint():
    h = harper_element(magnetic_multiplier(Fraction(1, 3)))
    assert (h.star() - h).norm_l1() == 0.0
    assert len(h.support()) == 4


def test_bloch_fibers_satisfy_the_projective_relation():
    sigma = magnetic_multiplier(Fraction(2, 5))
    bloch = BlochMap(sigma)
    rng = random.Random(13)
    for _ in range(25):
        g = sigma.group.random_element(rng)
        h = sigma.group.random_element(rng)
        k1, k2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        lhs = bloch.rep_matrix(g, k1, k2) @ bloch.rep_matrix(h, k1, k2)
        rhs = sigma.value(g, h) * bloch.rep_matrix(
            sigma.group.multiply(g, h), k1, k2
        )
        assert np.abs(lhs - rhs).max() < 1e-12


def test_bloch_fibers_are_unitary():
    bloch = BlochMap(magnetic_multiplier(Fraction(1, 3)))
    rng = random.Random(14)
    for _ in range(10):
        g = (rng.randint(-3, 3), rng.randint(-3, 3))
        m = bloch.rep_matrix(g, 0.3, 1.1)
        assert np.abs(m @ m.conj().T - np.eye(bloch.q)).max() < 1e-12
        scalar = bloch.phase_correction(g) * cmath.exp(1j * (0.3 * g[0] + 1.1 * g[1]))
        assert np.array_equal(_bits(m), _bits(_dense_clock_shift(bloch, g, scalar)))


def _fiber(bloch, a, k1, k2):
    """The fiber of a at (k1, k2) as the sum of its terms' dense T_k(g)."""
    return sum(c * bloch.rep_matrix(g, k1, k2) for g, c in a.coeffs.items())


def test_fiber_stack_matches_single_fibers():
    sigma = magnetic_multiplier(Fraction(1, 3))
    h = harper_element(sigma)
    bloch = BlochMap(sigma)
    ks = bloch.grid(4)
    stack = bloch.fiber_stack(h, ks, ks)
    for i, k1 in enumerate(ks):
        for j, k2 in enumerate(ks):
            assert np.abs(stack[i * 4 + j] - _fiber(bloch, h, k1, k2)).max() < 1e-12


def test_spectrum_at_zero_flux_fills_the_free_band():
    h = harper_element(magnetic_multiplier(0))
    spec = spectrum_union(h, kgrid=32)
    assert abs(spec.bands[0][0] + 4.0) < 1e-6
    assert abs(spec.bands[-1][1] - 4.0) < 1e-6
    assert spec.q == 1


def test_spectrum_at_half_flux_has_sqrt8_edges():
    h = harper_element(magnetic_multiplier(Fraction(1, 2)))
    spec = spectrum_union(h, kgrid=32)
    edge = 2.0 * math.sqrt(2.0)
    assert abs(spec.bands[0][0] + edge) < 1e-6
    assert abs(spec.bands[-1][1] - edge) < 1e-6
    assert spec.distinct_band_count() == 2


@pytest.mark.parametrize("q", [3, 5, 7, 8])
def test_band_count_equals_denominator(q):
    h = harper_element(magnetic_multiplier(Fraction(1, q)))
    spec = spectrum_union(h, kgrid=16)
    assert spec.q == q
    assert spec.distinct_band_count() == q


def test_fourth_moment_matches_closed_walk_enumeration():
    for theta in THETAS:
        h = harper_element(magnetic_multiplier(theta))
        value = algebraic_moment(h, 4)
        assert abs(value.imag) < 1e-12
        assert abs(value.real - closed_walk_moment(theta)) < 1e-10


def test_fourth_moment_frozen_values():
    def moment(theta):
        return algebraic_moment(harper_element(magnetic_multiplier(theta)), 4).real

    assert abs(moment(Fraction(0)) - 36.0) < 1e-12
    assert abs(moment(Fraction(1, 2)) - 20.0) < 1e-12
    assert abs(moment(Fraction(1, 4)) - 28.0) < 1e-12
    # 28 + 8 cos(2 pi theta) across the board
    for theta in THETAS:
        assert abs(moment(theta) - (28 + 8 * math.cos(2 * math.pi * theta))) < 1e-9


def test_grid_moment_agrees_with_algebraic_moment():
    h = harper_element(magnetic_multiplier(Fraction(1, 3)))
    for n in (2, 4, 6):
        alg = algebraic_moment(h, n)
        grid = float((BlochMap(h.sigma).eigenvalues(h, 16) ** n).mean())
        assert abs(alg.real - grid) < 1e-10


def test_moment_match_study_converges_fast():
    h = harper_element(magnetic_multiplier(Fraction(1, 3)))
    study = moment_match_study(h, n_max=8, grids=(16, 32, 64))
    assert study.min_order() >= 1.8


def product_moments(a, n_max):
    """The coefficients at e of unit, unit * a, unit * a * a, ... up to n_max factors a:
    the reference moments, each power made as a product of n convolutions."""
    power, out = AlgebraElement.unit(a.sigma), []
    for _ in range(n_max + 1):
        out.append(power.coefficient(a.group.identity()))
        power = power * a
    return out


S4_TWISTED = coboundary(PhaseMap.random_exact(symmetric_group(4), random.Random(41), denominator=35))
MOMENT_SIGMAS = {
    "landau": magnetic_multiplier("1/3", "landau"),
    "symmetric": magnetic_multiplier("2/7", "symmetric"),
    "z3-bilinear": BilinearMultiplier(FreeAbelianGroup(3), [
        [0, Fraction(1, 5), Fraction(2, 7)], [Fraction(-3, 4), 0, Fraction(1, 3)], [0, Fraction(5, 6), 0]]),
    "s4-table": S4_TWISTED.power(Fraction(7, 11)),
    "geometric": GeometricMultiplier(LatticeGeometry("2/5", "symmetric", ("1/3", "-1/2"))),
    "zxs3": ProductMultiplier(ProductGroup(FreeAbelianGroup(1), symmetric_group(3)),
                              BilinearMultiplier(FreeAbelianGroup(1), [[Fraction(3, 4)]]),
                              coboundary(PhaseMap.random_exact(symmetric_group(3), random.Random(42)))),
}


def test_the_moment_cases_cover_a_twisted_table_and_a_lazy_form():
    assert MOMENT_SIGMAS["s4-table"].turn_table is not None
    assert len({t % 1 for row in MOMENT_SIGMAS["s4-table"].turn_table for t in row}) > 2
    assert MOMENT_SIGMAS["geometric"]._denominator is None
    assert MOMENT_SIGMAS["zxs3"].kind == "product"


@pytest.mark.parametrize("key", sorted(MOMENT_SIGMAS))
def test_moments_from_half_powers_match_the_full_product(key):
    sigma = MOMENT_SIGMAS[key]
    rng = random.Random(2032)
    for _ in range(2):
        b = random_element(sigma, rng, n_terms=4, spread=2)
        a = b + 0.5 * b.star() + random_element(sigma, rng, n_terms=2, spread=2)  # b b* gives closed walks
        assert algebraic_moment(a, 0) == 1 + 0j
        for n, ref in enumerate(product_moments(a, 12)):
            assert abs(algebraic_moment(a, n) - ref) <= 1e-12 * max(1.0, abs(ref)), (n, ref)


@pytest.mark.parametrize("n", range(13))
def test_a_moment_takes_at_most_half_as_many_convolutions(monkeypatch, n):
    calls = []
    convolve = AlgebraElement.convolve

    def counted(self, other):
        calls.append(other)
        return convolve(self, other)

    monkeypatch.setattr(AlgebraElement, "convolve", counted)
    algebraic_moment(harper_element(magnetic_multiplier("1/3")), n)
    assert len(calls) <= (n + 1) // 2


@pytest.mark.parametrize("n_max", range(1, 10))
def test_a_moment_study_makes_each_half_power_once(monkeypatch, n_max):
    h = harper_element(magnetic_multiplier("1/4"))
    grids = (8, 16)
    eigs = {n: BlochMap(h.sigma).eigenvalues(h, n) for n in grids}
    # Each moment, bit for bit as algebraic_moment gives it, in the study's error formula.
    want = {n: [abs(float((eigs[g] ** n).mean()) - algebraic_moment(h, n).real) for g in grids]
            for n in range(1, n_max + 1)}
    calls = []
    convolve = AlgebraElement.convolve

    def counted(self, other):
        calls.append(other)
        return convolve(self, other)

    monkeypatch.setattr(AlgebraElement, "convolve", counted)
    study = moment_match_study(h, n_max=n_max, grids=grids)
    assert len(calls) == (n_max + 1) // 2  # verify's n_max 6 takes 3
    assert all(other is h for other in calls)
    assert study.errors == want


@pytest.mark.parametrize("call", [
    lambda h: algebraic_moment(h, -3),
    lambda h: algebraic_moment(h, 4.0),
    lambda h: algebraic_moment(h, True),
    lambda h: moment_match_study(h, n_max=0),
    lambda h: moment_match_study(h, n_max=2.0),
    lambda h: moment_match_study(h, grids=()),
], ids=["negative-n", "float-n", "bool-n", "zero-n-max", "float-n-max", "no-grids"])
def test_bad_moment_inputs_raise_spectral_error(call):
    with pytest.raises(SpectralError):
        call(harper_element(magnetic_multiplier("1/3")))


def test_left_regular_matrix_entries():
    sigma = magnetic_multiplier(Fraction(1, 3))
    a = AlgebraElement.delta(sigma, (1, 0), 2.0)
    op = left_regular(a, radius=2)
    x = (0, 1)
    gx = (1, 1)
    entry = op.matrix[op.index[gx], op.index[x]]
    assert abs(entry - 2.0 * sigma.value((1, 0), x)) < 1e-15
    identity_column = left_regular(a, radius=2).matrix[:, op.index[(0, 0)]]
    support = [op.basis[i] for i in np.nonzero(np.abs(identity_column) > 0)[0]]
    assert support == [(1, 0)]


def test_left_regular_refuses_a_negative_radius():
    harper = harper_element(magnetic_multiplier(Fraction(1, 3)))
    assert left_regular(harper, radius=0).matrix.shape == (1, 1)
    with pytest.raises(GroupError, match="radius >= 0"):
        left_regular(harper, radius=-1)


def test_butterfly_rows_format_and_determinism():
    rows1 = list(butterfly_rows(3, 4))
    rows2 = list(butterfly_rows(3, 4))
    assert rows1 == rows2
    assert rows1[0] == "theta_num,theta_den,k1,k2,band_index,eigenvalue"
    fracs = list(reduced_fractions(3))
    expected_rows = 1 + sum(16 * f.denominator for f in fracs)
    assert len(rows1) == expected_rows
    assert all(len(r.split(",")) == 6 for r in rows1[1:])


def _reference_butterfly_rows(qmax, kgrid, coefficients):
    """The row-by-row formatting loop that butterfly_rows replaced."""
    yield "theta_num,theta_den,k1,k2,band_index,eigenvalue"
    for theta in reduced_fractions(qmax):
        sigma = magnetic_multiplier(theta, "landau")
        h = harper_element(sigma, coefficients)
        bm = BlochMap(sigma)
        ks = bm.grid(kgrid)
        eigs = np.linalg.eigvalsh(bm.fiber_stack(h, ks, ks))
        idx = 0
        for i1 in range(kgrid):
            for i2 in range(kgrid):
                for b in range(bm.q):
                    val = eigs[idx, b]
                    yield (
                        f"{theta.numerator},{theta.denominator},"
                        f"{ks[i1]:.17g},{ks[i2]:.17g},{b},{val:.17g}"
                    )
                idx += 1


@pytest.mark.parametrize("qmax", [1, 5])
@pytest.mark.parametrize("kgrid", [1, 3, 8])
@pytest.mark.parametrize("coefficients", [(1.0, 1.0, 1.0, 1.0), (0.5, 0.5, 2.0, 2.0)])
def test_butterfly_rows_match_row_by_row_reference(qmax, kgrid, coefficients):
    rows = list(butterfly_rows(qmax, kgrid, coefficients))
    assert rows == list(_reference_butterfly_rows(qmax, kgrid, coefficients))


@pytest.mark.parametrize("entries", [None, 40, 1])
@pytest.mark.parametrize("qmax, kgrid, coefficients", [
    (1, 1, (1.0, 1.0, 1.0, 1.0)),
    (3, 4, (0.0, 0.0, 0.0, 0.0)),
    (4, 7, (0.5, 0.5, 2.0, 2.0)),
    (6, 3, (1e6, 1e6, 1e6, 1e6)),
    (2, 9, (1.0, 1.0, -3.5, -3.5)),
])
def test_butterfly_csv_is_the_reference_rows(monkeypatch, entries, qmax, kgrid, coefficients):
    # 40 entries: blocks split k1 rows wherever 40 // q^2 < kgrid.  1 entry:
    # blocks of a single fiber.
    if entries is not None:
        monkeypatch.setattr(representations, "_BLOCK_ENTRIES", entries)
    text = "".join(butterfly_csv(qmax, kgrid, coefficients))
    reference = list(_reference_butterfly_rows(qmax, kgrid, coefficients))
    assert text == "\n".join(reference) + "\n"
    assert list(butterfly_rows(qmax, kgrid, coefficients)) == reference


def test_percent_and_format_spec_give_the_same_digits():
    rng = np.random.default_rng(3)
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e17, -1e300]
    values += rng.standard_normal(500).tolist() + (rng.standard_normal(200) * 1e12).tolist()
    assert "".join(f"{v:.17g}," for v in values) == ("%.17g," * len(values)) % tuple(values)


@pytest.mark.parametrize("qmax, kgrid", [(0, 4), (-1, 4), (3, 0), (3, -2)])
def test_butterfly_sweeps_reject_empty_sizes_before_the_header(qmax, kgrid):
    for sweep in (butterfly_csv, butterfly_rows):
        with pytest.raises(SpectralError, match="qmax >= 1 and kgrid >= 1"):
            next(sweep(qmax, kgrid))


@pytest.mark.parametrize("qmax, kgrid, coefficients, named", [
    (3, 4096, (1.0,) * 4, "at most 1048576"),
    (3, 4, (1.0, 2.0, 1.0, 1.0), "c1 == c2 and c3 == c4"),
    (3, 4, (1.0, math.nan, 1.0, 1.0), "four finite coefficients"),
    (3, 4, (1.0, 1.0, 1.0), "four finite coefficients"),
])
def test_butterfly_csv_checks_its_arguments_at_the_call(monkeypatch, qmax, kgrid, coefficients, named):
    def no_fork():
        raise AssertionError("a refused sweep forks no helper")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(SpectralError, match=named):
        butterfly_csv(qmax, kgrid, coefficients)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the two-process schedule forks")


def test_cli_writes_one_chunk_per_bloch_block(monkeypatch, schedule, capsys):
    # One process, so every block is built here and counted.
    schedule(1)
    monkeypatch.setattr(representations, "_BLOCK_ENTRIES", 40)
    solved = []
    fiber_stack = BlochMap.fiber_stack
    monkeypatch.setattr(BlochMap, "fiber_stack",
                        lambda self, *args: solved.append(self.q) or fiber_stack(self, *args))
    written = []
    monkeypatch.setattr(cli, "emit", lambda payload, out: written.extend(payload))
    assert cli.main(["butterfly", "--qmax", "4", "--kgrid", "5"]) == 0
    assert capsys.readouterr().out == ""
    # 40 entries: the whole grid at q = 1, two k1 rows at q = 2, and parts of
    # a row at q = 3 (4 + 1 fibers) and q = 4 (2 + 2 + 1), for two fluxes each.
    assert solved == [1] + [2] * 3 + [3] * 20 + [4] * 30
    # The header comes with the first block's chunk.
    assert len(written) == len(solved)
    assert written[0].startswith("theta_num,theta_den,k1,k2,band_index,eigenvalue\n0,1,")
    assert all(chunk.endswith("\n") for chunk in written)
    assert "".join(written) == "\n".join(_reference_butterfly_rows(4, 5, (1.0,) * 4)) + "\n"


# The hopping sets of the benchmark's butterfly workloads.
HOPPINGS = ((1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 0.5, 0.5), (0.5, 0.5, 1.0, 1.0), (1.0, 1.0, 2.0, 2.0))


@needs_fork
@pytest.mark.parametrize("qmax, kgrid, coefficients", [
    (qmax, kgrid, HOPPINGS[i % len(HOPPINGS)])
    for i, (qmax, kgrid) in enumerate([*itertools.product((1, 4, 8), (1, 5, 16, 64)), (2, 7)])
])
def test_butterfly_chunks_do_not_depend_on_the_schedule(monkeypatch, schedule, qmax, kgrid,
                                                        coefficients):
    # 40 entries: many small blocks, one fiber each from q = 7 on.  The block
    # count is odd at qmax 1 for kgrid 1 and 5 (one block, so no helper
    # task) and at qmax 2, kgrid 7 (nine).  At qmax 8, kgrid 64 they would
    # give 72256 blocks and take about 15 s, so that case keeps the default
    # size: 206 blocks of up to 8192 rows, about 0.5 MB of text each, which
    # is more than a pipe holds by default.
    if (qmax, kgrid) != (8, 64):
        monkeypatch.setattr(representations, "_BLOCK_ENTRIES", 40)
    solved = []
    solve = BlochMap._solve
    monkeypatch.setattr(BlochMap, "_solve", lambda self, *args: solved.append(1) or solve(self, *args))
    schedules = []
    for cpus in (1, 2):
        schedule(cpus)
        solved.clear()
        schedules.append((list(butterfly_csv(qmax, kgrid, coefficients)), len(solved)))
    (one, blocks), (two, here) = schedules
    assert two == one
    assert len(one) == blocks
    # With two processes this one solves the even-numbered blocks only.
    assert here == (blocks + 1) // 2


@needs_fork
def test_a_process_builds_only_the_fluxes_it_solves(monkeypatch, schedule):
    # At qmax 12 and kgrid 8 each of the 46 fluxes is one block, so the
    # helper solves the odd fluxes and this process the even ones.
    fluxes = list(reduced_fractions(12))
    assert len(fluxes) == 46
    built = []
    init = BlochMap.__init__
    monkeypatch.setattr(BlochMap, "__init__",
                        lambda self, sigma: built.append(os.getpid()) or init(self, sigma))
    thetas = []
    plan = BlochMap._plan
    monkeypatch.setattr(BlochMap, "_plan", lambda self, a, n, only=None: (
        thetas.append(self.theta) or plan(self, a, n, only)))
    csvs = []
    for cpus in (1, 2):
        schedule(cpus)
        built.clear()
        thetas.clear()
        csvs.append("".join(butterfly_csv(12, 8, HOPPINGS[1])))
        # Only this process's calls are seen: the helper's go to its own memory.
        assert built == [os.getpid()] * len(thetas)
        assert thetas == (fluxes if cpus == 1 else fluxes[::2])
    assert csvs[1] == csvs[0]
    assert csvs[0] == "\n".join(_reference_butterfly_rows(12, 8, HOPPINGS[1])) + "\n"


@needs_fork
def test_the_butterfly_helper_runs_the_odd_blocks(monkeypatch, schedule):
    monkeypatch.setattr(representations, "_BLOCK_ENTRIES", 40)
    monkeypatch.setattr(representations, "_butterfly_chunk", lambda flux, block: f"{os.getpid()}\n")
    schedule(2)
    chunks = list(butterfly_csv(4, 5))
    header, first = chunks[0].split("\n", 1)
    assert header == "theta_num,theta_den,k1,k2,band_index,eigenvalue"
    pids = [int(chunk) for chunk in [first, *chunks[1:]]]
    assert len(pids) > 2
    assert [pid != os.getpid() for pid in pids] == [index % 2 == 1 for index in range(len(pids))]
    assert len(set(pids[1::2])) == 1


@needs_fork
@pytest.mark.parametrize("failing", [7, 12])  # a helper's block, then one of this process
def test_two_processes_fail_where_one_would(monkeypatch, schedule, failing):
    monkeypatch.setattr(representations, "_BLOCK_ENTRIES", 40)
    schedule(1)
    keys = []
    solve = BlochMap._solve
    monkeypatch.setattr(BlochMap, "_solve", lambda self, a, k1s, k2s, *args: (
        keys.append((self.theta, k1s[0], k2s[0])) or solve(self, a, k1s, k2s, *args)))
    list(butterfly_csv(4, 5))

    def failing_solve(self, a, k1s, k2s, *args):
        if (self.theta, k1s[0], k2s[0]) == keys[failing]:
            raise SpectralError(f"block {failing} is not Hermitian")
        return solve(self, a, k1s, k2s, *args)

    monkeypatch.setattr(BlochMap, "_solve", failing_solve)
    outcomes = []
    for cpus in (1, 2):
        schedule(cpus)
        chunks = []
        with pytest.raises(SpectralError) as info:
            for chunk in butterfly_csv(4, 5):
                chunks.append(chunk)
        outcomes.append((chunks, type(info.value), str(info.value)))
    assert outcomes[1] == outcomes[0]
    assert len(outcomes[0][0]) == failing
    assert outcomes[0][2] == f"block {failing} is not Hermitian"


@needs_fork
def test_two_processes_leave_no_child_behind(monkeypatch, schedule):
    schedule(2)
    monkeypatch.setattr(representations, "_BLOCK_ENTRIES", 40)
    chunks = butterfly_csv(4, 5)
    # Blocks 0 (with the header), 1 and 2; block 1 comes from the helper.
    for _ in range(3):
        next(chunks)
    chunks.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    def consume():
        for index, chunk in enumerate(butterfly_csv(4, 5)):
            if index == 3:
                raise OSError("the sink is full")

    with pytest.raises(OSError, match="the sink is full"):
        consume()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_a_helper_that_exits_without_sending_raises_child_process_error(monkeypatch, schedule):
    monkeypatch.setattr(representations, "_BLOCK_ENTRIES", 40)
    schedule(1)
    keys = []
    solve = BlochMap._solve
    monkeypatch.setattr(BlochMap, "_solve", lambda self, a, k1s, k2s, *args: (
        keys.append((self.theta, k1s[0], k2s[0])) or solve(self, a, k1s, k2s, *args)))
    whole = list(butterfly_csv(4, 5))
    failing = 7  # a helper's block

    def exiting_solve(self, a, k1s, k2s, *args):
        # os._exit ends the helper at once, so nothing is sent.
        if (self.theta, k1s[0], k2s[0]) == keys[failing]:
            os._exit(3)
        return solve(self, a, k1s, k2s, *args)

    monkeypatch.setattr(BlochMap, "_solve", exiting_solve)
    schedule(2)
    chunks = []
    with pytest.raises(ChildProcessError, match=f"before sending task {failing}$"):
        for chunk in butterfly_csv(4, 5):
            chunks.append(chunk)
    assert chunks == whole[:failing]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_a_helper_system_exit_reaches_the_caller_in_both_schedules(monkeypatch, schedule):
    monkeypatch.setattr(representations, "_BLOCK_ENTRIES", 40)
    schedule(1)
    keys = []
    solve = BlochMap._solve
    monkeypatch.setattr(BlochMap, "_solve", lambda self, a, k1s, k2s, *args: (
        keys.append((self.theta, k1s[0], k2s[0])) or solve(self, a, k1s, k2s, *args)))
    whole = list(butterfly_csv(4, 5))
    failing = 7  # a helper's block

    def exiting_solve(self, a, k1s, k2s, *args):
        if (self.theta, k1s[0], k2s[0]) == keys[failing]:
            raise SystemExit(3)
        return solve(self, a, k1s, k2s, *args)

    monkeypatch.setattr(BlochMap, "_solve", exiting_solve)
    for cpus in (1, 2):
        schedule(cpus)
        chunks = []
        with pytest.raises(SystemExit) as info:
            for chunk in butterfly_csv(4, 5):
                chunks.append(chunk)
        assert info.value.code == 3
        assert chunks == whole[:failing]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_a_cut_message_raises_child_process_error():
    sent = io.BytesIO()
    representations._send(sent, (False, "0,1,0,0,0,-4\n" * 100))
    data = sent.getvalue()
    assert representations._receive(io.BytesIO(data), 5) == "0,1,0,0,0,-4\n" * 100
    for cut in (len(data), len(data) // 2, 1):
        with pytest.raises(ChildProcessError, match="before sending task 5$"):
            representations._receive(io.BytesIO(data[:-cut]), 5)


def test_reduced_fractions_enumeration():
    fracs = list(reduced_fractions(4))
    assert fracs == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(1, 4),
        Fraction(3, 4),
    ]


def test_trivial_multiplier_fiber_is_scalar():
    sigma = trivial_multiplier(magnetic_multiplier(0).group)
    h = harper_element(sigma)
    bloch = BlochMap(sigma)
    assert bloch.q == 1
    fiber = _fiber(bloch, h, 0.7, 0.2)
    expected = 2 * math.cos(0.7) + 2 * math.cos(0.2)
    assert abs(fiber[0, 0] - expected) < 1e-12


def test_bloch_map_needs_a_pairing_on_z2():
    without_z2_pairing = [
        GeometricMultiplier(LatticeGeometry(Fraction(1, 3))),
        magnetic_multiplier(Fraction(1, 3)).twist(
            PhaseMap.random_exact(FreeAbelianGroup(2), random.Random(2))),
        BilinearMultiplier(FreeAbelianGroup(3), [[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
    ]
    for sigma in without_z2_pairing:
        with pytest.raises(MultiplierError):
            BlochMap(sigma)


def test_bloch_blocks_tile_the_grid_in_order(monkeypatch):
    sigma = magnetic_multiplier(Fraction(1, 3))
    h = harper_element(sigma, (1.0, 1.0, 0.5, 0.5))
    bloch = BlochMap(sigma)
    ks = bloch.grid(5)
    whole = np.linalg.eigvalsh(bloch.fiber_stack(h, ks, ks))
    # Fibers per block: part of one k1 row, or as many whole rows as fit.
    for entries, fibers in ((1, 1), (9 * 3, 3), (9 * 7, 5), (9 * 12, 10), (9 * 25, 25)):
        monkeypatch.setattr(representations, "_BLOCK_ENTRIES", entries)
        parts = [(part, eigs) for part, eigs, _ in bloch.blocks(h, 5)]
        assert [p.start for p, _ in parts] == [0] + [p.stop for p, _ in parts[:-1]]
        assert parts[-1][0].stop == 25
        assert max(p.stop - p.start for p, _ in parts) == fibers
        assert np.array_equal(np.concatenate([e for _, e in parts]), whole)


def test_bloch_blocks_build_each_clock_shift_matrix_once(monkeypatch):
    sigma = magnetic_multiplier(Fraction(2, 5))
    h = harper_element(sigma, (1.0, 1.0, 0.5, 0.5))
    bloch = BlochMap(sigma)
    whole = np.linalg.eigvalsh(BlochMap(sigma).fiber_stack(h, bloch.grid(6), bloch.grid(6)))
    built = []
    nonzeros = bloch._nonzeros
    monkeypatch.setattr(bloch, "_nonzeros", lambda g, scalar: built.append(g) or nonzeros(g, scalar))
    monkeypatch.setattr(representations, "_BLOCK_ENTRIES", 25 * 4)
    for _ in range(2):
        parts = [eigs for _, eigs, _ in bloch.blocks(h, 6)]
        assert len(parts) == 12
        assert np.array_equal(np.concatenate(parts), whole)
    assert sorted(built) == sorted(h.coeffs)
    # Each term keeps its q nonzeros only, not a dense q x q matrix.
    assert all(part.shape == (bloch.q,) for term in bloch._terms.values() for part in term)


def test_bloch_blocks_keep_no_fiber_stack_alive_between_blocks(monkeypatch):
    sigma = magnetic_multiplier(Fraction(2, 5))
    h = harper_element(sigma)
    stacks = []
    fiber_stack = BlochMap.fiber_stack

    def recording_fiber_stack(self, *args):
        stack = fiber_stack(self, *args)
        stacks.append(weakref.ref(stack))
        return stack

    monkeypatch.setattr(BlochMap, "fiber_stack", recording_fiber_stack)
    monkeypatch.setattr(representations, "_BLOCK_ENTRIES", 25 * 4)
    for vectors in (False, True):
        blocks = BlochMap(sigma).blocks(h, 6, vectors=vectors)
        for _ in range(3):
            next(blocks)
            assert stacks[-1]() is None
    assert len(stacks) == 6


def _magnetic_harper(theta, mass=0.0):
    sigma = magnetic_multiplier(theta)
    h = harper_element(sigma)
    return h + mass * AlgebraElement.unit(sigma) if mass else h


def test_bloch_results_do_not_depend_on_the_block_size(monkeypatch):
    h = _magnetic_harper(Fraction(1, 3), 0.5)
    half = _magnetic_harper(Fraction(1, 2))

    def results():
        spec = spectrum_union(h, kgrid=12)
        etas = [eta_operator(h, kgrid=32, s_grid=["9/10", "1", "11/10"]),
                eta_operator(half, kgrid=16)]
        return (spec.eigenvalues, spec.bands, spec.gaps, moment_match_study(h, 4, grids=(9,)).errors,
                list(butterfly_rows(3, 5)),
                [(e.eta, e.error_bound, e.germ, e.params, e.kernel) for e in etas])

    default = results()
    # Harper at flux 1/2 has a kernel, so its blocks are solved again.
    assert default[-1][1][4].dim > 0
    # 40 entries: blocks of part of a k1 row at q = 2 and 3, one fiber at q >= 7.
    monkeypatch.setattr(representations, "_BLOCK_ENTRIES", 40)
    blocked = results()
    assert np.array_equal(blocked[0], default[0])
    assert blocked[1:] == default[1:]


def test_large_self_adjoint_elements_pass_the_hermitian_check():
    # Rounding leaves a fiber defect above 1e-9 at coefficients of 1e6.
    sigma = magnetic_multiplier(Fraction(2, 7))
    big = harper_element(sigma, (1e6, 1e6, 1e6, 1e6))
    assert len(list(butterfly_rows(8, 4, (1e6, 1e6, 1e6, 1e6)))) > 1
    assert spectrum_union(big, kgrid=4).q == 7
    assert eta_operator(big, kgrid=4).kernel is not None


def test_non_self_adjoint_elements_raise_spectral_error():
    sigma = magnetic_multiplier(Fraction(1, 3))
    skew = harper_element(sigma, (1.0, 2.0, 1.0, 1.0))
    with pytest.raises(SpectralError):
        list(butterfly_rows(3, 4, (1.0, 2.0, 1.0, 1.0)))
    with pytest.raises(SpectralError):
        spectrum_union(skew, kgrid=4)
    with pytest.raises(SpectralError):
        BlochMap(sigma).eigenvalues(skew, 4)
    with pytest.raises(SpectralError):
        eta_operator(skew, kgrid=4)
    with pytest.raises(SpectralError):
        eta_operator(skew, method="truncation", radius=2)


def test_fibers_or_spectra_beyond_the_floats_name_the_scale():
    sigma = magnetic_multiplier(Fraction(1, 3))
    # Hopping 1e308 overflows the fiber sums.  The second element's fibers fit, but at
    # k = 0 one is 0.7e308 times the all-ones matrix, whose eigenvalue 2.1e308 does not.
    for a in (harper_element(sigma, (1e308,) * 4),
              AlgebraElement(sigma, [((0, 0), 0.7e308), ((0, 1), 0.7e308), ((0, -1), 0.7e308)])):
        with pytest.raises(SpectralError, match=r"not finite \(\|a\|_1 = inf\)"):
            BlochMap(sigma).eigenvalues(a, 4)


def _dense_clock_shift(bloch, g, scalar):
    """scalar * u^g1 v^g2 as a dense q x q matrix, built as BlochMap first did."""
    q = bloch.q
    mat = np.zeros((q, q), dtype=complex)
    for j in range(q):
        i = (j + g[1]) % q
        mat[i, j] = scalar * bloch.zeta ** ((i * g[0]) % q)
    return mat


def _dense_fiber_stack(bloch, a, k1s, k2s):
    """BlochMap.fiber_stack as first written: a dense q x q product per term."""
    k1f, k2f = representations._flat_grid(k1s, k2s)
    stack = np.zeros((k1f.size, bloch.q, bloch.q), dtype=complex)
    for g, c in a.coeffs.items():
        base = _dense_clock_shift(bloch, g, bloch.phase_correction(g))
        wave = np.exp(1j * (k1f * g[0] + k2f * g[1]))
        stack += c * wave[:, None, None] * base[None, :, :]
    return stack


def _dense_hermitian_check(a, stack):
    """The Hermitian check of BlochMap.blocks as first written, over every entry."""
    flip = stack.conj().transpose(0, 2, 1)
    flip -= stack
    defect = float(np.abs(flip).max())
    if not defect <= 1e-9 * max(1.0, a.norm_l1()):
        raise SpectralError(f"Bloch fibers are not Hermitian (defect {defect:.2e})")


def _random_element(rng, sigma, terms):
    """Random complex terms on Z^2, some of their parts +0.0 or -0.0."""
    parts = (0.0, -0.0, 1.0, -1.0)
    coeffs = {}
    for _ in range(terms):
        g = tuple(int(x) for x in rng.integers(-9, 10, size=2))
        re, im = (float(rng.normal()) if rng.random() < 0.6 else parts[rng.integers(4)]
                  for _ in range(2))
        coeffs[g] = complex(re, im) if re or im else complex(re, 1.5)
    return AlgebraElement(sigma, coeffs)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 7, 8, 30])
def test_fiber_stacks_are_bit_equal_to_the_dense_sum(monkeypatch, q):
    # At q = 1 and 2 different terms share entries, so the term order counts.
    rng = np.random.default_rng(1500 + q)
    for gauge in ("landau", "symmetric"):
        sigma = magnetic_multiplier(Fraction(1 if q > 1 else 0, q), gauge)
        bloch = BlochMap(sigma)
        assert bloch.q == q
        for kgrid in range(1, 9):
            a = _random_element(rng, sigma, int(rng.integers(1, 9)))
            ks = bloch.grid(kgrid)
            assert np.array_equal(_bits(bloch.fiber_stack(a, ks, ks)),
                                  _bits(_dense_fiber_stack(bloch, a, ks, ks)))
            k1s, k2s = rng.uniform(-7.0, 7.0, size=(2, kgrid))
            assert np.array_equal(_bits(bloch.fiber_stack(a, k1s, k2s[:3])),
                                  _bits(_dense_fiber_stack(bloch, a, k1s, k2s[:3])))
        # Blocks of a self-adjoint element, cut by a small block size: each
        # stack and its eigenvalues are those of the dense sum.
        h = _random_element(rng, sigma, 5)
        h = h + h.star()
        built = []
        fiber_stack = BlochMap.fiber_stack
        monkeypatch.setattr(BlochMap, "fiber_stack", lambda self, a, k1s, k2s: built.append(
            (k1s, k2s, fiber_stack(self, a, k1s, k2s))) or built[-1][2])
        monkeypatch.setattr(representations, "_BLOCK_ENTRIES", 3 * q * q)
        eigs = [e for _, e, _ in bloch.blocks(h, 5)]
        monkeypatch.undo()
        assert len(built) == len(eigs) > 1
        for (k1s, k2s, stack), e in zip(built, eigs):
            dense = _dense_fiber_stack(bloch, h, k1s, k2s)
            assert np.array_equal(_bits(stack), _bits(dense))
            _dense_hermitian_check(h, dense)
            assert np.array_equal(_bits(e), _bits(np.linalg.eigvalsh(dense)))


@pytest.mark.parametrize("theta", ["0", "1/2", "1/3", "3/8", "7/30"])
def test_the_hermitian_check_reads_the_dense_defect(monkeypatch, theta):
    rng = np.random.default_rng(len(theta))
    sigma = magnetic_multiplier(Fraction(theta))
    bloch = BlochMap(sigma)
    ks = bloch.grid(4)
    # The 4 x 4 grid in one block, so the first block holds every defect.
    monkeypatch.setattr(representations, "_BLOCK_ENTRIES", 16 * bloch.q * bloch.q)
    for _ in range(4):
        a = _random_element(rng, sigma, 4)
        with pytest.raises(SpectralError) as dense:
            _dense_hermitian_check(a, _dense_fiber_stack(bloch, a, ks, ks))
        with pytest.raises(SpectralError) as sparse:
            next(bloch.blocks(a, 4))
        assert str(sparse.value) == str(dense.value)
    # A zero element has no nonzero entry to check, and passes.
    zero = AlgebraElement(sigma, {})
    _dense_hermitian_check(zero, _dense_fiber_stack(bloch, zero, ks, ks))
    assert np.array_equal(bloch.eigenvalues(zero, 4), np.zeros((16, bloch.q)))
