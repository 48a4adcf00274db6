"""Canonical self checks per module, packaged for the command line.

Each suite runs a short list of named checks with fixed seeds and
returns a report; a check either asserts a law holds or asserts a known
counterexample fails the law, so a fully green report means both the
positive and negative contracts are behaving.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import (
    algebra,
    cohomology,
    groups,
    mishchenko,
    multipliers,
    representations,
    spectral,
    traces,
)
from .multipliers import CheckReport


@dataclass
class CheckResult:
    """One verify row: ``name``, ``passed``, a measured ``value`` and a ``detail`` text,
    the last two left out of the JSON when None or empty."""

    name: str
    passed: bool
    value: float | None = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": bool(self.passed)}
        if self.value is not None:
            out["value"] = float(self.value)
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class SuiteReport:
    """The checks of one verify ``suite``, in the order run; ``passed`` if all did."""

    suite: str
    results: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def add(self, name: str, check: CheckReport) -> None:
        """Append the row of a checked law: its verdict and its worst defect."""
        self.results.append(CheckResult(name, check.passed, check.worst_defect))

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [r.to_json() for r in self.results],
        }


def _suite_multiplier(seed: int) -> SuiteReport:
    rep = SuiteReport("multiplier")
    z2 = groups.FreeAbelianGroup(2)
    z = multipliers.PhaseMap.random_exact(groups.symmetric_group(3), random.Random(seed + 1), denominator=12)
    for label, sigma in [
        ("trivial", multipliers.trivial_multiplier(z2)),
        ("landau-1/3", multipliers.magnetic_multiplier("1/3", "landau")),
        ("symmetric-1/3", multipliers.magnetic_multiplier("1/3", "symmetric")),
        ("coboundary-s3", multipliers.coboundary(z)),  # exhaustive on S3, whatever the samples
    ]:
        rep.add(f"cocycle[{label}]", multipliers.verify_cocycle(sigma, samples=150, seed=seed))
    lan = multipliers.magnetic_multiplier("1/2", "landau")
    sym = multipliers.magnetic_multiplier("1/2", "symmetric")
    gauge = multipliers.PhaseMap.quadratic_on_lattice(z2, "1/4")
    ok = multipliers.is_cohomologous_via(lan, sym, gauge, radius=4).passed
    rep.results.append(CheckResult("gauge[landau~symmetric]", ok))
    geom = multipliers.GeometricMultiplier(multipliers.LatticeGeometry("1/3", "landau"))
    direct = multipliers.magnetic_multiplier("1/3", "landau")
    same = multipliers.multipliers_equal(geom, direct, radius=4).passed
    rep.results.append(CheckResult("geometric=direct", same))
    curv = multipliers.LatticeGeometry("2/7", "symmetric").verify_curvature()
    rep.results.append(CheckResult("curvature=flux", curv))
    return rep


def _suite_algebra(seed: int) -> SuiteReport:
    rep = SuiteReport("algebra")
    rng = random.Random(seed)
    cases = [
        ("z2-magnetic", multipliers.magnetic_multiplier("1/3", "landau")),
        ("s3-coboundary", multipliers.coboundary(
            multipliers.PhaseMap.random_exact(groups.symmetric_group(3), random.Random(seed), 12))),
    ]
    laws = [
        ("associativity", lambda a, b, c: a.convolve(b).convolve(c).distance_l1(a.convolve(b.convolve(c)))),
        ("involution", lambda a, b, c: a.convolve(b).star().distance_l1(b.star().convolve(a.star()))),
    ]
    for label, sigma in cases:
        triples = [tuple(algebra.random_element(sigma, rng, 3, 2) for _ in range(3)) for _ in range(40)]
        for law, defect in laws:
            rep.add(f"{law}[{label}]", CheckReport.from_cases(triples, defect, 1e-12))
    sigma = multipliers.magnetic_multiplier("1/2", "landau")
    target = multipliers.magnetic_multiplier("1/2", "symmetric")
    z = multipliers.PhaseMap.quadratic_on_lattice(groups.FreeAbelianGroup(2), "-1/4")

    def iso(a):
        return algebra.projective_iso(z, a, target, check=False)

    pairs = ((algebra.random_element(sigma, rng, 3, 2), algebra.random_element(sigma, rng, 3, 2))
             for _ in range(20))
    rep.add("gauge-iso-multiplicative", CheckReport.from_cases(
        pairs, lambda a, b: iso(a.convolve(b)).distance_l1(iso(a).convolve(iso(b))), 1e-12))
    return rep


def _suite_representations(seed: int) -> SuiteReport:
    rep = SuiteReport("representations")
    sigma = multipliers.magnetic_multiplier("1/3", "landau")
    bm = representations.BlochMap(sigma)
    rng = random.Random(seed)

    def relation_defect(g, h):
        tg, th, tgh = (bm.rep_matrix(x, 0.3, 1.1) for x in (g, h, sigma.group.multiply(g, h)))
        return float(np.abs(tg @ th - sigma.value(g, h) * tgh).max())

    pairs = ((sigma.group.random_element(rng, 3), sigma.group.random_element(rng, 3)) for _ in range(30))
    rep.add("projective-relation", CheckReport.from_cases(pairs, relation_defect, 1e-12))
    h0 = representations.harper_element(multipliers.magnetic_multiplier("0/1", "landau"))
    s0 = representations.spectrum_union(h0, kgrid=32)
    edge = max(abs(s0.flat()[0] + 4.0), abs(s0.flat()[-1] - 4.0))
    rep.results.append(CheckResult("theta0-band-edges", edge <= 1e-6, edge))
    h2 = representations.harper_element(multipliers.magnetic_multiplier("1/2", "landau"))
    s2 = representations.spectrum_union(h2, kgrid=32)
    edge2 = max(abs(s2.flat()[0] + 2 * math.sqrt(2)), abs(s2.flat()[-1] - 2 * math.sqrt(2)))
    rep.results.append(CheckResult("theta-half-edges", edge2 <= 1e-6, edge2))
    study = representations.moment_match_study(
        representations.harper_element(multipliers.magnetic_multiplier("1/4", "landau")),
        n_max=6, grids=(8, 16, 32))
    order = study.min_order()
    if math.isfinite(order):
        rep.results.append(CheckResult("moment-match", order >= 1.8, order))
    else:  # every error sits at the noise floor; JSON has no Infinity
        rep.results.append(CheckResult("moment-match", True, detail="saturated"))
    return rep


def _suite_traces(seed: int) -> SuiteReport:
    rep = SuiteReport("traces")
    sigma = multipliers.magnetic_multiplier("1/3", "landau")
    tre = traces.regular_trace(sigma)
    rep.add("regular-trace-law", traces.check_trace_property(tre, seed=seed))
    rep.add("regular-positivity", traces.check_positivity(tre, seed=seed))
    bad = traces.check_trace_property(traces.summation_trace(sigma), seed=seed)
    rep.results.append(CheckResult("summation-fails-when-twisted", not bad.passed, bad.worst_defect))
    s3 = groups.symmetric_group(3)
    triv = multipliers.trivial_multiplier(s3)
    transposition = next(g for g in s3.elements() if s3.element_order(g) == 2)
    cls = traces.conjugacy_functional(triv, transposition)
    rep.add("class-functional-trace", traces.check_trace_property(cls, seed=seed))
    rep.results.append(CheckResult("class-functional-delocalized", cls.is_delocalized))
    n_chars = len(traces.character_functionals(triv))
    rep.results.append(CheckResult("s3-characters", n_chars == 2, float(n_chars)))
    return rep


def _suite_spectral(seed: int) -> SuiteReport:
    rep = SuiteReport("spectral")
    rng = np.random.default_rng(seed)

    def hermitian(n):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (m + m.conj().T) / 2

    matrices = ((hermitian(int(rng.integers(2, 16))),) for _ in range(8))
    rep.add("eigh-residual", CheckReport.from_cases(matrices, lambda m: spectral.eigh(m).residual, 1e-10))
    m = hermitian(14)
    d = abs(spectral.eta_quadrature(m).eta - spectral.eta_closed_form(m))
    rep.results.append(CheckResult("eta-quadrature", d <= 1e-6, d))
    path = spectral.MatrixPath(lambda t: np.diag([t - 0.5, t + 1.0]))
    fl = spectral.spectral_flow(path)
    rep.results.append(CheckResult("flow-upward-crossing", fl.flow == 1, float(fl.flow)))
    b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    mat = np.zeros((7, 7), dtype=complex)
    mat[4:, :4] = b
    mat[:4, 4:] = b.conj().T
    gm = spectral.GradedMatrix(mat, np.array([1.0] * 4 + [-1.0] * 3))
    ms = spectral.mckean_singer(gm)
    rep.results.append(CheckResult("mckean-singer", ms["max_deviation"] <= 1e-8, ms["max_deviation"]))
    pr = spectral.product_eta_check(hermitian(4), gm)
    rep.results.append(CheckResult("product-eta", pr["defect"] <= 1e-8, pr["defect"]))
    even, odd = spectral.cycle_complex(12)
    br = spectral.twisted_betti(even, odd)
    bd = max(abs(br.b_even - 1.0), abs(br.b_odd - 1.0))
    rep.results.append(CheckResult("cycle-betti", bd <= 1e-8, bd))
    return rep


def _suite_cohomology(seed: int) -> SuiteReport:
    rep = SuiteReport("cohomology")
    z2 = groups.FreeAbelianGroup(2)
    area = cohomology.GroupCochain.area_z2(z2)
    for theta in ("0", "1/3"):
        sigma = (multipliers.trivial_multiplier(z2) if theta == "0"
                 else multipliers.magnetic_multiplier(theta, "landau"))
        d = cohomology.transfer_boundary_defect(area, sigma, samples=150, seed=seed)
        rep.results.append(CheckResult(f"transfer[theta={theta}]", d <= 1e-12, d))
    sigma = multipliers.magnetic_multiplier("1/3", "landau")
    tau = cohomology.to_cyclic(area, sigma)
    rep.results.append(CheckResult("localization", tau.is_localized(seed=seed)))
    el = algebra.random_element(sigma, random.Random(seed), 4, 3)
    chain = cohomology.derivation_chain(el, j_max=4)
    rep.results.append(CheckResult("derivation-identity", chain.identity_defect <= 1e-12,
                                   chain.identity_defect))
    rep.results.append(CheckResult("derivation-binomial-bound", chain.bound_ok))
    slope = cohomology.cochain_growth(area, [2, 3, 4, 6])
    rep.results.append(CheckResult("area-growth~2", abs(slope - 2.0) <= 0.2, slope))
    return rep


def _suite_mishchenko(seed: int) -> SuiteReport:
    rep = SuiteReport("mishchenko")
    proj = mishchenko.circle_projection(1)
    r = proj.verify(n_grid=48)
    rep.results.append(CheckResult("circle-idempotent", r["idempotent_defect"] <= 1e-13,
                                   r["idempotent_defect"]))
    rep.results.append(CheckResult("circle-selfadjoint", r["selfadjoint_defect"] <= 1e-13,
                                   r["selfadjoint_defect"]))
    rt = proj.rank_trace(128)
    rep.results.append(CheckResult("circle-rank", abs(rt - 1.0) <= 1e-13, abs(rt - 1.0)))
    w = mishchenko.lott_pairing_circle(proj.cover, n_grid=1024)
    rep.results.append(CheckResult("circle-pairing", abs(w - 1.0) <= 1e-3, w))
    geom = multipliers.LatticeGeometry("1/3", "landau")
    tp = mishchenko.torus_projection(geom)
    r = tp.verify(n_grid=10)
    rep.results.append(CheckResult("torus-idempotent", r["idempotent_defect"] <= 1e-13,
                                   r["idempotent_defect"]))
    rep.results.append(CheckResult("torus-selfadjoint", r["selfadjoint_defect"] <= 1e-13,
                                   r["selfadjoint_defect"]))
    rt = tp.rank_trace(16)
    rep.results.append(CheckResult("torus-rank", abs(rt - 1.0) <= 1e-13, abs(rt - 1.0)))
    return rep


_SUITES = {
    "multiplier": _suite_multiplier,
    "algebra": _suite_algebra,
    "representations": _suite_representations,
    "traces": _suite_traces,
    "spectral": _suite_spectral,
    "cohomology": _suite_cohomology,
    "mishchenko": _suite_mishchenko,
}

# The suites that `verify --suite all` runs in its forked helper when two
# CPUs are usable; this process runs the others.  Cold times, each suite
# alone in a fresh process after `import twistlab.cli` (seed 7, medians of
# 15, 2 vCPU): multiplier 8.9, algebra 22.4, representations 16.4, traces
# 10.4, spectral 20.0, cohomology 18.0 and mishchenko 19.6 ms.  So this
# process runs the first four (58.1 ms) and the helper the last three
# (57.6 ms): every helper suite comes after this process's suites, so this
# process never waits for one before its own work is done.  spectral's first
# import of numpy.random adds most of the memory that any suite adds, which
# the helper gives back when it exits.
_HELPER_SUITES = frozenset({"spectral", "cohomology", "mishchenko"})


def suite_names() -> list:
    return list(_SUITES)


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(_SUITES)}")
    return _SUITES[name](seed)


def run_suites(names: list, seed: int):
    """Yield run_suite(name, seed) for each name, in order.

    With two usable CPUs a forked helper runs the names in _HELPER_SUITES
    and this process the others.  Each suite makes its RNGs from the seed,
    so the split does not change the reports.
    """
    helper = {i for i, name in enumerate(names) if name in _HELPER_SUITES}
    yield from representations._in_order(names, lambda name: run_suite(name, seed), helper)
