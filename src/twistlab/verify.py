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


@dataclass
class CheckResult:
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
    suite: str
    results: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [r.to_json() for r in self.results],
        }


def _suite_multiplier(seed: int) -> SuiteReport:
    rep = SuiteReport("multiplier")
    z2 = groups.FreeAbelianGroup(2)
    for label, sigma in [
        ("trivial", multipliers.trivial_multiplier(z2)),
        ("landau-1/3", multipliers.magnetic_multiplier("1/3", "landau")),
        ("symmetric-1/3", multipliers.magnetic_multiplier("1/3", "symmetric")),
    ]:
        r = multipliers.verify_cocycle(sigma, samples=150, seed=seed)
        rep.results.append(CheckResult(f"cocycle[{label}]", r.passed, r.worst_defect))
    s3 = groups.symmetric_group(3)
    z = multipliers.PhaseMap.random_exact(s3, random.Random(seed + 1), denominator=12)
    r = multipliers.verify_cocycle(multipliers.coboundary(z), samples=0, seed=seed)
    rep.results.append(CheckResult("cocycle[coboundary-s3]", r.passed, r.worst_defect))
    lan = multipliers.magnetic_multiplier("1/2", "landau")
    sym = multipliers.magnetic_multiplier("1/2", "symmetric")
    gauge = multipliers.PhaseMap.quadratic_on_lattice(z2, "1/4")
    ok = multipliers.is_cohomologous_via(lan, sym, gauge, radius=4)
    rep.results.append(CheckResult("gauge[landau~symmetric]", ok))
    geom = multipliers.GeometricMultiplier(multipliers.LatticeGeometry("1/3", "landau"))
    direct = multipliers.magnetic_multiplier("1/3", "landau")
    same = multipliers.multipliers_equal(geom, direct, radius=4)
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
    for label, sigma in cases:
        worst_assoc = 0.0
        worst_star = 0.0
        for _ in range(40):
            a = algebra.random_element(sigma, rng, 3, 2)
            b = algebra.random_element(sigma, rng, 3, 2)
            c = algebra.random_element(sigma, rng, 3, 2)
            lhs = a.convolve(b).convolve(c)
            rhs = a.convolve(b.convolve(c))
            worst_assoc = max(worst_assoc, (lhs - rhs).norm_l1())
            worst_star = max(worst_star, (a.convolve(b).star() - b.star().convolve(a.star())).norm_l1())
        rep.results.append(CheckResult(f"associativity[{label}]", worst_assoc <= 1e-12, worst_assoc))
        rep.results.append(CheckResult(f"involution[{label}]", worst_star <= 1e-12, worst_star))
    sigma = multipliers.magnetic_multiplier("1/2", "landau")
    target = multipliers.magnetic_multiplier("1/2", "symmetric")
    z = multipliers.PhaseMap.quadratic_on_lattice(groups.FreeAbelianGroup(2), "-1/4")
    worst_iso = 0.0
    for _ in range(20):
        a = algebra.random_element(sigma, rng, 3, 2)
        b = algebra.random_element(sigma, rng, 3, 2)
        fa = algebra.projective_iso(z, a, target, check=False)
        fb = algebra.projective_iso(z, b, target, check=False)
        lhs = algebra.projective_iso(z, a.convolve(b), target, check=False)
        worst_iso = max(worst_iso, (lhs - fa.convolve(fb)).norm_l1())
    rep.results.append(CheckResult("gauge-iso-multiplicative", worst_iso <= 1e-12, worst_iso))
    return rep


def _suite_representations(seed: int) -> SuiteReport:
    rep = SuiteReport("representations")
    sigma = multipliers.magnetic_multiplier("1/3", "landau")
    bm = representations.BlochMap(sigma)
    rng = random.Random(seed)
    worst = 0.0
    k1, k2 = 0.3, 1.1
    for _ in range(30):
        g = sigma.group.random_element(rng, 3)
        h = sigma.group.random_element(rng, 3)
        tg = bm.rep_matrix(g, k1, k2)
        th = bm.rep_matrix(h, k1, k2)
        tgh = bm.rep_matrix(sigma.group.multiply(g, h), k1, k2)
        worst = max(worst, float(np.abs(tg @ th - sigma.value(g, h) * tgh).max()))
    rep.results.append(CheckResult("projective-relation", worst <= 1e-12, worst))
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
    rep.results.append(CheckResult("moment-match", study.min_order() >= 1.8, study.min_order()))
    return rep


def _suite_traces(seed: int) -> SuiteReport:
    rep = SuiteReport("traces")
    sigma = multipliers.magnetic_multiplier("1/3", "landau")
    tre = traces.regular_trace(sigma)
    chk = traces.check_trace_property(tre, seed=seed)
    rep.results.append(CheckResult("regular-trace-law", chk.passed, chk.worst_defect))
    chk = traces.check_positivity(tre, seed=seed)
    rep.results.append(CheckResult("regular-positivity", chk.passed, chk.worst_defect))
    bad = traces.check_trace_property(traces.summation_trace(sigma), seed=seed)
    rep.results.append(CheckResult("summation-fails-when-twisted", not bad.passed, bad.worst_defect))
    s3 = groups.symmetric_group(3)
    triv = multipliers.trivial_multiplier(s3)
    transposition = next(g for g in s3.elements() if s3.element_order(g) == 2)
    cls = traces.conjugacy_functional(triv, transposition)
    chk = traces.check_trace_property(cls, seed=seed)
    rep.results.append(CheckResult("class-functional-trace", chk.passed, chk.worst_defect))
    rep.results.append(CheckResult("class-functional-delocalized", cls.is_delocalized))
    n_chars = len(traces.character_functionals(triv))
    rep.results.append(CheckResult("s3-characters", n_chars == 2, float(n_chars)))
    return rep


def _suite_spectral(seed: int) -> SuiteReport:
    rep = SuiteReport("spectral")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(8):
        n = int(rng.integers(2, 16))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = (m + m.conj().T) / 2
        worst = max(worst, spectral.eigh(m).residual)
    rep.results.append(CheckResult("eigh-residual", worst <= 1e-10, worst))
    m = rng.standard_normal((14, 14)) + 1j * rng.standard_normal((14, 14))
    m = (m + m.conj().T) / 2
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
    dl = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    dl = (dl + dl.conj().T) / 2
    pr = spectral.product_eta_check(dl, gm)
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


def suite_names() -> list:
    return list(_SUITES)


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(_SUITES)}")
    return _SUITES[name](seed)
