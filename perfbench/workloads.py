"""Workloads of the twistlab benchmark: seeded inputs, operations and output checks.

A workload is a list of operations that one pass runs in order.  Each
operation either calls the command line in-process through
``twistlab.cli.main`` (writing its artifact with ``--out``) or calls a public
library function.  Inputs come only from the seed: ``build(name, seed,
workdir)`` writes the config files a pass needs and returns the operations.

Every operation carries a check that runs after the timed pass.  Outputs of
fixed configs are compared with values recorded at the commit that added
this benchmark; seed-dependent outputs are compared with independent numpy
oracles.  A check returns None when the output is right and a one-line
description of the problem otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import twistlab
from twistlab import cli
from twistlab.representations import algebraic_moment

# Hopping coefficients c1..c4 of the Harper element; the seed picks one set.
# All are real with c1 = c2 and c3 = c4, so every Bloch fiber is Hermitian.
HOPPINGS = ("1,1,1,1", "1,1,0.5,0.5", "0.5,0.5,1,1", "1,1,2,2")

# Sizes of the operations.  See README.md for why each workload has them.
HOFSTADTER_BUTTERFLY = (8, 64)  # qmax, kgrid
EXACT_BUTTERFLY = (12, 8)
ETA_RADIUS = 6  # truncation eta solves at radius 4 and 6 (n = 41 and 85)
ETA_KGRID = 32
ETA_S_GRID = ["9/10", "1", "11/10"]
BETTI_CYCLE = 40
FLOW_DIM = 80
QUADRATURE_MATRICES = 50
QUADRATURE_LAMBDA_MIN = 0.1
SOBOLEV_TERMS = 30
SOBOLEV_RADIUS = 4
PAIRING_WINDING = 2
PAIRING_GRID = 8000
MOMENT_ORDERS = range(1, 17)
COCYCLE_SAMPLES = 2000
EQUAL_RADIUS = 3

# sha256 of the butterfly CSV per (qmax, kgrid, hopping), recorded at the
# commit that added this benchmark.  The artifacts must stay byte-identical.
BUTTERFLY_SHA256 = {
    (8, 64, '0.5,0.5,1,1'): "335f64149711289beec9699c53a6c01cf6ae346351b0f066b8016b23e8227eaf",
    (8, 64, '1,1,0.5,0.5'): "6388bf49efd6fb2cb7c6388249605d7681bebc8cc9eb11255a4035f6026deed6",
    (8, 64, '1,1,1,1'): "b83451b182e29cf587158cc80b8836477e9af4c70a004a55a1e3eb3914dad935",
    (8, 64, '1,1,2,2'): "bc35551c859a7dae4c559c6421f6a61c350dd3260598ea2d495ab65c3c730c1e",
    (12, 8, '0.5,0.5,1,1'): "40d5f6426ce3eb40df270813abee5bc8f913c0ce636920c7080702fce6f0f77e",
    (12, 8, '1,1,0.5,0.5'): "ee71a2547adf3034fd4301dfe523a5bdab6317dbe864a210f6d922befe6365d1",
    (12, 8, '1,1,1,1'): "0cc35428b6855c1bcd04a013a255ffcebd6028ac3423ce0bd5b0a669bd3bfb40",
    (12, 8, '1,1,2,2'): "a9f871534c8813fd3d9c8add2bc992a86611de7d4595033e36eb83c40acb4ce9",
}

# Outputs of the fixed-config operations, recorded at the same commit.
RECORDED = {
    "eta_truncation": {"method": "truncation", "eta": 0.13541708396549285,
                       "error_bound": 0.012651585562405643},
    "eta_bloch": {"method": "bloch", "eta": 0.13509114583333331,
                  "error_bound": 0.004231770833333315,
                  "germ": {"1": 0.13509114583333331, "11/10": 0.13333333333333333, "9/10": 0.1}},
    "pairing": 1.9999996915748783,
    # (re, im) of algebraic_moment(harper, n) for n in MOMENT_ORDERS.
    "moments": [
        (0.0, 0.0),
        (4.0, 0.0),
        (0.0, 0.0),
        (24.0, -1.5543122344752192e-15),
        (0.0, 0.0),
        (148.0, -1.887379141862766e-14),
        (0.0, 0.0),
        (928.0, -1.6986412276764895e-13),
        (0.0, 0.0),
        (5904.0, -1.3793410857942945e-12),
        (0.0, 0.0),
        (38052.0, -1.1657785847773994e-11),
        (0.0, 0.0),
        (248112.0, -8.986478228223405e-11),
        (0.0, 0.0),
        (1634688.0, -6.854814493806316e-10),
    ],
}

# Tolerances of the checks, taken from the acceptance criteria.
RECORD_TOL = 1e-9  # recorded eta and pairing values, Betti numbers, chain identity
QUADRATURE_TOL = 1e-6  # heat-kernel eta against the closed form
MOMENT_TOL = 1e-10  # algebraic moments, relative to max(1, |value|)
PAIRING_TOL = 1e-3  # circle pairing against the winding number

HARPER_TERMS = [
    {"g": [1, 0], "re": 1.0},
    {"g": [-1, 0], "re": 1.0},
    {"g": [0, 1], "re": 1.0},
    {"g": [0, -1], "re": 1.0},
    {"g": [0, 0], "re": 0.5},
]
MAGNETIC_THIRD = {"kind": "magnetic", "theta": "1/3", "gauge": "landau"}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """Operations of one pass of workload ``name`` with inputs made from ``seed``."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    # numpy generators and `verify --seed` reject negative seeds.
    return WORKLOADS[name](seed % 2**32, workdir)


def check_all(ops: list[Op], outcomes: list) -> list[tuple[str, str]]:
    """(operation, problem) for every operation that raised or failed its check.

    ``outcomes`` holds per operation either ``("ok", output)`` or
    ``("raised", message)``.  A check that itself raises counts as a failure.
    """
    failures = []
    for op, (status, value) in zip(ops, outcomes):
        if status != "ok":
            failures.append((op.name, f"raised: {value}"))
            continue
        try:
            problem = op.check(value)
        except Exception as exc:  # a broken output must not abort the run
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append((op.name, problem))
    return failures


# --- helpers -----------------------------------------------------------------


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _cli(name: str, argv: list[str], out: Path, check) -> Op:
    def run():
        code = cli.main(argv + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"twistlab {argv[0]} exited with code {code}")
        return out

    return Op(name, run, check)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _far(got: float, want: float, tol: float) -> bool:
    return not (abs(got - want) <= tol)  # also true for NaN


def _matrix_json(a: np.ndarray) -> dict:
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def _hermitian(rng: np.random.Generator, n: int, lam_min: float) -> np.ndarray:
    """Random Hermitian matrix whose smallest |eigenvalue| is exactly lam_min.

    Eigenvalue magnitudes lie in [lam_min, 3] with random signs, rotated by a
    random unitary.  Fixing the smallest magnitude keeps the kernel empty and
    the amount of quadrature work the same from seed to seed.
    """
    mags = rng.uniform(lam_min, 3.0, size=n)
    mags[0] = lam_min
    signs = rng.choice([-1.0, 1.0], size=n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    a = (q * (signs * mags)) @ q.conj().T
    return (a + a.conj().T) / 2


def _closed_form_eta(a: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.sign(np.linalg.eigvalsh(a))))


def _positive_count(a: np.ndarray) -> int:
    return int(np.sum(np.linalg.eigvalsh(a) > 0))


# --- checks ------------------------------------------------------------------


def _butterfly_check(qmax: int, kgrid: int, hopping: str):
    def check(path: Path):
        want = BUTTERFLY_SHA256[(qmax, kgrid, hopping)]
        got = _sha256(path)
        return None if got == want else f"sha256 {got} != recorded {want}"

    return check


def _eta_check(key: str):
    def check(path: Path):
        got = _read_json(path)
        want = RECORDED[key]
        if got["method"] != want["method"]:
            return f"method {got['method']!r} != {want['method']!r}"
        for field in ("eta", "error_bound"):
            if _far(got[field], want[field], RECORD_TOL):
                return f"{field} {got[field]!r} != recorded {want[field]!r}"
        if sorted(got.get("germ", {})) != sorted(want.get("germ", {})):
            return f"germ keys {sorted(got.get('germ', {}))} != {sorted(want.get('germ', {}))}"
        for s, value in want.get("germ", {}).items():
            if _far(got["germ"][s], value, RECORD_TOL):
                return f"germ[{s}] {got['germ'][s]!r} != recorded {value!r}"
        return None

    return check


def _betti_check(path: Path):
    got = _read_json(path)
    if _far(got["b_even"], 1.0, RECORD_TOL) or _far(got["b_odd"], 1.0, RECORD_TOL):
        return f"betti numbers ({got['b_even']}, {got['b_odd']}) != (1, 1)"
    return None


def _flow_check(a0: np.ndarray, a1: np.ndarray):
    def check(path: Path):
        got = _read_json(path)
        if got["flow"] != round(got["endpoint_formula"]):
            return f"flow {got['flow']} != round(endpoint formula {got['endpoint_formula']})"
        oracle = _positive_count(a1) - _positive_count(a0)
        if got["flow"] != oracle:
            return f"flow {got['flow']} != eigvalsh oracle {oracle}"
        return None

    return check


def _quadrature_check(mats: list):
    def check(results):
        if len(results) != len(mats):
            return f"{len(results)} results for {len(mats)} matrices"
        for i, (a, res) in enumerate(zip(mats, results)):
            oracle = _closed_form_eta(a)
            if _far(res.eta, oracle, QUADRATURE_TOL):
                return f"matrix {i}: quadrature eta {res.eta!r} != closed form {oracle!r}"
        return None

    return check


def _verify_check(path: Path):
    got = _read_json(path)
    return None if got["passed"] is True else "verify suites did not pass"


def _sobolev_check(coeffs: dict):
    def norm(s: float) -> float:
        return math.sqrt(sum(abs(c) ** 2 * (1.0 + abs(g[0]) + abs(g[1])) ** (2 * s)
                             for g, c in coeffs.items()))

    def check(path: Path):
        got = _read_json(path)
        for s in ("0", "1", "2"):
            want = norm(float(s))
            if _far(got["norms"][s], want, 1e-9 * max(1.0, want)):
                return f"H^{s} norm {got['norms'][s]!r} != oracle {want!r}"
        chain = got["chain"]
        if not chain["bound_ok"] or not chain["identity_defect"] <= RECORD_TOL:
            return f"derivation chain failed (defect {chain['identity_defect']!r})"
        if chain["radius"] != SOBOLEV_RADIUS:
            return f"chain radius {chain['radius']} != {SOBOLEV_RADIUS}"
        return None

    return check


def _pairing_check(path: Path):
    got = _read_json(path)["pairing"]
    if _far(got, PAIRING_WINDING, PAIRING_TOL):
        return f"pairing {got!r} is not within {PAIRING_TOL} of winding {PAIRING_WINDING}"
    if _far(got, RECORDED["pairing"], RECORD_TOL):
        return f"pairing {got!r} != recorded {RECORDED['pairing']!r}"
    return None


def _moment_check(values):
    want = [complex(re, im) for re, im in RECORDED["moments"]]
    if len(values) != len(want):
        return f"{len(values)} moments, expected {len(want)}"
    for n, (got, ref) in zip(MOMENT_ORDERS, zip(values, want)):
        if not abs(got - ref) <= MOMENT_TOL * max(1.0, abs(ref)):
            return f"moment {n}: {got!r} != recorded {ref!r}"
    return None


def _true_check(label: str):
    def check(value):
        return None if bool(value) is True else f"{label} returned {value!r}"

    return check


# --- workloads ---------------------------------------------------------------


def hofstadter(seed: int, workdir: Path) -> list[Op]:
    qmax, kgrid = HOFSTADTER_BUTTERFLY
    hopping = HOPPINGS[seed % len(HOPPINGS)]
    argv = ["butterfly", "--qmax", str(qmax), "--kgrid", str(kgrid), "--coefficients", hopping]
    return [_cli("butterfly", argv, workdir / "butterfly.csv",
                 _butterfly_check(qmax, kgrid, hopping))]


def invariants(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    eta_trunc = _write_json(workdir / "eta_truncation.json", {
        "group": "z2", "multiplier": MAGNETIC_THIRD, "terms": HARPER_TERMS,
        "method": "truncation", "radius": ETA_RADIUS})
    eta_bloch = _write_json(workdir / "eta_bloch.json", {
        "group": "z2", "multiplier": MAGNETIC_THIRD, "terms": HARPER_TERMS,
        "method": "bloch", "kgrid": ETA_KGRID, "s_grid": ETA_S_GRID})
    betti = _write_json(workdir / "betti.json", {"cycle": BETTI_CYCLE})
    a0 = _hermitian(rng, FLOW_DIM, 0.1)
    a1 = _hermitian(rng, FLOW_DIM, 0.1)
    flow = _write_json(workdir / "flow.json",
                       {"path": {"A0": _matrix_json(a0), "A1": _matrix_json(a1)}})
    mats = [_hermitian(rng, 2 + i % 11, QUADRATURE_LAMBDA_MIN)
            for i in range(QUADRATURE_MATRICES)]
    return [
        _cli("eta-truncation", ["eta", "--config", str(eta_trunc)],
             workdir / "eta_truncation.out.json", _eta_check("eta_truncation")),
        _cli("eta-bloch", ["eta", "--config", str(eta_bloch)],
             workdir / "eta_bloch.out.json", _eta_check("eta_bloch")),
        _cli("betti", ["betti", "--config", str(betti)],
             workdir / "betti.out.json", _betti_check),
        _cli("spectral-flow", ["spectral-flow", "--config", str(flow)],
             workdir / "flow.out.json", _flow_check(a0, a1)),
        Op("eta-quadrature", lambda: [twistlab.eta_quadrature(a) for a in mats],
           _quadrature_check(mats)),
    ]


def exact(seed: int, workdir: Path) -> list[Op]:
    rnd = random.Random(seed)
    # Sobolev element: SOBOLEV_TERMS terms in the ball of radius SOBOLEV_RADIUS,
    # the first on its boundary so the truncation size does not depend on the seed.
    terms = []
    for i in range(SOBOLEV_TERMS):
        x = rnd.randint(-SOBOLEV_RADIUS, SOBOLEV_RADIUS)
        rest = SOBOLEV_RADIUS - abs(x)
        y = rnd.choice((-rest, rest)) if i == 0 else rnd.randint(-rest, rest)
        terms.append({"g": [x, y], "re": rnd.uniform(-1, 1), "im": rnd.uniform(-1, 1)})
    coeffs: dict = {}
    for t in terms:
        g = tuple(t["g"])
        coeffs[g] = coeffs.get(g, 0) + complex(t["re"], t["im"])
    sobolev = _write_json(workdir / "sobolev.json", {
        "group": "z2", "multiplier": MAGNETIC_THIRD, "terms": terms,
        "s": [0, 1, 2], "chain_j_max": 4})

    hopping = HOPPINGS[seed % len(HOPPINGS)]
    qmax, kgrid = EXACT_BUTTERFLY
    harper = twistlab.harper_element(twistlab.magnetic_multiplier("1/3"))

    s4 = twistlab.symmetric_group(4)
    turns = [Fraction(rnd.randrange(12), 12) for _ in range(s4.n)]
    turns[s4.identity_index] = Fraction(0)
    s4_coboundary = twistlab.coboundary(twistlab.PhaseMap.from_table(s4, turns))

    z3 = twistlab.FreeAbelianGroup(3)
    pairing = [[Fraction(rnd.randrange(12), 12) for _ in range(3)] for _ in range(3)]
    shifted = [[x + rnd.randint(-2, 2) for x in row] for row in pairing]
    bilinear = twistlab.BilinearMultiplier(z3, pairing)
    bilinear_shifted = twistlab.BilinearMultiplier(z3, shifted)

    return [
        _cli("verify", ["verify", "--suite", "all", "--seed", str(seed)],
             workdir / "verify.out.json", _verify_check),
        _cli("sobolev", ["sobolev", "--config", str(sobolev)],
             workdir / "sobolev.out.json", _sobolev_check(coeffs)),
        _cli("pairing-circle", ["pairing-circle", "--winding", str(PAIRING_WINDING),
                                "--n-grid", str(PAIRING_GRID)],
             workdir / "pairing.out.json", _pairing_check),
        _cli("butterfly", ["butterfly", "--qmax", str(qmax), "--kgrid", str(kgrid),
                           "--coefficients", hopping],
             workdir / "butterfly.csv", _butterfly_check(qmax, kgrid, hopping)),
        Op("algebraic-moment", lambda: [algebraic_moment(harper, n) for n in MOMENT_ORDERS],
           _moment_check),
        Op("verify-cocycle",
           lambda: twistlab.verify_cocycle(s4_coboundary, samples=COCYCLE_SAMPLES, seed=seed),
           _true_check("verify_cocycle")),
        Op("multipliers-equal",
           lambda: twistlab.multipliers_equal(bilinear, bilinear_shifted, radius=EQUAL_RADIUS),
           _true_check("multipliers_equal")),
    ]


WORKLOADS = {"hofstadter": hofstadter, "invariants": invariants, "exact": exact}
