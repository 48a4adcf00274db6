"""Byte pins of CLI artifacts: each config's ``--out`` file has a recorded SHA-256.

Every command runs in-process through ``cli.main`` under both schedules of
``representations._in_order`` (one process, and a forked helper), which must
write the same bytes.  A change that moves any byte of these artifacts fails
here; one that means to must say so and record the new digest.

The digests hold for the toolchain they were recorded on (numpy 2.4.6,
scipy-openblas 0.3.31, one BLAS thread), as perfbench's ``BUTTERFLY_SHA256``
do.  Another BLAS build may round eigenvalues differently.
"""

import hashlib
import json

import numpy as np
import pytest

from twistlab import cli

MAGNETIC_THIRD = {"kind": "magnetic", "theta": "1/3", "gauge": "landau"}
HARPER = [{"g": [1, 0], "re": 1.0}, {"g": [-1, 0], "re": 1.0},
          {"g": [0, 1], "re": 1.0}, {"g": [0, -1], "re": 1.0}, {"g": [0, 0], "re": 0.5}]
ELEMENT = {"group": "z2", "multiplier": MAGNETIC_THIRD, "terms": HARPER}


def _matrix(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def _seeded_hermitian(seed: int, n: int) -> dict:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return _matrix((m + m.conj().T) / 2)


def _linear(a0, a1, **extra) -> dict:
    return dict(extra, path={"A0": _matrix(a0), "A1": _matrix(a1)})


# name -> (subcommand, config or None, further arguments)
CASES = {
    "verify-seed-0": ("verify", None, ["--suite", "all", "--seed", "0"]),
    "verify-seed-7": ("verify", None, ["--suite", "all", "--seed", "7"]),
    "eta-bloch-germ": ("eta", dict(ELEMENT, method="bloch", kgrid=32,
                                   s_grid=["9/10", "1", "11/10"]), []),
    "eta-truncation": ("eta", dict(ELEMENT, method="truncation", radius=6), []),
    "eta-dense": ("eta", {"matrix": _matrix([[1, 2j, 0], [-2j, -1, 0.5], [0, 0.5, 3]])}, []),
    # q = 11 does not divide kgrid 5, so the germ solves a coarse grid of its own.
    "eta-bloch-5/11": ("eta", dict(ELEMENT, method="bloch", kgrid=5,
                                   multiplier=dict(MAGNETIC_THIRD, theta="5/11")), []),
    "betti-cycle-40": ("betti", {"cycle": 40}, []),
    "betti-cycle-12-tol": ("betti", {"cycle": 12, "zero_tol": 1e-6}, []),
    "flow-seeded-80": ("spectral-flow", {"path": {"A0": _seeded_hermitian(1, 80),
                                                  "A1": _seeded_hermitian(2, 80)}}, []),
    "flow-kernel-ends": ("spectral-flow", _linear(np.diag([0.0, -1.0, 2.0]),
                                                  np.diag([1.0, 0.0, -2.0])), []),
    "flow-three-samples": ("spectral-flow", {"path": {"samples": [
        _matrix(np.diag([-1.0, 0.5, 2.0])),
        _matrix([[0.2, 1.0, 0], [1.0, -0.3, 0], [0, 0, -1.0]]),
        _matrix(np.diag([1.0, -0.5, 0.25]))]}}, []),
    "flow-zero-tol": ("spectral-flow", _linear(np.diag([-0.04, -1.0, 0.5]),
                                               np.diag([0.03, 1.0, -0.5]), zero_tol=0.05), []),
    "sobolev-chain": ("sobolev", dict(ELEMENT, s=[0, 1, 2], chain_j_max=4), []),
    "pairing-circle": ("pairing-circle", None, ["--winding", "2", "--n-grid", "8000"]),
    "butterfly": ("butterfly", None, ["--qmax", "4", "--kgrid", "16"]),
}

SHA256 = {
    "betti-cycle-12-tol": "db92cc3316213a674fef0b89ba3181bdb7402fc51c257755e78a5b74c1530e44",
    "betti-cycle-40": "e9dcb30573dfc57052b320d9e242ce854907497faf1080259b68d465f93c6ba9",
    "butterfly": "3a278da7e1469030d8c2ac3e3134a3c83b0d08fee635f08dd3843ebb24e56bd8",
    "eta-bloch-5/11": "260d8a22d43342dc6e5b9a31a25cecc2db67bad9e61518c734bb3b65de95e6c0",
    "eta-bloch-germ": "15dea3bb6dbb619e064e55740c0b0c47f9de6d94f6b4a791ad0a9904b630e90e",
    "eta-dense": "e4581def0dfce655953be8315a8ac4458725cd62a796791033d9e4755bebe487",
    "eta-truncation": "21febf0dd75460290998c2a8d024e00c60eb81e3295a4e6f4924b9b29ae31fca",
    "flow-kernel-ends": "c6a70b7309549479cea78e831df1203422197da86dbd10d8b01c45de8a68ef3d",
    "flow-seeded-80": "9376c434ec7541a565d56e04e7def9d8bec7957f932425b7b9db288a42fb3425",
    "flow-three-samples": "7f77ec4b4bf3c43dd669f2666b8165fed5281256f34d9508ca1f114dfe05cb16",
    "flow-zero-tol": "1e92d94407d4370033dc530a73d7fc271cd7d34dc34e3863c195371b301df2e7",
    "pairing-circle": "1dc569af52ebd20a209e0b8ed3e7d1e778da94fc82870027ccfd09c60aa2bbed",
    "sobolev-chain": "9ad009e11c1befbdead57bf99c063e35e792df8987eb0c77bb75c097da801d9e",
    "verify-seed-0": "1e28857e9fa752809d7b1bfebc7f71d10acc5e58a10b17047d72a04413c8b698",
    "verify-seed-7": "f70c2acafd1dfcae28e601106c91f0d01455f631f25011a32670baadd7f06e4e",
}


def artifact(name: str, workdir) -> bytes:
    """The bytes that ``twistlab`` writes to ``--out`` for case ``name``."""
    command, config, extra = CASES[name]
    argv = [command, *extra]
    if config is not None:
        path = workdir / f"{name.replace('/', '_')}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    out = workdir / "artifact.out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_artifact_keeps_its_bytes_in_both_schedules(name, tmp_path, schedule):
    for cpus in (1, 2):
        schedule(cpus)
        assert hashlib.sha256(artifact(name, tmp_path)).hexdigest() == SHA256[name], cpus
