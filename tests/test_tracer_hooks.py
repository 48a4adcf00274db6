"""The benchmark tracer patches twistlab functions and methods by name.

``perfbench/spans.py`` looks each name up when it installs, so a rename or
deletion in the package breaks traced benchmark runs.  Installing and
uninstalling it here catches that in the fast suite.
"""

import importlib.util
from pathlib import Path

import numpy as np

from twistlab import algebra, mishchenko, verify

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked():
    return (algebra.AlgebraElement.convolve, mishchenko.lott_pairing_circle,
            np.linalg.eigh, dict(verify._SUITES))


def test_tracer_installs_every_hook_and_uninstalls_cleanly():
    originals = _hooked()
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        assert all(now is not before for now, before in zip(_hooked()[:3], originals))
    finally:
        tracer.uninstall()
    assert _hooked() == originals
