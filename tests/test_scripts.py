"""The experiment scripts under scripts/ run end to end at tiny sizes.

Each script's ``main(argv)`` is called in this process, so a rename in the
package that a script still uses fails here.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("butterfly_scan", ["--qmax", "3", "--kgrid", "4"]),
    ("eta_flux_scan", ["--qmax", "2", "--kgrid", "4", "--flow-kgrid", "2"]),
    ("pairing_convergence", ["--grids", "8,16", "--torus-grid", "2"]),
])
def test_script_runs_at_tiny_sizes(capsys, name, argv):
    assert _load(name).main(argv) == 0
    assert capsys.readouterr().out
