"""End to end tests of the command line interface."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab import SpectralError, butterfly_csv, butterfly_rows, cli
from twistlab import verify as verify_mod
from twistlab.cli import main
from twistlab.verify import suite_names

MAGNETIC_JSON = {"kind": "magnetic", "theta": "1/3", "gauge": "landau"}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} in a JSON artifact")

    return json.loads(text, parse_constant=refuse)


def test_verify_all_suites_pass(capsys):
    code, out = run(capsys, ["verify", "--seed", "7"])
    assert code == 0
    payload = strict_json(out)
    assert payload["passed"] is True
    assert len(payload["suites"]) == len(suite_names())
    checks = {c["name"]: c for suite in payload["suites"] for c in suite["checks"]}
    assert checks["moment-match"] == {"name": "moment-match", "passed": True, "detail": "saturated"}


def test_emit_refuses_nan_and_infinity(capsys, tmp_path):
    for bad in (math.nan, math.inf, -math.inf):
        for out_path in (None, str(tmp_path / "out.json")):
            with pytest.raises(ValueError, match="JSON"):
                cli.emit({"x": [1.0, bad]}, out_path)
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_verify_single_suite(capsys):
    name = suite_names()[0]
    code, out = run(capsys, ["verify", "--suite", name])
    assert code == 0
    payload = json.loads(out)
    assert payload["suites"][0]["suite"] == name


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the two-process schedule forks")


@needs_fork
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_verify_all_does_not_depend_on_the_schedule(capsys, schedule, seed):
    outputs = []
    for cpus in (1, 2):
        schedule(cpus)
        outputs.append(run(capsys, ["verify", "--seed", str(seed)]))
    assert outputs[1] == outputs[0]
    assert outputs[0][0] == 0


@needs_fork
def test_the_helper_runs_exactly_the_named_suites(monkeypatch, schedule):
    names = suite_names()
    assert verify_mod._HELPER_SUITES == {"spectral", "mishchenko"}
    # Each name is a suite, so renaming a suite cannot drop it from the helper unseen.
    assert set() < verify_mod._HELPER_SUITES < set(names)

    monkeypatch.setattr(verify_mod, "run_suite", lambda name, seed: (name, os.getpid()))
    schedule(2)
    pids = dict(verify_mod.run_suites(names, 0))
    assert list(pids) == names
    assert {name for name, pid in pids.items() if pid != os.getpid()} == verify_mod._HELPER_SUITES
    assert len({pid for pid in pids.values() if pid != os.getpid()}) == 1


@needs_fork
@pytest.mark.parametrize("name", ["representations", "mishchenko"])
def test_one_suite_runs_without_a_helper(monkeypatch, capsys, schedule, name):
    schedule(1)
    expected = run(capsys, ["verify", "--suite", name])
    assert expected[0] == 0

    def no_fork():
        raise OSError("fork was called")

    monkeypatch.setattr(os, "fork", no_fork)
    schedule(2)
    assert run(capsys, ["verify", "--suite", name]) == expected


@needs_fork
def test_verify_rejects_a_negative_seed_before_any_suite(monkeypatch, capsys, schedule):
    def no_fork():
        raise AssertionError("fork was called")

    def no_suite(name, seed):
        raise AssertionError(f"suite {name} ran")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(verify_mod, "run_suite", no_suite)
    schedule(2)
    code = main(["verify", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--seed" in captured.err


def check_a_failing_suite_reaches_the_caller_in_both_schedules(monkeypatch, capsys, schedule, name):
    names = suite_names()
    index = names.index(name)

    def broken(seed):
        raise RuntimeError(f"{name} broke at seed {seed}")

    monkeypatch.setitem(verify_mod._SUITES, name, broken)
    for cpus in (1, 2):
        schedule(cpus)
        reports = []
        with pytest.raises(RuntimeError, match=f"^{name} broke at seed 5$"):
            for report in verify_mod.run_suites(names, 5):
                reports.append(report.to_json())
        assert reports == [verify_mod.run_suite(other, 5).to_json() for other in names[:index]]
        code = main(["verify", "--seed", "5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("Traceback")
        assert f"RuntimeError: {name} broke at seed 5" in captured.err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_a_failing_helper_suite_reaches_the_caller_in_both_schedules(monkeypatch, capsys, schedule):
    assert "spectral" in verify_mod._HELPER_SUITES  # a suite the helper runs
    check_a_failing_suite_reaches_the_caller_in_both_schedules(monkeypatch, capsys, schedule, "spectral")


@needs_fork
def test_a_failing_suite_of_this_process_reaches_the_caller_in_both_schedules(monkeypatch, capsys, schedule):
    assert "traces" not in verify_mod._HELPER_SUITES  # a suite this process runs
    check_a_failing_suite_reaches_the_caller_in_both_schedules(monkeypatch, capsys, schedule, "traces")


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nope"])


def test_verify_output_is_deterministic(capsys):
    _, first = run(capsys, ["verify", "--seed", "3"])
    _, second = run(capsys, ["verify", "--seed", "3"])
    assert first == second


def test_butterfly_emits_csv(capsys):
    code, out = run(capsys, ["butterfly", "--qmax", "3", "--kgrid", "8"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("theta")
    assert len(lines) > 3
    _, again = run(capsys, ["butterfly", "--qmax", "3", "--kgrid", "8"])
    assert out == again


def test_butterfly_rejects_bad_coefficients(capsys):
    code, _ = run(capsys, ["butterfly", "--coefficients", "1,2"])
    assert code == 2


@pytest.mark.parametrize("coefficients", ["1,nan,1,1", "1,inf,1,1"])
def test_butterfly_rejects_non_finite_coefficients(capsys, coefficients):
    code, out = run(capsys, ["butterfly", "--qmax", "3", "--kgrid", "4",
                             "--coefficients", coefficients])
    assert code == 2
    assert out == ""


def test_butterfly_stdout_and_out_file_are_the_rows(capsys, tmp_path):
    argv = ["butterfly", "--qmax", "4", "--kgrid", "5", "--coefficients", "0.5,0.5,2,2"]
    expected = "".join(row + "\n" for row in butterfly_rows(4, 5, (0.5, 0.5, 2.0, 2.0)))
    code, out = run(capsys, argv)
    assert code == 0
    assert out == expected
    target = tmp_path / "butterfly.csv"
    code, out = run(capsys, argv + ["--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("extra", [
    ["--qmax", "0"],
    ["--kgrid", "0"],
    ["--kgrid", "-2"],
    ["--coefficients", "1,nan,1,1"],
    ["--coefficients", "1,1,inf,1"],
    ["--coefficients", "1,2,1,1"],
    ["--coefficients", "1,1,1,0.5"],
    ["--kgrid", "4096"],
])
def test_butterfly_rejects_arguments_before_any_output(capsys, tmp_path, extra):
    argv = ["butterfly", "--qmax", "3", "--kgrid", "4"] + extra
    missing = tmp_path / "missing.csv"
    code, out = run(capsys, argv + ["--out", str(missing)])
    assert (code, out) == (2, "")
    assert not missing.exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("previous\n", encoding="utf-8")
    code, out = run(capsys, argv + ["--out", str(kept)])
    assert (code, out) == (2, "")
    assert kept.read_text(encoding="utf-8") == "previous\n"
    code, out = run(capsys, argv)
    assert (code, out) == (2, "")


def test_butterfly_failure_mid_stream_leaves_no_out_file(capsys, tmp_path, monkeypatch):
    def failing_chunks(*args):
        yield "theta_num,theta_den,k1,k2,band_index,eigenvalue\n"
        raise SpectralError("fiber failure after the header")

    monkeypatch.setattr(cli, "butterfly_csv", failing_chunks)
    argv = ["butterfly", "--qmax", "3", "--kgrid", "4"]
    missing = tmp_path / "missing.csv"
    assert run(capsys, argv + ["--out", str(missing)]) == (2, "")
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"previous\n")
    assert run(capsys, argv + ["--out", str(kept)]) == (2, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]
    assert kept.read_bytes() == b"previous\n"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM from procfs")
def test_butterfly_streams_at_bounded_memory(tmp_path):
    # The child reports VmHWM, the peak of its own address space.  Its
    # ru_maxrss would also count this test process, because Linux carries
    # the spawning process's peak across exec.  One child per case, so the
    # test keeps one id.
    config = write_config(tmp_path, "eta.json", {
        "group": "z2", "multiplier": {"kind": "magnetic", "theta": "11/30", "gauge": "landau"},
        "terms": [{"g": [1, 0], "re": 1.0}, {"g": [-1, 0], "re": 1.0},
                  {"g": [0, 1], "re": 1.0}, {"g": [0, -1], "re": 1.0}, {"g": [0, 0], "re": 0.5}],
        "method": "bloch", "kgrid": 48,
    })
    cases = [  # argv, smallest output in bytes, largest peak in MB
        (["butterfly", "--qmax", "8", "--kgrid", "64"], 30_000_000, 45),
        (["butterfly", "--qmax", "1", "--kgrid", "1024"], 50_000_000, 45),
        (["eta", "--config", config], 100, 45),
    ]
    # It also reports the ru_maxrss of its own children: the helper that
    # formats half of a butterfly's blocks (0 where there is none).
    child = (
        "import json, re, resource, sys\n"
        "from twistlab.cli import main\n"
        "code = main(json.loads(sys.argv[1]) + ['--out', sys.argv[2]])\n"
        "status = open('/proc/self/status', encoding='ascii').read()\n"
        "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1),\n"
        "      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for argv, min_bytes, limit_mb in cases:
        target = tmp_path / "artifact.out"
        proc = subprocess.run([sys.executable, "-c", child, json.dumps(argv), str(target)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        code, peak_kb, helper_kb = (int(x) for x in proc.stdout.split())
        assert code == 0
        assert target.stat().st_size > min_bytes
        assert peak_kb / 1024 < limit_mb, f"{argv[0]}: peak RSS {peak_kb / 1024:.1f} MB"
        assert helper_kb / 1024 < limit_mb, f"{argv[0]}: helper peak RSS {helper_kb / 1024:.1f} MB"


def test_butterfly_stdout_is_the_out_file_and_the_one_process_csv(tmp_path, schedule):
    # A helper that flushed the stdout buffer it inherits would write the
    # text buffered when it is forked a second time.  Without
    # PYTHONUNBUFFERED a piped stdout is block-buffered.
    argv = ["butterfly", "--qmax", "3", "--kgrid", "8"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    target = tmp_path / "butterfly.csv"
    runs = [subprocess.run([sys.executable, "-m", "twistlab.cli"] + argv + extra, env=env,
                           capture_output=True, timeout=120) for extra in ([], ["--out", str(target)])]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    schedule(1)
    one_process = "".join(butterfly_csv(3, 8)).encode("ascii")
    assert runs[0].stdout == target.read_bytes() == one_process
    assert runs[1].stdout == b""


def test_eta_bloch_germ_of_a_coboundary_twist(capsys, tmp_path):
    cfg = write_config(tmp_path, "eta.json", {
        "group": "z2",
        "multiplier": {"kind": "coboundary-twist",
                       "base": {"kind": "magnetic", "theta": "2/5", "gauge": "symmetric"},
                       "z": {"quadratic": "1/5"}},
        "terms": [{"g": [1, 0], "re": 1.0}, {"g": [-1, 0], "re": 1.0},
                  {"g": [0, 1], "re": 1.0}, {"g": [0, -1], "re": 1.0}, {"g": [0, 0], "re": 0.5}],
        "method": "bloch", "kgrid": 16, "s_grid": ["1/2", "1"],
    })
    code, out = run(capsys, ["eta", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["germ"]) == ["1", "1/2"]
    assert payload["germ"]["1"] == payload["eta"]


@pytest.mark.parametrize("command, key, value", [
    ("eta", "s_grid", "12"), ("eta", "s_grid", 7),
    ("sobolev", "s", "12"), ("sobolev", "s", 7), ("sobolev", "s", None),
])
def test_a_list_option_that_is_not_a_list_exits_2(capsys, tmp_path, command, key, value):
    cfg = write_config(tmp_path, "config.json", {
        "multiplier": MAGNETIC_JSON,
        "terms": [{"g": [1, 0], "re": 1.0}, {"g": [-1, 0], "re": 1.0}],
        "method": "bloch", "kgrid": 8, key: value,
    })
    code = main([command, "--config", cfg])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{key} must be a list" in captured.err


def test_eta_dense_config(capsys, tmp_path):
    cfg = write_config(tmp_path, "eta.json",
                       {"matrix": {"re": [[1, 0, 0], [0, 2, 0], [0, 0, -3]]}})
    code, out = run(capsys, ["eta", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert payload["eta"] == pytest.approx(0.5)
    code, out = run(capsys, ["eta", "--config", cfg, "--eta-normalization", "full"])
    assert json.loads(out)["eta"] == pytest.approx(1.0)


def test_eta_out_file_matches_stdout(capsys, tmp_path):
    cfg = write_config(tmp_path, "eta.json",
                       {"matrix": {"re": [[2, 0], [0, -5]]}})
    _, out = run(capsys, ["eta", "--config", cfg])
    target = tmp_path / "result.json"
    code = main(["eta", "--config", cfg, "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_spectral_flow_config(capsys, tmp_path):
    cfg = write_config(tmp_path, "flow.json", {
        "path": {"A0": {"re": [[-1, 0], [0, -1]]}, "A1": {"re": [[1, 0], [0, 1]]}},
    })
    code, out = run(capsys, ["spectral-flow", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert payload["flow"] == 2
    assert payload["endpoint_formula"] == pytest.approx(2.0)


def test_spectral_flow_rejects_non_finite_entries(capsys, tmp_path):
    cfg = write_config(tmp_path, "flow.json", {
        "path": {"A0": {"re": [[float("nan"), 0], [0, -1]]}, "A1": {"re": [[1, 0], [0, 1]]}},
    })
    code, out = run(capsys, ["spectral-flow", "--config", cfg])
    assert code == 2
    assert out == ""


def test_eta_and_betti_stdout_repeat_with_pinned_threads(tmp_path):
    eta_cfg = write_config(tmp_path, "eta.json", {
        "group": "z2", "multiplier": MAGNETIC_JSON, "method": "truncation", "radius": 5,
        "terms": [{"g": [0, 0], "re": 0.5}, {"g": [1, 0], "re": 1.0}, {"g": [-1, 0], "re": 1.0},
                  {"g": [0, 1], "re": 1.0}, {"g": [0, -1], "re": 1.0}],
    })
    betti_cfg = write_config(tmp_path, "betti.json", {"cycle": 12})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    launch = [sys.executable, "-c", "import sys; from twistlab.cli import main; sys.exit(main())"]
    for argv in (["eta", "--config", eta_cfg], ["betti", "--config", betti_cfg]):
        runs = [subprocess.run(launch + argv, env=env, capture_output=True, timeout=120)
                for _ in range(2)]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout and runs[0].stdout == runs[1].stdout


def test_betti_cycle_config(capsys, tmp_path):
    cfg = write_config(tmp_path, "betti.json", {"cycle": 6})
    code, out = run(capsys, ["betti", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert (payload["b_even"], payload["b_odd"], payload["euler"]) == (1, 1, 0)
    assert payload["ambiguous"] == []


@pytest.mark.parametrize("zero_tol", [0, 1e-300])
def test_betti_cycle_with_a_tiny_zero_tol_is_no_config_error(capsys, tmp_path, zero_tol):
    cfg = write_config(tmp_path, "betti.json", {"cycle": 12, "zero_tol": zero_tol})
    code, out = run(capsys, ["betti", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    # The zero eigenvalue rounds to about -7e-16: not positive, and not
    # inside a kernel threshold this small, so it is flagged as ambiguous.
    assert (payload["b_even"], payload["b_odd"], payload["zero_tol"]) == (0, 0, zero_tol)
    assert len(payload["ambiguous"]) == 2
    assert all(-1e-15 < x < 0 for x in payload["ambiguous"])


def test_sobolev_config(capsys, tmp_path):
    cfg = write_config(tmp_path, "sobolev.json", {
        "group": "z2",
        "multiplier": MAGNETIC_JSON,
        "terms": [{"g": [1, 0], "re": 1.0}, {"g": [0, 1], "re": 0.5}],
        "s": [0, 1],
        "chain_j_max": 3,
    })
    code, out = run(capsys, ["sobolev", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert payload["norms"]["0"] <= payload["norms"]["1"]
    assert payload["chain"]["bound_ok"] is True
    assert payload["chain"]["identity_defect"] <= 1e-12


def test_pairing_circle(capsys):
    code, out = run(capsys, ["pairing-circle", "--winding", "2", "--n-grid", "256"])
    assert code == 0
    assert json.loads(out)["pairing"] == pytest.approx(2.0, abs=1e-3)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM from procfs")
def test_pairing_circle_runs_in_constant_memory(tmp_path):
    # VmHWM, as in test_butterfly_streams_at_bounded_memory: a child's
    # ru_maxrss would also count this test process.  Importing the CLI alone
    # peaks near 30 MB; n-long partition lists took 69 MB at this grid.
    child = (
        "import re, sys\n"
        "from twistlab.cli import main\n"
        "code = main(['pairing-circle', '--winding', '2', '--n-grid', '200000', '--out', sys.argv[1]])\n"
        "status = open('/proc/self/status', encoding='ascii').read()\n"
        "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    target = tmp_path / "pairing.json"
    proc = subprocess.run([sys.executable, "-c", child, str(target)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = (int(x) for x in proc.stdout.split())
    assert code == 0
    assert json.loads(target.read_text())["pairing"] == pytest.approx(2.0, abs=1e-6)
    assert peak_kb / 1024 < 40, f"peak RSS {peak_kb / 1024:.1f} MB"


@pytest.mark.parametrize("n_grid", ["0", "-3", "2"])
def test_pairing_circle_rejects_grids_too_small_for_centered_differences(capsys, tmp_path, n_grid):
    target = tmp_path / "pairing.json"
    code, out = run(capsys, ["pairing-circle", f"--n-grid={n_grid}", "--out", str(target)])
    assert (code, out) == (2, "")
    assert not target.exists()
    code, out = run(capsys, ["pairing-circle", f"--n-grid={n_grid}"])
    assert (code, out) == (2, "")


def test_non_integer_lattice_rank_is_a_config_error(capsys, tmp_path):
    cfg = write_config(tmp_path, "eta.json", {
        "group": {"kind": "free-abelian", "rank": 2.9},
        "multiplier": {"kind": "magnetic", "theta": "1/3"},
        "terms": [{"g": [1, 0], "re": 1.0}, {"g": [-1, 0], "re": 1.0}], "kgrid": 4,
    })
    code, out = run(capsys, ["eta", "--config", cfg])
    assert (code, out) == (2, "")


HARPER_TERMS = [{"g": [1, 0], "re": 1.0}, {"g": [-1, 0], "re": 1.0},
                {"g": [0, 1], "re": 1.0}, {"g": [0, -1], "re": 1.0}]
ELEMENT = {"group": "z2", "multiplier": MAGNETIC_JSON, "terms": HARPER_TERMS}
BLOCH = dict(ELEMENT, method="bloch", kgrid=8)
TRUNCATION = dict(ELEMENT, method="truncation", radius=3)
DENSE = {"matrix": {"re": [[1, 0], [0, -2]]}}
FLOW = {"path": {"A0": {"re": [[-1, 0], [0, 1]]}, "A1": {"re": [[1, 0], [0, 1]]}}}
SOBOLEV = dict(ELEMENT, s=[0, 1])
# Terms whose l2 norm, about 2.1e308, is beyond the largest float.
BEYOND_THE_FLOATS = [{"g": [3, 1], "re": 1.5e308}, {"g": [1, 0], "re": 1.5e308}]
# Finite Sobolev norms, but a chain column whose norm overflows.
CHAIN_PAST_THE_FLOATS = dict(ELEMENT, terms=[{"g": [3, 1], "re": 1e300}], chain_j_max=2)


def test_truncation_eta_at_radius_2_compares_with_radius_0(capsys, tmp_path):
    terms = HARPER_TERMS + [{"g": [0, 0], "re": 0.5}]
    payloads = {}
    for radius in (0, 2):
        cfg = write_config(tmp_path, "eta.json", dict(TRUNCATION, terms=terms, radius=radius))
        code, out = run(capsys, ["eta", "--config", cfg])
        assert code == 0
        payloads[radius] = json.loads(out)
    assert payloads[2]["error_bound"] == pytest.approx(1 / 3)
    assert payloads[2]["error_bound"] == abs(payloads[2]["eta"] - payloads[0]["eta"])


@pytest.mark.parametrize("command, config, named", [
    ("eta", dict(BLOCH, zero_tol=math.nan), "zero_tol"),
    ("eta", dict(DENSE, zero_tol=math.nan), "zero_tol"),
    ("eta", dict(DENSE, zero_tol="nan"), "zero_tol"),
    ("eta", dict(DENSE, zero_tol=-1.0), "zero_tol"),
    ("eta", dict(DENSE, zero_tol=math.inf), "zero_tol"),
    ("eta", dict(DENSE, zero_tol=True), "zero_tol"),
    ("eta", dict(TRUNCATION, zero_tol=math.nan), "zero_tol"),
    ("betti", {"cycle": 12, "zero_tol": math.nan}, "zero_tol"),
    ("spectral-flow", dict(FLOW, zero_tol=math.nan), "zero_tol"),
    ("spectral-flow", dict(FLOW, initial_samples=1), "initial_samples"),
    ("spectral-flow", dict(FLOW, initial_samples=0), "initial_samples"),
    ("spectral-flow", dict(FLOW, max_refinements=-1), "max_refinements"),
    ("sobolev", dict(SOBOLEV, chain_j_max=-1), "j_max"),
    ("sobolev", dict(SOBOLEV, s=[math.nan]), "order"),
    ("eta", dict(TRUNCATION, radius=-1), "radius"),
    ("eta", dict(BLOCH, kgrid=8.9), "kgrid"),
    ("eta", dict(BLOCH, kgrid="8"), "kgrid"),
    ("eta", dict(TRUNCATION, radius=3.5), "radius"),
    ("betti", {"cycle": 12.9}, "cycle"),
    ("betti", {"cycle": 40.0}, "cycle"),
    ("sobolev", dict(SOBOLEV, chain_j_max=2.5), "chain_j_max"),
    ("spectral-flow", dict(FLOW, initial_samples=17.5), "initial_samples"),
    ("spectral-flow", dict(FLOW, max_refinements=True), "max_refinements"),
    ("eta", dict(BLOCH, kgrid=10_000_000), "kgrid"),
    ("spectral-flow", {"path": [1, 2]}, "path"),
    ("spectral-flow", {"path": "x"}, "path"),
    ("sobolev", dict(ELEMENT, terms=[{"g": [3, 1], "re": 1.0}], s=[1000]), "order s"),
    ("sobolev", dict(ELEMENT, terms=[{"g": [3, 1], "re": 1.0}], chain_j_max=3000), "order s"),
    ("eta", dict(DENSE, method="bloch"), "method"),
    ("eta", dict(ELEMENT, method="dense"), "method"),
    ("sobolev", dict(ELEMENT, terms=BEYOND_THE_FLOATS), "norm of order s = 0.0"),
    ("sobolev", dict(ELEMENT, terms=BEYOND_THE_FLOATS, chain_j_max=2), "norm of order s = 0"),
    ("eta", {"matrix": {"re": [[1e308, 1e308], [1e308, 1e308]]}}, "largest |entry| 1.000e+308"),
    ("eta", dict(BLOCH, terms=[dict(t, re=1e308) for t in HARPER_TERMS]), "|a|_1 = inf"),
    # numpy's overflow warning must not reach stderr next to the error line.
    pytest.param("sobolev", CHAIN_PAST_THE_FLOATS, "chain up to order 2",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    ("sobolev", dict(ELEMENT, terms=[{"g": [0, 0], "re": 1.0}], chain_j_max=1100), "order j = 1030"),
    ("spectral-flow", {"path": {"samples": [{"re": [[1.0]]}, {"re": [[1.0, 0.0], [0.0, -1.0]]}]}},
     "share a dimension"),
    ("spectral-flow", dict(FLOW, zero_tol=10**400), "zero_tol"),
    ("betti", {"cycle": 12, "zero_tol": 10**400}, "zero_tol"),
    ("eta", {"matrix": {"re": [[0, 1e-10], [0, 0]]}}, "not Hermitian"),
    ("eta", {"matrix": {"re": [[1e-10, 5e-10], [-5e-10, -1e-10]]}}, "not Hermitian"),
])
def test_bad_config_values_exit_2_with_one_error_line(capsys, tmp_path, command, config, named):
    cfg = write_config(tmp_path, "config.json", config)
    code = main([command, "--config", cfg])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
    assert named in captured.err and "Traceback" not in captured.err
    assert len(captured.err) < 120, captured.err


# A butterfly whose first block overflows: its fibers are not finite.
OVERFLOWING_BUTTERFLY = ["butterfly", "--qmax", "1", "--kgrid", "2", "--coefficients",
                         "5e307,5e307,5e307,5e307"]


def test_a_butterfly_that_fails_in_its_first_block_writes_nothing(capsys, schedule):
    for cpus in (1, 2):
        schedule(cpus)
        code = main(OVERFLOWING_BUTTERFLY)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: Bloch fibers or their spectra are not finite (|a|_1 = inf)\n"


BLOCH_PAST_THE_FLOATS = "error: Bloch fibers or their spectra are not finite (|a|_1 = inf)"


@pytest.mark.parametrize("argv, message", [
    (["eta", dict(BLOCH, kgrid=4, terms=[dict(t, re=1e308) for t in HARPER_TERMS])], BLOCH_PAST_THE_FLOATS),
    # 32 blocks at q = 11, so the helper meets the overflow too.
    (["eta", dict(BLOCH, kgrid=64, multiplier=dict(MAGNETIC_JSON, theta="5/11"),
                  terms=[dict(t, re=1e308) for t in HARPER_TERMS])], BLOCH_PAST_THE_FLOATS),
    (OVERFLOWING_BUTTERFLY, BLOCH_PAST_THE_FLOATS),
    (["sobolev", CHAIN_PAST_THE_FLOATS], "error: the derivation chain up to order 2 overflows a float"),
    # Checked at construction, so each sample's spectrum is checked for finiteness alone.
    (["spectral-flow", {"path": {"A0": {"re": [[1e308, 1e308], [1e308, 1e308]]},
                                 "A1": {"re": [[-1e308, 1e308], [1e308, -1e308]]}}}],
     "error: eigenvalues beyond the floats (largest |entry| 1.000e+308)"),
], ids=["eta kgrid 4", "eta 32 blocks", "butterfly", "derivation chain", "linear flow"])
def test_floats_past_the_range_give_one_error_line_and_no_warning(tmp_path, argv, message):
    # A fresh process, because pytest captures the warnings of this one.
    if isinstance(argv[1], dict):
        argv = [argv[0], "--config", write_config(tmp_path, "config.json", argv[1])]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "twistlab.cli", *argv], env=env,
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode().splitlines() == [message]


def test_eta_matrix_config_accepts_an_explicit_dense_method(capsys, tmp_path):
    plain = write_config(tmp_path, "plain.json", DENSE)
    dense = write_config(tmp_path, "dense.json", dict(DENSE, method="dense"))
    outputs = [run(capsys, ["eta", "--config", cfg]) for cfg in (plain, dense)]
    assert outputs[0][0] == 0 and outputs[0] == outputs[1]


def test_eta_truncation_ignores_a_t_max_key(capsys, tmp_path):
    plain = write_config(tmp_path, "plain.json", TRUNCATION)
    with_t_max = write_config(tmp_path, "t_max.json", dict(TRUNCATION, t_max=3.0))
    outputs = [run(capsys, ["eta", "--config", cfg]) for cfg in (plain, with_t_max)]
    assert outputs[0][0] == 0 and outputs[0] == outputs[1]


@pytest.mark.parametrize("group", ["s10", "a8", "c100000000"])
def test_table_groups_past_the_order_cap_are_config_errors(capsys, tmp_path, group):
    cfg = write_config(tmp_path, "sobolev.json", {
        "group": group, "multiplier": {"kind": "trivial"}, "terms": [{"g": 0, "re": 1.0}],
    })
    target = tmp_path / "sobolev_out.json"
    code = main(["sobolev", "--config", cfg, "--out", str(target)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "cap for table groups" in captured.err
    assert not target.exists()


@st.composite
def _fuzzed_call(draw):
    """An argv for butterfly or pairing-circle, and the one bad input it holds (or None)."""
    if draw(st.booleans()):
        n_grid = draw(st.integers(-5, 40))
        return ["pairing-circle", f"--n-grid={n_grid}"], "n-grid" if n_grid < 3 else None
    sizes = [draw(st.integers(1, 5)), draw(st.integers(1, 6))]
    c1, c3 = draw(st.floats(-3, 3)), draw(st.floats(-3, 3))
    coefficients = [c1, c1, c3, c3]
    fault = draw(st.sampled_from([None, "size", "huge", "unequal", "non-finite"]))
    where = draw(st.integers(0, 3))
    if fault == "size":
        sizes[where % 2] = draw(st.integers(-2, 0))
    elif fault == "huge":
        sizes[where % 2] = draw(st.integers(4096, 10**9))
    elif fault == "unequal":
        coefficients[where] = draw(st.floats(-3, 3).filter(lambda c: c != coefficients[where]))
    elif fault == "non-finite":
        coefficients[where] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    argv = ["butterfly", f"--qmax={sizes[0]}", f"--kgrid={sizes[1]}",
            "--coefficients=" + ",".join(repr(c) for c in coefficients)]
    return argv, fault


@given(_fuzzed_call())
def test_cli_fuzz_exits_cleanly(call):
    argv, fault = call
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (fault is None), fault
    if code == 2:
        assert out.getvalue() == ""


def _numeric_leaves(node, path=()):
    """Paths to the numbers (not bools) of a JSON tree."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


@st.composite
def _fuzzed_config(draw):
    """(command, config, fault, refused): a tiny config for eta, betti, sobolev or
    spectral-flow with at most one fault, and whether that fault must be refused."""
    small = st.integers(-2, 2)

    def matrix(n, diagonal=False):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, i + 1 if diagonal else n):
                rows[i][j] = rows[j][i] = draw(st.integers(0, 2) if diagonal else small)
        return {"re": rows}

    n = draw(st.integers(1, 3))
    hopping, mass = draw(st.floats(-2, 2)), draw(st.floats(-2, 2))
    element = {"multiplier": {"kind": "magnetic", "theta": draw(st.sampled_from(["0", "1/2", "1/3", "2/5"]))},
               "terms": [{"g": [1, 0], "re": hopping}, {"g": [-1, 0], "re": hopping},
                         {"g": [0, 1], "re": 1.0}, {"g": [0, -1], "re": 1.0}, {"g": [0, 0], "re": mass}]}
    element_keys = [("multiplier",), ("terms",), ("multiplier", "kind"), ("multiplier", "theta"),
                    ("terms", 0, "g")]
    command = draw(st.sampled_from(["eta", "betti", "sobolev", "spectral-flow"]))
    if command == "eta" and draw(st.booleans()):
        config, required = {"matrix": matrix(n)}, [("matrix",), ("matrix", "re")]
    elif command == "eta":
        config = dict(element, method="bloch", kgrid=draw(st.integers(1, 4)))
        if draw(st.booleans()):
            config.update(method="truncation", radius=draw(st.integers(0, 2)))
        if draw(st.booleans()):
            config["s_grid"] = draw(st.lists(st.sampled_from(["1/2", "1", "3/2"]), max_size=2))
        required = element_keys
    elif command == "betti" and draw(st.booleans()):
        config, required = {"cycle": draw(st.integers(2, 6))}, [("cycle",)]
    elif command == "betti":
        config = {"even": matrix(n, diagonal=True), "odd": matrix(n, diagonal=True)}
        required = [("even",), ("odd",), ("even", "re")]
    elif command == "sobolev":
        config = dict(element, s=draw(st.lists(st.integers(0, 3), max_size=3)))
        if draw(st.booleans()):
            config["chain_j_max"] = draw(st.integers(0, 2))
        required = element_keys
    elif draw(st.booleans()):
        config = {"path": {"samples": [matrix(n) for _ in range(draw(st.integers(2, 3)))]}}
        required = [("path",), ("path", "samples", 0, "re")]
    else:
        config = {"path": {"A0": matrix(n), "A1": matrix(n)}}
        required = [("path",), ("path", "A0"), ("path", "A1"), ("path", "A0", "re")]
    if command != "sobolev" and draw(st.booleans()):
        # 10**400 is an int past the floats, so it must be refused.
        config["zero_tol"] = draw(st.sampled_from([1e-9, 0.5, 10**400]))

    faults = ["missing", "non-finite", "string", "non-numeric", "huge"]
    if "matrix" in config or "even" in config or "path" in config:
        faults.append("ragged")
    if "terms" in config:
        faults += ["float theta", "terms"]
    if "s_grid" in config:
        faults.append("float s_grid")
    fault = draw(st.sampled_from([None] + faults))
    leaves = list(_numeric_leaves(config))
    leaf = draw(st.sampled_from(leaves))
    if fault == "missing":
        *parent, key = draw(st.sampled_from(required))
        del _at(config, parent)[key]
    elif fault == "non-finite":
        _at(config, leaf[:-1])[leaf[-1]] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif fault == "string":
        _at(config, leaf[:-1])[leaf[-1]] = repr(_at(config, leaf))
    elif fault == "non-numeric":
        _at(config, leaf[:-1])[leaf[-1]] = draw(st.sampled_from(["x", "", [1], {"re": 1}]))
    elif fault == "huge":  # every nonzero number near the top of the floats, its sign kept
        for path in leaves:
            if _at(config, path):
                _at(config, path[:-1])[path[-1]] = 1e308 if _at(config, path) > 0 else -1e308
    elif fault == "ragged":
        matrices = [_at(config, path[:-2]) for path in leaves if path[-3:-2] == ("re",)]
        draw(st.sampled_from(matrices))[0].append(1)
    elif fault == "float theta":
        config["multiplier"]["theta"] = draw(st.sampled_from([0.25, 1 / 3]))
    elif fault == "terms":
        config["terms"] = draw(st.sampled_from([5, "terms", {"g": [0, 0], "re": 1.0}, None]))
    elif fault == "float s_grid":
        config["s_grid"].append(draw(st.sampled_from([0.5, 1.0])))
    # A number as a string may still parse ("1.0" as a coefficient), and huge numbers may
    # have a finite answer; every other fault must not.
    refused = fault not in (None, "string", "huge") or config.get("zero_tol") == 10**400
    return command, config, fault, refused


@settings(max_examples=300)  # enough for every fault of every command to come up
@given(_fuzzed_config())
def test_config_fuzz_exits_cleanly(tmp_path_factory, case):
    command, config, fault, refused = case
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--config", str(path)])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if refused:
        assert code == 2, (fault, config)
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error:")


def test_an_internal_key_error_exits_3_with_its_traceback(capsys, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "twisted_betti", broken)
    cfg = write_config(tmp_path, "betti.json", {"cycle": 6})
    code = main(["betti", "--config", cfg])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("Traceback") and "KeyError: 'internal'" in captured.err


@needs_fork
def test_a_helper_that_dies_exits_3_with_its_traceback(capsys, monkeypatch, schedule):
    parent = os.getpid()

    def dies(seed):
        if os.getpid() == parent:
            raise AssertionError("the spectral suite ran in this process")
        os._exit(0)

    assert "spectral" in verify_mod._HELPER_SUITES
    monkeypatch.setitem(verify_mod._SUITES, "spectral", dies)
    schedule(2)
    code = main(["verify", "--seed", "0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert "ChildProcessError: the helper process ended before sending task" in captured.err


def test_missing_config_returns_user_error(capsys):
    code = main(["eta", "--config", "/nonexistent/path.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_malformed_config_returns_user_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    code = main(["eta", "--config", str(path)])
    capsys.readouterr()
    assert code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
