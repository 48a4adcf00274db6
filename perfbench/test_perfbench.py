"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench -q``.

They take about two minutes, so they stay out of the tier-1 suite, whose
``testpaths`` is ``tests/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **run.THREADS)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _expected_metrics(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _expected_metrics("per_layer")
    assert [p["traced"] for p in record["passes"]] == [False, True]
    assert record["seed"] == 3 and record["env"]["threads"]["OMP_NUM_THREADS"] == "1"
    assert {"nproc", "python", "numpy", "blas"} <= set(record["env"])


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _run("--workload", "hofstadter", "--seed", "0", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _expected_metrics("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_names_this_directory():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pass_writes_the_same_artifacts(workload, tmp_path):
    outputs = {}
    for trace in (0, 1):
        workdir = tmp_path / f"trace{trace}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "5",
             "--trace", str(trace), "--workdir", str(workdir)],
            cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["failures"] == []
        outputs[trace] = {p.name: p.read_bytes() for p in workdir.iterdir()
                          if p.name != "spans.jsonl"}
    assert outputs[0] and outputs[0] == outputs[1]
    assert (tmp_path / "trace1" / "spans.jsonl").stat().st_size > 0


def test_same_seed_gives_same_inputs(tmp_path):
    def inputs(seed, name):
        workdir = tmp_path / f"{name}-{seed}"
        workloads.build("invariants", seed, workdir)
        return {p.name: p.read_bytes() for p in workdir.iterdir()}

    assert inputs(7, "a") == inputs(7, "b")
    assert inputs(7, "a")["flow.json"] != inputs(8, "c")["flow.json"]


def _worker_result(capsys, workload, tmp_path):
    assert worker.main(["--workload", workload, "--seed", "1", "--trace", "0",
                        "--workdir", str(tmp_path)]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def _failed_frac(result):
    summary = run.summarize([dict(result, traced=False, setup_s=0.1)], trace=0)
    return summary["failed"] / summary["attempted"]


def test_corrupted_artifact_counts_as_failure(monkeypatch, capsys, tmp_path):
    build = workloads.build

    def corrupting_build(name, seed, workdir):
        ops = build(name, seed, workdir)
        for op in ops:
            def run_then_corrupt(run_op=op.run):
                path = run_op()
                with open(path, "ab") as fh:
                    fh.write(b"0")
                return path
            op.run = run_then_corrupt
        return ops

    monkeypatch.setattr(workloads, "build", corrupting_build)
    result = _worker_result(capsys, "hofstadter", tmp_path)
    assert [name for name, _ in result["failures"]] == ["butterfly"]
    assert _failed_frac(result) > 0


def test_wrong_oracle_value_counts_as_failure(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(workloads.RECORDED, "pairing", workloads.RECORDED["pairing"] + 1e-6)
    monkeypatch.setattr(workloads, "_closed_form_eta", lambda a: 0.25)
    result = _worker_result(capsys, "exact", tmp_path / "exact")
    assert [name for name, _ in result["failures"]] == ["pairing-circle"]
    assert _failed_frac(result) > 0
    result = _worker_result(capsys, "invariants", tmp_path / "invariants")
    assert [name for name, _ in result["failures"]] == ["eta-quadrature"]
    assert _failed_frac(result) > 0


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "exact", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
