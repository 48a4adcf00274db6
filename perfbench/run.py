"""Run one twistlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from its ``src/``.
A run is a series of passes.  Each pass is a fresh process (worker.py) that
builds the workload's inputs from the seed and runs its operations once, so
every pass pays interpreter start, imports and input generation again.
Passes start until ``--seconds`` have gone by; the metrics are medians over
the passes.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` (one
pass over the operations, after set-up), ``setup_s`` (process launch to the
first operation) and ``peak_rss_mb`` (peak resident set of the pass process).
With ``--trace 1`` untraced and traced passes alternate; the traced ones
give the per-layer metrics, and ``bench.trace_overhead_frac`` compares the
wall time of the two kinds.  The spans of traced passes are kept in
``.perfbench/spans/``.

BLAS and OpenMP threads are pinned to 1 in every pass.  The last line of
standard output is the result as one JSON object; the line before it records
the environment, the seed, every pass and every failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("hofstadter", "invariants", "exact")
# A run must end within 180 s: no pass starts after DEADLINE_S unless it is
# the first, and every pass is killed at KILL_S.
DEADLINE_S = 120.0
KILL_S = 170.0


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git; else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name.strip() == ref:
                return sha
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, which identifies the code outside git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_pass(workload: str, seed: int, traced: bool, workdir: Path, env: dict,
             timeout: float) -> dict:
    """One worker process; returns its result plus ``setup_s``, or a failure record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--workdir", str(workdir)]
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # worker's first_op stamp and this launch stamp are comparable.
    launched = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    result["setup_s"] = result["first_op"] - launched
    return result


def summarize(passes: list[dict], trace: int) -> dict:
    """The result object of a run: medians over its passes and the failure count.

    ``metrics`` is None when no pass of a needed kind completed.
    """
    good = [p for p in passes if "error" not in p]
    failures = [["pass", p["error"]] for p in passes if "error" in p]
    failures += [f for p in good for f in p["failures"]]
    attempted = sum(p["attempted"] for p in good) + len(passes) - len(good)
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    values = None
    if trace and plain and traced:
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["bench.trace_overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain) - 1.0)
    elif not trace and plain:
        values = {name: statistics.median(p[name] for p in plain)
                  for name in ("wall_s", "setup_s", "peak_rss_mb")}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": None if values is None else
        {name: {"value": v, "unit": unit(name)} for name, v in values.items()},
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twistlab" / "__init__.py").is_file():
        print(f"error: no twistlab package under {SRC}; run from a twistlab checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans_dir = OUT / "spans"
    started = perf_counter()
    passes = []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            workdir = work / f"pass{len(passes)}"
            elapsed = perf_counter() - started
            result = run_pass(args.workload, args.seed, traced, workdir, env, KILL_S - elapsed)
            result["traced"] = traced
            passes.append(result)
            if traced and "error" not in result:
                spans_dir.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(workdir / "spans.jsonl", spans_dir /
                                f"{args.workload}-seed{args.seed}-pass{len(passes) - 1}.jsonl")
            shutil.rmtree(workdir, ignore_errors=True)
            elapsed = perf_counter() - started
            need_traced = args.trace and len(passes) < 2
            if elapsed >= DEADLINE_S or (elapsed >= args.seconds and not need_traced):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = summarize(passes, args.trace)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC),
        "env": next((p["env"] for p in passes if "env" in p), None),
        "passes": [{k: p.get(k) for k in ("traced", "wall_s", "setup_s", "peak_rss_mb", "error")}
                   for p in passes],
        "failures": summary.pop("failures"),
    }
    print(json.dumps(record))
    if summary["metrics"] is None:
        print("error: no pass completed, so nothing was measured", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
