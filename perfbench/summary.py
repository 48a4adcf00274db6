"""Run every workload once and print a table of the end-to-end metrics.

    python3 perfbench/summary.py [--seed N] [--seconds S]

Each row is one run.py run (default length: ``run_seconds`` of
BENCHMARK.json).  The columns are the medians over the run's passes, the
number of passes, and the failure fraction: failed over attempted
operations.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)

    metrics = [(m["name"], m["unit"]) for m in benchmark["end_to_end"]]
    header = ["workload", *(f"{n} ({u})" for n, u in metrics), "passes", "failed_frac (ratio)"]
    print("  ".join(f"{h:>20}" for h in header))
    status = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(f"{workload:>20}  run failed: {proc.stderr.strip()}")
            status = 1
            continue
        record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        cells = [workload, *(f"{result['metrics'][n]['value']:.4g}" for n, _ in metrics),
                 str(sum(not p["traced"] for p in record["passes"])),
                 f"{result['failed'] / result['attempted']:.4g}"]
        print("  ".join(f"{c:>20}" for c in cells))
        status = status or int(not result["correct"])
    return status


if __name__ == "__main__":
    sys.exit(main())
