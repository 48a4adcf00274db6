"""One pass of a benchmark workload, in a fresh process started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --workdir DIR

Imports twistlab from ``src/`` of the checkout (run.py sets PYTHONPATH),
builds the workload's inputs from the seed, runs its operations once and
times them, then checks every output.  With ``--trace 1`` the operations run
under the span tracer and the spans are written to ``DIR/spans.jsonl``.
Prints one JSON line: the time of the first operation on the monotonic clock
(run.py subtracts its launch time from it), the pass wall time, the peak
resident set, the failures and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    import twistlab

    if not Path(twistlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: twistlab imported from {twistlab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    import workloads

    ops = workloads.build(args.workload, args.seed, args.workdir)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    outcomes = []
    first_op = perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        try:
            outcomes.append(("ok", op.run()))
        except (Exception, SystemExit) as exc:  # a failed operation must not stop the pass
            outcomes.append(("raised", f"{type(exc).__name__}: {exc}"))
    wall = perf_counter() - first_op
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.workdir / "spans.jsonl")
    failures = workloads.check_all(ops, outcomes)
    result = {
        "first_op": first_op,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failures": failures,
        "env": environment(),
        "layers": tracer.metrics() if tracer is not None else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
