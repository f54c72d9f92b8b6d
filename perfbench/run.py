"""deepself benchmark: one run of one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds its inputs from the seed, measures for about S seconds, checks every
output, and prints a details line and then, last, the result line
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones from a traced run.
Exits 1 when an output check fails and 2 when deepself's sources are missing.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rnn-train", "cnn-train", "cli-pipeline")
# one BLAS/OpenMP thread per process: two were reported to widen the bi-GRU step p90 by 15-40 %
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "deepself" / "__init__.py").is_file():
        print(f"error: no deepself sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import deepself
    import deepself.cli
    import workloads

    if Path(deepself.__file__).resolve().parent != src / "deepself":
        print(f"error: imported deepself from {deepself.__file__}, not {src}", file=sys.stderr)
        return 2
    result = workloads.run(deepself, args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    if args.trace:
        from tracing import unit_of
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    correct = result["failed"] == 0 and bool(metrics)
    print(json.dumps(result["details"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
