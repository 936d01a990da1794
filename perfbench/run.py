#!/usr/bin/env python3
"""droughtcast benchmark entry point.

    python3 perfbench/run.py --workload desk_grid --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` and nowhere else.  Each invocation runs one workload in this fresh
process, so ``peak_rss_mb`` is that workload's own.  BLAS is pinned to one
thread: on small shared hosts a second OpenBLAS thread made the paper-width
GEMMs tens of times slower and the timings erratic.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  Lines before it give
the machine record, each metric with its unit, and ``failed_ops_ratio``
with its base.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
TIME_LIMIT_S = 175
WORKLOAD_NAMES = ("train_paper_width", "desk_grid", "wide_read_path")


def _pin_environment() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, str(SRC))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "droughtcast" / "cli.py").is_file():
        print(f"no droughtcast sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    _pin_environment()

    import workload  # after pinning: numpy reads the thread variables on import

    units = workload.PER_LAYER_UNITS if args.trace else workload.END_TO_END_UNITS
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    if {m["name"]: m["unit"] for m in section} != units:
        print("BENCHMARK.json declares other metrics than this benchmark reports",
              file=sys.stderr)
        return 3

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    trace_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, ledger = workload.run_workload(args.workload, args.seed, args.seconds,
                                                bool(args.trace), work, trace_path, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("machine " + json.dumps(workload.machine_record(BLAS_THREADS)))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    ratio = ledger.failed / ledger.attempted
    print(f"failed_ops_ratio {ratio!r} fraction ({ledger.failed} failed of "
          f"{ledger.attempted} attempted)")
    for failure in ledger.failures:
        print(f"failed: {failure}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
