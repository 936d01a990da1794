#!/usr/bin/env python3
"""Record the reference results that the correctness checks compare with.

    python3 perfbench/record_references.py --workload desk_grid --seeds 0-20

For each seed, runs one pass of a training workload and stores its test MAE
and last ``history.csv`` row in perfbench/references.json.  Record only
from a commit whose results are trusted; a benchmark run on a seed without
a recorded reference still makes every other check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train_paper_width", "desk_grid"))
    parser.add_argument("--seeds", required=True, help="e.g. 0-20 or 3,5,9")
    args = parser.parse_args()

    run._pin_environment()
    import workload

    path = workload.HERE / "references.json"
    refs = workload.load_references()
    table = refs.setdefault(args.workload, {})
    for seed in _seeds(args.seeds):
        work = run.ROOT / ".perfbench_work" / f"record-{args.workload}-{seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            with workload.speed.SpeedProbe(float("inf")) as probe:
                bench = workload.Run(workload.WORKLOADS[args.workload], seed, work, probe)
                bench.setup_once()
                result = bench.run_pass()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if bench.ledger.failed:
            print(f"seed {seed}: {bench.ledger.failures}", file=sys.stderr)
            return 1
        summary = workload._csv_rows(result.files["eval/summary.csv"])[0]
        last = workload._csv_rows(result.files["train/history.csv"])[-1]
        table[str(seed)] = {
            "test_mae": workload.number(summary["mae"]),
            "history_last": {"epoch": int(last["epoch"]), "step": int(last["step"]),
                             **{k: workload.number(last[k])
                                for k in ("lr", "train_loss", "val_mae")}},
        }
        print(f"seed {seed}: {table[str(seed)]}", flush=True)
    refs[args.workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
