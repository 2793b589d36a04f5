"""Record the golden CSV digest and row keys of every workload.

    PYTHONPATH=src python3 perfbench/record_golden.py

Runs one sweep per workload at GOLDEN_SEED with the workload's own trials
and rewrites perfbench/golden.json. Re-record only when a change is meant to
alter the sweep output, and say so in the change.
"""

import json
import sys
from pathlib import Path

import checks
import worker
import workloads

GOLDEN_SEED = 0


def main():
    out = Path("perfbench") / "_out"
    out.mkdir(parents=True, exist_ok=True)
    golden = {}
    for wl in workloads.WORKLOADS.values():
        cfg, _ = worker.setup(wl, GOLDEN_SEED, wl.trials, out)
        _, data = worker.sweep(wl, cfg, out, wl.name)
        problems = checks.check_csv(data, wl.direction)
        if problems:
            raise SystemExit(f"error: {wl.name} CSV fails its checks: {problems}")
        golden[wl.name] = {"seed": GOLDEN_SEED, "trials": wl.trials,
                           "sha256": checks.sha256(data), "keys": checks.row_keys(data)}
        print(wl.name, golden[wl.name]["sha256"])
    worker.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
