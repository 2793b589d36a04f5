"""jdd benchmark: one workload, measured end to end or traced layer by layer.

    python3 perfbench/run.py --workload rate-hyped --seed 0 --seconds 36 --trace 0

Run from the root of a jdd checkout; jdd is imported from ``src``. Set-up is
timed in fresh interpreters (the median of several), then one workload
process runs the sweep in a closed loop for --seconds and checks every CSV.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics. Comment lines go to stdout first; the last line is one
JSON object with keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (stdlib only; names the workloads)

SETUP_PROBES = 2      # fresh interpreters that only set up, besides the worker
DEADLINE_S = 175.0    # the whole run, probes included, ends inside this


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    # BLAS threads stay within the cores this process may use
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def worker(args, root, extra, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", "perfbench/_out", *extra]
    if args.trials:
        cmd += ["--trials", str(args.trials)]
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trials", type=int,
                    help="override the workload's trials (smoke tests); the golden check then lapses")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "jdd" / "__init__.py").is_file() or not spec_path.is_file():
        raise SystemExit("error: run from the root of a jdd checkout (src/jdd and BENCHMARK.json)")
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    setups = [] if args.trace else [
        worker(args, root, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    res = worker(args, root, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups.append(res["setup_s"])

    print(f"# environment {json.dumps(res['environment'], sort_keys=True)}")
    print(f"# sweep_s {json.dumps(res['sweep_s'])}")
    if args.trace:
        print(f"# traced sweep_s {json.dumps(res['traced_s'])}")
        values = res["layers"]
    else:
        print(f"# setup_s {json.dumps(setups)}")
        values = {
            "setup_s": statistics.median(setups),
            "sweep_s": statistics.median(res["sweep_s"]),
            "peak_rss_mib": res["peak_rss_mib"],
        }
    golden = res["golden_sha256"]
    identity = "not checked (seed or trials differ from the golden)" if golden is None else (
        "byte-identical" if res["sha256"] == [golden] else f"differs: {res['sha256']} != {golden}")
    print(f"# csv sha256 {res['sha256']} vs golden: {identity}")
    for problem in res["problems"]:
        for line in problem.splitlines():
            print(f"# FAILED {line}")

    if {m["name"] for m in declared} != set(values):
        raise SystemExit(f"error: measured metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
