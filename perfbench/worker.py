"""One workload process of the jdd benchmark.

Sets up jdd (import, config parse, codebook build), then runs the workload's
sweep in a closed loop until the measuring window is spent, checking every
CSV it writes. With --trace, untraced and traced sweeps alternate, and the
traced CSV must match the untraced one byte for byte. With --setup-only it
stops after set-up. The last line of stdout is one JSON object for run.py.

Run from the root of a checkout with ``src`` on PYTHONPATH; run.py does this.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"


def setup(wl, seed, trials, out_dir):
    """Import jdd, parse the workload config and build its codebook.

    Returns (cfg, setup seconds). Input generation before the clock starts
    and the code check after it stops are the benchmark's own work.
    """
    code_path = workloads.write_generator(seed, out_dir) if wl.code else None
    text = wl.config_text(seed, trials, code_path)
    t0 = time.perf_counter()
    import jdd.codebook
    import jdd.sweeps

    cfg = jdd.sweeps.parse_config(text)
    cb = jdd.codebook.load_generator(code_path) if code_path else None
    setup_s = time.perf_counter() - t0
    if cb is not None:
        workloads.check_code(cb)
    return cfg, setup_s


def sweep(wl, cfg, out_dir, name):
    """One CLI-equivalent sweep; returns (seconds, CSV bytes)."""
    import jdd.sweeps

    # looked up at call time, so a traced run goes through the wrapped binding
    runner = getattr(jdd.sweeps, wl.runner)
    t0 = time.perf_counter()
    path = jdd.sweeps.run_with_manifest(runner, cfg, out_dir, name)
    elapsed = time.perf_counter() - t0
    return elapsed, Path(path).read_bytes()


def blas_threads():
    """OpenBLAS thread count as the library reports it, or None."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cache_bytes(sc_name):
    # glibc numbers _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE 191 and 194
    # but Python does not name them
    try:
        return os.sysconf({"L2": 191, "L3": 194}[sc_name])
    except (ValueError, OSError):
        return None


def environment():
    import jdd
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "jdd": jdd.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _cache_bytes("L2"),
        "l3_bytes": _cache_bytes("L3"),
    }


def load_golden(wl, seed, trials):
    """The golden record for this run, or None off the golden seed and trials."""
    golden = json.loads(GOLDEN.read_text()).get(wl.name)
    if golden and golden["seed"] == seed and golden["trials"] == trials:
        return golden
    return None


class Run:
    """Operations attempted so far and what their checks found."""

    def __init__(self, wl, golden):
        self.wl = wl
        self.golden_keys = golden["keys"] if golden else None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = []

    def op(self, cfg, out_dir, name):
        """One sweep and its CSV checks: (seconds, CSV bytes or None, problems)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            elapsed, data = sweep(self.wl, cfg, out_dir, name)
        except Exception:  # a raising sweep is a failed operation, not a crash
            return time.perf_counter() - t0, None, [f"sweep raised\n{traceback.format_exc()}"]
        self.digests.append(checks.sha256(data))
        return elapsed, data, checks.check_csv(data, self.wl.direction, self.golden_keys)

    def record(self, name, problems):
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


def _mean_metrics(per_sweep):
    return {k: statistics.fmean(m[k] for m in per_sweep) for k in per_sweep[0]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trials", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    trials = args.trials or wl.trials
    args.out.mkdir(parents=True, exist_ok=True)

    cfg, setup_s = setup(wl, args.seed, trials, args.out)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    golden = load_golden(wl, args.seed, trials)
    run = Run(wl, golden)
    tracer = Tracer() if args.trace else None
    untraced, traced, per_sweep = [], [], []
    start = time.perf_counter()
    while True:
        elapsed, data, problems = run.op(cfg, args.out, wl.name)
        run.record(wl.name, problems)
        untraced.append(elapsed)
        if tracer:
            tracer.install()
            try:
                t_elapsed, t_data, problems = run.op(cfg, args.out, wl.name + "-traced")
            finally:
                tracer.uninstall()
            traced.append(t_elapsed)
            spans = tracer.take()
            per_sweep.append(layer_metrics(spans))
            missing = [f"{fn}@{binding}" for fn, binding in wl.expect
                       if not any(s.name == fn and s.binding == binding for s in spans)]
            if missing:
                problems.append(f"recorded no call of {', '.join(missing)}")
            if data is not None and t_data is not None and t_data != data:
                problems.append("traced CSV differs from the untraced CSV")
            run.record(wl.name + "-traced", problems)
        # closed loop: start another sweep only if it should end no later than
        # half a sweep past the window, so the window is filled on average
        step = statistics.median(u + t for u, t in zip(untraced, traced)) if tracer \
            else statistics.median(untraced)
        if time.perf_counter() - start + step / 2 > args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "sweep_s": untraced,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "sha256": sorted(set(run.digests)),
        "golden_sha256": golden["sha256"] if golden else None,
        "environment": environment(),
    }
    if tracer:
        layers = _mean_metrics(per_sweep)
        t_med, u_med = statistics.median(traced), statistics.median(untraced)
        layers["trace.overhead_frac"] = t_med / u_med - 1.0
        layers["trace.coverage_frac"] = statistics.fmean(
            1.0 - m["sweeps.self_s"] / t for m, t in zip(per_sweep, traced))
        result["traced_s"] = traced
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
