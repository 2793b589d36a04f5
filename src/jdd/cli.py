"""Command-line front end.

Subcommands: rate-sweep, pie-sweep, optimize-split, bounds. Configuration is
a key=value text file of sweeps.SweepConfig fields (see sweeps.parse_config);
--seed/--trials/--ref, and pie-sweep's --code, override the config. Each
subcommand runs its sweeps runner and writes <name>.csv and
<name>.manifest.txt, name being the subcommand with '_' for '-', into --out;
the manifest's config lines re-create the run. Exits 0 on success; on
failure prints a single machine-readable "error=..." line to stderr and
exits nonzero.
"""

import argparse
import sys
from pathlib import Path

from .sweeps import (
    SweepConfig,
    parse_config,
    run_bounds_report,
    run_optimize_split,
    run_pie_sweep,
    run_rate_sweep,
    run_with_manifest,
)

_RUNNERS = {
    "rate-sweep": run_rate_sweep,
    "pie-sweep": run_pie_sweep,
    "optimize-split": run_optimize_split,
    "bounds": run_bounds_report,
}


def _add_common(p):
    p.add_argument("--config", type=Path, help="key=value config file")
    p.add_argument("--seed", type=int, help="base seed for all Monte Carlo streams")
    p.add_argument("--trials", type=int, help="Monte Carlo trials per estimate")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p.add_argument("--ref", action="append", default=[], metavar="CSV",
                   help="external reference CSV to merge untouched (repeatable)")


def _build_config(args):
    cfg = parse_config(args.config.read_text()) if args.config else SweepConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.trials is not None:
        cfg.trials = args.trials
    if getattr(args, "code", None):  # only pie-sweep reads codes
        cfg.codes = tuple(args.code)
    if args.ref:
        cfg.refs = tuple(args.ref)
    cfg.validate()
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(prog="jdd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        _add_common(sub.add_parser(name))
    sub.choices["pie-sweep"].add_argument(
        "--code", action="append", default=[], metavar="FILE",
        help="generator-matrix file for simulated points (repeatable)")

    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        name = args.command.replace("-", "_")
        print(run_with_manifest(_RUNNERS[args.command], cfg, args.out, name))
        return 0
    except Exception as exc:  # single machine-readable failure line
        print(f"error=\"{type(exc).__name__}: {exc}\"", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
