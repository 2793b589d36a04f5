"""Command-line front end.

Subcommands: rate-sweep, pie-sweep, optimize-split, bounds. Configuration is
a key=value text file (see sweeps.parse_config); --seed/--trials/--out/
--code/--ref override the config. rate-sweep, pie-sweep and bounds write a
CSV and its run manifest into --out. Exits 0 on success; on failure prints a
single machine-readable "error=..." line to stderr and exits nonzero.
"""

import argparse
import sys
from pathlib import Path

from .channel import ChannelParams
from .sweeps import (
    SweepConfig,
    optimize_preamble_split,
    parse_config,
    run_bounds_report,
    run_pie_sweep,
    run_rate_sweep,
    run_with_manifest,
)


# subcommands that write <name>.csv and <name>.manifest.txt
_RUNNERS = {
    "rate-sweep": (run_rate_sweep, "rate_sweep"),
    "pie-sweep": (run_pie_sweep, "pie_sweep"),
    "bounds": (run_bounds_report, "bounds"),
}


def _add_common(p):
    p.add_argument("--config", type=Path, help="key=value config file")
    p.add_argument("--seed", type=int, help="base seed for all Monte Carlo streams")
    p.add_argument("--trials", type=int, help="Monte Carlo trials per estimate")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p.add_argument("--code", action="append", default=[], metavar="FILE",
                   help="generator-matrix file for simulated points (repeatable)")
    p.add_argument("--ref", action="append", default=[], metavar="CSV",
                   help="external reference CSV to merge untouched (repeatable)")


def _build_config(args):
    cfg = parse_config(args.config.read_text()) if args.config else SweepConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.trials is not None:
        cfg.trials = args.trials
    if args.code:
        cfg.codes = tuple(args.code)
    if args.ref:
        cfg.refs = tuple(args.ref)
    cfg.out = str(args.out)
    cfg.validate()
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(prog="jdd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("rate-sweep", "pie-sweep", "optimize-split", "bounds"):
        _add_common(sub.add_parser(name))
    split = sub.choices["optimize-split"]
    split.add_argument("--scheme", default="hyped", choices=["hyped", "preamble", "dad"])

    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command in _RUNNERS:
            runner, name = _RUNNERS[args.command]
            print(run_with_manifest(runner, cfg, cfg.out, name))
        elif args.command == "optimize-split":
            params = ChannelParams.from_db(cfg.es_n0_db, cfg.n)
            plan, table = optimize_preamble_split(args.scheme, cfg.n, cfg.k, params,
                                                  cfg.requirements, cfg)
            print(f"scheme={args.scheme} n_p={plan.n_p} n_c={plan.n_c}")
            for n_p, pmd, pcw_up, pie_up in table:
                print(f"n_p={n_p} pmd={pmd:.6g} pcw_upper={pcw_up:.6g} pie_upper={pie_up:.6g}")
        return 0
    except Exception as exc:  # single machine-readable failure line
        print(f"error=\"{type(exc).__name__}: {exc}\"", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
