"""Reproduce the two headline experiment sweeps at desk scale.

Runs the rate-over-blocklength sweep and the inclusive-error-over-SNR sweep
through the same entry points the CLI uses, writing CSVs plus run manifests
into ./demo_out. Targets are loosened to 1e-2 and trial counts trimmed so the
whole script finishes in well under a minute; tighten eps_* and raise trials
to approach the published operating points.
"""

from pathlib import Path

from jdd.codebook import reed_muller_1
from jdd.sweeps import SweepConfig, run_pie_sweep, run_rate_sweep, run_with_manifest

out = Path("demo_out")

# Rate over blocklength at -3 dB: how fast does the asynchronous penalty fade?
rate_cfg = SweepConfig(
    schemes=("genie", "dad", "hyped"),
    es_n0_db=-3.0,
    n_grid=(24, 32, 48, 64, 84),
    eps_fa=1e-2, eps_md=1e-2, eps_ie=1e-2,
    trials=50_000,
    np_grid=(8, 16, 24),
    seed=1,
)
csv_path = run_with_manifest(run_rate_sweep, rate_cfg, out, "rate_sweep")
print(f"rate sweep -> {csv_path}")

# Inclusive error over SNR at fixed (n, k) = (48, 6), with a simulated
# operating point for a concrete code alongside the bounds.
code_file = out / "rm15.txt"
code_file.parent.mkdir(parents=True, exist_ok=True)
# first-order Reed-Muller RM(1,5): a (32, 6) code, leaving a 16-symbol preamble
code_file.write_text("".join("".join(map(str, row)) + "\n" for row in reed_muller_1(5).G))

pie_cfg = SweepConfig(
    schemes=("genie", "dad", "hyped", "preamble"),
    snr_grid=(-4.0, -2.0, 0.0, 2.0),
    n=48, k=6,
    eps_fa=1e-2, eps_md=1e-2, eps_ie=1e-2,
    trials=50_000,
    np_grid=(16,),
    codes=(str(code_file),),
    seed=2,
)
csv_path = run_with_manifest(run_pie_sweep, pie_cfg, out, "pie_sweep")
print(f"error-rate sweep -> {csv_path}")
print("columns: scheme,kind,n,es_n0_db,value,stderr,flag; kind 'simulated' rows "
      "are Monte Carlo points for the supplied code")
