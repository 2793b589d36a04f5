"""Workload definitions for the jdd benchmark.

Each workload is one sweep from the paper, run through the public
``jdd.sweeps`` runners with the CLI's key=value config grammar. The sizes were
measured on a 2-core box; ``trials`` may be rescaled to fit the run length,
but the grids and the error targets stay fixed.

This module uses the standard library only, so the workload process can
generate its inputs before the timed ``import jdd``.
"""

import random
from dataclasses import dataclass
from pathlib import Path

# pie-code stands in a random systematic code for the paper's best-known
# (84, 2^12) generator, which the repository does not ship.
CODE_N_C = 76
CODE_K = 12


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str          # jdd.sweeps entry point
    direction: str       # "rate": converse >= achievability; "pie": converse <= achievability
    config: str          # CLI config text without seed, trials or codes
    trials: int
    code: bool           # generate a (CODE_N_C, CODE_K) generator from the seed
    # (function, module binding) pairs the traced run must see called at least
    # once; a missed binding would silently under-count its layer
    expect: tuple

    def config_text(self, seed, trials, code_path):
        text = f"{self.config}seed={seed}\ntrials={trials}\n"
        if code_path is not None:
            text += f"codes={code_path}\n"
        return text


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rate-hyped",
            runner="run_rate_sweep",
            direction="rate",
            config=("schemes=genie,dad,hyped\nes_n0_db=-3\nn_grid=60,84\n"
                    "eps_fa=1e-3\neps_md=1e-3\neps_ie=1e-2\n"),
            trials=20000,
            code=False,
            expect=(
                ("gaussian_block", "jdd.montecarlo"),
                ("gaussian_block", "jdd.bounds"),
                ("uniform_block", "jdd.channel"),
                ("uniform_block", "jdd.montecarlo"),
                ("batch_statistic", "jdd.montecarlo"),
                ("stat_hyped_exact", "jdd.detectors"),
                ("calibrate_threshold", "jdd.sweeps"),
                ("estimate_rates", "jdd.sweeps"),
                ("info_density_samples", "jdd.bounds"),
                ("dt_error_estimate", "jdd.bounds"),
                ("dt_bound_max_M", "jdd.bounds"),
                ("meta_converse_max_M", "jdd.bounds"),
            ),
        ),
        Workload(
            name="pie-code",
            runner="run_pie_sweep",
            direction="pie",
            config=("schemes=dad,preamble\nn=84\nk=12\nsnr_grid=-3,-1\n"
                    "eps_fa=1e-3\neps_md=1e-3\neps_ie=1e-2\n"),
            trials=20000,
            code=True,
            expect=(
                ("gaussian_block", "jdd.montecarlo"),
                ("uniform_block", "jdd.montecarlo"),
                ("batch_statistic", "jdd.montecarlo"),
                ("stat_dad", "jdd.detectors"),
                ("stat_preamble", "jdd.detectors"),
                ("ml_decode", "jdd.codebook"),
                ("load_generator", "jdd.sweeps"),
                ("calibrate_threshold", "jdd.sweeps"),
                ("estimate_rates", "jdd.sweeps"),
                ("info_density_samples", "jdd.sweeps"),
                ("dt_error_estimate", "jdd.sweeps"),
                ("meta_converse_min_error", "jdd.bounds"),
            ),
        ),
        Workload(
            name="pie-bounds",
            runner="run_pie_sweep",
            direction="pie",
            config=("schemes=genie,dad,preamble\nn=84\nk=12\nsnr_grid=-4,-3,-2,-1,0\n"
                    "eps_fa=1e-4\neps_md=1e-4\neps_ie=1e-3\n"),
            trials=50000,
            code=False,
            expect=(
                ("gaussian_block", "jdd.bounds"),
                ("info_density_samples", "jdd.sweeps"),
                ("info_density_samples", "jdd.bounds"),
                ("dt_error_estimate", "jdd.sweeps"),
                ("meta_converse_min_error", "jdd.bounds"),
                ("dad_gamma", "jdd.bounds"),
            ),
        ),
    )
}


def generator_rows(seed, n_c=CODE_N_C, k=CODE_K):
    """Rows of a systematic [I_k | P] generator with P drawn from `seed`."""
    rng = random.Random(seed)
    rows = []
    for i in range(k):
        parity = rng.getrandbits(n_c - k)
        rows.append("".join("1" if j == i else "0" for j in range(k))
                    + format(parity, f"0{n_c - k}b"))
    return rows


def write_generator(seed, out_dir):
    """Write the pie-code generator for `seed` in the CLI's file format."""
    path = Path(out_dir) / f"pie-code-{seed}.gen"
    path.write_text(f"{CODE_N_C} {CODE_K}\n" + "\n".join(generator_rows(seed)) + "\n")
    return path


def gf2_rank(rows):
    """Rank over GF(2) of bit rows given as 0/1 sequences."""
    basis = {}  # leading bit -> reduced row
    for row in rows:
        v = int("".join(str(int(b)) for b in row), 2)
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return len(basis)


def check_code(cb):
    """Raise unless the loaded codebook is a full-rank (CODE_N_C, CODE_K) code."""
    if (cb.n_c, cb.k) != (CODE_N_C, CODE_K):
        raise ValueError(f"pie-code codebook is ({cb.n_c}, {cb.k}), expected ({CODE_N_C}, {CODE_K})")
    rank = gf2_rank(cb.G.tolist())
    if rank != CODE_K:
        raise ValueError(f"pie-code generator has GF(2) rank {rank}, expected {CODE_K}")
