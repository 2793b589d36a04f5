"""Seeded Monte Carlo engine: threshold calibration and error-rate estimation.

Streams
-------
Each purpose gets its own Philox stream tag so estimates never share noise:
calibration idle slots, evaluation idle slots, active-slot noise, message
draws, and random payloads are all independent. Within a stream, trial t
lives in block t // TRIALS_PER_BLOCK, so results are bit-stable and
independent of how trials are sharded across workers.

`calibrate_threshold` only fits the threshold, on the calibration stream.
The false alarm rate at that threshold has one estimate, `estimate_rates`'s
pfa, measured on the independent evaluation stream, which avoids the
optimistic bias of reusing the fitting sample. A calibrate and estimate
pair draws every (stream, block) at most once.

Entries
-------
`calibrate_threshold` and `estimate_rates` take one detector spec and one
frame plan, or sequences of them (a lone spec or plan is broadcast against
the other sequence); every (spec, plan) entry must cover the same slot
length n. All entries are evaluated in one pass: each noise block of a
stream is drawn once and every entry's statistic is evaluated on it, and
the random payloads of all lengths come from one payload draw per block.
Because a trial's noise depends only on (seed, stream, trial index), each
entry's result is identical to a call with that entry alone; a lone spec
and plan is the same path with one entry, and returns a single result
instead of a list.
Memory: calibration holds an (entries x trials) float64 array of idle
statistics for the quantile; evaluation-stream statistics are reduced to
counts block by block and never stored.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy.stats import beta as beta_dist

from .channel import TRIALS_PER_BLOCK, FramePlan, _blocks, gaussian_block, uniform_block
from .detectors import DetectorSpec, batch_statistic

__all__ = [
    "RateEstimate",
    "CalibrationResult",
    "clopper_pearson",
    "calibrate_threshold",
    "estimate_rates",
    "write_manifest",
]

# stream tags (streams 1-3 are taken by the bound estimators in jdd.bounds)
STREAM_CALIBRATION = 4
STREAM_IDLE_EVAL = 5
STREAM_ACTIVE_NOISE = 6
STREAM_MESSAGES = 7
STREAM_PAYLOAD = 8


def clopper_pearson(successes, trials, level=0.95):
    """Exact two-sided binomial confidence interval."""
    if not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials")
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    alpha = 1.0 - level
    low = 0.0 if successes == 0 else float(beta_dist.ppf(alpha / 2, successes, trials - successes + 1))
    high = 1.0 if successes == trials else float(beta_dist.ppf(1 - alpha / 2, successes + 1, trials - successes))
    return low, high


@dataclass(frozen=True)
class RateEstimate:
    p_hat: float
    trials: int
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, successes, trials, level=0.95):
        low, high = clopper_pearson(successes, trials, level)
        return cls(p_hat=successes / trials, trials=trials, ci_low=low, ci_high=high)


@dataclass(frozen=True)
class CalibrationResult:
    gamma: float
    infeasible: bool = False


def _entries(spec, plan, params):
    """Pair detector specs with frame plans; a lone spec or plan is broadcast.

    Returns (specs, plans, single), where `single` says both arguments were
    lone values, so the caller unwraps its one-entry result.
    """
    single = isinstance(spec, DetectorSpec) and isinstance(plan, FramePlan)
    specs = [spec] if isinstance(spec, DetectorSpec) else list(spec)
    plans = [plan] if isinstance(plan, FramePlan) else list(plan)
    if len(specs) == 1:
        specs = specs * len(plans)
    elif len(plans) == 1:
        plans = plans * len(specs)
    if not specs or len(specs) != len(plans):
        raise ValueError("need one or more (spec, plan) entries; a lone spec or plan is broadcast")
    if any(pl.n != params.n for pl in plans):
        raise ValueError(f"every plan must cover the slot length n={params.n}")
    return specs, plans, single


def _idle_stats(specs, plans, params, trials, seed, stream, cb=None):
    """Yield (offset, per-entry idle statistics) for each noise block of `stream`."""
    genie_x = np.ones(params.n)
    for block, count in _blocks(trials):
        y = gaussian_block(params.sigma2, seed, stream, block, (TRIALS_PER_BLOCK, params.n))[:count]
        results = batch_statistic(specs, y, plans, params, cb=cb, genie_x=genie_x)
        yield block * TRIALS_PER_BLOCK, [stats for stats, _ in results]


def calibrate_threshold(spec, plan, params, trials, eps_fa, seed, cb=None):
    """Fit gamma to the empirical (1 - eps_fa)-quantile of the idle statistic.

    The quantile is linearly interpolated between order statistics of the
    calibration stream, the only stream drawn here; the false alarm rate
    achieved at gamma is reported by estimate_rates, on an independent
    stream. Requires trials >= 50 / eps_fa so the target quantile is
    resolvable. `infeasible` flags a statistic whose atom at its maximum
    outweighs eps_fa, so no threshold meets the target.

    With a sequence of specs and/or plans (see the module docstring) all
    entries are calibrated on the same noise blocks and a list with one
    CalibrationResult per entry is returned.
    """
    trials = int(trials)
    if trials < 50 / eps_fa:
        raise ValueError(f"need >= {int(np.ceil(50 / eps_fa))} trials to resolve eps_fa={eps_fa}")
    specs, plans, single = _entries(spec, plan, params)
    stats = np.empty((len(specs), trials))
    for offset, block_stats in _idle_stats(specs, plans, params, trials, seed, STREAM_CALIBRATION, cb):
        for row, entry_stats in zip(stats, block_stats):
            row[offset : offset + len(entry_stats)] = entry_stats
    gammas = [float(np.quantile(row, 1.0 - eps_fa, method="linear")) for row in stats]
    # degenerate statistic: an atom at the maximum heavier than the target
    infeasible = [bool(np.mean(row >= row.max()) > eps_fa) for row in stats]
    out = [CalibrationResult(gamma=g, infeasible=inf) for g, inf in zip(gammas, infeasible)]
    return out[0] if single else out


def _draw_messages(M, seed, block, count):
    u = uniform_block(seed, STREAM_MESSAGES, block, (TRIALS_PER_BLOCK,))[:count]
    return np.minimum((u * M).astype(np.int64), M - 1) + 1


def _payload_uniforms(n_c_max, seed, block):
    # a (TRIALS_PER_BLOCK, n_c) draw is the leading TRIALS_PER_BLOCK * n_c
    # values of this one, so a single draw serves every payload length
    return uniform_block(seed, STREAM_PAYLOAD, block, (TRIALS_PER_BLOCK * n_c_max,))


def _payload(u, n_c, count):
    u = u[: TRIALS_PER_BLOCK * n_c].reshape(TRIALS_PER_BLOCK, n_c)[:count]
    return np.where(u < 0.5, 1.0, -1.0)


def estimate_rates(spec, plan, params, trials, seed, cb=None):
    """Monte Carlo error rates at the calibrated threshold in `spec.gamma`.

    Returns a dict with keys pfa, pmd, pcw, pie. Idle slots of the evaluation
    stream drive pfa, the one estimate of the false alarm rate at gamma;
    active slots with uniformly drawn messages (or i.i.d. random payload when
    no codebook is supplied) drive the rest. pcw is conditioned on detection
    and is None when no codebook is attached or no trial was detected.

    With a sequence of specs and/or plans (see the module docstring) all
    entries share the idle noise, the active noise and the message draws,
    and a list with one dict per entry is returned.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError("need at least one trial")
    specs, plans, single = _entries(spec, plan, params)
    if not all(np.isfinite(s.gamma) for s in specs):
        raise ValueError("detector threshold gamma is not set; calibrate first")
    gammas = [s.gamma for s in specs]

    n_fa = [0] * len(specs)
    for _, block_stats in _idle_stats(specs, plans, params, trials, seed, STREAM_IDLE_EVAL, cb):
        for i, (stats, gamma) in enumerate(zip(block_stats, gammas)):
            n_fa[i] += int(np.sum(stats >= gamma))

    from .codebook import ml_decode  # local import avoids a cycle at module load

    n_md = [0] * len(specs)
    n_detected = [0] * len(specs)
    n_cw_err = [0] * len(specs)
    n_ie = [0] * len(specs)
    for block, count in _blocks(trials):
        z = gaussian_block(params.sigma2, seed, STREAM_ACTIVE_NOISE, block,
                           (TRIALS_PER_BLOCK, params.n))[:count]
        if cb is not None:
            m = _draw_messages(cb.M, seed, block, count)
            x_c = cb.codewords[m - 1]
        else:
            m = None
            u = _payload_uniforms(max(pl.n_c for pl in plans), seed, block)
        decoded = None  # every plan puts the codeword in the same columns
        for i, (s, plan) in enumerate(zip(specs, plans)):
            if cb is None:
                x_c = _payload(u, plan.n_c, count)
            x = np.concatenate([np.broadcast_to(1.0, (count, plan.n_p)), x_c], axis=1)
            y = x + z

            stats, m_hat = batch_statistic(s, y, plan, params, cb=cb, genie_x=x)
            detected = stats >= gammas[i]
            if m_hat is None and cb is not None:
                if decoded is None:
                    decoded, _ = ml_decode(cb, y[:, plan.n_p :])
                m_hat = decoded

            n_md[i] += int(np.sum(~detected))
            n_detected[i] += int(np.sum(detected))
            if m is not None and m_hat is not None:
                wrong = m_hat != m
                n_cw_err[i] += int(np.sum(detected & wrong))
                n_ie[i] += int(np.sum(~detected | wrong))
            else:
                n_ie[i] += int(np.sum(~detected))

    out = []
    for i in range(len(specs)):
        rates = {
            "pfa": RateEstimate.from_counts(n_fa[i], trials),
            "pmd": RateEstimate.from_counts(n_md[i], trials),
            "pie": RateEstimate.from_counts(n_ie[i], trials),
        }
        if cb is not None and n_detected[i] > 0:
            rates["pcw"] = RateEstimate.from_counts(n_cw_err[i], n_detected[i])
        else:
            rates["pcw"] = None
        out.append(rates)
    return out[0] if single else out


def write_manifest(path, entries):
    """Write a run manifest as line-based key=value text."""
    lines = [f"{k}={v}" for k, v in entries.items()]
    lines.append(f"written_unix={time.time():.3f}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
