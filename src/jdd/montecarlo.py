"""Seeded Monte Carlo engine: threshold calibration and error-rate estimation.

Streams
-------
Each purpose gets its own Philox stream tag so estimates never share noise:
calibration idle slots, evaluation idle slots, active-slot noise, message
draws, and random payloads are all independent. Within a stream, trial t
lives in block t // TRIALS_PER_BLOCK, so results are bit-stable and
independent of how trials are sharded across workers. A partial last block
draws only its own trials: a draw is the flat prefix of the full block's.

Each function draws only its own streams:

- `calibrate_threshold` fits the threshold on the calibration stream (4);
- `estimate_rates` scores active slots: active noise (6), and the message
  draws (7) with a codebook or the random payloads (8) without one;
- `estimate_false_alarm` scores idle slots of the evaluation stream (5).
  It is the one estimate of the false alarm rate at the threshold, measured
  apart from the fitting sample, which avoids the optimistic bias of
  reusing it.

So no call pays for a rate its caller does not read, and a calibrate,
estimate and false-alarm triple draws every (stream, block) at most once.

Entries
-------
Every function takes one detector spec and one frame plan, or sequences of
them (a lone spec or plan is broadcast against the other sequence); every
(spec, plan) entry must cover the same slot length n. All entries are
evaluated in one pass: each noise block of a stream is drawn once and every
entry's statistic is evaluated on it, and the random payloads of all lengths
come from one payload draw per block. Because a trial's noise depends only
on (seed, stream, trial index), each entry's result is identical to a call
with that entry alone; a lone spec and plan is the same path with one
entry, and returns a single result instead of a list.
Memory: calibration holds an (entries x trials) float64 array of idle
statistics for the quantile; evaluation statistics are reduced to counts
block by block and never stored, and every entry's active slots are written
into one reused block buffer, in spans of whole rows on the usable cores
(channel._on_rows). With a code every entry sees the same slots, and each
block gets one ML decision: the first DAD entry's argmax, which is ML
decoding's, or else one codebook.ml_decode call, so a block is correlated
with the codebook once.

Rates carry exact two-sided 95% Clopper-Pearson intervals, whose beta
quantiles come from ``scipy.special.betaincinv``.
"""

import time
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import betaincinv

from . import codebook
from .channel import TRIALS_PER_BLOCK, FramePlan, _blocks, _on_rows, gaussian_block, uniform_block
from .detectors import DetectorSpec, batch_statistic

__all__ = [
    "RateEstimate",
    "CalibrationResult",
    "clopper_pearson",
    "calibrate_threshold",
    "estimate_rates",
    "estimate_false_alarm",
    "write_manifest",
]

# stream tags (streams 1-3 are taken by the bound estimators in jdd.bounds)
STREAM_CALIBRATION = 4
STREAM_IDLE_EVAL = 5
STREAM_ACTIVE_NOISE = 6
STREAM_MESSAGES = 7
STREAM_PAYLOAD = 8


# confidence level of every two-sided Clopper-Pearson interval
_LEVEL = 0.95


def clopper_pearson(successes, trials):
    """Exact two-sided binomial confidence interval at the 95% level."""
    if not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials")
    alpha = 1.0 - _LEVEL
    low = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, alpha / 2))
    high = 1.0 if successes == trials else float(betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
    return low, high


@dataclass(frozen=True)
class RateEstimate:
    p_hat: float
    trials: int
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, successes, trials):
        low, high = clopper_pearson(successes, trials)
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
    for block, count in _blocks(trials):
        y = gaussian_block(params.sigma2, seed, stream, block, (count, params.n))
        results = batch_statistic(specs, y, plans, params, cb=cb)
        yield block * TRIALS_PER_BLOCK, [stats for stats, _ in results]


def calibrate_threshold(spec, plan, params, trials, eps_fa, seed, cb=None):
    """Fit gamma to the empirical (1 - eps_fa)-quantile of the idle statistic.

    The quantile is linearly interpolated between order statistics of the
    calibration stream, the only stream drawn here; the false alarm rate
    achieved at gamma is measured by estimate_false_alarm, on an independent
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
    u = uniform_block(seed, STREAM_MESSAGES, block, (count,))
    return np.minimum((u * M).astype(np.int64), M - 1) + 1


def _payload_uniforms(n_c_max, seed, block, count):
    # a (count, n_c) draw is the leading count * n_c values of this one, so a
    # single draw serves every payload length
    return uniform_block(seed, STREAM_PAYLOAD, block, (count * n_c_max,))


def _payload(u, n_c, a, b):
    """Rows [a, b) of the random +/-1 payload of length n_c: +1 where u < 1/2."""
    x = np.subtract(u[a * n_c : b * n_c], 0.5).reshape(b - a, n_c)
    np.copysign(1.0, x, out=x)  # u = 1/2 gives +0.0, so -1 below
    return np.negative(x, out=x)


def _active_slots(y, z, n_p, payload):
    """Write the active slots x + z of a noise block z into y, in spans of rows.

    x is +1 on the n_p preamble columns and payload(a, b), the +/-1 rows
    [a, b) of the codeword segment, after them. IEEE addition commutes, so
    z + 1.0 and z + x_c are x + z bit for bit.
    """
    def fill(a, b):
        np.add(z[a:b, :n_p], 1.0, out=y[a:b, :n_p])
        np.add(z[a:b, n_p:], payload(a, b), out=y[a:b, n_p:])

    _on_rows(fill, len(z), z.shape[1])


def _thresholded(spec, plan, params, trials):
    """Check an evaluation call: (trials, specs, plans, single), every gamma set."""
    trials = int(trials)
    if trials < 1:
        raise ValueError("need at least one trial")
    specs, plans, single = _entries(spec, plan, params)
    if not all(np.isfinite(s.gamma) for s in specs):
        raise ValueError("detector threshold gamma is not set; calibrate first")
    return trials, specs, plans, single


def estimate_false_alarm(spec, plan, params, trials, seed, cb=None):
    """Monte Carlo false alarm rate at the calibrated threshold in `spec.gamma`.

    Idle slots of the evaluation stream, independent of the calibration
    stream, give the one estimate of the false alarm rate at gamma, as a
    RateEstimate. With a sequence of specs and/or plans (see the module
    docstring) all entries share the idle noise and a list with one
    RateEstimate per entry is returned.
    """
    trials, specs, plans, single = _thresholded(spec, plan, params, trials)
    n_fa = [0] * len(specs)
    for _, block_stats in _idle_stats(specs, plans, params, trials, seed, STREAM_IDLE_EVAL, cb):
        for i, (stats, s) in enumerate(zip(block_stats, specs)):
            n_fa[i] += int(np.sum(stats >= s.gamma))
    out = [RateEstimate.from_counts(n, trials) for n in n_fa]
    return out[0] if single else out


def estimate_rates(spec, plan, params, trials, seed, cb=None):
    """Monte Carlo error rates of active slots at the threshold in `spec.gamma`.

    Returns a dict with keys pmd, pcw, pie, from active slots with uniformly
    drawn messages (or i.i.d. random payload when no codebook is supplied).
    pcw is conditioned on detection and is None when no codebook is attached
    or no trial was detected. No idle slot is drawn here: the false alarm
    rate comes from estimate_false_alarm.

    With a sequence of specs and/or plans (see the module docstring) all
    entries share the active noise and the message draws, and a list with
    one dict per entry is returned.
    """
    trials, specs, plans, single = _thresholded(spec, plan, params, trials)
    if cb is not None and any(pl.n_c != cb.n_c for pl in plans):
        raise ValueError(f"every plan must carry the codewords: n_c={cb.n_c}")
    n_md = [0] * len(specs)
    n_detected = [0] * len(specs)
    n_cw_err = [0] * len(specs)
    n_ie = [0] * len(specs)
    buf = np.empty((min(trials, TRIALS_PER_BLOCK), params.n))  # every block's active slots
    for block, count in _blocks(trials):
        z = gaussian_block(params.sigma2, seed, STREAM_ACTIVE_NOISE, block, (count, params.n))
        y = buf[:count]
        if cb is not None:
            # every plan puts the codeword in the same columns: one y per block
            m = _draw_messages(cb.M, seed, block, count)

            def codewords(a, b):
                return cb.codewords[m[a:b] - 1]

            n_p = plans[0].n_p
            _active_slots(y, z, n_p, codewords)
            results = batch_statistic(specs, y, plans, params, cb=cb)
            # one ML decision per block: DAD's argmax is ML decoding's
            decided = next((m_hat for _, m_hat in results if m_hat is not None), None)
            if decided is None:
                decided, _ = codebook.ml_decode(cb, y[:, n_p:])
            wrong = decided != m
        else:
            u = _payload_uniforms(max(pl.n_c for pl in plans), seed, block, count)
            results = []
            for s, plan in zip(specs, plans):
                _active_slots(y, z, plan.n_p, partial(_payload, u, plan.n_c))
                results.append(batch_statistic(s, y, plan, params))

        for i, (s, (stats, _)) in enumerate(zip(specs, results)):
            detected = stats >= s.gamma
            n_md[i] += int(np.sum(~detected))
            n_detected[i] += int(np.sum(detected))
            if cb is not None:
                n_cw_err[i] += int(np.sum(detected & wrong))
                n_ie[i] += int(np.sum(~detected | wrong))
            else:
                n_ie[i] += int(np.sum(~detected))

    out = []
    for i in range(len(specs)):
        rates = {
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
