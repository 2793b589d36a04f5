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
Every function takes one detector spec, one frame plan and one noise
variance sigma2, or sequences of them (a lone one is broadcast against the
sequences; a sigma2 with np.ndim(sigma2) == 0 is a lone one). An entry's
plan alone gives its slot length, so entries may have any slot length and
any noise variance; each sigma2 must be finite and >= 0, and is checked
before any noise is drawn. All entries are evaluated in one pass: each
(stream, block) is drawn once, at unit variance and the longest slot, and an
entry of length n and variance sigma2 reads sqrt(sigma2) times its flat
prefix (count, n).
gaussian_block scales its unit draw by sqrt(sigma2), so that is the block
the entry's own call draws, bit for bit (channel's counter-based noise;
jdd.bounds relies on the same scaling and flat-prefix contracts). The random
payloads of all lengths come from one payload draw per block, and the
message draws from one per block; jdd.detectors alone turns the payload
uniforms into sign masks (_sign_masks) and reads them.

DAD's idle statistic T(y) = y_p^T 1 + max_m x_m^T y_c has no sigma2 term
and is homogeneous of degree one in y. So on the idle streams each DAD plan
is correlated once per block, on the unit block w, and each of its entries
takes sqrt(sigma2) T(w). This is the one value that may differ in its last
bits from the statistic of gaussian_block(sigma2, ...) noise, T(sqrt(sigma2)
w): for a (76, 12) code at -3 and -1 dB, 50 000 calibration trials and
seeds 0-2, the thresholds of the two forms lay at most 2 ulps (3.1e-16
relative) apart and every P_IE was the same; a rate moves only where a
statistic lies within those ulps of the threshold. A lone DAD entry takes
the same path, so every entry's result is identical to a call with that
entry alone, whichever entries share its call; a lone spec, plan and sigma2
is the same path with one entry, and returns a single result instead of a
list. At sigma2 = 0 the noise is zero (of either sign), so noiseless slots
are the signals exactly.

Each consumer names the comparisons it makes of DAD's and ML decoding's
statistics (codebook._Exact), and ML decoding screens each batch in float32
and recomputes in float64 only the rows whose outcome in those comparisons
the float32 value could change. Calibration names the K largest unit
statistics of each block, which a positive scaling keeps the K largest of
each entry, less those under the K values every entry already holds;
estimate_false_alarm names each entry's comparison of
sqrt(sigma2) T(w) with its gamma; estimate_rates names each DAD entry's
comparison with its gamma and the ML decision. So every threshold, flag and
count is that of the float64 statistics, and only a statistic no comparison
reads may keep a float32 value.

Memory: calibration keeps, per entry, only the K = N - floor((N - 1)(1 -
eps_fa)) + 2 largest of its N idle statistics, merged block by block, and
reads gamma off them: entries x K values, and no array of N. Evaluation statistics are reduced to counts block by block and
never stored. Each variance of a block but the last reads a scaled copy of
the unit block, freed before the next variance's is made, and the last
scales the block in place, so a call with one variance holds one noise
block. Without a code, the first of the two ln cosh tables of HyPED's
random payload overwrites the scaled noise, and jdd.detectors makes the
second, one array of the scaled noise's size per variance. With a code,
the active slots sqrt(sigma2) w + x of each (variance, slot length) are
written into one reused block buffer straight from w, in spans of
whole rows on the usable cores (channel._on_rows), and every entry of a
(variance, length) sees the same slots: each block gets one ML decision per
(variance, slot length), the first DAD entry's argmax, which is ML
decoding's, or else one codebook.ml_decode call, so a slot is correlated
with the codebook once.

Rates carry exact two-sided 95% Clopper-Pearson intervals, whose beta
quantiles come from ``scipy.special.betaincinv``.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from . import codebook
from .channel import (
    TRIALS_PER_BLOCK,
    FramePlan,
    _blocks,
    _noise_variance,
    _on_rows,
    gaussian_block,
    uniform_block,
)
from .detectors import DetectorSpec, _random_payload_statistics, _sign_masks, batch_statistic

__all__ = [
    "RateEstimate",
    "CalibrationResult",
    "clopper_pearson",
    "calibrate_threshold",
    "estimate_rates",
    "estimate_false_alarm",
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


def _entries(spec, plan, sigma2):
    """Line up detector specs, frame plans and noise variances; a lone one is broadcast.

    Returns (specs, plans, sigma2s, single), where `single` says all three
    arguments were lone values, so the caller unwraps its one-entry result,
    and each of sigma2s is a float that _noise_variance accepts.
    """
    lone = (isinstance(spec, DetectorSpec), isinstance(plan, FramePlan), np.ndim(sigma2) == 0)
    columns = [[arg] if one else list(arg) for arg, one in zip((spec, plan, sigma2), lone)]
    size = max(map(len, columns))
    columns = [col * size if len(col) == 1 else col for col in columns]
    if not size or any(len(col) != size for col in columns):
        raise ValueError("need one or more (spec, plan, sigma2) entries; a lone one is broadcast")
    specs, plans, sigma2s = columns
    return specs, plans, [_noise_variance(s2) for s2 in sigma2s], all(lone)


def _by_slot(indices, plans, sigma2s):
    """sigma2 -> slot length -> the entries of `indices` with that slot, in order of first use."""
    groups = {}
    for i in indices:
        groups.setdefault(sigma2s[i], {}).setdefault(plans[i].n, []).append(i)
    return groups


def _scaled(w, sigma2, size, in_place):
    """The first `size` values of sqrt(sigma2) * w, in place or in a new array.

    For the unit-variance block w of a key this is gaussian_block(sigma2,
    ...) of that key bit for bit, since gaussian_block forms that product.
    """
    return np.multiply(w[:size], np.sqrt(sigma2), out=w[:size] if in_place else None)


def _idle_stats(specs, plans, sigma2s, trials, seed, stream, cb=None, exact=None):
    """Yield the per-entry idle statistics of each noise block of `stream`.

    Each block is drawn once, at unit variance and the longest slot. A DAD
    plan is correlated once on the block's flat prefix, and each of its
    entries scales the statistics by sqrt(sigma2); the other entries of each
    (sigma2, length) are evaluated together on the flat prefix (count, n) of
    sqrt(sigma2) times the block, the last variance scaling it in place.
    `exact` maps a DAD plan's entry indices to the codebook._Exact its
    caller reads of the unit statistics; without it every value is exact.
    """
    dad = {}  # DAD plan -> the indices of its entries
    for i, (s, pl) in enumerate(zip(specs, plans)):
        if s.kind == "dad":
            dad.setdefault(pl, []).append(i)
    groups = _by_slot([i for i, s in enumerate(specs) if s.kind != "dad"], plans, sigma2s)
    width = max(pl.n for pl in plans)
    for block, count in _blocks(trials):
        w = gaussian_block(1.0, seed, stream, block, (count, width)).reshape(-1)
        stats = [None] * len(specs)
        for pl, idx in dad.items():
            unit, _ = batch_statistic(specs[idx[0]], w[: count * pl.n].reshape(count, pl.n), pl,
                                      sigma2s[idx[0]], cb=cb, _exact=exact and exact(idx))
            for i in idx:
                stats[i] = np.sqrt(sigma2s[i]) * unit
        for g, (sigma2, lengths) in enumerate(groups.items()):
            z = _scaled(w, sigma2, count * max(lengths), in_place=g == len(groups) - 1)
            for n, idx in lengths.items():
                results = batch_statistic([specs[i] for i in idx], z[: count * n].reshape(count, n),
                                          [plans[i] for i in idx], sigma2, cb=cb)
                for i, (entry_stats, _) in zip(idx, results):
                    stats[i] = entry_stats
            del z  # freed before the next variance's copy is made
        del w  # freed before the next block is drawn
        yield stats


def _calibration_floor(eps_fa):
    """ceil(50 / eps_fa), the fewest calibration trials that resolve eps_fa.

    Where 50 / eps_fa overflows a float, its ceiling is taken in integers.
    """
    quotient = 50 / eps_fa
    num, den = eps_fa.as_integer_ratio()  # eps_fa = num / den exactly
    return math.ceil(quotient) if math.isfinite(quotient) else -(-50 * den // num)


def _largest(values, k):
    """The k largest of `values` (all of them if there are no more), in no order."""
    if values.size <= k:
        return values
    return np.partition(values, values.size - k)[values.size - k :]


def calibrate_threshold(spec, plan, sigma2, trials, eps_fa, seed, cb=None):
    """Fit gamma to the empirical (1 - eps_fa)-quantile of the idle statistic.

    The quantile is linearly interpolated between order statistics of the
    calibration stream, the only stream drawn here; the false alarm rate
    achieved at gamma is measured by estimate_false_alarm, on an independent
    stream. Requires trials >= 50 / eps_fa so the target quantile is
    resolvable. `infeasible` flags a statistic whose atom at its maximum
    outweighs eps_fa, so no threshold meets the target.

    Only the K = N - j + 2 largest of the N idle statistics are kept,
    merged block by block, where j = floor(h) and h = (N - 1)(1 - eps_fa):
    sorted, they are the order statistics N - K to N - 1 of the full sample,
    so its j-th and (j + 1)-th, a and b, sit at index j - (N - K) and one
    above. gamma interpolates them as np.quantile's linear rule does, with
    t = h - j: a + (b - a) t, or b - (b - a)(1 - t) for t >= 1/2, so it is
    the full sample's quantile bit for bit. `infeasible` counts the kept
    values equal to the maximum; an atom that fills all K of them outweighs
    eps_fa either way, since K > N eps_fa.

    With sequences of specs, plans and/or sigma2 (see the module docstring)
    all entries are calibrated on the same noise blocks and a list with one
    CalibrationResult per entry is returned.
    """
    trials, eps_fa = int(trials), float(eps_fa)
    if not 0.0 < eps_fa <= 1.0:  # a quantile level 1 - eps_fa in [0, 1)
        raise ValueError(f"eps_fa must lie in (0, 1], got {eps_fa}")
    need = _calibration_floor(eps_fa)
    if trials < need:
        raise ValueError(f"need >= {need} trials to resolve eps_fa={eps_fa}")
    specs, plans, sigma2s, single = _entries(spec, plan, sigma2)
    h = (trials - 1) * (1.0 - eps_fa)
    j = math.floor(h)
    keep = min(trials, trials - j + 2)
    tops = [np.empty(0)] * len(specs)

    def top_exact(idx):
        # a positive scaling keeps a block's largest; a value under each entry's
        # K kept ones cannot enter them
        held = [(np.sqrt(sigma2s[i]), tops[i].min()) for i in idx if tops[i].size == keep]
        return codebook._Exact(top=keep, floor=tuple(held) if len(held) == len(idx) else ())

    for block_stats in _idle_stats(specs, plans, sigma2s, trials, seed, STREAM_CALIBRATION, cb,
                                   top_exact):
        tops = [_largest(np.concatenate([top, stats]), keep)
                for top, stats in zip(tops, block_stats)]
    t = h - j
    out = []
    for top in tops:
        top = np.sort(top)
        a, b = (float(top[i - (trials - top.size)]) for i in (j, j + 1))
        gamma = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
        # degenerate statistic: an atom at the maximum heavier than the target
        infeasible = np.count_nonzero(top == top[-1]) / trials > eps_fa
        out.append(CalibrationResult(gamma=gamma, infeasible=bool(infeasible)))
    return out[0] if single else out


def _draw_messages(M, seed, block, count):
    u = uniform_block(seed, STREAM_MESSAGES, block, (count,))
    return np.minimum((u * M).astype(np.int64), M - 1) + 1


def _active_slots(y, w, scale, n_p, codewords):
    """Write the active slots x + scale * w of a unit noise block w into y, in spans of rows.

    x is +1 on the n_p preamble columns and codewords(a, b), the +/-1 rows
    [a, b) of the codeword segment, after them. The noise scale * w is
    rounded first, as gaussian_block rounds it, and IEEE addition commutes,
    so each slot is x + z bit for bit, z being gaussian_block's noise.
    """
    def fill(a, b):
        np.multiply(w[a:b], scale, out=y[a:b])
        y[a:b, :n_p] += 1.0
        y[a:b, n_p:] += codewords(a, b)

    _on_rows(fill, len(w), w.shape[1])


def _active_stats(specs, plans, sigma2s, trials, seed, cb=None):
    """Yield, per block of active slots, each entry's statistics and wrong ML decisions.

    Each noise block is drawn once, at unit variance and the longest slot.
    Without a code, the random payloads of every entry come from one payload
    draw and one set of sign masks per block, and each variance's noise is
    sqrt(sigma2) times the block, the last variance scaling it in place;
    _random_payload_statistics makes its own tables and span buffers, and
    the wrong decisions are None. With a code, one message draw per block
    gives the codewords, each (sigma2, length) writes its slots into one
    buffer, made here and reused by every block, and its entries share one
    ML decision, whose mismatches with the messages are the wrong decisions.
    """
    groups = _by_slot(range(len(specs)), plans, sigma2s)
    width = max(pl.n for pl in plans)
    # with a code, the active slots of every block
    buf = None if cb is None else np.empty(min(trials, TRIALS_PER_BLOCK) * width)
    for block, count in _blocks(trials):
        w = gaussian_block(1.0, seed, STREAM_ACTIVE_NOISE, block, (count, width)).reshape(-1)
        stats, wrong = [None] * len(specs), [None] * len(specs)
        if cb is None:
            # one draw serves every payload length: a (count, n_c) draw is its prefix
            masks = _sign_masks(uniform_block(seed, STREAM_PAYLOAD, block,
                                              (count * max(pl.n_c for pl in plans),)))
            for g, (sigma2, lengths) in enumerate(groups.items()):
                idx = [i for entries in lengths.values() for i in entries]
                z = _scaled(w, sigma2, count * max(lengths), in_place=g == len(groups) - 1)
                results = _random_payload_statistics([specs[i] for i in idx], [plans[i] for i in idx],
                                                     z, count, masks, sigma2)
                for i, entry_stats in zip(idx, results):
                    stats[i] = entry_stats
                del z  # freed before the next variance's copy is made
            del masks  # freed before the next block is drawn
        else:
            m = _draw_messages(cb.M, seed, block, count)

            def codewords(a, b):
                return cb.codewords[m[a:b] - 1]

            for sigma2, lengths in groups.items():
                for n, idx in lengths.items():
                    # every plan of a length puts the codeword in the same columns
                    y = buf[: count * n].reshape(count, n)
                    n_p = n - cb.n_c
                    _active_slots(y, w[: count * n].reshape(count, n), np.sqrt(sigma2), n_p,
                                  codewords)
                    # read: each DAD entry's statistic against its gamma, and the ML decision
                    exact = codebook._Exact(at=tuple((1.0, specs[i].gamma) for i in idx
                                                     if specs[i].kind == "dad"), argmax=True)
                    results = batch_statistic([specs[i] for i in idx], y, [plans[i] for i in idx],
                                              sigma2, cb=cb, _exact=exact)
                    # one ML decision per block and slot: DAD's argmax is ML decoding's
                    decided = next((m_hat for _, m_hat in results if m_hat is not None), None)
                    if decided is None:
                        decided, _ = codebook.ml_decode(cb, y[:, n_p:], _exact=exact)
                    for i, (entry_stats, _) in zip(idx, results):
                        stats[i], wrong[i] = entry_stats, decided != m
        del w  # freed before the next block is drawn
        yield stats, wrong


def _thresholded(spec, plan, sigma2, trials):
    """Check an evaluation call: (trials, specs, plans, sigma2s, single), every gamma set."""
    trials = int(trials)
    if trials < 1:
        raise ValueError("need at least one trial")
    specs, plans, sigma2s, single = _entries(spec, plan, sigma2)
    if not all(np.isfinite(s.gamma) for s in specs):
        raise ValueError("detector threshold gamma is not set; calibrate first")
    return trials, specs, plans, sigma2s, single


def estimate_false_alarm(spec, plan, sigma2, trials, seed, cb=None):
    """Monte Carlo false alarm rate at the calibrated threshold in `spec.gamma`.

    Idle slots of the evaluation stream, independent of the calibration
    stream, give the one estimate of the false alarm rate at gamma, as a
    RateEstimate. With sequences of specs, plans and/or sigma2 (see the
    module docstring) all entries share the idle noise and a list with one
    RateEstimate per entry is returned.
    """
    trials, specs, plans, sigma2s, single = _thresholded(spec, plan, sigma2, trials)
    n_fa = [0] * len(specs)

    def at_gammas(idx):  # each entry compares sqrt(sigma2) times the unit statistic
        return codebook._Exact(at=tuple((np.sqrt(sigma2s[i]), specs[i].gamma) for i in idx))

    for block_stats in _idle_stats(specs, plans, sigma2s, trials, seed, STREAM_IDLE_EVAL, cb,
                                   at_gammas):
        for i, (stats, s) in enumerate(zip(block_stats, specs)):
            n_fa[i] += int(np.sum(stats >= s.gamma))
    out = [RateEstimate.from_counts(n, trials) for n in n_fa]
    return out[0] if single else out


def estimate_rates(spec, plan, sigma2, trials, seed, cb=None):
    """Monte Carlo error rates of active slots at the threshold in `spec.gamma`.

    Returns a dict with keys pmd, pcw, pie, from active slots with uniformly
    drawn messages (or i.i.d. random payload when no codebook is supplied).
    pcw is conditioned on detection and is None when no codebook is attached
    or no trial was detected. No idle slot is drawn here: the false alarm
    rate comes from estimate_false_alarm.

    With sequences of specs, plans and/or sigma2 (see the module docstring)
    all entries share the active noise and the message draws, and a list
    with one dict per entry is returned.
    """
    trials, specs, plans, sigma2s, single = _thresholded(spec, plan, sigma2, trials)
    if cb is not None and any(pl.n_c != cb.n_c for pl in plans):
        raise ValueError(f"every plan must carry the codewords: n_c={cb.n_c}")
    n_detected = [0] * len(specs)
    n_cw_err = [0] * len(specs)
    for block_stats, block_wrong in _active_stats(specs, plans, sigma2s, trials, seed, cb):
        for i, (s, stats, wrong) in enumerate(zip(specs, block_stats, block_wrong)):
            detected = stats >= s.gamma
            n_detected[i] += int(np.sum(detected))
            if wrong is not None:
                n_cw_err[i] += int(np.sum(detected & wrong))

    out = []
    for i in range(len(specs)):
        # a missed slot and a detected wrong message are disjoint, so the
        # inclusive errors are the misses plus the detected wrong messages
        n_md = trials - n_detected[i]
        out.append({
            "pmd": RateEstimate.from_counts(n_md, trials),
            "pie": RateEstimate.from_counts(n_md + n_cw_err[i], trials),
            "pcw": (RateEstimate.from_counts(n_cw_err[i], n_detected[i])
                    if cb is not None and n_detected[i] > 0 else None),
        })
    return out[0] if single else out
