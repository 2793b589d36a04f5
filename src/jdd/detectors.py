"""Detection statistics for the slotted present/absent decision.

Every statistic is a pure function of the observation and accepts either a
single slot (n,) or a batch (..., n); batching is what makes the Monte Carlo
engine fast. All likelihood ratios are kept in the log domain so nothing
underflows at n ~ 100 and sigma2 ~ 1.

DetectorSpec names the three detectors the sweeps simulate (preamble,
HyPED-exact, DAD), which batch_statistic evaluates for the Monte Carlo
engine; active slots with random payloads take the engine's other path,
_random_payload_statistics, which shares HyPED's row kernel and reads the
payload signs as the one-byte masks _sign_masks forms, here alone, from the
engine's uniforms. It scores every entry in one channel._on_slots pass
over the engine's unit noise block, so the pass holds no other
block-sized array.
stat_codebook_aided, the optimal joint test, is a reference statistic,
called directly; the genie's rows are closed forms (jdd.bounds).
"""

from dataclasses import dataclass, replace

import numpy as np

from . import codebook
from .channel import FramePlan, _by_slot, _noise_variance, _on_rows, _on_slots
from .codebook import _argmax_rows, _tiled_correlation

__all__ = [
    "DetectorSpec",
    "stat_preamble",
    "stat_hyped_exact",
    "stat_dad",
    "stat_codebook_aided",
    "batch_statistic",
]


@dataclass(frozen=True)
class DetectorSpec:
    """Which statistic to threshold, and the detection threshold `gamma`.

    kind: one of "preamble", "hyped-exact", "dad", the detectors the sweeps
    simulate.
    """

    kind: str
    gamma: float = np.nan

    KINDS = ("preamble", "hyped-exact", "dad")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")

    def with_gamma(self, gamma):
        return DetectorSpec(self.kind, float(gamma))


def _check_len(y, n, what="observation"):
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != n:
        raise ValueError(f"{what} length {y.shape[-1]} != expected {n}")
    return y


def _log_cosh_in_place(ax):
    """Overwrite the float array `ax` with ln cosh(ax) = |ax| - ln 2 + log1p(exp(-2|ax|))."""
    np.abs(ax, out=ax)
    # the correction term is already 0 to machine precision past ~19; the cap
    # just keeps 2*ax from overflowing for astronomically large inputs
    t = np.minimum(ax, 400.0)
    t *= -2.0
    np.exp(t, out=t)
    np.log1p(t, out=t)
    ax -= np.log(2.0)
    ax += t


def stat_preamble(y_p, plan, sigma2):
    """Matched-filter LLR of the all-plus preamble: sum of (2 y_i - 1) / (2 sigma2)."""
    s2 = _noise_variance(sigma2)
    if plan.n_p < 1:
        raise ValueError("preamble statistic needs n_p >= 1")
    return _preamble_rows(_check_len(y_p, plan.n_p, "preamble segment"), s2)


def _preamble_rows(y_p, s2):
    """stat_preamble of the preamble segments `y_p` (..., n_p) at noise variance s2."""
    return ((2.0 * y_p - 1.0) / (2.0 * s2)).sum(axis=-1)


def stat_hyped_exact(y, plan, sigma2):
    """Exact hybrid preamble/energy LLR of the whole slot.

    Equiprobable payload symbols, so the payload term is the sum of
    ln cosh(y_c / sigma2).

    `plan` may also be a sequence of splits of the same slot; the statistics
    are then stacked along a new leading axis, one per split. The ln cosh
    terms are computed once, from the shortest preamble on, and each split
    sums its own columns of them, so every split's value is bit-identical to
    a call with that split alone.

    The slots are evaluated in spans of whole rows on the usable cores
    (channel._on_rows), each span writing every split's statistics of its
    rows. Every term is elementwise or one row's sum, so no value depends on
    the spans or on the core count.
    """
    plans = [plan] if isinstance(plan, FramePlan) else list(plan)
    y = _check_len(y, plans[0].n)
    n = plans[0].n
    if any(pl.n != n for pl in plans):
        raise ValueError("all splits must cover the same slot length")
    s2 = _noise_variance(sigma2)
    first = min(pl.n_p for pl in plans)
    rows = y.reshape(-1, n)  # a single slot or a stack is one matrix of slots
    out = np.empty((len(plans), len(rows)))

    def fill(a, b):
        ya = rows[a:b]
        # the payload LLR of one symbol: ln[(e^t + e^-t)/2] = ln cosh(t), t = y / sigma2
        terms = np.divide(ya[:, first:], s2)
        _log_cosh_in_place(terms)
        for pl, o in zip(plans, out):
            _hyped_rows(o[a:b], ya[:, : pl.n_p].sum(axis=-1), terms[:, pl.n_p - first :], pl.n, s2)

    _on_rows(fill, len(rows), n)
    out = out.reshape(len(plans), *y.shape[:-1])
    return out[0] if isinstance(plan, FramePlan) else out


def _hyped_rows(out, pre, terms, n, s2):
    """Write HyPED's statistics of a span of rows to `out`, which `pre` may be.

    `pre` holds the rows' preamble sums sum(y_p) and `terms` their payload
    terms ln cosh(y_c / sigma2); the statistic of a slot of length n is
    pre / sigma2 + sum(terms) - n / (2 sigma2).
    """
    np.add(terms.sum(axis=-1), pre / s2, out=out)
    out -= n / (2.0 * s2)


def _sign_masks(u):
    """Sign masks of random payload symbols, one byte each, from their uniforms `u`.

    A symbol is +1 where its uniform is below 1/2 and -1 elsewhere; its mask,
    an int8, is 0 or -1, all ones (_random_payload_statistics).
    """
    return np.negative(u >= 0.5, dtype=np.int8)


def _random_payload_statistics(specs, plans, sigma2s, w, count, masks):
    """Statistics of active slots x + z with i.i.d. random payloads, one array per entry.

    `w` is a flat unit-variance noise block of `count` rows at the longest
    slot, and an entry's noise z is its slots there at its variance
    (channel._on_slots). x is +1 on the preamble, and symbol j of row r of
    the payload of length n_c is -1 where the int8 masks[r * n_c + j] is
    all ones and +1 where it is zero: the _sign_masks of jdd.montecarlo's
    payload uniforms. The entries are preamble and HyPED-exact. `w` and
    `masks` are only read, so one block and one set of masks serve every
    variance.

    channel._on_slots hands the kernel each span's slots at each variance in
    turn. A payload symbol adds one of two HyPED terms, ln cosh((z + 1) /
    sigma2) or ln cosh((z - 1) / sigma2), so the kernel computes both once
    per noise value, the second table then holding the XOR of the two terms'
    bits; each HyPED entry picks its terms by their bits, (+1 term) XOR (XOR
    & mask), the mask widened to int64 by the pick, and sums them through
    stat_hyped_exact's row kernel, after its preamble sums of z + 1. Every
    value is elementwise or one row's sum, so each equals stat_hyped_exact
    on the assembled slots bit for bit, whatever the spans or the core
    count.
    """
    for s, pl in zip(specs, plans):
        if s.kind not in ("preamble", "hyped-exact"):
            raise ValueError(f"{s.kind} detection needs a codebook")
        if s.kind == "preamble" and pl.n_p < 1:  # the sweeps never simulate it without a code
            raise ValueError("preamble statistic needs n_p >= 1")
    out = [np.empty(count) for _ in specs]

    def statistics(s2, plus, rest, starts):
        # z - 1.0 is z + x at x = -1, and z + 1.0 at x = +1, bit for bit
        minus = np.subtract(plus, 1.0, out=rest[0][: plus.size])
        plus += 1.0
        for n, idx, r0, r1, at in starts:
            y = plus[at : at + (r1 - r0) * n].reshape(r1 - r0, n)
            for i in idx:
                n_p = plans[i].n_p
                if specs[i].kind == "preamble":
                    out[i][r0:r1] = _preamble_rows(y[:, :n_p], s2)
                else:
                    np.add.reduce(y[:, :n_p], axis=-1, out=out[i][r0:r1])
        for t in (minus, plus):
            t /= s2
            _log_cosh_in_place(t)
        # the same values as int64 bit patterns, for the picks: on two cores a
        # boolean-masked np.copyto of the -1 terms over the +1 terms took the
        # rate-hyped benchmark's random-payload estimate_rates call (20 splits,
        # 20 000 trials) 0.15-0.16 s, picks by bits 0.10-0.11 s
        plus_bits, flips = plus.view(np.int64), minus.view(np.int64)
        np.bitwise_xor(flips, plus_bits, out=flips)
        for n, idx, r0, r1, at in starts:
            rows_plus, rows_flips = (t[at : at + (r1 - r0) * n].reshape(r1 - r0, n)
                                     for t in (plus_bits, flips))
            for i in idx:
                if specs[i].kind == "preamble":
                    continue
                n_p, n_c = plans[i].n_p, plans[i].n_c
                signs = masks[r0 * n_c : r1 * n_c].reshape(r1 - r0, n_c)
                terms = rest[1][: signs.size].reshape(signs.shape)
                picked = terms.view(np.int64)
                np.bitwise_and(rows_flips[:, n_p:], signs, out=picked)
                np.bitwise_xor(picked, rows_plus[:, n_p:], out=picked)
                _hyped_rows(out[i][r0:r1], out[i][r0:r1], terms, n, s2)

    _on_slots(w, count, _by_slot(range(len(specs)), [pl.n for pl in plans], sigma2s),
              statistics, 3)
    return out


def stat_dad(y, cb, plan, _exact=None):
    """Decoder-aided detection: y_p^T x_p + max_m x_m^T y_c, plus the argmax.

    With n_p = 0 this is exactly the correlation form of the DAD rule; with a
    preamble the known-preamble correlation is added to every codeword
    correlation, making the statistic the joint log-likelihood ratio of the
    whole slot up to the 1/sigma2 scale. The argmax and the maximum are ML
    decoding's (codebook.ml_decode), so the returned message estimate is the
    ML decision and the codeword correlation, reduced in row tiles, is
    computed once for both; memory stays at one tile whatever 2^k is.

    `_exact` (a codebook._Exact, private to the Monte Carlo engine) names
    the comparisons the caller will make of the statistics: ml_decode
    screens the batch in float32 and keeps those comparisons, and only
    those, exact (the preamble sum is the offset of each row's statistic).
    """
    y = _check_len(y, plan.n)
    if plan.n_c != cb.n_c:
        raise ValueError(f"plan n_c={plan.n_c} != codebook n_c={cb.n_c}")
    y_p, y_c = plan.split(y)
    pre = y_p.sum(axis=-1) if plan.n_p else 0.0
    m_hat, best = codebook.ml_decode(cb, y_c, _exact=_exact and replace(_exact, offset=pre))
    stat = pre + best
    return (float(stat) if y.ndim == 1 else stat), m_hat


def stat_codebook_aided(y, cb, sigma2, gamma_a):
    """Log of the optimal joint test ratio.

    Computes ln[(gamma_a sum_m p(y|x_m) + max_m p(y|x_m)) / p(y|x_0)] in the
    log domain. Per-codeword exponents are a_m = x_m^T y / sigma2 and the
    common energy term -n/(2 sigma2) (all codewords have norm sqrt(n)) is
    kept so the value matches the density quotient exactly.
    """
    if not (np.isfinite(gamma_a) and gamma_a >= 0.0):
        raise ValueError(f"gamma_a must be finite and >= 0, got {gamma_a}")
    if cb.k > 16:
        raise ValueError("codebook-aided detection caps at k <= 16 (exhaustive sum)")
    y = _check_len(y, cb.n_c)
    s2 = _noise_variance(sigma2)

    def reduce(a):  # one correlation tile, overwritten in place
        a /= s2
        m, a_max = _argmax_rows(a)
        a -= a_max[:, None]
        return m, a_max, np.exp(a, out=a).sum(axis=1)

    m_hat, a_max, total = _tiled_correlation(y, cb.codewords, reduce)
    # at gamma_a = 0 the log term is log(0 * total + 1) = 0.0, so stat is a_max's exactly
    stat = a_max + np.log(gamma_a * total + 1.0) - cb.n_c / (2.0 * s2)
    if y.ndim == 1:
        return float(stat), int(m_hat) + 1
    return stat, m_hat + 1


def batch_statistic(spec, y, plan, sigma2, cb=None, _exact=None):
    """Evaluate a DetectorSpec on a batch; returns (stats, m_hat or None).

    m_hat is DAD's 1-based ML decision; the other detectors decode
    separately. `_exact` is handed to every DAD entry's stat_dad.

    `spec` and `plan` may instead be equal-length lists of entries that share
    the observation batch `y`; the result is then a list with one
    (stats, m_hat) pair per entry. All HyPED-exact entries are evaluated by
    one stat_hyped_exact call, which computes the ln cosh terms of the block
    once for all their splits.
    """
    if isinstance(spec, DetectorSpec):
        return batch_statistic([spec], y, [plan], sigma2, cb, _exact=_exact)[0]
    if len(spec) != len(plan):
        raise ValueError("need one plan per detector spec")
    out = [None] * len(spec)
    hyped = []
    for i, (s, pl) in enumerate(zip(spec, plan)):
        if s.kind == "hyped-exact":
            hyped.append(i)
        elif s.kind == "dad":
            out[i] = stat_dad(y, cb, pl, _exact=_exact)
        else:
            out[i] = stat_preamble(np.asarray(y)[..., : pl.n_p], pl, sigma2), None
    if hyped:
        for i, st in zip(hyped, stat_hyped_exact(y, [plan[i] for i in hyped], sigma2)):
            out[i] = (st, None)
    return out
