"""Finite-blocklength bounds for joint detection and decoding on BI-AWGN.

Closed forms: the Gaussian tail Q and its inverse, the genie-aided converse
on the blocklength/SNR, the decoder-aided-detection (DAD) achievability
bounds and threshold choice, the preamble's P_MD (for jdd.sweeps) and the
inclusive-error sandwich. Monte
Carlo: the dependence-testing (DT) achievability bound and the meta-converse
bound, both driven by the BI-AWGN information density with equiprobable inputs.

The sweeps plan every pass of these Monte Carlo bounds in one place,
``jdd.sweeps._bound_values``, under one 64 MiB budget of densities per
stream; the keywords below are how a planned pass is handed to this module.

A pass is named by one flat list of ``(sigma2, length)`` keys: the call's
own ``(sigma2, n)``, then the keys of its ``more=`` keyword
(``info_density_samples``, ``_meta_converse_beta``, ``meta_converse_max_M``
and ``meta_converse_min_error``). With ``more`` the call returns one result
per key, in key order, each equal bit for bit to that key's own call;
without it, the one result. ``dens=`` in ``dt_bound_max_M`` takes a
stream-1 sample drawn that way; the search on it equals the call that draws
its own sample.

The keys share one noise pass. The noise is counter-based (see
jdd.channel), so the ``(TRIALS_PER_BLOCK, l)`` block of a stream is the
first ``TRIALS_PER_BLOCK * l`` values of the flattened ``(TRIALS_PER_BLOCK,
n)`` block for the same ``(seed, stream, block)`` whenever ``l <= n`` (the
flat-prefix contract); a last block of b < ``TRIALS_PER_BLOCK`` trials draws
only its first b rows. And ``gaussian_block(sigma2, ...)`` equals
``sqrt(sigma2) * gaussian_block(1.0, ...)`` bit for bit, since it forms that
same product (the noise-variance contract). So each block is drawn once, at
unit variance and at the longest key's width, and read in one pass of row
spans: for each variance in turn, a span scales its own flat values into
its thread's buffers, takes their softplus terms and reduces them to the
sums of every key's rows that start inside it. The noise block is the only
array of a block's size a pass holds. No result depends on which keys
share a pass.

``meta_converse_min_error`` draws each of its two streams once and holds one
at a time. Its threshold, the pivot, is a sample of the type-II stream 3,
read off that sorted sample by one cumulative sum of its weights, so
stream 3 is reduced to one pivot per key and freed; then the threshold
stream 2 is drawn once, for the keys that have a pivot only, and gives each
its count at or below the pivot.
"""

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, log_ndtr, ndtri, ndtri_exp

from .channel import TRIALS_PER_BLOCK, _SPAN, _blocks, _on_cores, _thread_buffer, gaussian_block

__all__ = [
    "q_func",
    "q_inv",
    "Requirements",
    "min_blocklength",
    "min_snr_db",
    "dad_gamma",
    "dad_error_bounds",
    "dad_max_code_size",
    "info_density_samples",
    "dt_error_estimate",
    "dt_bound_max_M",
    "meta_converse_max_M",
    "meta_converse_min_error",
    "pie_sandwich",
]


def q_func(x):
    """Gaussian upper-tail probability Q(x) = P[N(0,1) > x], scalars or arrays elementwise.

    Evaluated through erfc, which keeps the relative error at machine
    precision deep into the tail (Q(10) ~ 7.6e-24 is still accurate).
    """
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def q_inv(p):
    """Inverse of q_func on (0, 1), scalars or arrays elementwise.

    Raises ValueError outside the open unit interval.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("q_inv requires 0 < p < 1")
    # Q^{-1}(p) = -Phi^{-1}(p); ndtri is accurate to ~1 ulp over the full range.
    out = -ndtri(p)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Requirements:
    """Target error rates: false alarm, missed detection, inclusive error."""

    eps_fa: float
    eps_md: float
    eps_ie: float

    def __post_init__(self):
        for name in ("eps_fa", "eps_md", "eps_ie"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


def _clip01(p):
    return float(min(1.0, max(0.0, p)))


def min_blocklength(sigma2, req):
    """Genie converse: n >= sigma2 * (Q^-1(eps_fa) + Q^-1(eps_md))^2.

    It is the genie's detection-only converse, so it does not depend on the
    code size M: at -3 dB with targets (1e-4, 1e-4, 1e-3) it gives 55.2,
    where P_IE >= Q(sqrt(n / sigma2) - Q^-1(eps_fa / M)), which counts M's
    false alarms, needs n >= 72.9 at M = 2^12. Returns the real-valued
    bound; take the ceiling for integer feasibility.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    gap = q_inv(req.eps_fa) + q_inv(req.eps_md)
    return float(sigma2 * gap * gap)


def min_snr_db(n, req):
    """Same converse solved for the SNR at fixed n, in dB.

    Returns -inf when the detection targets are met at any SNR (gap = 0).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gap = q_inv(req.eps_fa) + q_inv(req.eps_md)
    if gap <= 0:
        return float("-inf")
    return float(10.0 * np.log10(gap * gap / (2.0 * n)))


def _q_inv_over(eps, M):
    """Q^-1(eps / M) for an int or float M >= 1.

    q_inv(eps / M) wherever eps / M is a normal double. Otherwise (M too
    large to divide by, or a subnormal or zero quotient) it is taken in the
    log domain as -ndtri_exp(ln eps - ln M), so code sizes past 2^1024 do
    not overflow.
    """
    try:
        p = eps / M
    except OverflowError:  # an int M past the float range
        p = 0.0
    if p >= sys.float_info.min:
        return q_inv(p)
    return float(-ndtri_exp(math.log(eps) - math.log(M)))


def _floor_quotient(p, q):
    """floor(p / q) of two positive floats, exactly, as an int of any size.

    For a quotient past the float range, where p / q overflows to inf.
    """
    (a, b), (c, d) = p.as_integer_ratio(), q.as_integer_ratio()
    return a * d // (b * c)


def dad_gamma(n, sigma2, eps_fa, M):
    """Union-bound threshold gamma = sqrt(n sigma2) * Q^-1(eps_fa / M).

    Q^-1 moves to the log domain where eps_fa / M is not a normal double
    (see _q_inv_over).
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    return float(np.sqrt(n * sigma2) * _q_inv_over(eps_fa, M))


def dad_error_bounds(n, sigma2, gamma, M):
    """DAD achievability: (P_FA upper bound, P_MD upper bound).

    P_FA <= M Q(gamma / sqrt(n sigma2)), P_MD <= 1 - Q((gamma - n) / sqrt(n sigma2));
    both clipped to [0, 1]. For an int M past the float range, P_FA's bound
    is formed as exp(ln M + ln Q(gamma / sqrt(n sigma2))). The
    inclusive-error upper bound is pmd_ub plus an achievable codeword error
    rate, see pie_sandwich.
    """
    scale = np.sqrt(n * sigma2)
    try:
        pfa_ub = _clip01(M * q_func(gamma / scale))
    except OverflowError:  # an int M past the float range
        pfa_ub = math.exp(min(0.0, math.log(M) + float(log_ndtr(-gamma / scale))))
    pmd_ub = _clip01(1.0 - q_func((gamma - n) / scale))
    return pfa_ub, pmd_ub


def _preamble_pmd(n_p, sigma2, eps_fa):
    """Closed-form P_MD of the n_p-symbol preamble matched filter at P_FA eps_fa.

    The genie detector is this matched filter over the whole slot (n_p = n).
    """
    return float(1.0 - q_func(q_inv(eps_fa) - np.sqrt(n_p / sigma2)))


def dad_max_code_size(n, sigma2, req, m_star):
    """Largest code size certified by the DAD achievability bound.

    The detection limit m_det = floor(eps_fa / Q(sqrt(n / sigma2) - Q^-1(eps_md)))
    keeps P_MD's bound, 1 - Q(Q^-1(eps_fa / M) - sqrt(n / sigma2)), within
    eps_md. While that bound alone uses up eps_ie at M = m_det, that is while
    p_e = eps_ie - 1 + Q(Q^-1(eps_fa / M) - sqrt(n / sigma2)) <= 0, m_det is
    halved. The code size is then min(m_det, m_star(p_e, n, sigma2)): one
    call of `m_star`, any achievability oracle for synchronous transmission
    that is monotone in its target (the DT bound in this package), at the
    inclusive-error budget P_MD leaves. P_MD's bound falls as M falls, so at
    any smaller M that budget only grows, and the oracle's cap there could
    only confirm this one. Returns 0 when infeasible.
    """
    if n < min_blocklength(sigma2, req):
        return 0
    root = np.sqrt(n / sigma2)
    eps_fa, denom = float(req.eps_fa), float(q_func(root - q_inv(req.eps_md)))
    if denom > 0:
        bound = eps_fa / denom
        # a subnormal denominator: floor the exact quotient
        m_det = min(1 << n, math.floor(bound) if math.isfinite(bound)
                    else _floor_quotient(eps_fa, denom))
    else:
        m_det = 1 << n  # detection term underflows: detection is unconstraining
    while m_det >= 1:
        p_e = req.eps_ie - 1.0 + q_func(_q_inv_over(req.eps_fa, m_det) - root)
        if p_e > 0.0:
            return max(0, min(m_det, int(m_star(p_e, n, sigma2))))
        m_det //= 2
    return 0


# ---------------------------------------------------------------------------
# information-density Monte Carlo machinery (DT and meta-converse)
# ---------------------------------------------------------------------------

# the fewest trials (densities) a DT or meta-converse bound is estimated from
_MIN_TRIALS = 10_000


def _density_keys(n, sigma2, more):
    """The call's own (sigma2, n) key, then `more`'s; lengths become ints >= 1.

    Every variance must be finite and > 0: the density divides by it.
    """
    keys = [(sigma2, int(n)), *((s2, int(l)) for s2, l in more or ())]
    if any(l < 1 for _, l in keys):
        raise ValueError(f"lengths must be >= 1, got {[l for _, l in keys]}")
    bad = [s2 for s2, _ in keys if not (math.isfinite(s2) and s2 > 0.0)]
    if bad:
        raise ValueError(f"noise variance sigma2 must be finite and > 0, got {bad[0]}")
    return keys


def info_density_samples(n, sigma2, trials, seed, stream=1, more=None):
    """i.i.d. samples of the n-use BI-AWGN information density under the joint law.

    Equiprobable +/-1 inputs; by symmetry the all-plus input is transmitted
    and i = n ln 2 - sum_j ln(1 + exp(-2 y_j / sigma2)) with y_j = 1 + z_j.

    With ``more``, further ``(sigma2, length)`` keys (each length >= 1 and
    each variance finite and > 0), returns a list holding one sample array
    per key, this call's own ``(sigma2, n)`` first, each equal bit for bit
    to the call for that key alone: trial j of length l sums the terms of
    flat values ``j*l .. j*l + l - 1`` (the contracts in the module
    docstring).

    Each noise block is drawn once, at unit variance and at the longest
    key's width, and freed before the next draw; no other array of its size
    is held. One pass over the usable cores (channel._on_cores) then reads
    it in spans of whole rows at that width, about channel._SPAN values
    each. For each variance in turn, a span scales its flat values (the
    product gaussian_block(sigma2) forms) and writes their softplus terms
    into its thread's own buffers, past its end by up to width - 1 values,
    since a shorter row that starts inside the span may end beyond it. The
    sums of every key's rows that start inside the span go straight into
    that key's output, where l ln 2 - sum is formed in place. Every value is
    elementwise or one row's sum, so none depends on the spans or on the
    core count.
    """
    keys = _density_keys(n, sigma2, more)
    trials = int(trials)
    outs = [np.empty(trials) for _ in keys]
    by_variance = {}  # sigma2 -> its keys' (length, output)
    for (s2, l), out in zip(keys, outs):
        by_variance.setdefault(s2, []).append((l, out))
    width = max(l for _, l in keys)
    rows = max(1, _SPAN // width)
    # each thread's softplus terms and scratch, kept for this call only: a
    # buffer that outlived it would stay in the heap between later calls
    terms, scratch = {}, {}
    for block, b in _blocks(trials):
        done = block * TRIALS_PER_BLOCK
        unit = gaussian_block(1.0, seed, stream, block, (b, width)).reshape(-1)

        def densities(a, c):
            lo = a * width  # rows [a, c) hold flat values [lo, c * width)
            t_buf = _thread_buffer(terms, (rows + 1) * width - 1)
            s_buf = _thread_buffer(scratch, t_buf.size)
            for s2, entries in by_variance.items():
                # each key's rows [r0, r1) that start inside the span
                starts = [(l, out, -(-lo // l), min(b, -(-c * width // l)))
                          for l, out in entries]
                starts = [start for start in starts if start[2] < start[3]]
                if not starts:
                    continue
                hi = max(l * r1 for l, _, _, r1 in starts)
                # z = sqrt(sigma2) * unit, y = 1 + z, t = -2 y / sigma2, then the
                # stable softplus ln(1 + e^t) = max(t, 0) + log1p(exp(-|t|))
                t = np.multiply(unit[lo:hi], np.sqrt(s2), out=t_buf[: hi - lo])
                t += 1.0
                t *= -2.0
                t /= s2
                s = np.abs(t, out=s_buf[: hi - lo])
                np.negative(s, out=s)
                np.exp(s, out=s)
                np.log1p(s, out=s)
                np.maximum(t, 0.0, out=t)
                t += s
                for l, out, r0, r1 in starts:
                    d = np.add.reduce(t[r0 * l - lo : r1 * l - lo].reshape(r1 - r0, l), axis=1,
                                      out=out[done + r0 : done + r1])
                    np.subtract(l * np.log(2.0), d, out=d)

        _on_cores(densities, b, rows)
        del unit  # the block is freed before the next draw
    return outs if more is not None else outs[0]


def _dt_threshold(M):
    """ln((M - 1) / 2), the DT bound's density threshold for code size M > 1.

    For an int M past the float range it is ln(M - 1) - ln 2.
    """
    try:
        return np.log((M - 1) / 2.0)
    except OverflowError:  # an int M past the float range
        return math.log(M - 1) - math.log(2.0)


def _dt_terms(info_dens, M):
    """The DT bound's per-sample terms exp(-max(0, i - ln((M - 1) / 2))) for M > 1."""
    return np.exp(-np.maximum(0.0, info_dens - _dt_threshold(M)))


def _dt_guide(info_dens):
    """A cheap approximation of the DT estimate's mean, as a function of M.

    With the N densities sorted, d_0 <= ... <= d_{N-1}, and k = #{d <= t}
    at t = ln((M - 1) / 2), the mean of _dt_terms is
    (k + sum_{j >= k} e^(t - d_j)) / N = (k + e^(t - d_k) R_k) / N, where
    R_k = sum_{j >= k} e^(d_k - d_j) lies in [1, N - k]. R is e^(d_k - d_0)
    times the suffix sums of the shifted exponentials e^(d_0 - d_j), every
    shift clipped at 700, and t - d_k < 0: nothing overflows however large
    the threshold (about 690 at n = 1000). The value differs from the
    pairwise mean by rounding (and by the clipped shifts, past a range of
    700 nats); it guides the search, never decides it.
    """
    d = np.sort(info_dens)
    shift = np.minimum(d - d[0], 700.0)
    ratio = np.exp(shift) * np.cumsum(np.exp(-shift)[::-1])[::-1]

    def mean(M):
        t = _dt_threshold(M)
        k = int(np.searchsorted(d, t, side="right"))
        return 1.0 if k == d.size else (k + math.exp(t - d[k]) * ratio[k]) / d.size

    return mean


def _largest_meeting(meets, top, start):
    """The largest M in [1, top] with meets(M), or 1, at which meets is never called.

    `meets` must hold up to some M and fail above it. The search gallops
    from `start`, doubling its step, to a bracket of the answer, then
    bisects inside it, so a start at the answer costs two calls.
    """
    lo, hi, step = 1, top, 1
    start = min(max(start, 1), top)
    if start == 1 or meets(start):
        lo = start
        while lo < hi:
            probe = min(hi, lo + step)
            if not meets(probe):
                hi = probe - 1
                break
            lo, step = probe, 2 * step
    else:
        hi = start - 1
        while lo < hi:
            probe = max(lo + 1, hi - step + 1)
            if meets(probe):
                lo = probe
                break
            hi, step = probe - 1, 2 * step
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if meets(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def dt_error_estimate(info_dens, M):
    """DT bound on the average error for code size M: (estimate, stderr).

    E[exp(-max(0, i - ln((M - 1) / 2)))] over the supplied information-density
    samples, of which there must be _MIN_TRIALS or more. M = 1 is error-free
    by convention.
    """
    if len(info_dens) < _MIN_TRIALS:
        raise ValueError(f"need at least {_MIN_TRIALS} densities for the DT bound, "
                         f"got {len(info_dens)}")
    if M <= 1:
        return 0.0, 0.0
    vals = _dt_terms(info_dens, M)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.size))


def dt_bound_max_M(n, sigma2, target_error, trials, seed, dens=None):
    """Largest M whose DT error bound stays below target_error (Monte Carlo).

    A single sample of information densities is reused across the binary
    search over M: ``dens`` when given (the stream-1 sample of length n for
    this seed and trials, e.g. one entry of an info_density_samples call
    with ``more=``), otherwise drawn here. The search compares the
    estimate only, the mean of dt_error_estimate bit for bit; the stderr is
    computed once, by dt_error_estimate at the returned M, which warns when
    it exceeds 10% of the target.

    The estimate is monotone in M (every step of _dt_terms is, and so is a
    pairwise sum in each term), so any search that brackets where it passes
    the target returns the M of the plain bisection over [1, 2^n]. A guide
    from the sorted sample (_dt_guide), searched at no cost in estimates,
    says where to start, and the estimate itself confirms a bracket and
    bisects inside it. Past 2^53 many M share one threshold, so each
    threshold's estimate is computed once: a few estimates instead of n.
    """
    if trials < _MIN_TRIALS:
        raise ValueError(f"need at least {_MIN_TRIALS} trials for the DT bound")
    if dens is None:
        dens = info_density_samples(n, sigma2, trials, seed, stream=1)

    means = {}  # threshold -> estimate: M is read only through ln((M - 1) / 2)

    def meets(M):  # every M tried is >= 2
        t = _dt_threshold(M)
        if t not in means:
            means[t] = float(_dt_terms(dens, M).mean())
        return means[t] <= target_error

    guide = _dt_guide(dens)
    top = 1 << n  # noiseless BPSK cannot carry more than n bits
    guess = _largest_meeting(lambda M: guide(M) <= target_error, top, 2)
    lo = _largest_meeting(meets, top, guess)
    _, se = dt_error_estimate(dens, lo)
    if se > 0.1 * target_error:
        warnings.warn(
            f"DT bound at n={n}: stderr {se:.2e} exceeds 10% of target {target_error:.1e}; "
            "increase trials",
            stacklevel=2,
        )
    return lo


# exp(-i) is no normal double (subnormal, or 0) for i past this, about 708.4
_EXP_UNDERFLOW = -math.log(sys.float_info.min)


def _meta_converse_beta(n, sigma2, eps, trials, seed, more=None):
    """beta_{1-eps} for the test joint-law vs (input x induced output law).

    The Neyman-Pearson threshold keeps power 1 - eps under the joint law: it
    is the interpolated lower eps-quantile of the information density (one
    sample stream). The type-II error is estimated on an independent stream
    by the exact change of measure E_P[exp(-i) 1{i >= t}]. Returns
    (beta_hat, stderr, threshold). Warns where a weight exp(-i) with i >= t
    is no normal double: beta_hat then carries too few digits for its
    stderr to show it.

    With ``more``, further ``(sigma2, length)`` keys, returns one such triple
    per key, each equal to that key's own call: each stream is drawn in one
    pass (see info_density_samples), and the threshold stream is reduced to
    its quantiles before the second stream is drawn.
    """
    if trials < _MIN_TRIALS:
        raise ValueError(f"need at least {_MIN_TRIALS} trials for the meta-converse bound")
    thrs = [float(np.quantile(d, eps, method="linear"))
            for d in info_density_samples(n, sigma2, trials, seed, stream=2, more=more or ())]
    denss = info_density_samples(n, sigma2, trials, seed, stream=3, more=more or ())
    out = []
    for (_, l), t in zip(_density_keys(n, sigma2, more), thrs):
        dens = denss.pop(0)
        top = dens.max()
        if top >= t and top > _EXP_UNDERFLOW:
            warnings.warn(
                f"meta-converse at n={l}: weights exp(-i) below the normal doubles "
                f"(i up to {top:.1f}); beta has lost precision and its stderr with it",
                stacklevel=2,
            )
        w = np.where(dens >= t, np.exp(-dens), 0.0)
        out.append((float(w.mean()), float(w.std(ddof=1) / np.sqrt(w.size)), t))
    return out if more is not None else out[0]


def meta_converse_max_M(n, sigma2, target_error, trials, seed, more=None):
    """Converse on the code size: M <= 1 / beta_{1 - target_error}.

    With ``more``, further ``(sigma2, length)`` keys, returns one code size
    per key from one _meta_converse_beta pass; each equals that key's own
    call and warns as it. Where 1 / beta overflows (a subnormal beta) the
    floor is taken of the exact quotient, so code sizes past 2^1024 do not
    overflow.
    """
    Ms = []
    for (_, l), (beta, se, _) in zip(_density_keys(n, sigma2, more),
                                     _meta_converse_beta(n, sigma2, target_error, trials, seed,
                                                         more=more or ())):
        if se > 0.1 * max(beta, 1e-300):
            warnings.warn(
                f"meta-converse at n={l}: relative stderr {se / max(beta, 1e-300):.1%} above 10%; "
                "increase trials",
                stacklevel=2,
            )
        if beta <= 0.0:
            Ms.append(1 << l)
            continue
        # tolerate last-ulp jitter in the weights before flooring
        bound = (1.0 / beta) * (1.0 + 1e-9)
        # a subnormal beta: floor the exact quotient
        Ms.append(min(1 << l, math.floor(bound) if math.isfinite(bound)
                      else _floor_quotient(1.0 + 1e-9, beta)))
    return Ms if more is not None else Ms[0]


def meta_converse_min_error(n, sigma2, M, trials, seed, more=None):
    """Smallest error rate consistent with code size M under the meta-converse.

    The threshold is the pivot d_J, the largest stream-3 sample whose
    estimated type-II error beta_hat(d_J) exceeds 1/M (_meta_converse_pivot),
    and the error is the joint-law mass at or below it, #{stream-2 samples
    <= d_J} / trials: the limit of a float bisection of beta_hat(t) = 1/M.
    Returns (trials - 1) / trials when every stream-2 sample lies at or below
    d_J, and 0 when no sample keeps beta_hat above 1/M.

    With ``more``, further ``(sigma2, length)`` keys, returns one error rate
    per key, this call's own first, each equal to that key's own call. Each
    stream is drawn in one pass for all of them (see info_density_samples),
    and only one stream's densities are held at a time: stream 3 is reduced
    to each key's pivot and freed, then stream 2 is drawn once, for the keys
    that have a pivot only (a key without one has error 0), and gives each
    its count at or below the pivot.
    """
    if trials < _MIN_TRIALS:
        raise ValueError(f"need at least {_MIN_TRIALS} trials for the meta-converse bound")
    if not M >= 1:
        raise ValueError("M must be >= 1")
    trials = int(trials)
    denss = info_density_samples(n, sigma2, trials, seed, stream=3, more=more or ())
    # pop each sample so it is dropped as soon as its pivot is found
    # 1 / M, not 1.0 / M, which would convert an int M past 2^1024 to a float
    pivots = [_meta_converse_pivot(denss.pop(0), 1 / M) for _ in range(len(denss))]
    kept = [key for key, d_J in zip(_density_keys(n, sigma2, more), pivots) if d_J is not None]
    held = []
    if kept:
        (s2, l), *rest = kept
        held = info_density_samples(l, s2, trials, seed, stream=2, more=rest)
    errs = []
    for d_J in pivots:
        if d_J is None:
            errs.append(0.0)  # the smallest threshold already meets 1/M
            continue
        dens = held.pop(0)
        errs.append((trials - 1) / trials if dens.max() <= d_J
                    else np.count_nonzero(dens <= d_J) / trials)
    return errs if more is not None else errs[0]


def _meta_converse_pivot(dens, target_beta):
    """The largest sample d_J of `dens` with beta_hat(d_J) > target_beta, or None.

    beta_hat(t) = mean(exp(-d) 1{d >= t}) over `dens` is constant for t in
    (d_{j-1}, d_j] between sorted samples d_j: it is the suffix sums of the
    sorted weights, one cumulative sum. Adding a non-negative float never
    lowers a sum, so the samples above the target are a prefix of the sort
    (tied copies share a value, and the first one's sum counts them all).
    None means beta_hat(d_0) already meets the target.
    """
    d = np.sort(dens)
    beta = np.cumsum(np.exp(-d)[::-1])[::-1] / d.size
    above = np.count_nonzero(beta > target_beta)
    return d[above - 1] if above else None


def pie_sandwich(pmd, pcw_lower, pcw_upper):
    """Inclusive-error sandwich: (max(pmd, pcw_lower), min(1, pmd + pcw_upper))."""
    for v in (pmd, pcw_lower, pcw_upper):
        if not 0.0 <= v <= 1.0:
            raise ValueError("sandwich inputs must lie in [0, 1]")
    return max(pmd, pcw_lower), min(1.0, pmd + pcw_upper)
