"""Detection statistics for the slotted present/absent decision.

Every statistic is a pure function of the observation and accepts either a
single slot (n,) or a batch (..., n); batching is what makes the Monte Carlo
engine fast. All likelihood ratios are kept in the log domain so nothing
underflows at n ~ 100 and sigma2 ~ 1.
"""

from dataclasses import dataclass

import numpy as np

from .channel import FramePlan
from .codebook import _argmax_rows, _tiled_correlation
from .numerics import log_cosh

__all__ = [
    "DetectorSpec",
    "stat_preamble",
    "stat_hyped_exact",
    "stat_hyped_heuristic",
    "stat_dad",
    "stat_codebook_aided",
    "stat_genie",
    "batch_statistic",
]


@dataclass(frozen=True)
class DetectorSpec:
    """Which statistic to threshold, plus its parameters.

    kind: one of "preamble", "hyped-exact", "hyped-heuristic", "dad",
    "codebook-aided", "genie". `gamma` is the detection threshold;
    `gamma_a` weights the codebook-sum (codebook-aided) or the preamble
    correlation (heuristic HyPED).
    """

    kind: str
    gamma: float = np.nan
    gamma_a: float = 0.0

    KINDS = ("preamble", "hyped-exact", "hyped-heuristic", "dad", "codebook-aided", "genie")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if not (np.isfinite(self.gamma_a) and self.gamma_a >= 0.0):
            raise ValueError(f"gamma_a must be finite and >= 0, got {self.gamma_a}")

    def with_gamma(self, gamma):
        return DetectorSpec(self.kind, float(gamma), self.gamma_a)


def _check_len(y, n, what="observation"):
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != n:
        raise ValueError(f"{what} length {y.shape[-1]} != expected {n}")
    return y


def stat_preamble(y_p, plan, params):
    """Matched-filter LLR of the all-plus preamble: sum of (2 y_i - 1) / (2 sigma2)."""
    if plan.n_p < 1:
        raise ValueError("preamble statistic needs n_p >= 1")
    y_p = _check_len(y_p, plan.n_p, "preamble segment")
    return ((2.0 * y_p - 1.0) / (2.0 * params.sigma2)).sum(axis=-1)


def stat_hyped_exact(y, plan, params):
    """Exact hybrid preamble/energy LLR of the whole slot.

    Equiprobable payload symbols, so the payload term is the sum of
    ln cosh(y_c / sigma2).

    `plan` may also be a sequence of splits of the same slot; the statistics
    are then stacked along a new leading axis, one per split. The ln cosh
    terms are computed once, from the shortest preamble on, and each split
    sums its own columns of them, so every split's value is bit-identical to
    a call with that split alone.
    """
    plans = [plan] if isinstance(plan, FramePlan) else list(plan)
    y = _check_len(y, plans[0].n)
    if any(pl.n != plans[0].n for pl in plans):
        raise ValueError("all splits must cover the same slot length")
    s2 = params.sigma2
    first = min(pl.n_p for pl in plans)
    # the payload LLR of one symbol: ln[(e^a + e^-a)/2] = ln cosh(a), a = y / sigma2
    terms = log_cosh(y[..., first:] / s2)
    out = []
    for pl in plans:
        payload = terms[..., pl.n_p - first :].sum(axis=-1)
        pre = y[..., : pl.n_p].sum(axis=-1) / s2
        out.append(payload + pre - pl.n / (2.0 * s2))
    return out[0] if isinstance(plan, FramePlan) else np.stack(out)


def stat_hyped_heuristic(y, plan, gamma_a):
    """Heuristic rule: gamma_a * (preamble correlation) + ||y_c||."""
    y = _check_len(y, plan.n)
    y_p, y_c = plan.split(y)
    return gamma_a * y_p.sum(axis=-1) + np.linalg.norm(y_c, axis=-1)


def stat_dad(y, cb, plan):
    """Decoder-aided detection: y_p^T x_p + max_m x_m^T y_c, plus the argmax.

    With n_p = 0 this is exactly the correlation form of the DAD rule; with a
    preamble the known-preamble correlation is added to every codeword
    correlation, making the statistic the joint log-likelihood ratio of the
    whole slot up to the 1/sigma2 scale. The codeword correlation of a batch
    is computed and reduced in row tiles (see jdd.codebook), so memory stays
    at one tile whatever 2^k is.
    """
    y = _check_len(y, plan.n)
    if plan.n_c != cb.n_c:
        raise ValueError(f"plan n_c={plan.n_c} != codebook n_c={cb.n_c}")
    y_p, y_c = plan.split(y)
    m_hat, best = _tiled_correlation(y_c, cb.codewords, _argmax_rows)
    pre = y_p.sum(axis=-1) if plan.n_p else 0.0
    stat = pre + best
    if y.ndim == 1:
        return float(stat), int(m_hat) + 1
    return stat, m_hat + 1


def stat_codebook_aided(y, cb, params, gamma_a):
    """Log of the optimal joint test ratio.

    Computes ln[(gamma_a sum_m p(y|x_m) + max_m p(y|x_m)) / p(y|x_0)] in the
    log domain. Per-codeword exponents are a_m = x_m^T y / sigma2 and the
    common energy term -n/(2 sigma2) (all codewords have norm sqrt(n)) is
    kept so the value matches the density quotient exactly.
    """
    if cb.k > 16:
        raise ValueError("codebook-aided detection caps at k <= 16 (exhaustive sum)")
    y = _check_len(y, cb.n_c)
    s2 = params.sigma2

    def reduce(a):  # one correlation tile, overwritten in place
        a /= s2
        m, a_max = _argmax_rows(a)
        if gamma_a == 0.0:
            return m, a_max
        a -= a_max[:, None]
        return m, a_max, np.exp(a, out=a).sum(axis=1)

    m_hat, a_max, *total = _tiled_correlation(y, cb.codewords, reduce)
    if gamma_a == 0.0:
        stat = a_max - cb.n_c / (2.0 * s2)
    else:
        stat = a_max + np.log(gamma_a * total[0] + 1.0) - cb.n_c / (2.0 * s2)
    if y.ndim == 1:
        return float(stat), int(m_hat) + 1
    return stat, m_hat + 1


def stat_genie(y, x_m, params):
    """Genie-aided sufficient statistic x_m^T y of the per-slot LRT."""
    x_m = np.asarray(x_m, dtype=float)
    y = _check_len(y, x_m.shape[-1], "genie observation")
    return (y * x_m).sum(axis=-1)


def batch_statistic(spec, y, plan, params, cb=None, genie_x=None):
    """Evaluate a DetectorSpec on a batch; returns (stats, m_hat or None).

    m_hat is 1-based where the statistic itself produces a message estimate
    (DAD, codebook-aided); other detectors decode separately.

    `spec` and `plan` may instead be equal-length lists of entries that share
    the observation batch `y`; the result is then a list with one
    (stats, m_hat) pair per entry. All HyPED-exact entries are evaluated by
    one stat_hyped_exact call, which computes the ln cosh terms of the block
    once for all their splits.
    """
    if isinstance(spec, DetectorSpec):
        return batch_statistic([spec], y, [plan], params, cb, genie_x)[0]
    if len(spec) != len(plan):
        raise ValueError("need one plan per detector spec")
    out = [None] * len(spec)
    hyped = []
    for i, (s, pl) in enumerate(zip(spec, plan)):
        if s.kind == "hyped-exact":
            hyped.append(i)
        else:
            out[i] = _statistic(s, y, pl, params, cb, genie_x)
    if hyped:
        for i, st in zip(hyped, stat_hyped_exact(y, [plan[i] for i in hyped], params)):
            out[i] = (st, None)
    return out


def _statistic(spec, y, plan, params, cb, genie_x):
    kind = spec.kind
    if kind == "preamble":
        y_p = np.asarray(y)[..., : plan.n_p]
        return stat_preamble(y_p, plan, params), None
    if kind == "hyped-heuristic":
        return stat_hyped_heuristic(y, plan, spec.gamma_a), None
    if kind == "dad":
        return stat_dad(y, cb, plan)
    if kind == "codebook-aided":
        if plan.n_p:
            raise ValueError("codebook-aided detection runs on full-slot codewords (n_p = 0)")
        return stat_codebook_aided(y, cb, params, spec.gamma_a)
    if kind == "genie":
        if genie_x is None:
            raise ValueError("genie detection needs the transmitted +/-1 vector(s)")
        return stat_genie(y, genie_x, params), None
    raise ValueError(f"unknown detector kind {kind!r}")
