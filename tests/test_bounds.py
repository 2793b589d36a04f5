import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtri, ndtri_exp

import jdd
from jdd import bounds, channel
from jdd.bounds import (
    _meta_converse_beta,
    Requirements,
    dad_error_bounds,
    dad_gamma,
    dad_max_code_size,
    dt_bound_max_M,
    dt_error_estimate,
    info_density_samples,
    meta_converse_max_M,
    meta_converse_min_error,
    min_blocklength,
    min_snr_db,
    pie_sandwich,
    q_func,
    q_inv,
)
from jdd.channel import TRIALS_PER_BLOCK, gaussian_block, snr_to_sigma2

SIGMA2_M3DB = 1.0 / (2.0 * 10.0 ** (-0.3))
REQ = Requirements(1e-4, 1e-4, 1e-3)


def scalar_info_density(y, sigma2):
    """Single-use BI-AWGN information density for input +1."""
    t = -2.0 * y / sigma2
    return math.log(2.0) - (max(t, 0.0) + math.log1p(math.exp(-abs(t))))


class TestMinBlocklength:
    def test_half_targets_vanish(self):
        assert min_blocklength(1.0, Requirements(0.5, 0.5, 0.5)) == pytest.approx(0.0, abs=1e-20)

    def test_reference_point(self):
        assert min_blocklength(SIGMA2_M3DB, REQ) == pytest.approx(55.19, rel=1e-3)

    def test_linear_in_sigma2(self):
        assert min_blocklength(2 * SIGMA2_M3DB, REQ) == pytest.approx(
            2 * min_blocklength(SIGMA2_M3DB, REQ)
        )

    def test_symmetric_in_targets(self):
        a = min_blocklength(1.0, Requirements(1e-3, 1e-5, 1e-2))
        b = min_blocklength(1.0, Requirements(1e-5, 1e-3, 1e-2))
        assert a == pytest.approx(b, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            min_blocklength(0.0, REQ)

    def test_tiny_eps_md(self):
        # Q^-1(eps_md) itself: Q^-1(1 - eps_md) lost ~4e-7 of the gap here
        req = Requirements(1e-3, 1e-12, 1e-2)
        expected = SIGMA2_M3DB * (ndtri(1e-3) + ndtri(1e-12)) ** 2
        assert min_blocklength(SIGMA2_M3DB, req) == pytest.approx(expected, rel=1e-14)


class TestMinSnr:
    def test_reference_point(self):
        assert min_snr_db(84, REQ) == pytest.approx(-4.82, abs=0.05)

    def test_quadrupling_n(self):
        assert min_snr_db(4 * 84, REQ) == pytest.approx(min_snr_db(84, REQ) - 10 * math.log10(4))

    def test_unbounded_below(self):
        assert min_snr_db(10, Requirements(0.5, 0.5, 0.5)) == float("-inf")


class TestDadGamma:
    def test_single_codeword_half_target(self):
        assert dad_gamma(16, 1.0, 0.5, 1) == pytest.approx(0.0, abs=1e-12)

    def test_reference_point(self):
        g = dad_gamma(84, SIGMA2_M3DB, 1e-4, 4096)
        assert g == pytest.approx(49.91, rel=1e-2)
        assert g == pytest.approx(math.sqrt(84 * SIGMA2_M3DB) * q_inv(1e-4 / 4096), rel=1e-12)

    def test_monotone_in_M(self):
        gammas = [dad_gamma(84, SIGMA2_M3DB, 1e-4, M) for M in (2, 16, 256, 4096)]
        assert np.all(np.diff(gammas) > 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            dad_gamma(84, 1.0, 2.0, 1)

    @pytest.mark.parametrize("M", [1, 2, 4096, 2**64 + 1, 2**500, 2**1000, 2**1008])
    def test_normal_quotient_unchanged(self, M):
        # wherever eps_fa / M is a normal double, the threshold is q_inv's, bit for bit
        assert 1e-4 / M >= 2.2250738585072014e-308
        assert dad_gamma(1100, 0.5, 1e-4, M) == float(np.sqrt(1100 * 0.5) * q_inv(1e-4 / M))

    def test_code_size_past_float_range(self):
        # 2^1100 cannot divide a float: the log domain gives Q(gamma / scale) = eps_fa / M
        scale = math.sqrt(1100 * 0.5)
        g = dad_gamma(1100, 0.5, 1e-4, 2**1100)
        assert g == pytest.approx(918.58, abs=0.01)
        assert log_ndtr(-g / scale) == pytest.approx(math.log(1e-4) - 1100 * math.log(2), rel=1e-12)

    def test_monotone_in_M_across_the_normal_range(self):
        # eps_fa / M leaves the normal doubles near M = 2^1008: powers of two
        # on both sides, and steps of 0.1% in M around the edge
        edge = int(1e-4 / 2.2250738585072014e-308)
        Ms = [2**k for k in range(990, 1101)] + [edge + j * (edge // 1000) for j in range(-5, 6)]
        gammas = [dad_gamma(1100, 0.5, 1e-4, M) for M in sorted(Ms)]
        assert np.all(np.diff(gammas) > 0)
        # the two forms agree where both apply
        p = 1e-4 / 2**1000
        assert -ndtri_exp(math.log(p)) == pytest.approx(q_inv(p), rel=1e-13)


class TestDadErrorBounds:
    def test_zero_threshold(self):
        pfa, pmd = dad_error_bounds(400, 1.0, 0.0, 16)
        assert pfa == 1.0  # M/2 clipped
        assert pmd == pytest.approx(q_func(math.sqrt(400.0)), rel=1e-6)

    def test_gamma_from_dad_gamma_hits_target(self):
        g = dad_gamma(84, SIGMA2_M3DB, 1e-4, 4096)
        pfa, pmd = dad_error_bounds(84, SIGMA2_M3DB, g, 4096)
        assert pfa == pytest.approx(1e-4, rel=1e-10)
        assert pmd <= 1e-4

    def test_pfa_monotone_in_M(self):
        g = 30.0
        vals = [dad_error_bounds(84, SIGMA2_M3DB, g, M)[0] for M in (2, 64, 512)]
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("M", [1, 4096, 2**500, 2**1000, 2**1023])
    def test_float_code_size_unchanged(self, M):
        # wherever M converts to a float, P_FA's bound is M Q(.), bit for bit
        g = dad_gamma(1100, 0.5, 1e-4, M)
        assert dad_error_bounds(1100, 0.5, g, M)[0] == min(1.0, float(M * q_func(g / math.sqrt(550))))

    def test_code_size_past_float_range(self):
        # 2^1100 is no float: at dad_gamma's threshold the bound is still eps_fa
        M = 2**1100
        pfa, pmd = dad_error_bounds(1100, 0.5, dad_gamma(1100, 0.5, 1e-4, M), M)
        assert pfa == pytest.approx(1e-4, rel=1e-9)
        assert 0.0 <= pmd <= 1.0
        # and a threshold that M Q(.) overshoots clips to 1
        assert dad_error_bounds(1100, 0.5, 0.0, M)[0] == 1.0
        assert dad_error_bounds(1100, 0.5, 400.0, M)[0] == 1.0


def reference_dad_max_code_size(n, sigma2, req, m_star):
    """The fixed-point loop of at most 100 rounds that one oracle call replaced."""
    if n < min_blocklength(sigma2, req):
        return 0
    root = np.sqrt(n / sigma2)
    m_det = min(1 << n, math.floor(req.eps_fa / q_func(root - q_inv(req.eps_md))))
    if m_det < 1:
        return 0
    M = m_det
    for _ in range(100):
        p_e = req.eps_ie - 1.0 + q_func(q_inv(req.eps_fa / M) - root)
        if p_e <= 0.0:
            M //= 2
            if M < 1:
                return 0
            continue
        M_new = min(m_det, int(m_star(p_e, n, sigma2)))
        if M_new < 1:
            return 0
        if M_new >= M:
            return M
        M = M_new
    return M


def shared_dt_oracle(n, sigma2, trials, seed):
    """A DT oracle searching one stream-1 sample, as the sweeps hand it one."""
    dens = info_density_samples(n, sigma2, trials, seed)
    return lambda target, *_: dt_bound_max_M(n, sigma2, target, trials, seed, dens=dens), dens


class TestDadMaxCodeSize:
    @staticmethod
    def dt_oracle(target_error, n, sigma2):
        return dt_bound_max_M(n, sigma2, target_error, 20_000, 42)

    @pytest.mark.parametrize("n, sigma2, req, calls", [
        (40, SIGMA2_M3DB, REQ, 0),  # below the converse
        (58, SIGMA2_M3DB, REQ, 1),  # detection-limited
        (32, 0.01, REQ, 1),  # decoding-limited
        (400, SIGMA2_M3DB, Requirements(1e-3, 0.99, 1e-2), 1),  # the limit is halved first
        (24, SIGMA2_M3DB, Requirements(1e-2, 0.5, 1e-3), 0),  # halved below one codeword
    ])
    def test_one_oracle_call(self, n, sigma2, req, calls):
        # P_MD's bound falls as M falls, so the budget at any smaller M only
        # grows: one oracle call settles the size
        targets = []
        dad_max_code_size(n, sigma2, req, lambda p_e, *_: targets.append(p_e) or 1 << 10)
        assert len(targets) == calls

    @pytest.mark.filterwarnings("ignore::UserWarning")  # DT precision at 10k trials
    @pytest.mark.parametrize("es_n0_db", [-3.0, 0.0, 3.0])
    def test_equals_round_loop(self, es_n0_db):
        # where eps_md <= eps_ie the detection limit leaves a budget, and the
        # old loop's second round only confirmed its first round's cap
        sigma2 = snr_to_sigma2(es_n0_db)
        for n in (24, 60, 84, 200):
            oracle, _ = shared_dt_oracle(n, sigma2, 10_000, 7)
            for req in (Requirements(1e-3, 1e-3, 1e-2), REQ, Requirements(1e-2, 1e-2, 1e-2),
                        Requirements(1e-3, 1e-4, 1e-2)):
                assert (dad_max_code_size(n, sigma2, req, oracle)
                        == reference_dad_max_code_size(n, sigma2, req, oracle))

    def test_missed_detection_spends_the_budget(self):
        # eps_md = 0.99 > eps_ie: P_MD at the detection limit alone spends
        # eps_ie, so the limit is halved until P_MD leaves a budget; a cap of
        # 100 halvings left M = 2^256 here, whose P_MD is about 1
        n, sigma2, req = 400, snr_to_sigma2(-3.0), Requirements(1e-3, 0.99, 1e-2)
        oracle, dens = shared_dt_oracle(n, sigma2, 10_000, 0)
        with pytest.warns(UserWarning, match="DT bound at n=400"):
            M = dad_max_code_size(n, sigma2, req, oracle)
        _, pmd = dad_error_bounds(n, sigma2, dad_gamma(n, sigma2, req.eps_fa, M), M)
        assert M > 1 and pmd <= req.eps_md
        assert pmd + dt_error_estimate(dens, M)[0] <= req.eps_ie

    def test_infeasible_blocklength(self):
        assert dad_max_code_size(40, SIGMA2_M3DB, REQ, self.dt_oracle) == 0

    def test_detection_limited_at_58(self):
        # detection-limited term floor(1e-4 / Q(-3.719 + 7.625)) = 2; the DT
        # oracle's 20 000 trials leave its stderr above 10% of the target
        with pytest.warns(UserWarning, match="DT bound at n="):
            M = dad_max_code_size(58, SIGMA2_M3DB, REQ, self.dt_oracle)
        assert M == 2

    def test_decoding_limited_at_high_snr(self):
        # at sigma2 = 0.01 detection is trivial; the DT oracle caps the size
        M = dad_max_code_size(32, 0.01, REQ, self.dt_oracle)
        assert M > 1 << 10  # far beyond anything detection-limited
        # M is what the DT oracle certifies at the inclusive-error budget
        # left after missed detection
        p_e = REQ.eps_ie - 1.0 + q_func(q_inv(REQ.eps_fa / M) - math.sqrt(32 / 0.01))
        assert M == self.dt_oracle(p_e, 32, 0.01)

    def test_monotone_in_n(self):
        with pytest.warns(UserWarning, match="DT bound at n="):
            sizes = [dad_max_code_size(n, SIGMA2_M3DB, REQ, self.dt_oracle) for n in (58, 70, 84)]
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_code_size_past_float_range(self):
        # oracles certifying 2^1100 or 2^1050 codewords: eps_fa / M is no
        # normal double, so Q^-1 is taken in the log domain; at n = 1100 the
        # missed-detection term leaves nearly all of eps_ie to decoding
        req = Requirements(1e-4, 1e-4, 1e-3)
        for k in (1100, 1050):
            p_es = []

            def oracle(p_e, n, sigma2):
                p_es.append(p_e)
                return 2**k

            assert dad_max_code_size(1100, 0.5, req, oracle) == 2**k
            assert p_es and all(p == pytest.approx(req.eps_ie, rel=1e-4) for p in p_es)

    def test_detection_term_past_float_range(self):
        # where the detection term's Q(.) is subnormal, eps_fa / Q(.) overflows:
        # its floor is taken of the exact quotient
        req = Requirements(0.9, 1e-3, 0.95)
        assert dad_max_code_size(840, 0.5055, req, lambda *a: 2**10) == 2**10
        denom = float(q_func(q_inv(1.0 - req.eps_md) + math.sqrt(1100 / 0.664)))
        assert 0.0 < denom < sys.float_info.min
        m_det = math.floor(Fraction(req.eps_fa) / Fraction(denom))
        assert 2**1024 < m_det < 2**1100
        # an oracle that certifies every size leaves the detection term
        assert dad_max_code_size(1100, 0.664, req, lambda *a: 2**1100) == m_det

    def test_monotone_in_targets(self):
        oracle = self.dt_oracle
        with pytest.warns(UserWarning, match="DT bound at n="):
            loose = dad_max_code_size(84, SIGMA2_M3DB, Requirements(1e-3, 1e-3, 1e-2), oracle)
            tight = dad_max_code_size(84, SIGMA2_M3DB, Requirements(1e-5, 1e-5, 1e-4), oracle)
            base = dad_max_code_size(84, SIGMA2_M3DB, REQ, oracle)
        assert tight <= base <= loose


class TestDtBound:
    def test_near_zero_capacity(self):
        assert dt_bound_max_M(8, 100.0, 1e-3, 20_000, 0) == 1

    def test_trials_precondition(self):
        with pytest.raises(ValueError):
            dt_bound_max_M(8, 1.0, 1e-3, 100, 0)

    @pytest.mark.parametrize("M", [1, 2, 1 << 8])
    def test_estimate_trials_precondition(self, M):
        dens = info_density_samples(8, 1.0, bounds._MIN_TRIALS - 1, 0)
        with pytest.raises(ValueError, match="need at least 10000 densities"):
            dt_error_estimate(dens, M)

    def test_rate_nondecreasing_in_snr(self):
        rates = []
        with pytest.warns(UserWarning, match="DT bound at n="):
            for snr_db in (-3.0, 0.0, 3.0):
                s2 = 1.0 / (2.0 * 10.0 ** (snr_db / 10.0))
                M = dt_bound_max_M(32, s2, 1e-3, 50_000, 1)
                rates.append(math.log2(M) / 32)
        assert rates[0] <= rates[1] <= rates[2]

    def test_n1_matches_quadrature(self):
        # one-dimensional DT integral for M = 2 by adaptive quadrature
        s2 = SIGMA2_M3DB
        thr = math.log(0.5)

        def integrand(y):
            dens = math.exp(-((y - 1.0) ** 2) / (2 * s2)) / math.sqrt(2 * math.pi * s2)
            return math.exp(-max(0.0, scalar_info_density(y, s2) - thr)) * dens

        oracle, _ = quad(integrand, -30, 30, limit=400)
        samples = info_density_samples(1, s2, 200_000, 3)
        est, se = dt_error_estimate(samples, 2)
        assert abs(est - oracle) < 3 * se


def each_key_equals_its_own_call(keys, trials, stream):
    """A call on a (sigma2, length) key list against each key's own call and the reference."""
    (sigma2, n), *more = keys
    got = info_density_samples(n, sigma2, trials, 4, stream=stream, more=more)
    assert len(got) == len(keys)
    width = max(l for _, l in keys)
    for (s2, l), dens in zip(keys, got):
        np.testing.assert_array_equal(dens, info_density_samples(l, s2, trials, 4, stream=stream))
        np.testing.assert_array_equal(
            dens, reference_info_density_samples(width, s2, trials, 4, stream, [l])[0])


class TestMultiLengthDensities:
    """Keys of one variance share each block, drawn once at the longest key's width."""

    # the first key is shorter than the later ones
    KEYS = tuple((SIGMA2_M3DB, l) for l in (1, 7, 30, 12, 29))

    @pytest.mark.parametrize("trials", [9001, 4096, 10000])
    @pytest.mark.parametrize("stream", [1, 2, 3])
    def test_equals_per_length_calls(self, trials, stream):
        each_key_equals_its_own_call(self.KEYS, trials, stream)

    def test_lone_call_matches_out_of_place_formula(self):
        # the in-place block arithmetic reproduces the plain expression bit for bit
        trials, l = TRIALS_PER_BLOCK + 17, 9
        ref = []
        for block, b in enumerate((TRIALS_PER_BLOCK, 17)):
            y = 1.0 + gaussian_block(SIGMA2_M3DB, 6, 1, block, (TRIALS_PER_BLOCK, l))[:b]
            t = -2.0 * y / SIGMA2_M3DB
            sp = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
            ref.append(l * np.log(2.0) - sp.sum(axis=1))
        np.testing.assert_array_equal(info_density_samples(l, SIGMA2_M3DB, trials, 6),
                                      np.concatenate(ref))

    def test_single_length_list(self):
        # an empty `more` still asks for the list of results
        (dens,) = info_density_samples(30, SIGMA2_M3DB, 5000, 1, more=[])
        np.testing.assert_array_equal(dens, info_density_samples(30, SIGMA2_M3DB, 5000, 1))

    @pytest.mark.parametrize("bad", [[(SIGMA2_M3DB, 0)], [(SIGMA2_M3DB, 30), (0.25, 0)],
                                     [(SIGMA2_M3DB, 5), (SIGMA2_M3DB, -1)]])
    def test_lengths_out_of_range(self, bad):
        (sigma2, n), *more = bad
        with pytest.raises(ValueError, match="lengths must be >= 1"):
            info_density_samples(n, sigma2, 100, 0, more=more)

    @pytest.mark.parametrize("M", [2, 16, 4096])
    def test_meta_converse_equals_per_length_calls(self, M):
        (sigma2, n), *more = self.KEYS
        got = meta_converse_min_error(n, sigma2, M, 10_000, 2, more=more)
        assert got == [meta_converse_min_error(l, s2, M, 10_000, 2) for s2, l in self.KEYS]


def reference_info_density_samples(n, sigma2, trials, seed, stream=1, lengths=None):
    """The per-variance pass before noise blocks were shared across variances."""
    lens = (n,) if lengths is None else tuple(int(l) for l in lengths)
    outs = [np.empty(trials) for _ in lens]
    width = max(lens)
    scratch = np.empty(min(TRIALS_PER_BLOCK, trials) * width)
    for block in range(-(-trials // TRIALS_PER_BLOCK)):
        done = block * TRIALS_PER_BLOCK
        b = min(TRIALS_PER_BLOCK, trials - done)
        z = gaussian_block(sigma2, seed, stream, block, (TRIALS_PER_BLOCK, n))
        t = z.reshape(-1)[: b * width]
        t += 1.0
        t *= -2.0
        t /= sigma2
        s = np.abs(t, out=scratch[: t.size])
        np.negative(s, out=s)
        np.exp(s, out=s)
        np.log1p(s, out=s)
        np.maximum(t, 0.0, out=t)
        t += s
        for l, out in zip(lens, outs):
            out[done : done + b] = l * np.log(2.0) - t[: b * l].reshape(b, l).sum(axis=1)
    return outs if lengths is not None else outs[0]


def reference_bisect(dens_thr, dens, target_beta):
    """The 80-step float bisection on sorted stream-2 samples: (error, threshold)."""
    dens_thr = np.sort(dens_thr)
    w = np.exp(-dens)

    def beta_at(t):
        return float(np.where(dens >= t, w, 0.0).mean())

    lo, hi = dens_thr[0], dens_thr[-1]
    if beta_at(hi) > target_beta:
        return float((dens_thr.size - 1) / dens_thr.size), None
    if beta_at(lo) <= target_beta:
        return 0.0, None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if beta_at(mid) > target_beta:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return float(np.searchsorted(dens_thr, t) / dens_thr.size), t


def reference_meta_converse_min_error(n, sigma2, M, trials, seed, lengths):
    thrs = reference_info_density_samples(n, sigma2, trials, seed, stream=2, lengths=lengths)
    denss = reference_info_density_samples(n, sigma2, trials, seed, stream=3, lengths=lengths)
    return [reference_bisect(d2, d3, 1.0 / M)[0] for d2, d3 in zip(thrs, denss)]


def serial_densities(l, sigma2, trials, seed, stream=1):
    """Length-l densities from one Philox generator per block, no spans and no prefix."""
    out = []
    for block in range(-(-trials // TRIALS_PER_BLOCK)):
        b = min(TRIALS_PER_BLOCK, trials - block * TRIALS_PER_BLOCK)
        key = np.array([seed, (stream << 32) ^ block], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random((b, l))
        y = 1.0 + np.sqrt(sigma2) * ndtri(np.maximum(u, 2.0 ** -64))
        t = -2.0 * y / sigma2
        out.append(l * np.log(2.0) - (np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))).sum(axis=1))
    return np.concatenate(out)


class TestDensitySpans:
    """The row spans give the serial formula on any thread count."""

    def test_equals_serial_formula(self, span_helpers):
        # the last block here ends in a one-row span of its 84-value rows
        trials = TRIALS_PER_BLOCK + bounds._SPAN // 84 + 1
        keys = [(SIGMA2_M3DB, 84), (SIGMA2_M3DB, 12), (0.3, 40), (SIGMA2_M3DB, 1), (0.3, 84),
                (2.0, 7)]
        (sigma2, n), *more = keys
        got = info_density_samples(n, sigma2, trials, 5, more=more)
        for (s2, l), dens in zip(keys, got):
            assert dens.tobytes() == serial_densities(l, s2, trials, 5).tobytes()

    @pytest.mark.parametrize("span", [4, 1000, 3 * 84 + 4])
    def test_softplus_span_changes_no_value(self, monkeypatch, span_helpers, span):
        # every softplus step is elementwise and every sum one row's, so spans
        # of one, three or eleven 84-value rows, past whose ends some 40-value
        # rows run, give the default span's bytes
        keys = [(SIGMA2_M3DB, 84), (SIGMA2_M3DB, 12), (0.3, 40), (0.3, 84)]
        (sigma2, n), *more = keys
        want = info_density_samples(n, sigma2, 300, 5, more=more)
        monkeypatch.setattr(bounds, "_SPAN", span)
        got = info_density_samples(n, sigma2, 300, 5, more=more)
        assert [d.tobytes() for d in got] == [d.tobytes() for d in want]


DIGEST_SOURCE = """
import hashlib

from jdd.bounds import info_density_samples
from jdd.channel import gaussian_block


def digest():
    h = hashlib.sha256(gaussian_block(0.5, 9, 1, 3, (4096, 84)).tobytes())
    for dens in info_density_samples(84, 0.5, 4096 + 196, 9,
                                     more=[(0.5, 12), (0.3, 40), (0.3, 84)]):
        h.update(dens.tobytes())
    return h.hexdigest()
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity masks")
def test_one_core_child_gets_the_same_values():
    ns = {}
    exec(DIGEST_SOURCE, ns)
    cpu = min(os.sched_getaffinity(0))
    # the child pins itself to one CPU before jdd sizes its pool, as a
    # preexec_fn would, without running Python between fork and exec here
    script = (f"import os\nos.sched_setaffinity(0, {{{cpu}}})\n{DIGEST_SOURCE}\n"
              "from jdd import channel\nprint(channel._HELPERS, digest())\n")
    src = str(Path(jdd.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", ns["digest"]()]


class TestSharedVariances:
    """Keys of several variances share each unit-variance block; each equals its own call."""

    N = 30
    GROUPS = ((SIGMA2_M3DB, 30), (SIGMA2_M3DB, 7), (SIGMA2_M3DB, 1), (0.25, 12), (0.25, 29),
              (2.0, 30))
    # a first key shorter than a later one, the variances interleaved: drawn at width 20 < N
    SHORT = ((SIGMA2_M3DB, 7), (0.25, 20), (SIGMA2_M3DB, 12), (0.25, 3))

    @pytest.mark.parametrize("trials", [1000, TRIALS_PER_BLOCK + 17, 10000])
    @pytest.mark.parametrize("stream", [1, 3])
    @pytest.mark.parametrize("groups", ["GROUPS", "SHORT"])
    def test_density_groups_equal_per_variance_calls(self, trials, stream, groups):
        each_key_equals_its_own_call(getattr(self, groups), trials, stream)

    def test_call_without_more_returns_one_array(self):
        first = info_density_samples(self.N, 0.5, 5000, 2)
        assert isinstance(first, np.ndarray)
        got = info_density_samples(self.N, 0.5, 5000, 2, more=[(0.25, 9)])
        np.testing.assert_array_equal(got[0], first)
        np.testing.assert_array_equal(got[1], info_density_samples(9, 0.25, 5000, 2))
        assert len(got) == 2

    def test_unit_draw_scales_to_every_variance(self):
        unit = gaussian_block(1.0, 5, 2, 1, (300, 7))
        for s2 in (SIGMA2_M3DB, 0.25, 3.0):
            np.testing.assert_array_equal(np.sqrt(s2) * unit, gaussian_block(s2, 5, 2, 1, (300, 7)))

    @pytest.mark.parametrize("M", [2, 16, 4096])
    @pytest.mark.parametrize("trials", [10000, 12289])
    def test_meta_converse_groups_equal_per_snr_calls(self, M, trials):
        (sigma2, n), *more = self.GROUPS
        got = meta_converse_min_error(n, sigma2, M, trials, 2, more=more)
        assert got == [reference_meta_converse_min_error(self.N, s2, M, trials, 2, [l])[0]
                       for s2, l in self.GROUPS]
        assert got == [meta_converse_min_error(l, s2, M, trials, 2) for s2, l in self.GROUPS]
        assert meta_converse_min_error(n, sigma2, M, trials, 2) == got[0]

    @staticmethod
    def bisect(dens_thr, dens, target_beta):
        # the error meta_converse_min_error forms from the pivot
        d_J = bounds._meta_converse_pivot(dens, target_beta)
        if d_J is None:
            return 0.0
        if dens_thr.max() <= d_J:
            return (dens_thr.size - 1) / dens_thr.size
        return np.count_nonzero(dens_thr <= d_J) / dens_thr.size

    @pytest.mark.parametrize("seed", range(6))
    def test_bisect_equals_float_bisection(self, seed):
        rng = np.random.default_rng(seed)
        # few distinct, tied values give beta_hat wide flat steps; continuous
        # samples give it one step per sample
        tied = rng.choice(rng.normal(3.0, 2.0, 12), size=500)
        dens_thr = rng.normal(3.0, 2.0, 400)
        for dens in (tied, rng.normal(3.0, 2.0, 500)):
            for target in np.geomspace(1e-4, 0.5, 25):
                assert (self.bisect(dens_thr, dens, target)
                        == reference_bisect(dens_thr, dens, target)[0])

    def test_bisect_edge_cases(self):
        dens = np.repeat([0.5, 1.0, 2.0, 4.0], [3, 5, 2, 1])
        dens_thr = np.array([0.0, 0.7, 1.5, 3.0, 3.5])  # all below the top sample 4.0
        # out of reach even at the largest threshold, and met at the smallest
        assert self.bisect(dens_thr, dens, 1e-9) == reference_bisect(dens_thr, dens, 1e-9)[0] == 0.8
        assert self.bisect(dens_thr, dens, 1.0) == reference_bisect(dens_thr, dens, 1.0)[0] == 0.0
        # beta_hat falls through the target between the tied samples 1.0 and 2.0
        target = 0.5 * (np.exp(-dens)[dens >= 1.0].mean() + np.exp(-dens)[dens >= 2.0].mean())
        assert bounds._meta_converse_pivot(dens, target) == 1.0
        assert self.bisect(dens_thr, dens, target) == reference_bisect(dens_thr, dens, target)[0] == 0.4
        # a stream-2 sample equal to the pivot counts as an error: P[i <= d_J]
        at_pivot = np.append(dens_thr, 1.0)
        assert self.bisect(at_pivot, dens, target) == np.mean(at_pivot <= 1.0) == 0.5


def messages(record):
    # every warning must point at the caller, as the drawing call's does
    assert all(w.filename == __file__ for w in record)
    return [str(w.message) for w in record]


class TestDtSearch:
    """dt_bound_max_M bisects on the estimate alone and takes the stderr once."""

    # M = 1, M = 2^n, the stderr warning (0.25), and interior code sizes
    @pytest.mark.parametrize("n, sigma2, target", [
        (8, 100.0, 1e-3), (30, SIGMA2_M3DB, 1e-1), (30, SIGMA2_M3DB, 1e-3),
        (30, 0.25, 1e-3), (12, 0.05, 1e-1), (60, SIGMA2_M3DB, 1e-2), (4, 0.01, 0.6)])
    def test_one_stderr_per_search(self, monkeypatch, n, sigma2, target):
        dens = info_density_samples(n, sigma2, 10_000, 3)
        # the search that compares dt_error_estimate's mean at every step
        lo, hi = 1, 1 << n
        if dt_error_estimate(dens, hi)[0] <= target:
            lo = hi
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if dt_error_estimate(dens, mid)[0] <= target:
                lo = mid
            else:
                hi = mid - 1
        se = dt_error_estimate(dens, lo)[1]

        calls = []
        estimate = bounds.dt_error_estimate
        monkeypatch.setattr(bounds, "dt_error_estimate",
                            lambda d, M: calls.append(M) or estimate(d, M))
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            M = dt_bound_max_M(n, sigma2, target, 10_000, 3, dens=dens)
        assert M == lo
        assert calls == [M]
        assert messages(got) == ([f"DT bound at n={n}: stderr {se:.2e} exceeds 10% of target "
                                  f"{target:.1e}; increase trials"] if se > 0.1 * target else [])

    def test_code_size_past_float_range(self):
        # at 6 dB the first probe, M = 2^1100, and the certified size both pass
        # the float range; the DT threshold ln((M - 1) / 2) is then ln(M - 1) - ln 2
        sigma2 = snr_to_sigma2(6.0)
        dens = info_density_samples(1100, sigma2, 10_000, 0)
        assert dt_error_estimate(dens, 2**1100)[0] == pytest.approx(
            float(np.exp(-np.maximum(0.0, dens - 1099 * math.log(2.0))).mean()), rel=1e-12)
        with pytest.warns(UserWarning, match="DT bound at n=1100"):
            M = dt_bound_max_M(1100, sigma2, 1e-3, 10_000, 0, dens=dens)
        assert 2**1024 < M < 2**1100
        assert dt_error_estimate(dens, M)[0] <= 1e-3 < dt_error_estimate(dens, M + 1)[0]


def plain_dt_bisection(dens, n, target):
    """The DT search as a plain bisection over [1, 2^n] on the estimate's mean."""
    def meets(M):
        return float(bounds._dt_terms(dens, M).mean()) <= target

    lo, hi = 1, 1 << n
    if meets(hi):
        lo = hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if meets(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


class TestGuidedDtSearch:
    """The guided search returns the plain bisection's M in a few estimates."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("es_n0_db", [-4.0, -3.0, -1.0, 1.0])
    def test_equals_plain_bisection(self, monkeypatch, seed, es_n0_db):
        sigma2 = snr_to_sigma2(es_n0_db)
        terms, evals = bounds._dt_terms, []
        monkeypatch.setattr(bounds, "_dt_terms", lambda d, M: evals.append(M) or terms(d, M))
        for n in (24, 60, 84, 120):
            dens = info_density_samples(n, sigma2, 10_000, seed)
            for target in (1e-1, 1e-2, 1e-3, 1e-4):
                want = plain_dt_bisection(dens, n, target)
                evals.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    assert dt_bound_max_M(n, sigma2, target, 10_000, seed, dens=dens) == want
                assert len(evals) <= 8  # the stderr's estimate included

    @pytest.mark.parametrize("n, es_n0_db", [(1000, -3.0), (1000, 6.0), (1100, 1.0)])
    def test_guide_finite_past_the_float_range(self, n, es_n0_db):
        # thresholds near 690 nats and code sizes past 2^1024: the guide
        # raises no floating-point error and the search still equals the plain one
        sigma2 = snr_to_sigma2(es_n0_db)
        dens = info_density_samples(n, sigma2, 10_000, 0)
        with np.errstate(all="raise"):
            guide = bounds._dt_guide(dens)
            values = [guide(M) for M in (2, 3, 2**60, 2**690, 2**1000, 2**1024 + 1, 1 << n)]
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in values)
        for target in (1e-2, 1e-4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                assert (dt_bound_max_M(n, sigma2, target, 10_000, 0, dens=dens)
                        == plain_dt_bisection(dens, n, target))

    def test_largest_meeting_from_any_start(self):
        # every answer, every start, tops of a few sizes: never a call at 1
        for top in (1, 2, 3, 7, 64, 100):
            for answer in range(1, top + 1):
                def meets(M):
                    assert 2 <= M <= top
                    return M <= answer
                for start in range(0, top + 2):
                    assert bounds._largest_meeting(meets, top, start) == answer


class TestSharedSamples:
    """dens= and more= searches equal the calls that draw their own samples."""

    LENGTHS = (1, 7, 12, 29, 30)
    # two variances, as one meta-converse pass of a rate or P_IE sweep can hold
    KEYS = ((SIGMA2_M3DB, 1), (SIGMA2_M3DB, 7), (0.25, 12), (SIGMA2_M3DB, 29), (0.25, 30))

    @pytest.mark.parametrize("sigma2", [SIGMA2_M3DB, 0.25])
    def test_dt_bound_on_shared_sample(self, sigma2):
        n, *rest = self.LENGTHS
        denss = info_density_samples(n, sigma2, 10_000, 3, more=[(sigma2, l) for l in rest])
        warned = 0
        for l, dens in zip(self.LENGTHS, denss):
            for target in (1e-1, 1e-2, 1e-3):
                with warnings.catch_warnings(record=True) as drawn:
                    warnings.simplefilter("always")
                    want = dt_bound_max_M(l, sigma2, target, 10_000, 3)
                with warnings.catch_warnings(record=True) as shared:
                    warnings.simplefilter("always")
                    got = dt_bound_max_M(l, sigma2, target, 10_000, 3, dens=dens)
                assert got == want
                assert messages(shared) == messages(drawn)
                warned += len(drawn)
        if sigma2 == 0.25:
            assert warned  # the stderr warning path is exercised too

    def test_dt_bound_trials_precondition_with_sample(self):
        dens = info_density_samples(8, 1.0, 100, 0)
        with pytest.raises(ValueError):
            dt_bound_max_M(8, 1.0, 1e-3, 100, 0, dens=dens)

    @pytest.mark.parametrize("eps", [1e-1, 1e-3])
    def test_meta_converse_beta_lengths(self, eps):
        (sigma2, n), *more = self.KEYS
        got = _meta_converse_beta(n, sigma2, eps, 10_000, 2, more=more)
        assert got == [_meta_converse_beta(l, s2, eps, 10_000, 2) for s2, l in self.KEYS]

    @pytest.mark.parametrize("eps", [1e-1, 1e-3])
    def test_meta_converse_max_M_lengths(self, eps):
        (sigma2, n), *more = self.KEYS
        with warnings.catch_warnings(record=True) as multi:
            warnings.simplefilter("always")
            got = meta_converse_max_M(n, sigma2, eps, 10_000, 2, more=more)
        with warnings.catch_warnings(record=True) as serial:
            warnings.simplefilter("always")
            want = [meta_converse_max_M(l, s2, eps, 10_000, 2) for s2, l in self.KEYS]
        assert got == want
        assert messages(multi) == messages(serial)


def refuse_draw(*args):
    raise AssertionError("a refused call drew noise")


class TestNoiseVarianceRefused:
    """Every Monte Carlo bound refuses a key whose variance is not finite and > 0 before any draw."""

    ENTRIES = {
        "info_density_samples": lambda s2, more: info_density_samples(4, s2, 10_000, 0, more=more),
        "dt_bound_max_M": lambda s2, more: dt_bound_max_M(4, s2, 1e-2, 10_000, 0),
        "_meta_converse_beta": lambda s2, more: _meta_converse_beta(4, s2, 1e-2, 10_000, 0,
                                                                    more=more),
        "meta_converse_max_M": lambda s2, more: meta_converse_max_M(4, s2, 1e-2, 10_000, 0,
                                                                    more=more),
        "meta_converse_min_error": lambda s2, more: meta_converse_min_error(4, s2, 16, 10_000, 0,
                                                                            more=more),
    }

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0])
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_own_key(self, monkeypatch, entry, bad):
        monkeypatch.setattr(bounds, "gaussian_block", refuse_draw)
        with pytest.raises(ValueError, match="sigma2 must be finite and > 0"):
            self.ENTRIES[entry](bad, None)

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf"), -1.0, 0.0])
    @pytest.mark.parametrize("entry", [e for e in ENTRIES if e != "dt_bound_max_M"])
    def test_more_key(self, monkeypatch, entry, bad):
        monkeypatch.setattr(bounds, "gaussian_block", refuse_draw)
        with pytest.raises(ValueError, match="sigma2 must be finite and > 0"):
            self.ENTRIES[entry](SIGMA2_M3DB, [(0.25, 3), (bad, 2)])


class TestMetaConverse:
    def test_noiseless_limit(self):
        # 1e-6 noise variance: every blocklength carries nearly n bits
        M = meta_converse_max_M(8, 1e-6, 1e-3, 20_000, 0)
        assert M == 2**8

    def test_dominates_dt_on_grid(self):
        with pytest.warns(UserWarning, match="DT bound at n=64"):
            for n in (8, 16, 32, 64):
                m_dt = dt_bound_max_M(n, SIGMA2_M3DB, 1e-3, 50_000, 5)
                m_mc = meta_converse_max_M(n, SIGMA2_M3DB, 1e-3, 50_000, 5)
                assert m_dt <= m_mc

    def test_n1_beta_matches_closed_form(self):
        # beta at the empirically chosen threshold, against the exact mixture tail
        s2 = SIGMA2_M3DB
        eps = 0.3
        beta_hat, se, t = _meta_converse_beta(1, s2, eps, 200_000, 3)
        # invert the monotone information density for the threshold in y
        y_star = -s2 / 2.0 * math.log(2.0 * math.exp(-t) - 1.0)
        sd = math.sqrt(s2)
        beta_true = 0.5 * q_func((y_star - 1.0) / sd) + 0.5 * q_func((y_star + 1.0) / sd)
        assert abs(beta_hat - beta_true) < 3 * se

    def test_min_error_round_trip(self):
        M = meta_converse_max_M(32, SIGMA2_M3DB, 1e-2, 50_000, 2)
        eps = meta_converse_min_error(32, SIGMA2_M3DB, M, 50_000, 2)
        assert eps == pytest.approx(1e-2, rel=0.25)

    def test_trials_precondition(self):
        with pytest.raises(ValueError):
            meta_converse_max_M(8, 1.0, 1e-3, 500, 0)

    def test_subnormal_beta(self):
        # at 6 dB and n = 1100 beta is subnormal and 1 / beta overflows: the
        # code size is the floor of the exact quotient
        sigma2 = snr_to_sigma2(6.0)
        # its weights exp(-i) are no normal doubles: a zero stderr shows
        # nothing, so the loss of precision is a warning of its own
        with pytest.warns(UserWarning, match="below the normal doubles") as record:
            beta, se, _ = _meta_converse_beta(1100, sigma2, 1e-3, 10_000, 0)
        assert len(record) == 1
        assert 0.0 < beta < sys.float_info.min and se == 0.0
        with pytest.warns(UserWarning, match="below the normal doubles"):
            M = meta_converse_max_M(1100, sigma2, 1e-3, 10_000, 0)
        assert M == math.floor(Fraction(1.0 + 1e-9) / Fraction(beta)) > 2**1024

    def test_min_error_past_the_float_range(self):
        # 1 / 2^2000 rounds to 0: every stream-3 sample keeps beta_hat above it, so
        # the pivot is the largest one
        trials = 10_000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = meta_converse_min_error(24, 0.5, 2**2000, trials, 0)
            # every weight exp(-d) underflows at n = 2000, so no sample keeps
            # beta_hat above 1 / 2^1100
            assert meta_converse_min_error(2000, 0.25, 2**1100, trials, 0) == 0.0
        d_J = info_density_samples(24, 0.5, trials, 0, stream=3).max()
        dens = info_density_samples(24, 0.5, trials, 0, stream=2)
        assert err == (np.count_nonzero(dens <= d_J) / trials if dens.max() > d_J
                       else (trials - 1) / trials)

    def test_no_underflow_warning_on_normal_weights(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _meta_converse_beta(84, SIGMA2_M3DB, 1e-3, 10_000, 0)

    @pytest.mark.parametrize("M", [-3, 0, 0.5, float("nan")])
    def test_min_error_refuses_code_sizes_below_one(self, monkeypatch, M):
        # a code holds at least one codeword; below it 1 / M gave an error of
        # 0.9999 (M = -3) or 0 (M = 0.5)
        monkeypatch.setattr(bounds, "gaussian_block", refuse_draw)
        with pytest.raises(ValueError, match="M must be >= 1"):
            meta_converse_min_error(8, 1.0, M, 10_000, 0)

    def test_min_error_holds_one_stream(self, monkeypatch):
        # a P_IE bound pass shaped like the paper's -4..0 dB curve: n = 84,
        # 50 000 trials, five SNRs with 25 payload lengths. Stream 3 is reduced
        # to pivots and freed before stream 2 is held, and a density pass holds
        # one 4096 x 84 noise block and each thread's two span buffers of about
        # channel._SPAN values, so the peak is one stream's densities, one block
        # and those buffers; holding both streams would add another
        # 8 * trials * 25 bytes, and a second block-sized array 8 * 4096 * 84.
        # One helper thread, whatever the cores, fixes the buffer count
        monkeypatch.setattr(channel, "_HELPERS", 1)
        monkeypatch.setattr(channel, "_POOL", ThreadPoolExecutor(1))
        n, trials = 84, 50_000
        keys = [(snr_to_sigma2(snr), l) for snr, lens in (
            (-4.0, (12, 14, 84)), (-3.0, (12, 14, 24, 84)), (-2.0, (12, 14, 24, 34, 84)),
            (-1.0, (12, 14, 24, 34, 44, 84)), (0.0, (12, 14, 24, 34, 44, 54, 84))) for l in lens]
        (sigma2, l), *more = keys
        tracemalloc.start()
        try:
            errs = meta_converse_min_error(l, sigma2, 1 << 12, trials, 0, more=more)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            channel._POOL.shutdown()
        assert len(errs) == len(keys) == 25
        held = 8 * trials * len(keys)
        spans = 2 * 2 * 8 * (channel._SPAN + n)  # two threads, two buffers each
        assert peak < held + 8 * TRIALS_PER_BLOCK * n + spans + (1 << 19)


class TestPieSandwich:
    def test_perfect_detection(self):
        assert pie_sandwich(0.0, 0.3, 0.3) == (0.3, 0.3)

    def test_perfect_decoding(self):
        assert pie_sandwich(0.2, 0.0, 0.0) == (0.2, 0.2)

    def test_direct_formula(self):
        lo, hi = pie_sandwich(1e-4, 5e-4, 8e-4)
        assert lo == pytest.approx(5e-4)
        assert hi == pytest.approx(9e-4)

    def test_upper_clipped(self):
        assert pie_sandwich(0.9, 0.0, 0.8)[1] == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            pie_sandwich(-0.1, 0.0, 0.0)
