import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from jdd import bounds
from jdd.bounds import (
    Requirements,
    dad_error_bounds,
    dad_gamma,
    dad_max_code_size,
    dt_bound_max_M,
    dt_error_estimate,
    info_density_samples,
    meta_converse_beta,
    meta_converse_max_M,
    meta_converse_min_error,
    min_blocklength,
    min_snr_db,
    pie_sandwich,
)
from jdd.channel import TRIALS_PER_BLOCK, gaussian_block
from jdd.numerics import q_func, q_inv

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


class TestDadMaxCodeSize:
    @staticmethod
    def dt_oracle(target_error, n, sigma2):
        return dt_bound_max_M(n, sigma2, target_error, 20_000, 42)

    def test_infeasible_blocklength(self):
        assert dad_max_code_size(40, SIGMA2_M3DB, REQ, self.dt_oracle) == 0

    def test_detection_limited_at_58(self):
        # detection-limited term floor(1e-4 / Q(-3.719 + 7.625)) = 2
        M = dad_max_code_size(58, SIGMA2_M3DB, REQ, self.dt_oracle)
        assert M == 2

    def test_decoding_limited_at_high_snr(self):
        # at sigma2 = 0.01 detection is trivial; the DT oracle caps the size
        M = dad_max_code_size(32, 0.01, REQ, self.dt_oracle)
        assert M > 1 << 10  # far beyond anything detection-limited
        # fixed-point consistency: M is what the DT oracle certifies at the
        # inclusive-error budget left after missed detection
        p_e = REQ.eps_ie - 1.0 + q_func(q_inv(REQ.eps_fa / M) - math.sqrt(32 / 0.01))
        assert M == self.dt_oracle(p_e, 32, 0.01)

    def test_monotone_in_n(self):
        sizes = [dad_max_code_size(n, SIGMA2_M3DB, REQ, self.dt_oracle) for n in (58, 70, 84)]
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_monotone_in_targets(self):
        loose = dad_max_code_size(84, SIGMA2_M3DB, Requirements(1e-3, 1e-3, 1e-2), self.dt_oracle)
        tight = dad_max_code_size(84, SIGMA2_M3DB, Requirements(1e-5, 1e-5, 1e-4), self.dt_oracle)
        base = dad_max_code_size(84, SIGMA2_M3DB, REQ, self.dt_oracle)
        assert tight <= base <= loose


class TestDtBound:
    def test_near_zero_capacity(self):
        assert dt_bound_max_M(8, 100.0, 1e-3, 20_000, 0) == 1

    def test_trials_precondition(self):
        with pytest.raises(ValueError):
            dt_bound_max_M(8, 1.0, 1e-3, 100, 0)

    def test_rate_nondecreasing_in_snr(self):
        rates = []
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


class TestMultiLengthDensities:
    """lengths= draws every block once at width n; each length is exact."""

    N = 30
    LENGTHS = (1, 7, 30, 12, 29)

    @pytest.mark.parametrize("trials", [9001, 4096, 10000])
    @pytest.mark.parametrize("stream", [1, 2, 3])
    def test_equals_per_length_calls(self, trials, stream):
        got = info_density_samples(self.N, SIGMA2_M3DB, trials, 4, stream=stream,
                                   lengths=self.LENGTHS)
        assert len(got) == len(self.LENGTHS)
        for l, dens in zip(self.LENGTHS, got):
            np.testing.assert_array_equal(
                dens, info_density_samples(l, SIGMA2_M3DB, trials, 4, stream=stream))

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

    def test_single_length_list(self, monkeypatch):
        (dens,) = info_density_samples(self.N, SIGMA2_M3DB, 5000, 1, lengths=[self.N])
        np.testing.assert_array_equal(dens, info_density_samples(self.N, SIGMA2_M3DB, 5000, 1))
        # no length, no noise drawn
        monkeypatch.setattr(bounds, "gaussian_block", None)
        assert info_density_samples(self.N, SIGMA2_M3DB, 5000, 1, lengths=[]) == []

    @pytest.mark.parametrize("bad", [(0,), (31,), (5, -1)])
    def test_lengths_out_of_range(self, bad):
        with pytest.raises(ValueError, match="lengths"):
            info_density_samples(self.N, SIGMA2_M3DB, 100, 0, lengths=bad)

    @pytest.mark.parametrize("M", [2, 16, 4096])
    def test_meta_converse_equals_per_length_calls(self, M):
        got = meta_converse_min_error(self.N, SIGMA2_M3DB, M, 10_000, 2, lengths=self.LENGTHS)
        assert got == [meta_converse_min_error(l, SIGMA2_M3DB, M, 10_000, 2)
                       for l in self.LENGTHS]


def messages(record):
    # every warning must point at the caller, as the drawing call's does
    assert all(w.filename == __file__ for w in record)
    return [str(w.message) for w in record]


class TestSharedSamples:
    """dens= and lengths= searches equal the calls that draw their own samples."""

    N = 30
    LENGTHS = (1, 7, 12, 29, 30)

    @pytest.mark.parametrize("sigma2", [SIGMA2_M3DB, 0.25])
    def test_dt_bound_on_shared_sample(self, sigma2):
        denss = info_density_samples(self.N, sigma2, 10_000, 3, lengths=self.LENGTHS)
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
        got = meta_converse_beta(self.N, SIGMA2_M3DB, eps, 10_000, 2, lengths=self.LENGTHS)
        assert got == [meta_converse_beta(l, SIGMA2_M3DB, eps, 10_000, 2) for l in self.LENGTHS]

    @pytest.mark.parametrize("eps", [1e-1, 1e-3])
    def test_meta_converse_max_M_lengths(self, eps):
        with warnings.catch_warnings(record=True) as multi:
            warnings.simplefilter("always")
            got = meta_converse_max_M(self.N, SIGMA2_M3DB, eps, 10_000, 2, lengths=self.LENGTHS)
        with warnings.catch_warnings(record=True) as serial:
            warnings.simplefilter("always")
            want = [meta_converse_max_M(l, SIGMA2_M3DB, eps, 10_000, 2) for l in self.LENGTHS]
        assert got == want
        assert messages(multi) == messages(serial)
        assert meta_converse_max_M(self.N, SIGMA2_M3DB, eps, 10_000, 2, lengths=[]) == []


class TestMetaConverse:
    def test_noiseless_limit(self):
        # 1e-6 noise variance: every blocklength carries nearly n bits
        M = meta_converse_max_M(8, 1e-6, 1e-3, 20_000, 0)
        assert M == 2**8

    def test_dominates_dt_on_grid(self):
        for n in (8, 16, 32, 64):
            m_dt = dt_bound_max_M(n, SIGMA2_M3DB, 1e-3, 50_000, 5)
            m_mc = meta_converse_max_M(n, SIGMA2_M3DB, 1e-3, 50_000, 5)
            assert m_dt <= m_mc

    def test_n1_beta_matches_closed_form(self):
        # beta at the empirically chosen threshold, against the exact mixture tail
        s2 = SIGMA2_M3DB
        eps = 0.3
        beta_hat, se, t = meta_converse_beta(1, s2, eps, 200_000, 3)
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
