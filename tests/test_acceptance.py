"""End-to-end acceptance checks for the library's headline claims.

Each test prints a single summary line so a transcript of the run doubles as
an acceptance report. Criterion 10 needs an externally supplied best-known
(84,12) generator matrix and is skipped unless JDD_CODE_84_12 points at one.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from jdd.bounds import (
    _meta_converse_beta,
    Requirements,
    dad_error_bounds,
    dad_gamma,
    dt_bound_max_M,
    dt_error_estimate,
    info_density_samples,
    meta_converse_max_M,
    min_blocklength,
    min_snr_db,
)
from jdd.channel import FramePlan, gaussian_block, snr_to_sigma2
from jdd.codebook import from_generator, hamming_7_4, load_generator, ml_decode
from jdd.detectors import DetectorSpec, stat_codebook_aided, stat_dad
from jdd.montecarlo import calibrate_threshold, estimate_false_alarm, estimate_rates
from jdd.numerics import q_func, q_inv

SIGMA2_M3DB = 1.0 / (2.0 * 10.0 ** (-0.3))
REQ = Requirements(1e-4, 1e-4, 1e-3)


def timed(fn, repeats=100):
    fn()  # warm up
    start = time.perf_counter()
    for _ in range(repeats):
        out = fn()
    return out, (time.perf_counter() - start) / repeats


class TestAcceptance:
    def test_criterion_1_blocklength_boundary(self):
        n_min, per_call = timed(lambda: min_blocklength(SIGMA2_M3DB, REQ))
        assert n_min == pytest.approx(55.19, abs=0.06)
        assert math.ceil(n_min) in (56, 57)
        assert per_call < 1e-3
        print(f"criterion 1 PASS: min blocklength {n_min:.4f}, first feasible n {math.ceil(n_min)}")

    def test_criterion_2_snr_boundary(self):
        snr, per_call = timed(lambda: min_snr_db(84, REQ))
        assert snr == pytest.approx(-4.82, abs=0.05)
        assert per_call < 1e-3
        print(f"criterion 2 PASS: min SNR at n=84 is {snr:.4f} dB")

    def test_criterion_3_genie_statistic_law(self):
        n, trials = 84, 100_000
        sigma2 = snr_to_sigma2(-3.0)
        x = np.ones(n)
        z_active = gaussian_block(sigma2, seed=31, stream=0, block=0, shape=(trials, n))
        z_idle = gaussian_block(sigma2, seed=31, stream=1, block=0, shape=(trials, n))
        # the genie's statistic x^T y
        active = ((x + z_active) * x).sum(-1)
        idle = (z_idle * x).sum(-1)
        var = n * sigma2
        se_mean = math.sqrt(var / trials)
        se_var = var * math.sqrt(2 / (trials - 1))
        assert abs(active.mean() - n) < 5 * se_mean
        assert abs(active.var(ddof=1) - var) < 5 * se_var
        assert abs(idle.mean()) < 5 * se_mean
        assert abs(idle.var(ddof=1) - var) < 5 * se_var
        print(f"criterion 3 PASS: genie moments active ({active.mean():.2f}, {active.var(ddof=1):.2f}) "
              f"idle ({idle.mean():.3f}, {idle.var(ddof=1):.2f}) vs ({n}, {var:.2f})")

    def test_criterion_4_dad_closed_forms(self):
        def point():
            g = dad_gamma(84, SIGMA2_M3DB, 1e-4, 4096)
            return g, dad_error_bounds(84, SIGMA2_M3DB, g, 4096)
        (gamma, (pfa_ub, pmd_ub)), per_call = timed(point)
        assert pfa_ub == pytest.approx(1e-4, rel=1e-10)
        assert pmd_ub <= 1e-4
        assert per_call < 1e-3
        print(f"criterion 4 PASS: gamma {gamma:.4f}, pfa_ub {pfa_ub:.6e}, pmd_ub {pmd_ub:.3e}")

    def test_criterion_5_union_bound_dominance(self):
        G = np.array([
            [1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1],
            [0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1],
            [0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0],
        ])
        cb = from_generator(G)
        n, trials = 16, 100_000
        sigma2 = snr_to_sigma2(-3.0)
        plan = FramePlan(n_p=0, n_c=n)
        gamma = dad_gamma(n, sigma2, 1e-2, cb.M)
        bound = cb.M * q_func(gamma / math.sqrt(n * sigma2))
        spec = DetectorSpec(kind="dad").with_gamma(gamma)
        pfa = estimate_false_alarm(spec, plan, sigma2, trials, 17, cb=cb)
        se = math.sqrt(max(pfa.p_hat, 1 / trials) * (1 - pfa.p_hat) / trials)
        assert pfa.p_hat <= bound + 3 * se
        print(f"criterion 5 PASS: empirical P_FA {pfa.p_hat:.5f} <= union bound {bound:.5f}")

    def test_criterion_6_optimality_rule_equivalence(self):
        G = np.array([[1, 0, 1, 0], [0, 1, 0, 1]])
        cb = from_generator(G)
        plan = FramePlan(n_p=0, n_c=4)
        s2 = snr_to_sigma2(-1.0)
        gamma_dad = 2.0
        gamma_cb = gamma_dad / s2 - 4 / (2 * s2)  # same decision boundary

        def density(y, x):
            return float(np.prod(np.exp(-((y - x) ** 2) / (2 * s2)) / math.sqrt(2 * math.pi * s2)))

        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(1000):
            y = rng.normal(size=4) * 1.5
            s_cb, m_cb = stat_codebook_aided(y, cb, s2, gamma_a=0.0)
            s_dad, m_dad = stat_dad(y, cb, plan)
            assert m_cb == m_dad
            assert (s_cb >= gamma_cb) == (s_dad >= gamma_dad)
            oracle = max(density(y, cw) for cw in cb.codewords) / density(y, np.zeros(4))
            worst = max(worst, abs(math.exp(s_cb) / oracle - 1.0))
        assert worst < 1e-9
        print(f"criterion 6 PASS: 1000 observations agree; worst density-quotient error {worst:.2e}")

    def test_criterion_7_ml_decoder_oracle(self):
        cb = hamming_7_4()
        sigma2 = snr_to_sigma2(0.0)
        rng_m = np.random.default_rng(70)
        trials = 10_000
        m = rng_m.integers(1, cb.M + 1, trials)
        z = gaussian_block(sigma2, seed=71, stream=0, block=0, shape=(trials, 7))
        y = cb.codewords[m - 1] + z
        m_hat, _ = ml_decode(cb, y)
        d2 = ((y[:, None, :] - cb.codewords[None, :, :]) ** 2).sum(axis=2)
        oracle = np.argmin(d2, axis=1) + 1
        assert np.array_equal(m_hat, oracle)
        print(f"criterion 7 PASS: ml_decode matches Euclidean scan on {trials} noisy slots")

    def test_criterion_8_dt_vs_meta_converse(self):
        trials = 100_000
        pairs = []
        for n in (8, 16, 32, 64):
            m_dt = dt_bound_max_M(n, SIGMA2_M3DB, 1e-3, trials, 8)
            m_mc = meta_converse_max_M(n, SIGMA2_M3DB, 1e-3, trials, 8)
            assert m_dt <= m_mc
            pairs.append((n, m_dt, m_mc))

        # n = 1 achievability against adaptive quadrature
        s2 = SIGMA2_M3DB
        thr = math.log(0.5)

        def info_dens(y):
            t = -2.0 * y / s2
            return math.log(2.0) - (max(t, 0.0) + math.log1p(math.exp(-abs(t))))

        def dt_integrand(y):
            dens = math.exp(-((y - 1.0) ** 2) / (2 * s2)) / math.sqrt(2 * math.pi * s2)
            return math.exp(-max(0.0, info_dens(y) - thr)) * dens

        dt_oracle, _ = quad(dt_integrand, -30, 30, limit=400)
        est, se = dt_error_estimate(info_density_samples(1, s2, 200_000, 81), 2)
        assert abs(est - dt_oracle) < 3 * se

        # n = 1 converse: beta at the fitted threshold against the exact tail
        eps = 0.3
        beta_hat, beta_se, t = _meta_converse_beta(1, s2, eps, 200_000, 82)
        y_star = -s2 / 2.0 * math.log(2.0 * math.exp(-t) - 1.0)
        sd = math.sqrt(s2)
        beta_true = 0.5 * q_func((y_star - 1.0) / sd) + 0.5 * q_func((y_star + 1.0) / sd)
        assert abs(beta_hat - beta_true) < 3 * beta_se
        print("criterion 8 PASS: M_DT <= M_meta-converse at "
              + ", ".join(f"n={n}: {a} <= {b}" for n, a, b in pairs)
              + "; n=1 oracles within 3 sigma")

    def test_criterion_9_hyped_dominance(self):
        sigma2 = snr_to_sigma2(-3.0)
        plan = FramePlan(n_p=24, n_c=60)
        eps_fa = 1e-3
        calib_trials, trials = 1_000_000, 200_000
        # both detectors in one pass over shared noise blocks
        specs = [DetectorSpec(kind="hyped-exact"), DetectorSpec(kind="preamble")]
        calibs = calibrate_threshold(specs, plan, sigma2, calib_trials, eps_fa, 91)
        assert not any(calib.infeasible for calib in calibs)
        tuned = [spec.with_gamma(calib.gamma) for spec, calib in zip(specs, calibs)]
        hy, pre = (rates["pmd"] for rates in estimate_rates(tuned, plan, sigma2, trials, 91))
        assert hy.p_hat <= pre.p_hat
        assert hy.ci_high < pre.ci_low  # non-overlapping 95% CIs
        print(f"criterion 9 PASS: P_MD hyped {hy.p_hat:.2e} [{hy.ci_low:.2e}, {hy.ci_high:.2e}] "
              f"< preamble {pre.p_hat:.2e} [{pre.ci_low:.2e}, {pre.ci_high:.2e}]")

    @pytest.mark.slow
    @pytest.mark.skipif("JDD_CODE_84_12" not in os.environ,
                        reason="needs JDD_CODE_84_12 pointing at a best-known (84,12) generator")
    def test_criterion_10_simulated_dad_point(self):
        cb = load_generator(os.environ["JDD_CODE_84_12"])
        assert (cb.n_c, cb.k) == (84, 12)
        sigma2 = snr_to_sigma2(-3.0)
        plan = FramePlan(n_p=0, n_c=84)
        spec = DetectorSpec(kind="dad")
        calib = calibrate_threshold(spec, plan, sigma2, 2_000_000, 1e-4, 101, cb=cb)
        assert not calib.infeasible
        rates = estimate_rates(spec.with_gamma(calib.gamma), plan, sigma2, 2_000_000, 101, cb=cb)
        pie = rates["pie"]
        assert 5e-5 <= pie.p_hat <= 2e-4
        print(f"criterion 10 PASS: simulated DAD P_IE {pie.p_hat:.2e}")
