import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from conftest import ROW_COUNTS
from scipy.stats import beta, binom

from jdd.bounds import q_func, q_inv
from jdd.channel import (
    TRIALS_PER_BLOCK,
    FramePlan,
    _blocks,
    gaussian_block,
    snr_to_sigma2,
    uniform_block,
)
from jdd.codebook import hamming_7_4, repetition_code
from jdd.detectors import (
    DetectorSpec,
    _random_payload_statistics,
    _sign_masks,
    batch_statistic,
    stat_hyped_exact,
)
from jdd.montecarlo import (
    STREAM_ACTIVE_NOISE,
    STREAM_CALIBRATION,
    STREAM_IDLE_EVAL,
    STREAM_MESSAGES,
    STREAM_PAYLOAD,
    CalibrationResult,
    RateEstimate,
    _entries,
    _idle_stats,
    calibrate_threshold,
    clopper_pearson,
    estimate_false_alarm,
    estimate_rates,
)
from jdd.sweeps import SweepConfig, _split_candidates


def cp_bisect_oracle(successes, trials, level=0.95):
    """Clopper-Pearson by direct bisection on the binomial CDF tails."""
    alpha = 1.0 - level

    def solve(f, lo, hi):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    low = 0.0 if successes == 0 else solve(
        lambda p: binom.sf(successes - 1, trials, p) < alpha / 2, 0.0, 1.0
    )
    high = 1.0 if successes == trials else solve(
        lambda p: binom.cdf(successes, trials, p) > alpha / 2, 0.0, 1.0
    )
    return low, high


class TestClopperPearson:
    @pytest.mark.parametrize("successes,trials", [(0, 50), (1, 50), (7, 200), (199, 200), (200, 200)])
    def test_against_bisection_oracle(self, successes, trials):
        got = clopper_pearson(successes, trials)
        want = cp_bisect_oracle(successes, trials)
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)

    def test_contains_point_estimate(self):
        low, high = clopper_pearson(13, 400)
        assert low < 13 / 400 < high

    def test_edge_cases(self):
        assert clopper_pearson(0, 100)[0] == 0.0
        assert clopper_pearson(100, 100)[1] == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 4)

    @pytest.mark.parametrize("trials", [1, 2, 3, 10, 99, 1000, 4096, 10_000, 123_457, 10**6])
    def test_equals_scipy_stats_beta_ppf(self, trials):
        # bit for bit the beta quantiles of scipy.stats at the same levels
        alpha = 1.0 - 0.95
        for successes in sorted({s for s in (0, 1, 2, trials // 3, trials // 2, trials - 2,
                                             trials - 1, trials) if 0 <= s <= trials}):
            want_low = 0.0 if successes == 0 else float(
                beta.ppf(alpha / 2, successes, trials - successes + 1))
            want_high = 1.0 if successes == trials else float(
                beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
            assert clopper_pearson(successes, trials) == (want_low, want_high)

    def test_rate_estimate_wrapper(self):
        est = RateEstimate.from_counts(3, 60)
        assert est.p_hat == pytest.approx(0.05)
        assert est.ci_low < 0.05 < est.ci_high


class TestCalibrateThreshold:
    def test_trials_precondition(self):
        sigma2 = snr_to_sigma2(-3.0)
        plan = FramePlan(n_p=8, n_c=0)
        with pytest.raises(ValueError):
            calibrate_threshold(DetectorSpec(kind="preamble"), plan, sigma2, 100, 1e-4, 0)

    @pytest.mark.parametrize("eps_fa", [0.0, -1e-3, 1.5, math.nan])
    def test_eps_fa_outside_unit_interval_refused(self, eps_fa):
        # the order statistics read would lie outside the sample
        with pytest.raises(ValueError, match="eps_fa must lie in"):
            calibrate_threshold(DetectorSpec("preamble"), FramePlan(2, 2), snr_to_sigma2(0),
                                10**4, eps_fa, 0)

    def test_overflowing_trials_floor_named(self):
        # 50 / 5e-324 overflows a float; the floor is its exact integer ceiling
        need = math.ceil(50 / Fraction(5e-324))
        assert len(str(need)) == 326
        with pytest.raises(ValueError, match=f"need >= {need} trials to resolve eps_fa=5e-324"):
            calibrate_threshold(DetectorSpec("preamble"), FramePlan(2, 2), snr_to_sigma2(0),
                                10**6, 5e-324, 0)

    def test_genie_gamma_matches_quantile(self):
        # the genie detector is the preamble matched filter over the whole slot
        # (n_p = n), whose idle statistic is ~ N(-n/(2 sigma2), n/sigma2)
        sigma2 = snr_to_sigma2(-3.0)
        plan = FramePlan(n_p=84, n_c=0)
        eps_fa = 1e-3
        trials = 200_000
        res = calibrate_threshold(DetectorSpec(kind="preamble"), plan, sigma2, trials, eps_fa, 11)
        scale = math.sqrt(84 / sigma2)
        gamma_true = -84 / (2 * sigma2) + scale * q_inv(eps_fa)
        # standard error of the empirical quantile via the density at the target
        pdf = math.exp(-q_inv(eps_fa) ** 2 / 2) / math.sqrt(2 * math.pi) / scale
        se = math.sqrt(eps_fa * (1 - eps_fa) / trials) / pdf
        assert abs(res.gamma - gamma_true) < 5 * se
        assert not res.infeasible
        # the false alarm rate at gamma, measured on the independent evaluation stream
        pfa = estimate_false_alarm(DetectorSpec(kind="preamble").with_gamma(res.gamma), plan,
                                   sigma2, trials, 11)
        assert pfa.ci_low <= eps_fa <= pfa.ci_high

    def test_deterministic(self):
        sigma2 = snr_to_sigma2(-2.0)
        plan = FramePlan(n_p=4, n_c=12)
        spec = DetectorSpec(kind="hyped-exact")
        a = calibrate_threshold(spec, plan, sigma2, 5000, 1e-1, 7)
        b = calibrate_threshold(spec, plan, sigma2, 5000, 1e-1, 7)
        assert a == b

    def test_seed_changes_result(self):
        sigma2 = snr_to_sigma2(-2.0)
        plan = FramePlan(n_p=4, n_c=12)
        spec = DetectorSpec(kind="hyped-exact")
        a = calibrate_threshold(spec, plan, sigma2, 5000, 1e-1, 7)
        b = calibrate_threshold(spec, plan, sigma2, 5000, 1e-1, 8)
        assert a.gamma != b.gamma

    def test_degenerate_statistic_flagged_infeasible(self):
        # noiseless idle slots give a one-atom statistic; no threshold can
        # achieve a sub-atom false alarm rate. DAD's correlation needs no
        # division by sigma2, unlike the preamble and HyPED statistics
        sigma2 = 0.0
        plan = FramePlan(n_p=0, n_c=7)
        res = calibrate_threshold(DetectorSpec(kind="dad"), plan, sigma2, 1000, 0.1, 0,
                                  cb=hamming_7_4())
        assert res.infeasible


def full_calibration(specs, plans, sigma2, trials, eps_fa, seed, cb=None):
    """gamma and infeasible from the whole (entries x trials) idle statistic array."""
    specs, plans, sigma2, _ = _entries(specs, plans, sigma2)
    blocks = list(_idle_stats(specs, plans, sigma2, trials, seed, STREAM_CALIBRATION, cb))
    rows = [np.concatenate(entry) for entry in zip(*blocks)]
    assert all(row.size == trials for row in rows)
    return [CalibrationResult(gamma=float(np.quantile(row, 1.0 - eps_fa, method="linear")),
                              infeasible=bool(np.mean(row >= row.max()) > eps_fa)) for row in rows]


class TestTopKCalibration:
    """Keeping the K largest statistics gives the full array's quantile and flag bit for bit."""

    sigma2 = snr_to_sigma2(-3.0)
    plans = [FramePlan(n_p=n_p, n_c=20 - n_p) for n_p in (0, 3, 10, 20)]
    specs = [DetectorSpec(kind="hyped-exact")] * 3 + [DetectorSpec(kind="preamble")]

    @pytest.mark.parametrize("trials, eps_fa", [
        (10_000, 1e-2), (20_000, 5e-3), (9001, 1e-2),  # eps_fa * N an integer (and not)
        (50_000, 1e-3), (5000, 1e-2), (1667, 3e-2)])   # N = ceil(50 / eps_fa)
    def test_equals_full_array(self, trials, eps_fa):
        assert trials >= math.ceil(50 / eps_fa)
        got = calibrate_threshold(self.specs, self.plans, self.sigma2, trials, eps_fa, 4)
        assert got == full_calibration(self.specs, self.plans, self.sigma2, trials, eps_fa, 4)
        assert not any(c.infeasible for c in got)

    @pytest.mark.parametrize("trials, eps_fa, t_low, t_high, all_kept", [
        (5003, 1e-2, 0.5, 1.0, False), (1003, 5e-2, 0.5, 1.0, False),  # t >= 0.5
        (100, 0.5, 0.5, 0.5, False),                                   # t = 1/2 exactly
        (52, 0.98, 0.0, 0.5, True), (52, 0.97, 0.5, 1.0, True)])       # K = N = ceil(50 / eps_fa)
    def test_interpolation_regimes(self, trials, eps_fa, t_low, t_high, all_kept):
        # t is the fractional part of the quantile's position (N - 1)(1 - eps_fa);
        # numpy's linear rule reads a + (b - a) t below 1/2 and b - (b - a)(1 - t) from it
        h = (trials - 1) * (1.0 - eps_fa)
        t = h - math.floor(h)
        assert t_low <= t <= t_high and t != 1.0
        assert (trials - math.floor(h) + 2 >= trials) == all_kept
        assert trials >= math.ceil(50 / eps_fa)
        got = calibrate_threshold(self.specs, self.plans, self.sigma2, trials, eps_fa, 6)
        assert got == full_calibration(self.specs, self.plans, self.sigma2, trials, eps_fa, 6)

    def test_memory_holds_the_kept_values(self):
        # 5e6 calibration trials at eps_fa = 1e-5: the 53 kept values and one
        # 4096 x 4 noise block, not a 40 MB array of all the statistics
        sigma2 = snr_to_sigma2(-3.0)
        tracemalloc.start()
        try:
            got = calibrate_threshold(DetectorSpec("preamble"), FramePlan(4, 0), sigma2,
                                      5_000_000, 1e-5, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert math.isfinite(got.gamma) and not got.infeasible

    @pytest.mark.parametrize("excess", [-2, -1, 0, 1, 2, 3, 4, 10, 400])
    def test_atom_at_the_maximum(self, monkeypatch, excess):
        # the statistics capped at their c-th largest value: an atom of c at
        # the maximum, c around N eps_fa = 100 and K = 103 and far above both
        import jdd.montecarlo as montecarlo

        trials, eps_fa = 10_000, 1e-2
        atom = trials // 100 + excess
        batch = montecarlo.batch_statistic
        blocks = list(_idle_stats(self.specs, self.plans, [self.sigma2] * 4, trials, 5,
                                  STREAM_CALIBRATION))
        caps = {pl: np.sort(np.concatenate(entry))[-atom]
                for pl, entry in zip(self.plans, zip(*blocks))}

        def capped(specs, y, plans, sigma2, cb=None):
            return [(np.minimum(st, caps[pl]), m)
                    for pl, (st, m) in zip(plans, batch(specs, y, plans, sigma2, cb=cb))]

        monkeypatch.setattr(montecarlo, "batch_statistic", capped)
        got = calibrate_threshold(self.specs, self.plans, self.sigma2, trials, eps_fa, 5)
        assert got == full_calibration(self.specs, self.plans, self.sigma2, trials, eps_fa, 5)
        assert [c.infeasible for c in got] == [atom > trials * eps_fa] * 4

    def test_one_atom_statistic(self):
        # noiseless idle slots: every statistic sits on the maximum
        sigma2 = 0.0
        plan = FramePlan(n_p=0, n_c=7)
        args = (DetectorSpec(kind="dad"), plan, sigma2, 5000, 0.01, 0)
        got = calibrate_threshold(*args, cb=hamming_7_4())
        assert got.infeasible and [got] == full_calibration(*args, cb=hamming_7_4())


class TestEstimateRates:
    def setup_method(self):
        self.cb = hamming_7_4()
        self.sigma2 = snr_to_sigma2(0.0)
        self.plan = FramePlan(n_p=3, n_c=7)

    def test_requires_threshold(self):
        with pytest.raises(ValueError):
            estimate_rates(DetectorSpec(kind="dad"), self.plan, self.sigma2, 100, 0, cb=self.cb)
        with pytest.raises(ValueError):
            estimate_false_alarm(DetectorSpec(kind="dad"), self.plan, self.sigma2, 100, 0,
                                 cb=self.cb)

    def test_noiseless_all_rates_zero(self):
        sigma2 = 0.0
        spec = DetectorSpec(kind="dad").with_gamma(5.0)  # 0 < gamma < n
        rates = estimate_rates(spec, self.plan, sigma2, 2000, 0, cb=self.cb)
        assert set(rates) == {"pmd", "pcw", "pie"}
        assert estimate_false_alarm(spec, self.plan, sigma2, 2000, 0, cb=self.cb).p_hat == 0.0
        assert rates["pmd"].p_hat == 0.0
        assert rates["pcw"].p_hat == 0.0
        assert rates["pie"].p_hat == 0.0
        # noiseless statistics sit exactly on these thresholds (idle 0, active
        # n_p + n_c = 10), and a statistic equal to gamma counts as detected
        assert estimate_false_alarm(spec.with_gamma(0.0), self.plan, sigma2, 2000, 0,
                                    cb=self.cb).p_hat == 1.0
        assert estimate_rates(spec.with_gamma(10.0), self.plan, sigma2, 2000, 0,
                              cb=self.cb)["pmd"].p_hat == 0.0

    def test_deterministic(self):
        spec = DetectorSpec(kind="dad").with_gamma(6.0)
        a = estimate_rates(spec, self.plan, self.sigma2, 20_000, 5, cb=self.cb)
        b = estimate_rates(spec, self.plan, self.sigma2, 20_000, 5, cb=self.cb)
        assert a == b

    def test_genie_pmd_matches_closed_form(self):
        # the genie detector is the preamble matched filter at n_p = n, whose
        # active statistic is ~ N(n/(2 sigma2), n/sigma2)
        sigma2 = snr_to_sigma2(-3.0)
        plan = FramePlan(n_p=84, n_c=0)
        gamma = 30.0
        spec = DetectorSpec(kind="preamble").with_gamma(gamma)
        trials = 100_000
        rates = estimate_rates(spec, plan, sigma2, trials, 3, cb=None)
        scale = math.sqrt(84 / sigma2)
        pmd_true = 1.0 - q_func((gamma - 84 / (2 * sigma2)) / scale)
        se = math.sqrt(pmd_true * (1 - pmd_true) / trials)
        assert abs(rates["pmd"].p_hat - pmd_true) < 5 * se

    def test_inclusive_error_counting_identity(self):
        # an inclusive error is a miss or a detected-but-wrong decode, so the
        # raw counts must satisfy n_ie = n_md + n_cw exactly
        spec = DetectorSpec(kind="dad").with_gamma(5.0)
        trials = 20_000
        rates = estimate_rates(spec, self.plan, self.sigma2, trials, 9, cb=self.cb)
        n_md = round(rates["pmd"].p_hat * trials)
        n_ie = round(rates["pie"].p_hat * trials)
        n_cw = round(rates["pcw"].p_hat * rates["pcw"].trials)
        assert n_ie == n_md + n_cw
        assert rates["pcw"].trials == trials - n_md

    def test_sandwich_holds_empirically(self):
        spec = DetectorSpec(kind="dad").with_gamma(6.0)
        rates = estimate_rates(spec, self.plan, self.sigma2, 20_000, 4, cb=self.cb)
        pmd, pie = rates["pmd"].p_hat, rates["pie"].p_hat
        assert max(pmd, rates["pcw"].p_hat * rates["pcw"].trials / 20_000) <= pie
        assert pie <= pmd + rates["pcw"].p_hat + 1e-12

    def test_no_codebook_gives_no_pcw(self):
        spec = DetectorSpec(kind="preamble").with_gamma(2.0)
        rates = estimate_rates(spec, self.plan, self.sigma2, 5000, 2, cb=None)
        assert rates["pcw"] is None
        assert rates["pie"].p_hat == rates["pmd"].p_hat

    def test_repetition_pcw_beats_high_rate_code(self):
        # at equal n_c the repetition code should decode more reliably
        sigma2 = snr_to_sigma2(-3.0)
        plan = FramePlan(n_p=0, n_c=7)
        spec = DetectorSpec(kind="dad").with_gamma(-1e9)  # always detect
        rep = estimate_rates(spec, plan, sigma2, 20_000, 6, cb=repetition_code(7))
        ham = estimate_rates(spec, plan, sigma2, 20_000, 6, cb=hamming_7_4())
        assert rep["pcw"].p_hat < ham["pcw"].p_hat


@pytest.fixture
def statistics(monkeypatch):
    """Record every entry's statistic arrays: (kind, plan, sigma2) -> arrays in order.

    The idle and the active statistics are recorded as the engine's block
    generators yield them, after DAD's scaling. take() returns what was
    recorded since the last take().
    """
    import jdd.montecarlo as montecarlo

    record = {}

    def recorded(blocks, pick):
        def wrapper(specs, plans, sigma2, *args):
            for item in blocks(specs, plans, sigma2, *args):
                for s, pl, s2, st in zip(specs, plans, sigma2, pick(item)):
                    record.setdefault((s.kind, pl, s2), []).append(st.tobytes())
                yield item
        return wrapper

    monkeypatch.setattr(montecarlo, "_idle_stats",
                        recorded(montecarlo._idle_stats, lambda item: item))
    monkeypatch.setattr(montecarlo, "_active_stats",
                        recorded(montecarlo._active_stats, lambda item: item[0]))

    def take():
        got = dict(record)
        record.clear()
        return got

    return take


class TestMultiEntry:
    """A multi-entry call must equal the per-entry serial calls exactly."""

    CALIB = 9001  # neither count is a multiple of the block size
    TRIALS = 6003

    def assert_matches_serial(self, specs, plans, sigma2, seed, cb=None):
        assert self.CALIB % TRIALS_PER_BLOCK and self.TRIALS % TRIALS_PER_BLOCK
        entries = list(zip(*_entries(specs, plans, sigma2)[:3]))
        calibs = calibrate_threshold(specs, plans, sigma2, self.CALIB, 1e-2, seed, cb=cb)
        serial = [calibrate_threshold(s, pl, s2, self.CALIB, 1e-2, seed, cb=cb)
                  for s, pl, s2 in entries]
        assert calibs == serial  # gamma and infeasible alike
        tuned = [s.with_gamma(c.gamma) for (s, _, _), c in zip(entries, calibs)]
        rates = estimate_rates(tuned, plans, sigma2, self.TRIALS, seed, cb=cb)
        assert rates == [estimate_rates(s, pl, p, self.TRIALS, seed, cb=cb)
                         for s, (_, pl, p) in zip(tuned, entries)]
        assert (estimate_false_alarm(tuned, plans, sigma2, self.TRIALS, seed, cb=cb)
                == [estimate_false_alarm(s, pl, p, self.TRIALS, seed, cb=cb)
                    for s, (_, pl, p) in zip(tuned, entries)])
        return rates

    def assert_statistics_match(self, take, specs, plans, sigma2, seed, cb=None):
        """assert_matches_serial, and each statistic array of the shared calls is its own call's."""
        rates = self.assert_matches_serial(specs, plans, sigma2, seed, cb=cb)
        tuned = [s.with_gamma(g) for s, g in zip(specs, np.linspace(-2.0, 2.0, len(specs)))]
        take()
        calibrate_threshold(specs, plans, sigma2, self.CALIB, 1e-2, seed, cb=cb)
        estimate_rates(tuned, plans, sigma2, self.TRIALS, seed, cb=cb)
        estimate_false_alarm(tuned, plans, sigma2, self.TRIALS, seed, cb=cb)
        shared = take()
        for s, t, pl, s2 in zip(specs, tuned, plans, sigma2):
            calibrate_threshold(s, pl, s2, self.CALIB, 1e-2, seed, cb=cb)
            estimate_rates(t, pl, s2, self.TRIALS, seed, cb=cb)
            estimate_false_alarm(t, pl, s2, self.TRIALS, seed, cb=cb)
        assert len(shared) == len(specs)
        assert shared == take()
        return rates

    def test_hyped_exact_over_split_grid(self):
        sigma2 = snr_to_sigma2(-3.0)
        n_ps = _split_candidates(SweepConfig(), 60, 1, "hyped")
        assert 0 in n_ps and len(n_ps) > 2
        plans = [FramePlan(n_p=n_p, n_c=60 - n_p) for n_p in n_ps]
        self.assert_matches_serial([DetectorSpec(kind="hyped-exact")] * len(plans), plans, sigma2, 3)

    def test_hyped_exact_and_preamble_on_one_plan(self):
        sigma2 = snr_to_sigma2(-3.0)
        plan = FramePlan(n_p=24, n_c=36)
        specs = [DetectorSpec(kind="hyped-exact"), DetectorSpec(kind="preamble")]
        self.assert_matches_serial(specs, [plan, plan], sigma2, 4)

    def test_codebook_entries(self):
        sigma2 = snr_to_sigma2(0.0)
        plan = FramePlan(n_p=3, n_c=7)
        cb = hamming_7_4()
        self.assert_matches_serial([DetectorSpec(kind="dad")], [plan], sigma2, 5, cb=cb)
        # entries that decode separately share one ML decode per block
        specs = [DetectorSpec(kind="dad"), DetectorSpec(kind="preamble"), DetectorSpec(kind="hyped-exact")]
        rates = self.assert_matches_serial(specs, [plan] * 3, sigma2, 5, cb=cb)
        assert all(r["pcw"] is not None for r in rates)

    def test_mixed_lengths_without_code(self, statistics):
        # HyPED splits of three slot lengths and a preamble entry: each entry
        # reads the flat prefix of the longest slot's block, and its own
        # call draws exactly that prefix
        plans = [FramePlan(n_p=n_p, n_c=n - n_p) for n, n_p in
                 ((60, 0), (84, 42), (60, 60), (23, 5), (84, 83), (60, 7))]
        specs = [DetectorSpec(kind="hyped-exact")] * 5 + [DetectorSpec(kind="preamble")]
        sigma2 = [snr_to_sigma2(-3.0)] * len(plans)
        self.assert_statistics_match(statistics, specs, plans, sigma2, 3)

    def test_mixed_lengths_with_code(self, statistics):
        # DAD, preamble and HyPED on the codewords of one code after preambles
        # of three lengths: one ML decision per block and slot length
        cb = hamming_7_4()
        plans = [FramePlan(n_p=n_p, n_c=7) for n_p in (3, 0, 10, 3, 10, 3)]
        specs = [DetectorSpec(kind=k) for k in
                 ("dad", "dad", "preamble", "preamble", "hyped-exact", "hyped-exact")]
        sigma2 = [snr_to_sigma2(-1.0)] * len(plans)
        rates = self.assert_statistics_match(statistics, specs, plans, sigma2, 5, cb=cb)
        assert all(r["pcw"] is not None for r in rates)

    def test_mixed_variances_without_code(self, statistics):
        # HyPED and preamble entries at three SNRs and three slot lengths: each
        # (variance, length) reads sqrt(sigma2) times the flat prefix of one
        # unit-variance block, which is the block its own call draws
        slots = ((-3.0, 20, 2, "hyped-exact"), (-2.0, 12, 2, "hyped-exact"),
                 (-2.0, 20, 0, "hyped-exact"), (1.0, 20, 2, "hyped-exact"),
                 (1.0, 23, 5, "hyped-exact"), (-3.0, 12, 4, "preamble"), (1.0, 20, 20, "preamble"))
        specs = [DetectorSpec(kind=kind) for *_, kind in slots]
        plans = [FramePlan(n_p=n_p, n_c=n - n_p) for _, n, n_p, _ in slots]
        sigma2 = [snr_to_sigma2(snr) for snr, *_ in slots]
        self.assert_statistics_match(statistics, specs, plans, sigma2, 3)

    def test_mixed_variances_with_code(self, statistics):
        # DAD twice on one plan at two SNRs (one correlation of each idle
        # block, scaled per variance), and every kind at three SNRs and two
        # lengths: one ML decision per block, variance and slot length
        cb = hamming_7_4()
        slots = ((-1.0, 3, "dad"), (2.0, 3, "dad"), (2.0, 0, "dad"), (-1.0, 3, "preamble"),
                 (0.5, 3, "preamble"), (2.0, 3, "hyped-exact"), (0.5, 0, "hyped-exact"))
        specs = [DetectorSpec(kind=kind) for *_, kind in slots]
        plans = [FramePlan(n_p=n_p, n_c=7) for _, n_p, _ in slots]
        sigma2 = [snr_to_sigma2(snr) for snr, *_ in slots]
        rates = self.assert_statistics_match(statistics, specs, plans, sigma2, 5, cb=cb)
        assert all(r["pcw"] is not None for r in rates)

    def test_mixed_variances_gamma_oracle(self):
        # each threshold against np.quantile over the statistics of its own
        # gaussian_block(sigma2, ...) noise: preamble and HyPED bit for bit,
        # DAD's sqrt(sigma2) T(w) within a few ulps of T(sqrt(sigma2) w)
        cb = hamming_7_4()
        slots = ((-1.0, 3, "dad"), (2.0, 3, "dad"), (-3.0, 0, "dad"), (-1.0, 3, "preamble"),
                 (2.0, 10, "preamble"), (2.0, 3, "hyped-exact"), (-3.0, 0, "hyped-exact"))
        specs = [DetectorSpec(kind=kind) for *_, kind in slots]
        plans = [FramePlan(n_p=n_p, n_c=7) for _, n_p, _ in slots]
        sigma2 = [snr_to_sigma2(snr) for snr, *_ in slots]
        got = calibrate_threshold(specs, plans, sigma2, self.CALIB, 1e-2, 7, cb=cb)
        for s, pl, s2, c in zip(specs, plans, sigma2, got):
            stats = np.concatenate([
                batch_statistic(s, gaussian_block(s2, 7, STREAM_CALIBRATION, b, (count, pl.n)),
                                pl, s2, cb=cb)[0] for b, count in _blocks(self.CALIB)])
            want = float(np.quantile(stats, 1.0 - 1e-2, method="linear"))
            if s.kind == "dad":
                assert c.gamma == pytest.approx(want, rel=1e-13, abs=0.0)
            else:
                assert c.gamma == want

    def test_lone_spec_or_plan_is_broadcast(self):
        sigma2 = snr_to_sigma2(-3.0)
        plans = [FramePlan(n_p=n_p, n_c=20 - n_p) for n_p in (2, 10)]
        spec = DetectorSpec(kind="hyped-exact")
        assert (calibrate_threshold(spec, plans, sigma2, 1000, 0.1, 1)
                == calibrate_threshold([spec, spec], plans, sigma2, 1000, 0.1, 1))
        one = calibrate_threshold(spec, plans[0], sigma2, 1000, 0.1, 1)
        assert isinstance(one, CalibrationResult)
        assert calibrate_threshold([spec], [plans[0]], sigma2, 1000, 0.1, 1) == [one]

    def test_bad_entries_rejected(self):
        sigma2 = snr_to_sigma2(-3.0)
        spec = DetectorSpec(kind="preamble")
        plans = [FramePlan(n_p=n_p, n_c=20 - n_p) for n_p in (2, 10, 12)]
        with pytest.raises(ValueError):
            calibrate_threshold([spec, spec], plans, sigma2, 1000, 0.1, 1)
        with pytest.raises(ValueError):
            calibrate_threshold([], plans[0], sigma2, 1000, 0.1, 1)
        with pytest.raises(ValueError):  # one noise variance too few
            calibrate_threshold(spec, plans, [sigma2] * 2, 1000, 0.1, 1)
        with pytest.raises(ValueError):
            estimate_rates(spec.with_gamma(0.0), plans[0], sigma2, 0, 1)
        with pytest.raises(ValueError):
            estimate_false_alarm(spec.with_gamma(0.0), plans[0], sigma2, 0, 1)


class TestNoiseVariance:
    """sigma2 must be finite and >= 0, lone or in a sequence, and is checked before any draw."""

    plan = FramePlan(n_p=2, n_c=4)

    @pytest.mark.parametrize("lone", [True, False], ids=["lone", "in-sequence"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_refused(self, bad, lone, monkeypatch):
        def no_draw(*args):
            raise AssertionError("noise drawn for a refused sigma2")

        monkeypatch.setattr("jdd.montecarlo.gaussian_block", no_draw)
        sigma2 = bad if lone else [0.5, bad]
        spec = DetectorSpec(kind="preamble")
        match = "noise variance sigma2 must be finite and >= 0"
        with pytest.raises(ValueError, match=match):
            calibrate_threshold(spec, self.plan, sigma2, 1000, 0.1, 0)
        with pytest.raises(ValueError, match=match):
            estimate_rates(spec.with_gamma(0.0), self.plan, sigma2, 1000, 0)
        with pytest.raises(ValueError, match=match):
            estimate_false_alarm(spec.with_gamma(0.0), self.plan, sigma2, 1000, 0)

    def test_numpy_forms_broadcast(self):
        # a numpy scalar and a 0-d array are lone values; a 1-D array is a sequence
        s2 = snr_to_sigma2(-3.0)
        specs = [DetectorSpec(kind="preamble"), DetectorSpec(kind="hyped-exact")]
        want = calibrate_threshold(specs, self.plan, [s2, s2], 1000, 0.1, 0)
        for lone in (np.float64(s2), np.array(s2)):
            assert calibrate_threshold(specs, self.plan, lone, 1000, 0.1, 0) == want
            assert calibrate_threshold(specs[0], self.plan, lone, 1000, 0.1, 0) == want[0]
        assert calibrate_threshold(specs, self.plan, np.array([s2, s2]), 1000, 0.1, 0) == want
        assert calibrate_threshold(specs[0], self.plan, np.array([s2]), 1000, 0.1, 0) == want[:1]


class TestActiveSpans:
    """Active slots filled in row spans score as the slots x + z of the plain formula."""

    sigma2 = snr_to_sigma2(-3.0)
    plans = [FramePlan(n_p=n_p, n_c=60 - n_p) for n_p in (0, 7, 30, 59, 60)]
    specs = [DetectorSpec(kind="hyped-exact", gamma=g) for g in (-3.0, 0.0, 8.0, 20.0, 30.0)]

    def reference(self, specs, plans, trials, seed):
        """P_MD and P_IE counts of every entry: slots formed by where and concatenate."""
        n_md = [0] * len(specs)
        for block, count in _blocks(trials):
            z = gaussian_block(self.sigma2, seed, STREAM_ACTIVE_NOISE, block, (count, 60))
            for i, (s, pl) in enumerate(zip(specs, plans)):
                u = uniform_block(seed, STREAM_PAYLOAD, block, (count * pl.n_c,))
                x_c = np.where(u.reshape(count, pl.n_c) < 0.5, 1.0, -1.0)
                x = np.concatenate([np.ones((count, pl.n_p)), x_c], axis=1)
                stats, _ = batch_statistic(s, x + z, pl, self.sigma2)
                n_md[i] += int(np.sum(stats < s.gamma))
        return [{"pmd": RateEstimate.from_counts(md, trials),
                 "pie": RateEstimate.from_counts(md, trials), "pcw": None} for md in n_md]

    @pytest.mark.parametrize("trials", ROW_COUNTS)
    def test_hyped_splits_equal_plain_slots(self, span_helpers, trials):
        rates = estimate_rates(self.specs, self.plans, self.sigma2, trials, 2)
        assert rates == self.reference(self.specs, self.plans, trials, 2)
        assert rates == [estimate_rates(s, pl, self.sigma2, trials, 2)
                         for s, pl in zip(self.specs, self.plans)]

    def test_every_kind_without_code(self, span_helpers):
        # preamble and HyPED entries of different splits, in one call
        specs = [DetectorSpec(kind="preamble", gamma=5.0), DetectorSpec(kind="hyped-exact", gamma=8.0),
                 DetectorSpec(kind="preamble", gamma=30.0)]
        plans = [self.plans[1], self.plans[2], self.plans[3]]
        assert (estimate_rates(specs, plans, self.sigma2, 5000, 4)
                == self.reference(specs, plans, 5000, 4))

    def test_payload_signs(self):
        # +1 exactly where the uniform is below 1/2, at the edges too: the
        # statistic from the two ln cosh tables is that of the slots x + z
        u = np.array([2.0 ** -64, 0.5 - 2.0 ** -54, 0.5, 0.5 + 2.0 ** -53, 1.0 - 2.0 ** -53, 0.25])
        z = gaussian_block(self.sigma2, 5, STREAM_ACTIVE_NOISE, 0, (6,))
        spec = DetectorSpec(kind="hyped-exact")
        for rows, n_c in ((2, 3), (3, 2)):
            plan = FramePlan(n_p=0, n_c=n_c)
            masks = _sign_masks(u.copy())
            assert masks.dtype == np.int64 and masks.tolist() == [0, 0, -1, -1, -1, 0]
            (got,) = _random_payload_statistics([spec], [plan], z.copy(), rows, masks, self.sigma2)
            x = np.where(u < 0.5, 1.0, -1.0)
            want = stat_hyped_exact((x + z).reshape(rows, n_c), plan, self.sigma2)
            assert got.tobytes() == want.tobytes()
            x[2] = 1.0  # u = 1/2 read as +1 gives another statistic
            flipped = stat_hyped_exact((x + z).reshape(rows, n_c), plan, self.sigma2)
            assert got[2 // n_c] != flipped[2 // n_c]


class TestTiledCorrelationPerBlock:
    """With a code, each active block is correlated once, whatever the entry order."""

    def test_dad_and_preamble_in_either_order(self, code, monkeypatch):
        import jdd.codebook

        correlate, calls = jdd.codebook._tiled_correlation, []

        def counted(y, codewords, reduce, *buf):
            calls.append(len(y))
            return correlate(y, codewords, reduce, *buf)

        monkeypatch.setattr(jdd.codebook, "_tiled_correlation", counted)
        # at -7 dB every code decodes some blocks wrongly, so a wrong m_hat shows
        sigma2 = snr_to_sigma2(-7.0)
        plan = FramePlan(n_p=8, n_c=code.n_c)
        dad = DetectorSpec(kind="dad", gamma=0.5 * plan.n)
        pre = DetectorSpec(kind="preamble", gamma=1.0)
        trials = TRIALS_PER_BLOCK + 848
        blocks = [TRIALS_PER_BLOCK, 848]
        got = {}
        for order in ((dad, pre), (pre, dad)):
            calls.clear()
            got[order[0].kind] = estimate_rates(list(order), plan, sigma2, trials, 6, cb=code)
            assert calls == blocks
        assert got["dad"] == got["preamble"][::-1]
        for s, rates in zip((dad, pre), got["dad"]):
            calls.clear()
            assert estimate_rates(s, plan, sigma2, trials, 6, cb=code) == rates
            assert calls == blocks
            assert rates["pcw"].p_hat > 0.0


def unscreened(fn, *args, **kwargs):
    """fn(*args, **kwargs) with every ML decoding on the full float64 path."""
    import jdd.codebook as codebook

    decode = codebook.ml_decode
    with pytest.MonkeyPatch.context() as m:
        m.setattr(codebook, "ml_decode", lambda cb, y, _exact=None: decode(cb, y))
        return fn(*args, **kwargs)


class TestScreenedEngine:
    """The float32 screen of DAD and ML decoding changes no threshold bit, flag or count.

    Every noise block carries adversarial rows: zero rows, rows scaled by
    1e6 and 1e-300, duplicated rows, an atom of equal rows above every other
    idle statistic, and active slots past the float32 range and at an exact
    or near tie between their codeword and another; the thresholds of the
    estimates sit exactly on statistics.
    """

    TRIALS, EPS_FA = 5000, 1e-2  # K = 53 kept statistics; an atom of over 50 is infeasible

    @pytest.fixture
    def screened(self, monkeypatch):
        """The number of screened ML decoding calls, which runs outside unscreened()."""
        import jdd.codebook as codebook

        screen, calls = codebook._screened_correlation, []

        def counted(*args):
            calls.append(1)
            return screen(*args)

        monkeypatch.setattr(codebook, "_screened_correlation", counted)
        return calls

    def entries(self, code):
        """Two DAD entries of one plan, one at sqrt(sigma2) = 1/2, and a preamble entry."""
        plan = FramePlan(n_p=4, n_c=code.n_c)
        half = 0.25
        specs = [DetectorSpec(kind="dad"), DetectorSpec(kind="dad"), DetectorSpec(kind="preamble")]
        return specs, [plan] * 3, [half, snr_to_sigma2(-1.0), half]

    def adversarial(self, monkeypatch, code, n_p, atom):
        import jdd.montecarlo as montecarlo

        draw, messages = montecarlo.gaussian_block, montecarlo._draw_messages

        def block(sigma2, seed, stream, b, shape):
            rows = draw(sigma2, seed, stream, b, shape).reshape(shape[0], -1)
            rows[:3] = 0.0
            rows[3:5] *= np.array([1e6, 1e-300])[:, None]
            rows[6:12] = rows[12]
            rows[20 : 20 + (atom // 2 if b == 0 else atom - atom // 2)] = 1e8  # above row 3
            if stream == STREAM_ACTIVE_NOISE:
                rows[5] *= 1e40  # past the float32 range

                # sqrt(sigma2) w = (x_b - x_m) / 2 at sigma2 = 1/4: y_c = (x_m + x_b) / 2,
                # then moved by 1e-7 times the noise in rows 140 to 179, a near tie
                m = messages(code.M, seed, b, shape[0])
                for r in range(100, 180):
                    b_r = 2 if m[r] == 1 else r % (m[r] - 1) + 1  # mostly below m[r]: it wins
                    rows[r, n_p:] = (code.codewords[b_r - 1] - code.codewords[m[r] - 1]
                                     + (1e-7 if r >= 140 else 0.0) * rows[r, n_p:])
            return rows.reshape(shape)

        monkeypatch.setattr(montecarlo, "gaussian_block", block)

    @pytest.mark.parametrize("atom", [0, 50, 51, 52, 53, 54])
    def test_calibration(self, code, span_helpers, monkeypatch, screened, atom):
        specs, plans, sigma2 = self.entries(code)
        self.adversarial(monkeypatch, code, plans[0].n_p, atom)
        args = (specs, plans, sigma2, self.TRIALS, self.EPS_FA, 3)
        got = calibrate_threshold(*args, cb=code)
        want = unscreened(calibrate_threshold, *args, cb=code)
        assert screened
        assert [c.infeasible for c in got] == [c.infeasible for c in want]
        assert got[0].infeasible == (atom > 50)
        assert (np.array([c.gamma for c in got]).tobytes()
                == np.array([c.gamma for c in want]).tobytes())

    def at_statistics(self, specs, plans, sigma2, stats, rows):
        """Each entry once per row of `rows`, its gamma that row's statistic."""
        picked = [(s.with_gamma(st[r]), pl, s2)
                  for s, pl, s2, st in zip(specs, plans, sigma2, stats) for r in rows]
        return [list(col) for col in zip(*picked)]

    def test_false_alarm_at_statistics(self, code, span_helpers, monkeypatch, screened):
        specs, plans, sigma2 = self.entries(code)
        self.adversarial(monkeypatch, code, plans[0].n_p, 51)
        stats = [np.concatenate(st) for st in zip(
            *_idle_stats(specs, plans, sigma2, self.TRIALS, 3, STREAM_IDLE_EVAL, code))]
        args = (*self.at_statistics(specs, plans, sigma2, stats, [0, 6, 20, 777, 4100, 4990]),
                self.TRIALS, 3)
        got = estimate_false_alarm(*args, cb=code)
        assert screened
        assert got == unscreened(estimate_false_alarm, *args, cb=code)

    def test_rates_at_statistics(self, code, span_helpers, monkeypatch, screened):
        import jdd.montecarlo as montecarlo

        specs, plans, sigma2 = self.entries(code)
        self.adversarial(monkeypatch, code, plans[0].n_p, 51)
        blocks = unscreened(lambda: list(montecarlo._active_stats(specs, plans, sigma2,
                                                                  self.TRIALS, 3, code)))
        stats = [np.concatenate(st) for st in zip(*(s for s, _ in blocks))]
        args = (*self.at_statistics(specs, plans, sigma2, stats, [0, 6, 20, 101, 123, 2222]),
                self.TRIALS, 3)
        got = estimate_rates(*args, cb=code)
        assert screened
        assert got == unscreened(estimate_rates, *args, cb=code)
        assert all(r["pcw"].p_hat > 0.0 for r in got[:12])


class TestNoisePasses:
    @pytest.fixture
    def draws(self, monkeypatch):
        """Count every (stream, block, shape) the engine draws."""
        import jdd.montecarlo as montecarlo

        draws = Counter()
        gaussian_block, uniform_block = montecarlo.gaussian_block, montecarlo.uniform_block

        def counted(sigma2, seed, stream, block, shape):
            draws[stream, block, shape] += 1
            return gaussian_block(sigma2, seed, stream, block, shape)

        def counted_uniform(seed, stream, block, shape):
            draws[stream, block, shape] += 1
            return uniform_block(seed, stream, block, shape)

        monkeypatch.setattr(montecarlo, "gaussian_block", counted)
        monkeypatch.setattr(montecarlo, "uniform_block", counted_uniform)
        return draws

    def test_each_block_drawn_once(self, draws):
        # each function draws its own streams only, and each (stream, block)
        # once: calibration stream 4, the active evaluation 6 and 8 (7 with a
        # code), the false alarm 5. A partial last block draws only its own
        # trials' rows (or values)
        def noise(trials, width):
            return [(TRIALS_PER_BLOCK, width)] * (trials // TRIALS_PER_BLOCK) + [
                (trials % TRIALS_PER_BLOCK, width)]

        def once(*streams):
            """Every block of each (stream, block shapes) pair, drawn once."""
            return Counter({(stream, b, shape): 1 for stream, shapes in streams
                            for b, shape in enumerate(shapes)})

        sigma2 = snr_to_sigma2(-3.0)
        plans = [FramePlan(n_p=n_p, n_c=20 - n_p) for n_p in (2, 10)]
        spec = DetectorSpec(kind="hyped-exact")
        calibs = calibrate_threshold(spec, plans, sigma2, 9001, 1e-2, 3)
        assert draws == once((STREAM_CALIBRATION, noise(9001, 20)))
        tuned = [spec.with_gamma(c.gamma) for c in calibs]
        draws.clear()
        estimate_rates(tuned, plans, sigma2, 6003, 3)
        # one payload draw per block, at the longest payload (n_c = 18)
        assert draws == once((STREAM_ACTIVE_NOISE, noise(6003, 20)),
                             (STREAM_PAYLOAD, [(TRIALS_PER_BLOCK * 18,), (1907 * 18,)]))
        draws.clear()
        estimate_false_alarm(tuned, plans, sigma2, 6003, 3)
        assert draws == once((STREAM_IDLE_EVAL, noise(6003, 20)))

        plan = FramePlan(n_p=3, n_c=7)
        sigma2 = snr_to_sigma2(0.0)
        spec = DetectorSpec(kind="dad", gamma=0.0)
        draws.clear()
        estimate_rates(spec, plan, sigma2, 5000, 3, cb=hamming_7_4())
        assert draws == once((STREAM_ACTIVE_NOISE, noise(5000, 10)),
                             (STREAM_MESSAGES, [(TRIALS_PER_BLOCK,), (904,)]))
        draws.clear()
        estimate_false_alarm(spec, plan, sigma2, 5000, 3, cb=hamming_7_4())
        assert draws == once((STREAM_IDLE_EVAL, noise(5000, 10)))


    def test_mixed_lengths_drawn_once_at_the_longest(self, draws):
        # entries of lengths 12, 20 and 7 share each block, drawn once at n = 20;
        # one payload draw per block at the longest payload (n_c = 18), one
        # message draw per block with a code
        plans = [FramePlan(n_p=n_p, n_c=n - n_p) for n, n_p in ((12, 2), (20, 2), (7, 7), (20, 15))]
        sigma2 = [snr_to_sigma2(-3.0)] * len(plans)
        spec = DetectorSpec(kind="hyped-exact")
        calibrate_threshold(spec, plans, sigma2, 9001, 1e-2, 3)
        estimate_rates(spec.with_gamma(0.0), plans, sigma2, 9001, 3)
        estimate_false_alarm(spec.with_gamma(0.0), plans, sigma2, 9001, 3)
        want = Counter()
        for b, count in enumerate((TRIALS_PER_BLOCK, TRIALS_PER_BLOCK, 809)):
            for stream in (STREAM_CALIBRATION, STREAM_ACTIVE_NOISE, STREAM_IDLE_EVAL):
                want[stream, b, (count, 20)] += 1
            want[STREAM_PAYLOAD, b, (count * 18,)] += 1
        assert draws == want

        cb = hamming_7_4()
        plans = [FramePlan(n_p=n_p, n_c=7) for n_p in (3, 0, 10)]
        sigma2 = [snr_to_sigma2(0.0)] * len(plans)
        draws.clear()
        estimate_rates(DetectorSpec(kind="dad", gamma=0.0), plans, sigma2, 5000, 3, cb=cb)
        assert draws == Counter({(stream, b, shape): 1
                                 for b, count in enumerate((TRIALS_PER_BLOCK, 904))
                                 for stream, shape in ((STREAM_ACTIVE_NOISE, (count, 17)),
                                                       (STREAM_MESSAGES, (count,)))})


class TestFalseAlarmSplit:
    """estimate_rates and estimate_false_alarm equal the old joint estimate.

    Counts recorded from the joint estimate_rates, whose dict also held pfa,
    before the idle evaluation moved to estimate_false_alarm: its pfa is now
    estimate_false_alarm's result and the rest is estimate_rates', bit for bit.
    Each pin is (successes, trials) per rate, in RateEstimate.from_counts order.
    """

    def check(self, specs, plans, sigma2, seed, pinned, cb=None):
        rates = estimate_rates(specs, plans, sigma2, 6003, seed, cb=cb)
        pfas = estimate_false_alarm(specs, plans, sigma2, 6003, seed, cb=cb)
        assert len(rates) == len(pfas) == len(pinned)
        for got, pfa, want in zip(rates, pfas, pinned):
            want = {k: None if c is None else RateEstimate.from_counts(*c) for k, c in want.items()}
            assert pfa == want.pop("pfa")
            assert got == want

    def test_dad_and_preamble_with_hamming(self):
        specs = [DetectorSpec(kind="dad").with_gamma(6.0),
                 DetectorSpec(kind="preamble").with_gamma(2.0)]
        self.check(specs, FramePlan(n_p=3, n_c=7), snr_to_sigma2(0.0), 5, [
            {"pfa": (302, 6003), "pmd": (163, 6003), "pie": (413, 6003), "pcw": (250, 5840)},
            {"pfa": (119, 6003), "pmd": (2024, 6003), "pie": (2234, 6003), "pcw": (210, 3979)},
        ], cb=hamming_7_4())

    def test_hyped_split_grid_without_code(self):
        sigma2 = snr_to_sigma2(-3.0)
        n_ps = _split_candidates(SweepConfig(), 60, 1, "hyped")
        assert n_ps == [0, 7, 14, 21, 28, 35, 42, 49, 56, 59]
        plans = [FramePlan(n_p=n_p, n_c=60 - n_p) for n_p in n_ps]
        spec = DetectorSpec(kind="hyped-exact")
        calibs = calibrate_threshold(spec, plans, sigma2, 9001, 1e-2, 3)
        n_fa = [69, 69, 54, 48, 60, 61, 66, 69, 58, 60]
        n_md = [157, 42, 11, 2, 1, 0, 1, 0, 0, 0]
        self.check([spec.with_gamma(c.gamma) for c in calibs], plans, sigma2, 3, [
            {"pfa": (fa, 6003), "pmd": (md, 6003), "pie": (md, 6003), "pcw": None}
            for fa, md in zip(n_fa, n_md)])
