import math
from collections import Counter

import numpy as np
import pytest
from conftest import ROW_COUNTS
from scipy.stats import beta, binom

from jdd.channel import (
    TRIALS_PER_BLOCK,
    ChannelParams,
    FramePlan,
    _blocks,
    gaussian_block,
    uniform_block,
)
from jdd.codebook import hamming_7_4, repetition_code
from jdd.detectors import DetectorSpec, batch_statistic
from jdd.montecarlo import (
    STREAM_ACTIVE_NOISE,
    STREAM_CALIBRATION,
    STREAM_IDLE_EVAL,
    STREAM_MESSAGES,
    STREAM_PAYLOAD,
    CalibrationResult,
    RateEstimate,
    _payload,
    calibrate_threshold,
    clopper_pearson,
    estimate_false_alarm,
    estimate_rates,
)
from jdd.numerics import q_func, q_inv
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
        params = ChannelParams.from_db(-3.0, 8)
        plan = FramePlan(n_p=8, n_c=0)
        with pytest.raises(ValueError):
            calibrate_threshold(DetectorSpec(kind="preamble"), plan, params, 100, 1e-4, 0)

    def test_genie_gamma_matches_quantile(self):
        # the genie detector is the preamble matched filter over the whole slot
        # (n_p = n), whose idle statistic is ~ N(-n/(2 sigma2), n/sigma2)
        params = ChannelParams.from_db(-3.0, 84)
        plan = FramePlan(n_p=84, n_c=0)
        eps_fa = 1e-3
        trials = 200_000
        res = calibrate_threshold(DetectorSpec(kind="preamble"), plan, params, trials, eps_fa, 11)
        scale = math.sqrt(84 / params.sigma2)
        gamma_true = -84 / (2 * params.sigma2) + scale * q_inv(eps_fa)
        # standard error of the empirical quantile via the density at the target
        pdf = math.exp(-q_inv(eps_fa) ** 2 / 2) / math.sqrt(2 * math.pi) / scale
        se = math.sqrt(eps_fa * (1 - eps_fa) / trials) / pdf
        assert abs(res.gamma - gamma_true) < 5 * se
        assert not res.infeasible
        # the false alarm rate at gamma, measured on the independent evaluation stream
        pfa = estimate_false_alarm(DetectorSpec(kind="preamble").with_gamma(res.gamma), plan,
                                   params, trials, 11)
        assert pfa.ci_low <= eps_fa <= pfa.ci_high

    def test_deterministic(self):
        params = ChannelParams.from_db(-2.0, 16)
        plan = FramePlan(n_p=4, n_c=12)
        spec = DetectorSpec(kind="hyped-exact")
        a = calibrate_threshold(spec, plan, params, 5000, 1e-1, 7)
        b = calibrate_threshold(spec, plan, params, 5000, 1e-1, 7)
        assert a == b

    def test_seed_changes_result(self):
        params = ChannelParams.from_db(-2.0, 16)
        plan = FramePlan(n_p=4, n_c=12)
        spec = DetectorSpec(kind="hyped-exact")
        a = calibrate_threshold(spec, plan, params, 5000, 1e-1, 7)
        b = calibrate_threshold(spec, plan, params, 5000, 1e-1, 8)
        assert a.gamma != b.gamma

    def test_degenerate_statistic_flagged_infeasible(self):
        # noiseless idle slots give a one-atom statistic; no threshold can
        # achieve a sub-atom false alarm rate. DAD's correlation needs no
        # division by sigma2, unlike the preamble and HyPED statistics
        params = ChannelParams(es_n0_db=0.0, sigma2=0.0, n=7)
        plan = FramePlan(n_p=0, n_c=7)
        res = calibrate_threshold(DetectorSpec(kind="dad"), plan, params, 1000, 0.1, 0,
                                  cb=hamming_7_4())
        assert res.infeasible


class TestEstimateRates:
    def setup_method(self):
        self.cb = hamming_7_4()
        self.params = ChannelParams.from_db(0.0, 10)
        self.plan = FramePlan(n_p=3, n_c=7)

    def test_requires_threshold(self):
        with pytest.raises(ValueError):
            estimate_rates(DetectorSpec(kind="dad"), self.plan, self.params, 100, 0, cb=self.cb)
        with pytest.raises(ValueError):
            estimate_false_alarm(DetectorSpec(kind="dad"), self.plan, self.params, 100, 0,
                                 cb=self.cb)

    def test_noiseless_all_rates_zero(self):
        params = ChannelParams(es_n0_db=0.0, sigma2=0.0, n=10)
        spec = DetectorSpec(kind="dad").with_gamma(5.0)  # 0 < gamma < n
        rates = estimate_rates(spec, self.plan, params, 2000, 0, cb=self.cb)
        assert set(rates) == {"pmd", "pcw", "pie"}
        assert estimate_false_alarm(spec, self.plan, params, 2000, 0, cb=self.cb).p_hat == 0.0
        assert rates["pmd"].p_hat == 0.0
        assert rates["pcw"].p_hat == 0.0
        assert rates["pie"].p_hat == 0.0
        # noiseless statistics sit exactly on these thresholds (idle 0, active
        # n_p + n_c = 10), and a statistic equal to gamma counts as detected
        assert estimate_false_alarm(spec.with_gamma(0.0), self.plan, params, 2000, 0,
                                    cb=self.cb).p_hat == 1.0
        assert estimate_rates(spec.with_gamma(10.0), self.plan, params, 2000, 0,
                              cb=self.cb)["pmd"].p_hat == 0.0

    def test_deterministic(self):
        spec = DetectorSpec(kind="dad").with_gamma(6.0)
        a = estimate_rates(spec, self.plan, self.params, 20_000, 5, cb=self.cb)
        b = estimate_rates(spec, self.plan, self.params, 20_000, 5, cb=self.cb)
        assert a == b

    def test_genie_pmd_matches_closed_form(self):
        # the genie detector is the preamble matched filter at n_p = n, whose
        # active statistic is ~ N(n/(2 sigma2), n/sigma2)
        params = ChannelParams.from_db(-3.0, 84)
        plan = FramePlan(n_p=84, n_c=0)
        gamma = 30.0
        spec = DetectorSpec(kind="preamble").with_gamma(gamma)
        trials = 100_000
        rates = estimate_rates(spec, plan, params, trials, 3, cb=None)
        scale = math.sqrt(84 / params.sigma2)
        pmd_true = 1.0 - q_func((gamma - 84 / (2 * params.sigma2)) / scale)
        se = math.sqrt(pmd_true * (1 - pmd_true) / trials)
        assert abs(rates["pmd"].p_hat - pmd_true) < 5 * se

    def test_inclusive_error_counting_identity(self):
        # an inclusive error is a miss or a detected-but-wrong decode, so the
        # raw counts must satisfy n_ie = n_md + n_cw exactly
        spec = DetectorSpec(kind="dad").with_gamma(5.0)
        trials = 20_000
        rates = estimate_rates(spec, self.plan, self.params, trials, 9, cb=self.cb)
        n_md = round(rates["pmd"].p_hat * trials)
        n_ie = round(rates["pie"].p_hat * trials)
        n_cw = round(rates["pcw"].p_hat * rates["pcw"].trials)
        assert n_ie == n_md + n_cw
        assert rates["pcw"].trials == trials - n_md

    def test_sandwich_holds_empirically(self):
        spec = DetectorSpec(kind="dad").with_gamma(6.0)
        rates = estimate_rates(spec, self.plan, self.params, 20_000, 4, cb=self.cb)
        pmd, pie = rates["pmd"].p_hat, rates["pie"].p_hat
        assert max(pmd, rates["pcw"].p_hat * rates["pcw"].trials / 20_000) <= pie
        assert pie <= pmd + rates["pcw"].p_hat + 1e-12

    def test_no_codebook_gives_no_pcw(self):
        spec = DetectorSpec(kind="preamble").with_gamma(2.0)
        rates = estimate_rates(spec, self.plan, self.params, 5000, 2, cb=None)
        assert rates["pcw"] is None
        assert rates["pie"].p_hat == rates["pmd"].p_hat

    def test_repetition_pcw_beats_high_rate_code(self):
        # at equal n_c the repetition code should decode more reliably
        params = ChannelParams.from_db(-3.0, 7)
        plan = FramePlan(n_p=0, n_c=7)
        spec = DetectorSpec(kind="dad").with_gamma(-1e9)  # always detect
        rep = estimate_rates(spec, plan, params, 20_000, 6, cb=repetition_code(7))
        ham = estimate_rates(spec, plan, params, 20_000, 6, cb=hamming_7_4())
        assert rep["pcw"].p_hat < ham["pcw"].p_hat


class TestMultiEntry:
    """A multi-entry call must equal the per-entry serial calls exactly."""

    CALIB = 9001  # neither count is a multiple of the block size
    TRIALS = 6003

    def assert_matches_serial(self, specs, plans, params, seed, cb=None):
        assert self.CALIB % TRIALS_PER_BLOCK and self.TRIALS % TRIALS_PER_BLOCK
        calibs = calibrate_threshold(specs, plans, params, self.CALIB, 1e-2, seed, cb=cb)
        serial = [calibrate_threshold(s, p, params, self.CALIB, 1e-2, seed, cb=cb)
                  for s, p in zip(specs, plans)]
        assert calibs == serial  # gamma and infeasible alike
        tuned = [s.with_gamma(c.gamma) for s, c in zip(specs, calibs)]
        rates = estimate_rates(tuned, plans, params, self.TRIALS, seed, cb=cb)
        assert rates == [estimate_rates(s, p, params, self.TRIALS, seed, cb=cb)
                         for s, p in zip(tuned, plans)]
        assert (estimate_false_alarm(tuned, plans, params, self.TRIALS, seed, cb=cb)
                == [estimate_false_alarm(s, p, params, self.TRIALS, seed, cb=cb)
                    for s, p in zip(tuned, plans)])
        return rates

    def test_hyped_exact_over_split_grid(self):
        params = ChannelParams.from_db(-3.0, 60)
        n_ps = _split_candidates(SweepConfig(), 60, 1, "hyped")
        assert 0 in n_ps and len(n_ps) > 2
        plans = [FramePlan(n_p=n_p, n_c=60 - n_p) for n_p in n_ps]
        self.assert_matches_serial([DetectorSpec(kind="hyped-exact")] * len(plans), plans, params, 3)

    def test_hyped_exact_and_preamble_on_one_plan(self):
        params = ChannelParams.from_db(-3.0, 60)
        plan = FramePlan(n_p=24, n_c=36)
        specs = [DetectorSpec(kind="hyped-exact"), DetectorSpec(kind="preamble")]
        self.assert_matches_serial(specs, [plan, plan], params, 4)

    def test_codebook_entries(self):
        params = ChannelParams.from_db(0.0, 10)
        plan = FramePlan(n_p=3, n_c=7)
        cb = hamming_7_4()
        self.assert_matches_serial([DetectorSpec(kind="dad")], [plan], params, 5, cb=cb)
        # entries that decode separately share one ML decode per block
        specs = [DetectorSpec(kind="dad"), DetectorSpec(kind="preamble"), DetectorSpec(kind="hyped-exact")]
        rates = self.assert_matches_serial(specs, [plan] * 3, params, 5, cb=cb)
        assert all(r["pcw"] is not None for r in rates)

    def test_lone_spec_or_plan_is_broadcast(self):
        params = ChannelParams.from_db(-3.0, 20)
        plans = [FramePlan(n_p=n_p, n_c=20 - n_p) for n_p in (2, 10)]
        spec = DetectorSpec(kind="hyped-exact")
        assert (calibrate_threshold(spec, plans, params, 1000, 0.1, 1)
                == calibrate_threshold([spec, spec], plans, params, 1000, 0.1, 1))
        one = calibrate_threshold(spec, plans[0], params, 1000, 0.1, 1)
        assert isinstance(one, CalibrationResult)
        assert calibrate_threshold([spec], [plans[0]], params, 1000, 0.1, 1) == [one]

    def test_bad_entries_rejected(self):
        params = ChannelParams.from_db(-3.0, 20)
        spec = DetectorSpec(kind="preamble")
        plans = [FramePlan(n_p=n_p, n_c=20 - n_p) for n_p in (2, 10, 12)]
        with pytest.raises(ValueError):
            calibrate_threshold([spec, spec], plans, params, 1000, 0.1, 1)
        with pytest.raises(ValueError):
            calibrate_threshold([], plans[0], params, 1000, 0.1, 1)
        with pytest.raises(ValueError):  # plan does not cover the slot
            calibrate_threshold(spec, FramePlan(n_p=2, n_c=2), params, 1000, 0.1, 1)
        with pytest.raises(ValueError):
            estimate_rates(spec.with_gamma(0.0), plans[0], params, 0, 1)
        with pytest.raises(ValueError):
            estimate_false_alarm(spec.with_gamma(0.0), plans[0], params, 0, 1)


class TestActiveSpans:
    """Active slots filled in row spans score as the slots x + z of the plain formula."""

    params = ChannelParams.from_db(-3.0, 60)
    plans = [FramePlan(n_p=n_p, n_c=60 - n_p) for n_p in (0, 7, 30, 59, 60)]
    specs = [DetectorSpec(kind="hyped-exact", gamma=g) for g in (-3.0, 0.0, 8.0, 20.0, 30.0)]

    def reference(self, specs, plans, trials, seed):
        """P_MD and P_IE counts of every entry: slots formed by where and concatenate."""
        n_md = [0] * len(specs)
        for block, count in _blocks(trials):
            z = gaussian_block(self.params.sigma2, seed, STREAM_ACTIVE_NOISE, block, (count, 60))
            for i, (s, pl) in enumerate(zip(specs, plans)):
                u = uniform_block(seed, STREAM_PAYLOAD, block, (count * pl.n_c,))
                x_c = np.where(u.reshape(count, pl.n_c) < 0.5, 1.0, -1.0)
                x = np.concatenate([np.ones((count, pl.n_p)), x_c], axis=1)
                stats, _ = batch_statistic(s, x + z, pl, self.params)
                n_md[i] += int(np.sum(stats < s.gamma))
        return [{"pmd": RateEstimate.from_counts(md, trials),
                 "pie": RateEstimate.from_counts(md, trials), "pcw": None} for md in n_md]

    @pytest.mark.parametrize("trials", ROW_COUNTS)
    def test_hyped_splits_equal_plain_slots(self, span_helpers, trials):
        rates = estimate_rates(self.specs, self.plans, self.params, trials, 2)
        assert rates == self.reference(self.specs, self.plans, trials, 2)
        assert rates == [estimate_rates(s, pl, self.params, trials, 2)
                         for s, pl in zip(self.specs, self.plans)]

    def test_every_kind_without_code(self, span_helpers):
        # preamble and HyPED entries of different splits, in one call
        specs = [DetectorSpec(kind="preamble", gamma=5.0), DetectorSpec(kind="hyped-exact", gamma=8.0),
                 DetectorSpec(kind="preamble", gamma=30.0)]
        plans = [self.plans[1], self.plans[2], self.plans[3]]
        assert (estimate_rates(specs, plans, self.params, 5000, 4)
                == self.reference(specs, plans, 5000, 4))

    def test_payload_signs(self):
        # +1 exactly where the uniform is below 1/2, at the edges too
        u = np.array([2.0 ** -64, 0.5 - 2.0 ** -54, 0.5, 0.5 + 2.0 ** -53, 1.0 - 2.0 ** -53, 0.25])
        got = _payload(u, 3, 0, 2)
        assert got.tobytes() == np.where(u < 0.5, 1.0, -1.0).reshape(2, 3).tobytes()
        assert _payload(u, 2, 1, 3).tobytes() == np.where(u[2:] < 0.5, 1.0, -1.0).reshape(2, 2).tobytes()


class TestTiledCorrelationPerBlock:
    """With a code, each active block is correlated once, whatever the entry order."""

    def test_dad_and_preamble_in_either_order(self, code, monkeypatch):
        import jdd.codebook

        correlate, calls = jdd.codebook._tiled_correlation, []

        def counted(y, codewords, reduce):
            calls.append(len(y))
            return correlate(y, codewords, reduce)

        monkeypatch.setattr(jdd.codebook, "_tiled_correlation", counted)
        # at -7 dB every code decodes some blocks wrongly, so a wrong m_hat shows
        params = ChannelParams.from_db(-7.0, 8 + code.n_c)
        plan = FramePlan(n_p=8, n_c=code.n_c)
        dad = DetectorSpec(kind="dad", gamma=0.5 * params.n)
        pre = DetectorSpec(kind="preamble", gamma=1.0)
        trials = TRIALS_PER_BLOCK + 848
        blocks = [TRIALS_PER_BLOCK, 848]
        got = {}
        for order in ((dad, pre), (pre, dad)):
            calls.clear()
            got[order[0].kind] = estimate_rates(list(order), plan, params, trials, 6, cb=code)
            assert calls == blocks
        assert got["dad"] == got["preamble"][::-1]
        for s, rates in zip((dad, pre), got["dad"]):
            calls.clear()
            assert estimate_rates(s, plan, params, trials, 6, cb=code) == rates
            assert calls == blocks
            assert rates["pcw"].p_hat > 0.0


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

        params = ChannelParams.from_db(-3.0, 20)
        plans = [FramePlan(n_p=n_p, n_c=20 - n_p) for n_p in (2, 10)]
        spec = DetectorSpec(kind="hyped-exact")
        calibs = calibrate_threshold(spec, plans, params, 9001, 1e-2, 3)
        assert draws == once((STREAM_CALIBRATION, noise(9001, 20)))
        tuned = [spec.with_gamma(c.gamma) for c in calibs]
        draws.clear()
        estimate_rates(tuned, plans, params, 6003, 3)
        # one payload draw per block, at the longest payload (n_c = 18)
        assert draws == once((STREAM_ACTIVE_NOISE, noise(6003, 20)),
                             (STREAM_PAYLOAD, [(TRIALS_PER_BLOCK * 18,), (1907 * 18,)]))
        draws.clear()
        estimate_false_alarm(tuned, plans, params, 6003, 3)
        assert draws == once((STREAM_IDLE_EVAL, noise(6003, 20)))

        plan = FramePlan(n_p=3, n_c=7)
        params = ChannelParams.from_db(0.0, 10)
        spec = DetectorSpec(kind="dad", gamma=0.0)
        draws.clear()
        estimate_rates(spec, plan, params, 5000, 3, cb=hamming_7_4())
        assert draws == once((STREAM_ACTIVE_NOISE, noise(5000, 10)),
                             (STREAM_MESSAGES, [(TRIALS_PER_BLOCK,), (904,)]))
        draws.clear()
        estimate_false_alarm(spec, plan, params, 5000, 3, cb=hamming_7_4())
        assert draws == once((STREAM_IDLE_EVAL, noise(5000, 10)))


class TestFalseAlarmSplit:
    """estimate_rates and estimate_false_alarm equal the old joint estimate.

    Counts recorded from the joint estimate_rates, whose dict also held pfa,
    before the idle evaluation moved to estimate_false_alarm: its pfa is now
    estimate_false_alarm's result and the rest is estimate_rates', bit for bit.
    Each pin is (successes, trials) per rate, in RateEstimate.from_counts order.
    """

    def check(self, specs, plans, params, seed, pinned, cb=None):
        rates = estimate_rates(specs, plans, params, 6003, seed, cb=cb)
        pfas = estimate_false_alarm(specs, plans, params, 6003, seed, cb=cb)
        assert len(rates) == len(pfas) == len(pinned)
        for got, pfa, want in zip(rates, pfas, pinned):
            want = {k: None if c is None else RateEstimate.from_counts(*c) for k, c in want.items()}
            assert pfa == want.pop("pfa")
            assert got == want

    def test_dad_and_preamble_with_hamming(self):
        specs = [DetectorSpec(kind="dad").with_gamma(6.0),
                 DetectorSpec(kind="preamble").with_gamma(2.0)]
        self.check(specs, FramePlan(n_p=3, n_c=7), ChannelParams.from_db(0.0, 10), 5, [
            {"pfa": (302, 6003), "pmd": (163, 6003), "pie": (413, 6003), "pcw": (250, 5840)},
            {"pfa": (119, 6003), "pmd": (2024, 6003), "pie": (2234, 6003), "pcw": (210, 3979)},
        ], cb=hamming_7_4())

    def test_hyped_split_grid_without_code(self):
        params = ChannelParams.from_db(-3.0, 60)
        n_ps = _split_candidates(SweepConfig(), 60, 1, "hyped")
        assert n_ps == [0, 7, 14, 21, 28, 35, 42, 49, 56, 59]
        plans = [FramePlan(n_p=n_p, n_c=60 - n_p) for n_p in n_ps]
        spec = DetectorSpec(kind="hyped-exact")
        calibs = calibrate_threshold(spec, plans, params, 9001, 1e-2, 3)
        n_fa = [69, 69, 54, 48, 60, 61, 66, 69, 58, 60]
        n_md = [157, 42, 11, 2, 1, 0, 1, 0, 0, 0]
        self.check([spec.with_gamma(c.gamma) for c in calibs], plans, params, 3, [
            {"pfa": (fa, 6003), "pmd": (md, 6003), "pie": (md, 6003), "pcw": None}
            for fa, md in zip(n_fa, n_md)])
