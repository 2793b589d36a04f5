import math
import tracemalloc

import numpy as np
import pytest
from conftest import ROW_COUNTS, TILE_EDGE_ROWS, code_76_12

from jdd.channel import ChannelParams, FramePlan, gaussian_block
from jdd.codebook import CORR_TILE_BYTES, Codebook, from_generator, hamming_7_4
from jdd.detectors import (
    DetectorSpec,
    batch_statistic,
    stat_codebook_aided,
    stat_dad,
    stat_genie,
    stat_hyped_exact,
    stat_hyped_heuristic,
    stat_preamble,
)


def toy_code_k3():
    G = np.array([[1, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 1], [0, 0, 1, 1, 0, 1]])
    return from_generator(G)


class TestPreambleStat:
    def test_all_plus(self):
        params = ChannelParams(es_n0_db=0.0, sigma2=0.5, n=2)
        plan = FramePlan(n_p=2, n_c=0)
        assert stat_preamble(np.ones(2), plan, params) == pytest.approx(2.0)

    def test_all_zero(self):
        params = ChannelParams.from_db(-3.0, 4)
        plan = FramePlan(n_p=4, n_c=0)
        expected = -4 / (2 * params.sigma2)
        assert stat_preamble(np.zeros(4), plan, params) == pytest.approx(expected)

    def test_empty_preamble_rejected(self):
        params = ChannelParams.from_db(0.0, 4)
        with pytest.raises(ValueError):
            stat_preamble(np.zeros(0), FramePlan(n_p=0, n_c=4), params)

    def test_gaussian_law_under_active(self):
        # preamble = 1 transmitted: statistic ~ N(n_p/(2s2), n_p/s2)
        params = ChannelParams.from_db(-3.0, 8)
        plan = FramePlan(n_p=8, n_c=0)
        trials = 100_000
        z = gaussian_block(params.sigma2, seed=2, stream=0, block=0, shape=(trials, 8))
        stats = stat_preamble(1.0 + z, plan, params)
        s2 = params.sigma2
        mean, var = 8 / (2 * s2), 8 / s2
        assert abs(stats.mean() - mean) < 5 * math.sqrt(var / trials)
        assert abs(stats.var(ddof=1) - var) < 5 * var * math.sqrt(2 / (trials - 1))


class TestHypedExact:
    def test_zero_observation(self):
        params = ChannelParams.from_db(-3.0, 10)
        plan = FramePlan(n_p=4, n_c=6)
        expected = -10 / (2 * params.sigma2)
        assert stat_hyped_exact(np.zeros(10), plan, params) == pytest.approx(expected)

    def test_degenerates_to_preamble(self):
        params = ChannelParams.from_db(-1.0, 5)
        plan = FramePlan(n_p=5, n_c=0)
        rng = np.random.default_rng(3)
        y = rng.normal(size=5)
        assert stat_hyped_exact(y, plan, params) == pytest.approx(
            stat_preamble(y, plan, params), rel=1e-12
        )

    def test_frozen_hand_value(self):
        # mpmath evaluation of 0.5 - 0.3 + ln cosh(0.8) - 3/2
        params = ChannelParams(es_n0_db=10 * math.log10(0.5), sigma2=1.0, n=3)
        plan = FramePlan(n_p=2, n_c=1)
        y = np.array([0.5, -0.3, 0.8])
        assert stat_hyped_exact(y, plan, params) == pytest.approx(
            -1.0092464396716065, rel=1e-12
        )

    def test_split_sequence_bit_identical_to_single_split_reference(self):
        # the multi-split path shares one ln cosh pass; each split must still
        # equal the single-split formula exactly, not just to rounding
        from jdd.numerics import log_cosh

        params = ChannelParams.from_db(-3.0, 60)
        s2 = params.sigma2
        y = gaussian_block(s2, 5, 4, 0, (4096, 60))[:1000] + 0.3
        plans = [FramePlan(n_p=n_p, n_c=60 - n_p) for n_p in (59, 0, 7, 30, 56)]
        stats = stat_hyped_exact(y, plans, params)
        assert stats.shape == (len(plans), 1000)
        for plan, got in zip(plans, stats):
            terms = log_cosh(y[:, plan.n_p :] / s2)
            want = (terms.sum(axis=-1) + y[:, : plan.n_p].sum(axis=-1) / s2
                    - plan.n / (2.0 * s2))
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got, stat_hyped_exact(y, plan, params))

    def test_split_sequence_needs_one_slot_length(self):
        params = ChannelParams.from_db(0.0, 6)
        with pytest.raises(ValueError):
            stat_hyped_exact(np.zeros(6), [FramePlan(n_p=2, n_c=4), FramePlan(n_p=2, n_c=3)], params)


class TestBatchStatistic:
    def test_entry_list_matches_single_entries(self):
        cb = hamming_7_4()
        params = ChannelParams.from_db(-1.0, 10)
        plan = FramePlan(n_p=3, n_c=7)
        y = gaussian_block(params.sigma2, 2, 4, 0, (4096, 10))[:500]
        specs = [DetectorSpec(kind="hyped-exact"), DetectorSpec(kind="dad"),
                 DetectorSpec(kind="preamble"), DetectorSpec(kind="hyped-exact"),
                 DetectorSpec(kind="genie")]
        plans = [plan, plan, plan, FramePlan(n_p=5, n_c=5), plan]
        x = np.ones(10)
        got = batch_statistic(specs, y, plans, params, cb=cb, genie_x=x)
        assert len(got) == len(specs)
        for spec, pl, (stats, m_hat) in zip(specs, plans, got):
            want_stats, want_m = batch_statistic(spec, y, pl, params, cb=cb, genie_x=x)
            np.testing.assert_array_equal(stats, want_stats)
            if want_m is None:
                assert m_hat is None
            else:
                np.testing.assert_array_equal(m_hat, want_m)

    def test_entry_lists_must_pair_up(self):
        params = ChannelParams.from_db(0.0, 4)
        with pytest.raises(ValueError):
            batch_statistic([DetectorSpec(kind="preamble")] * 2, np.zeros((3, 4)),
                            [FramePlan(n_p=4, n_c=0)], params)


class TestHypedHeuristic:
    def test_three_four_five(self):
        plan = FramePlan(n_p=2, n_c=2)
        y = np.array([1.0, 1.0, 3.0, 4.0])
        assert stat_hyped_heuristic(y, plan, gamma_a=2.0) == pytest.approx(9.0)

    def test_pure_energy(self):
        plan = FramePlan(n_p=2, n_c=2)
        y = np.array([5.0, -7.0, 3.0, 4.0])
        assert stat_hyped_heuristic(y, plan, gamma_a=0.0) == pytest.approx(5.0)

    def test_zero_codeword_segment(self):
        plan = FramePlan(n_p=3, n_c=2)
        y = np.array([1.0, 2.0, 3.0, 0.0, 0.0])
        assert stat_hyped_heuristic(y, plan, gamma_a=1.5) == pytest.approx(1.5 * 6.0)


class TestDad:
    def test_noiseless_with_preamble(self):
        cb = toy_code_k3()
        plan = FramePlan(n_p=4, n_c=6)
        y = np.concatenate([np.ones(4), cb.codewords[5]])
        stat, m_hat = stat_dad(y, cb, plan)
        assert stat == pytest.approx(10.0)
        assert m_hat == 6

    def test_zero_observation(self):
        cb = toy_code_k3()
        plan = FramePlan(n_p=0, n_c=6)
        stat, m_hat = stat_dad(np.zeros(6), cb, plan)
        assert stat == 0.0
        assert m_hat == 1  # tie broken toward the smallest index

    def test_against_exhaustive_oracle(self):
        cb = toy_code_k3()
        plan = FramePlan(n_p=2, n_c=6)
        rng = np.random.default_rng(5)
        for _ in range(500):
            y = rng.normal(size=8) * 2
            stat, m_hat = stat_dad(y, cb, plan)
            corr = [y[:2].sum() + float(cb.codewords[i] @ y[2:]) for i in range(8)]
            assert stat == pytest.approx(max(corr))
            assert m_hat == int(np.argmax(corr)) + 1

    def test_scale_covariance(self):
        cb = toy_code_k3()
        plan = FramePlan(n_p=0, n_c=6)
        rng = np.random.default_rng(6)
        y = rng.normal(size=6)
        s1, m1 = stat_dad(y, cb, plan)
        s2, m2 = stat_dad(3.5 * y, cb, plan)
        assert s2 == pytest.approx(3.5 * s1)
        assert m1 == m2


class TestCodebookAided:
    def direct_density_quotient(self, y, cb, sigma2, gamma_a):
        """Oracle: explicit Gaussian densities, no log-domain shortcuts."""
        def density(y, x):
            return float(np.prod(np.exp(-((y - x) ** 2) / (2 * sigma2)) / math.sqrt(2 * math.pi * sigma2)))

        likes = [density(y, cw) for cw in cb.codewords]
        return (gamma_a * sum(likes) + max(likes)) / density(y, np.zeros(cb.n_c))

    @pytest.mark.parametrize("gamma_a", [0.0, 0.5, 2.0])
    def test_matches_density_quotient(self, gamma_a):
        G = np.array([[1, 0], [0, 1]])
        cb = from_generator(G)
        params = ChannelParams.from_db(-1.0, 2)
        rng = np.random.default_rng(7)
        for _ in range(200):
            y = rng.normal(size=2) * 2
            stat, _ = stat_codebook_aided(y, cb, params, gamma_a)
            oracle = self.direct_density_quotient(y, cb, params.sigma2, gamma_a)
            assert math.exp(stat) == pytest.approx(oracle, rel=1e-9)

    def test_gamma_a_zero_reduces_to_dad(self):
        cb = toy_code_k3()
        params = ChannelParams.from_db(-3.0, 6)
        plan = FramePlan(n_p=0, n_c=6)
        rng = np.random.default_rng(8)
        for _ in range(300):
            y = rng.normal(size=6) * 1.5
            s_cb, m_cb = stat_codebook_aided(y, cb, params, 0.0)
            s_dad, m_dad = stat_dad(y, cb, plan)
            assert m_cb == m_dad
            assert s_cb == pytest.approx(s_dad / params.sigma2 - 6 / (2 * params.sigma2), rel=1e-12)

    def test_single_codeword_collapse(self):
        cb = Codebook(n_c=3, k=0, G=np.zeros((0, 3), dtype=np.uint8), codewords=np.ones((1, 3)))
        params = ChannelParams(es_n0_db=10 * math.log10(0.5), sigma2=1.0, n=3)
        y = np.array([0.4, -0.2, 1.1])
        stat, m_hat = stat_codebook_aided(y, cb, params, gamma_a=0.7)
        expected = y.sum() + math.log(1.7) - 1.5
        assert stat == pytest.approx(expected, rel=1e-12)
        assert m_hat == 1

    def test_large_k_rejected(self):
        G = np.eye(17, dtype=np.uint8)
        cb = from_generator(G)
        params = ChannelParams.from_db(0.0, 17)
        with pytest.raises(ValueError):
            stat_codebook_aided(np.zeros(17), cb, params, 0.0)


def full_matrix_dad(y, cb, plan):
    """The untiled DAD formula: one correlation matrix, argmax, take_along_axis."""
    y_p, y_c = plan.split(y)
    corr = y_c @ cb.codewords.T
    m_hat = np.argmax(corr, axis=-1)
    best = np.take_along_axis(corr, np.expand_dims(m_hat, -1), axis=-1)[..., 0]
    pre = y_p.sum(axis=-1) if plan.n_p else 0.0
    return pre + best, m_hat + 1


def full_matrix_codebook_aided(y, cb, params, gamma_a):
    """The untiled codebook-aided formula over the whole correlation matrix."""
    s2 = params.sigma2
    a = (y @ cb.codewords.T) / s2
    m_hat = np.argmax(a, axis=-1)
    a_max = np.take_along_axis(a, np.expand_dims(m_hat, -1), axis=-1)[..., 0]
    if gamma_a == 0.0:
        stat = a_max - cb.n_c / (2.0 * s2)
    else:
        lse = np.log(gamma_a * np.exp(a - a_max[..., None]).sum(axis=-1) + 1.0)
        stat = a_max + lse - cb.n_c / (2.0 * s2)
    return stat, m_hat + 1


N_P = 8


def slot_block(cb, rows, sigma2=1.5):
    return gaussian_block(sigma2, 12, 0, 0, (4096, N_P + cb.n_c))[:rows]


def assert_same(got, ref):
    for g, r in zip(got, ref):
        np.testing.assert_array_equal(g, r)


class TestTiledStatistics:
    """DAD and codebook-aided statistics equal the untiled full-matrix formulas."""

    params = ChannelParams.from_db(-1.0, 84)

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_dad(self, code, rows):
        plan = FramePlan(n_p=N_P, n_c=code.n_c)
        y = slot_block(code, rows)
        assert_same(stat_dad(y, code, plan), full_matrix_dad(y, code, plan))

    @pytest.mark.parametrize("gamma_a", [0.0, 0.5])
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_codebook_aided(self, code, rows, gamma_a):
        y = slot_block(code, rows)[:, N_P:]
        assert_same(stat_codebook_aided(y, code, self.params, gamma_a),
                    full_matrix_codebook_aided(y, code, self.params, gamma_a))

    @pytest.mark.parametrize("gamma_a", [0.0, 0.5])
    def test_single_observation(self, code, gamma_a):
        plan = FramePlan(n_p=N_P, n_c=code.n_c)
        y = slot_block(code, 3)[2]
        stat, m_hat = stat_dad(y, code, plan)
        ref_stat, ref_m = full_matrix_dad(y, code, plan)
        assert (stat, m_hat) == (float(ref_stat), int(ref_m))
        stat, m_hat = stat_codebook_aided(y[N_P:], code, self.params, gamma_a)
        ref_stat, ref_m = full_matrix_codebook_aided(y[N_P:], code, self.params, gamma_a)
        assert (stat, m_hat) == (float(ref_stat), int(ref_m))

    @pytest.mark.parametrize("gamma_a", [0.0, 0.5])
    def test_three_dim_batch(self, code, gamma_a):
        plan = FramePlan(n_p=N_P, n_c=code.n_c)
        y = slot_block(code, 24).reshape(2, 12, -1)
        stat, m_hat = stat_dad(y, code, plan)
        assert stat.shape == m_hat.shape == (2, 12)
        assert_same((stat, m_hat), full_matrix_dad(y, code, plan))
        y_c = y[..., N_P:]
        assert_same(stat_codebook_aided(y_c, code, self.params, gamma_a),
                    full_matrix_codebook_aided(y_c, code, self.params, gamma_a))

    def test_zero_rows_pick_first_index(self, code):
        plan = FramePlan(n_p=N_P, n_c=code.n_c)
        y = slot_block(code, 4096).copy()
        y[TILE_EDGE_ROWS] = 0.0
        _, m_hat = stat_dad(y, code, plan)
        np.testing.assert_array_equal(m_hat[TILE_EDGE_ROWS], 1)
        _, m_hat = stat_codebook_aided(y[:, N_P:], code, self.params, 0.5)
        np.testing.assert_array_equal(m_hat[TILE_EDGE_ROWS], 1)

    def test_dad_memory_is_one_tile(self):
        cb = code_76_12()
        plan = FramePlan(n_p=N_P, n_c=cb.n_c)
        y = slot_block(cb, 4096)
        tracemalloc.start()
        try:
            stat_dad(y, cb, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the untiled 4096 x 2^12 float64 correlation alone is 128 MiB
        assert peak < 2 * CORR_TILE_BYTES + (8 << 20)


class TestGenie:
    def test_noiseless(self):
        x = np.array([1.0, -1.0, 1.0, 1.0])
        params = ChannelParams(es_n0_db=0.0, sigma2=0.0, n=4)
        assert stat_genie(x, x, params) == pytest.approx(4.0)

    def test_orthogonal(self):
        x = np.ones(4)
        y = np.array([1.0, -1.0, 1.0, -1.0])
        params = ChannelParams.from_db(0.0, 4)
        assert stat_genie(y, x, params) == 0.0

    def test_idle_law(self):
        params = ChannelParams.from_db(-3.0, 84)
        trials = 100_000
        z = gaussian_block(params.sigma2, seed=9, stream=0, block=0, shape=(trials, 84))
        stats = stat_genie(z, np.ones(84), params)
        var = 84 * params.sigma2
        assert abs(stats.mean()) < 5 * math.sqrt(var / trials)
        assert abs(stats.var(ddof=1) - var) < 5 * var * math.sqrt(2 / (trials - 1))


class TestDetectorSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DetectorSpec(kind="nonsense")

    def test_with_gamma(self):
        spec = DetectorSpec(kind="dad").with_gamma(3.0)
        assert spec.gamma == 3.0 and spec.kind == "dad"

    @pytest.mark.parametrize("gamma_a", [-0.5, np.nan, np.inf])
    def test_bad_gamma_a(self, gamma_a):
        # stat_codebook_aided would return NaN for these weights
        with pytest.raises(ValueError, match="gamma_a"):
            DetectorSpec(kind="codebook-aided", gamma_a=gamma_a)
