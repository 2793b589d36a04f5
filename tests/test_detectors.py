import math
import tracemalloc

import numpy as np
import pytest
from conftest import ROW_COUNTS, TILE_EDGE_ROWS, assert_row_values, code_76_12

from jdd import channel
from jdd.channel import TRIALS_PER_BLOCK, FramePlan, gaussian_block, snr_to_sigma2
from jdd.codebook import CORR_TILE_BYTES, Codebook, from_generator, hamming_7_4
from jdd.detectors import (
    DetectorSpec,
    _log_cosh_in_place,
    _random_payload_statistics,
    _sign_masks,
    batch_statistic,
    stat_codebook_aided,
    stat_dad,
    stat_hyped_exact,
    stat_preamble,
)


def toy_code_k3():
    G = np.array([[1, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 1], [0, 0, 1, 1, 0, 1]])
    return from_generator(G)


class TestPreambleStat:
    def test_all_plus(self):
        sigma2 = 0.5
        plan = FramePlan(n_p=2, n_c=0)
        assert stat_preamble(np.ones(2), plan, sigma2) == pytest.approx(2.0)

    def test_all_zero(self):
        sigma2 = snr_to_sigma2(-3.0)
        plan = FramePlan(n_p=4, n_c=0)
        expected = -4 / (2 * sigma2)
        assert stat_preamble(np.zeros(4), plan, sigma2) == pytest.approx(expected)

    def test_empty_preamble_rejected(self):
        sigma2 = snr_to_sigma2(0.0)
        with pytest.raises(ValueError):
            stat_preamble(np.zeros(0), FramePlan(n_p=0, n_c=4), sigma2)

    def test_gaussian_law_under_active(self):
        # preamble = 1 transmitted: statistic ~ N(n_p/(2s2), n_p/s2)
        s2 = snr_to_sigma2(-3.0)
        plan = FramePlan(n_p=8, n_c=0)
        trials = 100_000
        z = gaussian_block(s2, seed=2, stream=0, block=0, shape=(trials, 8))
        stats = stat_preamble(1.0 + z, plan, s2)
        mean, var = 8 / (2 * s2), 8 / s2
        assert abs(stats.mean() - mean) < 5 * math.sqrt(var / trials)
        assert abs(stats.var(ddof=1) - var) < 5 * var * math.sqrt(2 / (trials - 1))


class TestHypedExact:
    def test_zero_observation(self):
        sigma2 = snr_to_sigma2(-3.0)
        plan = FramePlan(n_p=4, n_c=6)
        expected = -10 / (2 * sigma2)
        assert stat_hyped_exact(np.zeros(10), plan, sigma2) == pytest.approx(expected)

    def test_degenerates_to_preamble(self):
        sigma2 = snr_to_sigma2(-1.0)
        plan = FramePlan(n_p=5, n_c=0)
        rng = np.random.default_rng(3)
        y = rng.normal(size=5)
        assert stat_hyped_exact(y, plan, sigma2) == pytest.approx(
            stat_preamble(y, plan, sigma2), rel=1e-12
        )

    def test_frozen_hand_value(self):
        # mpmath evaluation of 0.5 - 0.3 + ln cosh(0.8) - 3/2
        sigma2 = 1.0
        plan = FramePlan(n_p=2, n_c=1)
        y = np.array([0.5, -0.3, 0.8])
        assert stat_hyped_exact(y, plan, sigma2) == pytest.approx(
            -1.0092464396716065, rel=1e-12
        )

    def test_split_sequence_bit_identical_to_single_split_reference(self):
        # the multi-split path shares one ln cosh pass; each split must still
        # equal the single-split formula exactly, not just to rounding
        s2 = snr_to_sigma2(-3.0)
        y = gaussian_block(s2, 5, 4, 0, (4096, 60))[:1000] + 0.3
        plans = [FramePlan(n_p=n_p, n_c=60 - n_p) for n_p in (59, 0, 7, 30, 56)]
        stats = stat_hyped_exact(y, plans, s2)
        assert stats.shape == (len(plans), 1000)
        for plan, got in zip(plans, stats):
            terms = log_cosh(y[:, plan.n_p :] / s2)
            want = (terms.sum(axis=-1) + y[:, : plan.n_p].sum(axis=-1) / s2
                    - plan.n / (2.0 * s2))
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got, stat_hyped_exact(y, plan, s2))

    def test_split_sequence_needs_one_slot_length(self):
        sigma2 = snr_to_sigma2(0.0)
        with pytest.raises(ValueError):
            stat_hyped_exact(np.zeros(6), [FramePlan(n_p=2, n_c=4), FramePlan(n_p=2, n_c=3)], sigma2)


def log_cosh(x):
    """ln cosh(x) of a new array, by the kernel the statistics call."""
    x = np.array(x, dtype=float)
    _log_cosh_in_place(x)
    return x


def serial_hyped(y, plans, s2):
    """The HyPED statistic of every split by the plain formula, one split at a time."""
    return [log_cosh(y[..., pl.n_p :] / s2).sum(axis=-1) + y[..., : pl.n_p].sum(axis=-1) / s2
            - pl.n / (2.0 * s2) for pl in plans]


class TestHypedSpans:
    """Row spans on any thread count give the serial formula bit for bit."""

    sigma2 = snr_to_sigma2(-3.0)
    plans = [FramePlan(n_p=n_p, n_c=84 - n_p) for n_p in (84, 0, 10, 42, 70, 83)]

    def check(self, y):
        got = stat_hyped_exact(y, self.plans, self.sigma2)
        assert got.shape == (len(self.plans), *y.shape[:-1])
        for pl, g, want in zip(self.plans, got, serial_hyped(y, self.plans, self.sigma2)):
            assert g.tobytes() == np.asarray(want).tobytes()
            assert stat_hyped_exact(y, pl, self.sigma2).tobytes() == g.tobytes()

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_block(self, span_helpers, rows):
        self.check(gaussian_block(self.sigma2, 7, 4, 1, (TRIALS_PER_BLOCK, 84))[:rows] + 0.5)

    def test_single_slot(self, span_helpers):
        y = gaussian_block(self.sigma2, 7, 4, 1, (84,)) + 1.0
        self.check(y)
        assert np.ndim(stat_hyped_exact(y, self.plans[2], self.sigma2)) == 0

    @pytest.mark.parametrize("rows", [1, 848, 3616])
    def test_stack(self, span_helpers, rows):
        y = gaussian_block(self.sigma2, 7, 4, 2, (3, rows, 84))
        self.check(y)
        self.check(np.swapaxes(y, 0, 1))  # a stack that is no contiguous block

    @pytest.mark.parametrize("span", [1, 84, 85, 3 * 84 + 1])
    def test_any_span_size(self, span_helpers, monkeypatch, span):
        # spans of one to three rows: many span edges in one block
        monkeypatch.setattr(channel, "_ROW_SPAN", span)
        self.check(gaussian_block(self.sigma2, 7, 4, 3, (1025, 84)))

    def test_no_rows(self, span_helpers):
        self.check(np.empty((0, 84)))


class TestRandomPayloadTables:
    """HyPED from the two ln cosh tables equals stat_hyped_exact on the assembled slots."""

    sigma2 = snr_to_sigma2(-3.0)
    # three slot lengths, n_c = 0 and n_p = 0 among them, and a preamble entry
    plans = [FramePlan(n_p=n_p, n_c=n - n_p) for n, n_p in
             ((84, 0), (84, 42), (60, 60), (60, 7), (84, 83), (23, 5), (60, 0))]
    kinds = ["hyped-exact"] * 5 + ["preamble", "hyped-exact"]

    def check(self, rows, seed):
        z = gaussian_block(self.sigma2, seed, 6, 0, (rows, 84)).reshape(-1)
        n_c_max = max(pl.n_c for pl in self.plans)
        u = channel.uniform_block(seed, 8, 0, (rows * n_c_max,))
        # the edges of the sign rule: u = 1/2 exactly gives -1, as in jdd.montecarlo
        for i, edge in enumerate((0.5, 2.0 ** -64, 0.5 - 2.0 ** -54, 0.5 + 2.0 ** -53)):
            u[i::7] = edge
        specs = [DetectorSpec(kind=k) for k in self.kinds]
        sigma2 = snr_to_sigma2(-3.0)
        got = _random_payload_statistics(specs, self.plans, z.copy(), rows, _sign_masks(u.copy()),
                                         sigma2)
        for s, pl, g in zip(specs, self.plans, got):
            x_c = np.where(u[: rows * pl.n_c] < 0.5, 1.0, -1.0).reshape(rows, pl.n_c)
            x = np.concatenate([np.ones((rows, pl.n_p)), x_c], axis=1)
            y = x + z[: rows * pl.n].reshape(rows, pl.n)
            want, _ = batch_statistic(s, y, pl, snr_to_sigma2(-3.0))
            assert g.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_block(self, span_helpers, rows):
        self.check(rows, 3)

    @pytest.mark.parametrize("span", [1, 84, 3 * 60 + 1])
    def test_any_span_size(self, span_helpers, monkeypatch, span):
        monkeypatch.setattr(channel, "_ROW_SPAN", span)
        self.check(1025, 4)

    def test_dad_needs_a_code(self):
        sigma2 = snr_to_sigma2(0.0)
        with pytest.raises(ValueError, match="needs a codebook"):
            _random_payload_statistics([DetectorSpec(kind="dad")], [FramePlan(n_p=3, n_c=7)],
                                       np.zeros(10), 1, np.zeros(7), sigma2)


class TestBatchStatistic:
    def test_entry_list_matches_single_entries(self):
        cb = hamming_7_4()
        sigma2 = snr_to_sigma2(-1.0)
        plan = FramePlan(n_p=3, n_c=7)
        y = gaussian_block(sigma2, 2, 4, 0, (4096, 10))[:500]
        specs = [DetectorSpec(kind="hyped-exact"), DetectorSpec(kind="dad"),
                 DetectorSpec(kind="preamble"), DetectorSpec(kind="hyped-exact")]
        plans = [plan, plan, plan, FramePlan(n_p=5, n_c=5)]
        got = batch_statistic(specs, y, plans, sigma2, cb=cb)
        assert len(got) == len(specs)
        for spec, pl, (stats, m_hat) in zip(specs, plans, got):
            want_stats, want_m = batch_statistic(spec, y, pl, sigma2, cb=cb)
            np.testing.assert_array_equal(stats, want_stats)
            if want_m is None:
                assert m_hat is None
            else:
                np.testing.assert_array_equal(m_hat, want_m)

    def test_entry_lists_must_pair_up(self):
        sigma2 = snr_to_sigma2(0.0)
        with pytest.raises(ValueError):
            batch_statistic([DetectorSpec(kind="preamble")] * 2, np.zeros((3, 4)),
                            [FramePlan(n_p=4, n_c=0)], sigma2)


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
        sigma2 = snr_to_sigma2(-1.0)
        rng = np.random.default_rng(7)
        for _ in range(200):
            y = rng.normal(size=2) * 2
            stat, _ = stat_codebook_aided(y, cb, sigma2, gamma_a)
            oracle = self.direct_density_quotient(y, cb, sigma2, gamma_a)
            assert math.exp(stat) == pytest.approx(oracle, rel=1e-9)

    def test_gamma_a_zero_reduces_to_dad(self):
        cb = toy_code_k3()
        sigma2 = snr_to_sigma2(-3.0)
        plan = FramePlan(n_p=0, n_c=6)
        rng = np.random.default_rng(8)
        for _ in range(300):
            y = rng.normal(size=6) * 1.5
            s_cb, m_cb = stat_codebook_aided(y, cb, sigma2, 0.0)
            s_dad, m_dad = stat_dad(y, cb, plan)
            assert m_cb == m_dad
            assert s_cb == pytest.approx(s_dad / sigma2 - 6 / (2 * sigma2), rel=1e-12)

    def test_single_codeword_collapse(self):
        cb = Codebook(n_c=3, k=0, G=np.zeros((0, 3), dtype=np.uint8), codewords=np.ones((1, 3)))
        sigma2 = 1.0
        y = np.array([0.4, -0.2, 1.1])
        stat, m_hat = stat_codebook_aided(y, cb, sigma2, gamma_a=0.7)
        expected = y.sum() + math.log(1.7) - 1.5
        assert stat == pytest.approx(expected, rel=1e-12)
        assert m_hat == 1

    def test_large_k_rejected(self):
        G = np.eye(17, dtype=np.uint8)
        cb = from_generator(G)
        sigma2 = snr_to_sigma2(0.0)
        with pytest.raises(ValueError):
            stat_codebook_aided(np.zeros(17), cb, sigma2, 0.0)


def full_matrix_dad(y, cb, plan):
    """The untiled DAD formula: one correlation matrix, argmax, take_along_axis."""
    y_p, y_c = plan.split(y)
    corr = y_c @ cb.codewords.T
    m_hat = np.argmax(corr, axis=-1)
    best = np.take_along_axis(corr, np.expand_dims(m_hat, -1), axis=-1)[..., 0]
    pre = y_p.sum(axis=-1) if plan.n_p else 0.0
    return pre + best, m_hat + 1


def full_matrix_codebook_aided(y, cb, s2, gamma_a):
    """The untiled codebook-aided formula over the whole correlation matrix."""
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
    """DAD and codebook-aided statistics against the untiled full-matrix formulas,
    bit for bit where conftest.assert_row_values says."""

    sigma2 = snr_to_sigma2(-1.0)

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_dad(self, code, rows):
        plan = FramePlan(n_p=N_P, n_c=code.n_c)
        y = slot_block(code, rows)
        assert_row_values(lambda y: stat_dad(y, code, plan), y, full_matrix_dad(y, code, plan))

    @pytest.mark.parametrize("gamma_a", [0.0, 0.5])
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_codebook_aided(self, code, rows, gamma_a):
        y = slot_block(code, rows)[:, N_P:]
        assert_row_values(lambda y: stat_codebook_aided(y, code, self.sigma2, gamma_a), y,
                          full_matrix_codebook_aided(y, code, self.sigma2, gamma_a))

    @pytest.mark.parametrize("gamma_a", [0.0, 0.5])
    def test_single_observation(self, code, gamma_a):
        plan = FramePlan(n_p=N_P, n_c=code.n_c)
        y = slot_block(code, 3)[2]
        stat, m_hat = stat_dad(y, code, plan)
        ref_stat, ref_m = full_matrix_dad(y, code, plan)
        assert (stat, m_hat) == (float(ref_stat), int(ref_m))
        stat, m_hat = stat_codebook_aided(y[N_P:], code, self.sigma2, gamma_a)
        ref_stat, ref_m = full_matrix_codebook_aided(y[N_P:], code, self.sigma2, gamma_a)
        assert (stat, m_hat) == (float(ref_stat), int(ref_m))

    @pytest.mark.parametrize("gamma_a", [0.0, 0.5])
    def test_three_dim_batch(self, code, gamma_a):
        # a stack is one matrix of slots: the full-matrix formula on its rows
        plan = FramePlan(n_p=N_P, n_c=code.n_c)
        y = slot_block(code, 24).reshape(2, 12, -1)
        stat, m_hat = stat_dad(y, code, plan)
        assert stat.shape == m_hat.shape == (2, 12)
        rows = y.reshape(-1, y.shape[-1])
        assert_same((stat.ravel(), m_hat.ravel()), full_matrix_dad(rows, code, plan))
        y_c = y[..., N_P:]
        got = stat_codebook_aided(y_c, code, self.sigma2, gamma_a)
        assert_same([g.ravel() for g in got],
                    full_matrix_codebook_aided(rows[:, N_P:], code, self.sigma2, gamma_a))

    def test_zero_rows_pick_first_index(self, code):
        plan = FramePlan(n_p=N_P, n_c=code.n_c)
        y = slot_block(code, 4096).copy()
        y[TILE_EDGE_ROWS] = 0.0
        _, m_hat = stat_dad(y, code, plan)
        np.testing.assert_array_equal(m_hat[TILE_EDGE_ROWS], 1)
        _, m_hat = stat_codebook_aided(y[:, N_P:], code, self.sigma2, 0.5)
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
        assert peak < CORR_TILE_BYTES + 16 * 8 * len(y)


class TestNoiseVariance:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_refused(self, bad):
        # each statistic that divides by sigma2 checks it
        plan = FramePlan(n_p=2, n_c=6)
        match = "noise variance sigma2 must be finite and >= 0"
        with pytest.raises(ValueError, match=match):
            stat_preamble(np.zeros(2), plan, bad)
        with pytest.raises(ValueError, match=match):
            stat_hyped_exact(np.zeros(8), plan, bad)
        with pytest.raises(ValueError, match=match):
            stat_codebook_aided(np.zeros(6), toy_code_k3(), bad, 0.0)


class TestGenie:
    """The genie's statistic x^T y, whose law the closed-form genie rows assume."""

    def test_idle_law(self):
        sigma2 = snr_to_sigma2(-3.0)
        trials = 100_000
        z = gaussian_block(sigma2, seed=9, stream=0, block=0, shape=(trials, 84))
        stats = (z * np.ones(84)).sum(-1)
        var = 84 * sigma2
        assert abs(stats.mean()) < 5 * math.sqrt(var / trials)
        assert abs(stats.var(ddof=1) - var) < 5 * var * math.sqrt(2 / (trials - 1))


class TestDetectorSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DetectorSpec(kind="nonsense")

    @pytest.mark.parametrize("kind", ["genie", "hyped-heuristic", "codebook-aided"])
    def test_kind_outside_the_sweeps_rejected(self, kind):
        # the engine runs the three detectors the sweeps simulate; the genie and
        # codebook-aided statistics are called directly
        with pytest.raises(ValueError, match="unknown detector kind"):
            DetectorSpec(kind=kind)

    def test_with_gamma(self):
        spec = DetectorSpec(kind="dad").with_gamma(3.0)
        assert spec.gamma == 3.0 and spec.kind == "dad"

    @pytest.mark.parametrize("gamma_a", [-0.5, np.nan, np.inf])
    def test_bad_gamma_a(self, gamma_a):
        # the weight is checked by the statistic itself, which would return
        # NaN for these weights
        sigma2 = snr_to_sigma2(-3.0)
        with pytest.raises(ValueError, match="gamma_a"):
            stat_codebook_aided(np.zeros(6), toy_code_k3(), sigma2, gamma_a)
