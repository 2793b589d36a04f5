import math

import numpy as np
import pytest
from scipy.special import ndtri

from jdd.channel import (
    ChannelParams,
    FramePlan,
    gaussian_block,
    modulate,
    snr_to_sigma2,
    uniform_block,
)


class TestSnrConversion:
    def test_zero_db(self):
        assert snr_to_sigma2(0.0) == 0.5

    def test_minus_three_db(self):
        assert snr_to_sigma2(-3.0) == pytest.approx(0.997631, rel=1e-5)

    def test_three_db(self):
        assert snr_to_sigma2(3.0103) == pytest.approx(0.25, rel=1e-4)


class TestParams:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            ChannelParams(es_n0_db=0.0, sigma2=0.3, n=8)

    def test_from_db(self):
        p = ChannelParams.from_db(-3.0, 84)
        assert p.sigma2 == pytest.approx(1 / (2 * 10 ** (-0.3)))
        assert p.n == 84

    def test_bad_slot_length(self):
        with pytest.raises(ValueError):
            ChannelParams.from_db(0.0, 0)


class TestModulate:
    def test_all_zero(self):
        np.testing.assert_array_equal(modulate([0, 0, 0]), [1, 1, 1])

    def test_per_symbol(self):
        np.testing.assert_array_equal(modulate([1, 0, 1]), [-1, 1, -1])

    def test_unit_energy(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 100)
        np.testing.assert_array_equal(modulate(bits) ** 2, np.ones(100))


class TestEmitSlot:
    """Laws of synthesized slots: y = z when idle, y = x + z when active."""

    def test_idle_mean(self):
        p = ChannelParams.from_db(-3.0, 10)
        z = gaussian_block(p.sigma2, seed=4, stream=0, block=0, shape=(100_000, 10))
        se = math.sqrt(p.sigma2 / z.size)
        assert abs(z.mean()) < 5 * se

    def test_energy_expectations(self):
        # ||y||^2 / n averages sigma2 when idle and 1 + sigma2 when active
        p = ChannelParams.from_db(-3.0, 16)
        trials = 50_000
        z = gaussian_block(p.sigma2, seed=5, stream=0, block=0, shape=(trials, p.n))
        idle = (z**2).sum(axis=1) / p.n
        se = idle.std(ddof=1) / math.sqrt(trials)
        assert abs(idle.mean() - p.sigma2) < 5 * se
        active = ((1.0 + z) ** 2).sum(axis=1) / p.n
        se = active.std(ddof=1) / math.sqrt(trials)
        assert abs(active.mean() - (1.0 + p.sigma2)) < 5 * se

    def test_matched_correlation_law(self):
        # x^T y under a matching active input follows N(n, n sigma2)
        p = ChannelParams.from_db(-3.0, 24)
        trials = 100_000
        z = gaussian_block(p.sigma2, seed=6, stream=0, block=0, shape=(trials, p.n))
        corr = (1.0 + z).sum(axis=1)  # all-plus input
        se_mean = math.sqrt(p.n * p.sigma2 / trials)
        assert abs(corr.mean() - p.n) < 5 * se_mean
        var = corr.var(ddof=1)
        se_var = var * math.sqrt(2.0 / (trials - 1))
        assert abs(var - p.n * p.sigma2) < 5 * se_var


class TestFramePlan:
    def test_default_preamble_all_plus(self):
        plan = FramePlan(n_p=3, n_c=5)
        np.testing.assert_array_equal(plan.preamble, np.ones(3))
        assert plan.n == 8

    def test_split(self):
        plan = FramePlan(n_p=2, n_c=3)
        y = np.arange(5.0)
        y_p, y_c = plan.split(y)
        np.testing.assert_array_equal(y_p, [0, 1])
        np.testing.assert_array_equal(y_c, [2, 3, 4])

    def test_preamble_validation(self):
        with pytest.raises(ValueError):
            FramePlan(n_p=2, n_c=0, preamble=np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            FramePlan(n_p=2, n_c=0, preamble=np.ones(3))


class TestInPlaceNoise:
    """The in-place block synthesis equals the plain out-of-place formula."""

    @staticmethod
    def philox(seed, stream, block, shape):
        key = np.array([np.uint64(seed), (np.uint64(stream) << np.uint64(32)) ^ np.uint64(block)],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key)).random(shape)

    @pytest.mark.parametrize("shape", [(4096, 84), (4096, 7), (4096 * 13,), (5,)])
    @pytest.mark.parametrize("stream", [0, 1, 3])
    def test_equals_out_of_place_formula(self, shape, stream):
        u = np.maximum(self.philox(7, stream, 2, shape), 2.0 ** -64)
        np.testing.assert_array_equal(uniform_block(7, stream, 2, shape), u)
        for sigma2 in (snr_to_sigma2(-3.0), 0.25, 1.0):
            np.testing.assert_array_equal(gaussian_block(sigma2, 7, stream, 2, shape),
                                          np.sqrt(sigma2) * ndtri(u))

    def test_zero_variance(self):
        z = gaussian_block(0.0, 7, 1, 0, (3, 4))
        assert z.shape == (3, 4) and not z.any()
