import math

import numpy as np
import pytest
from scipy.integrate import quad

from jdd.numerics import _log_cosh_in_place, q_func, q_inv


def q_quadrature(x):
    """Independent oracle: adaptive integration of the Gaussian upper tail."""
    val, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), x, x + 40, limit=200)
    return val


class TestQFunc:
    def test_symmetry_at_zero(self):
        assert q_func(0.0) == 0.5

    def test_tail_symmetry(self):
        for x in (-3.0, -0.7, 0.4, 2.5):
            assert q_func(-x) == pytest.approx(1.0 - q_func(x), abs=1e-15)

    def test_against_quadrature(self):
        # includes the 1e-4 point quoted throughout the blocklength bounds
        for x in (0.5, 1.0, 2.0, 3.71902, 6.0, 10.0):
            assert q_func(x) == pytest.approx(q_quadrature(x), rel=1e-10)

    def test_quoted_value(self):
        assert q_func(3.71902) == pytest.approx(1.0e-4, rel=1e-4)

    def test_strictly_decreasing(self):
        # keep the grid away from the left tail where Q saturates at 1.0
        x = np.linspace(-6, 6, 401)
        assert np.all(np.diff(q_func(x)) < 0)
        assert q_func(7.0) > q_func(9.0) > q_func(11.0) > 0.0


class TestQInv:
    def test_half_maps_to_zero(self):
        assert q_inv(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_round_trip(self):
        assert q_inv(q_func(2.0)) == pytest.approx(2.0, abs=1e-9)

    def test_round_trip_grid(self):
        p = np.logspace(-12, np.log10(1 - 1e-12), 200)
        assert np.all(np.abs(q_func(q_inv(p)) - p) / p < 1e-10)

    def test_against_bisection_oracle(self):
        # bisection on the quadrature oracle, independent of erfc/ndtri
        target = 1e-4
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if q_quadrature(mid) > target:
                lo = mid
            else:
                hi = mid
        assert q_inv(1e-4) == pytest.approx(0.5 * (lo + hi), abs=1e-6)
        assert q_inv(1e-4) == pytest.approx(3.71902, abs=1e-4)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError):
                q_inv(bad)

    def test_strictly_decreasing(self):
        p = np.linspace(1e-6, 1 - 1e-6, 500)
        assert np.all(np.diff(q_inv(p)) < 0)


class TestLogCosh:
    """The in-place ln cosh kernel of the HyPED statistic, on a copy of its input."""

    @staticmethod
    def log_cosh(x):
        ax = np.array(x, dtype=float, ndmin=1)
        _log_cosh_in_place(ax)
        return ax

    def test_zero(self):
        assert self.log_cosh(0.0)[0] == 0.0

    def test_large_argument_asymptote(self):
        assert self.log_cosh(1000.0)[0] == pytest.approx(1000.0 - math.log(2.0), rel=1e-12)

    def test_frozen_reference_value(self):
        # mpmath 40-digit evaluation of ln cosh(1/2)
        assert self.log_cosh(0.5)[0] == pytest.approx(0.1201145069582775246, rel=1e-14)

    def test_even(self):
        x = np.linspace(-50, 50, 1001)
        np.testing.assert_array_equal(self.log_cosh(x), self.log_cosh(-x))

    def test_no_overflow(self):
        assert np.isfinite(self.log_cosh(1e308)[0])

    @staticmethod
    def out_of_place(x):
        ax = np.abs(np.asarray(x, dtype=float))
        return ax - np.log(2.0) + np.log1p(np.exp(-2.0 * np.minimum(ax, 400.0)))

    def test_in_place_equals_formula(self):
        edges = [0.0, 400.0, np.nextafter(400.0, 0.0), np.nextafter(400.0, 1e3), 1e300,
                 0.5, 19.0, 1e-300]
        x = np.array(edges + [-e for e in edges])
        np.testing.assert_array_equal(self.log_cosh(x), self.out_of_place(x))
        grid = np.random.default_rng(0).normal(scale=30.0, size=(64, 84))
        np.testing.assert_array_equal(self.log_cosh(grid), self.out_of_place(grid))
