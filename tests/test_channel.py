import hashlib
import math
import multiprocessing
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtri

from jdd import channel
from jdd.channel import (
    TRIALS_PER_BLOCK,
    FramePlan,
    gaussian_block,
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


class TestEmitSlot:
    """Laws of synthesized slots: y = z when idle, y = x + z when active."""

    def test_idle_mean(self):
        sigma2 = snr_to_sigma2(-3.0)
        z = gaussian_block(sigma2, seed=4, stream=0, block=0, shape=(100_000, 10))
        se = math.sqrt(sigma2 / z.size)
        assert abs(z.mean()) < 5 * se

    def test_energy_expectations(self):
        # ||y||^2 / n averages sigma2 when idle and 1 + sigma2 when active
        sigma2, n = snr_to_sigma2(-3.0), 16
        trials = 50_000
        z = gaussian_block(sigma2, seed=5, stream=0, block=0, shape=(trials, n))
        idle = (z**2).sum(axis=1) / n
        se = idle.std(ddof=1) / math.sqrt(trials)
        assert abs(idle.mean() - sigma2) < 5 * se
        active = ((1.0 + z) ** 2).sum(axis=1) / n
        se = active.std(ddof=1) / math.sqrt(trials)
        assert abs(active.mean() - (1.0 + sigma2)) < 5 * se

    def test_matched_correlation_law(self):
        # x^T y under a matching active input follows N(n, n sigma2)
        sigma2, n = snr_to_sigma2(-3.0), 24
        trials = 100_000
        z = gaussian_block(sigma2, seed=6, stream=0, block=0, shape=(trials, n))
        corr = (1.0 + z).sum(axis=1)  # all-plus input
        se_mean = math.sqrt(n * sigma2 / trials)
        assert abs(corr.mean() - n) < 5 * se_mean
        var = corr.var(ddof=1)
        se_var = var * math.sqrt(2.0 / (trials - 1))
        assert abs(var - n * sigma2) < 5 * se_var


class TestFramePlan:
    def test_slot_length(self):
        assert FramePlan(n_p=3, n_c=5).n == 8

    def test_negative_length_rejected(self):
        for n_p, n_c in ((-1, 4), (2, -1)):
            with pytest.raises(ValueError, match="non-negative"):
                FramePlan(n_p=n_p, n_c=n_c)

    def test_bad_slot_length(self):
        with pytest.raises(ValueError, match="slot length n must be >= 1"):
            FramePlan(n_p=0, n_c=0)

    def test_split(self):
        plan = FramePlan(n_p=2, n_c=3)
        y = np.arange(5.0)
        y_p, y_c = plan.split(y)
        np.testing.assert_array_equal(y_p, [0, 1])
        np.testing.assert_array_equal(y_c, [2, 3, 4])


def philox(seed, stream, block, shape):
    """One generator for the whole block: the reference for every span split."""
    key = np.array([np.uint64(seed), (np.uint64(stream) << np.uint64(32)) ^ np.uint64(block)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(shape)


class TestInPlaceNoise:
    """The in-place block synthesis equals the plain out-of-place formula."""

    @pytest.mark.parametrize("shape", [(4096, 84), (4096, 7), (4096 * 13,), (5,)])
    @pytest.mark.parametrize("stream", [0, 1, 3])
    def test_equals_out_of_place_formula(self, shape, stream):
        u = np.maximum(philox(7, stream, 2, shape), 2.0 ** -64)
        np.testing.assert_array_equal(uniform_block(7, stream, 2, shape), u)
        for sigma2 in (snr_to_sigma2(-3.0), 0.25, 1.0):
            np.testing.assert_array_equal(gaussian_block(sigma2, 7, stream, 2, shape),
                                          np.sqrt(sigma2) * ndtri(u))

    def test_zero_variance(self):
        z = gaussian_block(0.0, 7, 1, 0, (3, 4))
        assert z.shape == (3, 4) and not z.any()


SPAN = channel._SPAN


class TestSpans:
    """A block filled in spans on several threads equals one generator's block."""

    @pytest.mark.parametrize("shape", [
        (TRIALS_PER_BLOCK, 84),          # 10.5 spans
        (TRIALS_PER_BLOCK, 7),           # less than one span
        (SPAN,), (SPAN + 1,), (3 * SPAN + 5,),
        (4097, 13),                      # odd size
        (3641, 9),                       # one span plus 1, in rows
        (5,), (2, 3),
    ])
    def test_equals_one_generator(self, span_helpers, shape):
        u = np.maximum(philox(11, 2, 5, shape), 2.0 ** -64)
        assert uniform_block(11, 2, 5, shape).tobytes() == u.tobytes()
        for sigma2 in (1.0, 0.3):
            z = np.sqrt(sigma2) * ndtri(u)
            got = gaussian_block(sigma2, 11, 2, 5, shape)
            assert got.shape == z.shape and got.tobytes() == z.tobytes()

    @pytest.mark.parametrize("span", [4, 8, 12])
    def test_any_span_size(self, span_helpers, monkeypatch, span):
        # spans of a few values: many span edges in a small block
        monkeypatch.setattr(channel, "_SPAN", span)
        u = np.maximum(philox(3, 1, 0, (37, 3)), 2.0 ** -64)
        assert uniform_block(3, 1, 0, (37, 3)).tobytes() == u.tobytes()
        assert gaussian_block(0.5, 3, 1, 0, (37, 3)).tobytes() == (np.sqrt(0.5) * ndtri(u)).tobytes()

    @pytest.mark.parametrize("b, width", [(1, 84), (17, 9), (390, 84), (3641, 9), (4095, 84)])
    def test_partial_last_block_is_a_flat_prefix(self, span_helpers, b, width):
        # a last block of b trials draws the first b rows of the full-width block
        full = gaussian_block(1.0, 4, 3, 2, (TRIALS_PER_BLOCK, width)).reshape(-1)
        part = gaussian_block(1.0, 4, 3, 2, (b, width)).reshape(-1)
        assert part.tobytes() == full[: b * width].tobytes()
        assert part.tobytes() == ndtri(np.maximum(philox(4, 3, 2, b * width), 2.0 ** -64)).tobytes()

    def test_kernel_error_reaches_the_caller(self, span_helpers):
        def fn(a, b):
            if a == 2 * SPAN:
                raise RuntimeError("span failed")

        with pytest.raises(RuntimeError, match="span failed"):
            channel._on_cores(fn, 5 * SPAN, SPAN)

    def test_every_span_once(self, span_helpers):
        # thread switches as often as the interpreter allows: a span pulled
        # twice or lost between threads would show in the list
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            channel._on_cores(lambda a, b: seen.append((a, b)), 20001, 2)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == [(a, min(a + 2, 20001)) for a in range(0, 20001, 2)]

    def test_busy_pool(self, monkeypatch):
        # every helper is taken: the caller fills all spans itself, and the
        # queued helpers it cancelled keep neither its kernel nor the block
        pool = ThreadPoolExecutor(2)
        monkeypatch.setattr(channel, "_HELPERS", 2)
        monkeypatch.setattr(channel, "_POOL", pool)
        release = threading.Event()
        busy = [pool.submit(release.wait, 60) for _ in range(2)]
        try:
            block = np.zeros(40)
            alive = weakref.ref(block)

            def fill(a, b, block=block):
                block[a:b] = 1.0

            channel._on_cores(fill, 40, 8)
            assert block.sum() == 40.0
            del fill, block
            assert alive() is None
        finally:
            release.set()
            for f in busy:
                f.result(timeout=60)
            pool.shutdown()


def _noise_digest():
    return hashlib.sha256(gaussian_block(0.5, 9, 1, 3, (TRIALS_PER_BLOCK, 84)).tobytes()).hexdigest()


def _send_noise_digest(conn):
    conn.send(_noise_digest())
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
def test_forked_child_draws_noise():
    # the parent's pool threads are running (or idle) when it forks; the child
    # has none of them and must still finish, with the same values
    expected = _noise_digest()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_send_noise_digest, args=(send,))
    proc.start()
    send.close()
    try:
        assert recv.poll(60), "forked child returned no noise within 60 s"
        assert recv.recv() == expected
    finally:
        proc.join(10)
        if proc.is_alive():
            proc.kill()
