"""Shared fixtures: codes for the tiled-correlation tests of jdd.codebook and
jdd.detectors, and helper pools for the span kernels of jdd.channel and jdd.bounds.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from jdd import channel
from jdd.codebook import from_generator, hamming_7_4, reed_muller_1


def random_systematic(k, n_c, seed):
    """Generator [I_k | P] with P drawn from `seed`."""
    P = np.random.default_rng(seed).integers(0, 2, (k, n_c - k), dtype=np.uint8)
    return np.concatenate([np.eye(k, dtype=np.uint8), P], axis=1)


def code_76_12():
    """A random systematic (76, 12) code: 512-row correlation tiles."""
    return from_generator(random_systematic(12, 76, seed=3))


# 848 and 3616 are the partial last blocks of 50000 and 20000 trials; 513 and
# 1025 leave one row after whole 512-row tiles of the (76, 12) code
ROW_COUNTS = (1, 7, 513, 848, 1025, 3616, 4096)
TILE_EDGE_ROWS = [0, 511, 512, 2047, 4095]  # on both sides of (76, 12) tile edges

_CODES = {"random-76-12": code_76_12, "hamming-7-4": hamming_7_4,
          "rm-1-5": lambda: reed_muller_1(5)}


@pytest.fixture(scope="module", params=sorted(_CODES))
def code(request):
    return _CODES[request.param]()


@pytest.fixture(params=[0, 1, 3], ids=lambda n: f"{n}-helpers")
def span_helpers(request, monkeypatch):
    """Fill the block kernels alone, or with a pool of 1 or 3 helper threads.

    jdd.channel sizes its pool by the usable cores; this gives every box the
    serial path and a pool with more threads than spans of a small block.
    """
    pool = ThreadPoolExecutor(request.param) if request.param else None
    monkeypatch.setattr(channel, "_HELPERS", request.param)
    monkeypatch.setattr(channel, "_POOL", pool)
    yield request.param
    if pool is not None:
        pool.shutdown()
