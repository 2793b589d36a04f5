"""Shared fixtures: codes for the tiled-correlation tests of jdd.codebook and
jdd.detectors, and helper pools for the span kernels of jdd.channel and jdd.bounds.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from jdd import channel, codebook
from jdd.codebook import from_generator, hamming_7_4, reed_muller_1


def random_systematic(k, n_c, seed):
    """Generator [I_k | P] with P drawn from `seed`."""
    P = np.random.default_rng(seed).integers(0, 2, (k, n_c - k), dtype=np.uint8)
    return np.concatenate([np.eye(k, dtype=np.uint8), P], axis=1)


def code_76_12():
    """A random systematic (76, 12) code, tiled in both plans of codebook._tiles."""
    return from_generator(random_systematic(12, 76, seed=3))


def tile_step(M, itemsize):
    """Rows of a whole correlation tile of M codewords in `itemsize`-byte values."""
    return codebook._tiles(codebook.CORR_TILE_BYTES // itemsize, M, itemsize)[0][1]


def _tile_edges():
    """Row counts at the edges of the (76, 12) code's float32 and float64 tile
    plans, and the rows on both sides of each tile edge of a 4096-row batch.

    848 and 3616 are the partial last blocks of 50000 and 20000 trials. Per
    plan: one row past one or two whole tiles (folded), and the longest folded
    remainder and the shortest tile of its own past one whole tile.
    """
    M, counts, edges = 1 << 12, {1, 7, 848, 3616, 4096}, {0, 4095}
    for itemsize in (4, 8):
        step = tile_step(M, itemsize)
        counts |= {step + 1, 2 * step + 1, step + step // 8 - 1, step + step // 8}
        edges |= {r for s, _ in codebook._tiles(4096, M, itemsize)[1:] for r in (s - 1, s)}
    return tuple(sorted(counts)), sorted(edges)


ROW_COUNTS, TILE_EDGE_ROWS = _tile_edges()

# one product over the whole batch gives the tiles' values on one BLAS thread; on
# two, OpenBLAS's Haswell kernels give some rows other last bits
ONE_BLAS_THREAD = os.environ.get("OPENBLAS_NUM_THREADS") == "1"


def assert_row_values(fn, y, ref):
    """fn(y)'s per-row arrays against `ref`, one product's over the batch y.

    On every BLAS setup a row's values depend on the row, its index, the
    batch's row count and the code alone: they are the same bits when every
    other row of the batch changes, and within a few ulps of `ref`. On one
    BLAS thread they are ref's bit for bit.
    """
    got = fn(y)
    other = y.copy()
    other[1::2] *= -0.5
    for g, r, o in zip(got, ref, fn(other)):
        if ONE_BLAS_THREAD:
            np.testing.assert_array_equal(g, r)
        else:
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12)
        assert g[::2].tobytes() == o[::2].tobytes()


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
