"""BI-AWGN slot model: noise variance from SNR, frame plans, seeded noise synthesis.

Randomness contract
-------------------
All noise is drawn from counter-based Philox streams keyed by
``(seed, stream, block)`` where ``block = trial // TRIALS_PER_BLOCK`` on a
fixed grid. A trial's noise therefore depends only on the base seed, the
stream tag, and the trial index - never on how trials are sharded across
workers. Normal variates are produced by inverting the normal CDF on Philox
uniforms, so the mapping from counters to noise is fully specified.

A block is filled in spans of its flattened values, on every core the
process may use. Philox is counter-based, so a span starting at value
``a`` (a multiple of 4: each counter step yields 4 doubles) starts its
generator at counter ``a // 4``, and the inversion is elementwise; the
values therefore do not depend on the span size or on the core count.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "TRIALS_PER_BLOCK",
    "FramePlan",
    "snr_to_sigma2",
    "gaussian_block",
    "uniform_block",
]

# Fixed batching grid for counter-based noise derivation. Changing this value
# changes every simulated stream, so it is a constant, not a knob.
TRIALS_PER_BLOCK = 4096

# Values per span of a block kernel: a multiple of 4, and large enough that
# handing a span to another core costs little against filling it
_SPAN = 1 << 15
# Values per span of whole rows, for kernels that reduce or fill rows of a
# block (detection statistics, active slots). Not _SPAN: on two cores, row
# spans of 1 << 15 values took the rate-hyped benchmark's sweep 0.46-0.48 s
# against 0.39-0.44 s, and one span of 1 << 16 for every kernel would double
# each thread's density buffers (jdd.bounds), +1.0-1.4 MiB of peak RSS on
# pie-bounds
_ROW_SPAN = 1 << 16

_local = threading.local()


def _start_pool():
    """Make the helper pool: one thread per usable core besides the caller's.

    The executor starts its threads at first use, not here at import.
    """
    global _HELPERS, _POOL
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        cores = os.cpu_count() or 1
    _HELPERS = cores - 1
    _POOL = ThreadPoolExecutor(_HELPERS) if _HELPERS else None


_start_pool()
if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool but none of its threads, so spans
    # queued there would never run and would hold their blocks
    os.register_at_fork(after_in_child=_start_pool)


def _on_cores(fn, stop, span):
    """Call fn(a, b) once for every span [a, b) of [0, stop), on the usable cores.

    The caller and up to _HELPERS pool threads pull spans from one shared
    iterator, and the caller keeps pulling until none is left, so every span
    is done even when no helper starts (a busy pool, one core). Helpers that
    never started are cancelled; only those that did are waited for. `fn`
    must write only what span [a, b) owns, from its own inputs alone, and
    must call numpy and private code only (a pool thread is outside any
    caller's call stack).
    """
    starts = iter(range(0, stop, span))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                a = next(starts, None)
            if a is None:
                return
            fn(a, min(a + span, stop))

    # no helper for a single span, and none at all on one core
    futures = [_POOL.submit(work) for _ in range(min(_HELPERS, -(-stop // span) - 1))]
    try:
        work()
    finally:
        for f in futures:
            if not f.cancel():
                f.result()
        # a cancelled helper stays queued until a pool thread is free to drop
        # it; it must not keep fn, and the block fn writes, alive until then
        fn = None


def _on_rows(fn, rows, width):
    """Call fn(a, b) for spans [a, b) of whole rows of a (rows, width) block.

    Each span holds about _ROW_SPAN values (at least one row); the spans run
    on the usable cores as in _on_cores, under the same rules for `fn`.
    """
    _on_cores(fn, rows, max(1, _ROW_SPAN // width))


def _thread_buffer(scratch, size):
    """This thread's buffer in `scratch` (a dict by thread), grown to `size`: buf[:size]."""
    buf = scratch.get(threading.get_ident())
    if buf is None or buf.size < size:
        buf = scratch[threading.get_ident()] = np.empty(size)
    return buf[:size]


def _blocks(trials):
    """Yield (block, count) for `trials` trials on the grid, block 0 first.

    Every stream iterates its trials this way, so trial t is row
    t % TRIALS_PER_BLOCK of block t // TRIALS_PER_BLOCK everywhere.
    """
    for block in range(-(-trials // TRIALS_PER_BLOCK)):
        yield block, min(TRIALS_PER_BLOCK, trials - block * TRIALS_PER_BLOCK)


def snr_to_sigma2(es_n0_db):
    """Noise variance per dimension from Es/N0 in dB: 1 / (2 * 10^(dB/10))."""
    return 1.0 / (2.0 * 10.0 ** (float(es_n0_db) / 10.0))


def _noise_variance(sigma2):
    """sigma2 as a float, refused unless it is finite and >= 0 (0 is the noiseless channel)."""
    s2 = float(sigma2)
    if not (np.isfinite(s2) and s2 >= 0.0):
        raise ValueError(f"noise variance sigma2 must be finite and >= 0, got {sigma2}")
    return s2


@dataclass(frozen=True)
class FramePlan:
    """Split of a slot into an all-plus preamble and a codeword segment.

    The noise is sign-symmetric, so every +/-1 preamble gives the detection
    statistics the same laws as the all-plus one.
    """

    n_p: int
    n_c: int

    def __post_init__(self):
        if self.n_p < 0 or self.n_c < 0:
            raise ValueError("segment lengths must be non-negative")
        if self.n < 1:
            raise ValueError("slot length n must be >= 1")

    @property
    def n(self):
        return self.n_p + self.n_c

    def split(self, y):
        """(preamble part, codeword part) of an observation batch."""
        y = np.asarray(y)
        return y[..., : self.n_p], y[..., self.n_p :]


def _philox_at(key, counter):
    """This thread's Philox generator, set to `key` with its counter at `counter`.

    Setting the state of one generator per thread is much cheaper than a new
    ``Philox(key=...)``, which first seeds itself from OS entropy.
    """
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([counter, 0, 0, 0], dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    return gen


def uniform_block(seed, stream, block, shape):
    """Open-interval uniforms from the Philox stream keyed (seed, stream, block).

    Equal to ``Generator(Philox(key=key)).random(shape)`` with its zeros
    raised to 2^-64, filled span by span (see the module docstring).
    """
    key = np.array([np.uint64(seed), (np.uint64(stream) << np.uint64(32)) ^ np.uint64(block)],
                   dtype=np.uint64)
    u = np.empty(shape)
    flat = u.reshape(-1)

    def fill(a, b):
        s = flat[a:b]
        _philox_at(key, a // 4).random(out=s)
        # random() lands in [0, 1); shift the atom at 0 away from the CDF pole
        np.maximum(s, 2.0 ** -64, out=s)

    _on_cores(fill, flat.size, _SPAN)
    return u


def gaussian_block(sigma2, seed, stream, block, shape):
    """Zero-mean Gaussians with variance sigma2, by inversion sampling.

    Computed in place on the uniform block, span by span: the same values as
    ``np.sqrt(sigma2) * ndtri(u)`` without a second block-sized array.
    """
    if sigma2 == 0.0:
        return np.zeros(shape)
    u = uniform_block(seed, stream, block, shape)
    flat = u.reshape(-1)
    scale = np.sqrt(sigma2)

    def invert(a, b):
        s = flat[a:b]
        ndtri(s, out=s)
        s *= scale

    _on_cores(invert, flat.size, _SPAN)
    return u
