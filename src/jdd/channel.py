"""BI-AWGN slot model: SNR bookkeeping, BPSK mapping, seeded slot synthesis.

Randomness contract
-------------------
All noise is drawn from counter-based Philox streams keyed by
``(seed, stream, block)`` where ``block = trial // TRIALS_PER_BLOCK`` on a
fixed grid. A trial's noise therefore depends only on the base seed, the
stream tag, and the trial index - never on how trials are sharded across
workers. Normal variates are produced by inverting the normal CDF on Philox
uniforms, so the mapping from counters to noise is fully specified.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "TRIALS_PER_BLOCK",
    "ChannelParams",
    "FramePlan",
    "snr_to_sigma2",
    "modulate",
    "gaussian_block",
    "uniform_block",
]

# Fixed batching grid for counter-based noise derivation. Changing this value
# changes every simulated stream, so it is a constant, not a knob.
TRIALS_PER_BLOCK = 4096


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


@dataclass(frozen=True)
class ChannelParams:
    """Slot length plus the two linked SNR representations."""

    es_n0_db: float
    sigma2: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("slot length n must be >= 1")
        if self.sigma2 < 0:
            raise ValueError("noise variance must be >= 0")
        if self.sigma2 > 0:
            expected = snr_to_sigma2(self.es_n0_db)
            if not np.isclose(self.sigma2, expected, rtol=1e-9):
                raise ValueError(
                    f"inconsistent SNR: sigma2={self.sigma2} but "
                    f"{self.es_n0_db} dB implies {expected}"
                )

    @classmethod
    def from_db(cls, es_n0_db, n):
        return cls(es_n0_db=float(es_n0_db), sigma2=snr_to_sigma2(es_n0_db), n=int(n))


@dataclass(frozen=True)
class FramePlan:
    """Split of a slot into a fixed preamble and a codeword segment."""

    n_p: int
    n_c: int
    preamble: np.ndarray = None

    def __post_init__(self):
        if self.n_p < 0 or self.n_c < 0:
            raise ValueError("segment lengths must be non-negative")
        if self.preamble is None:
            object.__setattr__(self, "preamble", np.ones(self.n_p))
        else:
            pre = np.asarray(self.preamble, dtype=float)
            if pre.shape != (self.n_p,):
                raise ValueError("preamble length must equal n_p")
            if self.n_p and not np.all(np.abs(pre) == 1.0):
                raise ValueError("preamble entries must be +/-1")
            object.__setattr__(self, "preamble", pre)

    @property
    def n(self):
        return self.n_p + self.n_c

    def split(self, y):
        """(preamble part, codeword part) of an observation batch."""
        y = np.asarray(y)
        return y[..., : self.n_p], y[..., self.n_p :]


def modulate(bits):
    """BPSK map, bit 0 -> +1 and bit 1 -> -1."""
    bits = np.asarray(bits)
    return 1.0 - 2.0 * bits


def uniform_block(seed, stream, block, shape):
    """Open-interval uniforms from the Philox stream keyed (seed, stream, block)."""
    key = np.array([np.uint64(seed), (np.uint64(stream) << np.uint64(32)) ^ np.uint64(block)],
                   dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    u = gen.random(shape)
    # random() lands in [0, 1); shift the atom at 0 away from the CDF pole
    return np.maximum(u, 2.0 ** -64, out=u)


def gaussian_block(sigma2, seed, stream, block, shape):
    """Zero-mean Gaussians with variance sigma2, by inversion sampling.

    Computed in place on the uniform block: the same values as
    ``np.sqrt(sigma2) * ndtri(u)`` without a second block-sized array.
    """
    if sigma2 == 0.0:
        return np.zeros(shape)
    u = uniform_block(seed, stream, block, shape)
    ndtri(u, out=u)
    u *= np.sqrt(sigma2)
    return u
