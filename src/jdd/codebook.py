"""Binary linear codes with exhaustively cached BPSK codebooks.

The cache is a (2^k, n_c) matrix of +/-1 rows, one per message in fixed
binary enumeration order (message index 1 is the all-zero message, the last
bit of the index-0-based binary expansion multiplies the last row of G).
Exhaustive ML decoding is the correlation rule max_m x_m^T y on the BI-AWGN
channel, evaluated against this cache under two memory budgets. The cache
(2^k * n_c float64 values) may not exceed CACHE_BUDGET_BYTES; from_generator
rejects a larger code before allocating anything. A batch's correlation with
the cache is never held whole: it is computed in row tiles of about
CORR_TILE_BYTES, one matrix product per tile into one reused buffer, and each
tile is reduced (argmax, max, ...) before the next. Tiles split rows only, so
ties still break toward the smallest index and every row gets the values one
product over the whole batch would give.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import modulate

__all__ = [
    "Codebook",
    "load_generator",
    "encode",
    "ml_decode",
    "min_distance",
    "repetition_code",
    "hamming_7_4",
    "reed_muller_1",
]

MAX_K = 24  # 2^24 cached codewords is the memory ceiling
CACHE_BUDGET_BYTES = 1 << 30  # the +/-1 codeword cache, 2^k * n_c float64
CORR_TILE_BYTES = 16 << 20    # one row tile of the batch x 2^k correlation


@dataclass(frozen=True)
class Codebook:
    n_c: int
    k: int
    G: np.ndarray          # (k, n_c) over GF(2)
    codewords: np.ndarray  # (2^k, n_c), +/-1

    @property
    def M(self):
        return 1 << self.k


def _messages(k):
    """All 2^k messages as a (2^k, k) bit matrix in binary counting order."""
    idx = np.arange(1 << k, dtype=np.uint32)
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint32)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def from_generator(G):
    """Build a Codebook from a (k, n_c) 0/1 generator matrix of GF(2) rank k."""
    G = np.asarray(G, dtype=np.uint8) % 2
    if G.ndim != 2 or G.size == 0:
        raise ValueError("generator must be a non-empty 2-D bit matrix")
    k, n_c = G.shape
    if k > n_c:
        raise ValueError(f"a {k} x {n_c} generator has GF(2) rank at most {n_c} < k={k}")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds the cache guard (k <= {MAX_K})")
    cache_bytes = (1 << k) * n_c * 8
    if cache_bytes > CACHE_BUDGET_BYTES:
        raise ValueError(f"a ({n_c}, {k}) code needs a {cache_bytes / 2**30:.3g} GiB codeword "
                         f"cache, over the {CACHE_BUDGET_BYTES / 2**30:.3g} GiB budget")
    bits = (_messages(k) @ G) % 2
    # full rank: x -> xG is injective, so no nonzero message encodes to the zero word
    if not bits[1:].any(axis=1).all():
        raise ValueError("generator matrix is rank-deficient over GF(2)")
    return Codebook(n_c=n_c, k=k, G=G, codewords=modulate(bits))


def load_generator(path):
    """Read a generator matrix from the file at `path`.

    Format: optional header line "n_c k", then k rows of {0,1} characters;
    whitespace inside rows and lines starting with "#" are ignored. Leftmost
    character is the first channel use.
    """
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"empty generator matrix file {path}")
    header = lines[0].split()
    if (
        len(header) == 2
        and all(tok.isdigit() for tok in header)
        and len(lines) - 1 == int(header[1])
        and all(len(ln.replace(" ", "").replace("\t", "")) == int(header[0]) for ln in lines[1:])
    ):
        lines = lines[1:]
    rows = []
    for ln in lines:
        ln = ln.replace(" ", "").replace("\t", "")
        if set(ln) - {"0", "1"}:
            raise ValueError(f"invalid characters in generator row: {ln!r}")
        rows.append([int(ch) for ch in ln])
    if len({len(r) for r in rows}) != 1:
        raise ValueError("generator rows have unequal lengths")
    return from_generator(np.array(rows, dtype=np.uint8))


def encode(cb, m):
    """Codeword of message m (1-based) as a +/-1 vector."""
    if not 1 <= m <= cb.M:
        raise IndexError(f"message index {m} outside 1..{cb.M}")
    return cb.codewords[m - 1]


def _argmax_rows(tile):
    """(argmax, max) of each row of a correlation tile; first maximum wins."""
    m = np.argmax(tile, axis=1)
    return m, tile[np.arange(len(tile)), m]


def _tiled_correlation(y, codewords, reduce):
    """Reduce the correlation y @ codewords.T one row tile at a time.

    `reduce` maps a (rows, 2^k) tile, which it may overwrite, to a tuple of
    per-row arrays; each is returned with y's leading shape. A single
    observation or a stack is one matrix of rows, tiled like any batch. A
    tile holds at most CORR_TILE_BYTES (at least one row), or one row more
    when that row would otherwise be a tile of its own, and one buffer
    serves every tile.
    """
    rows = y.reshape(-1, y.shape[-1])
    n = len(rows)
    step = max(1, CORR_TILE_BYTES // (8 * len(codewords)))
    starts = list(range(0, max(n, 1), step))  # an empty batch is one empty tile
    if step > 1 and len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()  # a one-row product is a gemv: fold that row into the tile before
    ends = starts[1:] + [n]
    buf = np.empty((max(e - s for s, e in zip(starts, ends)), len(codewords)))
    parts = [reduce(np.matmul(rows[s:e], codewords.T, out=buf[: e - s]))
             for s, e in zip(starts, ends)]
    return tuple(np.concatenate(p).reshape(y.shape[:-1]) for p in zip(*parts))


def ml_decode(cb, y):
    """Exhaustive ML decoding by correlation argmax.

    Accepts a single observation (n_c,) or a batch (..., n_c); returns
    (m_hat, stat) with 1-based indices, ties broken toward the smallest
    index (argmax picks the first maximum). A batch is correlated in row
    tiles (see the module docstring), so memory stays at one tile.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != cb.n_c:
        raise ValueError(f"observation length {y.shape[-1]} != n_c={cb.n_c}")
    m_hat, stat = _tiled_correlation(y, cb.codewords, _argmax_rows)
    if y.ndim == 1:
        return int(m_hat) + 1, float(stat)
    return m_hat + 1, stat


def min_distance(cb):
    """Minimum Hamming weight over the nonzero codewords (= min distance)."""
    if cb.k < 1:
        raise ValueError("min_distance needs k >= 1")
    # +/-1 row with weight w has sum n_c - 2w
    weights = (cb.n_c - cb.codewords[1:].sum(axis=1)) / 2
    return int(weights.min())


def repetition_code(n_c):
    return from_generator(np.ones((1, n_c), dtype=np.uint8))


def hamming_7_4():
    G = np.array(
        [
            [1, 0, 0, 0, 1, 1, 0],
            [0, 1, 0, 0, 1, 0, 1],
            [0, 0, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ],
        dtype=np.uint8,
    )
    return from_generator(G)


def reed_muller_1(m):
    """First-order Reed-Muller code RM(1, m): (2^m, m + 1), d = 2^(m-1)."""
    n_c = 1 << m
    idx = np.arange(n_c, dtype=np.uint32)
    rows = [np.ones(n_c, dtype=np.uint8)]
    for j in range(m - 1, -1, -1):
        rows.append(((idx >> j) & 1).astype(np.uint8))
    return from_generator(np.array(rows))
