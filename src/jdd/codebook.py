"""Binary linear codes with exhaustively cached BPSK codebooks.

The cache is a (2^k, n_c) matrix of +/-1 rows, one per message in fixed
binary enumeration order (message index 1 is the all-zero message, the last
bit of the index-0-based binary expansion multiplies the last row of G).
Exhaustive ML decoding is the correlation rule max_m x_m^T y on the BI-AWGN
channel, evaluated against this cache under two memory budgets. The cache
(2^k * n_c float64 values) may not exceed CACHE_BUDGET_BYTES; from_generator
rejects a larger code before allocating anything. A batch's correlation with
the cache is never held whole: it is computed in row tiles that hold
CORR_TILE_BYTES of their own dtype (512 float32 or 256 float64 rows at k =
12), one matrix product per tile into one reused buffer, and each tile is
reduced (argmax, max, ...) before the next. A remainder shorter than an
eighth of a tile (or a single row) is folded into the tile before it: BLAS
takes other kernels for short products, whose last bits differ. Tiles split
rows only, so ties break toward the smallest index, and on one BLAS setup a
row's values depend on the row, its index, the batch's row count and the code
alone. They equal one product over the whole batch's on one BLAS thread, and
on two under OpenBLAS's SkylakeX and Sandybridge kernels but not Haswell's.

A caller that names the comparisons it will make of ML decoding's statistics
(_Exact: the largest few of the batch, each against a threshold, the
argmax) has the batch screened in float32 first. The forward error bound of
a dot product, which holds for every summation order, bounds each float32
correlation's distance from the float64 one, and a row whose bound settles
every named comparison keeps its float32 value. Every other row is
recomputed in float64 in a product of its float64 tile's shape, at its own
position in it and the other rows zero (BLAS may take other kernels for a
product's last few rows), so its values are the full float64 path's bit for
bit. Each recomputed row checks its own bound, and a BLAS that breaks it
raises. One buffer serves both passes: the float32 tiles fill it, then the
float64 recompute products.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Codebook",
    "load_generator",
    "ml_decode",
    "min_distance",
    "repetition_code",
    "hamming_7_4",
    "reed_muller_1",
]

MAX_K = 24  # the largest configured k, the bounds' M = 2^k (a cached code's k is <= 22)
CACHE_BUDGET_BYTES = 1 << 30  # the +/-1 codeword cache, 2^k * n_c float64
CORR_TILE_BYTES = 8 << 20     # one row tile of the batch x 2^k correlation, of its dtype


@dataclass(frozen=True)
class Codebook:
    n_c: int
    k: int
    G: np.ndarray          # (k, n_c) over GF(2)
    codewords: np.ndarray  # (2^k, n_c), +/-1

    @property
    def M(self):
        return 1 << self.k


def _codeword_bits(G):
    """The 2^k codeword bit rows of generator G, in binary counting order of the messages.

    XOR doubling: the codewords of messages 2^j to 2^(j+1) - 1 are those of
    messages 0 to 2^j - 1 plus G's row k - 1 - j, the message's bit j.
    """
    k, n_c = G.shape
    bits = np.zeros((1 << k, n_c), dtype=np.uint8)
    for j, row in enumerate(G[::-1]):
        np.bitwise_xor(bits[: 1 << j], row, out=bits[1 << j : 2 << j])
    return bits


def from_generator(G):
    """Build a Codebook from a (k, n_c) 0/1 generator matrix, of any dtype, of GF(2) rank k."""
    G = np.asarray(G)
    bad = np.argwhere(~np.isin(G, (0, 1)))
    if bad.size:
        raise ValueError(f"generator entry {bad[0].tolist()} is {G[tuple(bad[0])]}, not 0 or 1")
    G = G.astype(np.uint8)
    if G.ndim != 2 or G.size == 0:
        raise ValueError("generator must be a non-empty 2-D bit matrix")
    k, n_c = G.shape
    if k > n_c:
        raise ValueError(f"a {k} x {n_c} generator has GF(2) rank at most {n_c} < k={k}")
    cache_bytes = (1 << k) * n_c * 8
    if cache_bytes > CACHE_BUDGET_BYTES:
        raise ValueError(f"a ({n_c}, {k}) code needs a {cache_bytes / 2**30:.3g} GiB codeword "
                         f"cache, over the {CACHE_BUDGET_BYTES / 2**30:.3g} GiB budget")
    bits = _codeword_bits(G)
    # full rank: x -> xG is injective, so no nonzero message encodes to the zero word
    if not bits[1:].any(axis=1).all():
        raise ValueError("generator matrix is rank-deficient over GF(2)")
    # BPSK, bit 0 -> +1 and bit 1 -> -1, with no second cache-sized temporary
    codewords = np.multiply(bits, -2.0)
    del bits
    codewords += 1.0
    return Codebook(n_c=n_c, k=k, G=G, codewords=codewords)


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


def _argmax_rows(tile):
    """(argmax, max) of each row of a correlation tile; first maximum wins."""
    m = np.argmax(tile, axis=1)
    return m, tile[np.arange(len(tile)), m]


def _tiles(n, M, itemsize):
    """(start, end) of each row tile of an n-row batch correlated with M codewords.

    A tile holds at most CORR_TILE_BYTES of its dtype, of `itemsize` bytes
    (at least one row); a remainder shorter than an eighth of a tile, or a
    single row, is folded into the tile before it. An empty batch is one
    empty tile.
    """
    step = max(1, CORR_TILE_BYTES // (itemsize * M))
    starts = list(range(0, max(n, 1), step))
    if step > 1 and len(starts) > 1 and n - starts[-1] < max(2, step / 8):
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _tiled_correlation(y, codewords, reduce, buf=None):
    """Reduce the correlation y @ codewords.T one row tile at a time.

    `reduce` maps a (rows, 2^k) tile, which it may overwrite, to a tuple of
    per-row arrays; each is returned with y's leading shape. A single
    observation or a stack is one matrix of rows, tiled like any batch
    (_tiles of the codewords' dtype), and each tile of rows is rounded to
    that dtype. One buffer serves every tile: `buf`, if given, a flat array
    of at least the largest tile's bytes.
    """
    rows = y.reshape(-1, y.shape[-1])
    M = len(codewords)
    tiles = _tiles(len(rows), M, codewords.itemsize)
    if buf is None:
        buf = np.empty(max(e - s for s, e in tiles) * M, dtype=codewords.dtype)
    buf = buf.view(codewords.dtype)
    parts = [reduce(np.matmul(rows[s:e].astype(codewords.dtype, copy=False), codewords.T,
                              out=buf[: (e - s) * M].reshape(e - s, M)))
             for s, e in tiles]
    return tuple(np.concatenate(p).reshape(y.shape[:-1]) for p in zip(*parts))


@dataclass(frozen=True)
class _Exact:
    """The comparisons a caller makes of ML decoding's statistics of a batch.

    The statistic of row r is offset[r] + max_m x_m^T y_r (offset a scalar
    or one value per row). ml_decode keeps exact: the `top` largest
    statistics of the batch, but for those `floor` rules out, which have
    scale * statistic < value for every (scale, value) pair of `floor` (the
    caller holds `top` larger values); whether scale * statistic >= gamma,
    for each (scale, gamma) pair of `at`; and, with `argmax`, the ML
    decision. Every scale is >= 0. Any other value it returns may be a
    float32 one.
    """

    top: int = 0
    floor: tuple = ()
    at: tuple = ()
    argmax: bool = False
    offset: object = 0.0


_U32, _U64 = 2.0 ** -24, 2.0 ** -53  # unit roundoffs of float32 and float64


def _screen_radius(rows):
    """Twice a bound on |c32 - c64| for every codeword correlation of each row.

    With K = n_c and gamma_K(u) = Ku / (1 - Ku), a float32 dot product of the
    float32-rounded row is within gamma_K(u32)(1 + u32)|y|_1 + u32 |y|_1 of
    the exact correlation, and a float64 one within gamma_K(u64)|y|_1,
    whatever the summation order (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1); K 2^-149 covers rows rounded to float32
    subnormals. The factor 2 covers the rounding of the bound itself. A row
    past half the float32 range, or not finite, has no bound (inf).
    """
    K = rows.shape[-1]
    gamma = [K * u / (1.0 - K * u) if K * u < 1.0 else np.inf for u in (_U32, _U64)]
    norm = np.abs(rows).sum(axis=-1)
    delta = 2.0 * ((gamma[0] * (1.0 + _U32) + _U32 + gamma[1]) * norm + K * 2.0 ** -149)
    return np.where(norm < np.finfo(np.float32).max / 2, delta, np.inf)


def _screened_correlation(y, codewords, exact):
    """(argmax, max) of each row of y @ codewords.T, exact where `exact` reads them.

    Every row is correlated in float32, in the tiles of _tiled_correlation.
    A row is recomputed in float64 unless its interval [c32 - delta, c32 +
    delta] (delta from _screen_radius) settles each comparison `exact`
    names: its statistic's interval lies below the top-th largest lower
    bound of the batch or under the floor, on one side of each threshold,
    and its best codeword's lower bound above its second best's upper
    bound. The bounds are rounded outward and the statistic and its scaling
    are monotone, so a row that keeps its float32 value orders and compares
    as its float64 value would. The rows to recompute are laid out at their
    positions in zero tiles of their float64 tile's shape (the tiles of the
    unscreened path), as few as hold them, and each is correlated in float64.
    """
    rows = y.reshape(-1, y.shape[-1])
    n, M = len(rows), len(codewords)
    tiles = _tiles(n, M, 8)
    # one buffer, of the larger of the two plans' largest tiles, for the float32 tiles and
    # then the float64 recompute products
    nbytes = max(size * max(e - s for s, e in _tiles(n, M, size)) for size in (4, 8)) * M
    buf = np.empty(-(-nbytes // 8))

    def reduce(tile):  # a float32 tile: (argmax, max[, second largest])
        m, best = _argmax_rows(tile)
        if not exact.argmax:
            return m, best
        tile[np.arange(len(tile)), m] = -np.inf
        return m, best, tile.max(axis=1)

    # a row past the float32 range overflows to inf or nan here, and is recomputed
    with np.errstate(over="ignore", invalid="ignore"):
        m_hat, best32, *second = _tiled_correlation(rows, codewords.astype(np.float32), reduce,
                                                    buf)
        best = best32.astype(np.float64)
        delta = np.concatenate([_screen_radius(rows[s:e]) for s, e in tiles])
        lo, hi = np.nextafter(best - delta, -np.inf), np.nextafter(best + delta, np.inf)
        offset = np.reshape(exact.offset, -1)  # a scalar or one value per row
        low, high = offset + lo, offset + hi
        settled = np.ones(n, dtype=bool)
        if exact.top:
            below = exact.top < n and high < np.partition(low, n - exact.top)[n - exact.top]
            if exact.floor:
                below |= np.logical_and.reduce([scale * high < value
                                                for scale, value in exact.floor])
            settled &= below
        for scale, gamma in exact.at:
            settled &= (scale * low >= gamma) | (scale * high < gamma)
        if exact.argmax:
            settled &= lo > np.nextafter(second[0] + delta, np.inf)

    # each row to redo at its own position in a product of its float64 tile's shape, the other
    # rows zero: BLAS may take other kernels for a product's last few rows; rows of
    # different tiles at one position take one product each
    redo = np.flatnonzero(~settled)
    starts, sizes = (np.array(col) for col in zip(*[(s, e - s) for s, e in tiles]))
    tile_of = np.searchsorted(starts, redo, side="right") - 1
    for size in np.unique(sizes[tile_of]):
        mine = sizes[tile_of] == size
        pos = redo[mine] - starts[tile_of[mine]]
        order = np.argsort(pos, kind="stable")
        todo, pos = redo[mine][order], pos[order]
        layer = np.arange(len(pos)) - np.searchsorted(pos, pos)  # rows before it at its position
        for k in range(layer.max() + 1):
            part, here = todo[layer == k], pos[layer == k]
            padded = np.zeros((size, rows.shape[1]))
            padded[here] = rows[part]
            tile = np.matmul(padded, codewords.T, out=buf[: size * M].reshape(size, M))
            for j, h in enumerate(here):  # to the front in place: `here` ascends
                tile[j] = tile[h]
            m64, best64 = _argmax_rows(tile[: len(here)])
            broken = np.abs(best64 - best[part]) > delta[part]
            if broken.any():
                r = part[np.argmax(broken)]
                raise ArithmeticError(f"row {r}'s float32 correlation is past its error bound "
                                      f"{float(delta[r])!r} from the float64 one: the BLAS "
                                      "breaks the dot-product error bound")
            m_hat[part], best[part] = m64, best64
    return m_hat.reshape(y.shape[:-1]), best.reshape(y.shape[:-1])


def ml_decode(cb, y, _exact=None):
    """Exhaustive ML decoding by correlation argmax.

    Accepts a single observation (n_c,) or a batch (..., n_c); returns
    (m_hat, stat) with 1-based indices, ties broken toward the smallest
    index (argmax picks the first maximum). A batch is correlated in row
    tiles (see the module docstring), so memory stays at one tile.

    `_exact` (an _Exact, private to the Monte Carlo engine) names the
    comparisons the caller will make of the statistics of a batch; the batch
    is then screened in float32 and only the rows whose outcome the float32
    value could change are correlated in float64, so those comparisons, and
    only those, are exact. Without it, or for a single observation, every
    value is the float64 correlation's.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != cb.n_c:
        raise ValueError(f"observation length {y.shape[-1]} != n_c={cb.n_c}")
    if _exact is None or y.ndim == 1:
        m_hat, stat = _tiled_correlation(y, cb.codewords, _argmax_rows)
    else:
        m_hat, stat = _screened_correlation(y, cb.codewords, _exact)
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
