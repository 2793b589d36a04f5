import tracemalloc

import numpy as np
import pytest
from conftest import (
    ROW_COUNTS,
    TILE_EDGE_ROWS,
    assert_row_values,
    code_76_12,
    random_systematic,
    tile_step,
)

import jdd.codebook as codebook
from jdd.channel import gaussian_block, snr_to_sigma2
from jdd.cli import main
from jdd.codebook import (
    _codeword_bits,
    _Exact,
    _screen_radius,
    from_generator,
    hamming_7_4,
    load_generator,
    min_distance,
    ml_decode,
    reed_muller_1,
    repetition_code,
)


def euclidean_scan(cb, y):
    """Brute-force oracle: smallest Euclidean distance over all codewords."""
    d2 = ((y[None, :] - cb.codewords) ** 2).sum(axis=1)
    return int(np.argmin(d2)) + 1


def write_code(tmp_path, text):
    p = tmp_path / "code.txt"
    p.write_text(text)
    return p


class TestLoadGenerator:
    def test_repetition_from_text(self, tmp_path):
        cb = load_generator(write_code(tmp_path, "111"))
        assert (cb.n_c, cb.k) == (3, 1)
        np.testing.assert_array_equal(cb.codewords, [[1, 1, 1], [-1, -1, -1]])

    def test_header_and_whitespace(self, tmp_path):
        text = "7 4\n1000 110\n0100 101\n0010 011\n0001 111\n"
        cb = load_generator(write_code(tmp_path, text))
        assert (cb.n_c, cb.k) == (7, 4)
        assert min_distance(cb) == 3

    def test_spaced_row_is_no_header(self, tmp_path):
        # "n_c k" with k = 0 would name no rows after it, so a lone row is a row
        for text, G in (("1 0", [[1, 0]]), ("10 0", [[1, 0, 0]])):
            np.testing.assert_array_equal(load_generator(write_code(tmp_path, text)).G, G)

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "ham.txt"
        p.write_text("1000110\n0100101\n0010011\n0001111\n")
        cb = load_generator(p)
        assert cb.M == 16

    def test_rank_deficiency_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="rank"):
            load_generator(write_code(tmp_path, "101\n101"))

    def test_bad_characters(self, tmp_path):
        with pytest.raises(ValueError):
            load_generator(write_code(tmp_path, "10x1"))

    def test_cache_guard(self, monkeypatch):
        # k = 25 is past the cache budget, which refuses it before any codeword is built
        calls = []
        monkeypatch.setattr(codebook, "_codeword_bits", lambda G: calls.append(G) or 1 / 0)
        G = np.eye(25, dtype=np.uint8)
        with pytest.raises(ValueError, match="GiB codeword cache, over the 1 GiB budget"):
            from_generator(G)
        assert calls == []


class TestGeneratorRank:
    """x -> xG must be injective: no nonzero message may encode to the zero word."""

    @pytest.mark.parametrize("G", [
        [[1, 0, 1, 1], [0, 0, 0, 0], [0, 1, 1, 0]],                  # a zero row
        [[1, 1, 0, 1, 0], [0, 1, 1, 0, 1], [1, 1, 0, 1, 0]],         # a repeated row
        [[1, 0, 0, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 1, 1], [1, 1, 0, 0, 1]],  # row 0 ^ row 1
    ])
    def test_deficient_rank_rejected(self, G):
        with pytest.raises(ValueError, match="rank"):
            from_generator(G)

    def test_more_rows_than_columns_rejected_before_encoding(self, monkeypatch):
        import jdd.codebook as codebook

        calls = []
        monkeypatch.setattr(codebook, "_codeword_bits", lambda G: calls.append(G) or 1 / 0)
        G = np.random.default_rng(3).integers(0, 2, (6, 5), dtype=np.uint8)
        with pytest.raises(ValueError, match="rank"):
            from_generator(G)
        assert calls == []

    @pytest.mark.parametrize("make, n_c, k", [
        (lambda: repetition_code(5), 5, 1), (hamming_7_4, 7, 4),
        (lambda: reed_muller_1(1), 2, 2), (lambda: reed_muller_1(4), 16, 5)])
    def test_full_rank_codes_build(self, make, n_c, k):
        cb = make()
        assert (cb.n_c, cb.k, cb.M) == (n_c, k, 1 << k)
        assert len({row.tobytes() for row in cb.codewords}) == cb.M


class TestGeneratorEntries:
    """A generator matrix holds bits: any other entry is refused, not reduced mod 2."""

    @pytest.mark.parametrize("G, message", [
        ([[1, -1, 2, 3]], r"entry \[0, 1\] is -1,"),
        ([[1, 0, 1.7]], r"entry \[0, 2\] is 1.7,"),
        ([[1, 0], [0, 2]], r"entry \[1, 1\] is 2,"),
        ([[1, np.nan]], r"entry \[0, 1\] is nan,"),
    ], ids=["negative", "fraction", "two", "nan"])
    def test_non_bit_entry_refused(self, G, message):
        with pytest.raises(ValueError, match=message):
            from_generator(np.array(G))

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float64])
    def test_bit_entries_build(self, dtype):
        want = hamming_7_4()
        cb = from_generator(want.G.astype(dtype))
        assert cb.G.dtype == np.uint8
        np.testing.assert_array_equal(cb.G, want.G)
        np.testing.assert_array_equal(cb.codewords, want.codewords)


def messages(k):
    """All 2^k messages as a (2^k, k) bit matrix in binary counting order."""
    idx = np.arange(1 << k, dtype=np.uint32)
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint32)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


class TestCodewordBits:
    """XOR doubling gives the codewords of the message-by-generator product."""

    @pytest.mark.parametrize("G", [
        np.ones((1, 5), dtype=np.uint8), hamming_7_4().G,
        *(reed_muller_1(m).G for m in range(1, 7)),
        *(random_systematic(k, n_c, seed=k) for k, n_c in ((2, 3), (8, 20), (12, 76), (16, 24))),
    ], ids=lambda G: f"{G.shape[1]}-{G.shape[0]}")
    def test_equals_message_product(self, G):
        want = (messages(len(G)) @ G) % 2
        np.testing.assert_array_equal(_codeword_bits(G), want)
        cb = from_generator(G)
        assert cb.codewords.dtype == np.float64
        np.testing.assert_array_equal(cb.codewords, 1.0 - 2.0 * want)  # BPSK

    def test_memory_near_the_cache(self):
        # the bits take an eighth of the cache, and the +/-1 map no second copy
        G = random_systematic(16, 64, seed=5)
        tracemalloc.start()
        try:
            cb = from_generator(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * cb.codewords.nbytes


class TestEncode:
    """Message m (1-based) is sent as codeword row m - 1 of the cache."""

    def test_all_zero_message(self):
        cb = hamming_7_4()
        np.testing.assert_array_equal(cb.codewords[0], np.ones(7))

    def test_repetition_second_message(self):
        cb = repetition_code(3)
        np.testing.assert_array_equal(cb.codewords[1], [-1, -1, -1])

    def test_injective(self):
        cb = hamming_7_4()
        rows = {tuple(cb.codewords[m - 1]) for m in range(1, cb.M + 1)}
        assert len(rows) == cb.M


class TestMlDecode:
    def test_noiseless(self):
        cb = hamming_7_4()
        for m in (1, 5, 16):
            m_hat, stat = ml_decode(cb, cb.codewords[m - 1])
            assert m_hat == m
            assert stat == pytest.approx(cb.n_c)

    def test_repetition_sign_of_sum(self):
        cb = repetition_code(3)
        m_hat, stat = ml_decode(cb, np.array([0.9, -0.1, 0.2]))
        assert m_hat == 1
        assert stat == pytest.approx(1.0)

    def test_length_mismatch(self):
        cb = repetition_code(3)
        with pytest.raises(ValueError):
            ml_decode(cb, np.zeros(4))

    def test_against_euclidean_oracle(self):
        cb = hamming_7_4()
        rng = np.random.default_rng(12)
        for _ in range(10_000):
            y = rng.normal(size=7) * 2.0
            m_hat, _ = ml_decode(cb, y)
            assert m_hat == euclidean_scan(cb, y)

    def test_error_rate_monotone_in_snr(self):
        cb = hamming_7_4()
        errors = []
        for snr_db in (-2.0, 1.0, 4.0):
            sigma2 = snr_to_sigma2(snr_db)
            trials = 20_000
            rng_m = np.random.default_rng(77)
            m = rng_m.integers(1, cb.M + 1, trials)
            z = gaussian_block(sigma2, seed=8, stream=0, block=0, shape=(trials, 7))
            m_hat, _ = ml_decode(cb, cb.codewords[m - 1] + z)
            errors.append(np.mean(m_hat != m))
        assert errors[0] > errors[1] > errors[2]


def full_matrix_decode(cb, y):
    """The untiled formula: one correlation matrix, argmax, take_along_axis."""
    corr = y @ cb.codewords.T
    m_hat = np.argmax(corr, axis=-1)
    return m_hat + 1, np.take_along_axis(corr, np.expand_dims(m_hat, -1), axis=-1)[..., 0]


class TestTiledDecode:
    def block(self, cb, rows, sigma2=1.5):
        return gaussian_block(sigma2, 11, 0, 0, (4096, cb.n_c))[:rows]

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_equals_full_matrix(self, code, rows):
        y = self.block(code, rows)
        assert_row_values(lambda y: ml_decode(code, y), y, full_matrix_decode(code, y))

    def test_single_observation(self, code):
        y = self.block(code, 3)[2]
        m_hat, stat = ml_decode(code, y)
        ref_m, ref_stat = full_matrix_decode(code, y)
        assert (m_hat, stat) == (int(ref_m), float(ref_stat))
        assert isinstance(m_hat, int) and isinstance(stat, float)

    def test_three_dim_batch(self, code):
        # a stack is one matrix of observations: the full-matrix formula on its rows
        y = self.block(code, 24).reshape(2, 12, code.n_c)
        m_hat, stat = ml_decode(code, y)
        assert m_hat.shape == stat.shape == (2, 12)
        ref_m, ref_stat = full_matrix_decode(code, y.reshape(-1, code.n_c))
        np.testing.assert_array_equal(m_hat.ravel(), ref_m)
        np.testing.assert_array_equal(stat.ravel(), ref_stat)

    def test_zero_rows_pick_first_index(self, code):
        y = self.block(code, 4096).copy()
        y[TILE_EDGE_ROWS] = 0.0
        m_hat, stat = ml_decode(code, y)
        np.testing.assert_array_equal(m_hat[TILE_EDGE_ROWS], 1)
        np.testing.assert_array_equal(stat[TILE_EDGE_ROWS], 0.0)

    def test_empty_batch(self, code):
        m_hat, stat = ml_decode(code, np.zeros((0, code.n_c)))
        assert m_hat.shape == stat.shape == (0,)

    # two whole float64 tiles of RM(1, 5) and RM(1, 6) and a short tail: BLAS
    # takes other kernels for short products, which change last bits
    @pytest.mark.parametrize("m, rows", [(5, 2 * tile_step(1 << 6, 8) + t) for t in range(2, 19)]
                             + [(6, 2 * tile_step(1 << 7, 8) + t) for t in range(2, 10)])
    def test_short_tail_folds(self, m, rows):
        cb = reed_muller_1(m)
        y = gaussian_block(1.5, 11, 0, 0, (rows, cb.n_c))
        assert_row_values(lambda y: ml_decode(cb, y), y, full_matrix_decode(cb, y))


def adversarial_batch(cb, rows):
    """Gaussian rows with exact ties, zero rows, rows far from unit scale and duplicates."""
    y = gaussian_block(1.5, 11, 0, 0, (4096, cb.n_c))
    x, M = cb.codewords, cb.M
    special = [(x[a] + x[b]) / 2 for a, b in ((0, M - 1), (M - 1, 1), (M // 2, M // 2 - 1), (3, 2))]
    # a row whose float32 partial sums may overflow while its float64 ones do not
    wide = np.zeros(cb.n_c)
    wide[:4] = [2e38, 2e38, -3e38, -3e38]
    special += [np.zeros(cb.n_c)] * 3 + [y[5] * 1e6, y[6] * 1e-300, y[7] * 1e40, wide]
    special += [y[8]] * 6  # duplicates, which tie at whatever rank they take
    at = sorted({0, 1, 2, 3, 4, *TILE_EDGE_ROWS,
                 *np.random.default_rng(2).choice(4096, len(special), replace=False)})
    y[at[: len(special)]] = special
    return y[:rows]


class TestScreen:
    """A screened batch makes the comparisons it names as the float64 batch does."""

    def exacts(self, cb, y, full):
        """The comparisons to check: top statistics, thresholds at statistics, the argmax."""
        rows = len(y)
        offset = y[:, : min(3, cb.n_c)].sum(axis=1)  # as a preamble sum would be
        stat = offset + full
        gammas = [(1.0, 0.0), (1.0, float(np.median(stat))), (0.5, 0.5 * float(stat.max())),
                  (1.0, 1.5e39),
                  (float(np.sqrt(2.0)), float(np.sqrt(2.0)) * stat[rows // 3]), (1.0, stat[-1])]
        held = float(np.median(stat))  # what a caller holding 53 larger values would pass
        floor = ((1.0, held), (float(np.sqrt(2.0)), float(np.sqrt(2.0)) * held))
        return [_Exact(top=top, offset=offset) for top in (1, 53, rows - 1, rows, rows + 1)] + [
            _Exact(top=53, floor=floor, offset=offset),
            _Exact(at=tuple(gammas), offset=offset), _Exact(argmax=True),
            _Exact(top=53, at=((1.0, float(np.median(full))),), argmax=True)]

    @pytest.mark.parametrize("rows", [7, 848, 1025, 3616, 4096])
    def test_named_comparisons_exact(self, code, rows):
        y = adversarial_batch(code, rows)
        full_m, full = ml_decode(code, y)
        for exact in self.exacts(code, y, full):
            m_hat, stat = ml_decode(code, y, _exact=exact)
            got, want = exact.offset + stat, exact.offset + full
            if exact.top:  # the k largest, merged with k values a floor's caller holds
                k = min(exact.top, rows)
                for scale, value in exact.floor or ((1.0, -np.inf),):
                    got_k, want_k = (np.sort(np.concatenate([np.full(k, value), scale * v]))[-k:]
                                     for v in (got, want))
                    assert got_k.tobytes() == want_k.tobytes()
            for scale, gamma in exact.at:
                np.testing.assert_array_equal(scale * got >= gamma, scale * want >= gamma)
            if exact.argmax:
                np.testing.assert_array_equal(m_hat, full_m)
        if rows >= 848:  # float32 values were kept: the screen settled rows
            assert np.any(ml_decode(code, y, _exact=_Exact(argmax=True))[1] != full)

    def test_ties_pick_the_smaller_index(self, code):
        x, M = code.codewords, code.M
        pairs = [(0, M - 1), (M - 1, 1), (M // 2, M // 2 - 1), (3, 2)]
        y = np.array([(x[a] + x[b]) / 2 for a, b in pairs])
        m_hat, _ = ml_decode(code, y, _exact=_Exact(argmax=True))
        np.testing.assert_array_equal(m_hat, ml_decode(code, y)[0])
        assert all(m <= min(a, b) + 1 for m, (a, b) in zip(m_hat, pairs))

    def test_single_observation_unscreened(self, code):
        y = adversarial_batch(code, 4)[3]
        assert ml_decode(code, y, _exact=_Exact(argmax=True)) == ml_decode(code, y)

    @pytest.mark.parametrize("exact", [_Exact(top=53), _Exact(argmax=True)], ids=["top", "argmax"])
    def test_memory_is_one_tile(self, exact):
        # the float64 recompute products reuse the float32 tiles' buffer
        cb = code_76_12()
        y = adversarial_batch(cb, 4096)
        tracemalloc.start()
        try:
            ml_decode(cb, y, _exact=exact)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        float32_tile = 4 * cb.M * tile_step(cb.M, 4)
        assert peak < float32_tile + cb.codewords.nbytes // 2 + 16 * 8 * len(y)

    def test_broken_bound_raises(self, code, monkeypatch):
        # a float32 product 2 delta off its float64 value breaks the certificate
        correlate = codebook._tiled_correlation

        def off(y, codewords, reduce, *buf):
            delta = _screen_radius(y)
            done = [0]

            def shifted(tile):
                if tile.dtype == np.float32:
                    tile += 2.0 * delta[done[0] : done[0] + len(tile), None]
                    done[0] += len(tile)
                return reduce(tile)

            return correlate(y, codewords, shifted, *buf)

        monkeypatch.setattr(codebook, "_tiled_correlation", off)
        y = adversarial_batch(code, 848)
        with pytest.raises(ArithmeticError, match="error bound"):
            ml_decode(code, y, _exact=_Exact(top=5))


class TestCacheBudget:
    def test_cli_one_error_line(self, tmp_path, capsys, monkeypatch):
        import jdd.codebook as codebook

        calls = []
        monkeypatch.setattr(codebook, "_codeword_bits", lambda G: calls.append(G) or 1 / 0)
        G = random_systematic(24, 84, seed=1)
        code_file = tmp_path / "k24.txt"
        code_file.write_text("\n".join("".join(map(str, row)) for row in G) + "\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("schemes=dad\nsnr_grid=3\nn=92\nk=12\ntrials=10000\n")
        tracemalloc.start()
        try:
            rc = main(["pie-sweep", "--config", str(cfg), "--code", str(code_file),
                       "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error=") and "budget" in err[0]
        assert calls == []
        assert peak < 16 << 20


class TestMinDistance:
    def test_repetition(self):
        assert min_distance(repetition_code(5)) == 5

    def test_hamming(self):
        assert min_distance(hamming_7_4()) == 3

    def test_reed_muller(self):
        cb = reed_muller_1(4)
        assert (cb.n_c, cb.k) == (16, 5)
        assert min_distance(cb) == 8

    def test_extension_cannot_lower_distance(self):
        cb = hamming_7_4()
        parity = cb.G.sum(axis=1) % 2
        ext = from_generator(np.hstack([cb.G, parity[:, None]]))
        assert min_distance(ext) >= min_distance(cb)


class TestPairwiseCorrelation:
    @pytest.mark.parametrize("cb", [hamming_7_4(), reed_muller_1(3)], ids=["hamming74", "rm13"])
    def test_correlation_distance_identity(self, cb):
        # x_m^T x_m' = n_c - 2 d_H(c_m, c_m') for every pair
        corr = cb.codewords @ cb.codewords.T
        bits = (1.0 - cb.codewords) / 2.0
        for a in range(cb.M):
            d_h = np.abs(bits - bits[a]).sum(axis=1)
            np.testing.assert_array_equal(corr[a], cb.n_c - 2 * d_h)
