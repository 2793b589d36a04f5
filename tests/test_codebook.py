import tracemalloc

import numpy as np
import pytest
from conftest import ROW_COUNTS, TILE_EDGE_ROWS, random_systematic

from jdd.channel import ChannelParams, gaussian_block
from jdd.cli import main
from jdd.codebook import (
    encode,
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

    def test_cache_guard(self):
        G = np.eye(25, dtype=np.uint8)
        with pytest.raises(ValueError, match="cache"):
            from_generator(G)


class TestEncode:
    def test_all_zero_message(self):
        cb = hamming_7_4()
        np.testing.assert_array_equal(encode(cb, 1), np.ones(7))

    def test_repetition_second_message(self):
        cb = repetition_code(3)
        np.testing.assert_array_equal(encode(cb, 2), [-1, -1, -1])

    def test_injective(self):
        cb = hamming_7_4()
        rows = {tuple(encode(cb, m)) for m in range(1, cb.M + 1)}
        assert len(rows) == cb.M

    def test_out_of_range(self):
        cb = repetition_code(3)
        with pytest.raises(IndexError):
            encode(cb, 3)
        with pytest.raises(IndexError):
            encode(cb, 0)


class TestMlDecode:
    def test_noiseless(self):
        cb = hamming_7_4()
        for m in (1, 5, 16):
            m_hat, stat = ml_decode(cb, encode(cb, m))
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
            params = ChannelParams.from_db(snr_db, 7)
            trials = 20_000
            rng_m = np.random.default_rng(77)
            m = rng_m.integers(1, cb.M + 1, trials)
            z = gaussian_block(params.sigma2, seed=8, stream=0, block=0, shape=(trials, 7))
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
        m_hat, stat = ml_decode(code, y)
        ref_m, ref_stat = full_matrix_decode(code, y)
        np.testing.assert_array_equal(m_hat, ref_m)
        np.testing.assert_array_equal(stat, ref_stat)

    def test_single_observation(self, code):
        y = self.block(code, 3)[2]
        m_hat, stat = ml_decode(code, y)
        ref_m, ref_stat = full_matrix_decode(code, y)
        assert (m_hat, stat) == (int(ref_m), float(ref_stat))
        assert isinstance(m_hat, int) and isinstance(stat, float)

    def test_three_dim_batch(self, code):
        y = self.block(code, 24).reshape(2, 12, code.n_c)
        m_hat, stat = ml_decode(code, y)
        assert m_hat.shape == stat.shape == (2, 12)
        ref_m, ref_stat = full_matrix_decode(code, y)
        np.testing.assert_array_equal(m_hat, ref_m)
        np.testing.assert_array_equal(stat, ref_stat)

    def test_zero_rows_pick_first_index(self, code):
        y = self.block(code, 4096).copy()
        y[TILE_EDGE_ROWS] = 0.0
        m_hat, stat = ml_decode(code, y)
        np.testing.assert_array_equal(m_hat[TILE_EDGE_ROWS], 1)
        np.testing.assert_array_equal(stat[TILE_EDGE_ROWS], 0.0)

    def test_empty_batch(self, code):
        m_hat, stat = ml_decode(code, np.zeros((0, code.n_c)))
        assert m_hat.shape == stat.shape == (0,)


class TestCacheBudget:
    def test_cli_one_error_line(self, tmp_path, capsys, monkeypatch):
        import jdd.codebook as codebook

        calls = []
        monkeypatch.setattr(codebook, "_messages", lambda k: calls.append(k) or 1 / 0)
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
