import csv
import hashlib
import math
import os
import re
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from jdd.bounds import (
    Requirements,
    dad_max_code_size,
    dt_bound_max_M,
    dt_error_estimate,
    info_density_samples,
    meta_converse_max_M,
    meta_converse_min_error,
    min_blocklength,
    min_snr_db,
)
from jdd.channel import snr_to_sigma2
from jdd.cli import main
from jdd.montecarlo import STREAM_ACTIVE_NOISE, STREAM_CALIBRATION, STREAM_MESSAGES, STREAM_PAYLOAD
from jdd.sweeps import (
    CSV_HEADER,
    SweepConfig,
    _best_rows,
    _bound_values,
    _row,
    ingest_reference,
    parse_config,
    run_bounds_report,
    run_optimize_split,
    run_pie_sweep,
    run_rate_sweep,
    run_with_manifest,
    write_rows,
)

HAMMING_G = "1000110\n0100101\n0010011\n0001111\n"
RM14_G = ("1111111111111111\n0000000011111111\n0000111100001111\n"
          "0011001100110011\n0101010101010101\n")


def small_rate_cfg(**overrides):
    cfg = SweepConfig(
        schemes=("genie", "dad"),
        es_n0_db=-3.0,
        n_grid=(20, 40),
        eps_fa=1e-2,
        eps_md=1e-2,
        eps_ie=1e-2,
        trials=10_000,
        seed=1,
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def small_pie_cfg(**overrides):
    cfg = SweepConfig(
        schemes=("genie", "dad", "preamble"),
        snr_grid=(-6.0, 3.0),
        n=24,
        k=4,
        eps_fa=1e-2,
        eps_md=1e-2,
        eps_ie=1e-2,
        trials=10_000,
        seed=2,
        np_grid=(17,),
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def engine_streams(monkeypatch):
    """The set of streams the Monte Carlo engine draws blocks from."""
    import jdd.montecarlo as montecarlo

    streams = set()
    gaussian_block, uniform_block = montecarlo.gaussian_block, montecarlo.uniform_block

    def counted(sigma2, seed, stream, block, shape):
        streams.add(stream)
        return gaussian_block(sigma2, seed, stream, block, shape)

    def counted_uniform(seed, stream, block, shape):
        streams.add(stream)
        return uniform_block(seed, stream, block, shape)

    monkeypatch.setattr(montecarlo, "gaussian_block", counted)
    monkeypatch.setattr(montecarlo, "uniform_block", counted_uniform)
    return streams


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg == SweepConfig()

    def test_scalars_and_lists(self):
        cfg = parse_config(
            "es_n0_db = -2.5\n"
            "trials=20000\n"
            "n_grid = 20, 40, 60\n"
            "schemes=genie,dad\n"
            "snr_grid=-6,-3,0\n"
        )
        assert cfg.es_n0_db == -2.5
        assert cfg.trials == 20_000
        assert cfg.n_grid == (20, 40, 60)
        assert cfg.schemes == ("genie", "dad")
        assert cfg.snr_grid == (-6.0, -3.0, 0.0)

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\nseed=9   # inline\n")
        assert cfg.seed == 9

    def test_bad_line(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config("just words")

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_config("bogus=1")

    @pytest.mark.parametrize("text", ["n_grid=10\nn_grid=20\n", "seed=1\nseed = 2  # again\n"])
    def test_repeated_key(self, text):
        key = text.split("=", 1)[0]
        with pytest.raises(ValueError, match=f"config key '{key}' given twice"):
            parse_config(text)

    @pytest.mark.parametrize("line, message", [
        ("seed=1.5", "seed: expected int, got '1.5'"),
        ("trials=1e5", "trials: expected int, got '1e5'"),
        ("n=", "n: expected int, got ''"),
        ("snr_grid=1,a", "snr_grid: expected float, got '1,a'"),
    ])
    def test_unconvertible_value_names_its_key(self, line, message):
        with pytest.raises(ValueError) as exc:
            parse_config(line)
        assert str(exc.value) == message

    def test_range_edges_accepted(self):
        cfg = parse_config("trials=10000\nseed=0\nn=1\nk=1\n")
        assert (cfg.trials, cfg.n, cfg.k) == (10_000, 1, 1)
        # the DT and meta-converse estimators refuse fewer than 10 000 samples
        with pytest.raises(ValueError) as exc:
            parse_config("trials=9999\n")
        assert str(exc.value) == ("trials must be >= 10000, the fewest the DT and "
                                  "meta-converse estimators take, got 9999")
        cfg = parse_config("n=24\nk=24\n")  # k = n: the most bits n symbols can carry
        assert (cfg.n, cfg.k) == (24, 24)
        with pytest.raises(ValueError, match="seed"):
            parse_config(f"seed={2**64}")
        # one key's densities, 8 bytes a trial, fill the 64 MiB of a bound pass
        assert parse_config("trials=8388608\n").trials == 8_388_608
        with pytest.raises(ValueError, match="trials must be <= 8388608"):
            parse_config("trials=8388609\n")
        # 10^(dB/10) stays a normal double out to +-300 dB
        cfg = parse_config("es_n0_db=-300\nsnr_grid=-300,300\n")
        assert (cfg.es_n0_db, cfg.snr_grid) == (-300.0, (-300.0, 300.0))
        assert parse_config("es_n0_db=300\n").es_n0_db == 300.0
        # a density pass holds two 4096 x n float64 blocks: n stops at 2^14
        cfg = parse_config("n=16384\nn_grid=1,16384\n")
        assert (cfg.n, cfg.n_grid) == (16384, (1, 16384))
        for text, key in (("n=16385\n", "n"), ("n_grid=16384,16385\n", "n_grid entries")):
            with pytest.raises(ValueError) as exc:
                parse_config(text)
            assert str(exc.value) == f"{key} must lie in 1..16384, got 16385"

    def test_calibration_trials_floor(self):
        cfg = parse_config("eps_fa=1e-3\ntrials=10000\n")
        assert cfg.calibration_trials() == 50_000


class TestWriteRows:
    def rows(self):
        with pytest.warns(UserWarning, match="DT bound at n="):  # DT precision at 10k trials
            return run_bounds_report(SweepConfig(trials=10_000, seed=0))

    def test_schema(self, tmp_path):
        path = write_rows(self.rows(), tmp_path / "out.csv")
        recs = read_csv(path)
        assert recs
        assert all(list(r.keys()) == CSV_HEADER for r in recs)

    def test_sorted_and_deterministic(self, tmp_path):
        a = write_rows(self.rows(), tmp_path / "a.csv").read_bytes()
        b = write_rows(list(reversed(self.rows())), tmp_path / "b.csv").read_bytes()
        assert a == b
        keys = [(r["scheme"], r["kind"]) for r in read_csv(tmp_path / "a.csv")]
        assert keys == sorted(keys)


class TestIngestReference:
    def test_verbatim_values_and_prefix(self, tmp_path):
        val = "0.123456789012345678"  # more digits than a float round-trips
        p = tmp_path / "ref.csv"
        p.write_text("scheme,kind,n,es_n0_db,value,stderr,flag\n"
                     f"ldpc,simulated,84,-3,{val},,external\n")
        rows = ingest_reference(p)
        assert rows[0]["scheme"] == "ref:ldpc"
        assert rows[0]["value"] == val

    def test_existing_prefix_kept(self, tmp_path):
        p = tmp_path / "ref.csv"
        p.write_text("scheme,kind,n,es_n0_db,value,stderr,flag\nref:x,simulated,8,0,0.5,,\n")
        assert ingest_reference(p)[0]["scheme"] == "ref:x"

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "ref.csv"
        p.write_text("scheme,value\nx,0.5\n")
        with pytest.raises(ValueError, match="lacks columns"):
            ingest_reference(p)


class TestRunRateSweep:
    def test_needs_grid(self):
        with pytest.raises(ValueError):
            run_rate_sweep(SweepConfig())

    def test_infeasible_and_feasible_rows(self):
        rows = run_rate_sweep(small_rate_cfg())
        # n = 20 sits under the blocklength converse at these targets
        infeasible = [r for r in rows if r["n"] == "20"]
        assert infeasible and all(r["flag"] == "infeasible" for r in infeasible)
        genie = {r["kind"]: float(r["value"]) for r in rows
                 if r["n"] == "40" and r["scheme"] == "genie"}
        assert 0.0 < genie["achievability"] <= genie["converse"] < 1.0
        dad = [r for r in rows if r["n"] == "40" and r["scheme"] == "dad"]
        assert dad and 0.0 <= float(dad[0]["value"]) <= genie["converse"]

    def test_deterministic(self):
        assert run_rate_sweep(small_rate_cfg()) == run_rate_sweep(small_rate_cfg())

    def test_dad_below_genie_converse_when_eps_md_exceeds_eps_ie(self):
        # P_MD at DAD's detection limit alone spends eps_ie, so the limit is
        # halved until P_MD leaves a budget; capped at 100 halvings, DAD's
        # row read 0.6404 bits/use, above the genie converse's 0.4096
        cfg = small_rate_cfg(n_grid=(400,), eps_fa=1e-3, eps_md=0.99, eps_ie=1e-2, seed=0)
        with pytest.warns(UserWarning):  # bound precision at 10k trials
            rows = run_rate_sweep(cfg)
        value = {(r["scheme"], r["kind"]): float(r["value"]) for r in rows}
        assert 0.0 < value["dad", "achievability"] <= value["genie", "converse"]

    def test_hyped_split_search(self):
        cfg = small_rate_cfg(schemes=("hyped",), n_grid=(40,), np_grid=(20,))
        rows = run_rate_sweep(cfg)
        kinds = {r["kind"]: r for r in rows}
        assert set(kinds) == {"achievability", "converse"}
        assert kinds["achievability"]["flag"] == "n_p=20"

    def test_hyped_draws_no_idle_evaluation(self, engine_streams):
        # the split search reads P_MD only: calibration, active noise and
        # payloads, never the false-alarm evaluation stream
        run_rate_sweep(small_rate_cfg(schemes=("hyped",), n_grid=(40,), np_grid=(10, 20)))
        assert engine_streams == {STREAM_CALIBRATION, STREAM_ACTIVE_NOISE, STREAM_PAYLOAD}

    def test_rows_only_for_rate_schemes(self):
        # the default schemes name preamble, which has no rate bound: no
        # preamble row under the converse (n = 20) or above it (n = 40)
        rows = run_rate_sweep(small_rate_cfg(schemes=SweepConfig().schemes, np_grid=(20,)))
        assert [(r["scheme"], r["flag"]) for r in rows if r["n"] == "20"] == [
            ("genie", "infeasible"), ("dad", "infeasible"), ("hyped", "infeasible")]
        assert {r["scheme"] for r in rows if r["n"] == "40"} == {"genie", "dad", "hyped"}

    def test_reference_merge(self, tmp_path):
        p = tmp_path / "ref.csv"
        p.write_text("scheme,kind,n,es_n0_db,value,stderr,flag\nldpc,simulated,40,-3,0.3,,\n")
        path = run_with_manifest(run_rate_sweep, small_rate_cfg(refs=(str(p),)), tmp_path, "rate")
        assert [r["value"] for r in read_csv(path) if r["scheme"] == "ref:ldpc"] == ["0.3"]

    def test_high_snr_code_sizes_past_int64(self):
        # at 6 dB and n = 84 the certified code sizes exceed 2^64, which
        # np.log2 cannot take as Python ints
        cfg = SweepConfig(es_n0_db=6.0, n_grid=(84,), eps_fa=1e-3, eps_md=1e-3, trials=10_000)
        with pytest.warns(UserWarning):  # DT / meta-converse precision at 10k trials
            rows = run_rate_sweep(cfg)
        rates = {(r["scheme"], r["kind"]): float(r["value"]) for r in rows}
        assert set(rates) == {("genie", "achievability"), ("genie", "converse"),
                              ("dad", "achievability"), ("hyped", "achievability"),
                              ("hyped", "converse")}
        assert rates["genie", "achievability"] * 84 > 64
        assert all(0.0 < v < 1.0 for v in rates.values())
        assert rates["genie", "achievability"] <= rates["genie", "converse"]
        assert rates["hyped", "achievability"] <= rates["hyped", "converse"]

    @pytest.mark.parametrize("es_n0_db", [6.0, 1.0])
    def test_code_sizes_past_float_range(self, es_n0_db):
        # at n = 1100 the DT search's first probe is M = 2^1100, which no float
        # holds; at 6 dB the certified sizes pass 2^1024 too, and the
        # meta-converse beta is subnormal, so 1 / beta is no float either
        cfg = SweepConfig(schemes=("genie", "dad"), es_n0_db=es_n0_db, n_grid=(1100,),
                          eps_fa=1e-3, eps_md=1e-3, trials=10_000)
        with pytest.warns(UserWarning) as record:  # DT precision at 10k trials
            rows = run_rate_sweep(cfg)
        if es_n0_db == 6.0:  # and beta's weights exp(-i) underflow
            assert any("meta-converse at n=1100: weights exp(-i) below the normal doubles"
                       in str(w.message) for w in record)
        rates = {(r["scheme"], r["kind"]): float(r["value"]) for r in rows}
        assert set(rates) == {("genie", "achievability"), ("genie", "converse"),
                              ("dad", "achievability")}
        assert all(0.0 < v < 1.0 for v in rates.values())
        assert rates["dad", "achievability"] <= rates["genie", "achievability"]
        assert rates["genie", "achievability"] <= rates["genie", "converse"]
        if es_n0_db == 6.0:
            assert rates["genie", "achievability"] * 1100 > 1024

    @staticmethod
    def split_rate_cfg():
        # n = 16 is under the converse; n_p = 0 and 4 miss eps_md at n = 48, and
        # n_p = 12 meets it there but leaves no eps_ie budget (converse only)
        return small_rate_cfg(schemes=("genie", "dad", "hyped"), n_grid=(16, 48, 72),
                              eps_md=3e-2, np_grid=(0, 4, 12, 30))

    def test_rate_rows_pinned(self, tmp_path):
        # sha256 recorded before the per-blocklength density pass; every DT and
        # meta-converse search on the shared samples must reproduce its own call
        with pytest.warns(UserWarning):  # DT precision at 10k trials
            path = write_rows(run_rate_sweep(self.split_rate_cfg()), tmp_path / "rate.csv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "7c67ffe0dd43b2e686989eafce0b5be9c09e1245dc13189fce33c2d2510cb300")

    def test_one_density_pass_per_blocklength(self, monkeypatch):
        # streams 1-3 are each drawn once for the whole n grid, block by block,
        # at the width of the longest feasible n; under a budget that splits
        # the lengths, each stream takes more passes and the rows stay the same
        import jdd.bounds as bounds
        import jdd.sweeps as sweeps

        draws = Counter()
        gaussian_block = bounds.gaussian_block

        def counted(sigma2, seed, stream, block, shape):
            draws[shape[1], stream, block] += 1
            return gaussian_block(sigma2, seed, stream, block, shape)

        monkeypatch.setattr(bounds, "gaussian_block", counted)
        with pytest.warns(UserWarning):
            rows = run_rate_sweep(self.split_rate_cfg())
        blocks = range(-(-10_000 // 4096))
        assert draws == Counter({(72, stream, b): 1 for stream in (1, 2, 3) for b in blocks})
        # three densities per pass: the DT lengths 48, 18, 72, 68, 60, 42 (in
        # order of first use) take the passes {48, 18, 72} and {68, 60, 42}, the
        # meta-converse lengths 48, 36, 18, 72, 68, 60, 42 three passes
        monkeypatch.setattr(sweeps, "DENSITY_BUDGET_BYTES", 3 * 10_000 * 8)
        draws.clear()
        with pytest.warns(UserWarning):
            assert run_rate_sweep(self.split_rate_cfg()) == rows
        widths = {1: (72, 68), 2: (48, 72, 42), 3: (48, 72, 42)}
        assert draws == Counter({(width, stream, b): 1 for stream in (1, 2, 3)
                                 for width in widths[stream] for b in blocks})

    def test_n_grid_equals_one_n_sweeps(self):
        # the 4-point grid has feasible HyPED splits at three lengths, which
        # share one calibration and one estimation pass
        for grid in ((16, 48, 72), (16, 40, 56, 72)):
            cfg = self.split_rate_cfg()
            cfg.n_grid = grid
            with pytest.warns(UserWarning):  # DT precision at 10k trials
                rows = run_rate_sweep(cfg)
            per_n = []
            for n in grid:
                cfg.n_grid = (n,)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    per_n += run_rate_sweep(cfg)
            assert rows == per_n

    def test_one_engine_pass_for_the_n_grid(self, monkeypatch):
        # every HyPED split of every feasible n: one calibrate_threshold call
        # and one estimate_rates call, each over all the splits' lengths
        import jdd.sweeps as sweeps

        calls = []
        for name in ("calibrate_threshold", "estimate_rates"):
            def counted(spec, plans, params, *args, _name=name, _fn=getattr(sweeps, name), **kw):
                calls.append((_name, sorted({pl.n for pl in plans})))
                return _fn(spec, plans, params, *args, **kw)
            monkeypatch.setattr(sweeps, name, counted)
        cfg = self.split_rate_cfg()
        cfg.n_grid = (16, 40, 56, 72)
        with pytest.warns(UserWarning):
            run_rate_sweep(cfg)
        assert calls == [("calibrate_threshold", [40, 56, 72]), ("estimate_rates", [40, 56, 72])]

    def test_genie_below_dt_trials_fails_before_simulation(self, monkeypatch):
        # 9999 trials are refused by the config alone, before any split is
        # calibrated, whether or not an n is feasible
        import jdd.bounds as bounds
        import jdd.montecarlo as montecarlo

        for mod in (montecarlo, bounds):
            monkeypatch.setattr(mod, "gaussian_block", None)
        for n_grid in ((16, 40), (16,)):
            with pytest.raises(ValueError, match="trials must be >= 10000"):
                run_rate_sweep(small_rate_cfg(schemes=("genie", "hyped"), n_grid=n_grid,
                                              trials=9999))

    def test_no_bound_searched_below_dt_trials(self, monkeypatch):
        # at n = 24, above the converse, DAD's code size is 0 before its DT
        # search and no split meets eps_md (n_p = 23 misses it), so no bound
        # runs: the infeasible rows come without a stream-1 draw
        import jdd.sweeps as sweeps

        monkeypatch.setattr(sweeps, "info_density_samples", None)
        rows = run_rate_sweep(small_rate_cfg(schemes=("dad", "hyped"), n_grid=(16, 24),
                                             eps_md=5e-3, eps_ie=1e-3))
        assert [(r["scheme"], r["kind"], r["n"], r["flag"]) for r in rows] == [
            ("dad", "achievability", "16", "infeasible"),
            ("hyped", "achievability", "16", "infeasible"),
            ("dad", "achievability", "24", "infeasible"),
            ("hyped", "achievability", "24", "infeasible"),
            ("hyped", "converse", "24", "infeasible")]

    def test_bounds_report_pinned(self, tmp_path):
        # recorded before the DAD fixed-point rounds shared one stream-1 sample
        for cfg, digest in (
                (SweepConfig(trials=10_000),
                 "d06862786bf12d78b66b86467d33a42fc8710b01b2220d6c31949bc6a5c36709"),
                (SweepConfig(trials=10_000, es_n0_db=0.0, n=60, k=8, seed=5),
                 "6bb7dbba3de52638d3793e5c3fe36e248b0a1ecb1eda693ce8e11b4e32f5cfeb")):
            with pytest.warns(UserWarning):
                path = write_rows(run_bounds_report(cfg), tmp_path / "bounds.csv")
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_bounds_report_code_size_past_float_range(self):
        # at 6 dB the DAD code size at n = 1100 passes 2^1024, which no float
        # holds: its row gives the exact int to 10 significant digits
        cfg = SweepConfig(es_n0_db=6.0, n=1100, k=12, trials=10_000)
        with pytest.warns(UserWarning):  # DT precision at 10k trials
            rows = run_bounds_report(cfg)
            (M,) = _bound_values(cfg, [(snr_to_sigma2(6.0), 1100, "dad-max-M", cfg.requirements)])
        (value,) = [r["value"] for r in rows if r["flag"] == "max-code-size"]
        mantissa, exponent = value.split("e+")
        assert M > 2**1024 and int(exponent) == len(str(M)) - 1
        assert abs(float(mantissa) - M / 10 ** int(exponent)) <= 5e-10

    @pytest.mark.parametrize("value, text", [
        (2**1100, "1.358298529e+331"), (3 * 10**400 + 7, "3e+400"),
        (10**400 - 1, "1e+400"), (972144, "972144"), (2**1000, "1.071508607e+301"),
        (0.5, "0.5"), (float("nan"), "nan")])
    def test_value_to_ten_digits(self, value, text):
        # float-range values keep f"{value:.10g}"; past it the int is rounded
        # exactly, in the same notation
        assert _row("dad", "achievability", 60, 0.0, value)["value"] == text

    def test_bounds_report_one_sample(self, monkeypatch):
        # DAD's DT search at n = 60 reads the run's one stream-1 sample; an
        # infeasible n draws none
        import jdd.sweeps as sweeps

        calls = []
        draw = sweeps.info_density_samples
        monkeypatch.setattr(sweeps, "info_density_samples",
                            lambda *a, **kw: calls.append(a[0]) or draw(*a, **kw))
        with pytest.warns(UserWarning):
            rows = run_bounds_report(SweepConfig(trials=10_000, es_n0_db=0.0, n=60, k=8, seed=5))
        assert calls == [60] and rows[-1]["value"] == "972144"
        run_bounds_report(SweepConfig(trials=10_000, n=20))
        assert calls == [60]


def bound_alone(request, trials, seed):
    """A bound request of _bound_values evaluated by its own bounds call."""
    sigma2, l, quantity, arg = request
    if quantity == "dt-error":
        return dt_error_estimate(info_density_samples(l, sigma2, trials, seed), arg)
    if quantity == "dt-max-M":
        return dt_bound_max_M(l, sigma2, arg, trials, seed)
    if quantity == "dad-max-M":
        return dad_max_code_size(l, sigma2, arg,
                                 lambda target, *_: dt_bound_max_M(l, sigma2, target, trials, seed))
    if quantity == "mc-max-M":
        return meta_converse_max_M(l, sigma2, arg, trials, seed)
    return meta_converse_min_error(l, sigma2, arg, trials, seed)


@pytest.mark.filterwarnings("ignore::UserWarning")  # bound precision at 10k trials
class TestBoundValues:
    """One mixed request list equals each request alone, bit for bit."""

    @staticmethod
    def requests():
        # the variances alternate, so a pass's keys are regrouped by variance
        req = Requirements(1e-2, 1e-2, 1e-2)
        out = []
        for l in (40, 12, 24):
            for snr in (-3.0, 1.0):
                sigma2 = snr_to_sigma2(snr)
                out += [(sigma2, l, "dt-error", 16), (sigma2, l, "dt-max-M", 1e-2),
                        (sigma2, l, "dad-max-M", req), (sigma2, l, "mc-max-M", 1e-2),
                        (sigma2, l, "mc-min-error", 16)]
        # a second argument of each meta-converse quantity, and a repeat
        sigma2 = snr_to_sigma2(1.0)
        return out + [(sigma2, 24, "mc-max-M", 1e-1), (sigma2, 12, "mc-min-error", 1 << 10),
                      (sigma2, 12, "dt-error", 16)]

    def test_equals_each_request_alone(self, monkeypatch):
        import jdd.bounds as bounds
        import jdd.sweeps as sweeps

        cfg = SweepConfig(trials=10_000, seed=4)
        requests = self.requests()
        want = [bound_alone(r, cfg.trials, cfg.seed) for r in requests]
        stream1 = Counter()
        gaussian_block = bounds.gaussian_block

        def counted(sigma2, seed, stream, block, shape):
            if stream == 1:
                stream1[shape[1]] += 1
            return gaussian_block(sigma2, seed, stream, block, shape)

        monkeypatch.setattr(bounds, "gaussian_block", counted)
        # one meta-converse call per pass, whatever variances the pass holds
        passes = Counter()
        for name in ("meta_converse_max_M", "meta_converse_min_error"):
            monkeypatch.setattr(bounds, name, lambda *a, fn=getattr(bounds, name), name=name,
                                **kw: passes.update([name]) or fn(*a, **kw))
        assert _bound_values(cfg, requests) == want
        # the six stream-1 keys share one pass at the longest length: one
        # draw per block
        assert stream1 == Counter({40: 3})
        assert passes == Counter(meta_converse_max_M=2, meta_converse_min_error=2)
        # two densities per pass: the two variances of each length take one
        # pass, drawn at that length
        monkeypatch.setattr(sweeps, "DENSITY_BUDGET_BYTES", 2 * cfg.trials * 8)
        stream1.clear()
        passes.clear()
        assert _bound_values(cfg, requests) == want
        assert stream1 == Counter({40: 3, 12: 3, 24: 3})
        assert passes == Counter(meta_converse_max_M=4, meta_converse_min_error=4)


class TestBestSplit:
    def test_tie_keeps_smaller_n_p(self):
        # equal values: the first candidate, the smaller n_p, names the row;
        # no candidate: `worst`, flagged infeasible
        ranked = [("achievability", [(0.25, "n_p=4"), (0.25, "n_p=8")]), ("converse", [])]
        for pick, worst in ((max, 0.0), (min, 1.0)):
            assert _best_rows("hyped", 40, -3.0, ranked, pick, worst) == [
                _row("hyped", "achievability", 40, -3.0, 0.25, flag="n_p=4"),
                _row("hyped", "converse", 40, -3.0, worst, flag="infeasible")]

    def test_runners_write_their_own_infeasible_rows(self):
        # one preamble symbol misses eps_md at -2 dB, above the P_IE converse
        # floor: the P_IE sweep writes the achievability row alone
        cfg = small_pie_cfg(schemes=("preamble",), snr_grid=(-2.0,), np_grid=(1,))
        assert -2.0 >= min_snr_db(cfg.n, cfg.requirements)
        assert run_pie_sweep(cfg) == [
            _row("preamble", "achievability", 24, -2.0, 1.0, flag="infeasible")]
        # n = 40 lies above the blocklength converse, and no HyPED split meets
        # eps_md = 1e-3 there: the rate sweep writes both kinds infeasible
        cfg = small_rate_cfg(schemes=("hyped",), n_grid=(40,), eps_md=1e-3, np_grid=(1,))
        assert 40 >= min_blocklength(snr_to_sigma2(-3.0), cfg.requirements)
        assert run_rate_sweep(cfg) == [
            _row("hyped", kind, 40, -3.0, 0.0, flag="infeasible")
            for kind in ("achievability", "converse")]


class TestRunPieSweep:
    def test_needs_grid(self):
        with pytest.raises(ValueError):
            run_pie_sweep(SweepConfig())

    def test_bounds_rows(self):
        rows = run_pie_sweep(small_pie_cfg())
        low = [r for r in rows if r["es_n0_db"] == "-6"]
        assert low and all(r["flag"] == "infeasible" for r in low)
        high = [r for r in rows if r["es_n0_db"] == "3"]
        schemes = {r["scheme"] for r in high}
        assert {"genie", "dad", "preamble"} <= schemes
        for r in high:
            assert 0.0 <= float(r["value"]) <= 1.0
        genie = {r["kind"]: float(r["value"]) for r in high if r["scheme"] == "genie"}
        assert genie["converse"] <= genie["achievability"]

    def test_simulated_points(self, tmp_path):
        code = tmp_path / "ham.txt"
        code.write_text(HAMMING_G)
        cfg = small_pie_cfg(schemes=("dad",), snr_grid=(3.0,), codes=(str(code),))
        rows = run_pie_sweep(cfg)
        sim = [r for r in rows if r["kind"] == "simulated"]
        assert len(sim) == 1
        assert sim[0]["scheme"] == "dad"
        assert 0.0 <= float(sim[0]["value"]) <= 1.0
        assert "n_p=17" in sim[0]["flag"]

    def test_simulated_points_draw_no_idle_evaluation(self, tmp_path, engine_streams):
        # a simulated row reads P_IE only: calibration, active noise and
        # messages, never the false-alarm evaluation stream
        code = tmp_path / "ham.txt"
        code.write_text(HAMMING_G)
        cfg = small_pie_cfg(schemes=("dad", "preamble"), snr_grid=(0.0, 3.0), codes=(str(code),))
        assert any(r["kind"] == "simulated" for r in run_pie_sweep(cfg))
        assert engine_streams == {STREAM_CALIBRATION, STREAM_ACTIVE_NOISE, STREAM_MESSAGES}

    def test_bound_rows_pinned(self, tmp_path):
        # sha256 recorded before the per-SNR multi-length density pass; the
        # shared pass must reproduce the per-length bounds byte for byte
        path = write_rows(run_pie_sweep(small_pie_cfg(schemes=("genie", "dad", "preamble"))),
                          tmp_path / "pie.csv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "1c38a66516ecb72e88a47cd9521115f54fe4772440a91afe2e89773297a3bb78")

    def test_split_bound_rows_pinned(self, tmp_path):
        # several splits per scheme, hyped with n_p=0 (payload = whole slot)
        cfg = small_pie_cfg(schemes=("genie", "dad", "hyped", "preamble"),
                            np_grid=(0, 2, 8, 14, 17), snr_grid=(-6.0, 0.0, 3.0))
        path = write_rows(run_pie_sweep(cfg), tmp_path / "pie.csv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "0ea886b134da1bd89cd7f67e247cc90cb5abce82c2aaffde2c53454bec268cdb")

    def snr_grid_cfg(self, snr_grid=(-2.0, -6.0, 1.0, 3.0)):
        # the split lengths differ between the SNRs; -6 dB is below the floor
        return small_pie_cfg(schemes=("genie", "dad", "hyped", "preamble"),
                             np_grid=(0, 2, 8, 14, 17), snr_grid=snr_grid)

    def test_below_dt_trials_fails_before_simulation(self, monkeypatch):
        # 9999 trials are refused by parse_config, and by the runner for a
        # config built in Python, before any HyPED split is calibrated
        import jdd.bounds as bounds
        import jdd.montecarlo as montecarlo

        for mod in (montecarlo, bounds):
            monkeypatch.setattr(mod, "gaussian_block", None)
        text = ("schemes=hyped\nn=84\nk=12\nsnr_grid=-3,-1\neps_fa=1e-3\n"
                "eps_md=1e-3\neps_ie=1e-2\ntrials=9999\n")
        with pytest.raises(ValueError, match="trials must be >= 10000"):
            parse_config(text)
        cfg = parse_config(text.replace("9999", "10000"))
        cfg.trials = 9999
        with pytest.raises(ValueError, match="trials must be >= 10000"):
            run_pie_sweep(cfg)

    def test_snr_grid_equals_one_snr_sweeps(self):
        cfg = self.snr_grid_cfg()
        assert run_pie_sweep(cfg) == [row for snr in cfg.snr_grid
                                      for row in run_pie_sweep(self.snr_grid_cfg((snr,)))]

    def test_one_density_pass_per_stream(self, monkeypatch):
        # every SNR's bounds scale one unit-variance draw per block, and each
        # of streams 1-3 is drawn once per pass: stream 3 is reduced to pivots
        # and freed, then stream 2 is drawn only as wide as the longest length
        # with a pivot; SNRs past the density budget take another pass
        import jdd.bounds as bounds
        import jdd.sweeps as sweeps

        gaussian_block = bounds.gaussian_block

        def counted(sigma2, seed, stream, block, shape):
            draws[sigma2, stream, block, shape] += 1
            return gaussian_block(sigma2, seed, stream, block, shape)

        def every_block(*passes):
            # one draw of each block per (stream, width) pass
            return Counter((1.0, stream, b, (rows, width)) for stream, width in passes
                           for b, rows in enumerate((4096, 4096, 1808)))

        monkeypatch.setattr(bounds, "gaussian_block", counted)
        for grid, width in (((3.0,), 7), ((-2.0, -6.0, 1.0, 3.0), 10)):
            draws = Counter()
            rows = run_pie_sweep(self.snr_grid_cfg(grid))
            assert draws == every_block((1, 24), (2, width), (3, 24))
        # a budget of 8 densities: the SNRs' 3, 5 and 5 lengths take two passes
        monkeypatch.setattr(sweeps, "DENSITY_BUDGET_BYTES", 8 * 10_000 * 8)
        draws = Counter()
        assert run_pie_sweep(self.snr_grid_cfg(grid)) == rows
        assert draws == every_block((1, 24), (1, 24), (2, 10), (2, 7), (3, 24), (3, 24))
        # at 6 and 10 dB (two passes under the budget) no length has a pivot:
        # beta_hat meets 1/M at every threshold, so every meta-converse error
        # is 0 and stream 2 draws no block
        draws = Counter()
        rows = run_pie_sweep(self.snr_grid_cfg((6.0, 10.0)))
        assert draws == every_block((1, 24), (1, 24), (3, 24), (3, 24))
        assert [r["value"] for r in rows if r["kind"] == "converse"] == ["0"] * 6

    @pytest.mark.parametrize("generator, k, digest", [
        (HAMMING_G, 4, "91c4fb06b682da46f5f0c1c181f5fa9d5946a229285910b82280cb6fde7a1cb5"),
        (RM14_G, 5, "20167812924b1911008d112b9869c01f51002bc6297766d887a3a049bc72f49e"),
    ], ids=["hamming-7-4", "rm-1-4"])
    def test_simulated_rows_pinned(self, tmp_path, generator, k, digest):
        # sha256 recorded before the Clopper-Pearson quantile moved to
        # scipy.special and a code's k had to equal the config's; each code runs
        # under its own k
        code = tmp_path / "code.txt"
        code.write_text(generator)
        cfg = small_pie_cfg(schemes=("dad", "hyped", "preamble"), snr_grid=(0.0, 3.0),
                            codes=(str(code),), k=k)
        path = write_rows(run_pie_sweep(cfg), tmp_path / "pie.csv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_simulated_snrs_share_each_block(self, tmp_path, monkeypatch):
        # one calibration and one evaluation for both SNRs: each block of the
        # calibration (4), active noise (6) and message (7) streams is drawn
        # once, the noise at unit variance, and the rows are the one-SNR sweeps'
        import jdd.montecarlo as montecarlo

        code = tmp_path / "ham.txt"
        code.write_text(HAMMING_G)
        cfg = lambda grid: small_pie_cfg(schemes=("dad", "preamble"), snr_grid=grid,
                                         codes=(str(code),))
        single = [row for snr in (0.0, 3.0) for row in run_pie_sweep(cfg((snr,)))]
        draws = Counter()
        gaussian_block, uniform_block = montecarlo.gaussian_block, montecarlo.uniform_block

        def counted(sigma2, seed, stream, block, shape):
            draws[sigma2, stream, block, shape] += 1
            return gaussian_block(sigma2, seed, stream, block, shape)

        def counted_uniform(seed, stream, block, shape):
            draws[None, stream, block, shape] += 1
            return uniform_block(seed, stream, block, shape)

        monkeypatch.setattr(montecarlo, "gaussian_block", counted)
        monkeypatch.setattr(montecarlo, "uniform_block", counted_uniform)
        assert run_pie_sweep(cfg((0.0, 3.0))) == single
        rows = (4096, 4096, 1808)  # 10 000 calibration and evaluation trials alike
        assert draws == Counter(
            [(1.0, stream, b, (r, 24)) for stream in (STREAM_CALIBRATION, STREAM_ACTIVE_NOISE)
             for b, r in enumerate(rows)]
            + [(None, STREAM_MESSAGES, b, (r,)) for b, r in enumerate(rows)])

    def test_simulated_points_one_pass(self, tmp_path, monkeypatch):
        # one calibrate and one estimate call per code for all schemes and
        # SNRs; a calibration-infeasible entry is flagged and left out of estimate
        import jdd.sweeps as sweeps

        code = tmp_path / "ham.txt"
        code.write_text(HAMMING_G)
        cfg = small_pie_cfg(schemes=("dad", "hyped", "preamble"), snr_grid=(0.0, 3.0),
                            codes=(str(code),))
        sim = lambda rows: {(r["scheme"], r["es_n0_db"]): r for r in rows
                            if r["kind"] == "simulated"}
        before = sim(run_pie_sweep(cfg))
        calib, estimate = sweeps.calibrate_threshold, sweeps.estimate_rates
        kinds = []

        def infeasible_dad(spec, *args, **kwargs):
            out = calib(spec, *args, **kwargs)
            if kwargs.get("cb") is None:  # a split search, not a simulated point
                return out
            kinds.append([s.kind for s in spec])
            return [c if s.kind != "dad" else type(c)(c.gamma, True)
                    for s, c in zip(spec, out)]

        def counted_estimate(spec, *args, **kwargs):
            if kwargs.get("cb") is not None:
                kinds.append([s.kind for s in spec])
            return estimate(spec, *args, **kwargs)

        monkeypatch.setattr(sweeps, "calibrate_threshold", infeasible_dad)
        monkeypatch.setattr(sweeps, "estimate_rates", counted_estimate)
        after = sim(run_pie_sweep(cfg))
        assert kinds == [["dad", "hyped-exact", "preamble"] * 2, ["hyped-exact", "preamble"] * 2]
        for snr in ("0", "3"):
            assert after["dad", snr]["flag"] == "calibration-infeasible"
            assert after["dad", snr]["value"] == "1"
            for scheme in ("hyped", "preamble"):
                assert after[scheme, snr] == before[scheme, snr]


def split_rows(rows):
    """run_optimize_split rows as {(scheme, flag): value}."""
    return {(r["scheme"], r["flag"]): r["value"] for r in rows}


class TestOptimizeSplit:
    CFG = {"n": 24, "k": 4, "es_n0_db": 3.0, "schemes": ("hyped", "preamble"),
           "np_grid": (2, 8, 14)}

    def test_single_candidate(self):
        rows = run_optimize_split(small_pie_cfg(**{**self.CFG, "np_grid": (8,)}))
        assert [(r["scheme"], r["kind"], r["flag"]) for r in rows] == [
            (scheme, "achievability", flag) for scheme in ("hyped", "preamble")
            for flag in ("pmd,n_p=8", "pcw-ub,n_p=8", "pie-ub,n_p=8", "best,n_p=8")]
        got = split_rows(rows)
        assert got["preamble", "best,n_p=8"] == got["preamble", "pie-ub,n_p=8"]

    def test_picks_feasible_argmin(self):
        cfg = small_pie_cfg(**self.CFG)
        got = split_rows(run_optimize_split(cfg))
        for scheme in cfg.schemes:
            feasible = [(float(got[scheme, f"pie-ub,n_p={n_p}"]), n_p) for n_p in cfg.np_grid
                        if float(got[scheme, f"pmd,n_p={n_p}"]) <= cfg.eps_md]
            pie, n_p = min(feasible)
            assert got[scheme, f"best,n_p={n_p}"] == f"{pie:.10g}"
        # recorded from the split table optimize-split printed before it wrote rows
        assert got["hyped", "best,n_p=2"] == "0.0002998249077"
        assert got["preamble", "best,n_p=8"] == "0.003771643768"

    def test_table_equals_per_length_dt(self):
        cfg = small_pie_cfg(**self.CFG)
        got = split_rows(run_optimize_split(cfg))
        sigma2 = snr_to_sigma2(3.0)
        for scheme in cfg.schemes:
            for n_p in cfg.np_grid:
                dens = info_density_samples(24 - n_p, sigma2, cfg.trials, cfg.seed)
                pcw_ub = dt_error_estimate(dens, 16)[0]
                pmd = float(got[scheme, f"pmd,n_p={n_p}"])
                assert got[scheme, f"pcw-ub,n_p={n_p}"] == f"{pcw_ub:.10g}"
                pie_ub = min(1.0, pmd + pcw_ub) if pmd <= cfg.eps_md else float("nan")
                assert got[scheme, f"pie-ub,n_p={n_p}"] == f"{pie_ub:.10g}"

    def test_scheme_without_split_rejected(self, monkeypatch):
        # neither hyped nor preamble: rejected before any noise is drawn
        import jdd.bounds
        import jdd.montecarlo

        monkeypatch.setattr(jdd.bounds, "gaussian_block", None)
        monkeypatch.setattr(jdd.montecarlo, "gaussian_block", None)
        with pytest.raises(ValueError, match="optimize-split needs one or more of hyped,preamble"):
            run_optimize_split(small_pie_cfg(schemes=("genie", "dad"), np_grid=(8,)))

    def test_dt_estimate_refuses_too_few_trials(self, monkeypatch):
        # one density gave a DT bound, and rows, from a single sample; the
        # config is refused before the DT pass draws any noise
        import jdd.bounds
        import jdd.montecarlo

        monkeypatch.setattr(jdd.bounds, "gaussian_block", None)
        monkeypatch.setattr(jdd.montecarlo, "gaussian_block", None)
        for trials in (1, 9999):
            with pytest.raises(ValueError, match=f"trials must be >= 10000, .* got {trials}$"):
                run_optimize_split(small_pie_cfg(**self.CFG, trials=trials))

    def test_all_infeasible_writes_infeasible_row(self):
        cfg = small_pie_cfg(schemes=("preamble",), es_n0_db=-6.0, np_grid=(1,), eps_md=1e-6)
        rows = run_optimize_split(cfg)
        assert split_rows(rows)["preamble", "pie-ub,n_p=1"] == "nan"  # pmd misses eps_md
        assert rows[-1] == {"scheme": "preamble", "kind": "achievability", "n": "24",
                            "es_n0_db": "-6", "value": "1", "stderr": "", "flag": "infeasible"}

    @pytest.mark.filterwarnings("ignore:DT bound")
    def test_best_rows_equal_pie_sweep(self):
        # the split search and the P_IE sweep pick the same split and bound
        cfg = small_pie_cfg(**self.CFG)
        best = {(r["scheme"], r["flag"].split(",")[1], r["value"])
                for r in run_optimize_split(cfg) if r["flag"].startswith("best,")}
        sweep = {(r["scheme"], r["flag"], r["value"])
                 for r in run_pie_sweep(small_pie_cfg(**self.CFG, snr_grid=(3.0,)))
                 if r["kind"] == "achievability" and r["scheme"] in cfg.schemes}
        assert best == sweep and {s for s, _, _ in best} == {"hyped", "preamble"}


class TestRunnersValidate:
    @pytest.mark.parametrize("runner", [run_rate_sweep, run_pie_sweep, run_optimize_split,
                                        run_bounds_report])
    def test_config_built_in_python_validated(self, monkeypatch, runner):
        # a SweepConfig built in Python, as demos/03_sweeps.py builds one,
        # gets parse_config's checks before any noise is drawn
        import jdd.bounds
        import jdd.montecarlo

        monkeypatch.setattr(jdd.bounds, "gaussian_block", None)
        monkeypatch.setattr(jdd.montecarlo, "gaussian_block", None)
        cfg = small_pie_cfg(schemes=("genie", "genie"), snr_grid=(-20.0,), n_grid=(40,))
        with pytest.raises(ValueError, match="schemes must not repeat"):
            runner(cfg)

    # each list key with a repeated entry, which would write its rows twice
    REPEATS = {"schemes": ("genie", "genie"), "n_grid": (60, 60), "snr_grid": (-3.0, -3.0),
               "np_grid": (0, 0), "codes": ("a.gen", "a.gen"), "refs": ("r.csv", "r.csv")}

    @pytest.mark.parametrize("key", sorted(REPEATS))
    def test_repeated_list_entry_rejected(self, monkeypatch, key):
        import jdd.bounds
        import jdd.montecarlo

        value = self.REPEATS[key]
        with pytest.raises(ValueError, match=f"{key} must not repeat"):
            parse_config(f"{key}={','.join(map(str, value))}\n")
        monkeypatch.setattr(jdd.bounds, "gaussian_block", None)
        monkeypatch.setattr(jdd.montecarlo, "gaussian_block", None)
        for runner in (run_rate_sweep, run_pie_sweep):
            cfg = small_pie_cfg(**{"n_grid": (40,), key: value})
            with pytest.raises(ValueError, match=f"{key} must not repeat"):
                runner(cfg)


class TestWorkBound:
    """Each runner sums (calibration + evaluation trials) x the longest slot of its passes."""

    @staticmethod
    def refused_past(monkeypatch, runner, cfg, work):
        # the planned work is refused one slot-symbol below it, before any
        # draw; at the limit the runner goes on to draw noise
        import jdd.bounds
        import jdd.montecarlo
        import jdd.sweeps as sweeps

        monkeypatch.setattr(jdd.bounds, "gaussian_block", None)
        monkeypatch.setattr(jdd.montecarlo, "gaussian_block", None)
        monkeypatch.setattr(sweeps, "MAX_SLOT_SYMBOLS", work - 1)
        with pytest.raises(ValueError, match=re.escape(
                f"eps_fa={cfg.eps_fa} needs {cfg.calibration_trials()} calibration trials, and "
                f"with trials={cfg.trials} the Monte Carlo passes would draw {work} ")):
            runner(cfg)
        monkeypatch.setattr(sweeps, "MAX_SLOT_SYMBOLS", work)
        with pytest.raises(TypeError):  # the first draw
            runner(cfg)

    def test_pie_sweep_counts_a_code_once(self, tmp_path, monkeypatch):
        # HyPED's split search and one code, each one pass for 0 and 3 dB (-6 dB
        # lies below the floor): 2 x (10 000 + 10 000) x 24
        code = tmp_path / "ham.txt"
        code.write_text(HAMMING_G)
        cfg = small_pie_cfg(schemes=("dad", "hyped", "preamble"), snr_grid=(-6.0, 0.0, 3.0),
                            codes=(str(code),))
        self.refused_past(monkeypatch, run_pie_sweep, cfg, 2 * 20_000 * 24)

    def test_rate_sweep_counts_the_longest_feasible_n(self, monkeypatch):
        cfg = small_rate_cfg(schemes=("genie", "hyped"), n_grid=(40, 60, 20))
        self.refused_past(monkeypatch, run_rate_sweep, cfg, 20_000 * 60)

    def test_optimize_split_counts_its_split_search(self, monkeypatch):
        cfg = small_pie_cfg(**TestOptimizeSplit.CFG, eps_fa=1e-3)
        self.refused_past(monkeypatch, run_optimize_split, cfg, (50_000 + 10_000) * 24)


class TestRunWithManifest:
    def test_round_trip(self, tmp_path):
        # key=value lines: the command, every config field in field order,
        # the calibration trials, the wall time and, last, the time written
        cfg = SweepConfig(seed=7, trials=10_000, schemes=("dad",))
        path = run_with_manifest(lambda cfg: [], cfg, tmp_path, "run")
        assert path == tmp_path / "run.csv" and read_csv(path) == []
        text = (tmp_path / "run.manifest.txt").read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        keys = [f.name for f in fields(SweepConfig)]
        assert [line.split("=", 1)[0] for line in lines] == [
            "command", *keys, "calibration_trials", "wall_time_s", "written_unix"]
        for line in ("command=run", "seed=7", "trials=10000", "schemes=dad", "n_grid=",
                     "eps_fa=0.0001", "calibration_trials=500000"):
            assert line in lines
        assert parse_config("\n".join(l for l in lines if l.split("=", 1)[0] in keys)) == cfg


class TestCli:
    def write_cfg(self, tmp_path, text):
        p = tmp_path / "cfg.txt"
        p.write_text(text)
        return str(p)

    def test_bounds_subcommand(self, tmp_path, capsys):
        with pytest.warns(UserWarning, match="DT bound at n="):  # DT precision at 10k trials
            rc = main(["bounds", "--trials", "10000", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("bounds.csv")
        assert (tmp_path / "bounds.csv").exists()

    def test_bounds_writes_manifest(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "n=60\nk=8\nes_n0_db=0\n")
        with pytest.warns(UserWarning):  # DT precision at 10k trials
            rc = main(["bounds", "--config", cfg, "--seed", "5", "--trials", "10000",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == str(tmp_path / "bounds.csv")
        recs = read_csv(tmp_path / "bounds.csv")
        assert [r["value"] for r in recs if r["flag"] == "max-code-size"] == ["972144"]
        manifest = (tmp_path / "bounds.manifest.txt").read_text().splitlines()
        for line in ("command=bounds", "seed=5", "trials=10000", "n=60", "k=8", "es_n0_db=0.0"):
            assert line in manifest

    def test_rate_sweep_with_manifest(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path,
            "schemes=genie\nn_grid=40\neps_fa=1e-2\neps_md=1e-2\neps_ie=1e-2\n",
        )
        rc = main(["rate-sweep", "--config", cfg, "--seed", "3", "--trials", "10000",
                   "--out", str(tmp_path)])
        assert rc == 0
        recs = read_csv(tmp_path / "rate_sweep.csv")
        assert {r["scheme"] for r in recs} == {"genie"}
        manifest = (tmp_path / "rate_sweep.manifest.txt").read_text()
        assert "seed=3" in manifest and "trials=10000" in manifest

    def test_pie_sweep_with_code(self, tmp_path, capsys):
        code = tmp_path / "ham.txt"
        code.write_text(HAMMING_G)
        cfg = self.write_cfg(
            tmp_path,
            "schemes=dad\nsnr_grid=3\nn=24\nk=4\n"
            "eps_fa=1e-2\neps_md=1e-2\neps_ie=1e-2\ntrials=10000\n",
        )
        rc = main(["pie-sweep", "--config", cfg, "--code", str(code), "--out", str(tmp_path)])
        assert rc == 0
        recs = read_csv(tmp_path / "pie_sweep.csv")
        assert any(r["kind"] == "simulated" for r in recs)

    def test_optimize_split_stdout(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path,
            "schemes=preamble\nn=24\nk=4\nes_n0_db=3\nnp_grid=8\n"
            "eps_fa=1e-2\neps_md=1e-2\neps_ie=1e-2\ntrials=10000\n",
        )
        rc = main(["optimize-split", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == str(tmp_path / "optimize_split.csv")
        recs = read_csv(tmp_path / "optimize_split.csv")
        assert [(r["scheme"], r["flag"]) for r in recs] == [
            ("preamble", "best,n_p=8"), ("preamble", "pcw-ub,n_p=8"),
            ("preamble", "pie-ub,n_p=8"), ("preamble", "pmd,n_p=8")]
        manifest = (tmp_path / "optimize_split.manifest.txt").read_text().splitlines()
        for line in ("command=optimize_split", "schemes=preamble", "n=24", "np_grid=8"):
            assert line in manifest

    def test_unconvertible_value_names_its_key(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "n_grid=60\ntrials=1e5\n")
        rc = main(["rate-sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            'error="ValueError: trials: expected int, got \'1e5\'"']

    def test_optimize_split_too_few_trials(self, tmp_path, capsys, monkeypatch):
        # refused at parse time, before the DT pass draws any noise
        import jdd.bounds
        import jdd.montecarlo

        monkeypatch.setattr(jdd.bounds, "gaussian_block", None)
        monkeypatch.setattr(jdd.montecarlo, "gaussian_block", None)
        cfg = self.write_cfg(tmp_path, "schemes=hyped,preamble\nn=24\nk=4\nes_n0_db=3\n"
                                       "np_grid=2,8,14\ntrials=1\n")
        rc = main(["optimize-split", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            'error="ValueError: trials must be >= 10000, the fewest the DT and meta-converse '
            'estimators take, got 1"']
        assert not (tmp_path / "optimize_split.csv").exists()

    def test_optimize_split_scheme_without_split(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "schemes=dad\nn=24\nk=4\n")
        rc = main(["optimize-split", "--config", cfg, "--out", str(tmp_path)])
        assert rc != 0
        assert capsys.readouterr().err.splitlines() == [
            'error="ValueError: optimize-split needs one or more of hyped,preamble in schemes, '
            "got 'dad'\""]
        assert not (tmp_path / "optimize_split.csv").exists()

    @pytest.mark.filterwarnings("ignore:DT bound")
    @pytest.mark.parametrize("command, text", [
        ("bounds", "n=60\nk=8\nes_n0_db=0\n"),
        ("optimize-split", "schemes=preamble\nn=24\nk=4\nes_n0_db=3\nnp_grid=8\n"),
    ])
    def test_reference_rows_written(self, tmp_path, capsys, command, text):
        # every subcommand merges --ref, as its manifest's refs= line says
        ref = tmp_path / "ref.csv"
        ref.write_text("scheme,kind,n,es_n0_db,value,stderr,flag\nldpc,simulated,24,3,0.25,,\n")
        cfg = self.write_cfg(tmp_path, text + "eps_fa=1e-2\neps_md=1e-2\neps_ie=1e-2\n")
        rc = main([command, "--config", cfg, "--trials", "10000", "--ref", str(ref),
                   "--out", str(tmp_path)])
        assert rc == 0
        name = command.replace("-", "_")
        assert [r["value"] for r in read_csv(tmp_path / f"{name}.csv")
                if r["scheme"] == "ref:ldpc"] == ["0.25"]
        assert f"refs={ref}" in (tmp_path / f"{name}.manifest.txt").read_text().splitlines()

    @pytest.mark.parametrize("command", ["rate-sweep", "optimize-split", "bounds"])
    def test_code_only_on_pie_sweep(self, tmp_path, capsys, command):
        # only pie-sweep reads codes; the others refuse --code at parse time
        with pytest.raises(SystemExit) as exc:
            main([command, "--code", "nonexistent.gen", "--out", str(tmp_path)])
        assert exc.value.code != 0
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("line", ["trials=0", "calib_trials=-1", "seed=-1", "n=0",
                                      "k=0", "k=25", "n_grid=60,0", "n_grid=-4",
                                      "np_grid=0,-1", "n=8\nk=12", "out=elsewhere",
                                      "schemes=genie,bogus", "schemes=genie,DAD", "schemes=",
                                      "schemes=genie,dad\nes_n0_db=nan", "es_n0_db=inf",
                                      "snr_grid=1,inf", "snr_grid=nan", "eps_fa=0",
                                      "eps_md=1", "eps_ie=1.5", "eps_ie=nan",
                                      "schemes=genie,genie,dad"])
    def test_bad_config_rejected_at_parse_time(self, tmp_path, capsys, line):
        cfg = self.write_cfg(tmp_path, f"n_grid=60\n{line}\n")
        rc = main(["rate-sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith('error="ValueError')
        assert not (tmp_path / "rate_sweep.csv").exists()

    def test_rate_sweep_without_rate_scheme(self, tmp_path, capsys):
        # preamble has no rate bound: a rate sweep with nothing else to run fails
        cfg = self.write_cfg(tmp_path, "schemes=preamble\nn_grid=20,40\neps_fa=1e-2\n"
                                       "eps_md=1e-2\neps_ie=1e-2\n")
        rc = main(["rate-sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc != 0
        err = capsys.readouterr().err.splitlines()
        assert err == ['error="ValueError: rate sweep needs one or more of genie,dad,hyped in '
                       "schemes, got 'preamble'\""]
        assert not (tmp_path / "rate_sweep.csv").exists()

    @pytest.mark.parametrize("code, error", [
        (None, "FileNotFoundError: [Errno 2] No such file or directory: '111'"),
        (HAMMING_G, "ValueError: code 111 has length n_c=7, longer than the slot n=6"),
        ("111\n", "ValueError: code 111 has dimension k=1, not the configured k=4"),
    ], ids=["missing", "longer-than-slot", "k-mismatch"])
    def test_bad_code_rejected(self, tmp_path, capsys, monkeypatch, code, error):
        # "111" must be read as a file, never as a repetition code's matrix,
        # and a code that does not fit the slot, or whose k is not the k the
        # bound rows count 2^k codewords for, fails before any noise is drawn
        import jdd.bounds
        import jdd.montecarlo

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(jdd.bounds, "gaussian_block", None)
        monkeypatch.setattr(jdd.montecarlo, "gaussian_block", None)
        if code:
            (tmp_path / "111").write_text(code)
        cfg = self.write_cfg(tmp_path, "schemes=dad\nsnr_grid=12\nn=6\nk=4\n")
        rc = main(["pie-sweep", "--config", cfg, "--code", "111", "--out", str(tmp_path)])
        assert rc != 0
        assert capsys.readouterr().err.splitlines() == [f'error="{error}"']
        assert not (tmp_path / "pie_sweep.csv").exists()

    @pytest.mark.parametrize("flag, name", [("--code", "ham,7.gen"), ("--code", "ham#7.gen"),
                                            ("--ref", "ref,1.csv")])
    def test_path_the_manifest_cannot_hold_rejected(self, tmp_path, capsys, flag, name):
        # parse_config splits lists at ',' and cuts lines at '#', so the run's
        # manifest could not name this path; it fails before anything runs
        path = tmp_path / name
        path.write_text(HAMMING_G)
        cfg = self.write_cfg(tmp_path, "schemes=dad\nsnr_grid=3\nn=24\nk=4\ntrials=10000\n")
        rc = main(["pie-sweep", "--config", cfg, flag, str(path),
                   "--out", str(tmp_path)])
        assert rc != 0
        key = "codes" if flag == "--code" else "refs"
        assert capsys.readouterr().err.splitlines() == [
            f'error="ValueError: {key} paths cannot contain \',\' or \'#\', '
            f'got {str(path)!r}"']
        assert not (tmp_path / "pie_sweep.csv").exists()

    @pytest.mark.filterwarnings("ignore:DT bound")
    @pytest.mark.parametrize("command, text", [
        ("rate-sweep", "schemes=genie,dad,hyped\nn_grid=40\nnp_grid=20\nes_n0_db=-2.5\n"),
        ("pie-sweep", "schemes=dad,hyped\nsnr_grid=2.5\nn=24\nk=4\nnp_grid=17\ncodes={code}\n"),
        ("bounds", "n=60\nk=8\nes_n0_db=0\n"),
        ("optimize-split", "schemes=hyped,preamble\nn=24\nk=4\nes_n0_db=3\nnp_grid=2,8,14\n"),
    ], ids=["rate-sweep", "pie-sweep", "bounds", "optimize-split"])
    def test_manifest_round_trip(self, tmp_path, capsys, command, text):
        # the manifest's config lines are the whole config: parsed back they
        # equal the run's config, and re-run they write the same CSV
        code = tmp_path / "ham.txt"
        code.write_text(HAMMING_G)
        text = (text.format(code=code)
                + "eps_fa=1e-2\neps_md=1e-2\neps_ie=1e-2\ntrials=10000\nseed=3\n")
        name = command.replace("-", "_")
        keys = [f.name for f in fields(SweepConfig)]
        csvs = []
        for run in ("first", "again"):
            cfg = self.write_cfg(tmp_path, text)
            assert main([command, "--config", cfg, "--out", str(tmp_path / run)]) == 0
            manifest = (tmp_path / run / f"{name}.manifest.txt").read_text().splitlines()
            assert [line.split("=", 1)[0] for line in manifest] == [
                "command", *keys, "calibration_trials", "wall_time_s", "written_unix"]
            config_lines = "\n".join(line for line in manifest if line.split("=", 1)[0] in keys)
            assert parse_config(config_lines) == parse_config(text)
            csvs.append((tmp_path / run / f"{name}.csv").read_bytes())
            text = config_lines
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("flag", [["--trials", "0"], ["--seed", "-1"]])
    def test_bad_override_rejected(self, tmp_path, capsys, flag):
        cfg = self.write_cfg(tmp_path, "n_grid=60\n")
        rc = main(["rate-sweep", "--config", cfg, "--out", str(tmp_path), *flag])
        assert rc != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith('error="ValueError')

    def test_work_bound_refused_before_any_draw(self, tmp_path, capsys, monkeypatch):
        # eps_fa = 1e-12 asks HyPED's split search at 4 dB, above the converse
        # floor, for 5e13 calibration trials: refused at once, no noise drawn
        import jdd.bounds
        import jdd.montecarlo

        monkeypatch.setattr(jdd.bounds, "gaussian_block", None)
        monkeypatch.setattr(jdd.montecarlo, "gaussian_block", None)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("schemes=hyped\nn=84\nk=12\nsnr_grid=4\neps_fa=1e-12\neps_md=1e-3\n"
                       "eps_ie=1e-2\ntrials=10000\n")
        started = time.perf_counter()
        rc = main(["pie-sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert time.perf_counter() - started < 1.0
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith('error="ValueError: eps_fa=1e-12 needs 50000000000000 '
                                 'calibration trials, and with trials=10000')

    def test_trials_past_one_bound_pass_refused(self, tmp_path, capsys, monkeypatch):
        # 1e8 trials would hold 800 MB of densities in one bound pass (and
        # ~4.5 GiB at peak): refused at once, no noise drawn
        import jdd.bounds
        import jdd.montecarlo

        monkeypatch.setattr(jdd.bounds, "gaussian_block", None)
        monkeypatch.setattr(jdd.montecarlo, "gaussian_block", None)
        error = "trials must be <= 8388608, the densities of one bound pass, got 100000000"
        started = time.perf_counter()
        rc = main(["bounds", "--trials", "100000000", "--out", str(tmp_path)])
        assert time.perf_counter() - started < 1.0
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f'error="ValueError: {error}"']
        assert not (tmp_path / "bounds.csv").exists()
        with pytest.raises(ValueError) as exc:
            parse_config("trials=100000000\n")
        assert str(exc.value) == error

    # 10^(dB/10) overflows at 3100 dB and underflows at -4000 dB, each finite
    SNR_OUT_OF_RANGE = [
        ("rate-sweep", "schemes=genie,dad\nn_grid=100\nes_n0_db=3100\n", "es_n0_db", 3100.0),
        ("rate-sweep", "schemes=genie,dad\nn_grid=100\nes_n0_db=-4000\n", "es_n0_db", -4000.0),
        ("pie-sweep", "n=24\nk=4\nsnr_grid=-4,3100\n", "snr_grid", 3100.0),
        ("pie-sweep", "n=24\nk=4\nsnr_grid=-4000\n", "snr_grid", -4000.0),
        ("optimize-split", "schemes=hyped,preamble\nn=24\nk=4\nes_n0_db=3100\n", "es_n0_db",
         3100.0),
        ("bounds", "es_n0_db=3100\n", "es_n0_db", 3100.0),
        ("bounds", "es_n0_db=-3100\n", "es_n0_db", -3100.0),
    ]

    @pytest.mark.parametrize("command, text, key, snr", SNR_OUT_OF_RANGE)
    def test_snr_out_of_range_refused(self, tmp_path, capsys, monkeypatch, command, text, key,
                                      snr):
        # such a config would exit 2 mid-run (OverflowError, ZeroDivisionError)
        # or, at -3100 dB, write a bounds report at sigma2 = inf: refused at
        # once, no noise drawn
        import jdd.bounds
        import jdd.montecarlo

        monkeypatch.setattr(jdd.bounds, "gaussian_block", None)
        monkeypatch.setattr(jdd.montecarlo, "gaussian_block", None)
        text += "eps_fa=1e-2\neps_md=1e-2\neps_ie=1e-2\ntrials=10000\n"
        error = f"{key} must lie in [-300, 300] dB, got {snr}"
        started = time.perf_counter()
        rc = main([command, "--config", self.write_cfg(tmp_path, text), "--out", str(tmp_path)])
        assert time.perf_counter() - started < 1.0
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f'error="ValueError: {error}"']
        assert not (tmp_path / f"{command.replace('-', '_')}.csv").exists()
        with pytest.raises(ValueError) as exc:
            parse_config(text)
        assert str(exc.value) == error

    # a blocklength past MAX_BLOCKLENGTH, 2^14
    N_OUT_OF_RANGE = [
        ("rate-sweep", "schemes=genie\nn_grid=100,16385\n", "n_grid entries"),
        ("pie-sweep", "n=16385\nk=4\nsnr_grid=0\n", "n"),
        ("bounds", "n=16385\n", "n"),
    ]

    @pytest.mark.parametrize("command, text, key", N_OUT_OF_RANGE)
    def test_blocklength_out_of_range_refused(self, tmp_path, capsys, monkeypatch, command, text,
                                              key):
        # a density pass holds 64 KiB per symbol of n (a genie rate sweep
        # peaked at 62 MiB at n = 100 and 306 MiB at n = 4000), so a long
        # enough n is killed mid-run: refused at once, no noise drawn
        import jdd.bounds
        import jdd.montecarlo

        monkeypatch.setattr(jdd.bounds, "gaussian_block", None)
        monkeypatch.setattr(jdd.montecarlo, "gaussian_block", None)
        text += "eps_fa=1e-2\neps_md=1e-2\neps_ie=1e-2\ntrials=10000\n"
        error = f"{key} must lie in 1..16384, got 16385"
        started = time.perf_counter()
        rc = main([command, "--config", self.write_cfg(tmp_path, text), "--out", str(tmp_path)])
        assert time.perf_counter() - started < 1.0
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f'error="ValueError: {error}"']
        assert not (tmp_path / f"{command.replace('-', '_')}.csv").exists()

    # 9999 trials, one fewer than the DT and meta-converse estimators take:
    # the first four configs drew noise before they were refused, and the pie
    # sweep, whose SNRs all lie below its -6.4 dB floor, ran
    BELOW_MIN_TRIALS = [
        ("rate-sweep", "schemes=hyped\nn_grid=84\nes_n0_db=-3\n"),
        ("rate-sweep", "schemes=dad\nn_grid=84\nes_n0_db=-3\n"),
        ("bounds", "n=84\nk=12\nes_n0_db=-3\n"),
        ("optimize-split", "schemes=hyped,preamble\nn=84\nk=12\nes_n0_db=-3\n"),
        ("pie-sweep", "schemes=genie,dad,hyped,preamble\nn=84\nk=12\nsnr_grid=-12,-9\n"),
    ]

    @pytest.mark.parametrize("command, text", BELOW_MIN_TRIALS,
                             ids=["rate-hyped", "rate-dad", "bounds", "optimize-split",
                                  "pie-below-floor"])
    def test_trials_below_bound_minimum_refused(self, tmp_path, capsys, monkeypatch, command,
                                                text):
        # whether trials are enough is decided from the config alone, not from
        # what the run finds: refused at once, no noise drawn
        import jdd.bounds
        import jdd.montecarlo

        monkeypatch.setattr(jdd.bounds, "gaussian_block", None)
        monkeypatch.setattr(jdd.montecarlo, "gaussian_block", None)
        text += "eps_fa=1e-3\neps_md=1e-3\neps_ie=1e-2\ntrials=9999\n"
        error = ("trials must be >= 10000, the fewest the DT and meta-converse estimators "
                 "take, got 9999")
        started = time.perf_counter()
        rc = main([command, "--config", self.write_cfg(tmp_path, text), "--out", str(tmp_path)])
        assert time.perf_counter() - started < 1.0
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f'error="ValueError: {error}"']
        assert not (tmp_path / f"{command.replace('-', '_')}.csv").exists()
        with pytest.raises(ValueError) as exc:
            parse_config(text)
        assert str(exc.value) == error

    # 50 / 5e-324 overflows a float; the exact ceiling is an int of 326 digits
    SUBNORMAL_EPS_FA = "eps_fa=5e-324\ntrials=10000\n"

    @pytest.mark.parametrize("command, text", [
        ("bounds", ""),
        ("rate-sweep", "schemes=genie\nn_grid=200\nes_n0_db=0\neps_md=1e-3\neps_ie=1e-2\n"),
    ])
    def test_subnormal_eps_fa_runs(self, tmp_path, capsys, command, text):
        # the manifest's calibration trials are the exact integer ceiling, and
        # both files are written (an OverflowError left the CSV alone)
        name = command.replace("-", "_")
        cfg = self.write_cfg(tmp_path, text + self.SUBNORMAL_EPS_FA)
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0, capsys.readouterr().err
        assert read_csv(tmp_path / "out" / f"{name}.csv")
        manifest = (tmp_path / "out" / f"{name}.manifest.txt").read_text().splitlines()
        assert f"calibration_trials={math.ceil(50 / Fraction(5e-324))}" in manifest

    def test_subnormal_eps_fa_work_bound_refused(self, tmp_path, capsys, monkeypatch):
        # HyPED's split search at 12 dB, above the floor, would calibrate on
        # ~1e325 trials: the work bound's own message, before any draw
        import jdd.bounds
        import jdd.montecarlo

        monkeypatch.setattr(jdd.bounds, "gaussian_block", None)
        monkeypatch.setattr(jdd.montecarlo, "gaussian_block", None)
        cfg = self.write_cfg(tmp_path, "schemes=hyped\nn=84\nk=12\nsnr_grid=12\n"
                                       + self.SUBNORMAL_EPS_FA)
        rc = main(["pie-sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f'error="ValueError: eps_fa=5e-324 needs '
                                 f'{math.ceil(50 / Fraction(5e-324))} calibration trials, and '
                                 f'with trials=10000 the Monte Carlo passes would draw ')
        assert not (tmp_path / "pie_sweep.csv").exists()

    @pytest.mark.parametrize("snr", [-300, 300])
    def test_snr_at_range_edge_runs(self, tmp_path, capsys, snr):
        cfg = self.write_cfg(tmp_path, f"n=84\nk=12\nes_n0_db={snr}\neps_fa=1e-2\neps_md=1e-2\n"
                                       "eps_ie=1e-2\ntrials=10000\n")
        rc = main(["bounds", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0, capsys.readouterr().err
        recs = read_csv(tmp_path / "bounds.csv")
        assert len(recs) == 6 and all(math.isfinite(float(r["value"])) for r in recs)

    def test_eps_md_past_double_resolution_runs(self, tmp_path, capsys):
        # 1 - 1e-17 rounds to 1.0, so the converse and DAD's detection term
        # take Q^-1(eps_md) itself; the config parses, so it must run
        cfg = self.write_cfg(tmp_path, "schemes=genie,dad\nn_grid=200\nes_n0_db=0\n"
                                       "eps_fa=1e-3\neps_md=1e-17\neps_ie=1e-2\ntrials=10000\n")
        rc = main(["rate-sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0, capsys.readouterr().err
        recs = read_csv(tmp_path / "rate_sweep.csv")
        assert [(r["scheme"], r["kind"]) for r in recs] == [
            ("dad", "achievability"), ("genie", "achievability"), ("genie", "converse")]
        assert all(0.0 < float(r["value"]) < 1.0 and r["flag"] == "" for r in recs)

    def test_fresh_import_loads_no_scipy_stats(self):
        # the package needs scipy.special only; a subprocess, because the test
        # modules import scipy.stats themselves
        import jdd

        src = str(Path(jdd.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, jdd.sweeps, jdd.cli\n"
             "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_error_path_exit_code(self, tmp_path, capsys):
        # default config has no n_grid: rate-sweep must fail cleanly
        rc = main(["rate-sweep", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith('error="ValueError')
