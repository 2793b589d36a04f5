import csv
import hashlib
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from jdd.bounds import dt_error_estimate, info_density_samples
from jdd.channel import ChannelParams
from jdd.cli import main
from jdd.sweeps import (
    CSV_HEADER,
    SweepConfig,
    _hyped_rate_point,
    _split_bound_point,
    ingest_reference,
    optimize_preamble_split,
    parse_config,
    run_bounds_report,
    run_pie_sweep,
    run_rate_sweep,
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


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg == SweepConfig()

    def test_scalars_and_lists(self):
        cfg = parse_config(
            "es_n0_db = -2.5\n"
            "trials=5000\n"
            "n_grid = 20, 40, 60\n"
            "schemes=genie,dad\n"
            "snr_grid=-6,-3,0\n"
        )
        assert cfg.es_n0_db == -2.5
        assert cfg.trials == 5000
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

    def test_range_edges_accepted(self):
        cfg = parse_config("trials=1\ncalib_trials=0\nseed=0\nn=1\nk=1\n")
        assert (cfg.trials, cfg.n, cfg.k) == (1, 1, 1)
        cfg = parse_config("n=24\nk=24\n")  # k = n: the most bits n symbols can carry
        assert (cfg.n, cfg.k) == (24, 24)
        with pytest.raises(ValueError, match="seed"):
            parse_config(f"seed={2**64}")

    def test_calibration_trials_floor(self):
        cfg = parse_config("eps_fa=1e-3\ntrials=1000\n")
        assert cfg.calibration_trials() == 50_000


class TestWriteRows:
    def rows(self):
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

    def test_hyped_split_search(self):
        cfg = small_rate_cfg(schemes=("hyped",), n_grid=(40,), np_grid=(20,))
        rows = run_rate_sweep(cfg)
        kinds = {r["kind"]: r for r in rows}
        assert set(kinds) == {"achievability", "converse"}
        assert kinds["achievability"]["flag"] == "n_p=20"

    def test_reference_merge(self, tmp_path):
        p = tmp_path / "ref.csv"
        p.write_text("scheme,kind,n,es_n0_db,value,stderr,flag\nldpc,simulated,40,-3,0.3,,\n")
        rows = run_rate_sweep(small_rate_cfg(refs=(str(p),)))
        assert any(r["scheme"] == "ref:ldpc" for r in rows)

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
        # streams 1-3 are each drawn once per feasible n, block by block
        import jdd.bounds as bounds

        draws = Counter()
        gaussian_block = bounds.gaussian_block

        def counted(sigma2, seed, stream, block, shape):
            draws[shape[1], stream, block] += 1
            return gaussian_block(sigma2, seed, stream, block, shape)

        monkeypatch.setattr(bounds, "gaussian_block", counted)
        with pytest.warns(UserWarning):
            run_rate_sweep(self.split_rate_cfg())
        blocks = range(-(-10_000 // 4096))
        assert draws == Counter({(n, stream, b): 1 for n in (48, 72) for stream in (1, 2, 3)
                                 for b in blocks})

    def test_no_bound_searched_below_dt_trials(self, monkeypatch):
        # at n = 22 the DAD fixed point ends before its first round and no split
        # meets eps_md, so no bound runs and 5000 trials (under the bounds'
        # 1e4 minimum) still give the infeasible rows, without drawing noise
        import jdd.sweeps as sweeps

        monkeypatch.setattr(sweeps, "info_density_samples", None)
        rows = run_rate_sweep(small_rate_cfg(schemes=("dad", "hyped"), n_grid=(16, 22),
                                             eps_ie=1e-3, trials=5000))
        assert [(r["scheme"], r["kind"], r["n"], r["flag"]) for r in rows] == [
            ("dad", "achievability", "16", "infeasible"),
            ("hyped", "achievability", "16", "infeasible"),
            ("dad", "achievability", "22", "infeasible"),
            ("hyped", "achievability", "22", "infeasible"),
            ("hyped", "converse", "22", "infeasible")]

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

    def test_bounds_report_one_sample(self, monkeypatch):
        # two DAD fixed-point rounds at n = 60 search one stream-1 sample; an
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


class TestBestSplit:
    def test_tie_keeps_smaller_n_p(self):
        # two splits with equal bounds: every row names the first, smaller n_p
        pairs = [(4, 1e-3), (8, 1e-3)]
        rate_rows = _hyped_rate_point(40, -3.0, pairs, {36: 2**10, 32: 2**10},
                                      {36: 2**12, 32: 2**12})
        pie_rows = _split_bound_point("hyped", 40, -3.0, pairs, {36: (1e-3, 0.0), 32: (1e-3, 0.0)},
                                      {36: 1e-4, 32: 1e-4})
        assert [(r["kind"], r["flag"]) for r in rate_rows + pie_rows] == [
            ("achievability", "n_p=4"), ("converse", "n_p=4"),
            ("achievability", "n_p=4"), ("converse", "n_p=4")]


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

    def test_simulated_rows_pinned(self, tmp_path):
        # sha256 recorded before the tiled correlation kernel and the shared
        # per-plan Monte Carlo pass; both must reproduce the old rows exactly
        ham = tmp_path / "ham.txt"
        ham.write_text(HAMMING_G)
        rm = tmp_path / "rm14.txt"
        rm.write_text(RM14_G)
        cfg = small_pie_cfg(schemes=("dad", "hyped", "preamble"), snr_grid=(0.0, 3.0),
                            codes=(str(ham), str(rm)))
        path = write_rows(run_pie_sweep(cfg), tmp_path / "pie.csv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "7b67622d8b20f06d6ac4d6e3d2a8ba89c1d7507f4f4b29cd0d6c318866efed34")

    def test_simulated_points_one_pass(self, tmp_path, monkeypatch):
        # one calibrate and one estimate call per (code, SNR) for all schemes;
        # a calibration-infeasible scheme is flagged and left out of estimate
        import jdd.sweeps as sweeps

        code = tmp_path / "ham.txt"
        code.write_text(HAMMING_G)
        cfg = small_pie_cfg(schemes=("dad", "hyped", "preamble"), snr_grid=(3.0,),
                            codes=(str(code),))
        sim = lambda rows: {r["scheme"]: r for r in rows if r["kind"] == "simulated"}
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
        assert kinds == [["dad", "hyped-exact", "preamble"], ["hyped-exact", "preamble"]]
        assert after["dad"]["flag"] == "calibration-infeasible"
        assert after["dad"]["value"] == "1"
        assert after["hyped"] == before["hyped"] and after["preamble"] == before["preamble"]


class TestOptimizeSplit:
    def test_single_candidate(self):
        cfg = small_pie_cfg(np_grid=(8,))
        params = ChannelParams.from_db(3.0, 24)
        plan, table = optimize_preamble_split("preamble", 24, 4, params, cfg.requirements, cfg)
        assert (plan.n_p, plan.n_c) == (8, 16)
        assert len(table) == 1

    def test_picks_feasible_argmin(self):
        cfg = small_pie_cfg(np_grid=(2, 8, 14))
        params = ChannelParams.from_db(3.0, 24)
        plan, table = optimize_preamble_split("preamble", 24, 4, params, cfg.requirements, cfg)
        feasible = [(pie, n_p) for n_p, pmd, _, pie in table if not np.isnan(pie)]
        assert plan.n_p == min(feasible)[1]

    def test_table_equals_per_length_dt(self):
        cfg = small_pie_cfg(np_grid=(2, 8, 14))
        params = ChannelParams.from_db(3.0, 24)
        _, table = optimize_preamble_split("preamble", 24, 4, params, cfg.requirements, cfg)
        for n_p, _, pcw_up, _ in table:
            dens = info_density_samples(24 - n_p, params.sigma2, cfg.trials, cfg.seed)
            assert pcw_up == dt_error_estimate(dens, 16)[0]

    def test_scheme_without_split_raises(self):
        cfg = small_pie_cfg(np_grid=(8,))
        params = ChannelParams.from_db(3.0, 24)
        with pytest.raises(ValueError, match="no preamble split"):
            optimize_preamble_split("dad", 24, 4, params, cfg.requirements, cfg)

    def test_all_infeasible_raises(self):
        cfg = small_pie_cfg(np_grid=(1,), eps_fa=1e-2, eps_md=1e-6)
        params = ChannelParams.from_db(-6.0, 24)
        with pytest.raises(ValueError, match="no feasible"):
            optimize_preamble_split("preamble", 24, 4, params, cfg.requirements, cfg)


class TestCli:
    def write_cfg(self, tmp_path, text):
        p = tmp_path / "cfg.txt"
        p.write_text(text)
        return str(p)

    def test_bounds_subcommand(self, tmp_path, capsys):
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
            "n=24\nk=4\nes_n0_db=3\nnp_grid=8\n"
            "eps_fa=1e-2\neps_md=1e-2\neps_ie=1e-2\ntrials=10000\n",
        )
        rc = main(["optimize-split", "--scheme", "preamble", "--config", cfg,
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheme=preamble n_p=8 n_c=16" in out

    def test_optimize_split_scheme_without_split(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize-split", "--scheme", "dad", "--out", str(tmp_path)])
        assert exc.value.code != 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("line", ["trials=0", "calib_trials=-1", "seed=-1", "n=0",
                                      "k=0", "k=25", "n_grid=60,0", "n_grid=-4",
                                      "np_grid=0,-1", "n=8\nk=12", "out=elsewhere"])
    def test_bad_config_rejected_at_parse_time(self, tmp_path, capsys, line):
        cfg = self.write_cfg(tmp_path, f"n_grid=60\n{line}\n")
        rc = main(["rate-sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith('error="ValueError')
        assert not (tmp_path / "rate_sweep.csv").exists()

    @pytest.mark.parametrize("code, error", [
        (None, "FileNotFoundError: [Errno 2] No such file or directory: '111'"),
        (HAMMING_G, "ValueError: code 111 has length n_c=7, longer than the slot n=6"),
    ], ids=["missing", "longer-than-slot"])
    def test_bad_code_rejected(self, tmp_path, capsys, monkeypatch, code, error):
        # "111" must be read as a file, never as a repetition code's matrix,
        # and a code that does not fit the slot fails before any noise is drawn
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

    @pytest.mark.filterwarnings("ignore:DT bound")
    @pytest.mark.parametrize("command, text", [
        ("rate-sweep", "schemes=genie,dad,hyped\nn_grid=40\nnp_grid=20\nes_n0_db=-2.5\n"),
        ("pie-sweep", "schemes=dad,hyped\nsnr_grid=2.5\nn=24\nk=4\nnp_grid=17\ncodes={code}\n"),
        ("bounds", "n=60\nk=8\nes_n0_db=0\n"),
    ], ids=["rate-sweep", "pie-sweep", "bounds"])
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

    def test_error_path_exit_code(self, tmp_path, capsys):
        # default config has no n_grid: rate-sweep must fail cleanly
        rc = main(["rate-sweep", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith('error="ValueError')
