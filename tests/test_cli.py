"""CLI contract tests: schemas, ordering, determinism, exit codes,
config handling and the figure datasets."""

import json
import math
import types

import numpy as np
import pytest

import backscatter_capacity.cli as cli
from backscatter_capacity import monte_carlo, validation
from backscatter_capacity.cli import (
    CSV_HEADER,
    SweepSpec,
    figure_dataset,
    main,
    parse_value_list,
    run_sweep,
)
from backscatter_capacity.errors import ConfigError, ConvergenceError
from backscatter_capacity.monte_carlo import McConfig


class TestParsing:
    def test_comma_list(self):
        assert parse_value_list("1,2.5,-3") == (1.0, 2.5, -3.0)

    def test_range(self):
        assert parse_value_list("0:10:5") == (0.0, 5.0, 10.0)
        assert parse_value_list("-10:40:25") == (-10.0, 15.0, 40.0)

    def test_bad_input(self):
        with pytest.raises(ConfigError):
            parse_value_list("1:2")
        with pytest.raises(ConfigError):
            parse_value_list("a,b")
        with pytest.raises(ConfigError):
            parse_value_list("5:1:1")
        with pytest.raises(ConfigError):
            parse_value_list("a:b:c")

    @pytest.mark.parametrize("text", ["0:10:1e-5", "nan:1:1", "0:10:inf"])
    def test_range_point_count_bounded(self, text):
        # 0:10:1e-5 has 1,000,001 points: rejected before any is allocated
        with pytest.raises(ConfigError, match="at most 1000000 points allowed"):
            parse_value_list(text)


class TestSweepSpec:
    def test_rho_one_with_analytic_methods_accepted(self):
        spec = SweepSpec(mode="fixed_receiver_snr", snr_db_grid=(0.0,),
                         rho_list=(1.0,), methods=("quadrature", "series"))
        assert spec.rho_list == (1.0,)

    def test_grid_must_increase(self):
        with pytest.raises(ConfigError):
            SweepSpec(mode="fixed_receiver_snr", snr_db_grid=(0.0, 0.0),
                      rho_list=(0.0,), methods=("awgn",))

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            SweepSpec(mode="fixed_receiver_snr", snr_db_grid=(0.0,),
                      rho_list=(0.0,), methods=("magic",))

    def test_mc_method_gets_default_config(self):
        spec = SweepSpec(mode="fixed_receiver_snr", snr_db_grid=(0.0,),
                         rho_list=(0.0,), methods=("mc",))
        assert isinstance(spec.mc, McConfig)


class TestRunSweep:
    def test_asymptote_rows_match_closed_form(self):
        spec = SweepSpec(mode="fixed_receiver_snr", snr_db_grid=(30.0,),
                         rho_list=(0.0, 1.0), methods=("asymptotic_high",))
        rows = run_sweep(spec)
        assert [round(r["capacity_bpshz"], 7) for r in rows] == \
            [8.3002919, 7.3002919]

    def test_quadrature_series_per_row_agreement(self):
        spec = SweepSpec(mode="fixed_receiver_snr", snr_db_grid=(0.0, 10.0, 20.0),
                         rho_list=(0.5,), methods=("quadrature", "series"))
        rows = run_sweep(spec)
        by_snr = {}
        for r in rows:
            by_snr.setdefault(r["snr_db"], {})[r["method"]] = r["capacity_bpshz"]
        for snr, vals in by_snr.items():
            rel = abs(vals["quadrature"] - vals["series"]) / vals["quadrature"]
            assert rel <= 1e-6

    def test_awgn_at_zero_db(self):
        spec = SweepSpec(mode="fixed_receiver_snr", snr_db_grid=(0.0,),
                         rho_list=(0.0,), methods=("awgn",))
        assert run_sweep(spec)[0]["capacity_bpshz"] == pytest.approx(1.0, rel=1e-12)

    def test_row_ordering(self):
        spec = SweepSpec(mode="fixed_receiver_snr", snr_db_grid=(0.0, 10.0),
                         rho_list=(0.5, 0.0), methods=("awgn", "quadrature"))
        rows = run_sweep(spec)
        keys = [(r["rho"], r["snr_db"], r["method"]) for r in rows]
        assert keys == sorted(keys)

    def test_threads_do_not_change_results(self):
        spec = SweepSpec(mode="fixed_power_budget", snr_db_grid=(0.0, 10.0),
                         rho_list=(0.0, 0.5), methods=("quadrature", "mc"),
                         mc=McConfig(n_samples=20_000, seed=5, n_batches=100))
        serial = run_sweep(spec, threads=1)
        parallel = run_sweep(spec, threads=4)
        assert serial == parallel

    def test_budget_mode_gamma_bar_column(self):
        spec = SweepSpec(mode="fixed_power_budget", snr_db_grid=(10.0,),
                         rho_list=(1.0,), methods=("asymptotic_low",))
        row = run_sweep(spec)[0]
        assert row["gamma_bar_linear"] == pytest.approx(20.0, rel=1e-12)


class TestCliEndToEnd:
    def test_csv_schema_and_digits(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "0",
                     "--rho", "0", "--method", "quadrature",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == CSV_HEADER
        val = data[1].split(",")[5]
        assert val == "0.739176891"  # 9 significant digits

    def test_negative_snr_range_readme_example(self, tmp_path):
        # "--snr-db -10:40:10" would parse as a flag; the "=" form is required
        out = tmp_path / "s.csv"
        assert main(["sweep", "--mode", "fixed_receiver_snr", "--snr-db=-10:40:10",
                     "--rho", "0,0.5,0.9", "--method", "series,quadrature",
                     "--out", str(out)]) == 0
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(rows) == 1 + 6 * 3 * 2

    def test_stdout_when_no_out_flag(self, capsys):
        assert main(["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "0",
                     "--rho", "0", "--method", "awgn"]) == 0
        captured = capsys.readouterr().out
        assert CSV_HEADER in captured

    def test_json_format(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "0,10",
                     "--rho", "0", "--method", "awgn", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["mode"] == "fixed_receiver_snr"
        assert len(payload["rows"]) == 2

    def test_json_rows_stay_valid_json(self):
        # RFC 8259 has no Infinity or NaN: non-finite numbers become strings
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        rows = [{"capacity_bpshz": math.inf, "error_bound": math.nan,
                 "gamma_bar_linear": -math.inf, "rho": np.float64(0.1234567891234)}]
        row = json.loads(cli.render_json(rows, {}), parse_constant=reject)["rows"][0]
        assert row == {"capacity_bpshz": "inf", "error_bound": "nan",
                       "gamma_bar_linear": "-inf", "rho": 0.123456789}

    def test_tol_sets_the_quadrature_tolerance(self, capsys):
        assert main(["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "10",
                     "--rho", "0.5", "--method", "quadrature", "--tol", "1e-12"]) == 0
        out = capsys.readouterr().out
        assert "# rel_tol=1e-12\n" in out
        assert ",levels=5;nodes=383;" in out

    def test_tol_zero_exit_1(self, capsys):
        assert main(["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "10",
                     "--rho", "0.5", "--method", "quadrature", "--tol", "0"]) == 1
        assert capsys.readouterr().err == "bscap: rel_tol must be strictly positive\n"

    def test_unbounded_range_exit_1(self, capsys):
        # np.arange raised "Maximum allowed size exceeded" through main
        assert main(["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "0:10:1e-300",
                     "--rho", "0", "--method", "awgn"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "bscap: start:stop:step '0:10:1e-300': at most 1000000 points allowed\n"

    @pytest.mark.parametrize("argv", [
        ["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "10", "--rho", "0.5",
         "--method", "quadrature,series"],
        ["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "10", "--rho", "0.5",
         "--method", "mc", "--samples", "20000"],
        ["figure", "--figure", "1", "--samples", "20000"],
    ], ids=["analytic", "mc", "figure"])
    @pytest.mark.parametrize("tol", ["1", "1e30", "inf"])
    def test_tol_from_one_up_exit_1(self, argv, tol, capsys):
        # rejected before any point is evaluated: 1e30 made the series
        # contour negative in length and its capacity negative, inf raised
        assert main(argv + ["--tol", tol]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "bscap: rel_tol must be below 1\n")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "10", "--rho", "0.5",
         "--method", "awgn"],
        ["figure", "--figure", "1", "--samples", "20000"],
    ], ids=["sweep", "figure"])
    @pytest.mark.parametrize("threads", ["0", "-3", "65", "1000000"])
    def test_threads_below_one_exit_1(self, argv, threads, capsys, monkeypatch):
        # also above cli._MAX_THREADS: rejected before any pool is built
        def no_pool(*args, **kwargs):
            raise AssertionError("ThreadPoolExecutor constructed")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
        assert main(argv + ["--threads", threads]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "bscap: --threads must be between 1 and 64\n")

    def test_byte_identical_repeats_with_mc(self, tmp_path):
        args = ["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "0,5",
                "--rho", "0.5", "--method", "mc", "--samples", "20000",
                "--seed", "3", "--batches", "100"]
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert main(args + ["--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_echoed_in_header(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "0",
              "--rho", "0.5", "--method", "mc", "--samples", "20000",
              "--seed", "42", "--out", str(out)])
        assert "# seed=42" in out.read_text()

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--mode", "nonsense", "--snr-db", "0",
                  "--rho", "0", "--method", "awgn"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["mc", "--snr-db", "0", "--rho", "0", "--samples", "20000", "--tol", "1e-3"],
        ["pdf", "--snr-db", "0", "--rho", "0", "--gamma", "1", "--threads", "2"],
    ])
    def test_flags_a_command_ignores_exit_1(self, argv, capsys):
        # --tol and --threads act on sweep and figure only
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_validation_error_exit_1(self, capsys):
        code = main(["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "0",
                     "--rho", "1.5", "--method", "quadrature"])
        assert code == 1
        assert "rho values must lie in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, repeated", [
        (["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "0", "--rho", "0.5,0.5",
          "--method", "quadrature"],
         "point (mode, rho, snr_db, method): ('fixed_receiver_snr', 0.5, 0.0, 'quadrature')"),
        (["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "0", "--rho", "0",
          "--method", "awgn,awgn"],
         "point (mode, rho, snr_db, method): ('fixed_receiver_snr', 0.0, 0.0, 'awgn')"),
        (["mc", "--snr-db", "0,0", "--rho", "0", "--samples", "1000", "--batches", "10"],
         "point (mode, rho, snr_db, method): ('fixed_receiver_snr', 0.0, 0.0, 'mc')"),
        (["pdf", "--snr-db", "0", "--rho", "0,0", "--gamma", "1"], "rho: 0.0"),
        (["pdf", "--snr-db", "0", "--rho", "0", "--gamma", "1,2,1"], "gamma: 1.0"),
    ], ids=["sweep_rho", "sweep_method", "mc_snr", "pdf_rho", "pdf_gamma"])
    def test_repeated_point_exit_1(self, argv, repeated, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"bscap: repeated {repeated}\n")

    @pytest.mark.parametrize("gamma", ["inf", "nan", "0", "-1"])
    def test_pdf_gamma_grid_positive_and_finite(self, gamma, capsys):
        assert main(["pdf", "--snr-db", "0", "--rho", "0", "--gamma", f"1,{gamma}"]) == 1
        assert capsys.readouterr().err == "bscap: gamma grid must be positive and finite\n"

    def test_sweep_rho_one_analytic_exit_0(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--mode", "fixed_power_budget", "--snr-db", "0,20",
                     "--rho", "1", "--method", "quadrature,series",
                     "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert len(rows) == 4
        for snr in ("0", "20"):
            quad, series = (float(r[5]) for r in rows if r[2] == snr)
            assert series == pytest.approx(quad, rel=1e-9)

    def test_sweep_tail_rate_overflow_exit_1(self, tmp_path, capsys):
        # -3100 dB is gamma_bar = 1e-310, whose tail rate overflows
        out = tmp_path / "s.csv"
        assert main(["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "-3100",
                     "--rho", "0.5", "--method", "quadrature,series",
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert "gamma_bar" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "3100", "--rho", "0",
         "--method", "awgn"],
        ["mc", "--snr-db", "3100", "--rho", "0", "--samples", "1000", "--batches", "10"],
        ["pdf", "--snr-db", "3100", "--rho", "0", "--gamma", "1"],
        "config"], ids=["sweep", "mc", "pdf", "config"])
    def test_snr_past_the_double_range_exit_1(self, argv, tmp_path, capsys):
        # 10^310 overflows a double: one bscap line, not a traceback
        if argv == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"mode": "fixed_receiver_snr", "snr_db_grid": [0, 3100],'
                           ' "rho_list": [0], "methods": ["awgn"]}')
            argv = ["sweep", "--config", str(cfg)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bscap:") and len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_convergence_error_exit_2(self, monkeypatch, tmp_path, capsys):
        def boom(*a, **k):
            raise ConvergenceError("no convergence", {
                "snr_db": 0.0, "nodes": np.int64(64), "z": np.float64(0.5),
                "last_delta": math.inf, "tail": math.nan})

        monkeypatch.setattr(cli, "capacity_quadrature", boom)
        out = tmp_path / "x.csv"
        code = main(["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "0",
                     "--rho", "0", "--method", "quadrature", "--out", str(out)])
        assert code == 2
        assert not out.exists()  # partial output never written
        message, diagnostics = capsys.readouterr().err.splitlines()
        assert message == "bscap: numerical failure: no convergence"
        assert diagnostics == ('{"last_delta": "inf", "nodes": 64, "snr_db": 0.0, '
                               '"tail": "nan", "z": 0.5}')
        assert json.loads(diagnostics)["nodes"] == 64

    def test_mc_past_the_double_range_exit_2(self, capsys):
        code = main(["mc", "--snr-db", "3070", "--rho", "0", "--samples", "10000",
                     "--batches", "10"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "bscap: numerical failure: Monte Carlo sum is not finite",
            '{"gamma_bar": 1e+307, "rho": 0.0, "seed": 12345}']

    def test_mc_out_of_memory_exit_1(self, monkeypatch, capsys):
        # the batch rows' allocation fails as numpy's does for 1e12 samples;
        # a real request that size can succeed under memory overcommit and
        # then get the process killed
        def no_room(*args, **kwargs):
            raise MemoryError("Unable to allocate 21.8 TiB for an array with "
                              "shape (2, 3, 500000000000) and data type float64")

        fake_np = types.ModuleType("numpy")
        fake_np.__dict__.update(vars(np))
        fake_np.empty = no_room
        monkeypatch.setattr(monte_carlo, "np", fake_np)
        code = main(["mc", "--snr-db", "10", "--rho", "0.5",
                     "--samples", "1000000000000", "--batches", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "bscap: out of memory: Unable to allocate 21.8 TiB for an array with "
            "shape (2, 3, 500000000000) and data type float64; "
            "lower --samples or raise --batches"]

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = {"mode": "fixed_receiver_snr", "snr_db_grid": [0.0],
               "rho_list": [0.5], "methods": ["awgn"], "output_format": "csv"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg_path), "--rho", "0",
                     "--out", str(out)]) == 0
        body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert body[1].split(",")[1] == "0"  # flag beat the config

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_signed_zero_prints_as_zero(self, tmp_path, fmt):
        # -0 names the point 0 (--rho 0,-0 is a repeat): flags and config
        # files give the bytes of 0
        def sweep(name, snr, rho, config=False):
            out = tmp_path / f"{name}.{fmt}"
            if config:
                cfg = tmp_path / f"{name}.json"
                cfg.write_text(f'{{"mode": "fixed_receiver_snr", "snr_db_grid": [{snr}],'
                               f' "rho_list": [{rho}], "methods": ["quadrature", "series"]}}')
                argv = ["sweep", "--config", str(cfg)]
            else:
                argv = ["sweep", "--mode", "fixed_receiver_snr", f"--snr-db={snr}",
                        f"--rho={rho}", "--method", "quadrature,series"]
            assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
            return out.read_bytes()

        zero = sweep("zero", "0", "0")
        assert sweep("flags", "-0", "-0") == zero
        assert sweep("range", "-0:0:1", "-0.0") == zero
        assert sweep("config", "-0.0", "-0.0", config=True) == zero
        assert sweep("config_zero", "0.0", "0.0", config=True) == zero

    def test_pdf_signed_zero_prints_as_zero(self, tmp_path):
        out = {}
        for name, value in (("zero", "0"), ("negative", "-0")):
            path = tmp_path / f"{name}.csv"
            assert main(["pdf", f"--snr-db={value}", f"--rho={value}", "--gamma", "1",
                         "--out", str(path)]) == 0
            out[name] = path.read_bytes()
        assert out["negative"] == out["zero"]
        assert out["zero"].splitlines()[-1].startswith(b"0,0,")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        for cfg, message in (({"snr_grid": [0]}, "unknown config keys"),
                             ({"mc": {"samples": 10}}, "unknown mc config keys")):
            cfg_path.write_text(json.dumps({"mode": "fixed_receiver_snr", **cfg}))
            assert main(["sweep", "--config", str(cfg_path)]) == 1
            assert message in capsys.readouterr().err

    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        base = {"mode": "fixed_receiver_snr", "snr_db_grid": [0], "rho_list": [0],
                "methods": ["mc"]}
        for cfg, key in (({"mc": {"n_samples": "10"}}, "'n_samples'"),
                         ({"snr_db_grid": ["x"]}, "'snr_db_grid'"),
                         ({"rho_list": 0.5}, "'rho_list'")):
            cfg_path.write_text(json.dumps({**base, **cfg}))
            assert main(["sweep", "--config", str(cfg_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("bscap:") and key in err

    def test_pdf_subcommand(self, tmp_path):
        out = tmp_path / "pdf.csv"
        assert main(["pdf", "--snr-db", "0", "--rho", "0", "--gamma", "1",
                     "--out", str(out)]) == 0
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert data[0] == "rho,snr_db,gamma_bar_linear,gamma,density"
        assert float(data[1].split(",")[4]) == pytest.approx(0.227787745, rel=1e-8)

    def test_pdf_rho_one_exit_0(self, capsys):
        # gamma_bar = 1 at rho = 1: density e^{-sqrt(2 gamma)} / sqrt(2 gamma)
        assert main(["pdf", "--snr-db", "0", "--rho", "1", "--gamma", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == ["# mode=fixed_receiver_snr", "# tool=bscap pdf v0.1.0",
                           cli.PDF_CSV_HEADER]
        assert float(out[3].split(",")[4]) == pytest.approx(math.exp(-2.0) / 2.0,
                                                            rel=1e-8)

    def test_mc_subcommand(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["mc", "--snr-db", "30", "--rho", "0", "--samples", "20000",
                     "--seed", "6", "--out", str(out)]) == 0
        body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        est = float(body[1].split(",")[5])
        assert est == pytest.approx(8.3386, abs=0.1)

    @pytest.mark.parametrize("batches", ["0", "1"])
    def test_mc_too_few_batches_exit_1(self, capsys, batches):
        assert main(["mc", "--snr-db", "0", "--rho", "0", "--samples", "1000",
                     "--batches", batches]) == 1
        assert capsys.readouterr().err.startswith("bscap:")

    def test_mc_moment_subcommand(self, capsys):
        assert main(["mc", "--snr-db", "0", "--rho", "0.5", "--samples", "20000",
                     "--seed", "6", "--moment", "1"]) == 0
        row = [ln for ln in capsys.readouterr().out.splitlines()
               if "mc_moment_1" in ln][0]
        assert float(row.split(",")[5]) == pytest.approx(1.0, abs=0.05)

    def test_mc_body_equals_sweep_mc_body(self, capsys):
        # bscap mc and bscap sweep --method mc share one row path
        points = ["--mode", "fixed_receiver_snr", "--snr-db", "0,10", "--rho", "0,1",
                  "--samples", "20000", "--seed", "6"]
        bodies = []
        for argv in (["mc", *points], ["sweep", *points, "--method", "mc"]):
            assert main(argv) == 0
            bodies.append([ln for ln in capsys.readouterr().out.splitlines()
                           if not ln.startswith("#")])
        assert len(bodies[0]) == 1 + 4
        assert bodies[0] == bodies[1]

    def test_mc_moment_row_diagnostics(self, capsys):
        assert main(["mc", "--snr-db", "0", "--rho", "0.5", "--samples", "20000",
                     "--seed", "6", "--moment", "2"]) == 0
        body = [ln.split(",") for ln in capsys.readouterr().out.splitlines()
                if not ln.startswith("#")][1:]
        assert [r[4] for r in body] == ["mc_moment_2"]
        assert body[0][7] == "n_batches=100;n_samples=20000;seed=6"


class TestValidate:
    def test_fast_suite_exit_0(self, capsys):
        assert main(["validate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        assert all(ln.startswith("PASS ") for ln in lines[:-1])
        assert lines[-1] == "7/7 checks passed"

    def test_full_suite_failure_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr(validation, "FULL_SUITE", (
            ("1", lambda: validation.CheckResult("ok", True, "fine")),
            ("4b", lambda: validation.CheckResult("gap", False, "off by 3"))))
        assert main(["validate", "--suite", "full"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "PASS criterion_1_ok: fine",
            "FAIL criterion_4b_gap: off by 3",
            "1/2 checks passed",
        ]


SMALL_MC = McConfig(n_samples=200_000, seed=12345, n_batches=100)
_SMALL_MC_ROWS = {}


def _small_mc_rows(fig):
    """Serial figure_dataset(fig, mc_config=SMALL_MC), built once per figure
    id; each call gets fresh row dicts."""
    if fig not in _SMALL_MC_ROWS:
        _SMALL_MC_ROWS[fig] = figure_dataset(fig, mc_config=SMALL_MC)
    return [dict(r) for r in _SMALL_MC_ROWS[fig]]


class TestFigureDatasets:
    def test_fixed_receiver_structure(self):
        rows = _small_mc_rows("fig_fixed_receiver")
        methods = {r["method"] for r in rows}
        assert methods == {"quadrature", "asymptotic_high", "mc", "awgn", "rayleigh"}
        snrs = sorted({r["snr_db"] for r in rows})
        assert snrs[0] == -10.0 and snrs[-1] == 40.0
        mc_snrs = {r["snr_db"] for r in rows if r["method"] == "mc"}
        assert all(s % 5 == 0 for s in mc_snrs)
        rhos = {r["rho"] for r in rows if r["method"] == "quadrature"}
        assert rhos == {0.0, 0.3, 0.6, 0.9}

    def test_fixed_receiver_correlation_loss_at_40db(self):
        rows = _small_mc_rows("fig_fixed_receiver")
        quad40 = {r["rho"]: r["capacity_bpshz"] for r in rows
                  if r["method"] == "quadrature" and r["snr_db"] == 40.0}
        assert abs((quad40[0.0] - quad40[0.9]) - math.log2(1.9)) <= 0.05

    def test_fixed_budget_collapse_at_40db(self, golden_figure):
        _, rows = golden_figure("2")  # default 1e6-sample MC
        at40 = [r["capacity_bpshz"] for r in rows
                if r["snr_db"] == 40.0 and r["method"] in ("quadrature", "mc")]
        assert max(at40) - min(at40) <= 0.05

    def test_fixed_budget_rho_one_served_by_mc(self):
        rows = _small_mc_rows("fig_fixed_budget")
        rho1_methods = {r["method"] for r in rows if r["rho"] == 1.0}
        assert rho1_methods == {"mc"}
        full_grid = {r["snr_db"] for r in rows
                     if r["rho"] == 1.0 and r["method"] == "mc"}
        assert len(full_grid) == 26

    def test_awgn_normalised_ratios(self, golden_figure):
        _, rows = golden_figure("3")
        assert all("capacity_over_awgn" in r for r in rows)
        at_m30 = {(r["rho"], r["method"]): r for r in rows if r["snr_db"] == -30.0}
        assert at_m30[(1.0, "mc")]["capacity_over_awgn"] == \
            pytest.approx(2.0, rel=0.05)
        assert at_m30[(0.5, "quadrature")]["capacity_over_awgn"] == \
            pytest.approx(1.5, rel=0.05)
        # normalized capacity exceeds 1 where correlation helps
        assert at_m30[(1.0, "mc")]["capacity_over_awgn"] > 1.0
        assert at_m30[(0.5, "quadrature")]["capacity_over_awgn"] > 1.0
        # low-SNR limit column approaches (1+rho)
        assert at_m30[(1.0, "mc")]["low_snr_limit_over_awgn"] == \
            pytest.approx(2.0, rel=0.01)

    def test_figure_flag_mapping(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["figure", "--figure", "3", "--samples", "20000",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "# figure=fig_awgn_normalised" in text
        header = [ln for ln in text.splitlines() if ln.startswith("mode,")][0]
        assert header.startswith(CSV_HEADER)
        assert header.endswith("capacity_over_awgn,low_snr_limit_over_awgn")

    @pytest.mark.parametrize("fig", cli.FIGURE_IDS)
    def test_threads_do_not_change_rows(self, fig):
        assert figure_dataset(fig, mc_config=SMALL_MC, threads=2) == _small_mc_rows(fig)

    def test_unknown_figure_rejected(self):
        with pytest.raises(ConfigError):
            figure_dataset("fig_nonexistent")
