"""Command line interface: config handling and subcommand smoke runs."""

import json
import warnings

import numpy as np
import pytest

from sparseland import __version__, cli, experiment, shrinkage
from sparseland.cli import main, parse_config_file
from sparseland.errors import ParameterError
from sparseland.experiment import DEFAULT_CASES, ExperimentConfig
from sparseland.gridio import read_grid, read_trace_csv, write_grid
from sparseland.operators import Convolution2DOperator
from sparseland.solver import SolverConfig
from sparseland.transforms import WaveletSpec, idwt_array


class TestConfigFile:
    def test_parse_key_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\n p = 1.5 \nmu=0.01\n")
        assert parse_config_file(cfg) == {"p": "1.5", "mu": "0.01"}

    def test_bad_line_reports_location(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=1\njust words\n")
        with pytest.raises(ParameterError, match="2"):
            parse_config_file(cfg)

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilonn=0.1\n")
        code = main(["bounds", "--config", str(cfg), "--epsilon", "0.1",
                     "--rho", "1.0"])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_malformed_value_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon=0.1\nrho=1.0\nmu=abc\n")
        assert main(["bounds", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "'mu'" in err and str(cfg) in err

    def test_flag_beats_config_beats_default(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon=0.25\nrho=1.0\n")
        assert main(["bounds", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "epsilon=0.25" in out
        assert "p=1" in out  # built-in default survives
        assert main(["bounds", "--config", str(cfg), "--epsilon", "0.5"]) == 0
        assert "epsilon=0.5" in capsys.readouterr().out

    def test_misspelled_choice_exits_2(self, tmp_path, capsys):
        # the flag's choice check applies to the config entry too
        data = tmp_path / "data.grid"
        write_grid(data, np.ones((8, 8)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("operator=diagnoal\n")
        code = main(["solve", "--config", str(cfg), "--data", str(data), "--mu", "0.1",
                     "--iterations", "2", "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'operator'" in err and str(cfg) in err
        assert "expected one of diagonal, dense, convolution" in err


class TestConfigNotUtf8:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"p=\xff\n")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}: not UTF-8 text" in err
        assert "Traceback" not in err


# (subcommand, options as key: config text, the unread option, what rules it out)
UNREAD = {
    "operator-file-with-convolution": (
        "solve", {"operator": "convolution", "operator_file": "op.txt"},
        "--operator-file", "--operator convolution"),
    "radius-with-diagonal": (
        "solve", {"operator": "diagonal", "operator_file": "op.txt", "radius_fraction": "0.3"},
        "--radius-fraction", "--operator diagonal"),
    "pad-with-dense": (
        "solve", {"operator": "dense", "operator_file": "op.txt", "pad": "16"},
        "--pad", "--operator dense"),
    "besov-with-weights": (
        "solve", {"operator": "diagonal", "operator_file": "op.txt", "weights": "w.txt",
                  "besov_s": "1"},
        "--besov-s", "--weights"),
    "besov-with-weights-in-wavelet-mode": (
        "solve", {"operator": "diagonal", "operator_file": "op.txt", "weights": "w.txt",
                  "besov_s": "1", "wavelet": "haar:1"},
        "--besov-s", "--weights"),
    "cases-with-custom-case": (
        "experiment", {"p": "1.5", "mu": "0.01", "cases": "l2"}, "--cases", "--p and --mu"),
    "projection-without-custom-case": (
        "experiment", {"project_nonnegative": "yes"},
        "--project-nonnegative", "without --p and --mu"),
}


class TestUnreadOptions:
    """An option the chosen mode never reads exits 2, as a flag or a config entry."""

    @pytest.mark.parametrize("given", ["flags", "config"])
    @pytest.mark.parametrize("case", sorted(UNREAD))
    def test_exits_2_naming_both_options(self, tmp_path, capsys, case, given):
        command, options, unread, rule = UNREAD[case]
        for name in ("op.txt", "w.txt", "data.txt"):
            (tmp_path / name).write_text("0.5 0.5\n0.5 0.5\n")
        options = {key: str(tmp_path / text) if text.endswith(".txt") else text
                   for key, text in options.items()}
        argv = [command, "--output-dir", str(tmp_path / "o")]
        if command == "solve":
            argv += ["--data", str(tmp_path / "data.txt"), "--mu", "0.1"]
        if given == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{key}={text}\n" for key, text in options.items()))
            argv += ["--config", str(cfg)]
        else:
            for key, text in options.items():
                argv.append("--" + key.replace("_", "-"))
                if key != "project_nonnegative":
                    argv.append(text)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {unread} is not read" in err and rule in err
        assert not (tmp_path / "o").exists()


# (subcommand, key, converter) for every option row of every subcommand
OPTION_ROWS = [(command, key, convert)
               for command, (_, _, rows) in cli._COMMANDS.items()
               for key, convert, _ in rows]
# converter -> (a valid value, a malformed value); str options take any text
SAMPLES = {float: ("0.25", "abc"), int: ("3", "2.5"),
           cli._operator_kind: ("dense", "diagnoal"), cli._parse_bool: ("yes", "maybe")}


def merged_options(argv):
    args = cli._build_parser().parse_args(argv)
    return cli._merge(args, cli._COMMANDS[args.command][2])


class TestOptionTables:
    @pytest.mark.parametrize("command, key, convert",
                             [row for row in OPTION_ROWS if row[2] is not str])
    def test_malformed_value_exits_2_naming_the_key(self, tmp_path, capsys,
                                                    command, key, convert):
        bad = SAMPLES[convert][1]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={bad}\n")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err and str(cfg) in err
        if convert is cli._parse_bool:
            return  # an on/off flag takes no value
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main([command, flag, bad])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, convert", OPTION_ROWS)
    def test_flag_and_config_entry_parse_alike(self, tmp_path, command, key, convert):
        good = SAMPLES.get(convert, ("some text",))[0]
        flag = "--" + key.replace("_", "-")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={good}\n")
        from_config = merged_options([command, "--config", str(cfg)])
        from_flag = merged_options([command, flag] if convert is cli._parse_bool
                                   else [command, flag, good])
        assert from_flag == from_config == {key: convert(good)}
        assert type(from_flag[key]) is type(from_config[key])

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_options_given_neither_way_are_absent(self, command):
        assert merged_options([command]) == {}


class Captured(Exception):
    pass


class TestLibraryDefaults:
    """With no tuning option the CLI builds the library's default configs."""

    def test_solve_builds_the_default_solver_config(self, tmp_path, monkeypatch):
        seen = {}

        def fake_solve(g, K, spec, config):
            seen.update(K=K, spec=spec, config=config)
            raise Captured

        monkeypatch.setattr(cli, "solve", fake_solve)
        data = tmp_path / "data.grid"
        write_grid(data, np.ones((8, 8)))
        with pytest.raises(Captured):
            main(["solve", "--operator", "convolution", "--data", str(data),
                  "--mu", "0.1", "--output-dir", str(tmp_path / "o")])
        assert seen["config"] == SolverConfig()
        default = Convolution2DOperator((8, 8), (16, 16))
        assert seen["K"].radius_fraction == default.radius_fraction
        assert seen["K"].pad == (16, 16)  # twice the larger data side
        assert seen["spec"].p == 1.0 and seen["spec"].mu == 0.1

    def test_experiment_builds_the_default_experiment_config(self, tmp_path,
                                                             monkeypatch):
        seen = []

        def fake_run(config):
            seen.append(config)
            raise Captured

        # the experiment subcommand imports run_experiment when it runs
        monkeypatch.setattr(experiment, "run_experiment", fake_run)
        out = str(tmp_path / "o")
        with pytest.raises(Captured):
            main(["experiment", "--output-dir", out])
        assert seen == [ExperimentConfig(output_dir=out)]


class TestBounds:
    def test_balanced_schedule_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.txt"
        code = main(["bounds", "--epsilon", "0.1", "--rho", "2.0",
                     "--p", "1.0", "--output", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mu=0.005" in out
        assert f"eps_primed={np.sqrt(2.0) * 0.1:.12g}" in out
        assert "rho_primed=4" in out
        assert report_path.read_text().strip() == out.strip()

    def test_envelope_and_rate_sections(self, capsys, tmp_path):
        env = tmp_path / "env.txt"
        np.savetxt(env, np.column_stack([[0.25], [0.25], [1.0]]))
        code = main(["bounds", "--epsilon", "0.1", "--rho", "2.0",
                     "--envelope-file", str(env),
                     "--alpha", "1.0", "--sigma", "1.0",
                     "--a-lower", "1.0", "--a-upper", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "modulus_lower=0.2" in out
        assert "modulus_upper=0.2" in out
        assert "rate_lower=" in out and "rate_upper=" in out

    def test_unparseable_envelope_file(self, capsys, tmp_path):
        env = tmp_path / "env.txt"
        env.write_text("0.25 0.25 1.0\n0.5 oops 1.0\n")
        code = main(["bounds", "--epsilon", "0.1", "--rho", "2.0",
                     "--envelope-file", str(env)])
        assert code == 2
        assert str(env) in capsys.readouterr().err

    def test_envelope_file_needs_three_columns(self, capsys, tmp_path):
        env = tmp_path / "env.txt"
        np.savetxt(env, np.column_stack([[0.25], [0.25]]))
        code = main(["bounds", "--epsilon", "0.1", "--rho", "2.0",
                     "--envelope-file", str(env)])
        assert code == 2
        assert "three columns" in capsys.readouterr().err

    def test_partial_rate_options_rejected(self, capsys):
        code = main(["bounds", "--epsilon", "0.1", "--rho", "1.0",
                     "--alpha", "1.0"])
        assert code == 2
        assert "--sigma" in capsys.readouterr().err

    def test_missing_required_options(self, capsys):
        assert main(["bounds", "--epsilon", "0.1"]) == 2
        assert "--rho" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        # rho^p underflows to zero
        (["--epsilon", "0.1", "--rho", "1e-200", "--p", "2"], "mu"),
        # epsilon^2 overflows
        (["--epsilon", "1e200", "--rho", "1", "--p", "2"], "mu"),
        # epsilon^2 / mu overflows
        (["--epsilon", "0.1", "--rho", "1", "--p", "1.5", "--mu", "1e-320"], "rho_primed"),
    ])
    def test_result_out_of_float_range_exits_2(self, capsys, argv, message):
        assert main(["bounds", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "finite" in captured.err


class TestSolve:
    def _write_inputs(self, tmp_path, entries="0.9 0.5"):
        op = tmp_path / "op.txt"
        op.write_text(entries + "\n")
        data = tmp_path / "data.txt"
        data.write_text("1.0 1.0\n")
        return op, data

    def test_diagonal_solve_reaches_the_minimizer(self, tmp_path, capsys):
        op, data = self._write_inputs(tmp_path)
        out = tmp_path / "out"
        code = main(["solve", "--operator", "diagonal",
                     "--operator-file", str(op), "--data", str(data),
                     "--p", "1.0", "--mu", "0.1",
                     "--iterations", "400", "--step-tolerance", "0",
                     "--output-dir", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] in ("converged_step", "max_iterations")
        assert summary["renormalization_scale"] == 1.0
        solution = read_grid(out / "solution.grid")[0]
        # per-component stationarity: f = (sigma g - mu/2) / sigma^2
        expected = [(0.9 - 0.05) / 0.81, (0.5 - 0.05) / 0.25]
        np.testing.assert_allclose(solution, expected, atol=1e-8)
        trace = read_trace_csv(out / "trace.csv")
        assert trace["objective"].size == summary["iterations"] + 1
        assert np.all(np.diff(trace["objective"]) <= 1e-12)

    def test_oversized_operator_is_renormalized(self, tmp_path, capsys):
        op, data = self._write_inputs(tmp_path, entries="1.5 0.5")
        out = tmp_path / "out"
        code = main(["solve", "--operator", "diagonal",
                     "--operator-file", str(op), "--data", str(data),
                     "--p", "1.0", "--mu", "0.1",
                     "--iterations", "400", "--step-tolerance", "0",
                     "--output-dir", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        # the scale is the certified bound over the 0.999 target
        assert summary["renormalization_scale"] == 1.5 / 0.999
        # rescaling double-adjusts the multiplier, so the minimizer is the
        # one for the original problem
        solution = read_grid(out / "solution.grid")[0]
        expected = [(1.5 - 0.05) / 2.25, (0.5 - 0.05) / 0.25]
        np.testing.assert_allclose(solution, expected, atol=1e-8)

    def test_projection_from_config_file(self, tmp_path):
        op, _ = self._write_inputs(tmp_path)
        data = tmp_path / "neg.txt"
        data.write_text("-1.0 1.0\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("project_nonnegative=yes\nmu=0.1\n")
        out = tmp_path / "out"
        code = main(["solve", "--config", str(cfg), "--operator", "diagonal",
                     "--operator-file", str(op), "--data", str(data),
                     "--iterations", "100", "--output-dir", str(out)])
        assert code == 0
        assert read_grid(out / "solution.grid").min() >= 0.0

    def test_projection_off_in_config_file(self, tmp_path):
        op, _ = self._write_inputs(tmp_path)
        data = tmp_path / "neg.txt"
        data.write_text("-1.0 1.0\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("project_nonnegative=off\nmu=0.1\n")
        out = tmp_path / "out"
        code = main(["solve", "--config", str(cfg), "--operator", "diagonal",
                     "--operator-file", str(op), "--data", str(data),
                     "--iterations", "100", "--output-dir", str(out)])
        assert code == 0
        assert read_grid(out / "solution.grid").min() < 0.0

    def test_wavelet_mode_writes_both_grids(self, tmp_path, capsys):
        op = tmp_path / "op.txt"
        op.write_text(" ".join(["0.8"] * 8) + "\n")
        data = tmp_path / "data.txt"
        data.write_text("0 0 1 1 1 1 0 0\n")
        out = tmp_path / "out"
        code = main(["solve", "--operator", "diagonal",
                     "--operator-file", str(op), "--data", str(data),
                     "--wavelet", "haar:2", "--besov-s", "0.5",
                     "--p", "1.5", "--mu", "0.01",
                     "--iterations", "300", "--output-dir", str(out)])
        assert code == 0
        coeffs = read_grid(out / "solution_coefficients.grid")[0]
        pixels = read_grid(out / "solution.grid")[0]
        rebuilt = idwt_array(coeffs, WaveletSpec("haar", 2), (8,))
        np.testing.assert_allclose(pixels, rebuilt, atol=1e-12)

    def test_convolution_operator_on_grid_data(self, tmp_path, capsys):
        data_path = tmp_path / "data.grid"
        rng = np.random.default_rng(3)
        write_grid(data_path, np.abs(rng.normal(size=(8, 8))))
        out = tmp_path / "out"
        code = main(["solve", "--operator", "convolution",
                     "--data", str(data_path), "--mu", "0.001",
                     "--iterations", "50", "--output-dir", str(out)])
        assert code == 0
        assert read_grid(out / "solution.grid").shape == (8, 8)

    @pytest.mark.parametrize("bad", ["operator", "data", "weights"])
    def test_malformed_text_file(self, tmp_path, capsys, bad):
        op, data = self._write_inputs(tmp_path)
        weights = tmp_path / "w.txt"
        weights.write_text("1.0 1.0\n")
        files = {"operator": op, "data": data, "weights": weights}
        files[bad].write_text("abc def\n")
        code = main(["solve", "--operator", "diagonal",
                     "--operator-file", str(op), "--data", str(data),
                     "--weights", str(weights), "--mu", "0.1",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert str(files[bad]) in capsys.readouterr().err

    def test_root_finder_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(shrinkage, "_MAX_ROOT_ITERATIONS", 1)
        op, data = self._write_inputs(tmp_path)
        code = main(["solve", "--operator", "diagonal",
                     "--operator-file", str(op), "--data", str(data),
                     "--p", "1.3", "--mu", "0.1",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "root finder" in capsys.readouterr().err

    def test_bad_wavelet_spec(self, tmp_path, capsys):
        op, data = self._write_inputs(tmp_path)
        code = main(["solve", "--operator", "diagonal",
                     "--operator-file", str(op), "--data", str(data),
                     "--mu", "0.1", "--wavelet", "db2",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "family:levels" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        (["--wavelet", "db2:two"], "wavelet levels must be an integer"),
        (["--besov-s", "0.5"], "--besov-s needs --wavelet"),
        (["--operator", "convolution"], "needs 2-d data"),
    ], ids=["levels", "besov", "convolution"])
    def test_inconsistent_options_exit_2(self, tmp_path, capsys, extra, message):
        op, data = self._write_inputs(tmp_path)
        code = main(["solve", "--operator", "diagonal",
                     "--operator-file", str(op), "--data", str(data),
                     "--mu", "0.1", *extra, "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_missing_operator_file(self, tmp_path, capsys):
        _, data = self._write_inputs(tmp_path)
        code = main(["solve", "--operator", "diagonal", "--data", str(data),
                     "--mu", "0.1", "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "--operator-file" in capsys.readouterr().err
        # a .grid file cut short of its header's rows x cols is reported too
        truncated = tmp_path / "short.grid"
        write_grid(truncated, np.ones((8, 8)))
        truncated.write_bytes(truncated.read_bytes()[:-8])
        code = main(["solve", "--operator", "convolution", "--data", str(truncated),
                     "--mu", "0.1", "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "payload" in capsys.readouterr().err

    def test_cli_line_and_manifest_cases_hold_the_solve_summary(self, tmp_path, capsys,
                                                                monkeypatch):
        # both are JSON round trips of the summary's floats, so they compare with ==
        solved, real_solve = [], cli.solve

        def recording_solve(*args, **kwargs):
            solved.append(real_solve(*args, **kwargs))
            return solved[-1]

        for module in (cli, experiment):
            monkeypatch.setattr(module, "solve", recording_solve)
        op, data = self._write_inputs(tmp_path)
        assert main(["solve", "--operator", "diagonal", "--operator-file", str(op),
                     "--data", str(data), "--p", "1.5", "--mu", "0.1", "--iterations", "50",
                     "--output-dir", str(tmp_path / "solve")]) == 0
        line = json.loads(capsys.readouterr().out)
        (result,) = solved
        summary = result.summary()
        assert list(summary) == ["status", "iterations", "final_objective",
                                 "fixed_point_residual"]
        assert {key: line[key] for key in summary} == summary
        assert main(["experiment", "--grid", "64", "--pad", "128", "--iterations", "5",
                     "--cases", "l1,l2_nonneg", "--output-dir", str(tmp_path / "exp")]) == 0
        manifest = json.loads((tmp_path / "exp" / "manifest.json").read_text())
        cases = manifest["cases"]
        assert list(cases) == ["l1", "l2_nonneg"] and len(solved) == 3
        for name, result in zip(cases, solved[1:]):
            summary = result.summary()
            assert {key: cases[name][key] for key in summary} == summary


class TestEmptyTable:
    @pytest.mark.parametrize("text", ["", "# no numbers here\n"])
    @pytest.mark.parametrize("option", ["--operator-file", "--data", "--weights",
                                        "--envelope-file"])
    def test_exits_2_without_a_warning(self, tmp_path, capsys, option, text):
        empty = tmp_path / "empty.txt"
        empty.write_text(text)
        full = tmp_path / "full.txt"
        full.write_text("0.9 0.5\n")
        if option == "--envelope-file":
            argv = ["bounds", "--epsilon", "0.1", "--rho", "2.0", option, str(empty)]
        else:
            argv = ["solve", "--operator", "diagonal", "--mu", "0.1",
                    "--output-dir", str(tmp_path / "o")]
            for flag in ("--operator-file", "--data", "--weights"):
                argv += [flag, str(empty if flag == option else full)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        assert capsys.readouterr().err == f"error: {empty}: holds no numbers\n"


class TestExperimentCommand:
    def test_cases_help_names_the_default_cases(self):
        # the help is written out, so that the parser need not import experiment
        (text,) = [text for key, _, text in cli._EXPERIMENT_OPTIONS if key == "cases"]
        assert text.rpartition(" ")[2].split(",") == [c.name for c in DEFAULT_CASES]

    def test_small_run_with_selected_cases(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code = main(["experiment", "--grid", "64", "--pad", "128",
                     "--iterations", "5", "--cases", "l1,l2",
                     "--output-dir", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "l1:" in printed and "l2:" in printed
        assert "max expected pixel count" in printed
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["cases"]) == {"l1", "l2"}

    def test_custom_case(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code = main(["experiment", "--grid", "64", "--pad", "128",
                     "--iterations", "5", "--p", "1.5", "--mu", "0.01",
                     "--project-nonnegative", "--output-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["cases"]) == ["custom"]
        assert manifest["cases"]["custom"]["project"] is True

    def test_unknown_case_name(self, tmp_path, capsys):
        code = main(["experiment", "--cases", "l1,bogus",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_output_dir_required(self, capsys):
        assert main(["experiment", "--grid", "64"]) == 2
        assert "--output-dir" in capsys.readouterr().err

    def test_photon_budget_beyond_the_sampler_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["experiment", "--grid", "64", "--pad", "128", "--iterations", "2",
                     "--photons", "1e308", "--output-dir", str(out)])
        assert code == 2
        assert "too large for a Poisson draw" in capsys.readouterr().err
        assert not out.exists()


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit):
            main([])
