import glob
import importlib
import json
import os

import pytest

import basepar
from basepar import scenario as sc
from basepar.cli import main
from basepar.parallel import OptimizerConfig
from basepar.scenario import default_scenario_path, read_runlog

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


SMALL_SCENARIO = """\
schema: scenario/1
seed: 303
steps: 6
ann:
  sample_count: 80
  validation_count: 16
"""


@pytest.fixture
def small_scenario(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(SMALL_SCENARIO)
    return str(path)


def test_the_packaged_entry_point_and_scenario_resolve():
    # what an install of the package needs, read from pyproject.toml without
    # a build: the basepar script names the callable cli.main, and the
    # package data holds the scenario file default_scenario_path() opens
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)
    target = project["project"]["scripts"]["basepar"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main
    package = os.path.dirname(os.path.abspath(basepar.__file__))
    found = project["tool"]["setuptools"]["packages"]["find"]["where"]
    assert package in [os.path.join(ROOT, where, "basepar") for where in found]
    shipped = [os.path.abspath(path) for pattern in
               project["tool"]["setuptools"]["package-data"]["basepar"]
               for path in glob.glob(os.path.join(package, pattern))]
    assert os.path.abspath(default_scenario_path()) in shipped


class TestValidate:
    def test_default_scenario_valid(self, capsys):
        assert main(["validate-scenario"]) == 0
        assert "valid scenario" in capsys.readouterr().out

    def test_broken_scenario_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("gamma: -1\n")
        assert main(["validate-scenario", "--scenario", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "noise: [1]", "control: [1]", "ann: 3", "network: [1]", "network: {cells: [3]}",
        "initial_state: 1", "initial_flows: [1]", "demand: x",
        "demand: {mainstream: 1, onramps: 2}", "[1, 2]",
    ])
    def test_malformed_section_fails_cleanly(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text + "\n")
        assert main(["validate-scenario", "--scenario", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text, field", [
        (f"gamma: {'9' * 400}", "'gamma'"),
        (f"network: {{lanes: {'9' * 400}}}", "'network.lanes'"),
    ], ids=["gamma", "lanes"])
    def test_integer_beyond_float_range_fails_cleanly(self, tmp_path, capsys, text, field):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text + "\n")
        assert main(["validate-scenario", "--scenario", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("text, field", [
        ("ann: {sample_count: 1, validation_count: 5}", "sample_count"),
        ("ann: {validation_count: 0}", "validation_count"),
        ("ann: {params_file: nets.json, validation_count: 500}", "validation_count"),
        ("control: {alinea_gain: .nan}", "alinea_gain"),
    ], ids=["one-sample", "no-validation", "no-training-with-file", "nan-alinea-gain"])
    def test_settings_a_run_rejects_fail_validation(self, tmp_path, capsys, text, field):
        # each of these would pass validation and only fail the run
        bad = tmp_path / "bad.yaml"
        bad.write_text(text + "\n")
        assert main(["validate-scenario", "--scenario", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    def test_unreadable_scenario_fails_cleanly(self, tmp_path, capsys):
        assert main(["validate-scenario", "--scenario", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--controller", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_budget_with_serial_exit_2(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--serial", "--budget-s", "0.1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--budget-s" in err and "--serial" in err
        assert not any(tmp_path.iterdir())

    def test_missing_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_help_lists_every_documented_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--scenario", "--seed", "--budget-s", "--ftol", "--xtol",
                     "--termination", "--out", "--serial", "--steps", "--controller"):
            assert flag in text


class TestRun:
    def test_run_writes_log_and_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "run", "--controller", "alinea", "--serial", "--steps", "12",
            "--out", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "J_total" in text
        log = read_runlog(out / "run_alinea.jsonl")
        assert len(log.records) == 12

    def test_serial_runs_byte_identical(self, tmp_path, small_scenario):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "run", "--controller", "architecture", "--serial", "--seed", "7",
                "--scenario", small_scenario, "--out", str(out),
            ])
            assert code == 0
            outs.append((out / "run_architecture.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_solver_flags_reach_the_solver(self, tmp_path, monkeypatch):
        # the four flags replace the scenario's values; the iteration cap
        # and the difference step are the scenario's
        scenario = tmp_path / "solver.yaml"
        scenario.write_text(SMALL_SCENARIO + "control: {max_iterations: 7, fd_step: 2.0e-6}\n")
        built = []
        build = sc.build_architecture
        monkeypatch.setattr(sc, "build_architecture",
                            lambda *args, **kw: built.append(build(*args, **kw)) or built[-1])
        assert main(["run", "--ftol", "0.0125", "--xtol", "3e-5", "--budget-s", "0.05",
                     "--termination", "all", "--steps", "1", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out")]) == 0
        (arch,) = built
        assert arch.config.optimizer == OptimizerConfig(
            function_tolerance=0.0125, step_tolerance=3e-5, budget_s=0.05, max_iterations=7,
            termination="all", fd_step=2.0e-6)

    def test_a_null_budget_runs_as_serial_mode_does(self, tmp_path, small_scenario):
        # control.budget_s: null is no deadline, which is what --serial sets
        nulled = tmp_path / "no_budget.yaml"
        nulled.write_text(SMALL_SCENARIO + "control: {budget_s: null}\n")
        assert main(["validate-scenario", "--scenario", str(nulled)]) == 0
        logs = []
        for name, flags in (("null", ["--scenario", str(nulled)]),
                            ("serial", ["--scenario", small_scenario, "--serial"])):
            out = tmp_path / name
            assert main(["run", "--controller", "architecture", "--steps", "4",
                         "--out", str(out), *flags]) == 0
            logs.append((out / "run_architecture.jsonl").read_bytes())
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_zero_steps_fail_cleanly(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--serial", "--steps", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "step" in err
        assert not out.exists()

    def test_seed_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BASEPAR_SEED", "99")
        out = tmp_path / "out"
        assert main(["run", "--controller", "alinea", "--serial", "--steps", "2",
                     "--out", str(out)]) == 0
        log = read_runlog(out / "run_alinea.jsonl")
        assert log.seed == 99

    def test_non_integer_seed_variable_fails_cleanly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BASEPAR_SEED", "abc")
        assert main(["run", "--controller", "alinea", "--serial", "--steps", "2",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "BASEPAR_SEED" in err and "'abc'" in err

    @pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-1")])
    def test_negative_seed_fails_at_load(self, tmp_path, monkeypatch, capsys, flag, env):
        if env is not None:
            monkeypatch.setenv("BASEPAR_SEED", env)
        assert main(["run", "--controller", "alinea", "--serial", "--steps", "2",
                     "--out", str(tmp_path), *flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert not list(tmp_path.iterdir())


class TestCompare:
    def test_seven_rows_with_reference_labels(self, tmp_path, small_scenario, capsys):
        out = tmp_path / "cmp"
        code = main([
            "compare", "--serial", "--scenario", small_scenario,
            "--steps", "3", "--out", str(out),
        ])
        assert code == 0
        csv_lines = (out / "comparison.csv").read_text().splitlines()
        rows = [line.split(",")[0] for line in csv_lines[1:]]
        assert rows == [
            "Alinea", "ANN", "CMPC(1)", "CMPC(2)", "PMPC(1)", "PMPC(2)",
            "Base-parallel architecture",
        ]
        stdout = capsys.readouterr().out
        for name in rows:
            assert name in stdout


class TestTrainAnn:
    def test_writes_parameter_file(self, tmp_path, small_scenario, capsys):
        out = tmp_path / "ann"
        assert main(["train-ann", "--scenario", small_scenario, "--out", str(out)]) == 0
        payload = json.loads((out / "ann_params.json").read_text())
        assert payload["schema"] == "gain-net/1"
        assert payload["shape"] == [4, 3, 1]
        assert sorted(payload["cells"]) == ["2", "4", "5"]
        assert "validation RMSE" in capsys.readouterr().out

    def test_saved_parameters_drive_a_run(self, tmp_path, small_scenario):
        out = tmp_path / "ann"
        assert main(["train-ann", "--scenario", small_scenario, "--out", str(out)]) == 0
        file_scenario = tmp_path / "with_params.yaml"
        file_scenario.write_text(
            SMALL_SCENARIO + f"  params_file: {out / 'ann_params.json'}\n"
        )
        run_out = tmp_path / "run"
        code = main(["run", "--controller", "ann", "--serial",
                     "--scenario", str(file_scenario), "--out", str(run_out)])
        assert code == 0
        trained_out = tmp_path / "run2"
        code = main(["run", "--controller", "ann", "--serial",
                     "--scenario", small_scenario, "--out", str(trained_out)])
        assert code == 0
        # loading the saved file reproduces the freshly-trained behaviour
        a = (run_out / "run_ann.jsonl").read_bytes()
        b = (trained_out / "run_ann.jsonl").read_bytes()
        assert a == b

    def test_a_relative_parameter_file_is_read_beside_its_scenario(
            self, tmp_path, small_scenario, monkeypatch):
        # the scenario pf/s.yaml names its parameter file relative to its
        # own directory, and the run starts from the directory above it
        assert main(["train-ann", "--scenario", small_scenario, "--out",
                     str(tmp_path / "pf")]) == 0
        (tmp_path / "pf" / "s.yaml").write_text(SMALL_SCENARIO + "  params_file: ann_params.json\n")
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--controller", "ann", "--serial", "--scenario", "pf/s.yaml",
                     "--out", "run"])
        assert code == 0
        assert (tmp_path / "run" / "run_ann.jsonl").exists()


class TestMalformedParameterFile:
    @pytest.mark.parametrize("cells, named", [
        ('{"2": {"activation": "tanh"}}', "cell 2: missing field 'hidden_weights'"),
        ('{"2": [1]}', "cell 2 must be a mapping"),
        (None, "parameter file must hold a JSON object"),
    ], ids=["missing-field", "list-cell", "list-payload"])
    def test_run_fails_cleanly(self, tmp_path, capsys, cells, named):
        params = tmp_path / "nets.json"
        params.write_text("[1]" if cells is None else
                          '{"schema": "gain-net/1", "shape": [4, 3, 1], "cells": %s}' % cells)
        scenario = tmp_path / "with_params.yaml"
        scenario.write_text(SMALL_SCENARIO + f"  params_file: {params}\n")
        code = main(["run", "--controller", "ann", "--serial", "--scenario", str(scenario),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


class TestEmitPlots:
    def test_emit_from_run_log(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--controller", "alinea", "--serial", "--steps", "5",
              "--out", str(out)])
        plots = tmp_path / "plots"
        code = main(["emit-plots", str(out / "run_alinea.jsonl"), "--out", str(plots)])
        assert code == 0
        assert (plots / "demands.csv").exists()
        assert (plots / "winners.csv").exists()

    def test_missing_log_fails(self, tmp_path):
        assert main(["emit-plots", str(tmp_path / "none.jsonl")]) == 1

    @pytest.mark.parametrize("edit, named", [
        (lambda lines: ["5"] + lines[1:], "missing header"),
        (lambda lines: [_without(lines[0], None, "scenario")] + lines[1:],
         "line 1: missing required field 'header.scenario'"),
        (lambda lines: [lines[0], _without(lines[1], "record", "winner")] + lines[2:],
         "line 2: missing required field 'record.winner'"),
        (lambda lines: lines[:3] + [_without(lines[3], "summary", "n_total")],
         "line 4: missing required field 'summary.n_total'"),
        (lambda lines: [lines[0], _with(lines[1], "record", "extra")] + lines[2:],
         "line 2: unknown field(s) 'record.extra'"),
        (lambda lines: [_with(lines[0], None, "extra")] + lines[1:],
         "line 1: unknown field(s) 'header.extra'"),
        (lambda lines: lines[:2] + ["[1]"] + lines[3:],
         "line 3: expected a 'record' or a 'summary' entry"),
        (lambda lines: lines[:2] + ['{"record": 5}'] + lines[3:],
         "line 3: field 'record' must be a mapping"),
        (lambda lines: lines[:2] + ["{"] + lines[3:], "line 3: not JSON"),
        (lambda lines: [lines[0], _with(lines[1], "record", "n", 5)] + lines[2:],
         "line 2: field 'record.n' must be a list, got 5"),
        (lambda lines: [lines[0], _with(lines[1], "record", "step", True)] + lines[2:],
         "line 2: field 'record.step' must be an integer, got True"),
        (lambda lines: lines[:2] + [_with(lines[2], "record", "winner", 3)] + lines[3:],
         "line 3: field 'record.winner' must be a string, got 3"),
        (lambda lines: lines[:2] + [_with(lines[2], "record", "applied", [1.0, "x", 1.0])]
         + lines[3:], "line 3: field 'record.applied[1]' must be a number, got 'x'"),
        (lambda lines: lines[:3] + [_with(lines[3], "summary", "win_counts", [["ALINEA", 1.5]])],
         "line 4: field 'summary.win_counts[0][1]' must be an integer, got 1.5"),
        (lambda lines: [_with(lines[0], None, "lanes", "2")] + lines[1:],
         "line 1: field 'header.lanes' must be an integer, got '2'"),
    ], ids=["number-header", "header-field-missing", "record-field-missing",
            "summary-field-missing", "record-field-unknown", "header-field-unknown",
            "list-line", "number-record", "not-json", "number-for-list", "bool-for-integer",
            "number-for-string", "string-in-list", "float-for-integer", "string-header"])
    def test_malformed_log_fails_cleanly(self, tmp_path, capsys, edit, named):
        out = tmp_path / "out"
        main(["run", "--controller", "alinea", "--serial", "--steps", "2", "--out", str(out)])
        lines = (out / "run_alinea.jsonl").read_text().splitlines()
        assert len(lines) == 4  # header, two records, summary
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(edit(lines)) + "\n")
        capsys.readouterr()
        assert main(["emit-plots", str(bad), "--out", str(tmp_path / "plots")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


def _without(line: str, entry, name: str) -> str:
    payload = json.loads(line)
    del (payload[entry] if entry else payload)[name]
    return json.dumps(payload)


def _with(line: str, entry, name: str, value=1) -> str:
    payload = json.loads(line)
    (payload[entry] if entry else payload)[name] = value
    return json.dumps(payload)
