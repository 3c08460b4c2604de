"""The ``tuning`` scenario kind and the ``repro tune`` CLI shell."""

from __future__ import annotations

import json

import pytest

from repro.api import Runner, Scenario, ScenarioError, TuningScenario
from repro.api.scenario import SCENARIO_KINDS
from repro.cli import main
from repro.tuning import ParameterSpec

QUICK = dict(request_counts=(100,), replications=1)


class TestTuningScenario:
    def test_kind_is_registered(self):
        assert SCENARIO_KINDS.get("tuning") is TuningScenario

    def test_json_round_trip_is_lossless(self):
        scenario = TuningScenario(
            controller="FLC2",
            parameters=(
                ParameterSpec("mf.Cv.B.1", low=0.5, high=1.5, steps=3),
                ParameterSpec("weight.3", choices=(0.5, 1.0)),
            ),
            strategy="evolutionary",
            objective="final_acceptance",
            direction="minimize",
            request_counts=(10, 50),
            replications=3,
            population=4,
            generations=2,
            max_trials=6,
            seed=99,
            executor="thread",
            workers=2,
        )
        payload = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(payload) == scenario

    def test_parameter_mappings_are_normalized_to_specs(self):
        scenario = TuningScenario(
            parameters=({"target": "weight.1", "choices": [0.5, 1.0]},),
        )
        assert scenario.parameters == (ParameterSpec("weight.1", choices=(0.5, 1.0)),)

    def test_default_space_is_a_two_point_grid(self):
        scenario = TuningScenario()
        assert scenario.controller == "FLC1"
        assert [spec.grid_values() for spec in scenario.parameters] == [(25.0, 35.0)]

    def test_slug_names_the_controller(self):
        assert TuningScenario().slug == "tune-flc1"
        assert TuningScenario(
            controller="examples/controllers/flc2.json",
            parameters=(ParameterSpec("weight.1", choices=(0.5, 1.0)),),
        ).slug == "tune-flc2"

    @pytest.mark.parametrize("kwargs,match", [
        (dict(controller="FLC9"), "FLC1"),
        (dict(controller="missing.json"), "not found"),
        (dict(strategy="annealing"), "strategy"),
        (dict(objective="mean_regret"), "objective"),
        (dict(direction="up"), "direction"),
        (dict(request_counts=()), "request_counts"),
        (dict(replications=0), "replications"),
        (dict(population=0), "population"),
        (dict(generations=0), "generations"),
        (dict(max_trials=0), "max_trials"),
        (dict(workers=2), "workers"),
        (dict(parameters=()), "parameters"),
        (dict(parameters=(ParameterSpec("mf.S.XXL.1", low=0.0, high=1.0),)),
         "XXL"),
    ])
    def test_invalid_scenarios_are_rejected(self, kwargs, match):
        with pytest.raises(ScenarioError, match=match):
            TuningScenario(**kwargs)

    def test_definition_file_controller_resolves(self):
        scenario = TuningScenario(
            controller="examples/controllers/flc2.json",
            parameters=(ParameterSpec("weight.1", choices=(0.5, 1.0)),),
        )
        assert scenario.base_definition().name == "FLC2"

    def test_runner_executes_the_scenario(self):
        report = Runner().run(TuningScenario(**QUICK))
        assert report.metrics["type"] == "tuning"
        assert report.metrics["trial_count"] == 2
        assert "Rule-base tuning" in report.text

    def test_run_report_save_round_trips(self, tmp_path):
        report = Runner().run(TuningScenario(**QUICK))
        saved = report.save(tmp_path)
        payload = json.loads(saved.read_text())
        assert Scenario.from_dict(payload["scenario"]) == report.scenario


class TestTuneCommand:
    def test_tune_default_space_smoke(self, capsys):
        assert main(["tune", "--requests", "100", "--replications", "1"]) == 0
        out = capsys.readouterr().out
        assert "Rule-base tuning — FLC1" in out
        assert "mf.S.M.1" in out

    def test_tune_json_format_emits_the_run_report(self, capsys):
        assert main([
            "tune", "--requests", "100", "--replications", "1",
            "--parameter", "weight.1=0.5,1.0",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["kind"] == "tuning"
        assert payload["metrics"]["type"] == "tuning"
        assert payload["scenario"]["parameters"] == [
            {"target": "weight.1", "choices": [0.5, 1.0]}
        ]

    def test_tune_bounded_parameter_syntax(self, capsys):
        assert main([
            "tune", "--requests", "100", "--replications", "1",
            "--parameter", "mf.S.M.1=20:40:3",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["trial_count"] == 3

    def test_tune_config_runs_the_example_scenario(self, capsys):
        assert main([
            "tune", "--config", "examples/scenarios/tuning-quick.json",
        ]) == 0
        assert "Rule-base tuning" in capsys.readouterr().out

    def test_tune_config_rejects_shaping_flags(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "tune", "--config", "examples/scenarios/tuning-quick.json",
                "--strategy", "evolutionary",
            ])
        assert "--strategy" in capsys.readouterr().err

    def test_tune_config_rejects_other_scenario_kinds(self, capsys):
        with pytest.raises(SystemExit):
            main(["tune", "--config", "examples/scenarios/fig7-quick.json"])
        assert "tuning" in capsys.readouterr().err

    def test_tune_rejects_bad_parameter_syntax(self, capsys):
        with pytest.raises(SystemExit):
            main(["tune", "--parameter", "mf.S.M.1"])
        assert "TARGET=" in capsys.readouterr().err

    def test_tune_rejects_non_finite_bounds_as_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "tune", "--controller", "FLC1", "--parameter", "mf.S.M.2=60:inf:3",
                "--strategy", "grid", "--requests", "20", "--replications", "1",
            ])
        assert excinfo.value.code == 2
        assert "bounds must be finite" in capsys.readouterr().err

    def test_tune_reports_unknown_targets_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "tune", "--parameter", "mf.S.XXL.1=0:1",
                "--requests", "100", "--replications", "1",
            ])
        assert "XXL" in capsys.readouterr().err

    def test_tune_workers_require_a_pool_executor(self, capsys):
        with pytest.raises(SystemExit):
            main(["tune", "--workers", "2"])
        assert "--workers" in capsys.readouterr().err
