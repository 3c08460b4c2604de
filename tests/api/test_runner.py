"""Runner facade tests: every scenario kind executes and reports round-trip."""

from __future__ import annotations

import json

import pytest

from repro.analysis.io import (
    network_sweep_result_from_dict,
    sweep_result_from_dict,
)
from repro.api import (
    AblationScenario,
    ArtifactScenario,
    FigureSweepScenario,
    NetworkIntegrationScenario,
    NetworkSweepScenario,
    Runner,
    RunReport,
    Scenario,
    ScenarioError,
    SurfaceScenario,
    run,
    scenario_for,
)
from repro.cac.facs.system import FACSConfig
from repro.experiments import (
    render_figure7,
    render_flc2_surface,
    reproduce_figure7,
)


class TestArtifacts:
    def test_table1(self):
        report = Runner().run(ArtifactScenario(artifact="table1-frb1"))
        assert report.text.startswith("Table 1")
        assert report.metrics == {"type": "artifact", "artifact": "table1-frb1"}

    def test_module_level_run_convenience(self):
        report = run(scenario_for("table2-frb2"))
        assert report.text.startswith("Table 2")


class TestSurfaces:
    def test_text_matches_direct_render(self):
        scenario = SurfaceScenario(surface="flc2", resolution=7)
        report = Runner().run(scenario)
        assert report.text == render_flc2_surface(resolution=7)

    def test_metrics_carry_the_grid(self):
        report = Runner().run(SurfaceScenario(surface="flc1", resolution=5))
        assert len(report.metrics["x"]) == 5
        assert len(report.metrics["y"]) == 5
        assert len(report.metrics["values"]) == 5
        assert all(len(row) == 5 for row in report.metrics["values"])
        assert report.metrics["fixed"] == {"distance_km": 3.0}

    def test_fixed_value_override(self):
        near = Runner().run(
            SurfaceScenario(surface="flc1", resolution=5, fixed_value=1.0)
        )
        far = Runner().run(
            SurfaceScenario(surface="flc1", resolution=5, fixed_value=9.0)
        )
        assert near.metrics["values"] != far.metrics["values"]


class TestFigureSweeps:
    def test_text_matches_direct_reproduction(self):
        scenario = FigureSweepScenario(
            figure="fig7-speed", request_counts=(10, 20), replications=1
        )
        report = Runner().run(scenario)
        direct = reproduce_figure7(
            request_counts=(10, 20),
            replications=1,
            facs_config=FACSConfig(),
            executor="serial",
        )
        assert report.text == render_figure7(direct)

    def test_metrics_round_trip_to_sweep_result(self):
        scenario = FigureSweepScenario(
            figure="fig10-facs-vs-scc", request_counts=(15, 30), replications=1
        )
        report = Runner().run(scenario)
        result = sweep_result_from_dict(dict(report.metrics))
        assert result.labels() == ["FACS", "SCC"]
        assert result.curve("FACS").points[0].request_count == 15

    def test_custom_curve_values_and_seed(self):
        scenario = FigureSweepScenario(
            figure="fig7-speed",
            request_counts=(10, 20),
            replications=1,
            curve_values=(25.0, 75.0),
            seed=1234,
        )
        report = Runner().run(scenario)
        result = sweep_result_from_dict(dict(report.metrics))
        assert result.labels() == ["25km/h", "75km/h"]


class TestNetworkScenarios:
    def test_network_sweep_metrics(self):
        scenario = NetworkSweepScenario(
            controllers=("FACS",),
            arrival_rates=(0.03,),
            replications=1,
            duration_s=120.0,
        )
        report = Runner().run(scenario)
        result = network_sweep_result_from_dict(dict(report.metrics))
        assert result.labels() == ["FACS"]
        point = result.curve("FACS").points[0]
        assert point.arrival_rate_per_cell_per_s == 0.03
        assert "FACS — multi-cell QoS vs offered load" in report.text

    def test_network_integration(self):
        scenario = NetworkIntegrationScenario(
            controllers=("CS",), duration_s=100.0, arrival_rate_per_cell_per_s=0.03
        )
        report = Runner().run(scenario)
        numbers = report.metrics["controllers"]["CS"]
        assert numbers["requested"] > 0
        assert 0.0 <= numbers["acceptance_percentage"] <= 100.0
        assert "7-cell network" in report.text


class TestAblations:
    def test_threshold_ablation_runs_small(self):
        scenario = AblationScenario(
            ablation="threshold", request_counts=(10,), replications=1
        )
        report = Runner().run(scenario)
        result = sweep_result_from_dict(dict(report.metrics))
        assert result.name == "ablation-threshold"
        assert "ablation-threshold" in report.text


class TestRunReport:
    def test_save_and_load_round_trip(self, tmp_path):
        report = Runner().run(ArtifactScenario(artifact="table1-frb1"))
        path = report.save(tmp_path)
        assert path == tmp_path / "table1-frb1.json"
        restored = RunReport.load(path)
        assert restored.scenario == report.scenario
        assert restored.text == report.text
        assert dict(restored.metrics) == dict(report.metrics)

    def test_saved_payload_is_plain_json(self, tmp_path):
        scenario = SurfaceScenario(surface="flc1", resolution=4)
        path = Runner().run(scenario).save(tmp_path)
        payload = json.loads(path.read_text())
        assert payload["scenario"]["kind"] == "surface"
        assert payload["metrics"]["surface"] == "flc1"
        assert payload["text"].startswith("FLC1")

    def test_load_rejects_incomplete_payload(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"metrics": {}}))
        with pytest.raises(ScenarioError, match="missing key"):
            RunReport.load(path)

    def test_unhandled_scenario_type_rejected(self):
        class Weird(Scenario):
            pass

        with pytest.raises(ScenarioError, match="no runner is registered"):
            Runner().run(Weird())

    def test_scenario_subclasses_inherit_their_parents_handler(self):
        class NarrowArtifact(ArtifactScenario):
            pass

        report = Runner().run(NarrowArtifact(artifact="table1-frb1"))
        assert report.text.startswith("Table 1")

    def test_register_runner_extension_point(self):
        from repro.api import register_runner

        class Constant(Scenario):
            pass

        @register_runner(Constant)
        def _run_constant(scenario):
            return "constant text", {"type": "constant"}

        report = Runner().run(Constant())
        assert report.text == "constant text"
        assert report.metrics == {"type": "constant"}
