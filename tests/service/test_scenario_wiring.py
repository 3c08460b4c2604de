"""service-replay scenario kind: round-trip, runner, CLI, comparisons."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    COMPARISON_METRICS,
    Runner,
    Scenario,
    ScenarioError,
    ServiceReplayScenario,
    scenario_for,
)
from repro.cli import main

QUICK = dict(request_count=60, arrival_window_s=30.0)


class TestServiceReplayScenario:
    def test_round_trips(self):
        scenario = ServiceReplayScenario(
            request_count=90, max_batch=4, max_wait_ms=500.0, seed=9
        )
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_registered_default(self):
        assert scenario_for("service-replay") == ServiceReplayScenario()

    def test_validation(self):
        with pytest.raises(ScenarioError, match="request_count"):
            ServiceReplayScenario(request_count=0)
        with pytest.raises(ScenarioError, match="max_batch"):
            ServiceReplayScenario(max_batch=0)
        with pytest.raises(ScenarioError, match="max_wait_ms"):
            ServiceReplayScenario(max_wait_ms=0.0)
        with pytest.raises(ScenarioError, match="queue_capacity"):
            ServiceReplayScenario(queue_capacity=0)
        with pytest.raises(ScenarioError, match="arrival_window_s"):
            ServiceReplayScenario(arrival_window_s=-1.0)

    def test_runner_produces_report(self):
        report = Runner().run(ServiceReplayScenario(**QUICK))
        assert "admission service (replay)" in report.text
        assert report.metrics["type"] == "service-replay"
        assert report.metrics["submitted"] == 60
        assert report.metrics["mode"] == "replay"
        assert "frame" in report.metrics
        assert report.scenario.slug == "service-replay"

    def test_report_is_deterministic(self):
        first = Runner().run(ServiceReplayScenario(**QUICK))
        second = Runner().run(ServiceReplayScenario(**QUICK))
        assert first.to_json() == second.to_json()

    def test_frame_carries_latency_parameters(self):
        report = Runner().run(ServiceReplayScenario(**QUICK))
        columns = report.metrics["frame"]["param_names"]
        assert "p99_latency_ms" in columns
        assert "throughput_dps" in columns


class TestComparisonMetrics:
    def test_service_metrics_registered(self):
        names = list(COMPARISON_METRICS.names())
        assert "p99_latency_ms" in names
        assert "throughput_dps" in names

    def test_extractors_apply_to_service_payloads_only(self):
        report = Runner().run(ServiceReplayScenario(**QUICK))
        p99 = COMPARISON_METRICS.get("p99_latency_ms")(report.metrics)
        assert p99 == {"FACS": report.metrics["latency_ms"]["p99_ms"]}
        assert COMPARISON_METRICS.get("p99_latency_ms")({"type": "artifact"}) is None
        acceptance = COMPARISON_METRICS.get("mean_acceptance")(report.metrics)
        assert acceptance == {"FACS": report.metrics["acceptance_percentage"]}


class TestCli:
    def test_service_replay_command(self, capsys):
        assert main(["service-replay", "--requests", "40", "--window", "20"]) == 0
        out = capsys.readouterr().out
        assert "admission service (replay)" in out
        assert "submitted=40" in out

    def test_service_replay_json_format(self, capsys):
        assert (
            main(
                [
                    "service-replay",
                    "--requests",
                    "40",
                    "--window",
                    "20",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["type"] == "service-replay"
        assert payload["scenario"]["kind"] == "service-replay"

    def test_service_replay_config_round_trip(self, tmp_path, capsys):
        scenario = ServiceReplayScenario(request_count=40, arrival_window_s=20.0)
        path = tmp_path / "scenario.json"
        path.write_text(scenario.to_json())
        assert main(["service-replay", "--config", str(path)]) == 0
        assert "submitted=40" in capsys.readouterr().out

    def test_service_replay_config_rejects_shaping_flags(self, tmp_path, capsys):
        scenario = ServiceReplayScenario(request_count=40, arrival_window_s=20.0)
        path = tmp_path / "scenario.json"
        path.write_text(scenario.to_json())
        with pytest.raises(SystemExit):
            main(["service-replay", "--config", str(path), "--max-batch", "4"])
        assert "--max-batch" in capsys.readouterr().err

    def test_service_replay_config_rejects_other_kinds(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(scenario_for("trace-arrivals").to_json())
        with pytest.raises(SystemExit):
            main(["service-replay", "--config", str(path)])
        assert "service-replay" in capsys.readouterr().err

    def test_run_maps_the_registered_scenario(self, capsys):
        assert main(["run", "service-replay"]) == 0
        assert "admission service (replay)" in capsys.readouterr().out

    def test_run_rejects_unsupported_shaping_flags(self):
        with pytest.raises(SystemExit, match="takes no --replications"):
            main(["run", "service-replay", "--replications", "2"])

    def test_serve_command(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--requests",
                    "400",
                    "--clients",
                    "16",
                    "--max-batch",
                    "16",
                ]
            )
            == 0
        )
        assert "admission service (live)" in capsys.readouterr().out

    def test_serve_json_format(self, capsys):
        assert main(["serve", "--requests", "300", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "live"
        assert payload["submitted"] == 300

    def test_save_round_trips(self, tmp_path, capsys):
        from repro.api import RunReport

        assert (
            main(
                [
                    "service-replay",
                    "--requests",
                    "40",
                    "--window",
                    "20",
                    "--save",
                    str(tmp_path),
                ]
            )
            == 0
        )
        saved = list(tmp_path.glob("service-replay-*.json"))
        assert len(saved) == 1
        report = RunReport.load(saved[0])
        assert report.metrics["type"] == "service-replay"
