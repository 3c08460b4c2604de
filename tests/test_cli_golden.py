"""Golden tests: the redesigned CLI is byte-identical to the pre-redesign CLI.

The files under ``tests/golden/`` were captured from the last commit before
the Scenario/Runner redesign by running the commands below and saving
stdout verbatim.  These tests re-run the same commands through the current
CLI and assert equality byte for byte — the contract of the API redesign
is that ``run`` and ``network-sweep`` keep their exact text output.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import (
    SCHEMA_VERSION,
    Campaign,
    CampaignReport,
    Runner,
    RunReport,
    Scenario,
    scenario_for,
)
from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLE_CAMPAIGN = (
    Path(__file__).parents[1] / "examples" / "campaigns" / "fig7-fig10-study.json"
)

GOLDEN_CASES = {
    "run_table1-frb1.txt": ["run", "table1-frb1"],
    "run_table2-frb2.txt": ["run", "table2-frb2"],
    "run_fig5-flc1-mf.txt": ["run", "fig5-flc1-mf"],
    "run_fig6-flc2-mf.txt": ["run", "fig6-flc2-mf"],
    "run_surface-flc1.txt": ["run", "surface-flc1"],
    "run_surface-flc2.txt": ["run", "surface-flc2"],
    "run_fig7-speed_r1.txt": [
        "run", "fig7-speed", "--replications", "1", "--requests", "10", "20",
    ],
    "run_fig8-angle_r1.txt": [
        "run", "fig8-angle", "--replications", "1", "--requests", "15", "30",
    ],
    "run_fig9-distance_r1.txt": [
        "run", "fig9-distance", "--replications", "1", "--requests", "15", "30",
    ],
    "run_fig10_r1.txt": [
        "run", "fig10-facs-vs-scc", "--replications", "1", "--requests", "10", "25",
    ],
    "run_net-sweep_r1.txt": ["run", "net-sweep", "--replications", "1"],
    "network-sweep_small.txt": [
        "network-sweep", "--rates", "0.02", "0.04", "--replications", "1",
        "--duration", "150", "--controllers", "FACS", "SCC",
    ],
    "network-sweep_rings_seed.txt": [
        "network-sweep", "--rates", "0.03", "--replications", "2", "--duration",
        "120", "--rings", "0", "--seed", "99", "--controllers", "CS",
    ],
    "list.txt": ["list"],
    # Captured while the service still scored whole micro-batches through
    # decide_batch: answering them through per-request verdicts must not
    # change a byte.
    "service-replay.txt": ["service-replay"],
    "service-replay_b32_r400.json": [
        "service-replay", "--max-batch", "32", "--requests", "400", "--format", "json",
    ],
    # Captured while FLC1 and FLC2 could still be built from break-point
    # config classes and a defuzzifier override: building every stage from
    # an FLCDefinition must not change a byte of the defuzzifier ablation
    # or of a tuning search over either slot.
    "run_abl-defuzz_r1.json": [
        "run", "abl-defuzz", "--replications", "1", "--requests", "10", "30",
        "--format", "json",
    ],
    "tune_flc1_r30.json": [
        "tune", "--requests", "30", "--replications", "1", "--format", "json",
    ],
    "tune_flc2_cs-m1_r30.json": [
        "tune", "--controller", "FLC2", "--parameter", "mf.Cs.M.1=15,20",
        "--requests", "30", "--replications", "1", "--format", "json",
    ],
}


class TestGoldenOutput:
    @pytest.mark.parametrize("golden_name", sorted(GOLDEN_CASES))
    def test_output_is_byte_identical_to_pre_redesign_cli(self, golden_name, capsys):
        argv = GOLDEN_CASES[golden_name]
        assert main(argv) == 0
        expected = (GOLDEN_DIR / golden_name).read_text()
        assert capsys.readouterr().out == expected


class TestNewReportFlags:
    def test_format_json_emits_the_run_report(self, capsys):
        assert main(["run", "table1-frb1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == {
            "schema_version": SCHEMA_VERSION,
            "kind": "artifact",
            "artifact": "table1-frb1",
        }
        golden = (GOLDEN_DIR / "run_table1-frb1.txt").read_text()
        assert payload["text"] + "\n" == golden

    def test_save_persists_a_loadable_report(self, tmp_path, capsys):
        assert main(["run", "table2-frb2", "--save", str(tmp_path)]) == 0
        capsys.readouterr()
        report = RunReport.load(tmp_path / "table2-frb2.json")
        assert report.scenario == scenario_for("table2-frb2")
        assert report.text.startswith("Table 2")

    def test_config_runs_a_scenario_file(self, tmp_path, capsys):
        config = tmp_path / "fig7.json"
        config.write_text(
            json.dumps(
                {
                    "kind": "figure-sweep",
                    "figure": "fig7-speed",
                    "request_counts": [10, 20],
                    "replications": 1,
                }
            )
        )
        assert main(["run", "--config", str(config)]) == 0
        from_config = capsys.readouterr().out
        assert main(
            ["run", "fig7-speed", "--replications", "1", "--requests", "10", "20"]
        ) == 0
        from_flags = capsys.readouterr().out
        assert from_config == from_flags

    def test_network_sweep_config(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "kind": "network-sweep",
                    "controllers": ["FACS"],
                    "arrival_rates": [0.03],
                    "replications": 1,
                    "duration_s": 120.0,
                }
            )
        )
        assert main(["network-sweep", "--config", str(config)]) == 0
        output = capsys.readouterr().out
        assert "FACS — multi-cell QoS vs offered load" in output

    def test_config_scenario_round_trips_through_saved_report(self, tmp_path, capsys):
        config = tmp_path / "surface.json"
        config.write_text(json.dumps({"kind": "surface", "surface": "flc2"}))
        assert main(
            ["run", "--config", str(config), "--save", str(tmp_path / "out")]
        ) == 0
        capsys.readouterr()
        report = RunReport.load(tmp_path / "out" / "surface-flc2.json")
        assert report.scenario == Scenario.from_file(config)


class TestNewValidation:
    def test_run_requires_experiment_or_config(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_run_rejects_experiment_plus_config(self, tmp_path):
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"kind": "artifact", "artifact": "table1-frb1"}))
        with pytest.raises(SystemExit):
            main(["run", "table1-frb1", "--config", str(config)])

    def test_run_rejects_missing_config_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--config", str(tmp_path / "absent.json")])

    def test_run_rejects_invalid_scenario_config(self, tmp_path):
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"kind": "warp"}))
        with pytest.raises(SystemExit):
            main(["run", "--config", str(config)])

    def test_network_sweep_rejects_non_network_config(self, tmp_path):
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"kind": "artifact", "artifact": "table1-frb1"}))
        with pytest.raises(SystemExit):
            main(["network-sweep", "--config", str(config)])

    def test_run_config_rejects_scenario_shaping_flags(self, tmp_path, capsys):
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"kind": "artifact", "artifact": "table1-frb1"}))
        with pytest.raises(SystemExit):
            main(["run", "--config", str(config), "--replications", "99"])
        assert "--replications" in capsys.readouterr().err

    def test_network_sweep_config_rejects_scenario_shaping_flags(
        self, tmp_path, capsys
    ):
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"kind": "network-sweep"}))
        with pytest.raises(SystemExit):
            main(["network-sweep", "--config", str(config), "--rates", "0.2"])
        assert "--rates" in capsys.readouterr().err

    def test_save_refusal_is_a_clean_error_not_a_traceback(self, tmp_path, capsys):
        foreign = tmp_path / "table1-frb1.json"
        foreign.write_text(json.dumps({"something": "else"}))
        assert main(["run", "table1-frb1", "--save", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "refusing to overwrite" in captured.err
        assert json.loads(foreign.read_text()) == {"something": "else"}

    def test_config_still_allows_format_and_save(self, tmp_path, capsys):
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"kind": "artifact", "artifact": "table2-frb2"}))
        assert main(
            ["run", "--config", str(config), "--format", "json", "--save", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        assert (tmp_path / "table2-frb2.json").exists()

    def test_duplicate_controllers_error_loudly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["network-sweep", "--controllers", "FACS", "FACS", "CS"])
        assert excinfo.value.code == 2
        assert "duplicate controllers: FACS" in capsys.readouterr().err

    def test_all_registered_controllers_are_selectable(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["network-sweep", "--controllers", "GuardChannel", "Threshold"]
        )
        assert args.controllers == ["GuardChannel", "Threshold"]


class TestListJson:
    def test_list_json_emits_the_registries(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION
        ids = {entry["id"] for entry in payload["experiments"]}
        assert {"fig7-speed", "net-sweep", "trace-arrivals", "net-sweep-coupled-sharded"} <= ids
        assert "net-sweep-sharded" not in ids
        fig7 = next(e for e in payload["experiments"] if e["id"] == "fig7-speed")
        assert fig7["kind"] == "figure-sweep"
        assert fig7["paper_artifact"] == "Figure 7"
        assert set(fig7) == {"id", "kind", "paper_artifact"}
        assert "FACS" in payload["controllers"]
        assert "serial" in payload["executors"]
        assert {"trace-arrivals", "network-sweep-coupled-sharded", "tuning"} <= set(
            payload["scenario_kinds"]
        )
        assert "network-sweep-sharded" not in payload["scenario_kinds"]
        assert "mean_acceptance" in payload["comparison_metrics"]
        assert payload["tuning_strategies"] == ["grid", "evolutionary"]
        definitions = payload["controller_definitions"]
        assert definitions["suffix"] == ".json"
        for export in definitions["builtin_exports"]:
            assert (REPO_ROOT / export).is_file()
        assert "engines" not in payload
        workloads = {entry["name"]: entry for entry in payload["workloads"]}
        assert set(workloads) == {
            "poisson", "mmpp", "heavy-tail", "diurnal", "flash-crowd"
        }
        assert workloads["poisson"]["arrival"] == "poisson"
        assert workloads["poisson"]["service_classes"] is None
        assert workloads["mmpp"]["service_classes"] == ["voice", "data", "video"]
        classes = {entry["service"]: entry for entry in payload["service_classes"]}
        assert set(classes) == {"voice", "data", "video"}
        assert classes["voice"]["priority_weight"] == 1.0
        assert classes["video"]["bandwidth_units"] == 10

    def test_list_text_output_is_unchanged(self, capsys):
        assert main(["list"]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "list.txt").read_text()


class TestCampaignCommand:
    def test_example_campaign_members_match_individual_runner_runs(self, capsys):
        """The acceptance gate of the campaign API: running the example
        campaign through the CLI reproduces every per-scenario ASCII
        artifact byte for byte against an individual ``Runner.run`` of the
        resolved member scenario."""
        assert main(
            ["campaign", "--config", str(EXAMPLE_CAMPAIGN), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        campaign = Campaign.from_file(EXAMPLE_CAMPAIGN)
        resolved = campaign.resolved_scenarios()
        assert [m["id"] for m in payload["campaign"]["members"]] == [
            "fig7-speed",
            "fig10-facs-vs-scc",
        ]
        runner = Runner()
        for scenario, entry in zip(resolved, payload["reports"]):
            direct = runner.run(scenario)
            assert entry["text"] == direct.text
            assert entry["scenario"] == scenario.to_dict()

    def test_example_campaign_is_backend_independent(self, capsys):
        base = ["campaign", "--config", str(EXAMPLE_CAMPAIGN), "--format", "json"]
        assert main(base) == 0
        default_out = capsys.readouterr().out
        assert main(base + ["--executor", "serial"]) == 0
        serial_out = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        pooled_out = capsys.readouterr().out
        assert default_out == serial_out == pooled_out

    def test_campaign_from_directory_of_scenarios(self, tmp_path, capsys):
        (tmp_path / "table.json").write_text(
            json.dumps({"kind": "artifact", "artifact": "table1-frb1"})
        )
        (tmp_path / "surface.json").write_text(
            json.dumps({"kind": "surface", "surface": "flc2", "resolution": 5})
        )
        assert main(["campaign", "--config", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "=== table [artifact] ===" in output
        assert "=== surface [surface] ===" in output
        assert "Cross-scenario comparison" in output

    def test_campaign_save_persists_a_loadable_report(self, tmp_path, capsys):
        config = tmp_path / "campaign.json"
        config.write_text(
            json.dumps(
                {
                    "name": "save-test",
                    "members": [
                        {
                            "id": "t1",
                            "scenario": {"kind": "artifact", "artifact": "table1-frb1"},
                        }
                    ],
                }
            )
        )
        out_dir = tmp_path / "out"
        assert main(
            ["campaign", "--config", str(config), "--save", str(out_dir)]
        ) == 0
        capsys.readouterr()
        report = CampaignReport.load(out_dir / "save-test.json")
        assert report.campaign.name == "save-test"
        assert report.reports[0].text.startswith("Table 1")

    def test_campaign_rejects_missing_config(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "--config", str(tmp_path / "absent.json")])

    def test_campaign_rejects_invalid_config(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"name": "x", "members": []}))
        with pytest.raises(SystemExit):
            main(["campaign", "--config", str(config)])
        assert "members" in capsys.readouterr().err

    def test_campaign_workers_with_serial_executor_rejected(self, tmp_path, capsys):
        config = tmp_path / "campaign.json"
        config.write_text(
            json.dumps(
                {
                    "name": "serial-workers",
                    "members": [
                        {
                            "id": "t1",
                            "scenario": {"kind": "artifact", "artifact": "table1-frb1"},
                        }
                    ],
                }
            )
        )
        with pytest.raises(SystemExit):
            main(
                [
                    "campaign",
                    "--config",
                    str(config),
                    "--executor",
                    "serial",
                    "--workers",
                    "2",
                ]
            )
        assert "pool executor" in capsys.readouterr().err
