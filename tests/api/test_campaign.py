"""Campaign API tests: validation, round-trips, shared-pool execution."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.api import (
    SCHEMA_VERSION,
    Campaign,
    CampaignError,
    CampaignMember,
    CampaignReport,
    CampaignRunner,
    ComparisonSpec,
    Runner,
    Scenario,
    comparison_metric,
    run_campaign,
    scenario_for,
)


def _member(member_id: str, payload: dict) -> CampaignMember:
    return CampaignMember(id=member_id, scenario=Scenario.from_dict(payload))


def small_campaign(**overrides) -> Campaign:
    """A three-kind campaign fast enough for per-test execution."""
    fields = dict(
        name="unit-campaign",
        members=(
            _member("table1", {"kind": "artifact", "artifact": "table1-frb1"}),
            _member(
                "fig7",
                {
                    "kind": "figure-sweep",
                    "figure": "fig7-speed",
                    "request_counts": [10, 20],
                    "replications": 1,
                },
            ),
            _member(
                "trace",
                {"kind": "trace-arrivals", "request_count": 40, "batch_size": 8},
            ),
        ),
        comparison=ComparisonSpec(metrics=("mean_acceptance", "final_acceptance")),
    )
    fields.update(overrides)
    return Campaign(**fields)


class TestValidation:
    def test_empty_members_rejected(self):
        with pytest.raises(CampaignError, match="at least one member"):
            Campaign(name="empty", members=())

    def test_duplicate_member_ids_rejected(self):
        with pytest.raises(CampaignError, match="duplicate member ids: a"):
            Campaign(
                name="dup",
                members=(
                    _member("a", {"kind": "artifact", "artifact": "table1-frb1"}),
                    _member("a", {"kind": "artifact", "artifact": "table2-frb2"}),
                ),
            )

    def test_bad_name_rejected(self):
        with pytest.raises(CampaignError, match="campaign name"):
            small_campaign(name="spaces are bad")
        with pytest.raises(CampaignError, match="campaign name"):
            small_campaign(name="")

    def test_bad_member_id_rejected(self):
        with pytest.raises(CampaignError, match="member id"):
            _member("../escape", {"kind": "artifact", "artifact": "table1-frb1"})

    def test_unknown_executor_rejected(self):
        with pytest.raises(CampaignError, match="unknown executor"):
            small_campaign(executor="gpu")

    def test_workers_require_pool_executor(self):
        with pytest.raises(CampaignError, match="pool executor"):
            small_campaign(workers=2)

    def test_bad_seed_rejected(self):
        with pytest.raises(CampaignError, match="seed must be an integer"):
            small_campaign(seed="abc")

    def test_unknown_comparison_metric_rejected(self):
        with pytest.raises(CampaignError, match="unknown comparison metric"):
            ComparisonSpec(metrics=("p99_magic",))

    def test_non_string_comparison_metric_rejected(self):
        # Unhashable entries must hit the loud validation error, not a
        # TypeError from the registry lookup.
        with pytest.raises(CampaignError, match="unknown comparison metric"):
            ComparisonSpec(metrics=(["mean_acceptance"],))

    def test_duplicate_comparison_metrics_rejected(self):
        with pytest.raises(CampaignError, match="duplicate comparison metrics"):
            ComparisonSpec(metrics=("mean_acceptance", "mean_acceptance"))

    def test_empty_comparison_metrics_rejected(self):
        with pytest.raises(CampaignError, match="at least one comparison metric"):
            ComparisonSpec(metrics=())


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        campaign = small_campaign(executor="thread", workers=2, seed=99)
        restored = Campaign.from_json(campaign.to_json())
        assert restored == campaign
        assert restored.to_dict() == campaign.to_dict()

    def test_payload_is_schema_versioned(self):
        payload = small_campaign().to_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["type"] == "campaign"
        for entry in payload["members"]:
            assert entry["scenario"]["schema_version"] == SCHEMA_VERSION

    def test_v0_payload_still_decodes(self):
        payload = small_campaign().to_dict()
        payload.pop("schema_version")
        for entry in payload["members"]:
            entry["scenario"].pop("schema_version")
        assert Campaign.from_dict(payload) == small_campaign()

    def test_unknown_schema_version_rejected(self):
        payload = small_campaign().to_dict()
        payload["schema_version"] = 99
        with pytest.raises(CampaignError, match="schema_version 99"):
            Campaign.from_dict(payload)

    def test_unknown_fields_rejected(self):
        payload = small_campaign().to_dict()
        payload["typo"] = 1
        with pytest.raises(CampaignError, match=r"unknown campaign field\(s\).*typo"):
            Campaign.from_dict(payload)

    def test_unknown_member_fields_rejected(self):
        payload = small_campaign().to_dict()
        payload["members"][0]["extra"] = 1
        with pytest.raises(CampaignError, match="unknown campaign member"):
            Campaign.from_dict(payload)

    def test_wrong_type_tag_rejected(self):
        payload = small_campaign().to_dict()
        payload["type"] = "scenario"
        with pytest.raises(CampaignError, match="expected a 'campaign' payload"):
            Campaign.from_dict(payload)

    def test_from_file(self, tmp_path):
        campaign = small_campaign()
        path = tmp_path / "campaign.json"
        path.write_text(campaign.to_json())
        assert Campaign.from_file(path) == campaign

    def test_truncated_json_rejected(self):
        with pytest.raises(CampaignError, match="does not parse"):
            Campaign.from_json('{"name": "x", "members"')


class TestSharedOverrides:
    def test_seed_override_applies_where_the_field_exists(self):
        campaign = small_campaign(seed=1234)
        resolved = campaign.resolved_scenarios()
        assert resolved[0].kind == "artifact"  # no seed field
        assert resolved[1].seed == 1234
        assert resolved[2].seed == 1234

    def test_member_executors_are_normalized_to_serial(self):
        campaign = Campaign(
            name="norm",
            members=(
                _member(
                    "fig7",
                    {
                        "kind": "figure-sweep",
                        "figure": "fig7-speed",
                        "executor": "process",
                        "workers": 4,
                    },
                ),
            ),
        )
        (resolved,) = campaign.resolved_scenarios()
        assert resolved.executor == "serial"
        assert resolved.workers is None

    def test_none_overrides_leave_members_untouched(self):
        campaign = small_campaign()
        assert campaign.resolved_scenarios()[1].seed is None

    def test_execution_normalized_resets_backend_only(self):
        campaign = small_campaign(executor="process", workers=4, seed=7)
        normalized = campaign.execution_normalized()
        assert normalized.executor == "serial"
        assert normalized.workers is None
        assert normalized.seed == 7
        assert normalized.members == campaign.members


class TestCampaignRunner:
    def test_report_json_is_byte_identical_across_backends(self):
        campaign = small_campaign()
        outputs = {}
        for executor, workers in [
            ("serial", None),
            ("thread", 1),
            ("thread", 3),
            ("process", 2),
        ]:
            variant = replace(campaign, executor=executor, workers=workers)
            outputs[(executor, workers)] = CampaignRunner().run(variant).to_json()
        reference = outputs[("serial", None)]
        for key, output in outputs.items():
            assert output == reference, f"backend {key} diverged"

    def test_member_reports_match_individual_runner_runs(self):
        campaign = small_campaign(seed=4321)
        report = run_campaign(campaign)
        runner = Runner()
        for scenario, member_report in zip(
            campaign.resolved_scenarios(), report.reports
        ):
            direct = runner.run(scenario)
            assert member_report.scenario == direct.scenario
            assert member_report.text == direct.text
            assert dict(member_report.metrics) == dict(direct.metrics)

    def test_text_contains_every_member_and_the_comparison(self):
        report = run_campaign(small_campaign())
        assert "=== table1 [artifact] ===" in report.text
        assert "=== fig7 [figure-sweep] ===" in report.text
        assert "=== trace [trace-arrivals] ===" in report.text
        assert "Cross-scenario comparison" in report.text

    def test_comparison_rows_cover_every_member(self):
        report = run_campaign(small_campaign())
        scenarios = {row["scenario"] for row in report.comparison["rows"]}
        assert scenarios == {"table1", "fig7", "trace"}
        table1_row = next(
            row for row in report.comparison["rows"] if row["scenario"] == "table1"
        )
        assert table1_row["curve"] is None
        assert all(value is None for value in table1_row["values"].values())

    def test_report_for(self):
        report = run_campaign(small_campaign())
        assert report.report_for("fig7").scenario.kind == "figure-sweep"
        with pytest.raises(CampaignError, match="no member 'nope'"):
            report.report_for("nope")

    def test_custom_comparison_metric_registers(self):
        @comparison_metric("test_requested_total")
        def _requested(metrics):
            if metrics.get("type") != "trace-arrivals":
                return None
            return {metrics["controller"]: float(metrics["requested"])}

        campaign = small_campaign(
            comparison=ComparisonSpec(metrics=("test_requested_total",))
        )
        report = run_campaign(campaign)
        trace_row = next(
            row
            for row in report.comparison["rows"]
            if row["scenario"] == "trace" and row["curve"] == "FACS"
        )
        assert trace_row["values"]["test_requested_total"] == 40.0


class TestCampaignReportPersistence:
    def test_save_and_load_round_trip(self, tmp_path):
        report = run_campaign(small_campaign())
        path = report.save(tmp_path)
        assert path == tmp_path / "unit-campaign.json"
        restored = CampaignReport.load(path)
        assert restored.campaign == report.campaign
        assert restored.comparison_text == report.comparison_text
        assert dict(restored.comparison) == dict(report.comparison)
        assert [r.text for r in restored.reports] == [r.text for r in report.reports]

    def test_resave_of_same_campaign_overwrites(self, tmp_path):
        report = run_campaign(small_campaign())
        report.save(tmp_path)
        assert report.save(tmp_path).exists()

    def test_save_refuses_to_clobber_a_different_campaign(self, tmp_path):
        report = run_campaign(small_campaign())
        report.save(tmp_path)
        other = run_campaign(
            small_campaign(comparison=ComparisonSpec(metrics=("mean_acceptance",)))
        )
        with pytest.raises(CampaignError, match="refusing to overwrite"):
            other.save(tmp_path)

    def test_load_rejects_unknown_schema_version(self, tmp_path):
        report = run_campaign(small_campaign())
        payload = report.to_dict()
        payload["schema_version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CampaignError, match="schema_version 99"):
            CampaignReport.load(path)

    def test_load_rejects_truncated_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"type": "campaign-report", "campaign"')
        with pytest.raises(CampaignError, match="not valid JSON"):
            CampaignReport.load(path)

    def test_load_rejects_non_object_json(self, tmp_path):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]")
        with pytest.raises(CampaignError, match="must hold a JSON object"):
            CampaignReport.load(path)


class TestFromScenarioDir:
    def test_builds_one_member_per_sorted_json(self, tmp_path):
        (tmp_path / "b-surface.json").write_text(
            json.dumps({"kind": "surface", "surface": "flc2", "resolution": 5})
        )
        (tmp_path / "a-table.json").write_text(
            json.dumps({"kind": "artifact", "artifact": "table1-frb1"})
        )
        campaign = Campaign.from_scenario_dir(tmp_path, name="from-dir")
        assert [member.id for member in campaign.members] == ["a-table", "b-surface"]
        assert campaign.members[0].scenario == scenario_for("table1-frb1")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="no scenario JSON files"):
            Campaign.from_scenario_dir(tmp_path)

    def test_invalid_scenario_file_named_in_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "warp"}))
        with pytest.raises(CampaignError, match="bad.json"):
            Campaign.from_scenario_dir(tmp_path)
