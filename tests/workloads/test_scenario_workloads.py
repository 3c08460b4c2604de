"""Scenario- and campaign-level tests of the workload field.

The scenario layer normalises the *name* ``"poisson"`` to ``None`` and
omits a ``None`` workload from payloads, so the two spellings are one
scenario identity and pre-workload payloads stay byte-identical.  Runner
reports for the default and for ``workload="poisson"`` must therefore be
byte-for-byte equal, while bursty workloads light up per-class counters
all the way into campaign comparison tables.
"""

from __future__ import annotations

import pytest

from repro.analysis.io import write_workload_json
from repro.api import (
    COMPARISON_METRICS,
    Campaign,
    CampaignMember,
    ComparisonSpec,
    Runner,
    Scenario,
    NetworkSweepScenario,
    ScenarioError,
    TraceArrivalsScenario,
    run_campaign,
)
from repro.workloads import WORKLOADS

runner = Runner()


def sweep_scenario(**overrides) -> NetworkSweepScenario:
    fields = dict(
        controllers=("FACS",),
        arrival_rates=(0.05,),
        replications=1,
        duration_s=300.0,
    )
    fields.update(overrides)
    return NetworkSweepScenario(**fields)


class TestScenarioField:
    def test_poisson_normalises_to_none(self):
        assert sweep_scenario(workload="poisson").workload is None
        assert sweep_scenario(workload=None).workload is None

    def test_default_payload_omits_the_workload_key(self):
        for scenario in (sweep_scenario(), sweep_scenario(workload="poisson")):
            assert "workload" not in scenario.to_dict()

    def test_set_workload_round_trips(self):
        scenario = sweep_scenario(workload="mmpp")
        payload = scenario.to_dict()
        assert payload["workload"] == "mmpp"
        assert Scenario.from_dict(payload) == scenario

    def test_pre_workload_payload_still_loads(self):
        payload = sweep_scenario().to_dict()
        payload.pop("workload", None)
        assert Scenario.from_dict(payload).workload is None

    def test_unknown_workload_rejected(self):
        with pytest.raises(ScenarioError, match="unknown workload"):
            sweep_scenario(workload="fractal")

    def test_missing_workload_file_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            sweep_scenario(workload=str(tmp_path / "absent.json"))

    def test_workload_definition_file_accepted(self, tmp_path):
        path = write_workload_json(WORKLOADS.get("mmpp"), tmp_path / "mmpp.json")
        assert sweep_scenario(workload=str(path)).workload == str(path)

    def test_every_sweep_and_replay_kind_has_the_field(self):
        for kind in (
            "figure-sweep",
            "network-sweep",
            "network-sweep-coupled-sharded",
            "trace-arrivals",
            "service-replay",
        ):
            payload = {"kind": kind, "workload": "mmpp"}
            if kind == "figure-sweep":
                payload["figure"] = "fig7-speed"
            scenario = Scenario.from_dict(payload)
            assert scenario.workload == "mmpp"


class TestRunnerByteIdentity:
    def test_network_sweep_reports_identical(self):
        default = runner.run(sweep_scenario())
        poisson = runner.run(sweep_scenario(workload="poisson"))
        assert poisson.to_json() == default.to_json()

    def test_trace_arrivals_reports_identical(self):
        default = runner.run(TraceArrivalsScenario(request_count=40, batch_size=8))
        poisson = runner.run(
            TraceArrivalsScenario(request_count=40, batch_size=8, workload="poisson")
        )
        assert poisson.to_json() == default.to_json()


class TestPerClassReporting:
    def test_mmpp_report_frame_carries_class_columns(self):
        report = runner.run(sweep_scenario(workload="mmpp"))
        frame = report.metrics["frame"]
        assert frame["class_names"] == ["voice", "data", "video"]
        assert "class.voice.dropped" in frame["columns"]

    def test_class_comparison_metrics_extract_from_the_report(self):
        report = runner.run(sweep_scenario(workload="mmpp"))
        values = COMPARISON_METRICS.get("voice_dropping")(report.metrics)
        assert set(values) == {"FACS"}
        assert 0.0 <= values["FACS"] <= 1.0

    def test_class_metrics_are_none_for_legacy_reports(self):
        report = runner.run(sweep_scenario())
        for name in ("voice_dropping", "data_blocking", "video_dropping"):
            assert COMPARISON_METRICS.get(name)(report.metrics) is None

    def test_campaign_comparison_mixes_legacy_and_workload_members(self):
        campaign = Campaign(
            name="workload-mini",
            members=(
                CampaignMember(id="poisson", scenario=sweep_scenario()),
                CampaignMember(id="mmpp", scenario=sweep_scenario(workload="mmpp")),
            ),
            comparison=ComparisonSpec(
                metrics=("mean_dropping", "voice_dropping"), baseline="poisson"
            ),
        )
        report = run_campaign(campaign)
        rows = {
            row["scenario"]: row for row in report.comparison["rows"]
        }
        assert rows["poisson"]["values"]["voice_dropping"] is None
        assert rows["mmpp"]["values"]["voice_dropping"] is not None
        assert rows["mmpp"]["deltas"]["mean_dropping"] is not None


class TestRivalControllersBeatFACSUnderBurst:
    def test_mpc_lookahead_cuts_dropping_under_mmpp(self):
        scenario = sweep_scenario(
            controllers=("FACS", "MPCLookahead"),
            arrival_rates=(0.08,),
            replications=2,
            duration_s=600.0,
            workload="mmpp",
        )
        report = runner.run(scenario)
        dropping = COMPARISON_METRICS.get("mean_dropping")(report.metrics)
        assert dropping["MPCLookahead"] < dropping["FACS"]
