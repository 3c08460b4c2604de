"""Schema v8: scenario and campaign payloads lose their ``engine`` field.

Up to v7 a scenario or campaign could name one of two fuzzy inference
engines, ``"compiled"`` or ``"reference"``, which agreed bit for bit.  v8
has one engine: a v7 payload naming either decodes to its v8 twin, a v8
payload that still names one is rejected, and every shipped example config
decodes to the same object with or without the field.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.io import SCHEMA_VERSION
from repro.api import (
    Campaign,
    CampaignError,
    CampaignReport,
    RunReport,
    Scenario,
    ScenarioError,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
ENGINES = pytest.mark.parametrize("engine", ["compiled", "reference"])

V8_SCENARIO = {
    "schema_version": 8,
    "kind": "figure-sweep",
    "figure": "fig7-speed",
    "request_counts": [10, 20],
    "replications": 1,
    "seed": None,
    "curve_values": None,
    "executor": "serial",
    "workers": None,
}

V8_CAMPAIGN = {
    "schema_version": 8,
    "type": "campaign",
    "name": "v8-study",
    "members": [{"id": "fig7", "scenario": V8_SCENARIO}],
    "executor": "serial",
    "workers": None,
    "seed": None,
    "comparison": {"metrics": ["mean_acceptance"], "baseline": None},
}

V8_REPORT = {
    "schema_version": 8,
    "scenario": V8_SCENARIO,
    "metrics": {"type": "figure-sweep"},
    "text": "Figure 7",
}

V8_CAMPAIGN_REPORT = {
    "schema_version": 8,
    "type": "campaign-report",
    "campaign": V8_CAMPAIGN,
    "reports": [V8_REPORT],
    "comparison": {"rows": []},
    "comparison_text": "",
}


def v7_scenario(engine: str) -> dict:
    return {**V8_SCENARIO, "schema_version": 7, "engine": engine}


def v7_campaign(engine: str | None) -> dict:
    members = [{"id": "fig7", "scenario": v7_scenario(engine or "compiled")}]
    return {**V8_CAMPAIGN, "schema_version": 7, "members": members, "engine": engine}


def v7_report(engine: str) -> dict:
    return {**V8_REPORT, "schema_version": 7, "scenario": v7_scenario(engine)}


def test_schema_version_is_8():
    assert SCHEMA_VERSION == 8


@ENGINES
def test_v7_scenario_decodes_to_its_v8_twin(engine):
    scenario = Scenario.from_dict(v7_scenario(engine))
    assert scenario == Scenario.from_dict(V8_SCENARIO)
    assert scenario.to_dict() == V8_SCENARIO


@ENGINES
def test_v7_campaign_decodes_to_its_v8_twin(engine):
    for override in (engine, None):
        campaign = Campaign.from_dict(v7_campaign(override))
        assert campaign == Campaign.from_dict(V8_CAMPAIGN)
        assert campaign.to_dict() == V8_CAMPAIGN


@ENGINES
def test_v7_run_report_decodes_to_its_v8_twin(engine):
    report = RunReport.from_dict(v7_report(engine))
    assert report == RunReport.from_dict(V8_REPORT)
    assert report.to_dict() == V8_REPORT


@ENGINES
def test_v7_campaign_report_decodes_to_its_v8_twin(engine, tmp_path):
    v7 = {
        **V8_CAMPAIGN_REPORT,
        "schema_version": 7,
        "campaign": v7_campaign(engine),
        "reports": [v7_report(engine)],
    }
    (tmp_path / "v7.json").write_text(json.dumps(v7))
    (tmp_path / "v8.json").write_text(json.dumps(V8_CAMPAIGN_REPORT))
    report = CampaignReport.load(tmp_path / "v7.json")
    assert report == CampaignReport.load(tmp_path / "v8.json")
    assert report.to_dict() == V8_CAMPAIGN_REPORT


def test_v8_scenario_naming_an_engine_is_rejected():
    with pytest.raises(ScenarioError, match=r"unknown field\(s\).*\['engine'\]"):
        Scenario.from_dict({**V8_SCENARIO, "engine": "compiled"})


def test_v8_campaign_naming_an_engine_is_rejected():
    with pytest.raises(CampaignError, match=r"unknown campaign field\(s\): \['engine'\]"):
        Campaign.from_dict({**V8_CAMPAIGN, "engine": "compiled"})


@ENGINES
@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("scenarios/*.json")), ids=lambda path: path.name
)
def test_shipped_scenario_decodes_alike_with_its_old_engine_field(path, engine):
    # The shipped configs predate v8 (they carry no stamp, i.e. v0), and
    # named ``"engine": "compiled"`` until the field went.
    payload = json.loads(path.read_text())
    assert "engine" not in payload
    assert Scenario.from_dict({**payload, "engine": engine}) == Scenario.from_file(path)


@ENGINES
@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("campaigns/*.json")), ids=lambda path: path.name
)
def test_shipped_campaign_decodes_alike_with_its_old_engine_field(path, engine):
    payload = json.loads(path.read_text())
    assert "engine" not in payload
    assert payload["schema_version"] < 8
    assert Campaign.from_dict({**payload, "engine": engine}) == Campaign.from_file(path)
