"""Campaigns: families of scenarios as one first-class, serializable object.

The paper's results are not single runs but *studies* — CBP/CDP curves per
controller across arrival rates, figure sweeps per attribute, ablations —
and a :class:`Campaign` describes one study end to end: an ordered list of
named member scenarios, shared overrides (a seed applied to every
member, executor/workers selecting the shared pool), and a
:class:`ComparisonSpec` naming the metrics to tabulate across scenarios.
Campaigns carry the same contract as scenarios: strict validation, loud
decode errors and lossless, schema-versioned ``to_dict``/JSON round-trips.

:class:`CampaignRunner` executes the members concurrently over **one**
shared :class:`~repro.simulation.executor.SweepExecutor` pool — the same
aggregation move scalable collective protocols make, many point-to-point
operations fanned through one primitive — and returns a
:class:`CampaignReport`: every member's :class:`~repro.api.RunReport` plus
the rendered cross-scenario comparison.  Results are byte-identical for
every backend (serial/thread/process) and worker count: members are
resolved to a pure function of the campaign before execution, and the
report embeds the execution-normalized campaign, so the backend never
leaks into the artifact.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..analysis.io import (
    PayloadVersionError,
    migrate_payload,
    versioned_payload,
    write_guarded_json,
)
from ..simulation.executor import EXECUTORS, executor_by_name
from .report import COMPARISON_METRICS, build_comparison
from .runner import Runner, RunReport, execution_normalized, report_stem
from .scenario import Scenario, ScenarioError

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignMember",
    "CampaignReport",
    "CampaignRunner",
    "ComparisonSpec",
    "run_campaign",
]

#: Valid campaign names and member ids: filesystem- and table-friendly.
_NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


class CampaignError(ScenarioError):
    """Raised when a campaign is invalid or a payload cannot be decoded."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CampaignError(message)


def _check_name(value: object, what: str) -> None:
    _require(
        isinstance(value, str) and bool(_NAME_PATTERN.match(value)),
        f"{what} must match {_NAME_PATTERN.pattern!r} "
        f"(letters, digits, '.', '_', '-'), got {value!r}",
    )


@dataclass(frozen=True)
class ComparisonSpec:
    """Which metrics the campaign tabulates across its scenarios.

    ``baseline`` optionally names a member id to difference against: the
    comparison then adds a ``Δ<metric>`` column per metric (and a
    ``deltas`` mapping per payload row) relative to that reference
    scenario's value for the same curve label (or its only curve).
    """

    metrics: tuple[str, ...] = ("mean_acceptance",)
    baseline: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics", tuple(self.metrics))
        _require(len(self.metrics) > 0, "at least one comparison metric is required")
        for name in self.metrics:
            _require(
                isinstance(name, str) and name in COMPARISON_METRICS,
                f"unknown comparison metric {name!r}; "
                f"available: {list(COMPARISON_METRICS)}",
            )
        duplicates = sorted({m for m in self.metrics if self.metrics.count(m) > 1})
        _require(
            not duplicates, f"duplicate comparison metrics: {', '.join(duplicates)}"
        )
        if self.baseline is not None:
            _check_name(self.baseline, "comparison baseline")

    def to_dict(self) -> dict[str, Any]:
        return {"metrics": list(self.metrics), "baseline": self.baseline}

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "ComparisonSpec":
        if not isinstance(payload, Mapping):
            raise CampaignError(
                f"comparison spec must be a mapping, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - {"metrics", "baseline"})
        _require(not unknown, f"unknown comparison spec field(s): {unknown}")
        metrics = payload.get("metrics", ("mean_acceptance",))
        _require(
            isinstance(metrics, (list, tuple)),
            f"comparison metrics must be a list, got {metrics!r}",
        )
        return ComparisonSpec(metrics=tuple(metrics), baseline=payload.get("baseline"))


@dataclass(frozen=True)
class CampaignMember:
    """One named scenario of a campaign."""

    id: str
    scenario: Scenario

    def __post_init__(self) -> None:
        _check_name(self.id, "member id")
        _require(
            isinstance(self.scenario, Scenario),
            f"member {self.id!r} scenario must be a Scenario, "
            f"got {type(self.scenario).__name__}",
        )

    def to_dict(self) -> dict[str, Any]:
        return {"id": self.id, "scenario": self.scenario.to_dict()}

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "CampaignMember":
        if not isinstance(payload, Mapping):
            raise CampaignError(
                f"campaign member must be a mapping, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - {"id", "scenario"})
        _require(not unknown, f"unknown campaign member field(s): {unknown}")
        _require("id" in payload, "campaign member needs an 'id'")
        _require("scenario" in payload, "campaign member needs a 'scenario'")
        return CampaignMember(
            id=payload["id"], scenario=Scenario.from_dict(payload["scenario"])
        )


@dataclass(frozen=True)
class Campaign:
    """A declarative multi-scenario study.

    ``seed`` of ``None`` leaves every member scenario's own seed in place;
    a non-``None`` override is applied to every member that has a seed.
    ``executor``/``workers`` select the shared pool the members fan over —
    member-level executors are always normalized to serial, because the
    campaign owns the parallelism.
    """

    name: str
    members: tuple[CampaignMember, ...]
    executor: str = "serial"
    workers: int | None = None
    seed: int | None = None
    comparison: ComparisonSpec = ComparisonSpec()

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        _check_name(self.name, "campaign name")
        _require(len(self.members) > 0, "a campaign needs at least one member")
        for member in self.members:
            _require(
                isinstance(member, CampaignMember),
                f"campaign members must be CampaignMember instances, "
                f"got {type(member).__name__}",
            )
        ids = [member.id for member in self.members]
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        _require(not duplicates, f"duplicate member ids: {', '.join(duplicates)}")
        _require(
            self.executor in EXECUTORS,
            f"unknown executor {self.executor!r}; available: {list(EXECUTORS)}",
        )
        if self.workers is not None:
            _require(
                isinstance(self.workers, int)
                and not isinstance(self.workers, bool)
                and self.workers >= 1,
                f"workers must be an integer >= 1, got {self.workers!r}",
            )
            _require(
                self.executor != "serial",
                "workers requires a pool executor (process or thread)",
            )
        _require(
            self.seed is None
            or (isinstance(self.seed, int) and not isinstance(self.seed, bool)),
            f"seed must be an integer or null, got {self.seed!r}",
        )
        _require(
            isinstance(self.comparison, ComparisonSpec),
            f"comparison must be a ComparisonSpec, "
            f"got {type(self.comparison).__name__}",
        )
        _require(
            self.comparison.baseline is None or self.comparison.baseline in ids,
            f"comparison baseline {self.comparison.baseline!r} is not a member "
            f"id; members: {ids}",
        )

    # ------------------------------------------------------------------
    def resolved_scenarios(self) -> tuple[Scenario, ...]:
        """Member scenarios with the shared overrides applied.

        A pure function of the campaign alone: the seed override is
        written into every member that has the field, and member-level
        executors are normalized to serial (the campaign pool owns the
        parallelism) — so the resolved scenarios, and therefore the
        member reports, never depend on the backend the campaign happens
        to run on.
        """
        resolved: list[Scenario] = []
        for member in self.members:
            scenario = member.scenario
            names = {spec.name for spec in dataclasses.fields(scenario)}
            updates: dict[str, Any] = {}
            if self.seed is not None and "seed" in names:
                updates["seed"] = self.seed
            if "executor" in names:
                updates["executor"] = "serial"
            if "workers" in names:
                updates["workers"] = None
            if updates:
                scenario = dataclasses.replace(scenario, **updates)
            resolved.append(scenario)
        return tuple(resolved)

    def execution_normalized(self) -> "Campaign":
        """Copy of this campaign with the execution backend reset.

        The backend (executor/workers) shapes *how* a campaign runs, never
        *what* it produces; reports embed this normalized form so their
        JSON is byte-identical across backends.
        """
        return dataclasses.replace(self, executor="serial", workers=None)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return versioned_payload(
            {
                "type": "campaign",
                "name": self.name,
                "members": [member.to_dict() for member in self.members],
                "executor": self.executor,
                "workers": self.workers,
                "seed": self.seed,
                "comparison": self.comparison.to_dict(),
            }
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "Campaign":
        """Decode a campaign payload, rejecting unknown versions and fields."""
        if not isinstance(payload, Mapping):
            raise CampaignError(
                f"campaign payload must be a mapping, got {type(payload).__name__}"
            )
        try:
            data = migrate_payload(payload, "campaign")
        except PayloadVersionError as exc:
            raise CampaignError(str(exc)) from None
        type_tag = data.pop("type", "campaign")
        _require(
            type_tag == "campaign",
            f"expected a 'campaign' payload, got type={type_tag!r}",
        )
        known = {"name", "members", "executor", "workers", "seed", "comparison"}
        unknown = sorted(set(data) - known)
        _require(
            not unknown,
            f"unknown campaign field(s): {unknown}; expected a subset of {sorted(known)}",
        )
        _require("name" in data, "campaign payload needs a 'name'")
        members_payload = data.get("members")
        _require(
            isinstance(members_payload, (list, tuple)) and len(members_payload) > 0,
            "campaign payload needs a non-empty 'members' list",
        )
        members = tuple(CampaignMember.from_dict(entry) for entry in members_payload)
        comparison = (
            ComparisonSpec.from_dict(data["comparison"])
            if data.get("comparison") is not None
            else ComparisonSpec()
        )
        try:
            return Campaign(
                name=data["name"],
                members=members,
                executor=data.get("executor", "serial"),
                workers=data.get("workers"),
                seed=data.get("seed"),
                comparison=comparison,
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, CampaignError):
                raise
            raise CampaignError(f"invalid campaign: {exc}") from exc

    @staticmethod
    def from_json(text: str) -> "Campaign":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"campaign JSON does not parse: {exc}") from exc
        return Campaign.from_dict(payload)

    @staticmethod
    def from_file(path: str | Path) -> "Campaign":
        return Campaign.from_json(Path(path).read_text())

    @classmethod
    def from_scenario_dir(
        cls, directory: str | Path, name: str | None = None
    ) -> "Campaign":
        """Build an ad-hoc campaign from a directory of scenario JSONs.

        Every ``*.json`` file (sorted by name) becomes one member whose id
        is the file stem — the headless batch mode: point it at a config
        directory and the whole directory runs as one campaign.
        """
        base = Path(directory)
        files = sorted(base.glob("*.json"))
        if not files:
            raise CampaignError(f"no scenario JSON files found in {base}")
        members = []
        for path in files:
            try:
                members.append(
                    CampaignMember(id=path.stem, scenario=Scenario.from_file(path))
                )
            except ScenarioError as exc:
                raise CampaignError(f"{path}: {exc}") from exc
        if name is None:
            name = re.sub(r"[^A-Za-z0-9._-]+", "-", base.name).strip("-._") or "campaign"
        return cls(name=name, members=tuple(members))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _execute_scenario(scenario: Scenario) -> RunReport:
    """Run one member scenario; module-level so process pools can pickle it."""
    return Runner().run(scenario)


def _cached_member_report(directory: Path, scenario: Scenario) -> RunReport | None:
    """A saved report whose digest matches the resolved scenario, or None.

    The lookup key is :func:`repro.api.runner.report_stem` — the same
    content-addressed filename ``RunReport.save`` writes — and the hit is
    confirmed by comparing the saved report's embedded scenario
    (execution-normalized) against the resolved member scenario.  Runs
    are deterministic, so a confirmed hit is exactly what re-running
    would produce; the report is re-stamped with the resolved scenario so
    the campaign report stays byte-identical to an uncached run.
    """
    path = directory / f"{report_stem(scenario)}.json"
    if not path.is_file():
        return None
    try:
        saved = RunReport.load(path)
    except ScenarioError:
        return None
    if execution_normalized(saved.scenario) != execution_normalized(scenario):
        return None
    return RunReport(scenario=scenario, text=saved.text, metrics=saved.metrics)


@dataclass(frozen=True)
class CampaignReport:
    """Everything a campaign produced: member reports plus the comparison.

    The embedded campaign is execution-normalized (serial/no workers), so
    the serialized report is byte-identical regardless of the backend the
    campaign ran on.
    """

    campaign: Campaign
    reports: tuple[RunReport, ...]
    comparison: Mapping[str, Any]
    comparison_text: str

    @property
    def text(self) -> str:
        """The full rendered study: every member artifact + the comparison."""
        sections = [
            f"=== {member.id} [{report.scenario.kind}] ===\n{report.text}"
            for member, report in zip(self.campaign.members, self.reports)
        ]
        sections.append(
            f"=== cross-scenario comparison ===\n{self.comparison_text}"
        )
        return "\n\n".join(sections)

    def report_for(self, member_id: str) -> RunReport:
        """The member report with the given id."""
        for member, report in zip(self.campaign.members, self.reports):
            if member.id == member_id:
                return report
        raise CampaignError(
            f"campaign {self.campaign.name!r} has no member {member_id!r}; "
            f"available: {[m.id for m in self.campaign.members]}"
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return versioned_payload(
            {
                "type": "campaign-report",
                "campaign": self.campaign.to_dict(),
                "reports": [report.to_dict() for report in self.reports],
                "comparison": dict(self.comparison),
                "comparison_text": self.comparison_text,
            }
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, directory: str | Path) -> Path:
        """Persist the report as ``<directory>/<campaign name>.json``.

        Re-saving the same campaign's report overwrites (runs are
        deterministic); a target holding anything else raises
        :class:`CampaignError` instead of silently clobbering it.
        """
        return write_guarded_json(
            Path(directory) / f"{self.campaign.name}.json",
            self.to_json() + "\n",
            lambda existing: Campaign.from_dict(existing["campaign"]) == self.campaign,
            CampaignError,
            "campaign",
        )

    @staticmethod
    def load(path: str | Path) -> "CampaignReport":
        """Rebuild a report previously written by :meth:`save`."""
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise CampaignError(
                f"campaign report {path} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, Mapping):
            raise CampaignError(
                f"campaign report {path} must hold a JSON object, "
                f"got {type(payload).__name__}"
            )
        try:
            data = migrate_payload(payload, "campaign report")
        except PayloadVersionError as exc:
            raise CampaignError(f"campaign report {path}: {exc}") from None
        type_tag = data.get("type", "campaign-report")
        _require(
            type_tag == "campaign-report",
            f"expected a 'campaign-report' payload, got type={type_tag!r}",
        )
        try:
            return CampaignReport(
                campaign=Campaign.from_dict(data["campaign"]),
                reports=tuple(
                    RunReport.from_dict(entry) for entry in data["reports"]
                ),
                comparison=data["comparison"],
                comparison_text=data["comparison_text"],
            )
        except KeyError as exc:
            raise CampaignError(
                f"campaign report {path} is missing key {exc}"
            ) from None


class CampaignRunner:
    """Facade executing campaigns over one shared executor pool.

    ``reuse_saved`` (opt-in) points at a directory of saved ``RunReport``
    JSONs (``RunReport.save`` output, or a previous campaign's
    ``--save``-ed member reports): members whose saved report digest
    already matches their resolved scenario are loaded instead of re-run,
    and only the cache misses fan over the pool.  Runs are deterministic
    and backend-independent, so a confirmed cache hit cannot change the
    report.

    >>> from repro.api import Campaign, CampaignRunner
    >>> campaign = Campaign.from_file("examples/campaigns/fig7-fig10-study.json")
    >>> report = CampaignRunner().run(campaign)
    >>> print(report.comparison_text)       # the cross-scenario table
    >>> report.save("results")              # one self-describing artifact
    """

    def __init__(self, reuse_saved: str | Path | None = None):
        self._reuse_saved = None if reuse_saved is None else Path(reuse_saved)

    def run(self, campaign: Campaign) -> CampaignReport:
        """Execute every member and assemble the :class:`CampaignReport`.

        Members fan over the campaign's executor/workers pool as
        independent tasks and are reassembled in member order, so the
        report is byte-identical for every backend and worker count.
        """
        scenarios = campaign.resolved_scenarios()
        reports: list[RunReport | None] = [None] * len(scenarios)
        if self._reuse_saved is not None:
            for index, scenario in enumerate(scenarios):
                reports[index] = _cached_member_report(self._reuse_saved, scenario)
        pending = [i for i, report in enumerate(reports) if report is None]
        if pending:
            backend = executor_by_name(campaign.executor, workers=campaign.workers)
            fresh = backend.map(_execute_scenario, [scenarios[i] for i in pending])
            if len(fresh) != len(pending):  # pragma: no cover - defensive
                raise RuntimeError(
                    f"executor {campaign.executor!r} returned {len(fresh)} "
                    f"reports for {len(pending)} scenarios"
                )
            for index, report in zip(pending, fresh):
                reports[index] = report
        comparison_text, comparison = build_comparison(
            [member.id for member in campaign.members],
            reports,
            campaign.comparison.metrics,
            baseline=campaign.comparison.baseline,
        )
        return CampaignReport(
            campaign=campaign.execution_normalized(),
            reports=tuple(reports),
            comparison=comparison,
            comparison_text=comparison_text,
        )


def run_campaign(
    campaign: Campaign, reuse_saved: str | Path | None = None
) -> CampaignReport:
    """Module-level convenience wrapper around :meth:`CampaignRunner.run`."""
    return CampaignRunner(reuse_saved=reuse_saved).run(campaign)
