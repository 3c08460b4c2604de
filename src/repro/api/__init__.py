"""repro.api — the canonical entry point for running experiments.

Every experiment in this repository is a *data object*: a
:class:`Scenario` describing workload, topology, controllers, executor,
seeds and replications, with a lossless
``to_dict``/``from_dict``/JSON round-trip.  The :class:`Runner` facade
turns any scenario into a :class:`RunReport` carrying both the rendered
ASCII artifact and machine-readable metrics, persistable as a single JSON
document.  The CLI (``python -m repro``) is a thin shell over this module.

Quick tour
----------

>>> from repro.api import Runner, Scenario, scenario_for
>>> report = Runner().run(scenario_for("fig10-facs-vs-scc"))
>>> print(report.text)                       # the paper artifact
>>> report.metrics["curves"][0]["label"]     # machine-readable results
'FACS'
>>> path = report.save("results")            # scenario + metrics + text

Scenarios serialize to plain JSON, so the same experiment can live in a
config file and run headless::

    python -m repro run --config scenario.json --format json --save results

Families of scenarios are first-class too: a :class:`Campaign` bundles
ordered member scenarios with shared overrides and a comparison spec, and
:class:`CampaignRunner` fans the members over one shared executor pool
into a :class:`CampaignReport` (per-member reports + cross-scenario
comparison tables)::

    python -m repro campaign --config examples/campaigns/fig7-fig10-study.json

All payloads are schema-versioned (see ``docs/SCHEMA.md``): codecs stamp
:data:`SCHEMA_VERSION`, migrate older versions explicitly and reject
unknown ones loudly.

Extension points are string-keyed registries (see
:mod:`repro.api.registry`): :data:`CONTROLLERS` for admission controllers,
:data:`SCENARIOS` for experiment defaults, :data:`COMPARISON_METRICS` for
cross-scenario comparison columns, plus the executor registry re-exported
here.  Registering a controller makes it addressable from
scenario JSON immediately — the coupled-sharded sweep and the
trace-driven workload kinds plug in through the same seams.
"""

from ..analysis.frame import FrameGroup, FrameRow, MetricsFrame
from ..analysis.io import (
    SCHEMA_VERSION,
    PayloadVersionError,
    metrics_frame_from_dict,
    metrics_frame_to_dict,
)
from ..registry import Registry, RegistryError
from ..simulation.executor import EXECUTORS
from ..workloads import (
    DEFAULT_SERVICE_CLASSES,
    WORKLOADS,
    ServiceClassDef,
    WorkloadError,
    WorkloadSpec,
    register_workload,
    resolve_workload,
)
from .campaign import (
    Campaign,
    CampaignError,
    CampaignMember,
    CampaignReport,
    CampaignRunner,
    ComparisonSpec,
    run_campaign,
)
from .registry import (
    ABLATIONS,
    ARTIFACTS,
    CONTROLLERS,
    DEFAULT_NETWORK_CONTROLLERS,
    FIGURES,
    SCENARIOS,
    SURFACES,
    FigureDef,
    SurfaceDef,
    controller_factory,
    register_controller,
    register_scenario,
    scenario_for,
    scenario_ids,
)
from .report import COMPARISON_METRICS, build_comparison, comparison_metric
from .runner import (
    Runner,
    RunReport,
    execution_normalized,
    register_runner,
    report_stem,
    run,
)
from .scenario import (
    SCENARIO_KINDS,
    AblationScenario,
    ArtifactScenario,
    CoupledShardedNetworkSweepScenario,
    FigureSweepScenario,
    NetworkIntegrationScenario,
    NetworkSweepScenario,
    Scenario,
    ScenarioError,
    ServiceReplayScenario,
    SurfaceScenario,
    TraceArrivalsScenario,
    TuningScenario,
    scenario_kind,
)

__all__ = [
    # facade
    "Runner",
    "RunReport",
    "run",
    "register_runner",
    "execution_normalized",
    "report_stem",
    # campaigns
    "Campaign",
    "CampaignError",
    "CampaignMember",
    "CampaignReport",
    "CampaignRunner",
    "ComparisonSpec",
    "run_campaign",
    "COMPARISON_METRICS",
    "comparison_metric",
    "build_comparison",
    # schema versioning
    "SCHEMA_VERSION",
    "PayloadVersionError",
    # columnar result core
    "MetricsFrame",
    "FrameGroup",
    "FrameRow",
    "metrics_frame_to_dict",
    "metrics_frame_from_dict",
    # scenarios
    "Scenario",
    "ScenarioError",
    "ArtifactScenario",
    "SurfaceScenario",
    "FigureSweepScenario",
    "NetworkSweepScenario",
    "CoupledShardedNetworkSweepScenario",
    "AblationScenario",
    "NetworkIntegrationScenario",
    "TraceArrivalsScenario",
    "ServiceReplayScenario",
    "TuningScenario",
    "SCENARIO_KINDS",
    "scenario_kind",
    # registries
    "Registry",
    "RegistryError",
    "CONTROLLERS",
    "EXECUTORS",
    "FIGURES",
    "FigureDef",
    "ARTIFACTS",
    "SURFACES",
    "SurfaceDef",
    "ABLATIONS",
    "SCENARIOS",
    "register_controller",
    "register_scenario",
    "controller_factory",
    "scenario_for",
    "scenario_ids",
    "DEFAULT_NETWORK_CONTROLLERS",
    # workloads
    "WORKLOADS",
    "WorkloadSpec",
    "WorkloadError",
    "ServiceClassDef",
    "DEFAULT_SERVICE_CLASSES",
    "register_workload",
    "resolve_workload",
]
