"""The Runner facade: ``run(scenario) -> RunReport``.

One entry point executes every scenario kind.  The returned
:class:`RunReport` carries both halves of an experiment's output — the
rendered ASCII artifact (exactly what the CLI prints) and machine-readable
metrics — and persists to ``results/`` as a single JSON document that also
embeds the scenario, so a saved report is a self-describing, re-runnable
record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from ..analysis.frame import MetricsFrame
from ..analysis.io import (
    PayloadVersionError,
    metrics_frame_to_dict,
    migrate_payload,
    network_sweep_result_to_dict,
    sweep_result_to_dict,
    versioned_payload,
    write_guarded_json,
)
from ..analysis.tables import format_table
from ..cac.facs.system import FACSConfig
from ..cellular.mobility import UserProfile
from ..cellular.network import hex_cell_count
from ..experiments.figures import render_acceptance_sweep
from ..experiments.network_sweep import (
    DEFAULT_NETWORK_BASE_CONFIG,
    network_sweep_spec,
    render_network_sweep,
)
from ..simulation.config import BatchExperimentConfig, NetworkExperimentConfig
from ..simulation.engine import NetworkRunOutput, run_network_experiment
from ..simulation.executor import SweepExecutor, executor_by_name
from ..simulation.sweep import (
    NetworkSweepResult,
    SweepResult,
    run_coupled_sharded_network_sweep,
    run_network_sweep,
)
from ..simulation.results import RunResult
from ..simulation.trace import TraceRunResult, run_trace_arrivals
from ..service.replay import run_service_replay
from ..service.server import ServiceConfig, ServiceReport, render_service_report
from ..tuning.engine import render_tuning_report, run_tuning
from ..workloads import resolve_workload
from .registry import (
    ABLATIONS,
    ARTIFACTS,
    FIGURES,
    SCENARIOS,
    SURFACES,
    controller_factory,
)
from .scenario import (
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
)

__all__ = [
    "Runner",
    "RunReport",
    "execution_normalized",
    "register_runner",
    "report_stem",
    "run",
]


@dataclass(frozen=True)
class RunReport:
    """Typed result of one scenario run.

    ``text`` is the rendered ASCII artifact — byte-identical to what the
    pre-redesign CLI printed for the equivalent command.  ``metrics`` is
    the machine-readable counterpart (plain-JSON types only).
    """

    scenario: Scenario
    text: str
    metrics: Mapping[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return versioned_payload(
            {
                "scenario": self.scenario.to_dict(),
                "metrics": dict(self.metrics),
                "text": self.text,
            }
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @property
    def stem(self) -> str:
        """Deterministic filename stem of this report.

        The registered default scenario of a slug keeps the plain slug
        (``fig7-speed.json``); any other parameterization appends a digest
        of its canonical scenario JSON (``fig7-speed-1a2b3c4d5e.json``), so
        two scenarios differing only in parameters can never map to the
        same file.  Execution-backend fields (executor/workers) are
        normalized out first — results are backend-independent, so runs of
        one experiment map to one file regardless of how they executed.
        """
        return report_stem(self.scenario)

    def save(self, directory: str | Path) -> Path:
        """Persist the report as ``<directory>/<stem>.json``.

        Re-saving the same scenario's report overwrites (runs are
        deterministic, and the execution backend is not part of a
        scenario's identity); a target file holding anything else raises
        :class:`ScenarioError` instead of silently clobbering it.
        """
        mine = _execution_normalized(self.scenario)
        return write_guarded_json(
            Path(directory) / f"{self.stem}.json",
            self.to_json() + "\n",
            lambda existing: (
                _execution_normalized(Scenario.from_dict(existing["scenario"])) == mine
            ),
            ScenarioError,
            "scenario",
        )

    @staticmethod
    def from_dict(payload: Mapping[str, Any], source: str = "payload") -> "RunReport":
        """Decode a report payload, migrating older schema versions."""
        if not isinstance(payload, Mapping):
            raise ScenarioError(
                f"run report {source} must be a mapping, "
                f"got {type(payload).__name__}"
            )
        try:
            data = migrate_payload(payload, "run report")
        except PayloadVersionError as exc:
            raise ScenarioError(f"run report {source}: {exc}") from None
        try:
            return RunReport(
                scenario=Scenario.from_dict(data["scenario"]),
                text=data["text"],
                metrics=data["metrics"],
            )
        except KeyError as exc:
            raise ScenarioError(
                f"run report {source} is missing key {exc}"
            ) from None

    @staticmethod
    def load(path: str | Path) -> "RunReport":
        """Rebuild a report previously written by :meth:`save`."""
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"report {path} is not valid JSON: {exc}") from exc
        return RunReport.from_dict(payload, source=str(path))


def execution_normalized(scenario: Scenario) -> Scenario:
    """Copy of ``scenario`` with execution-backend fields reset.

    Results are byte-identical for every backend and worker count, so the
    executor/workers fields shape *how* a scenario runs, never *what* it
    produces — filename identity, overwrite guards and the campaign
    member cache ignore them.
    """
    names = {spec.name for spec in fields(scenario)}
    updates: dict[str, Any] = {}
    if "executor" in names:
        updates["executor"] = "serial"
    if "workers" in names:
        updates["workers"] = None
    return replace(scenario, **updates) if updates else scenario


#: Backwards-compatible private alias (pre-refactor name).
_execution_normalized = execution_normalized


def report_stem(scenario: Scenario) -> str:
    """Deterministic report filename stem of ``scenario``.

    Shared by :attr:`RunReport.stem` and the campaign member cache, so a
    saved report can be found again from the scenario alone.
    """
    normalized = execution_normalized(scenario)
    slug = normalized.slug
    for experiment_id in SCENARIOS.names():
        if SCENARIOS.get(experiment_id)() == normalized:
            return slug
    digest = hashlib.sha256(normalized.to_json(indent=None).encode()).hexdigest()[:10]
    return f"{slug}-{digest}"


Handler = Callable[[Scenario], tuple[str, dict[str, Any]]]
_HANDLERS: dict[type, Handler] = {}


def register_runner(scenario_cls: type):
    """Decorator registering the execution handler of a scenario class.

    The handler receives the scenario and returns ``(text, metrics)``.
    Together with :func:`repro.api.scenario.scenario_kind` this completes
    the extension path for new experiment kinds: register the dataclass
    for serialization, register its handler here, and
    :meth:`Runner.run` dispatches to it (subclasses inherit their parent's
    handler unless they register their own).
    """

    def decorator(handler: Handler) -> Handler:
        _HANDLERS[scenario_cls] = handler
        return handler

    return decorator


#: Internal alias kept for the built-in handlers below.
_handles = register_runner


class Runner:
    """Facade executing declarative scenarios.

    >>> from repro.api import Runner, scenario_for
    >>> report = Runner().run(scenario_for("table1-frb1"))
    >>> print(report.text)          # the paper artifact
    >>> report.save("results")      # persist artifact + metrics + scenario
    """

    def run(self, scenario: Scenario) -> RunReport:
        """Execute ``scenario`` and return its :class:`RunReport`."""
        handler = next(
            (
                _HANDLERS[cls]
                for cls in type(scenario).__mro__
                if cls in _HANDLERS
            ),
            None,
        )
        if handler is None:
            raise ScenarioError(
                f"no runner is registered for scenario type "
                f"{type(scenario).__name__} (kind {scenario.kind!r}); "
                f"register one with repro.api.register_runner"
            )
        text, metrics = handler(scenario)
        return RunReport(scenario=scenario, text=text, metrics=metrics)


def run(scenario: Scenario) -> RunReport:
    """Module-level convenience wrapper around :meth:`Runner.run`."""
    return Runner().run(scenario)


# ----------------------------------------------------------------------
# Per-kind handlers
# ----------------------------------------------------------------------
def _build_executor(scenario: Any) -> SweepExecutor:
    return executor_by_name(scenario.executor, workers=scenario.workers)


def _sweep_metrics(result: SweepResult | NetworkSweepResult) -> dict[str, Any]:
    """Machine-readable metrics of a sweep: curves plus the columnar frame.

    The ``frame`` payload (schema-versioned ``metrics-frame``) is the
    replication-level record store behind the rendered curves — new in
    schema v2, additive, so every pre-frame consumer keeps working.
    """
    payload = (
        network_sweep_result_to_dict(result)
        if isinstance(result, NetworkSweepResult)
        else sweep_result_to_dict(result)
    )
    if result.frame is not None:
        payload["frame"] = metrics_frame_to_dict(result.frame)
    return payload


@_handles(ArtifactScenario)
def _run_artifact(scenario: ArtifactScenario) -> tuple[str, dict[str, Any]]:
    text = ARTIFACTS.get(scenario.artifact)()
    return text, {"type": "artifact", "artifact": scenario.artifact}


@_handles(SurfaceScenario)
def _run_surface(scenario: SurfaceScenario) -> tuple[str, dict[str, Any]]:
    definition = SURFACES.get(scenario.surface)
    fixed = (
        definition.default_fixed
        if scenario.fixed_value is None
        else scenario.fixed_value
    )
    xs, ys, values = definition.grid(
        **{definition.fixed_kwarg: fixed, "resolution": scenario.resolution}
    )
    text = definition.render_grid(xs, ys, values, **{definition.fixed_kwarg: fixed})
    metrics = {
        "type": "surface",
        "surface": scenario.surface,
        "fixed": {definition.fixed_kwarg: fixed},
        "x": xs,
        "y": ys,
        "values": values,
    }
    return text, metrics


@_handles(FigureSweepScenario)
def _run_figure_sweep(scenario: FigureSweepScenario) -> tuple[str, dict[str, Any]]:
    definition = FIGURES.get(scenario.figure)
    kwargs: dict[str, Any] = {
        "request_counts": scenario.request_counts,
        "replications": scenario.replications,
        "facs_config": FACSConfig(),
        "executor": _build_executor(scenario),
    }
    if scenario.seed is not None:
        kwargs["seed"] = scenario.seed
    if scenario.curve_values is not None:
        kwargs[definition.curve_kwarg] = scenario.curve_values
    if scenario.workload is not None:
        kwargs["workload"] = resolve_workload(scenario.workload)
    result = definition.reproduce(**kwargs)
    return definition.render(result), _sweep_metrics(result)


def _network_sweep_spec_for(scenario: NetworkSweepScenario):
    """Shared spec construction of the coupled and coupled-sharded network sweeps."""
    controllers = {
        name: controller_factory(name) for name in scenario.controllers
    }
    base_config = replace(
        DEFAULT_NETWORK_BASE_CONFIG,
        rings=scenario.rings,
        cell_radius_km=scenario.cell_radius_km,
        duration_s=scenario.duration_s,
        mean_speed_kmh=scenario.mean_speed_kmh,
        seed=scenario.seed,
        # Only the coupled-sharded scenario kind carries a per-cell
        # capacity map; the others keep the uniform default.
        cell_capacities=getattr(scenario, "cell_capacities", None),
        workload=resolve_workload(scenario.workload),
    )
    return network_sweep_spec(
        arrival_rates=scenario.arrival_rates,
        replications=scenario.replications,
        base_config=base_config,
        controllers=controllers,
    )


@_handles(NetworkSweepScenario)
def _run_network_sweep(scenario: NetworkSweepScenario) -> tuple[str, dict[str, Any]]:
    spec = _network_sweep_spec_for(scenario)
    result = run_network_sweep(spec, executor=_build_executor(scenario))
    return render_network_sweep(result), _sweep_metrics(result)


@_handles(CoupledShardedNetworkSweepScenario)
def _run_coupled_sharded_network_sweep(
    scenario: CoupledShardedNetworkSweepScenario,
) -> tuple[str, dict[str, Any]]:
    spec = _network_sweep_spec_for(scenario)
    result = run_coupled_sharded_network_sweep(
        spec, executor=_build_executor(scenario), window_s=scenario.window_s
    )
    metrics = _sweep_metrics(result)
    metrics["handoff_coupling"] = "messages"
    return render_network_sweep(result), metrics


def _render_ablation(result: SweepResult) -> str:
    """Generic table + plot rendering for the ablation sweeps."""
    return render_acceptance_sweep(
        result,
        f"{result.name} — acceptance percentage vs requesting connections",
        result.name,
    )


@_handles(AblationScenario)
def _run_ablation(scenario: AblationScenario) -> tuple[str, dict[str, Any]]:
    reproduce = ABLATIONS.get(scenario.ablation)
    kwargs: dict[str, Any] = {"replications": scenario.replications}
    if scenario.request_counts is not None:
        kwargs["request_counts"] = scenario.request_counts
    if scenario.seed is not None:
        kwargs["seed"] = scenario.seed
    result = reproduce(**kwargs)
    return _render_ablation(result), _sweep_metrics(result)


def _network_run_metrics(output: NetworkRunOutput) -> dict[str, Any]:
    metrics = output.result.metrics
    return {
        "requested": metrics.requested,
        "acceptance_percentage": metrics.acceptance_percentage,
        "blocking_probability": metrics.blocking_probability,
        "dropping_probability": metrics.dropping_probability,
        "handoff_attempts": output.handoff_attempts,
        "handoff_failure_ratio": output.handoff_failure_ratio,
        "time_average_occupancy_bu": output.time_average_occupancy_bu,
    }


@_handles(NetworkIntegrationScenario)
def _run_network_integration(
    scenario: NetworkIntegrationScenario,
) -> tuple[str, dict[str, Any]]:
    config = NetworkExperimentConfig(
        rings=scenario.rings,
        cell_radius_km=scenario.cell_radius_km,
        arrival_rate_per_cell_per_s=scenario.arrival_rate_per_cell_per_s,
        duration_s=scenario.duration_s,
        mean_speed_kmh=scenario.mean_speed_kmh,
        seed=scenario.seed,
    )
    per_controller: dict[str, dict[str, Any]] = {}
    outputs = []
    rows = []
    for name in scenario.controllers:
        output = run_network_experiment(config, controller_factory(name))
        outputs.append(output)
        numbers = _network_run_metrics(output)
        per_controller[name] = numbers
        rows.append(
            [
                name,
                numbers["requested"],
                f"{numbers['acceptance_percentage']:.1f}%",
                f"{numbers['blocking_probability']:.3f}",
                f"{numbers['dropping_probability']:.3f}",
                numbers["handoff_attempts"],
                f"{numbers['handoff_failure_ratio']:.3f}",
                f"{numbers['time_average_occupancy_bu']:.1f}",
            ]
        )
    text = format_table(
        [
            "Controller",
            "Requests",
            "Accepted",
            "P(block)",
            "P(drop)",
            "Handoffs",
            "Handoff fail",
            "Avg BU in use",
        ],
        rows,
        title=(
            f"{hex_cell_count(scenario.rings)}-cell network, "
            f"{scenario.duration_s:.0f}s of Poisson arrivals, "
            f"Gauss-Markov mobility"
        ),
    )
    frame = MetricsFrame.from_network_outputs(outputs, labels=list(scenario.controllers))
    metrics = {
        "type": "network-integration",
        "controllers": per_controller,
        "frame": metrics_frame_to_dict(frame),
    }
    return text, metrics


def _render_trace_arrivals(result: TraceRunResult) -> str:
    """A title and a one-line summary for the trace pipeline."""
    return (
        f"{result.controller} trace-driven admission\n\n"
        f"accepted {result.accepted}/{result.requested} requests "
        f"({result.acceptance_percentage:.1f}%), "
        f"peak occupancy {result.peak_occupancy_bu} BU"
    )


@_handles(TraceArrivalsScenario)
def _run_trace_arrivals(scenario: TraceArrivalsScenario) -> tuple[str, dict[str, Any]]:
    config = BatchExperimentConfig(
        request_count=scenario.request_count,
        arrival_window_s=scenario.arrival_window_s,
        user_profile=UserProfile(
            speed_kmh=scenario.speed_kmh,
            angle_deg=scenario.angle_deg,
            distance_km=scenario.distance_km,
        ),
        seed=scenario.seed,
        workload=resolve_workload(scenario.workload),
    )
    result = run_trace_arrivals(
        config,
        facs_config=FACSConfig(),
        stream=scenario.stream,
    )
    frame = MetricsFrame.from_run_results([result.to_run_result(seed=scenario.seed)])
    metrics = {
        "type": "trace-arrivals",
        "controller": result.controller,
        "requested": result.requested,
        "accepted": result.accepted,
        "acceptance_percentage": result.acceptance_percentage,
        "peak_occupancy_bu": result.peak_occupancy_bu,
        "frame": metrics_frame_to_dict(frame),
        # Provenance only: the kernel and its DES oracle give equal
        # results, so the key rides along just when the kernel ran
        # (keeping default reports byte-stable).
        **({"stream": True} if scenario.stream else {}),
    }
    return _render_trace_arrivals(result), metrics


def _service_run_result(report: ServiceReport, seed: int) -> RunResult:
    """The service session as a counter row for the columnar result store.

    Batching knobs and the latency/throughput observables ride as
    parameters, so a campaign frame over several batching configurations
    can ``group_reduce`` acceptance against them column-for-column.
    """
    return RunResult(
        controller=report.controller,
        metrics=report.metrics,
        parameters={
            "request_count": float(report.submitted),
            "max_batch": float(report.config.max_batch),
            "max_wait_ms": float(report.config.max_wait_ms),
            "queue_capacity": float(report.config.queue_capacity),
            "p50_latency_ms": report.latency.p50_ms,
            "p99_latency_ms": report.latency.p99_ms,
            "throughput_dps": report.throughput_dps,
        },
        seed=seed,
    )


@_handles(ServiceReplayScenario)
def _run_service_replay(scenario: ServiceReplayScenario) -> tuple[str, dict[str, Any]]:
    config = BatchExperimentConfig(
        request_count=scenario.request_count,
        arrival_window_s=scenario.arrival_window_s,
        user_profile=UserProfile(
            speed_kmh=scenario.speed_kmh,
            angle_deg=scenario.angle_deg,
            distance_km=scenario.distance_km,
        ),
        seed=scenario.seed,
        workload=resolve_workload(scenario.workload),
    )
    report = run_service_replay(
        config,
        service=ServiceConfig(
            max_batch=scenario.max_batch,
            max_wait_ms=scenario.max_wait_ms,
            queue_capacity=scenario.queue_capacity,
        ),
        facs_config=FACSConfig(),
    )
    frame = MetricsFrame.from_run_results([_service_run_result(report, scenario.seed)])
    metrics = {"type": "service-replay", **report.to_dict()}
    metrics["frame"] = metrics_frame_to_dict(frame)
    return render_service_report(report), metrics


@_handles(TuningScenario)
def _run_tuning(scenario: TuningScenario) -> tuple[str, dict[str, Any]]:
    report = run_tuning(
        scenario.base_definition(),
        scenario.search_space(),
        strategy=scenario.strategy,
        objective=scenario.objective,
        direction=scenario.direction,
        request_counts=scenario.request_counts,
        replications=scenario.replications,
        seed=scenario.seed,
        executor=_build_executor(scenario),
        population=scenario.population,
        generations=scenario.generations,
        max_trials=scenario.max_trials,
    )
    return render_tuning_report(report), report.to_dict()
