"""Parameter sweeps with replications for the figure experiments.

A sweep varies the number of requesting connections (the x axis of every
figure) for one or more scenario variants (the curves: speed values, angle
values, distance values, or controllers) and averages each point over several
independent replications.

Replications are mutually independent — each derives its random streams from
``(seed, replication)`` alone — so the sweep flattens every
``(variant, request count, replication)`` combination into one task list and
hands it to a pluggable :class:`~repro.simulation.executor.SweepExecutor`.
The serial backend reproduces the historical strictly-sequential behaviour;
the process-pool backend fans the tasks across cores.  Either way the tasks
carry their full seeded configuration and the results are reassembled in
task order, so the returned :class:`SweepResult` is identical for every
backend and worker count.

Aggregation is columnar: workers emit compact counter rows
(:class:`~repro.analysis.frame.FrameRow`), the executor's ``map_reduce``
folds them into chunk-local :class:`~repro.analysis.frame.MetricsFrame`
column stores (inside the worker on the process pool, so no run output is
ever pickled back to the parent), and the per-point statistics come out
of :meth:`MetricsFrame.group_reduce` — bit-identical to the historical
``aggregate_runs``/``aggregate_network_runs`` loops.  The assembled sweep
result carries the frame on its ``frame`` field.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..analysis.frame import FrameReducer, FrameRow, MetricsFrame
from .batch import ControllerFactory, run_batch_experiment, run_batch_experiment_row
from .config import BatchExperimentConfig, NetworkExperimentConfig, PAPER_REQUEST_COUNTS
from .engine import run_network_experiment_row
from .executor import SerialExecutor, SweepExecutor, executor_by_name
from .results import AggregatedResult, NetworkAggregatedResult, RunResult
from .shard import run_coupled_sharded_network_experiment_row

__all__ = [
    "SweepPoint",
    "SweepCurve",
    "SweepResult",
    "ReplicationTask",
    "run_acceptance_sweep",
    "NetworkSweepSpec",
    "NetworkReplicationTask",
    "NetworkSweepPoint",
    "NetworkSweepCurve",
    "NetworkSweepResult",
    "run_network_sweep",
    "run_coupled_sharded_network_sweep",
    "PAPER_NETWORK_ARRIVAL_RATES",
]

#: Default per-cell arrival rates (calls/s) of the network sweep: spans the
#: lightly loaded regime through saturation of the 7-cell topology.
PAPER_NETWORK_ARRIVAL_RATES: tuple[float, ...] = (0.01, 0.02, 0.03, 0.04, 0.05)


@dataclass(frozen=True)
class SweepPoint:
    """One (x, y) point of a figure curve with its replication spread."""

    request_count: int
    acceptance_percentage: float
    std_percentage: float
    replications: int


@dataclass(frozen=True)
class SweepCurve:
    """One labelled curve (e.g. "speed=60 km/h" or "FACS")."""

    label: str
    controller: str
    points: tuple[SweepPoint, ...]

    def __post_init__(self) -> None:
        # Intern the strings so equal-valued results serialise to identical
        # bytes whether the runs executed in-process or in a worker pool
        # (unpickled worker strings are otherwise distinct objects and break
        # pickle's memo sharing).
        object.__setattr__(self, "label", sys.intern(self.label))
        object.__setattr__(self, "controller", sys.intern(self.controller))
        # Indexed lookup for point_at(); setdefault keeps the first point per
        # request count, matching the historical linear-scan semantics.
        index: dict[int, SweepPoint] = {}
        for point in self.points:
            index.setdefault(point.request_count, point)
        object.__setattr__(self, "_point_index", index)

    def acceptance_series(self) -> list[float]:
        return [point.acceptance_percentage for point in self.points]

    def request_counts(self) -> list[int]:
        return [point.request_count for point in self.points]

    def point_at(self, request_count: int) -> SweepPoint:
        try:
            return self._point_index[request_count]
        except KeyError:
            raise KeyError(
                f"curve {self.label!r} has no point at {request_count} requests"
            ) from None

    def mean_acceptance(self) -> float:
        """Average acceptance percentage across the whole curve."""
        series = self.acceptance_series()
        return sum(series) / len(series)


@dataclass(frozen=True)
class SweepResult:
    """A family of curves sharing the same x axis (one per figure).

    ``frame`` carries the underlying columnar record store (one row per
    replication) when the sweep ran through the frame path; it is excluded
    from equality so codec round-trips of the rendered curves still
    compare equal.
    """

    name: str
    curves: tuple[SweepCurve, ...]
    frame: MetricsFrame | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Indexed lookup for curve(); first curve wins on duplicate labels,
        # matching the historical linear-scan semantics.
        index: dict[str, SweepCurve] = {}
        for curve in self.curves:
            index.setdefault(curve.label, curve)
        object.__setattr__(self, "_curve_index", index)

    def curve(self, label: str) -> SweepCurve:
        try:
            return self._curve_index[label]
        except KeyError:
            raise KeyError(
                f"sweep {self.name!r} has no curve {label!r}; "
                f"available: {[c.label for c in self.curves]}"
            ) from None

    def labels(self) -> list[str]:
        return [curve.label for curve in self.curves]


@dataclass(frozen=True)
class ReplicationTask:
    """One fully seeded replication of one sweep point.

    Self-contained and picklable (given a picklable controller factory), so
    it can be executed in any process in any order.
    """

    label: str
    request_count: int
    replication: int
    config: BatchExperimentConfig
    controller_factory: ControllerFactory


def _execute_replication(task: ReplicationTask) -> RunResult:
    """Run one replication; module-level so process pools can pickle it."""
    return run_batch_experiment(task.config, task.controller_factory).result


def _execute_replication_row(task: ReplicationTask) -> FrameRow:
    """Run one replication, returning only its compact counter row."""
    return run_batch_experiment_row(task.config, task.controller_factory, label=task.label)


def _sweep_ordinals(
    n_curves: int, n_points: int, runs_per_point: int
) -> tuple[np.ndarray, np.ndarray]:
    """(curve, point) ordinals of a curve-major, point-minor task list."""
    curve = np.repeat(np.arange(n_curves, dtype=np.int64), n_points * runs_per_point)
    point = np.tile(
        np.repeat(np.arange(n_points, dtype=np.int64), runs_per_point), n_curves
    )
    return curve, point


def _resolve_executor(executor: SweepExecutor | str | None) -> SweepExecutor:
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, str):
        return executor_by_name(executor)
    if isinstance(executor, SweepExecutor):
        return executor
    raise TypeError(
        f"executor must be a SweepExecutor, an executor name or None, "
        f"got {type(executor).__name__}"
    )


def run_acceptance_sweep(
    name: str,
    variants: Mapping[str, tuple[BatchExperimentConfig, ControllerFactory]],
    request_counts: Sequence[int] = PAPER_REQUEST_COUNTS,
    replications: int = 10,
    executor: SweepExecutor | str | None = None,
) -> SweepResult:
    """Run the acceptance-vs-requests sweep for several scenario variants.

    ``variants`` maps a curve label to a (base config, controller factory)
    pair; for each requested connection count, ``replications`` independent
    runs (different seeds) are executed and averaged.  ``executor`` selects
    the backend the replications run on (``None``/"serial" for in-process
    order, "process" or a :class:`ProcessPoolSweepExecutor` for a worker
    pool); the result is identical for every backend.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if not variants:
        raise ValueError("at least one variant is required")
    if not request_counts:
        raise ValueError("at least one request count is required")
    backend = _resolve_executor(executor)

    tasks: list[ReplicationTask] = []
    for label, (base_config, controller_factory) in variants.items():
        for request_count in request_counts:
            for replication in range(replications):
                config = base_config.with_requests(request_count).with_seed(
                    base_config.seed, replication=replication
                )
                tasks.append(
                    ReplicationTask(
                        label=label,
                        request_count=request_count,
                        replication=replication,
                        config=config,
                        controller_factory=controller_factory,
                    )
                )

    backend.warm_up(
        f"acceptance sweep {name!r}",
        [
            (factory, config.effective_traffic_mix().bandwidth_by_code().tolist())
            for config, factory in variants.values()
        ],
    )
    frame = backend.map_reduce(_execute_replication_row, tasks, FrameReducer("batch"))
    if len(frame) != len(tasks):  # pragma: no cover - defensive
        raise RuntimeError(
            f"executor {backend.name!r} returned {len(frame)} rows "
            f"for {len(tasks)} tasks"
        )

    # Group by (curve, point) ordinals — the same nested order the tasks
    # were generated in, so the statistics match the historical
    # aggregate_runs() walk bit for bit.
    frame = frame.with_ordinals(
        *_sweep_ordinals(len(variants), len(request_counts), replications)
    )
    groups = frame.group_reduce(("curve", "point"))
    curves: list[SweepCurve] = []
    for curve_index, label in enumerate(variants):
        points: list[SweepPoint] = []
        controller_name = ""
        for point_index, request_count in enumerate(request_counts):
            group = groups[curve_index * len(request_counts) + point_index]
            aggregated: AggregatedResult = group.to_aggregated_result()
            controller_name = aggregated.controller
            points.append(
                SweepPoint(
                    request_count=request_count,
                    acceptance_percentage=aggregated.mean_acceptance_percentage,
                    std_percentage=aggregated.std_acceptance_percentage,
                    replications=aggregated.replications,
                )
            )
        curves.append(SweepCurve(label=label, controller=controller_name, points=tuple(points)))
    return SweepResult(name=name, curves=tuple(curves), frame=frame)


# ----------------------------------------------------------------------
# Multi-cell network sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NetworkSweepSpec:
    """Declarative description of a multi-cell network sweep.

    One curve per controller, one point per per-cell arrival rate, each
    point averaged over ``replications`` independent runs of the full
    mobility/handoff simulation.  Every ``(controller, rate, replication)``
    combination is an independent task, so the sweep parallelises over the
    same :class:`~repro.simulation.executor.SweepExecutor` backends as the
    single-cell figures.
    """

    name: str
    controllers: Mapping[str, ControllerFactory]
    arrival_rates: Sequence[float] = PAPER_NETWORK_ARRIVAL_RATES
    replications: int = 5
    base_config: NetworkExperimentConfig = field(default_factory=NetworkExperimentConfig)

    def __post_init__(self) -> None:
        if not self.controllers:
            raise ValueError("at least one controller is required")
        if not self.arrival_rates:
            raise ValueError("at least one arrival rate is required")
        if any(rate <= 0 for rate in self.arrival_rates):
            raise ValueError(f"arrival rates must be positive, got {self.arrival_rates}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")

    def tasks(self) -> list["NetworkReplicationTask"]:
        """Flatten the sweep into its independent, fully seeded tasks."""
        tasks: list[NetworkReplicationTask] = []
        for label, controller_factory in self.controllers.items():
            for rate in self.arrival_rates:
                for replication in range(self.replications):
                    config = self.base_config.with_arrival_rate(rate).with_seed(
                        self.base_config.seed, replication=replication
                    )
                    tasks.append(
                        NetworkReplicationTask(
                            label=label,
                            arrival_rate_per_cell_per_s=rate,
                            replication=replication,
                            config=config,
                            controller_factory=controller_factory,
                        )
                    )
        return tasks


@dataclass(frozen=True)
class NetworkReplicationTask:
    """One fully seeded replication of one network sweep point.

    Self-contained and picklable (given a picklable controller factory), so
    it can be executed in any process or thread in any order.
    """

    label: str
    arrival_rate_per_cell_per_s: float
    replication: int
    config: NetworkExperimentConfig
    controller_factory: ControllerFactory


def _execute_network_replication_row(task: NetworkReplicationTask) -> FrameRow:
    """Run one network replication, returning only its compact counter row.

    This is the worker function of the frame path: process-pool workers
    fold these rows into a chunk frame instead of pickling
    :class:`NetworkRunOutput` trees back to the parent.
    """
    return run_network_experiment_row(
        task.config, task.controller_factory, label=task.label
    )


@dataclass(frozen=True)
class NetworkSweepPoint:
    """One point of a network sweep curve: QoS means at one arrival rate."""

    arrival_rate_per_cell_per_s: float
    acceptance_percentage: float
    std_percentage: float
    blocking_probability: float
    dropping_probability: float
    handoff_failure_ratio: float
    mean_occupancy_bu: float
    replications: int


@dataclass(frozen=True)
class NetworkSweepCurve:
    """One controller's curve across the arrival-rate axis."""

    label: str
    controller: str
    points: tuple[NetworkSweepPoint, ...]

    def __post_init__(self) -> None:
        # Intern the strings so equal-valued results serialise to identical
        # bytes whether the runs executed in-process or in a worker pool
        # (see SweepCurve).
        object.__setattr__(self, "label", sys.intern(self.label))
        object.__setattr__(self, "controller", sys.intern(self.controller))
        index: dict[float, NetworkSweepPoint] = {}
        for point in self.points:
            index.setdefault(point.arrival_rate_per_cell_per_s, point)
        object.__setattr__(self, "_point_index", index)

    def arrival_rates(self) -> list[float]:
        return [point.arrival_rate_per_cell_per_s for point in self.points]

    def acceptance_series(self) -> list[float]:
        return [point.acceptance_percentage for point in self.points]

    def blocking_series(self) -> list[float]:
        return [point.blocking_probability for point in self.points]

    def dropping_series(self) -> list[float]:
        return [point.dropping_probability for point in self.points]

    def handoff_failure_series(self) -> list[float]:
        return [point.handoff_failure_ratio for point in self.points]

    def point_at(self, arrival_rate_per_cell_per_s: float) -> NetworkSweepPoint:
        try:
            return self._point_index[arrival_rate_per_cell_per_s]
        except KeyError:
            raise KeyError(
                f"curve {self.label!r} has no point at arrival rate "
                f"{arrival_rate_per_cell_per_s}"
            ) from None


@dataclass(frozen=True)
class NetworkSweepResult:
    """A family of per-controller QoS curves over the arrival-rate axis.

    ``frame`` carries the underlying columnar record store (one row per
    run) when the sweep ran through the frame path; excluded from
    equality so codec round-trips of the rendered curves compare equal.
    """

    name: str
    curves: tuple[NetworkSweepCurve, ...]
    frame: MetricsFrame | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        index: dict[str, NetworkSweepCurve] = {}
        for curve in self.curves:
            index.setdefault(curve.label, curve)
        object.__setattr__(self, "_curve_index", index)

    def curve(self, label: str) -> NetworkSweepCurve:
        try:
            return self._curve_index[label]
        except KeyError:
            raise KeyError(
                f"network sweep {self.name!r} has no curve {label!r}; "
                f"available: {[c.label for c in self.curves]}"
            ) from None

    def labels(self) -> list[str]:
        return [curve.label for curve in self.curves]


def _assemble_network_result(
    spec: NetworkSweepSpec, frame: MetricsFrame, name: str
) -> NetworkSweepResult:
    """Reduce the sweep's frame (rows in task order) into point statistics.

    Shared by the coupled and coupled-sharded sweeps.  The (curve, point)
    ordinal grouping walks the rows in exactly the nested task-generation
    order, so the statistics match the historical aggregate_network_runs()
    walk bit for bit.
    """
    frame = frame.with_ordinals(
        *_sweep_ordinals(
            len(spec.controllers), len(spec.arrival_rates), spec.replications
        )
    )
    groups = frame.group_reduce(("curve", "point"))
    n_rates = len(spec.arrival_rates)
    curves: list[NetworkSweepCurve] = []
    for curve_index, label in enumerate(spec.controllers):
        points: list[NetworkSweepPoint] = []
        controller_name = ""
        for point_index, rate in enumerate(spec.arrival_rates):
            group = groups[curve_index * n_rates + point_index]
            aggregated: NetworkAggregatedResult = group.to_network_aggregated_result()
            controller_name = aggregated.controller
            points.append(
                NetworkSweepPoint(
                    arrival_rate_per_cell_per_s=rate,
                    acceptance_percentage=aggregated.mean_acceptance_percentage,
                    std_percentage=aggregated.std_acceptance_percentage,
                    blocking_probability=aggregated.mean_blocking_probability,
                    dropping_probability=aggregated.mean_dropping_probability,
                    handoff_failure_ratio=aggregated.mean_handoff_failure_ratio,
                    mean_occupancy_bu=aggregated.mean_occupancy_bu,
                    replications=aggregated.replications,
                )
            )
        curves.append(
            NetworkSweepCurve(label=label, controller=controller_name, points=tuple(points))
        )
    return NetworkSweepResult(name=name, curves=tuple(curves), frame=frame)


def run_network_sweep(
    spec: NetworkSweepSpec,
    executor: SweepExecutor | str | None = None,
) -> NetworkSweepResult:
    """Run the multi-cell QoS sweep described by ``spec``.

    Every ``(controller, arrival rate, replication)`` combination becomes an
    independent task whose randomness derives solely from its own seeded
    config, and the results are reassembled in task order — so the returned
    :class:`NetworkSweepResult` is byte-identical for every backend
    (serial, process pool or thread pool) and worker count.
    """
    backend = _resolve_executor(executor)
    tasks = spec.tasks()
    bandwidths = spec.base_config.effective_traffic_mix().bandwidth_by_code().tolist()
    backend.warm_up(
        f"network sweep {spec.name!r}",
        [(factory, bandwidths) for factory in spec.controllers.values()],
    )
    frame = backend.map_reduce(
        _execute_network_replication_row, tasks, FrameReducer("network")
    )
    if len(frame) != len(tasks):  # pragma: no cover - defensive
        raise RuntimeError(
            f"executor {backend.name!r} returned {len(frame)} rows "
            f"for {len(tasks)} tasks"
        )
    return _assemble_network_result(spec, frame, spec.name)


def run_coupled_sharded_network_sweep(
    spec: NetworkSweepSpec,
    executor: SweepExecutor | str | None = None,
    window_s: float | None = None,
) -> NetworkSweepResult:
    """Run the sweep of ``spec`` on the message-passing sharded engine.

    Each replication runs the full multi-cell topology through
    :class:`~repro.simulation.shard.CoupledShardedNetworkSimulation`, where
    every cell is its own shard and departing calls travel between shards
    as explicit handoff messages.  Parallelism therefore lives *inside*
    each run — ``executor`` selects where the shards execute (in-process
    for serial and thread, or process-worker blocks) — and the replications
    of the sweep run one after the other.  The conservative window protocol
    keeps the result byte-identical for every backend and worker count.
    """
    tasks = spec.tasks()
    reducer = FrameReducer("network")
    rows = [
        run_coupled_sharded_network_experiment_row(
            task.config,
            task.controller_factory,
            label=task.label,
            executor=executor,
            window_s=window_s,
        )
        for task in tasks
    ]
    frame = reducer.merge([reducer.fold(rows)])
    if len(frame) != len(tasks):  # pragma: no cover - defensive
        raise RuntimeError(
            f"sharded engine returned {len(frame)} rows for {len(tasks)} tasks"
        )
    return _assemble_network_result(spec, frame, f"{spec.name}-coupled-sharded")
