"""Declarative, serializable experiment scenarios.

A :class:`Scenario` is a frozen dataclass describing *everything* needed to
reproduce one experiment — workload, topology, controllers, executor,
seeds and replications — with no behaviour attached.  Scenarios
round-trip losslessly through ``to_dict``/``from_dict`` (and JSON), so an
experiment can live in a config file, travel over a queue, or be archived
next to its results.  :class:`repro.api.Runner` turns a scenario into a
:class:`repro.api.RunReport`.

Each concrete scenario kind is registered in :data:`SCENARIO_KINDS` under
its ``kind`` discriminator; ``Scenario.from_dict`` dispatches on that key
and rejects unknown kinds and unknown fields loudly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Mapping

from ..analysis.io import PayloadVersionError, migrate_payload, versioned_payload
from ..registry import Registry, RegistryError
from ..cellular.network import hex_cell_count
from ..simulation.config import PAPER_REQUEST_COUNTS
from ..simulation.executor import EXECUTORS
from ..simulation.sweep import PAPER_NETWORK_ARRIVAL_RATES
from ..fuzzy.definition import DefinitionError
from ..tuning.space import ParameterSpec, SearchSpace, TuningError
from ..tuning.strategies import STRATEGIES
from ..workloads import WORKLOADS
from .report import COMPARISON_METRICS
from .registry import (
    ABLATIONS,
    ARTIFACTS,
    CONTROLLERS,
    DEFAULT_NETWORK_CONTROLLERS,
    FIGURES,
    SURFACES,
    is_definition_controller,
    register_scenario,
)

__all__ = [
    "Scenario",
    "ScenarioError",
    "SCENARIO_KINDS",
    "scenario_kind",
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
]


class ScenarioError(ValueError):
    """Raised when a scenario is invalid or a payload cannot be decoded."""


#: ``kind`` discriminator → concrete scenario class.
SCENARIO_KINDS: Registry[type] = Registry("scenario kind")


def scenario_kind(name: str):
    """Class decorator registering a scenario class under its ``kind``."""

    def decorator(cls: type) -> type:
        cls.kind = name
        SCENARIO_KINDS.register(name, cls)
        return cls

    return decorator


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _check_int(value: object, what: str, minimum: int) -> None:
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
        f"{what} must be an integer >= {minimum}, got {value!r}",
    )


def _check_optional_int(value: object, what: str, minimum: int) -> None:
    if value is not None:
        _check_int(value, what, minimum)


def _check_seed(seed: object) -> None:
    _require(
        seed is None or (isinstance(seed, int) and not isinstance(seed, bool)),
        f"seed must be an integer or null, got {seed!r}",
    )


def _check_executor(executor: str, workers: int | None) -> None:
    _require(
        executor in EXECUTORS,
        f"unknown executor {executor!r}; available: {list(EXECUTORS)}",
    )
    _check_optional_int(workers, "workers", 1)
    if workers is not None:
        _require(
            executor != "serial",
            "workers requires a pool executor (process or thread)",
        )


def _check_controllers(controllers: tuple[str, ...]) -> None:
    _require(len(controllers) > 0, "at least one controller is required")
    duplicates = sorted({c for c in controllers if controllers.count(c) > 1})
    _require(not duplicates, f"duplicate controllers: {', '.join(duplicates)}")
    for name in controllers:
        if is_definition_controller(name):
            # A definition-file id: existence is checked here so a typo'd
            # path fails at scenario validation, not mid-run; the payload
            # itself is parsed when the controller factory resolves.
            _require(
                Path(name).is_file(),
                f"controller definition file not found: {name!r}",
            )
            continue
        _require(
            name in CONTROLLERS,
            f"unknown controller {name!r}; available: {list(CONTROLLERS)} "
            f"or a path to an FLC-definition JSON file",
        )


def _check_workload(workload: str | None) -> None:
    if workload is None:
        return
    _require(
        isinstance(workload, str) and bool(workload),
        f"workload must be a registered name, a .json path or null, "
        f"got {workload!r}",
    )
    if workload.endswith(".json"):
        _require(
            Path(workload).is_file(),
            f"workload definition file not found: {workload!r}",
        )
        return
    _require(
        workload in WORKLOADS,
        f"unknown workload {workload!r}; available: {list(WORKLOADS)} "
        f"or a path to a workload-definition JSON file",
    )


def _normalize_workload(scenario: "Scenario") -> None:
    """Validate ``scenario.workload`` and fold ``"poisson"`` to ``None``.

    The registered ``"poisson"`` workload reproduces the legacy arrival
    draws bit for bit, so the two spellings are one scenario identity —
    normalising here keeps default payloads, report stems and overwrite
    guards byte-identical to the pre-workload schema.
    """
    _check_workload(scenario.workload)
    if scenario.workload == "poisson":
        object.__setattr__(scenario, "workload", None)


def _check_finite(value: float, what: str) -> None:
    _require(
        isinstance(value, (int, float)) and math.isfinite(value),
        f"{what} must be a finite number, got {value!r}",
    )


def _as_tuple(value: Any) -> Any:
    return tuple(value) if isinstance(value, (list, tuple)) else value


@dataclass(frozen=True)
class Scenario:
    """Base class of every declarative experiment description."""

    #: Discriminator stamped into every serialized payload.
    kind: ClassVar[str] = ""

    #: Field names dropped from payloads while equal to ``None``.  Fields
    #: added to existing kinds after their schema froze live here, so
    #: default payloads stay byte-identical to the pre-extension schema
    #: (``from_dict`` fills absent fields from the dataclass defaults).
    _OMIT_WHEN_NONE: ClassVar[frozenset[str]] = frozenset()

    #: Same byte-stability contract for boolean opt-ins: dropped from
    #: payloads while equal to ``False``.
    _OMIT_WHEN_FALSE: ClassVar[frozenset[str]] = frozenset()

    # ------------------------------------------------------------------
    @property
    def slug(self) -> str:
        """Filesystem-friendly identifier used for saved reports."""
        return self.kind

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON dict form (tuples become lists, ``None`` stays null).

        Payloads are stamped with the current ``schema_version`` (see
        :mod:`repro.analysis.io` for the versioning policy); ``from_dict``
        migrates older versions and rejects unknown ones.
        """
        payload: dict[str, Any] = {"kind": self.kind}
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if value is None and spec.name in self._OMIT_WHEN_NONE:
                continue
            if value is False and spec.name in self._OMIT_WHEN_FALSE:
                continue
            payload[spec.name] = list(value) if isinstance(value, tuple) else value
        return versioned_payload(payload)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    # ------------------------------------------------------------------
    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "Scenario":
        """Decode a scenario payload, dispatching on its ``kind``.

        Unknown kinds, unknown fields and invalid values all raise
        :class:`ScenarioError` with the offending names spelled out.
        """
        if not isinstance(payload, Mapping):
            raise ScenarioError(
                f"scenario payload must be a mapping, got {type(payload).__name__}"
            )
        try:
            data = migrate_payload(payload, "scenario")
        except PayloadVersionError as exc:
            raise ScenarioError(str(exc)) from None
        kind = data.pop("kind", None)
        if kind is None:
            raise ScenarioError(
                f"scenario payload needs a 'kind' key; known kinds: {list(SCENARIO_KINDS)}"
            )
        try:
            cls = SCENARIO_KINDS.get(kind)
        except RegistryError as exc:
            raise ScenarioError(str(exc)) from None
        known = {spec.name for spec in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ScenarioError(
                f"unknown field(s) for scenario kind {kind!r}: {unknown}; "
                f"expected a subset of {sorted(known)}"
            )
        kwargs = {name: _as_tuple(value) for name, value in data.items()}
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"invalid {kind!r} scenario: {exc}") from exc

    @staticmethod
    def from_json(text: str) -> "Scenario":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario JSON does not parse: {exc}") from exc
        return Scenario.from_dict(payload)

    @staticmethod
    def from_file(path: str | Path) -> "Scenario":
        return Scenario.from_json(Path(path).read_text())


# ----------------------------------------------------------------------
# Concrete kinds
# ----------------------------------------------------------------------
@scenario_kind("artifact")
@dataclass(frozen=True)
class ArtifactScenario(Scenario):
    """A static paper artifact (rule tables, membership-function figures)."""

    artifact: str

    def __post_init__(self) -> None:
        _require(
            self.artifact in ARTIFACTS,
            f"unknown artifact {self.artifact!r}; available: {list(ARTIFACTS)}",
        )

    @property
    def slug(self) -> str:
        return self.artifact


@scenario_kind("surface")
@dataclass(frozen=True)
class SurfaceScenario(Scenario):
    """A control-surface rendering of FLC1 or FLC2.

    ``fixed_value`` pins the surface's third input (FLC1: the user-to-BS
    distance in km, FLC2: the requested bandwidth in BU); ``None`` uses the
    registered default.
    """

    surface: str
    resolution: int = 31
    fixed_value: float | None = None

    def __post_init__(self) -> None:
        _require(
            self.surface in SURFACES,
            f"unknown surface {self.surface!r}; available: {list(SURFACES)}",
        )
        _require(
            isinstance(self.resolution, int) and self.resolution >= 2,
            f"resolution must be an integer >= 2, got {self.resolution!r}",
        )
        if self.fixed_value is not None:
            _check_finite(self.fixed_value, "fixed_value")

    @property
    def slug(self) -> str:
        return f"surface-{self.surface}"


@scenario_kind("figure-sweep")
@dataclass(frozen=True)
class FigureSweepScenario(Scenario):
    """One of the paper's acceptance-vs-requests figures (Figs. 7–10).

    ``curve_values`` overrides the per-curve parameter of Figs. 7–9 (the
    fixed speeds, angles or distances); Fig. 10 compares FACS vs SCC and
    accepts no curve values.  ``seed`` of ``None`` keeps the figure's
    canonical seed so default scenarios reproduce the paper artifacts.
    ``workload`` names a registered arrival-process workload (or a
    workload-definition ``*.json``); ``None``/``"poisson"`` keeps the
    paper's Poisson arrivals draw for draw.
    """

    figure: str
    request_counts: tuple[int, ...] = PAPER_REQUEST_COUNTS
    replications: int = 10
    seed: int | None = None
    curve_values: tuple[float, ...] | None = None
    executor: str = "serial"
    workers: int | None = None
    workload: str | None = None

    _OMIT_WHEN_NONE: ClassVar[frozenset[str]] = frozenset({"workload"})

    def __post_init__(self) -> None:
        _normalize_workload(self)
        object.__setattr__(self, "request_counts", tuple(self.request_counts))
        if self.curve_values is not None:
            object.__setattr__(self, "curve_values", tuple(self.curve_values))
        _require(
            self.figure in FIGURES,
            f"unknown figure {self.figure!r}; available: {list(FIGURES)}",
        )
        _require(
            len(self.request_counts) > 0, "at least one request count is required"
        )
        for count in self.request_counts:
            _require(
                isinstance(count, int) and count >= 0,
                f"request counts must be non-negative integers, got {count!r}",
            )
        _check_int(self.replications, "replications", 1)
        _check_seed(self.seed)
        if self.curve_values is not None:
            _require(
                FIGURES.get(self.figure).curve_kwarg is not None,
                f"figure {self.figure!r} has a fixed curve set and accepts no "
                f"curve_values",
            )
            _require(
                len(self.curve_values) > 0, "curve_values must not be empty"
            )
            for value in self.curve_values:
                _check_finite(value, "curve values")
        _check_executor(self.executor, self.workers)

    @property
    def slug(self) -> str:
        return self.figure


@scenario_kind("network-sweep")
@dataclass(frozen=True)
class NetworkSweepScenario(Scenario):
    """The multi-cell QoS sweep: controllers × arrival rates × replications.

    Defaults mirror ``DEFAULT_NETWORK_BASE_CONFIG`` — the canonical 7-cell
    topology of the Section 4 QoS claim.  ``workload`` names a registered
    arrival-process workload (``mmpp``, ``flash-crowd``, …) or a
    workload-definition ``*.json``; ``None``/``"poisson"`` keeps the
    paper's Poisson arrivals draw for draw.
    """

    controllers: tuple[str, ...] = DEFAULT_NETWORK_CONTROLLERS
    arrival_rates: tuple[float, ...] = PAPER_NETWORK_ARRIVAL_RATES
    replications: int = 5
    duration_s: float = 1200.0
    rings: int = 1
    cell_radius_km: float = 1.5
    mean_speed_kmh: float = 60.0
    seed: int = 20070627
    executor: str = "serial"
    workers: int | None = None
    workload: str | None = None

    _OMIT_WHEN_NONE: ClassVar[frozenset[str]] = frozenset({"workload"})

    def __post_init__(self) -> None:
        _normalize_workload(self)
        object.__setattr__(self, "controllers", tuple(self.controllers))
        object.__setattr__(self, "arrival_rates", tuple(self.arrival_rates))
        _check_controllers(self.controllers)
        _require(
            len(self.arrival_rates) > 0, "at least one arrival rate is required"
        )
        for rate in self.arrival_rates:
            _check_finite(rate, "arrival rates")
            _require(rate > 0, f"arrival rates must be positive, got {rate}")
        _check_int(self.replications, "replications", 1)
        _check_finite(self.duration_s, "duration_s")
        _require(self.duration_s > 0, f"duration_s must be positive, got {self.duration_s}")
        _require(
            isinstance(self.rings, int) and self.rings >= 0,
            f"rings must be a non-negative integer, got {self.rings!r}",
        )
        _check_finite(self.cell_radius_km, "cell_radius_km")
        _require(
            self.cell_radius_km > 0,
            f"cell_radius_km must be positive, got {self.cell_radius_km}",
        )
        _check_finite(self.mean_speed_kmh, "mean_speed_kmh")
        _require(
            self.mean_speed_kmh >= 0,
            f"mean_speed_kmh must be non-negative, got {self.mean_speed_kmh}",
        )
        _require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool),
            f"seed must be an integer, got {self.seed!r}",
        )
        _check_executor(self.executor, self.workers)

    @property
    def slug(self) -> str:
        return "net-sweep"


@scenario_kind("network-sweep-coupled-sharded")
@dataclass(frozen=True)
class CoupledShardedNetworkSweepScenario(NetworkSweepScenario):
    """Message-passing sharded variant of the multi-cell QoS sweep.

    Every cell of the topology runs as its own shard and departing calls
    travel between shards as explicit handoff messages, drained in a
    canonical order at conservative time-window barriers.  ``executor``
    here selects where the *shards* run within each replication, not a
    replication pool: in-process for serial and thread (the shards are pure
    Python, so threads would gain nothing under the GIL), or in blocks
    owned by worker processes.  Results are byte-identical for every
    backend and worker count.  ``window_s``
    overrides the barrier interval (default: the mobility update
    interval); ``cell_capacities`` optionally gives every cell its own
    capacity in spiral (cell-id) order.
    """

    window_s: float | None = None
    cell_capacities: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.window_s is not None:
            _check_finite(self.window_s, "window_s")
            _require(
                self.window_s > 0, f"window_s must be positive, got {self.window_s}"
            )
        if self.cell_capacities is not None:
            object.__setattr__(self, "cell_capacities", tuple(self.cell_capacities))
            expected = hex_cell_count(self.rings)
            _require(
                len(self.cell_capacities) == expected,
                f"cell_capacities must list one capacity per cell "
                f"({expected} for rings={self.rings}), got {len(self.cell_capacities)}",
            )
            for capacity in self.cell_capacities:
                _require(
                    isinstance(capacity, int)
                    and not isinstance(capacity, bool)
                    and capacity > 0,
                    f"cell capacities must be positive integers, got {capacity!r}",
                )

    @property
    def slug(self) -> str:
        return "net-sweep-coupled-sharded"


@scenario_kind("ablation")
@dataclass(frozen=True)
class AblationScenario(Scenario):
    """One of the sensitivity ablations (not in the paper).

    ``request_counts`` of ``None`` keeps the ablation's canonical x axis.
    """

    ablation: str
    request_counts: tuple[int, ...] | None = None
    replications: int = 5
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.request_counts is not None:
            object.__setattr__(self, "request_counts", tuple(self.request_counts))
        _require(
            self.ablation in ABLATIONS,
            f"unknown ablation {self.ablation!r}; available: {list(ABLATIONS)}",
        )
        if self.request_counts is not None:
            _require(
                len(self.request_counts) > 0,
                "at least one request count is required",
            )
            for count in self.request_counts:
                _require(
                    isinstance(count, int) and count >= 0,
                    f"request counts must be non-negative integers, got {count!r}",
                )
        _check_int(self.replications, "replications", 1)
        _check_seed(self.seed)

    @property
    def slug(self) -> str:
        return f"abl-{self.ablation}"


@scenario_kind("network-integration")
@dataclass(frozen=True)
class NetworkIntegrationScenario(Scenario):
    """One multi-cell integration run per controller (handoffs, dropping)."""

    controllers: tuple[str, ...] = ("FACS", "SCC")
    arrival_rate_per_cell_per_s: float = 0.02
    duration_s: float = 3600.0
    rings: int = 1
    cell_radius_km: float = 2.0
    mean_speed_kmh: float = 40.0
    seed: int = 20070626

    def __post_init__(self) -> None:
        object.__setattr__(self, "controllers", tuple(self.controllers))
        _check_controllers(self.controllers)
        _check_finite(self.arrival_rate_per_cell_per_s, "arrival_rate_per_cell_per_s")
        _require(
            self.arrival_rate_per_cell_per_s > 0,
            f"arrival_rate_per_cell_per_s must be positive, "
            f"got {self.arrival_rate_per_cell_per_s}",
        )
        _check_finite(self.duration_s, "duration_s")
        _require(self.duration_s > 0, f"duration_s must be positive, got {self.duration_s}")
        _require(
            isinstance(self.rings, int) and self.rings >= 0,
            f"rings must be a non-negative integer, got {self.rings!r}",
        )
        _check_finite(self.cell_radius_km, "cell_radius_km")
        _require(
            self.cell_radius_km > 0,
            f"cell_radius_km must be positive, got {self.cell_radius_km}",
        )
        _check_finite(self.mean_speed_kmh, "mean_speed_kmh")
        _require(
            self.mean_speed_kmh >= 0,
            f"mean_speed_kmh must be non-negative, got {self.mean_speed_kmh}",
        )
        _require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool),
            f"seed must be an integer, got {self.seed!r}",
        )

    @property
    def slug(self) -> str:
        return "net-integration"


@scenario_kind("trace-arrivals")
@dataclass(frozen=True)
class TraceArrivalsScenario(Scenario):
    """An offline, trace-driven request stream admitted request by request.

    The full arrival trace (times, service classes, GPS observations,
    holding times) is materialized up front from the seed, then admitted
    through the FACS controller with the batch experiment's semantics:
    each request is scored at its own arrival against the occupancy it
    meets — the headless pipeline for replaying recorded workloads.
    Optional ``speed_kmh``/``angle_deg``/``distance_km`` pin the
    corresponding GPS attribute for every request (``None`` draws it from
    the paper's ranges, as in the figure sweeps).

    ``stream=True`` runs the columnar kernel of
    :func:`~repro.simulation.trace.run_trace_arrivals` (no per-request
    ``Call`` objects; FLC1 once per block, then, in traces of at least
    1,024 requests, the certified decision screen's cell tables per
    request); ``stream=False`` runs the
    discrete-event batch experiment, the kernel's oracle.  Both give the
    same report text and metrics (apart from the ``stream`` provenance
    key), so the flag only trades wall clock — use it for
    million-request traces.
    """

    request_count: int = 200
    #: Validated (>= 1) and kept for payload compatibility; it has no
    #: effect, since every request is decided at its own arrival.
    batch_size: int = 16
    arrival_window_s: float = 2000.0
    speed_kmh: float | None = None
    angle_deg: float | None = None
    distance_km: float | None = None
    seed: int = 20070625
    workload: str | None = None
    stream: bool = False

    _OMIT_WHEN_NONE: ClassVar[frozenset[str]] = frozenset({"workload"})
    _OMIT_WHEN_FALSE: ClassVar[frozenset[str]] = frozenset({"stream"})

    def __post_init__(self) -> None:
        _normalize_workload(self)
        _check_int(self.request_count, "request_count", 1)
        _check_int(self.batch_size, "batch_size", 1)
        _require(
            isinstance(self.stream, bool),
            f"stream must be a boolean, got {self.stream!r}",
        )
        _check_finite(self.arrival_window_s, "arrival_window_s")
        _require(
            self.arrival_window_s > 0,
            f"arrival_window_s must be positive, got {self.arrival_window_s}",
        )
        for name in ("speed_kmh", "angle_deg", "distance_km"):
            value = getattr(self, name)
            if value is not None:
                _check_finite(value, name)
        _require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool),
            f"seed must be an integer, got {self.seed!r}",
        )

    @property
    def slug(self) -> str:
        return "trace-arrivals"


@scenario_kind("service-replay")
@dataclass(frozen=True)
class ServiceReplayScenario(Scenario):
    """A seeded arrival trace through the online admission service.

    The same workload vocabulary as :class:`TraceArrivalsScenario`, but
    executed by the asyncio micro-batching server
    (:mod:`repro.service`) on a virtual clock: one submitter task per
    request sleeps until its arrival instant, the server coalesces
    pending requests into micro-batches (flush on ``max_batch`` or
    ``max_wait_ms``, whichever first) and sheds beyond
    ``queue_capacity``.  Replay is deterministic — same scenario ⇒
    byte-identical service report, independent of asyncio scheduling
    order — which is what lets an *online* code path live under the same
    reproducibility gates as the offline pipelines.
    """

    request_count: int = 400
    arrival_window_s: float = 120.0
    max_batch: int = 8
    max_wait_ms: float = 2000.0
    queue_capacity: int = 64
    speed_kmh: float | None = None
    angle_deg: float | None = None
    distance_km: float | None = None
    seed: int = 20070628
    workload: str | None = None

    _OMIT_WHEN_NONE: ClassVar[frozenset[str]] = frozenset({"workload"})

    def __post_init__(self) -> None:
        _normalize_workload(self)
        _check_int(self.request_count, "request_count", 1)
        _check_finite(self.arrival_window_s, "arrival_window_s")
        _require(
            self.arrival_window_s > 0,
            f"arrival_window_s must be positive, got {self.arrival_window_s}",
        )
        _check_int(self.max_batch, "max_batch", 1)
        _check_finite(self.max_wait_ms, "max_wait_ms")
        _require(
            self.max_wait_ms > 0,
            f"max_wait_ms must be positive, got {self.max_wait_ms}",
        )
        _check_int(self.queue_capacity, "queue_capacity", 1)
        for name in ("speed_kmh", "angle_deg", "distance_km"):
            value = getattr(self, name)
            if value is not None:
                _check_finite(value, name)
        _require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool),
            f"seed must be an integer, got {self.seed!r}",
        )

    @property
    def slug(self) -> str:
        return "service-replay"


#: Tiny default search space: two candidate peaks for FLC1's *Middle*
#: speed triangle — enough for a smoke-test `repro tune` with no config.
DEFAULT_TUNING_PARAMETERS = (
    ParameterSpec("mf.S.M.1", choices=(25.0, 35.0)),
)


@scenario_kind("tuning")
@dataclass(frozen=True)
class TuningScenario(Scenario):
    """An automated rule-base tuning run over a controller definition.

    ``controller`` names the base :class:`~repro.fuzzy.definition.FLCDefinition`
    the search starts from — the built-in ``"FLC1"``/``"FLC2"`` exports or a
    path to an FLC-definition JSON file — and ``parameters`` declares the
    tunable membership break points and rule weights
    (:class:`~repro.tuning.space.ParameterSpec` entries).  The named
    strategy proposes candidate value vectors, every candidate is scored
    by the paper's acceptance sweep (``request_counts`` x ``replications``,
    seeded) through the registered ``objective`` comparison metric, and
    generations fan over the chosen executor.  Results are byte-identical
    at any worker count.
    """

    controller: str = "FLC1"
    parameters: tuple[ParameterSpec, ...] = DEFAULT_TUNING_PARAMETERS
    strategy: str = "grid"
    objective: str = "mean_acceptance"
    direction: str = "maximize"
    request_counts: tuple[int, ...] = (10, 30)
    replications: int = 2
    population: int = 8
    generations: int = 6
    max_trials: int | None = None
    seed: int = 20070801
    executor: str = "serial"
    workers: int | None = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.controller, str) and bool(self.controller),
            f"controller must be a non-empty string, got {self.controller!r}",
        )
        if self.controller.endswith(".json"):
            _require(
                Path(self.controller).is_file(),
                f"controller definition file not found: {self.controller!r}",
            )
        else:
            _require(
                self.controller in ("FLC1", "FLC2"),
                f"controller must be 'FLC1', 'FLC2' or a path to an "
                f"FLC-definition JSON file, got {self.controller!r}",
            )
        try:
            space = SearchSpace(tuple(self.parameters))
            space.validate_against(self.base_definition())
        except (TuningError, DefinitionError) as exc:
            raise ScenarioError(f"invalid tuning parameters: {exc}") from exc
        object.__setattr__(self, "parameters", space.specs)
        _require(
            self.strategy in STRATEGIES,
            f"unknown tuning strategy {self.strategy!r}; "
            f"available: {STRATEGIES.names()}",
        )
        _require(
            self.objective in COMPARISON_METRICS,
            f"unknown tuning objective {self.objective!r}; "
            f"available: {COMPARISON_METRICS.names()}",
        )
        _require(
            self.direction in ("maximize", "minimize"),
            f"direction must be 'maximize' or 'minimize', "
            f"got {self.direction!r}",
        )
        _require(bool(self.request_counts), "request_counts must not be empty")
        for value in self.request_counts:
            _check_int(value, "request_counts entry", 1)
        _check_int(self.replications, "replications", 1)
        _check_int(self.population, "population", 1)
        _check_int(self.generations, "generations", 1)
        _check_optional_int(self.max_trials, "max_trials", 1)
        _check_seed(self.seed)
        _check_executor(self.executor, self.workers)

    def search_space(self) -> SearchSpace:
        """The validated :class:`SearchSpace` over the base definition."""
        return SearchSpace(self.parameters)

    def base_definition(self):
        """Resolve ``controller`` to the definition the search starts from."""
        from ..analysis.io import read_flc_definition_json
        from ..cac.facs.definitions import builtin_definitions

        if self.controller.endswith(".json"):
            return read_flc_definition_json(Path(self.controller))
        return builtin_definitions()[self.controller]

    def to_dict(self) -> dict[str, Any]:
        payload = super().to_dict()
        payload["parameters"] = [spec.to_dict() for spec in self.parameters]
        return payload

    @property
    def slug(self) -> str:
        return f"tune-{Path(self.controller).stem.lower()}"


# ----------------------------------------------------------------------
# Built-in default scenarios, one per `python -m repro list` entry.
# Registration order matches the EXPERIMENTS inventory.
# ----------------------------------------------------------------------
@register_scenario("table1-frb1")
def _table1_scenario() -> Scenario:
    return ArtifactScenario(artifact="table1-frb1")


@register_scenario("table2-frb2")
def _table2_scenario() -> Scenario:
    return ArtifactScenario(artifact="table2-frb2")


@register_scenario("fig5-flc1-mf")
def _fig5_scenario() -> Scenario:
    return ArtifactScenario(artifact="fig5-flc1-mf")


@register_scenario("fig6-flc2-mf")
def _fig6_scenario() -> Scenario:
    return ArtifactScenario(artifact="fig6-flc2-mf")


@register_scenario("fig7-speed")
def _fig7_scenario() -> Scenario:
    return FigureSweepScenario(figure="fig7-speed")


@register_scenario("fig8-angle")
def _fig8_scenario() -> Scenario:
    return FigureSweepScenario(figure="fig8-angle")


@register_scenario("fig9-distance")
def _fig9_scenario() -> Scenario:
    return FigureSweepScenario(figure="fig9-distance")


@register_scenario("fig10-facs-vs-scc")
def _fig10_scenario() -> Scenario:
    return FigureSweepScenario(figure="fig10-facs-vs-scc")


@register_scenario("abl-defuzz")
def _abl_defuzz_scenario() -> Scenario:
    return AblationScenario(ablation="defuzz")


@register_scenario("abl-threshold")
def _abl_threshold_scenario() -> Scenario:
    return AblationScenario(ablation="threshold")


@register_scenario("abl-baselines")
def _abl_baselines_scenario() -> Scenario:
    return AblationScenario(ablation="baselines")


@register_scenario("net-integration")
def _net_integration_scenario() -> Scenario:
    return NetworkIntegrationScenario()


@register_scenario("net-sweep")
def _net_sweep_scenario() -> Scenario:
    return NetworkSweepScenario()


@register_scenario("surface-flc1")
def _surface_flc1_scenario() -> Scenario:
    return SurfaceScenario(surface="flc1")


@register_scenario("surface-flc2")
def _surface_flc2_scenario() -> Scenario:
    return SurfaceScenario(surface="flc2")


@register_scenario("net-sweep-coupled-sharded")
def _net_sweep_coupled_sharded_scenario() -> Scenario:
    return CoupledShardedNetworkSweepScenario()


@register_scenario("trace-arrivals")
def _trace_arrivals_scenario() -> Scenario:
    return TraceArrivalsScenario()


@register_scenario("service-replay")
def _service_replay_scenario() -> Scenario:
    return ServiceReplayScenario()
