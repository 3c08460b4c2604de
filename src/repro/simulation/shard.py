"""Per-cell shard workers with message-passing handoffs.

The coupled :class:`~repro.simulation.engine.NetworkSimulation` runs the
whole hexagonal topology as one explicit event heap: a handoff is a
synchronous method call that touches two cells' state in the same process.
That is faithful but unscalable — the topology cannot be split across
workers because every cell shares one event list, one mobility stream and
one call-id counter.

This module is the distributed shape of the same experiment: every cell of
the topology runs as its own *shard* — an actor owning its cell, its
controller instance, its generator-process environment on :mod:`repro.des`
and its named random streams — and handoffs travel between shards as
explicit :class:`HandoffMessage` values through per-edge queues.  No state
is ever shared between shards.

Determinism is the headline guarantee, achieved with a conservative
time-window protocol:

* The coordinator advances simulated time in windows of ``window_s``
  (default: the mobility update interval).  Within a window every shard
  simulates independently; a call crossing a cell boundary releases its
  bandwidth at the source and becomes a buffered outbound message.
* At the window barrier the coordinator routes all messages, and each
  shard drains its inbound queue in the canonical
  ``(time, source_cell, call_id)`` order before simulating the next
  window.  The admission attempt at the target cell happens at the
  barrier instant.

Because each shard's evolution is a pure function of its seeded
configuration and its canonically ordered inbound messages, the run output
is **byte-identical across the serial, thread and process backends at any
worker count**.  At ``rings=0`` (a single cell, no handoffs) the shard
engine reproduces the coupled :func:`run_network_experiment` output
exactly, bit for bit — the anchor the equivalence tests lock down.  At
``rings>=1`` the results are *near* the coupled run but not identical, for
two documented reasons: the coupled engine draws all calls' mobility from
one shared stream in global event order (shards each own a per-cell
mobility stream), and handoff admission is deferred from the crossing
instant to the next window barrier (the call holds bandwidth in neither
cell while in transit, and its holding clock freezes until delivery).
``tests/simulation/test_shard.py`` quantifies the delta: per-cell new-call
arrival schedules are stream-identical to the coupled run at any rings.

Shards admit new calls and inbound handoffs through the same
:meth:`~repro.cac.base.AdmissionController.accepts` as the coupled engine,
so a FACS verdict is exact FLC1 plus one decision-screen cell lookup there
too.  Each worker process builds its own screen, and builds an (R, Cs)
table only once that pair has been asked about a dozen times, so a worker
that asks few verdicts mostly scores them exactly.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import pickle
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..analysis.frame import FrameRow, network_output_row
from ..cellular.calls import Call, CallType
from ..cellular.cell import Cell
from ..cellular.geometry import HexCoordinate, Point, hex_spiral
from ..cellular.metrics import CallMetrics, MetricsCollector
from ..cellular.mobility import GaussMarkovModel, MobileTerminal, UserState
from ..cellular.network import hex_cell_count
from ..cellular.traffic import ServiceClass
from ..des.environment import Environment
from ..des.rng import RandomStream, StreamFactory
from .config import NetworkExperimentConfig
from .engine import ControllerFactory, NetworkRunOutput
from .executor import (
    ProcessPoolSweepExecutor,
    SerialExecutor,
    SweepExecutionError,
    SweepExecutor,
    ThreadPoolSweepExecutor,
    executor_by_name,
)
from .results import RunResult

__all__ = [
    "HandoffMessage",
    "CellShard",
    "ShardOutcome",
    "CoupledShardedNetworkSimulation",
    "run_coupled_sharded_network_experiment",
    "run_coupled_sharded_network_experiment_row",
]

#: Width of each shard's call-id namespace.  Shard ``k`` (cell id ``k``)
#: issues ids ``(k-1) * _CALL_ID_NAMESPACE + 1, 2, 3, ...`` — globally
#: unique without coordination, and cell 1 issues the plain ``1, 2, 3,
#: ...`` sequence the coupled engine's per-run counter produces for a
#: single-cell topology (the rings=0 exactness anchor).
_CALL_ID_NAMESPACE = 1 << 40


@dataclass(frozen=True)
class HandoffMessage:
    """A departing call crossing a shard boundary, as an explicit message.

    Carries everything the target shard needs to re-materialise the call
    and its mobile terminal: the call's identity and service demand, how
    much holding time it has consumed, and the terminal's kinematic state
    at the crossing instant.  ``(time, source_cell, call_id)`` is the
    canonical drain order at the receiving shard — a total order, since a
    source shard emits at most one message per call per instant.
    """

    time: float
    source_cell: int
    target_cell: int
    call_id: int
    service: ServiceClass
    bandwidth_units: int
    holding_time_s: float
    elapsed_s: float
    requested_at: float
    handoff_count: int
    position_x: float
    position_y: float
    speed_kmh: float
    heading_deg: float

    @property
    def sort_key(self) -> tuple[float, int, int]:
        return (self.time, self.source_cell, self.call_id)


@dataclass(frozen=True)
class ShardOutcome:
    """Final per-shard statistics, summed by the coordinator."""

    cell_id: int
    controller: str
    counters: tuple[int, ...]
    handoff_attempts: int
    handoff_failures: int
    completed_calls: int
    dropped_calls: int
    occupancy_time_integral: float
    last_occupancy_sample: float
    #: Per-service-class counters (workload runs only), flattened
    #: class-major over :data:`repro.analysis.frame.CLASS_COUNTER_FIELDS`.
    class_values: tuple[float, ...] = ()


class CellShard:
    """One cell of the topology running as an independent actor.

    Owns a single :class:`~repro.cellular.cell.Cell`, a fresh controller
    instance, its own :class:`~repro.des.environment.Environment` and a
    :class:`~repro.des.rng.StreamFactory` seeded with the run's master
    seed — so the per-cell named streams (``arrivals-<id>``,
    ``class-<id>``, ``terminal-<id>``, ``holding-<id>``) are *the same
    streams* the coupled engine draws for that cell.  The only interface
    to the rest of the network is :meth:`step_to`: inbound handoff
    messages in, outbound handoff messages back.
    """

    def __init__(
        self,
        cell_id: int,
        config: NetworkExperimentConfig,
        controller_factory: ControllerFactory,
        spiral: list[HexCoordinate] | None = None,
    ):
        self._config = config
        if spiral is None:
            spiral = hex_spiral(HexCoordinate(0, 0), config.rings)
        #: Static topology knowledge: axial coordinate -> cell id for the
        #: whole layout, enough to classify a moved terminal as staying,
        #: handing off, or leaving coverage — without any other shard's state.
        self._cell_ids_by_coordinate = {
            coordinate: index for index, coordinate in enumerate(spiral, start=1)
        }
        self._cell = Cell(
            coordinate=spiral[cell_id - 1],
            radius_km=config.cell_radius_km,
            capacity_bu=config.capacity_for(cell_id - 1),
            cell_id=cell_id,
        )
        self._env = Environment()
        self._streams = StreamFactory(master_seed=config.stream_master_seed)
        self._call_ids = itertools.count(1)
        controller = controller_factory()
        controller.reset()
        self._controller = controller
        self._metrics = MetricsCollector()
        self._mobility = GaussMarkovModel(
            mean_speed_kmh=config.mean_speed_kmh,
            update_interval_s=config.mobility_update_s,
        )
        self._handoff_attempts = 0
        self._handoff_failures = 0
        self._completed = 0
        self._dropped = 0
        self._occupancy_time_integral = 0.0
        self._last_occupancy_sample = 0.0
        self._outbox: list[HandoffMessage] = []
        # Same start order as the coupled engine: arrivals, then sampler.
        self._env.process(
            self._arrival_process(), name=f"arrivals-{cell_id}"
        )
        self._env.process(self._occupancy_sampler(), name="occupancy-sampler")

    # ------------------------------------------------------------------
    @property
    def cell_id(self) -> int:
        return self._cell.cell_id

    @property
    def busy(self) -> bool:
        """True while this shard still has scheduled events."""
        return self._env.pending_events > 0

    def _next_call_id(self) -> int:
        return (self._cell.cell_id - 1) * _CALL_ID_NAMESPACE + next(self._call_ids)

    def _observe(self, terminal: MobileTerminal) -> UserState:
        return terminal.observe(self._cell.base_station.position).clamped()

    def _spawn_terminal(self, rng: RandomStream) -> MobileTerminal:
        """Place a new mobile terminal uniformly within this shard's cell."""
        radius = self._config.cell_radius_km * math.sqrt(rng.uniform(0.0, 1.0))
        angle = rng.uniform(-180.0, 180.0)
        offset_x = radius * math.cos(math.radians(angle))
        offset_y = radius * math.sin(math.radians(angle))
        center = self._cell.center
        position = Point(center.x + offset_x, center.y + offset_y)
        speed = max(
            rng.normal(self._config.mean_speed_kmh, self._config.mean_speed_kmh / 3.0),
            0.0,
        )
        heading = rng.angle_degrees()
        return MobileTerminal(position=position, speed_kmh=speed, heading_deg=heading)

    # -- processes -------------------------------------------------------
    def _arrival_process(self):
        """New-call arrivals — the coupled engine's per-cell body."""
        cell = self._cell
        arrival_rng = self._streams.stream(f"arrivals-{cell.cell_id}")
        class_rng = self._streams.stream(f"class-{cell.cell_id}")
        terminal_rng = self._streams.stream(f"terminal-{cell.cell_id}")
        holding_rng = self._streams.stream(f"holding-{cell.cell_id}")
        mix = self._config.effective_traffic_mix()
        workload = self._config.workload
        # Mirrors the coupled engine exactly: workload=None keeps the
        # legacy draw sequence on the same per-cell stream.
        sampler = (
            None
            if workload is None
            else workload.arrival.sampler(
                arrival_rng, self._config.arrival_rate_per_cell_per_s
            )
        )
        while True:
            if sampler is None:
                yield self._env.timeout(
                    arrival_rng.exponential(1.0 / self._config.arrival_rate_per_cell_per_s)
                )
            else:
                yield self._env.timeout(sampler.next_interarrival(self._env.now))
            if self._env.now >= self._config.duration_s:
                return
            service = mix.sample_class(class_rng)
            spec = mix.spec(service)
            terminal = self._spawn_terminal(terminal_rng)
            call = Call(
                service=service,
                bandwidth_units=spec.bandwidth_units,
                call_type=CallType.NEW,
                user_state=self._observe(terminal),
                requested_at=self._env.now,
                holding_time_s=holding_rng.exponential(spec.mean_holding_time_s),
                call_id=self._next_call_id(),
            )
            self._metrics.record_request(call)
            verdict = self._controller.accepts(call, cell.base_station, self._env.now)
            accepted = verdict and cell.base_station.can_fit(call.bandwidth_units)
            self._metrics.record_decision(call, accepted)
            if accepted:
                cell.base_station.allocate(call)
                call.admit(self._env.now, cell.cell_id)
                self._controller.on_admitted(call, cell.base_station, self._env.now)
                self._env.process(
                    self._call_lifecycle(call, terminal),
                    name=f"call-{call.call_id}",
                )
            else:
                call.block(self._env.now, cell.cell_id)

    def _call_lifecycle(self, call: Call, terminal: MobileTerminal, elapsed: float = 0.0):
        """One admitted call: mobility, departure-by-message, completion."""
        mobility_rng = self._streams.stream("mobility")
        while elapsed < call.holding_time_s:
            step = min(self._config.mobility_update_s, call.holding_time_s - elapsed)
            yield self._env.timeout(step)
            elapsed += step
            self._mobility.update(terminal, step, mobility_rng)
            coordinate = HexCoordinate.from_point(
                terminal.position, self._config.cell_radius_km
            )
            target_id = self._cell_ids_by_coordinate.get(coordinate)
            if target_id is None:
                # Out of coverage: treat as a dropped call.
                self._cell.base_station.release(call)
                call.drop(self._env.now, reason="left network coverage")
                self._controller.on_released(
                    call, self._cell.base_station, self._env.now
                )
                self._dropped += 1
                self._metrics.record_completion(call)
                return
            if target_id != self._cell.cell_id:
                # Departing handoff: release locally and emit a message;
                # the target shard decides admission at the next barrier.
                self._cell.base_station.release(call)
                self._controller.on_released(
                    call, self._cell.base_station, self._env.now
                )
                self._outbox.append(
                    HandoffMessage(
                        time=self._env.now,
                        source_cell=self._cell.cell_id,
                        target_cell=target_id,
                        call_id=call.call_id,
                        service=call.service,
                        bandwidth_units=call.bandwidth_units,
                        holding_time_s=call.holding_time_s,
                        elapsed_s=elapsed,
                        requested_at=call.requested_at,
                        handoff_count=call.handoff_count,
                        position_x=terminal.position.x,
                        position_y=terminal.position.y,
                        speed_kmh=terminal.speed_kmh,
                        heading_deg=terminal.heading_deg,
                    )
                )
                return
        # Holding time elapsed: normal completion.
        self._cell.base_station.release(call)
        call.complete(self._env.now)
        self._controller.on_released(call, self._cell.base_station, self._env.now)
        self._completed += 1
        self._metrics.record_completion(call)

    def _occupancy_sampler(self):
        """Sample this cell's occupancy every mobility interval."""
        while self._env.now < self._config.duration_s:
            yield self._env.timeout(self._config.mobility_update_s)
            self._occupancy_time_integral += (
                self._cell.base_station.used_bu * self._config.mobility_update_s
            )
            self._last_occupancy_sample = self._env.now

    # -- the actor interface ---------------------------------------------
    def _deliver(self, message: HandoffMessage) -> None:
        """Admit (or drop) one inbound handoff at the barrier instant."""
        now = self._env.now
        station = self._cell.base_station
        terminal = MobileTerminal(
            position=Point(message.position_x, message.position_y),
            speed_kmh=message.speed_kmh,
            heading_deg=message.heading_deg,
        )
        # Re-materialise the travelling call as it was when it left the
        # source cell; its id (and therefore its ledger key) is preserved.
        call = Call(
            service=message.service,
            bandwidth_units=message.bandwidth_units,
            call_type=CallType.NEW,
            requested_at=message.requested_at,
            holding_time_s=message.holding_time_s,
            call_id=message.call_id,
        )
        call.admit(message.time, message.source_cell)
        call.handoff_count = message.handoff_count
        self._handoff_attempts += 1
        request = Call(
            service=message.service,
            bandwidth_units=message.bandwidth_units,
            call_type=CallType.HANDOFF,
            user_state=self._observe(terminal),
            requested_at=now,
            holding_time_s=message.holding_time_s,
            call_id=self._next_call_id(),
        )
        self._metrics.record_request(request)
        verdict = self._controller.accepts(request, station, now)
        accepted = verdict and station.can_fit(message.bandwidth_units)
        self._metrics.record_decision(request, accepted)
        if accepted:
            station.allocate(call)
            call.handoff(now, self._cell.cell_id)
            self._controller.on_admitted(call, station, now)
            self._env.process(
                self._call_lifecycle(call, terminal, elapsed=message.elapsed_s),
                name=f"call-{call.call_id}",
            )
        else:
            self._handoff_failures += 1
            self._dropped += 1
            call.drop(now, reason=f"handoff to cell {self._cell.cell_id} denied")
            self._metrics.record_completion(call)

    def step_to(self, until: float, inbound: list[HandoffMessage] = ()) -> list[HandoffMessage]:
        """Drain ``inbound`` (pre-sorted canonically), simulate to ``until``.

        Returns the handoff messages emitted during the window; the
        coordinator routes them at the barrier.
        """
        for message in inbound:
            self._deliver(message)
        self._env.run(until=until)
        outbox, self._outbox = self._outbox, []
        return outbox

    def outcome(self) -> ShardOutcome:
        """Final statistics of this shard, for the coordinator to sum."""
        workload = self._config.workload
        class_names = () if workload is None else workload.class_names()
        return ShardOutcome(
            cell_id=self._cell.cell_id,
            controller=self._controller.name,
            counters=self._metrics.snapshot().as_counters(),
            handoff_attempts=self._handoff_attempts,
            handoff_failures=self._handoff_failures,
            completed_calls=self._completed,
            dropped_calls=self._dropped,
            occupancy_time_integral=self._occupancy_time_integral,
            last_occupancy_sample=self._last_occupancy_sample,
            class_values=self._metrics.class_counter_values(class_names),
        )


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
def _partition(items: list[int], parts: int) -> list[list[int]]:
    """Deterministic contiguous near-equal blocks (worker-count invariant)."""
    parts = max(1, min(parts, len(items)))
    base, extra = divmod(len(items), parts)
    blocks: list[list[int]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        blocks.append(items[start : start + size])
        start += size
    return blocks


def _route(messages: list[HandoffMessage]) -> dict[int, list[HandoffMessage]]:
    """Per-target inbound queues in canonical ``(time, source, id)`` order."""
    inbound: dict[int, list[HandoffMessage]] = {}
    for message in sorted(messages, key=lambda m: m.sort_key):
        inbound.setdefault(message.target_cell, []).append(message)
    return inbound


def _shard_worker(connection, config, controller_factory, cell_ids) -> None:
    """Process-backend worker: owns a block of shards for the whole run."""
    try:
        spiral = hex_spiral(HexCoordinate(0, 0), config.rings)
        shards = [
            CellShard(cell_id, config, controller_factory, spiral)
            for cell_id in cell_ids
        ]
        while True:
            command = connection.recv()
            if command[0] == "step":
                _, until, inbound = command
                outbox: list[HandoffMessage] = []
                for shard in shards:
                    outbox.extend(shard.step_to(until, inbound.get(shard.cell_id, ())))
                busy = any(shard.busy for shard in shards)
                connection.send(("ok", outbox, busy))
            elif command[0] == "finish":
                connection.send(("ok", [shard.outcome() for shard in shards]))
                return
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown shard command {command[0]!r}")
    except BaseException as exc:  # pragma: no cover - transport for the parent
        try:
            connection.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        raise


class CoupledShardedNetworkSimulation:
    """Coordinator of one sharded-but-coupled multi-cell run.

    Builds one :class:`CellShard` per cell of the topology, advances them
    in conservative windows of ``window_s`` simulated seconds and routes
    :class:`HandoffMessage` values between them at each barrier.  The
    ``executor`` selects *where the shards live* (reusing the sweep
    executor vocabulary): :class:`SerialExecutor` steps them in-process in
    cell order, :class:`ThreadPoolSweepExecutor` steps them from a
    persistent thread pool, and :class:`ProcessPoolSweepExecutor`
    partitions the cells into contiguous blocks owned by persistent worker
    processes (actor-style — shard state never crosses the process
    boundary, only messages and final counters do).
    """

    def __init__(
        self,
        config: NetworkExperimentConfig,
        controller_factory: ControllerFactory,
        executor: SweepExecutor | str | None = None,
        window_s: float | None = None,
    ):
        if window_s is not None and window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self._config = config
        self._controller_factory = controller_factory
        self._window_s = window_s if window_s is not None else config.mobility_update_s
        self._backend, self._workers = _backend_of(executor)

    # ------------------------------------------------------------------
    def run(self) -> NetworkRunOutput:
        """Execute the sharded run and return the merged network output."""
        if self._backend == "process":
            outcomes = self._run_process()
        elif self._backend == "thread":
            outcomes = self._run_thread()
        else:
            outcomes = self._run_serial()
        return self._merge(sorted(outcomes, key=lambda o: o.cell_id))

    # -- backends --------------------------------------------------------
    def _windows(self):
        """Barrier times: ``window_s`` steps up to the coupled horizon."""
        horizon = self._config.duration_s * 3.0
        t = 0.0
        while t < horizon:
            t = min(t + self._window_s, horizon)
            yield t

    def _run_serial(self) -> list[ShardOutcome]:
        shards = self._build_shards()
        inbound: dict[int, list[HandoffMessage]] = {}
        for until in self._windows():
            outbox: list[HandoffMessage] = []
            for shard in shards:
                outbox.extend(shard.step_to(until, inbound.get(shard.cell_id, ())))
            inbound = _route(outbox)
            if not inbound and not any(shard.busy for shard in shards):
                break
        return [shard.outcome() for shard in shards]

    def _run_thread(self) -> list[ShardOutcome]:
        shards = self._build_shards()
        workers = min(self._pool_size(), len(shards))
        inbound: dict[int, list[HandoffMessage]] = {}
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for until in self._windows():
                queues = [inbound.get(shard.cell_id, ()) for shard in shards]
                results = list(pool.map(
                    lambda pair: pair[0].step_to(until, pair[1]),
                    zip(shards, queues),
                ))
                inbound = _route([m for out in results for m in out])
                if not inbound and not any(shard.busy for shard in shards):
                    break
        return [shard.outcome() for shard in shards]

    def _run_process(self) -> list[ShardOutcome]:
        config, factory = self._config, self._controller_factory
        try:
            pickle.dumps((config, factory))
        except Exception as exc:
            raise SweepExecutionError(
                "sharded process execution requires picklable configs and "
                "controller factories; use the module-level factories in "
                f"repro.simulation.scenario ({exc})"
            ) from exc
        cell_ids = list(range(1, hex_cell_count(config.rings) + 1))
        blocks = _partition(cell_ids, self._pool_size())
        context = multiprocessing.get_context()
        workers = []
        try:
            for block in blocks:
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_shard_worker,
                    args=(child_end, config, factory, block),
                    daemon=True,
                )
                process.start()
                child_end.close()
                workers.append((process, parent_end, block))

            inbound: dict[int, list[HandoffMessage]] = {}
            for until in self._windows():
                for _, connection, block in workers:
                    connection.send(
                        ("step", until, {cid: inbound.get(cid, []) for cid in block})
                    )
                outbox: list[HandoffMessage] = []
                busy = False
                for _, connection, _ in workers:
                    reply = connection.recv()
                    if reply[0] != "ok":
                        raise SweepExecutionError(f"shard worker failed: {reply[1]}")
                    outbox.extend(reply[1])
                    busy = busy or reply[2]
                inbound = _route(outbox)
                if not inbound and not busy:
                    break

            outcomes: list[ShardOutcome] = []
            for _, connection, _ in workers:
                connection.send(("finish",))
            for _, connection, _ in workers:
                reply = connection.recv()
                if reply[0] != "ok":
                    raise SweepExecutionError(f"shard worker failed: {reply[1]}")
                outcomes.extend(reply[1])
            return outcomes
        finally:
            for process, connection, _ in workers:
                connection.close()
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()
                    process.join()

    # -- helpers ---------------------------------------------------------
    def _build_shards(self) -> list[CellShard]:
        spiral = hex_spiral(HexCoordinate(0, 0), self._config.rings)
        return [
            CellShard(cell_id, self._config, self._controller_factory, spiral)
            for cell_id in range(1, len(spiral) + 1)
        ]

    def _pool_size(self) -> int:
        cells = hex_cell_count(self._config.rings)
        return min(self._workers or os.cpu_count() or 1, cells)

    def _merge(self, outcomes: list[ShardOutcome]) -> NetworkRunOutput:
        config = self._config
        counters = tuple(
            sum(outcome.counters[index] for outcome in outcomes)
            for index in range(len(CallMetrics.COUNTER_FIELDS))
        )
        metrics = CallMetrics.from_counters(counters)
        last_sample = max(outcome.last_occupancy_sample for outcome in outcomes)
        elapsed = max(last_sample, config.mobility_update_s)
        integral = sum(outcome.occupancy_time_integral for outcome in outcomes)
        result = RunResult(
            controller=outcomes[0].controller,
            metrics=metrics,
            parameters={
                "rings": float(config.rings),
                "cells": float(len(outcomes)),
                "arrival_rate_per_cell_per_s": config.arrival_rate_per_cell_per_s,
                "duration_s": config.duration_s,
            },
            seed=config.seed,
        )
        workload = config.workload
        class_names = () if workload is None else workload.class_names()
        class_values: tuple[float, ...] = ()
        if class_names:
            width = len(outcomes[0].class_values)
            class_values = tuple(
                sum(outcome.class_values[index] for outcome in outcomes)
                for index in range(width)
            )
        return NetworkRunOutput(
            result=result,
            handoff_attempts=sum(o.handoff_attempts for o in outcomes),
            handoff_failures=sum(o.handoff_failures for o in outcomes),
            completed_calls=sum(o.completed_calls for o in outcomes),
            dropped_calls=sum(o.dropped_calls for o in outcomes),
            time_average_occupancy_bu=integral / elapsed,
            class_names=class_names,
            class_values=class_values,
        )


def _backend_of(executor: SweepExecutor | str | None) -> tuple[str, int | None]:
    """Map the sweep-executor vocabulary onto a shard backend + pool size."""
    if executor is None:
        return "serial", None
    if isinstance(executor, str):
        executor = executor_by_name(executor)
    if isinstance(executor, SerialExecutor):
        return "serial", None
    if isinstance(executor, ProcessPoolSweepExecutor):
        return "process", executor.max_workers
    if isinstance(executor, ThreadPoolSweepExecutor):
        return "thread", executor.max_workers
    raise TypeError(
        f"executor must be a SweepExecutor, an executor name or None, "
        f"got {type(executor).__name__}"
    )


def run_coupled_sharded_network_experiment(
    config: NetworkExperimentConfig,
    controller_factory: ControllerFactory,
    executor: SweepExecutor | str | None = None,
    window_s: float | None = None,
) -> NetworkRunOutput:
    """Run one multi-cell experiment with per-cell shard workers.

    The message-passing counterpart of
    :func:`~repro.simulation.engine.run_network_experiment`: handoff
    coupling is preserved (departing calls are admitted by the neighbour
    shard), but every cell runs as an isolated actor, so the topology
    scales across the ``executor``'s workers.  The output is byte-identical
    for every backend and worker count.
    """
    return CoupledShardedNetworkSimulation(
        config, controller_factory, executor=executor, window_s=window_s
    ).run()


def run_coupled_sharded_network_experiment_row(
    config: NetworkExperimentConfig,
    controller_factory: ControllerFactory,
    label: str | None = None,
    executor: SweepExecutor | str | None = None,
    window_s: float | None = None,
) -> FrameRow:
    """Run one sharded experiment and emit its compact counter row."""
    output = run_coupled_sharded_network_experiment(
        config, controller_factory, executor=executor, window_s=window_s
    )
    return network_output_row(output, label=label, replication=config.replication)
