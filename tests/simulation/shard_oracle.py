"""The shard engine on the generator-process DES: the sharded event heaps' oracle.

:class:`DESCellShard` is one cell of a sharded run written as generator
processes on :class:`repro.des.Environment`: an arrival process, one process
per admitted call (mobility ticks, departure by message, completion) and an
occupancy sampler.  :func:`run_des_sharded` steps one shard per cell in
conservative windows, routes the :class:`~repro.simulation.HandoffMessage`
values between them at each barrier and sums their counters into a
:class:`~repro.simulation.NetworkRunOutput`.
``tests/simulation/test_shard_loop.py`` holds
:func:`~repro.simulation.run_coupled_sharded_network_experiment` equal to it.
"""

from __future__ import annotations

import itertools
import math

from repro.cellular.calls import Call, CallType
from repro.cellular.cell import Cell
from repro.cellular.geometry import HexCoordinate, Point, hex_spiral
from repro.cellular.metrics import CallMetrics, MetricsCollector
from repro.cellular.mobility import GaussMarkovModel, MobileTerminal, UserState
from repro.des.environment import Environment
from repro.des.rng import RandomStream, StreamFactory
from repro.simulation import (
    HandoffMessage,
    NetworkExperimentConfig,
    NetworkRunOutput,
    RunResult,
    ShardOutcome,
)

__all__ = ["DESCellShard", "run_des_sharded"]

#: Shard ``k`` issues call ids ``(k-1) * _CALL_ID_NAMESPACE + 1, 2, 3, ...``.
_CALL_ID_NAMESPACE = 1 << 40


class DESCellShard:
    """One cell of the topology with its own environment, controller and streams."""

    def __init__(
        self,
        cell_id: int,
        config: NetworkExperimentConfig,
        controller_factory,
        spiral: list[HexCoordinate],
    ):
        self._config = config
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
        self._env.process(self._arrival_process(), name=f"arrivals-{cell_id}")
        self._env.process(self._occupancy_sampler(), name="occupancy-sampler")

    @property
    def cell_id(self) -> int:
        return self._cell.cell_id

    @property
    def busy(self) -> bool:
        return self._env.pending_events > 0

    def _next_call_id(self) -> int:
        return (self._cell.cell_id - 1) * _CALL_ID_NAMESPACE + next(self._call_ids)

    def _observe(self, terminal: MobileTerminal) -> UserState:
        return terminal.observe(self._cell.base_station.position).clamped()

    def _spawn_terminal(self, rng: RandomStream) -> MobileTerminal:
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

    def _arrival_process(self):
        cell = self._cell
        arrival_rng = self._streams.stream(f"arrivals-{cell.cell_id}")
        class_rng = self._streams.stream(f"class-{cell.cell_id}")
        terminal_rng = self._streams.stream(f"terminal-{cell.cell_id}")
        holding_rng = self._streams.stream(f"holding-{cell.cell_id}")
        mix = self._config.effective_traffic_mix()
        workload = self._config.workload
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
                    self._call_lifecycle(call, terminal), name=f"call-{call.call_id}"
                )
            else:
                call.block(self._env.now, cell.cell_id)

    def _call_lifecycle(self, call: Call, terminal: MobileTerminal, elapsed: float = 0.0):
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
                self._cell.base_station.release(call)
                call.drop(self._env.now, reason="left network coverage")
                self._controller.on_released(call, self._cell.base_station, self._env.now)
                self._dropped += 1
                self._metrics.record_completion(call)
                return
            if target_id != self._cell.cell_id:
                self._cell.base_station.release(call)
                self._controller.on_released(call, self._cell.base_station, self._env.now)
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
        self._cell.base_station.release(call)
        call.complete(self._env.now)
        self._controller.on_released(call, self._cell.base_station, self._env.now)
        self._completed += 1
        self._metrics.record_completion(call)

    def _occupancy_sampler(self):
        while self._env.now < self._config.duration_s:
            yield self._env.timeout(self._config.mobility_update_s)
            self._occupancy_time_integral += (
                self._cell.base_station.used_bu * self._config.mobility_update_s
            )
            self._last_occupancy_sample = self._env.now

    def _deliver(self, message: HandoffMessage) -> None:
        now = self._env.now
        station = self._cell.base_station
        terminal = MobileTerminal(
            position=Point(message.position_x, message.position_y),
            speed_kmh=message.speed_kmh,
            heading_deg=message.heading_deg,
        )
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

    def step_to(self, until: float, inbound=()) -> list[HandoffMessage]:
        for message in inbound:
            self._deliver(message)
        self._env.run(until=until)
        outbox, self._outbox = self._outbox, []
        return outbox

    def outcome(self) -> ShardOutcome:
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


def _windows(config: NetworkExperimentConfig, window_s: float):
    horizon = config.duration_s * 3.0
    t = 0.0
    while t < horizon:
        t = min(t + window_s, horizon)
        yield t


def _route(messages: list[HandoffMessage]) -> dict[int, list[HandoffMessage]]:
    inbound: dict[int, list[HandoffMessage]] = {}
    for message in sorted(messages, key=lambda m: m.sort_key):
        inbound.setdefault(message.target_cell, []).append(message)
    return inbound


def _merge(config: NetworkExperimentConfig, outcomes: list[ShardOutcome]) -> NetworkRunOutput:
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


def run_des_sharded(
    config: NetworkExperimentConfig, controller_factory, window_s: float | None = None
) -> NetworkRunOutput:
    """One shard per cell, stepped serially in windows of ``window_s`` seconds."""
    spiral = hex_spiral(HexCoordinate(0, 0), config.rings)
    shards = [
        DESCellShard(cell_id, config, controller_factory, spiral)
        for cell_id in range(1, len(spiral) + 1)
    ]
    window = window_s if window_s is not None else config.mobility_update_s
    inbound: dict[int, list[HandoffMessage]] = {}
    for until in _windows(config, window):
        outbox: list[HandoffMessage] = []
        for shard in shards:
            outbox.extend(shard.step_to(until, inbound.get(shard.cell_id, ())))
        inbound = _route(outbox)
        if not inbound and not any(shard.busy for shard in shards):
            break
    return _merge(config, [shard.outcome() for shard in shards])
