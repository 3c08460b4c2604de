"""Multi-cell network simulation with mobility and handoffs.

This is the integration experiment supporting the paper's QoS claim: calls
arrive per cell as Poisson processes, mobile terminals move with a
Gauss–Markov model, and active calls hand off between cells.  Each cell runs
its own instance of the configured admission controller (as a real deployment
would), and the run reports blocking, dropping and handoff statistics per
controller.

The run is one heap of ``(time, sequence, kind, payload)`` entries.  A kind
is a cell's arrival stream starting, a cell's next arrival, an admitted call
starting, a call's mobility tick, the occupancy sampler starting or an
occupancy sample.  Entries pop in time order, and equal times pop in the
order they were scheduled, so a run is the same event sequence as the
generator-process engine on :mod:`repro.des` it replaced, and its output is
that engine's byte for byte (``tests/simulation/network_oracle.py`` keeps
that engine as the oracle).  Each cell's ``arrivals-``, ``class-``,
``terminal-`` and ``holding-`` streams are drawn when its arrival pops, and
the shared ``mobility`` stream in tick order.

Every new call and every handoff is admitted through the controller's
:meth:`~repro.cac.base.AdmissionController.accepts`, which returns
``decide(...).accepted`` without the score and diagnostics the engine never
reads.  For FACS that is exact FLC1, one lookup in the certified decision
screen's (R, Cs) cell table, and exact FLC2 only where that cell is
ambiguous, its table is not yet worth building (the screen builds an
(R, Cs) table once that pair has been asked about a dozen times), or the
controller pair has no screen.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..analysis.frame import FrameRow, network_output_row
from ..cac.base import AdmissionController
from ..cellular.calls import Call, CallType
from ..cellular.cell import Cell
from ..cellular.geometry import Point
from ..cellular.metrics import CallMetrics, MetricsCollector
from ..cellular.mobility import GaussMarkovModel, MobileTerminal, UserState
from ..cellular.network import CellularNetwork
from ..cellular.traffic import TrafficMix
from ..des.rng import RandomStream, StreamFactory
from ..workloads.arrivals import InterarrivalSampler, PoissonArrival
from .config import NetworkExperimentConfig
from .results import RunResult

__all__ = [
    "NetworkRunOutput",
    "NetworkSimulation",
    "run_network_experiment",
    "run_network_experiment_row",
]

ControllerFactory = Callable[[], AdmissionController]


@dataclass(frozen=True)
class NetworkRunOutput:
    """Outcome of one multi-cell run."""

    result: RunResult
    handoff_attempts: int
    handoff_failures: int
    completed_calls: int
    dropped_calls: int
    time_average_occupancy_bu: float
    #: Per-service-class admission counters, attached only by workload
    #: runs: the class names and the values flattened class-major over
    #: :data:`repro.analysis.frame.CLASS_COUNTER_FIELDS`.
    class_names: tuple[str, ...] = ()
    class_values: tuple[float, ...] = ()

    @property
    def handoff_failure_ratio(self) -> float:
        if self.handoff_attempts == 0:
            return 0.0
        return self.handoff_failures / self.handoff_attempts


#: Kinds of the event heap's entries.
_ARRIVALS_START, _ARRIVAL, _CALL_START, _TICK, _SAMPLER_START, _SAMPLE = range(6)


class _CellArrivals(NamedTuple):
    """One cell's new-call arrivals: its gap sampler and its random streams."""

    cell: Cell
    sampler: InterarrivalSampler
    class_rng: RandomStream
    terminal_rng: RandomStream
    holding_rng: RandomStream


class _ActiveCall:
    """An admitted call between its mobility ticks."""

    __slots__ = ("call", "terminal", "cell", "elapsed", "step")

    def __init__(self, call: Call, terminal: MobileTerminal, cell: Cell):
        self.call = call
        self.terminal = terminal
        self.cell = cell
        self.elapsed = 0.0
        self.step = 0.0


class NetworkSimulation:
    """Drives one multi-cell simulation run."""

    def __init__(self, config: NetworkExperimentConfig, controller_factory: ControllerFactory):
        self._config = config
        self._streams = StreamFactory(master_seed=config.stream_master_seed)
        # Per-run sequential ids (not the process-global counter), so run
        # outputs are a pure function of the config in any process, thread
        # or execution order — the same discipline as the batch experiment.
        self._call_ids = itertools.count(1)
        self._network = CellularNetwork(
            rings=config.rings,
            cell_radius_km=config.cell_radius_km,
            capacity_bu=config.capacity_bu,
            cell_capacities=config.cell_capacities,
        )
        self._controllers: dict[int, AdmissionController] = {}
        for cell in self._network:
            controller = controller_factory()
            controller.reset()
            self._controllers[cell.cell_id] = controller
        self._controller_name = next(iter(self._controllers.values())).name
        self._metrics = MetricsCollector()
        self._mobility = GaussMarkovModel(
            mean_speed_kmh=config.mean_speed_kmh,
            update_interval_s=config.mobility_update_s,
        )
        self._mobility_rng = self._streams.stream("mobility")
        self._heap: list[tuple[float, int, int, object]] = []
        # Equal-time entries pop in the order they were scheduled.
        self._sequence = itertools.count()
        self._handoff_attempts = 0
        self._handoff_failures = 0
        self._completed = 0
        self._dropped = 0
        self._occupancy_time_integral = 0.0
        self._last_occupancy_sample = 0.0

    # ------------------------------------------------------------------
    @property
    def network(self) -> CellularNetwork:
        return self._network

    def controller_for(self, cell: Cell) -> AdmissionController:
        return self._controllers[cell.cell_id]

    # ------------------------------------------------------------------
    def _observe(self, terminal: MobileTerminal, cell: Cell) -> UserState:
        state = terminal.observe(cell.base_station.position)
        # Clamp the distance into the controllers' 0-10 km universe.
        return state.clamped()

    def _spawn_terminal(self, cell: Cell, rng: RandomStream) -> MobileTerminal:
        """Place a new mobile terminal uniformly within a cell."""
        radius = self._config.cell_radius_km * math.sqrt(rng.uniform(0.0, 1.0))
        angle = rng.uniform(-180.0, 180.0)
        offset_x = radius * math.cos(math.radians(angle))
        offset_y = radius * math.sin(math.radians(angle))
        position = Point(cell.center.x + offset_x, cell.center.y + offset_y)
        speed = max(rng.normal(self._config.mean_speed_kmh, self._config.mean_speed_kmh / 3.0), 0.0)
        heading = rng.angle_degrees()
        return MobileTerminal(position=position, speed_kmh=speed, heading_deg=heading)

    def _attempt_handoff(
        self,
        call: Call,
        terminal: MobileTerminal,
        source: Cell,
        target: Cell,
        now: float,
    ) -> Cell | None:
        """Try to move an active call to ``target``; return the new cell or None if dropped."""
        controller = self._controllers[target.cell_id]
        handoff_request = Call(
            service=call.service,
            bandwidth_units=call.bandwidth_units,
            call_type=CallType.HANDOFF,
            user_state=self._observe(terminal, target),
            requested_at=now,
            holding_time_s=call.holding_time_s,
            call_id=next(self._call_ids),
        )
        self._metrics.record_request(handoff_request)
        verdict = controller.accepts(handoff_request, target.base_station, now)
        accepted = verdict and target.base_station.can_fit(call.bandwidth_units)
        self._metrics.record_decision(handoff_request, accepted)
        source_controller = self._controllers[source.cell_id]
        if accepted:
            source.base_station.release(call)
            source_controller.on_released(call, source.base_station, now)
            target.base_station.allocate(call)
            call.handoff(now, target.cell_id)
            controller.on_admitted(call, target.base_station, now)
            return target
        source.base_station.release(call)
        source_controller.on_released(call, source.base_station, now)
        call.drop(now, reason=f"handoff to cell {target.cell_id} denied")
        return None

    # -- the event heap ----------------------------------------------------
    def _schedule(self, at: float, kind: int, payload: object) -> None:
        heapq.heappush(self._heap, (at, next(self._sequence), kind, payload))

    def _open_arrivals(self, cell: Cell, now: float) -> None:
        """Start a cell's new-call arrivals: Poisson, or the workload's model."""
        config, streams = self._config, self._streams
        # PoissonArrival draws exponential(1 / rate) gaps, the no-workload
        # sequence; a workload's model draws from the same per-cell stream.
        model = PoissonArrival() if config.workload is None else config.workload.arrival
        arrivals = _CellArrivals(
            cell,
            model.sampler(
                streams.stream(f"arrivals-{cell.cell_id}"), config.arrival_rate_per_cell_per_s
            ),
            streams.stream(f"class-{cell.cell_id}"),
            streams.stream(f"terminal-{cell.cell_id}"),
            streams.stream(f"holding-{cell.cell_id}"),
        )
        self._schedule(now + arrivals.sampler.next_interarrival(now), _ARRIVAL, arrivals)

    def _arrive(self, arrivals: _CellArrivals, now: float, mix: TrafficMix) -> None:
        """A new-call request at one cell; then that cell's next arrival."""
        if now >= self._config.duration_s:
            return
        cell = arrivals.cell
        service = mix.sample_class(arrivals.class_rng)
        spec = mix.spec(service)
        terminal = self._spawn_terminal(cell, arrivals.terminal_rng)
        call = Call(
            service=service,
            bandwidth_units=spec.bandwidth_units,
            call_type=CallType.NEW,
            user_state=self._observe(terminal, cell),
            requested_at=now,
            holding_time_s=arrivals.holding_rng.exponential(spec.mean_holding_time_s),
            call_id=next(self._call_ids),
        )
        controller = self._controllers[cell.cell_id]
        self._metrics.record_request(call)
        verdict = controller.accepts(call, cell.base_station, now)
        accepted = verdict and cell.base_station.can_fit(call.bandwidth_units)
        self._metrics.record_decision(call, accepted)
        if accepted:
            cell.base_station.allocate(call)
            call.admit(now, cell.cell_id)
            controller.on_admitted(call, cell.base_station, now)
            self._schedule(now, _CALL_START, _ActiveCall(call, terminal, cell))
        else:
            call.block(now, cell.cell_id)
        self._schedule(now + arrivals.sampler.next_interarrival(now), _ARRIVAL, arrivals)

    def _hold(self, active: _ActiveCall, now: float) -> None:
        """Schedule a call's next mobility tick, or complete it once its holding time is up."""
        holding = active.call.holding_time_s
        if active.elapsed < holding:
            active.step = min(self._config.mobility_update_s, holding - active.elapsed)
            self._schedule(now + active.step, _TICK, active)
            return
        cell = active.cell
        cell.base_station.release(active.call)
        active.call.complete(now)
        self._controllers[cell.cell_id].on_released(active.call, cell.base_station, now)
        self._completed += 1
        self._metrics.record_completion(active.call)

    def _tick(self, active: _ActiveCall, now: float) -> None:
        """Move a call by one step; it then hands off, leaves coverage or holds on."""
        active.elapsed += active.step
        self._mobility.update(active.terminal, active.step, self._mobility_rng)
        new_cell = self._network.serving_cell(active.terminal.position)
        call, cell = active.call, active.cell
        if new_cell is None:
            # Out of coverage: treat as a dropped call.
            cell.base_station.release(call)
            call.drop(now, reason="left network coverage")
            self._controllers[cell.cell_id].on_released(call, cell.base_station, now)
            self._dropped += 1
            self._metrics.record_completion(call)
            return
        if new_cell.cell_id != cell.cell_id:
            self._handoff_attempts += 1
            target = self._attempt_handoff(call, active.terminal, cell, new_cell, now)
            if target is None:
                self._handoff_failures += 1
                self._dropped += 1
                self._metrics.record_completion(call)
                return
            active.cell = target
        self._hold(active, now)

    def run(self) -> NetworkRunOutput:
        """Execute the simulation and return aggregated results.

        Pops entries while the earliest is due at or before three times
        the arrival horizon, so in-flight calls finish.
        """
        config = self._config
        mix = config.effective_traffic_mix()
        for cell in self._network:
            self._schedule(0.0, _ARRIVALS_START, cell)
        self._schedule(0.0, _SAMPLER_START, None)
        heap, pop = self._heap, heapq.heappop
        horizon = config.duration_s * 3.0
        while heap and heap[0][0] <= horizon:
            now, _, kind, payload = pop(heap)
            if kind == _TICK:
                self._tick(payload, now)
            elif kind == _ARRIVAL:
                self._arrive(payload, now, mix)
            elif kind == _CALL_START:
                self._hold(payload, now)
            elif kind == _ARRIVALS_START:
                self._open_arrivals(payload, now)
            else:
                # The occupancy sampler: one sample every mobility interval.
                if kind == _SAMPLE:
                    self._occupancy_time_integral += (
                        self._network.total_used_bu() * config.mobility_update_s
                    )
                    self._last_occupancy_sample = now
                if now < config.duration_s:
                    self._schedule(now + config.mobility_update_s, _SAMPLE, None)
        return self._output()

    def _output(self) -> NetworkRunOutput:
        metrics: CallMetrics = self._metrics.snapshot()
        elapsed = max(self._last_occupancy_sample, self._config.mobility_update_s)
        result = RunResult(
            controller=self._controller_name,
            metrics=metrics,
            parameters={
                "rings": float(self._config.rings),
                "cells": float(self._network.cell_count),
                "arrival_rate_per_cell_per_s": self._config.arrival_rate_per_cell_per_s,
                "duration_s": self._config.duration_s,
            },
            seed=self._config.seed,
        )
        workload = self._config.workload
        class_names = () if workload is None else workload.class_names()
        return NetworkRunOutput(
            result=result,
            handoff_attempts=self._handoff_attempts,
            handoff_failures=self._handoff_failures,
            completed_calls=self._completed,
            dropped_calls=self._dropped,
            time_average_occupancy_bu=self._occupancy_time_integral / elapsed,
            class_names=class_names,
            class_values=self._metrics.class_counter_values(class_names),
        )


def run_network_experiment(
    config: NetworkExperimentConfig,
    controller_factory: ControllerFactory,
) -> NetworkRunOutput:
    """Convenience wrapper: build and run a :class:`NetworkSimulation`."""
    return NetworkSimulation(config, controller_factory).run()


def run_network_experiment_row(
    config: NetworkExperimentConfig,
    controller_factory: ControllerFactory,
    label: str | None = None,
) -> FrameRow:
    """Run one network experiment and emit its compact counter row.

    The sweep workers' return value: the flat counter/parameter tuple the
    columnar :class:`~repro.analysis.frame.MetricsFrame` is built from,
    replacing the pickled :class:`NetworkRunOutput` trees that used to
    travel from process-pool workers back to the parent.
    """
    output = NetworkSimulation(config, controller_factory).run()
    return network_output_row(output, label=label, replication=config.replication)
