"""Multi-cell network simulation with mobility and handoffs.

This is the integration experiment supporting the paper's QoS claim: calls
arrive per cell as Poisson processes, mobile terminals move with a
Gauss–Markov model, and active calls hand off between cells.  Each cell runs
its own instance of the configured admission controller (as a real deployment
would), and the run reports blocking, dropping and handoff statistics per
controller.

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

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from ..analysis.frame import FrameRow, network_output_row
from ..cac.base import AdmissionController
from ..cellular.calls import Call, CallType
from ..cellular.cell import Cell
from ..cellular.geometry import Point
from ..cellular.metrics import CallMetrics, MetricsCollector
from ..cellular.mobility import GaussMarkovModel, MobileTerminal, UserState
from ..cellular.network import CellularNetwork
from ..des.environment import Environment
from ..des.rng import RandomStream, StreamFactory
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


class NetworkSimulation:
    """Drives one multi-cell simulation run."""

    def __init__(self, config: NetworkExperimentConfig, controller_factory: ControllerFactory):
        self._config = config
        self._streams = StreamFactory(master_seed=config.stream_master_seed)
        # Per-run sequential ids (not the process-global counter), so run
        # outputs are a pure function of the config in any process, thread
        # or execution order — the same discipline as the batch experiment.
        self._call_ids = itertools.count(1)
        self._env = Environment()
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

    @property
    def environment(self) -> Environment:
        return self._env

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

    # -- processes -------------------------------------------------------
    def _call_lifecycle(self, call: Call, terminal: MobileTerminal, cell: Cell):
        """Process controlling one admitted call: mobility, handoffs, completion."""
        mobility_rng = self._streams.stream("mobility")
        elapsed = 0.0
        current_cell = cell
        while elapsed < call.holding_time_s:
            step = min(self._config.mobility_update_s, call.holding_time_s - elapsed)
            yield self._env.timeout(step)
            elapsed += step
            self._mobility.update(terminal, step, mobility_rng)
            new_cell = self._network.serving_cell(terminal.position)
            if new_cell is None:
                # Out of coverage: treat as a dropped call.
                current_cell.base_station.release(call)
                call.drop(self._env.now, reason="left network coverage")
                self._controllers[current_cell.cell_id].on_released(
                    call, current_cell.base_station, self._env.now
                )
                self._dropped += 1
                self._metrics.record_completion(call)
                return
            if new_cell.cell_id != current_cell.cell_id:
                self._handoff_attempts += 1
                outcome_cell = self._attempt_handoff(call, terminal, current_cell, new_cell)
                if outcome_cell is None:
                    self._handoff_failures += 1
                    self._dropped += 1
                    self._metrics.record_completion(call)
                    return
                current_cell = outcome_cell
        # Holding time elapsed: normal completion.
        current_cell.base_station.release(call)
        call.complete(self._env.now)
        self._controllers[current_cell.cell_id].on_released(
            call, current_cell.base_station, self._env.now
        )
        self._completed += 1
        self._metrics.record_completion(call)

    def _attempt_handoff(
        self,
        call: Call,
        terminal: MobileTerminal,
        source: Cell,
        target: Cell,
    ) -> Cell | None:
        """Try to move an active call to ``target``; return the new cell or None if dropped."""
        controller = self._controllers[target.cell_id]
        handoff_request = Call(
            service=call.service,
            bandwidth_units=call.bandwidth_units,
            call_type=CallType.HANDOFF,
            user_state=self._observe(terminal, target),
            requested_at=self._env.now,
            holding_time_s=call.holding_time_s,
            call_id=next(self._call_ids),
        )
        self._metrics.record_request(handoff_request)
        verdict = controller.accepts(handoff_request, target.base_station, self._env.now)
        accepted = verdict and target.base_station.can_fit(call.bandwidth_units)
        self._metrics.record_decision(handoff_request, accepted)
        source_controller = self._controllers[source.cell_id]
        if accepted:
            source.base_station.release(call)
            source_controller.on_released(call, source.base_station, self._env.now)
            target.base_station.allocate(call)
            call.handoff(self._env.now, target.cell_id)
            controller.on_admitted(call, target.base_station, self._env.now)
            return target
        source.base_station.release(call)
        source_controller.on_released(call, source.base_station, self._env.now)
        call.drop(self._env.now, reason=f"handoff to cell {target.cell_id} denied")
        return None

    def _cell_arrival_process(self, cell: Cell):
        """New-call arrivals at one cell (Poisson, or the workload's model)."""
        arrival_rng = self._streams.stream(f"arrivals-{cell.cell_id}")
        class_rng = self._streams.stream(f"class-{cell.cell_id}")
        terminal_rng = self._streams.stream(f"terminal-{cell.cell_id}")
        holding_rng = self._streams.stream(f"holding-{cell.cell_id}")
        mix = self._config.effective_traffic_mix()
        workload = self._config.workload
        # workload=None keeps the exact legacy draw sequence; a workload
        # swaps in its interarrival sampler on the same per-cell stream.
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
            terminal = self._spawn_terminal(cell, terminal_rng)
            call = Call(
                service=service,
                bandwidth_units=spec.bandwidth_units,
                call_type=CallType.NEW,
                user_state=self._observe(terminal, cell),
                requested_at=self._env.now,
                holding_time_s=holding_rng.exponential(spec.mean_holding_time_s),
                call_id=next(self._call_ids),
            )
            controller = self._controllers[cell.cell_id]
            self._metrics.record_request(call)
            verdict = controller.accepts(call, cell.base_station, self._env.now)
            accepted = verdict and cell.base_station.can_fit(call.bandwidth_units)
            self._metrics.record_decision(call, accepted)
            if accepted:
                cell.base_station.allocate(call)
                call.admit(self._env.now, cell.cell_id)
                controller.on_admitted(call, cell.base_station, self._env.now)
                self._env.process(
                    self._call_lifecycle(call, terminal, cell),
                    name=f"call-{call.call_id}",
                )
            else:
                call.block(self._env.now, cell.cell_id)

    def _occupancy_sampler(self):
        """Sample network occupancy every mobility interval for the time average."""
        while self._env.now < self._config.duration_s:
            yield self._env.timeout(self._config.mobility_update_s)
            self._occupancy_time_integral += (
                self._network.total_used_bu() * self._config.mobility_update_s
            )
            self._last_occupancy_sample = self._env.now

    # ------------------------------------------------------------------
    def run(self) -> NetworkRunOutput:
        """Execute the simulation and return aggregated results."""
        for cell in self._network:
            self._env.process(self._cell_arrival_process(cell), name=f"arrivals-{cell.cell_id}")
        self._env.process(self._occupancy_sampler(), name="occupancy-sampler")
        # Run well past the arrival horizon so in-flight calls finish.
        self._env.run(until=self._config.duration_s * 3.0)

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
