"""The coupled network engine on the generator-process DES: the event heap's oracle.

:class:`DESNetworkSimulation` is :class:`~repro.simulation.engine.NetworkSimulation`
with ``run`` written as generator processes on :class:`repro.des.Environment`:
one arrival process per cell, one process per admitted call (mobility ticks,
handoffs, completion) and an occupancy sampler.  Each arrival draws its
class, terminal and holding time when it happens, asks the controller's
``accepts`` on its call, and each tick moves a terminal with scalar draws on
the ``mobility`` stream and maps it to a cell by hexagon rounding; the engine
draws requests ahead in blocks, answers an exact FACS controller's new calls
from FACS blocks, reads mobility normals from a buffer and skips the rounding
deep inside a cell.  The two share the observation, the handoff attempt and
the output merge, so a difference between them is a difference in event
order, timing, draw order or one of those fast paths.  The heap entries the
engine schedules on construction are never popped here.
``tests/simulation/test_network_loop.py`` holds the two equal.
"""

from __future__ import annotations

import math

from repro.cellular.calls import Call, CallType
from repro.cellular.cell import Cell
from repro.cellular.geometry import Point
from repro.cellular.mobility import MobileTerminal
from repro.des.environment import Environment
from repro.des.rng import RandomStream
from repro.simulation.engine import NetworkRunOutput, NetworkSimulation, merge_outcomes

__all__ = ["DESNetworkSimulation"]


class DESNetworkSimulation(NetworkSimulation):
    """The coupled engine with one generator process per cell, call and sampler."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._env = Environment()

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
                outcome_cell = self._attempt_handoff(
                    call, terminal, current_cell, new_cell, self._env.now
                )
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

    def _cell_arrival_process(self, cell: Cell):
        """New-call arrivals at one cell (Poisson, or the workload's model)."""
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

    def run(self) -> NetworkRunOutput:
        """Execute the simulation on the event loop and return aggregated results."""
        for cell in self._network:
            self._env.process(self._cell_arrival_process(cell), name=f"arrivals-{cell.cell_id}")
        self._env.process(self._occupancy_sampler(), name="occupancy-sampler")
        # Run well past the arrival horizon so in-flight calls finish.
        self._env.run(until=self._config.duration_s * 3.0)
        return merge_outcomes(self._config, [self.outcome()])
