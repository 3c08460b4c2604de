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
that engine as the oracle).

A cell's new-call requests come from its ``arrivals-``, ``class-``,
``terminal-`` and ``holding-`` streams alone, never from the network's
state.  So from its arrival stream's start a cell draws them ahead in blocks
of up to :data:`_BLOCK_ROWS`, each stream in the order one arrival at a
time would draw it.  A block keeps its rows as floats; a terminal is built
only when its call is admitted, and call ids and heap sequence numbers are
taken when the arrival pops.  The simulation's ``mobility`` stream is read
in tick order, through a :class:`~repro.des.rng.BufferedNormals`.

A simulation owns a set of the layout's cells, all of them by default, and
runs controllers and arrivals only there.  A call that crosses into a cell it
does not own is released at the source and leaves as a
:class:`HandoffMessage`; the simulation that owns the target admits or drops
it when the message is delivered.  :meth:`NetworkSimulation.step_to` is the
one way time advances: deliver the inbound messages, pop entries up to a
barrier, hand back the outbox.  The coupled run is one step to three times
the arrival horizon over all cells; the shard engine
(:mod:`repro.simulation.shard`) steps one single-cell simulation per cell
once per window.

Decisions take one of two paths:

* **FACS blocks.**  For an exact
  :class:`~repro.cac.facs.system.FuzzyAdmissionControlSystem`, FLC1 runs
  once per block through
  :meth:`~repro.cac.facs.system.FuzzyAdmissionControlSystem.decide_columns`,
  and the block answers each new call at the occupancy it meets: from the
  certified decision screen's (R, Cs) table, by exact FLC2 where that table
  is ambiguous or not yet built, by exact inference for a pair without a
  screen.  A request that does not fit is rejected before its block is
  asked, since the verdict is stateless.
* **Per call.**  Every handoff, and every new call of any other controller,
  is asked of the controller's
  :meth:`~repro.cac.base.AdmissionController.accepts` on its
  :class:`~repro.cellular.calls.Call`, which returns ``decide(...).accepted``
  without the score and diagnostics.  For FACS that is exact FLC1 and one
  screen lookup (``DecisionScreen.verdict_at``).

:meth:`NetworkSimulation.outcome` logs how many requests took each path.  A
mobility tick moves its terminal with
:meth:`~repro.cellular.mobility.GaussMarkovModel.update`; while the terminal
is strictly inside its cell's inscribed circle it can only be in that cell,
so the hexagon rounding of
:meth:`~repro.cellular.network.CellularNetwork.serving_cell` runs only
outside it.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..analysis.frame import FrameRow, network_output_row
from ..cac.base import AdmissionController
from ..cac.facs.screen import ScreenedColumns
from ..cac.facs.system import ExactColumns, FuzzyAdmissionControlSystem
from ..cellular.calls import Call, CallType
from ..cellular.cell import Cell
from ..cellular.geometry import Point, normalize_angle
from ..cellular.metrics import CallMetrics, MetricsCollector
from ..cellular.mobility import GaussMarkovModel, MobileTerminal, UserState, observation_at
from ..cellular.network import CellularNetwork, hex_cell_count
from ..cellular.traffic import ServiceClass
from ..des.rng import BufferedNormals, RandomStream, StreamFactory
from ..workloads.arrivals import InterarrivalSampler, PoissonArrival
from .config import NetworkExperimentConfig
from .results import RunResult

__all__ = [
    "HandoffMessage",
    "NetworkRunOutput",
    "NetworkSimulation",
    "ShardOutcome",
    "run_network_experiment",
    "run_network_experiment_row",
]

ControllerFactory = Callable[[], AdmissionController]

_log = logging.getLogger(__name__)

#: Width of each simulation's call-id namespace.  A simulation whose first
#: owned cell is ``k`` issues ids ``(k-1) * _CALL_ID_NAMESPACE + 1, 2, 3,
#: ...``: globally unique across the shards of a run without coordination,
#: and the plain ``1, 2, 3, ...`` sequence for a simulation of every cell.
_CALL_ID_NAMESPACE = 1 << 40

#: New-call requests a cell draws ahead at a time.  At the paper's loads a
#: cell meets a few dozen requests in a run, so one block usually covers its
#: whole run, and FLC1 runs once for it; a long run holds at most this many
#: drawn rows per cell.
_BLOCK_ROWS = 64


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


@dataclass(frozen=True)
class HandoffMessage:
    """A call crossing into a cell its simulation does not own, as a message.

    Carries everything the target's simulation needs to re-materialise the
    call and its mobile terminal: the call's identity and service demand, how
    much holding time it has consumed, and the terminal's kinematic state
    at the crossing instant.  ``(time, source_cell, call_id)`` is the
    canonical drain order at the receiving simulation — a total order, since
    a source emits at most one message per call per instant.
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
    """Final counters of one simulation, keyed by its first owned cell."""

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


#: Kinds of the event heap's entries.
_ARRIVALS_START, _ARRIVAL, _CALL_START, _TICK, _SAMPLER_START, _SAMPLE = range(6)


#: Rows of a block's ``columns``: a request's terminal (position, speed,
#: raw heading), the observation it shows the cell's base station (angle,
#: unclamped distance) and the call's holding time.
_X, _Y, _SPEED, _HEADING, _ANGLE, _DISTANCE, _HOLDING = range(7)


class _CellArrivals:
    """One cell's new-call arrivals: its gap sampler, its streams, and the
    block of requests drawn ahead.

    ``times`` holds the block's arrival instants; the last one may be the
    first instant at or after the horizon, which carries no request.
    Entry ``k`` of ``codes`` and column ``k`` of ``columns`` are the request
    arriving at ``times[k]``: its class code and its floats.  ``verdicts``
    answers the block's rows for an exact FACS controller, else is
    ``None``; ``next`` is the row of the next arrival.
    """

    __slots__ = (
        "cell", "controller", "blocks", "sampler", "class_rng", "terminal_rng",
        "holding_rng", "times", "codes", "columns", "verdicts", "next",
    )  # fmt: skip

    def __init__(
        self,
        cell: Cell,
        controller: AdmissionController,
        sampler: InterarrivalSampler,
        streams: tuple[RandomStream, RandomStream, RandomStream],
    ):
        self.cell = cell
        self.controller = controller
        # Only an exact FACS controller answers from blocks: a subclass may
        # override ``decide``, so it is asked per call.
        self.blocks = type(controller) is FuzzyAdmissionControlSystem
        self.sampler = sampler
        self.class_rng, self.terminal_rng, self.holding_rng = streams
        self.verdicts: ScreenedColumns | ExactColumns | None = None


class _DecisionPaths:
    """How a simulation's requests were decided (see :meth:`NetworkSimulation.outcome`).

    ``blocks`` and ``rows`` count the FACS blocks drawn and their rows;
    ``screened``, ``exact_flc1`` and ``exact_flc2`` add up the counters of
    the blocks already spent; ``unfit`` counts the new calls rejected before
    their block was asked because they did not fit; ``asked_new`` and
    ``asked_handoffs`` the requests asked per call.
    """

    __slots__ = (
        "blocks", "rows", "screened", "exact_flc1", "exact_flc2", "unfit",
        "asked_new", "asked_handoffs",
    )  # fmt: skip

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def fold(self, verdicts: ScreenedColumns | ExactColumns) -> None:
        """Add a spent block's counters."""
        self.screened += verdicts.screened
        self.exact_flc1 += verdicts.exact_flc1
        self.exact_flc2 += verdicts.exact_flc2


class _ActiveCall:
    """An admitted call between its mobility ticks."""

    __slots__ = ("call", "terminal", "cell", "elapsed", "step")

    def __init__(self, call: Call, terminal: MobileTerminal, cell: Cell, elapsed: float = 0.0):
        self.call = call
        self.terminal = terminal
        self.cell = cell
        self.elapsed = elapsed
        self.step = 0.0


class NetworkSimulation:
    """Drives one multi-cell simulation run over the cells it owns.

    ``cells`` lists the owned cell ids (default: every cell of the layout);
    ``network`` is a :class:`~repro.cellular.network.CellularNetwork` of
    the config's layout to share with other simulations (default: a new
    one).  A simulation changes only its owned cells' base stations, so
    simulations owning disjoint cells can share one network.
    """

    def __init__(
        self,
        config: NetworkExperimentConfig,
        controller_factory: ControllerFactory,
        cells: Sequence[int] | None = None,
        network: CellularNetwork | None = None,
    ):
        self._config = config
        self._streams = StreamFactory(master_seed=config.stream_master_seed)
        if network is None:
            network = CellularNetwork(
                rings=config.rings,
                cell_radius_km=config.cell_radius_km,
                capacity_bu=config.capacity_bu,
                cell_capacities=config.cell_capacities,
            )
        self._network = network
        self._cells = network.cells if cells is None else [network.cell(c) for c in cells]
        # Per-run sequential ids (not the process-global counter), so run
        # outputs are a pure function of the config in any process, thread
        # or execution order — the same discipline as the batch experiment.
        self._call_ids = itertools.count(
            (self._cells[0].cell_id - 1) * _CALL_ID_NAMESPACE + 1
        )
        self._controllers: dict[int, AdmissionController] = {}
        for cell in self._cells:
            controller = controller_factory()
            controller.reset()
            self._controllers[cell.cell_id] = controller
        self._controller_name = next(iter(self._controllers.values())).name
        self._metrics = MetricsCollector()
        self._mobility = GaussMarkovModel(
            mean_speed_kmh=config.mean_speed_kmh,
            update_interval_s=config.mobility_update_s,
        )
        # Drawn on first use, never here: the DES oracles share the factory.
        self._normals = BufferedNormals(self._streams.stream("mobility"))
        self._mix = mix = config.effective_traffic_mix()
        self._bandwidths: list[int] = mix.bandwidth_by_code().tolist()
        self._mean_holdings = mix.mean_holding_by_code()
        self._heap: list[tuple[float, int, int, object]] = []
        # Equal-time entries pop in the order they were scheduled.
        self._sequence = itertools.count()
        self._now = 0.0
        self._outbox: list[HandoffMessage] = []
        self._handoff_attempts = 0
        self._handoff_failures = 0
        self._completed = 0
        self._dropped = 0
        self._occupancy_time_integral = 0.0
        self._last_occupancy_sample = 0.0
        self._paths = _DecisionPaths()
        self._arrivals: list[_CellArrivals] = []
        for cell in self._cells:
            self._schedule(0.0, _ARRIVALS_START, cell)
        self._schedule(0.0, _SAMPLER_START, None)

    # ------------------------------------------------------------------
    @property
    def network(self) -> CellularNetwork:
        return self._network

    def controller_for(self, cell: Cell) -> AdmissionController:
        return self._controllers[cell.cell_id]

    @property
    def busy(self) -> bool:
        """True while entries remain on the heap."""
        return bool(self._heap)

    # ------------------------------------------------------------------
    def _observe(self, terminal: MobileTerminal, cell: Cell) -> UserState:
        state = terminal.observe(cell.base_station.position)
        # Clamp the distance into the controllers' 0-10 km universe.
        return state.clamped()

    def _handoff_admitted(
        self, call: Call, terminal: MobileTerminal, target: Cell, now: float
    ) -> bool:
        """Ask ``target``'s controller to admit a handoff of ``call``; record the verdict."""
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
        self._paths.asked_handoffs += 1
        verdict = self._controllers[target.cell_id].accepts(
            handoff_request, target.base_station, now
        )
        accepted = verdict and target.base_station.can_fit(call.bandwidth_units)
        self._metrics.record_decision(handoff_request, accepted)
        return accepted

    def _attempt_handoff(
        self,
        call: Call,
        terminal: MobileTerminal,
        source: Cell,
        target: Cell,
        now: float,
    ) -> Cell | None:
        """Try to move an active call to ``target``; return the new cell or None if dropped."""
        accepted = self._handoff_admitted(call, terminal, target, now)
        source_controller = self._controllers[source.cell_id]
        if accepted:
            source.base_station.release(call)
            source_controller.on_released(call, source.base_station, now)
            target.base_station.allocate(call)
            call.handoff(now, target.cell_id)
            self._controllers[target.cell_id].on_admitted(call, target.base_station, now)
            return target
        source.base_station.release(call)
        source_controller.on_released(call, source.base_station, now)
        call.drop(now, reason=f"handoff to cell {target.cell_id} denied")
        return None

    def _depart(self, active: _ActiveCall, target: Cell, now: float) -> None:
        """Release a call crossing into a cell this simulation does not own; post it."""
        call, cell, terminal = active.call, active.cell, active.terminal
        cell.base_station.release(call)
        self._controllers[cell.cell_id].on_released(call, cell.base_station, now)
        self._outbox.append(
            HandoffMessage(
                time=now,
                source_cell=cell.cell_id,
                target_cell=target.cell_id,
                call_id=call.call_id,
                service=call.service,
                bandwidth_units=call.bandwidth_units,
                holding_time_s=call.holding_time_s,
                elapsed_s=active.elapsed,
                requested_at=call.requested_at,
                handoff_count=call.handoff_count,
                position_x=terminal.x,
                position_y=terminal.y,
                speed_kmh=terminal.speed_kmh,
                heading_deg=terminal.heading_deg,
            )
        )

    def _deliver(self, message: HandoffMessage) -> None:
        """Admit (or drop) one inbound handoff at the current instant."""
        now = self._now
        cell = self._network.cell(message.target_cell)
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
        if self._handoff_admitted(call, terminal, cell, now):
            cell.base_station.allocate(call)
            call.handoff(now, cell.cell_id)
            self._controllers[cell.cell_id].on_admitted(call, cell.base_station, now)
            self._schedule(now, _CALL_START, _ActiveCall(call, terminal, cell, message.elapsed_s))
        else:
            self._handoff_failures += 1
            self._dropped += 1
            call.drop(now, reason=f"handoff to cell {cell.cell_id} denied")
            self._metrics.record_completion(call)

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
            self._controllers[cell.cell_id],
            model.sampler(
                streams.stream(f"arrivals-{cell.cell_id}"), config.arrival_rate_per_cell_per_s
            ),
            (
                streams.stream(f"class-{cell.cell_id}"),
                streams.stream(f"terminal-{cell.cell_id}"),
                streams.stream(f"holding-{cell.cell_id}"),
            ),
        )
        self._arrivals.append(arrivals)
        self._draw_block(arrivals, now)
        self._schedule(arrivals.times[0], _ARRIVAL, arrivals)

    def _draw_block(self, arrivals: _CellArrivals, now: float) -> None:
        """Draw a cell's next requests after ``now``, up to :data:`_BLOCK_ROWS`.

        The requests depend on the cell's own streams alone, never on the
        network's state, so drawing them ahead changes no value: each
        stream yields what it would have yielded one arrival at a time.
        Gaps are drawn until the first instant at or after the horizon,
        and a class, terminal and holding time only for the instants
        before it, as when each arrival popped.
        """
        if arrivals.verdicts is not None:
            self._paths.fold(arrivals.verdicts)
            arrivals.verdicts = None
        horizon = self._config.duration_s
        sampler = arrivals.sampler
        times: list[float] = []
        while len(times) < _BLOCK_ROWS:
            now = now + sampler.next_interarrival(now)
            times.append(now)
            if now >= horizon:
                break
        count = len(times) - (times[-1] >= horizon)
        codes = self._mix.sample_class_codes(arrivals.class_rng, count)
        columns = np.empty((7, count))
        columns[:_HOLDING] = self._draw_terminals(arrivals, count)
        columns[_HOLDING] = arrivals.holding_rng.exponential_by_means(self._mean_holdings[codes])
        arrivals.times = times
        arrivals.codes = codes.tolist()
        arrivals.columns = columns
        arrivals.next = 0
        if arrivals.blocks and count:
            arrivals.verdicts = arrivals.controller.decide_columns(
                columns[_SPEED],
                columns[_ANGLE],
                columns[_DISTANCE],
                np.asarray(self._bandwidths, dtype=np.float64)[codes],
            )
            self._paths.blocks += 1
            self._paths.rows += count

    def _draw_terminals(self, arrivals: _CellArrivals, count: int) -> np.ndarray:
        """Place ``count`` new terminals uniformly within the cell.

        Returns the ``_X`` to ``_DISTANCE`` rows, one column per terminal.
        """
        config, cell = self._config, arrivals.cell
        rng = arrivals.terminal_rng
        center, station = cell.center, cell.base_station.position
        mean_speed = config.mean_speed_kmh
        values: list[float] = []
        for _ in range(count):
            radius = config.cell_radius_km * math.sqrt(rng.uniform(0.0, 1.0))
            angle = rng.uniform(-180.0, 180.0)
            x = center.x + radius * math.cos(math.radians(angle))
            y = center.y + radius * math.sin(math.radians(angle))
            speed = max(rng.normal(mean_speed, mean_speed / 3.0), 0.0)
            heading = rng.angle_degrees()
            seen, distance = observation_at(x, y, normalize_angle(heading), station)
            values += (x, y, speed, heading, seen, distance)
        return np.array(values).reshape(count, _HOLDING).T

    def _arrive(self, arrivals: _CellArrivals, now: float) -> None:
        """A new-call request at one cell; then that cell's next arrival."""
        if now >= self._config.duration_s:
            return
        k = arrivals.next
        cell = arrivals.cell
        station = cell.base_station
        code = arrivals.codes[k]
        bandwidth = self._bandwidths[code]
        x, y, speed, heading, angle, distance, holding = arrivals.columns[:, k].tolist()
        call = Call(
            service=self._mix.services[code],
            bandwidth_units=bandwidth,
            call_type=CallType.NEW,
            user_state=UserState(speed, angle, distance).clamped(),
            requested_at=now,
            holding_time_s=holding,
            call_id=next(self._call_ids),
        )
        controller = arrivals.controller
        self._metrics.record_request(call)
        verdicts = arrivals.verdicts
        if verdicts is None:
            self._paths.asked_new += 1
            accepted = controller.accepts(call, station, now) and station.can_fit(bandwidth)
        elif station.can_fit(bandwidth):
            # A block's verdict is stateless, so the fit is checked first.
            accepted = verdicts.accepts(k, station.used_bu)
        else:
            self._paths.unfit += 1
            accepted = False
        self._metrics.record_decision(call, accepted)
        if accepted:
            station.allocate(call)
            call.admit(now, cell.cell_id)
            controller.on_admitted(call, station, now)
            terminal = MobileTerminal(Point(x, y), speed, heading)
            self._schedule(now, _CALL_START, _ActiveCall(call, terminal, cell))
        else:
            call.block(now, cell.cell_id)
        arrivals.next = k = k + 1
        if k == len(arrivals.times):
            self._draw_block(arrivals, now)
        self._schedule(arrivals.times[arrivals.next], _ARRIVAL, arrivals)

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
        """Move a call by one step; it then hands off, departs, leaves coverage or holds on."""
        active.elapsed += active.step
        terminal, cell = active.terminal, active.cell
        self._mobility.update(terminal, active.step, self._normals)
        if cell.inside_inscribed_circle(terminal.x, terminal.y):
            # Deep inside its cell: serving_cell could return only this cell.
            self._hold(active, now)
            return
        new_cell = self._network.serving_cell(terminal.position)
        call = active.call
        if new_cell is None:
            # Out of coverage: treat as a dropped call.
            cell.base_station.release(call)
            call.drop(now, reason="left network coverage")
            self._controllers[cell.cell_id].on_released(call, cell.base_station, now)
            self._dropped += 1
            self._metrics.record_completion(call)
            return
        if new_cell.cell_id != cell.cell_id:
            if new_cell.cell_id not in self._controllers:
                self._depart(active, new_cell, now)
                return
            self._handoff_attempts += 1
            target = self._attempt_handoff(call, terminal, cell, new_cell, now)
            if target is None:
                self._handoff_failures += 1
                self._dropped += 1
                self._metrics.record_completion(call)
                return
            active.cell = target
        self._hold(active, now)

    def step_to(
        self, until: float, inbound: Iterable[HandoffMessage] = ()
    ) -> list[HandoffMessage]:
        """Deliver ``inbound`` now, pop entries due by ``until``, return the outbox.

        ``inbound`` must already be in canonical ``(time, source_cell,
        call_id)`` order.  An entry due exactly at ``until`` pops in this
        step, and the clock is left at ``until``: the rule of a window
        ending at a barrier.
        """
        for message in inbound:
            self._deliver(message)
        config = self._config
        heap, pop = self._heap, heapq.heappop
        while heap and heap[0][0] <= until:
            now, _, kind, payload = pop(heap)
            if kind == _TICK:
                self._tick(payload, now)
            elif kind == _ARRIVAL:
                self._arrive(payload, now)
            elif kind == _CALL_START:
                self._hold(payload, now)
            elif kind == _ARRIVALS_START:
                self._open_arrivals(payload, now)
            else:
                # The occupancy sampler: one sample every mobility interval.
                if kind == _SAMPLE:
                    self._occupancy_time_integral += (
                        sum(cell.base_station.used_bu for cell in self._cells)
                        * config.mobility_update_s
                    )
                    self._last_occupancy_sample = now
                if now < config.duration_s:
                    self._schedule(now + config.mobility_update_s, _SAMPLE, None)
        self._now = until
        outbox, self._outbox = self._outbox, []
        return outbox

    def run(self) -> NetworkRunOutput:
        """Execute the simulation and return aggregated results.

        One step to three times the arrival horizon, so in-flight calls
        finish.
        """
        self.step_to(self._config.duration_s * 3.0)
        return merge_outcomes(self._config, [self.outcome()])

    def outcome(self) -> ShardOutcome:
        """This simulation's final counters, for :func:`merge_outcomes`.

        Logs the decision paths the run took at DEBUG on
        ``repro.simulation.engine``: the new calls answered from FACS
        blocks, by certified screen or exact FLC2 (and the rows whose FLC1
        ran exactly), those rejected before their block was asked because
        they did not fit, those asked per call, and the handoffs asked per
        call.  Screened, exact-FLC2, unfitting and per-call new calls add
        up to the new-call requests; handoffs asked to the handoff requests.
        """
        if _log.isEnabledFor(logging.DEBUG):
            paths = copy.copy(self._paths)
            for arrivals in self._arrivals:
                if arrivals.verdicts is not None:
                    paths.fold(arrivals.verdicts)
            _log.debug(
                "network decisions (%s, cells %d-%d): %d FACS blocks of %d rows, "
                "%d screened, %d exact FLC1 rows, %d exact FLC2 rows, %d new calls "
                "that did not fit, %d new calls asked per call, %d handoffs asked per call",
                self._controller_name,
                self._cells[0].cell_id,
                self._cells[-1].cell_id,
                *(getattr(paths, name) for name in _DecisionPaths.__slots__),
            )
        workload = self._config.workload
        class_names = () if workload is None else workload.class_names()
        return ShardOutcome(
            cell_id=self._cells[0].cell_id,
            controller=self._controller_name,
            counters=self._metrics.snapshot().as_counters(),
            handoff_attempts=self._handoff_attempts,
            handoff_failures=self._handoff_failures,
            completed_calls=self._completed,
            dropped_calls=self._dropped,
            occupancy_time_integral=self._occupancy_time_integral,
            last_occupancy_sample=self._last_occupancy_sample,
            class_values=self._metrics.class_counter_values(class_names),
        )


def merge_outcomes(
    config: NetworkExperimentConfig, outcomes: Sequence[ShardOutcome]
) -> NetworkRunOutput:
    """Sum the outcomes of simulations that together own every cell of a run."""
    counters = tuple(
        sum(outcome.counters[index] for outcome in outcomes)
        for index in range(len(CallMetrics.COUNTER_FIELDS))
    )
    last_sample = max(outcome.last_occupancy_sample for outcome in outcomes)
    elapsed = max(last_sample, config.mobility_update_s)
    result = RunResult(
        controller=outcomes[0].controller,
        metrics=CallMetrics.from_counters(counters),
        parameters={
            "rings": float(config.rings),
            "cells": float(hex_cell_count(config.rings)),
            "arrival_rate_per_cell_per_s": config.arrival_rate_per_cell_per_s,
            "duration_s": config.duration_s,
        },
        seed=config.seed,
    )
    workload = config.workload
    class_names = () if workload is None else workload.class_names()
    class_values = tuple(
        sum(values) for values in zip(*(outcome.class_values for outcome in outcomes))
    )
    return NetworkRunOutput(
        result=result,
        handoff_attempts=sum(o.handoff_attempts for o in outcomes),
        handoff_failures=sum(o.handoff_failures for o in outcomes),
        completed_calls=sum(o.completed_calls for o in outcomes),
        dropped_calls=sum(o.dropped_calls for o in outcomes),
        time_average_occupancy_bu=sum(o.occupancy_time_integral for o in outcomes) / elapsed,
        class_names=class_names,
        class_values=class_values,
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
