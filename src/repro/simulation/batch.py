"""The single-cell batch experiment behind Figs. 7–10.

``request_count`` connection requests arrive at a single base station over a
fixed window; the configured admission controller decides each one; admitted
calls hold their bandwidth for an exponential, class-dependent holding time
and then release it.  The output is the percentage of accepted calls — the
y axis of every figure in the paper's evaluation.

One admission loop runs every controller.  The whole trace is drawn first
as numpy columns (:func:`build_trace_arrays`); the arrivals are then walked
in order with a departure heap.  At each arrival every departure due at or
before that instant is released, in the order (departure instant, admission
order) the DES's event queue uses.  Instants are computed the way the DES
clock computes them (``now + (t − now)``, then ``now + holding``), so the
departure order is the DES's bit for bit.  Row ``k``'s verdict comes from
one of three places:

* **FACS blocks.**  FLC1 does not depend on the base station, so for an
  exact FACS controller it runs once per fixed block of rows through
  :meth:`~repro.cac.facs.system.FuzzyAdmissionControlSystem.decide_columns`,
  and the block answers each row at the occupancy its request meets (FLC2's
  ``Cs`` input): from the certified decision screen where the controller
  pair has one, by exact inference where it has none.
* **SCC blocks.**  For an exact SCC controller,
  :meth:`~repro.cac.scc.system.ShadowClusterController.decide_columns`
  gives each row of a block its in-cell demand tuple and its reservation
  verdict, the block's reservations drawn in one kernel call.  The
  controller's demand estimator is the envelope ledger: the loop adds a
  row's demand at its admission and removes it at its departure, and the
  block answers each row at the occupancy and ledger its request meets.

  A request that does not fit the free bandwidth is rejected before either
  kind of block is asked, since asking changes nothing.  Neither the block
  size nor the path changes an answer, and no ``Call`` or ``BaseStation``
  is built.
* **The controller.**  Every other controller (a subclass of either too),
  and every run that collects the per-call trace, is asked about each
  request's :class:`Call` at a :class:`BaseStation` whose ledger holds the
  admitted calls, and hears ``on_admitted`` and ``on_released`` at the
  admission and departure instants.  It is asked before the fit check, as
  the DES asks it, because asking may change its state (MPCLookahead
  updates its load estimates on every new call).  A trace run calls
  ``decide`` and records its score.

Each column run logs one DEBUG record on ``repro.simulation.batch``: the
paths FACS blocks took, or SCC's reservation rows, failed draws, kernel
calls and envelope sums recomputed against extended.

The discrete-event loop (:func:`run_des_experiment`, on :mod:`repro.des`)
replays the same trace with one generator process and a departure process
per admitted call, so occupancy rises and falls exactly as it would in the
authors' event-driven simulator.  It is the admission loop's oracle.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..analysis.frame import FrameRow, run_result_row
from ..cac.base import AdmissionController
from ..cac.facs.system import ExactColumns, FuzzyAdmissionControlSystem
from ..cac.scc.system import ShadowClusterController
from ..cellular.calls import Call, CallType
from ..cellular.cell import BaseStation
from ..cellular.metrics import CallMetrics, MetricsCollector
from ..cellular.mobility import UserState
from ..cellular.traffic import ServiceClass
from ..des.environment import Environment
from ..des.rng import StreamFactory
from .config import BatchExperimentConfig
from .results import RunResult

__all__ = [
    "BatchCallRecord",
    "BatchRunOutput",
    "TraceArrays",
    "build_requests",
    "build_trace_arrays",
    "run_batch_experiment",
    "run_batch_experiment_row",
    "run_des_experiment",
]

ControllerFactory = Callable[[], AdmissionController]

_log = logging.getLogger(__name__)

#: Rows per FLC1 pass of a FACS block (and per SCC block).  Smaller blocks
#: pay more per-call overhead; larger ones hold more FLC1 intermediates at
#: once (a whole 20k-request trace in one block about doubles the process's
#: peak RSS).
_BLOCK_ROWS = 512

#: The counters each kind of column block keeps, summed over a run's blocks
#: for its DEBUG record.
_COUNTERS = {
    FuzzyAdmissionControlSystem: ("screened", "exact_flc1", "exact_flc2"),
    ShadowClusterController: ("reservation_rows", "failed_rows", "kernel_calls", "kernel_ms"),
}


@dataclass(frozen=True)
class BatchCallRecord:
    """Per-request trace entry produced by the batch experiment."""

    call_id: int
    arrival_time_s: float
    service: ServiceClass
    bandwidth_units: int
    user_state: UserState
    accepted: bool
    score: float
    occupancy_before_bu: int


@dataclass(frozen=True)
class BatchRunOutput:
    """Full output of one batch run: metrics plus the per-call trace."""

    result: RunResult
    records: tuple[BatchCallRecord, ...]
    peak_occupancy_bu: int
    #: Per-service-class admission counters, attached only by workload
    #: runs: class names and values flattened class-major over
    #: :data:`repro.analysis.frame.CLASS_COUNTER_FIELDS`.
    class_names: tuple[str, ...] = ()
    class_values: tuple[float, ...] = ()

    @property
    def acceptance_percentage(self) -> float:
        return self.result.acceptance_percentage


@dataclass(frozen=True)
class TraceArrays:
    """A whole arrival trace as one numpy column per request attribute.

    The columnar twin of the ``list[Call]`` the DES replays: same draws,
    same values, no per-request objects.  ``class_codes`` indexes into
    ``services`` (the traffic mix's class order); every column has one entry
    per request, in arrival order, and call ids are implicitly ``1..n`` —
    exactly the per-run sequential ids :func:`build_requests` assigns.
    """

    services: tuple[ServiceClass, ...]
    arrival_time_s: np.ndarray
    class_codes: np.ndarray
    bandwidth_units: np.ndarray
    holding_time_s: np.ndarray
    speed_kmh: np.ndarray
    angle_deg: np.ndarray
    distance_km: np.ndarray

    def __len__(self) -> int:
        return len(self.arrival_time_s)

    @property
    def requested_bu(self) -> int:
        """Total requested bandwidth of the trace — one vectorized sum."""
        return int(self.bandwidth_units.sum())

    def to_calls(self) -> list[Call]:
        """Materialize the per-request :class:`Call` objects of the trace."""
        services = self.services
        codes = self.class_codes.tolist()
        bandwidths = self.bandwidth_units.tolist()
        arrivals = self.arrival_time_s.tolist()
        holdings = self.holding_time_s.tolist()
        speeds = self.speed_kmh.tolist()
        angles = self.angle_deg.tolist()
        distances = self.distance_km.tolist()
        return [
            Call(
                service=services[codes[index]],
                bandwidth_units=bandwidths[index],
                call_type=CallType.NEW,
                user_state=UserState(
                    speed_kmh=speeds[index],
                    angle_deg=angles[index],
                    distance_km=distances[index],
                ),
                requested_at=arrivals[index],
                holding_time_s=holdings[index],
                # Per-run sequential ids (not the process-global counter), so
                # run outputs — traces, and anything keyed or seeded by id —
                # are a pure function of the config, identical in any process
                # or execution order.
                call_id=index + 1,
            )
            for index in range(len(arrivals))
        ]


def build_trace_arrays(
    config: BatchExperimentConfig, streams: StreamFactory
) -> TraceArrays:
    """Draw the whole trace as columns — bit-identical to the object path.

    A pure function of ``(config, streams)``, like :func:`build_requests`
    (which materializes its objects from these columns).  Each attribute
    draws from its own named stream, and the streams are independent, so
    batching per stream preserves the historical per-request draw sequence
    bit for bit: sized numpy draws consume each generator exactly like the
    scalar loops did — for the legacy no-workload sequence and for every
    :data:`~repro.workloads.spec.WORKLOADS` arrival model.
    """
    arrival_rng = streams.stream("arrivals")
    class_rng = streams.stream("service-class")
    user_rng = streams.stream("user-state")
    holding_rng = streams.stream("holding-time")

    count = config.request_count
    if config.workload is None:
        # The legacy draw sequence (sorted uniforms over the window),
        # reproduced bit for bit by the vectorized order statistics.
        arrival_times = np.sort(
            arrival_rng.uniform_batch(0.0, config.arrival_window_s, count)
        )
    else:
        arrival_times = config.workload.arrival.batch_arrival_times_array(
            arrival_rng, count, config.arrival_window_s
        )
    mix = config.effective_traffic_mix()
    class_codes = mix.sample_class_codes(class_rng, count)
    speed, angle, distance = config.user_profile.sample_columns(user_rng, count)
    holding = holding_rng.exponential_by_means(
        mix.mean_holding_by_code()[class_codes]
    )
    return TraceArrays(
        services=mix.services,
        arrival_time_s=arrival_times,
        class_codes=class_codes,
        bandwidth_units=mix.bandwidth_by_code()[class_codes],
        holding_time_s=holding,
        speed_kmh=speed,
        angle_deg=angle,
        distance_km=distance,
    )


def build_requests(config: BatchExperimentConfig, streams: StreamFactory) -> list[Call]:
    """Draw the arrival times, service classes and user states of all requests.

    A pure function of ``(config, streams)``: the same seeded configuration
    always yields the same trace.  The draws happen columnar-ly in
    :func:`build_trace_arrays`, which the admission loop reads directly;
    this merely materializes their `Call` objects, so the two
    representations can never drift apart.
    """
    return build_trace_arrays(config, streams).to_calls()


def run_batch_experiment(
    config: BatchExperimentConfig,
    controller_factory: ControllerFactory,
    collect_trace: bool = False,
) -> BatchRunOutput:
    """Run one batch experiment and return metrics (and optionally the trace).

    Every controller runs through the one admission loop (see the module
    docstring).  Only an exact
    :class:`~repro.cac.facs.system.FuzzyAdmissionControlSystem` reads FACS
    blocks and only an exact
    :class:`~repro.cac.scc.system.ShadowClusterController` SCC blocks, since
    a subclass may override ``decide``; any other controller, and
    ``collect_trace=True``, is asked per request.  Each
    :class:`BatchCallRecord` of the trace carries its request's ``decide``
    score.  The output equals :func:`run_des_experiment`'s.
    """
    controller = controller_factory()
    arrays = build_trace_arrays(
        config, StreamFactory(master_seed=config.stream_master_seed)
    )
    capacity = config.capacity_bu
    kind = type(controller)
    asked = ledger = None
    if collect_trace or kind not in (FuzzyAdmissionControlSystem, ShadowClusterController):
        asked = _AskedController(controller, arrays.to_calls(), capacity, collect_trace)
    elif kind is ShadowClusterController:
        controller.reset()
        ledger = controller.estimator
    arrivals = arrays.arrival_time_s.tolist()
    holdings = arrays.holding_time_s.tolist()
    bandwidths = arrays.bandwidth_units.tolist()
    request_bus = arrays.bandwidth_units.astype(np.float64)
    total = len(arrivals)

    # Admitted calls' (departure instant, row, bandwidth), earliest first.
    # Rows are admitted in order, so ties release in admission order.
    departures: list[tuple[float, int, int]] = []
    admitted = np.zeros(total, dtype=bool)
    now = 0.0
    used = peak_occupancy = 0
    counters = dict.fromkeys(_COUNTERS[kind] if asked is None else (), 0)
    path = "exact"
    for start in range(0, total, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, total)
        if ledger is not None:
            block = controller.decide_columns(
                arrays.arrival_time_s[start:stop],
                arrays.speed_kmh[start:stop],
                arrays.angle_deg[start:stop],
                arrays.distance_km[start:stop],
                arrays.bandwidth_units[start:stop],
                capacity,
            )
        elif asked is None:
            block = controller.decide_columns(
                arrays.speed_kmh[start:stop],
                arrays.angle_deg[start:stop],
                arrays.distance_km[start:stop],
                request_bus[start:stop],
            )
            if not isinstance(block, ExactColumns):
                path = "screened"
        for row in range(start, stop):
            delay = arrivals[row] - now
            if delay > 0:
                now = now + delay
            while departures and departures[0][0] <= now:
                instant, done, bandwidth = heapq.heappop(departures)
                used -= bandwidth
                if asked is not None:
                    asked.release(done, instant)
                elif ledger is not None:
                    ledger.remove(done)
            bandwidth = bandwidths[row]
            if asked is not None:
                # The controller is asked first and the fit checked after.
                if not asked.admits(row, now):
                    continue
            # Asking a block changes nothing, so the fit is checked first.
            elif used + bandwidth > capacity or not block.accepts(row - start, used):
                continue
            elif ledger is not None:
                # The admitted row's demand joins SCC's envelope.
                ledger.add(row, block.demands[row - start])
            used += bandwidth
            admitted[row] = True
            peak_occupancy = max(peak_occupancy, used)
            heapq.heappush(departures, (now + holdings[row], row, bandwidth))
        for name in counters:
            counters[name] += getattr(block, name)

    records: tuple[BatchCallRecord, ...] = ()
    if asked is not None:
        # The DES goes on to run every departure left after the last arrival.
        while departures:
            instant, done, _ = heapq.heappop(departures)
            asked.release(done, instant)
        records = tuple(asked.records or ())
    elif ledger is not None:
        _log.debug(
            "SCC columns: %d requests, %d needed reservations, %d failed their "
            "draw; %d kernel calls in %.3f ms; envelope sums recomputed %d times "
            "after a departure, extended %d times by an admission",
            total,
            counters["reservation_rows"],
            counters["failed_rows"],
            counters["kernel_calls"],
            counters["kernel_ms"],
            ledger.recomputed,
            ledger.extended,
        )
        controller.reset()
    else:
        _log.debug(
            "FACS blocks (%s): %d requests, %d screened, %d exact FLC1 rows, "
            "%d exact FLC2 rows",
            path,
            total,
            counters["screened"],
            counters["exact_flc1"],
            counters["exact_flc2"],
        )
    accepted = int(admitted.sum())
    metrics = CallMetrics(
        requested=total,
        accepted=accepted,
        blocked=total - accepted,
        completed=accepted,
        dropped=0,
        handoff_requests=0,
        handoff_accepted=0,
        accepted_bu=int(arrays.bandwidth_units[admitted].sum()),
        requested_bu=arrays.requested_bu,
    )
    class_names = () if config.workload is None else config.workload.class_names()
    return _run_output(
        config,
        controller,
        metrics,
        peak_occupancy,
        class_names,
        _class_counter_values(arrays, admitted, class_names),
        records,
    )


class _AskedController:
    """A controller asked about each request on its :class:`Call`, as the DES asks.

    It sees a :class:`BaseStation` whose ledger holds the admitted calls,
    each call moves through the lifecycle the DES gives it, and the
    controller hears ``on_admitted`` at each admission and ``on_released``
    at each departure instant.  ``records`` collects the per-call trace
    when asked to, else it is ``None``.
    """

    def __init__(
        self,
        controller: AdmissionController,
        calls: list[Call],
        capacity_bu: int,
        collect_trace: bool,
    ):
        controller.reset()
        self._controller = controller
        self._calls = calls
        self._station = BaseStation(capacity_bu=capacity_bu)
        self.records: list[BatchCallRecord] | None = [] if collect_trace else None

    def admits(self, row: int, now: float) -> bool:
        """Ask about row ``row``'s request at ``now``, then admit it if the
        controller accepts it and it fits."""
        call = self._calls[row]
        station = self._station
        controller = self._controller
        if self.records is None:
            accepted = controller.accepts(call, station, now) and station.can_fit(
                call.bandwidth_units
            )
        else:
            occupancy_before = station.used_bu
            decision = controller.decide(call, station, now)
            accepted = decision.accepted and station.can_fit(call.bandwidth_units)
            self.records.append(
                BatchCallRecord(
                    call_id=call.call_id,
                    arrival_time_s=now,
                    service=call.service,
                    bandwidth_units=call.bandwidth_units,
                    user_state=call.user_state,
                    accepted=accepted,
                    score=decision.score,
                    occupancy_before_bu=occupancy_before,
                )
            )
        if accepted:
            station.allocate(call)
            call.admit(now, station.station_id)
            controller.on_admitted(call, station, now)
        else:
            call.block(now, station.station_id)
        return accepted

    def release(self, row: int, instant: float) -> None:
        """Release row ``row``'s call at its departure instant."""
        call = self._calls[row]
        self._station.release(call)
        call.complete(instant)
        self._controller.on_released(call, self._station, instant)


def _class_counter_values(
    arrays: TraceArrays, admitted: np.ndarray, class_names: tuple[str, ...]
) -> tuple[float, ...]:
    """Per-class counters of an admission-loop run, laid out like
    :meth:`~repro.cellular.metrics.MetricsCollector.class_counter_values`:
    every admitted call completes and none is dropped.  A workload's
    classes are its traffic mix's, so each name has a class code."""
    slots = len(arrays.services)
    requested = np.bincount(arrays.class_codes, minlength=slots).tolist()
    accepted = np.bincount(arrays.class_codes[admitted], minlength=slots).tolist()
    values: list[float] = []
    for name in class_names:
        code = arrays.services.index(ServiceClass(name))
        asked, taken = requested[code], accepted[code]
        values += (asked, taken, asked - taken, 0, taken)
    return tuple(float(value) for value in values)


def run_des_experiment(
    config: BatchExperimentConfig,
    controller: AdmissionController,
    collect_trace: bool = False,
) -> BatchRunOutput:
    """Run one batch experiment on the discrete-event loop.

    Any controller, decided request by request through its scalar
    ``decide``.  The oracle :func:`run_batch_experiment` is held equal to,
    field for field, and what
    :func:`~repro.simulation.trace.run_trace_arrivals` runs with
    ``stream=False``.
    """
    streams = StreamFactory(master_seed=config.stream_master_seed)
    requests = build_requests(config, streams)

    env = Environment()
    station = BaseStation(capacity_bu=config.capacity_bu)
    controller.reset()
    metrics = MetricsCollector()
    records: list[BatchCallRecord] = []
    peak_occupancy = 0

    def departure(call: Call):
        yield env.timeout(call.holding_time_s)
        station.release(call)
        call.complete(env.now)
        controller.on_released(call, station, env.now)
        metrics.record_completion(call)

    def arrival_process():
        nonlocal peak_occupancy
        for call in requests:
            delay = call.requested_at - env.now
            if delay > 0:
                yield env.timeout(delay)
            occupancy_before = station.used_bu
            metrics.record_request(call)
            decision = controller.decide(call, station, env.now)
            accepted = decision.accepted and station.can_fit(call.bandwidth_units)
            if accepted:
                station.allocate(call)
                call.admit(env.now, station.station_id)
                controller.on_admitted(call, station, env.now)
                env.process(departure(call), name=f"departure-{call.call_id}")
                peak_occupancy = max(peak_occupancy, station.used_bu)
            else:
                call.block(env.now, station.station_id)
            metrics.record_decision(call, accepted)
            if collect_trace:
                records.append(
                    BatchCallRecord(
                        call_id=call.call_id,
                        arrival_time_s=env.now,
                        service=call.service,
                        bandwidth_units=call.bandwidth_units,
                        user_state=call.user_state,
                        accepted=accepted,
                        score=decision.score,
                        occupancy_before_bu=occupancy_before,
                    )
                )

    env.process(arrival_process(), name="arrivals")
    env.run()

    class_names = () if config.workload is None else config.workload.class_names()
    return _run_output(
        config,
        controller,
        metrics.snapshot(),
        peak_occupancy,
        class_names,
        metrics.class_counter_values(class_names),
        tuple(records),
    )


def _run_output(
    config: BatchExperimentConfig,
    controller: AdmissionController,
    metrics: CallMetrics,
    peak_occupancy: int,
    class_names: tuple[str, ...],
    class_values: tuple[float, ...],
    records: tuple[BatchCallRecord, ...] = (),
) -> BatchRunOutput:
    """Assemble a run's output; the admission loop and the DES both report
    through here."""
    parameters = {
        "request_count": float(config.request_count),
        "capacity_bu": float(config.capacity_bu),
        "arrival_window_s": float(config.arrival_window_s),
    }
    profile = config.user_profile
    if profile.speed_kmh is not None:
        parameters["speed_kmh"] = float(profile.speed_kmh)
    if profile.angle_deg is not None:
        parameters["angle_deg"] = float(profile.angle_deg)
    if profile.distance_km is not None:
        parameters["distance_km"] = float(profile.distance_km)

    result = RunResult(
        controller=controller.name,
        metrics=metrics,
        parameters=parameters,
        seed=config.seed,
    )
    return BatchRunOutput(
        result=result,
        records=records,
        peak_occupancy_bu=peak_occupancy,
        class_names=class_names,
        class_values=class_values,
    )


def run_batch_experiment_row(
    config: BatchExperimentConfig,
    controller_factory: ControllerFactory,
    label: str | None = None,
) -> FrameRow:
    """Run one batch experiment and emit its compact counter row.

    This is what sweep workers return instead of the heavyweight run
    output: a flat tuple of counters and parameters the columnar
    :class:`~repro.analysis.frame.MetricsFrame` stacks and
    ``group_reduce``-s, so nothing richer ever crosses a process boundary.
    """
    output = run_batch_experiment(config, controller_factory)
    return run_result_row(
        output.result,
        label=label,
        replication=config.replication,
        class_names=output.class_names,
        class_values=output.class_values,
    )
