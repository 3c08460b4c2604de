"""Asyncio admission-control server: bounded queue → micro-batcher → FACS.

This is the online counterpart of the offline trace pipeline
(:mod:`repro.simulation.trace`).  Concurrent callers ``await
server.submit(call)``; the server coalesces pending requests into
micro-batches and answers them against live
:class:`~repro.cellular.cell.BaseStation` state.  Each admission runs in
the two halves of the FACS cascade.  FLC1 reads only the requesting user,
so ``submit`` computes the request's correction value
(:meth:`~repro.cac.facs.system.FuzzyAdmissionControlSystem.correction_value`)
when it queues the request, during the batching wait.  At the flush,
departures due by the flush instant are released, every request of the
micro-batch gets FLC2's verdict
(:meth:`~repro.cac.facs.system.FuzzyAdmissionControlSystem.verdict`: a
read of the certified screen's (R, Cs) cell table, exact FLC2 only where
that cell is ambiguous) at that one flush-instant occupancy snapshot, and
the accepted ones are admitted greedily while bandwidth lasts.  The trace
pipeline instead scores each request at the occupancy its own arrival
meets, so the two agree exactly with ``max_batch=1``, where every request
flushes alone at its arrival instant.

Batching policy — flush on whichever comes first:

* **size**: the pending queue reaches ``max_batch``;
* **deadline**: the oldest pending request has waited ``max_wait_ms``.

Backpressure is a bounded queue: when ``queue_capacity`` requests are
already pending, a new submission is *shed* — answered immediately with a
:data:`SHED` decision — rather than buffered without limit.  Shedding is
an explicit signal the caller can act on (back off, retry), never silent
loss.

Every state transition (enqueue, size-flush, shed) happens synchronously
inside ``submit``; the only task the server spawns is the deadline timer
for the oldest pending request, and it is cancelled the moment its batch
flushes.  That discipline is what lets the same server run under a
:class:`~repro.service.clock.VirtualClock` and produce byte-identical
replay reports regardless of asyncio scheduling order.
"""

from __future__ import annotations

import asyncio
import contextlib
import heapq
import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..cac.facs.system import FACSConfig, FuzzyAdmissionControlSystem
from ..cellular.calls import Call
from ..cellular.cell import BaseStation
from ..cellular.metrics import CallMetrics
from ..cellular.traffic import PAPER_BANDWIDTH_UNITS
from .clock import Clock, MonotonicClock

__all__ = [
    "ADMITTED",
    "REJECTED",
    "SHED",
    "AdmissionServer",
    "LatencySummary",
    "ServiceBatchRecord",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceDecision",
    "ServiceReport",
]

#: Decision outcomes, as strings so reports serialize without an enum layer.
ADMITTED = "admitted"
REJECTED = "rejected"
SHED = "shed"

#: Flush triggers recorded per batch.
FLUSH_SIZE = "size"
FLUSH_DEADLINE = "deadline"
FLUSH_CLOSE = "close"


class ServiceClosedError(RuntimeError):
    """Raised when a request is submitted to a closed server."""


@dataclass(frozen=True)
class ServiceConfig:
    """Micro-batching and backpressure knobs of the admission server."""

    max_batch: int = 8
    max_wait_ms: float = 2000.0
    queue_capacity: int = 64

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if not math.isfinite(self.max_wait_ms) or self.max_wait_ms <= 0:
            raise ValueError(f"max_wait_ms must be finite and > 0, got {self.max_wait_ms}")
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")

    @property
    def max_wait_s(self) -> float:
        return self.max_wait_ms / 1000.0


@dataclass(frozen=True)
class ServiceDecision:
    """Answer handed back to one ``submit`` caller."""

    call_id: int
    outcome: str
    enqueued_at_s: float
    decided_at_s: float
    batch_index: int | None

    @property
    def latency_s(self) -> float:
        return self.decided_at_s - self.enqueued_at_s


@dataclass(frozen=True)
class ServiceBatchRecord:
    """Outcome of one micro-batch flush."""

    index: int
    flushed_at_s: float
    size: int
    admitted: int
    reason: str
    occupancy_before_bu: int
    occupancy_after_bu: int


@dataclass(frozen=True)
class LatencySummary:
    """Decision-latency distribution in milliseconds (nearest-rank)."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @classmethod
    def from_latencies_s(cls, latencies_s: list[float]) -> "LatencySummary":
        if not latencies_s:
            return cls(count=0, mean_ms=0.0, p50_ms=0.0, p95_ms=0.0, p99_ms=0.0, max_ms=0.0)
        ordered = sorted(1000.0 * value for value in latencies_s)
        n = len(ordered)

        def rank(q: float) -> float:
            return ordered[max(0, math.ceil(q * n) - 1)]

        return cls(
            count=n,
            mean_ms=sum(ordered) / n,
            p50_ms=rank(0.50),
            p95_ms=rank(0.95),
            p99_ms=rank(0.99),
            max_ms=ordered[-1],
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "max_ms": self.max_ms,
        }


@dataclass(frozen=True)
class ServiceReport:
    """Aggregate outcome of one service session (live or replay)."""

    mode: str
    controller: str
    config: ServiceConfig
    capacity_bu: int
    submitted: int
    admitted: int
    rejected: int
    shed: int
    completed: int
    accepted_bu: int
    requested_bu: int
    peak_occupancy_bu: int
    batch_count: int
    size_flushes: int
    deadline_flushes: int
    close_flushes: int
    duration_s: float
    latency: LatencySummary
    batches: tuple[ServiceBatchRecord, ...] = ()

    @property
    def decided(self) -> int:
        """Requests answered through a batch (everything but shed)."""
        return self.admitted + self.rejected

    @property
    def metrics(self) -> CallMetrics:
        """The session as the repo-wide counter bundle.

        Shed requests are blocked-at-admission as far as grade-of-service
        accounting goes: the caller asked and was turned away.
        """
        return CallMetrics(
            requested=self.submitted,
            accepted=self.admitted,
            blocked=self.rejected + self.shed,
            completed=self.completed,
            dropped=0,
            handoff_requests=0,
            handoff_accepted=0,
            accepted_bu=self.accepted_bu,
            requested_bu=self.requested_bu,
        )

    @property
    def acceptance_percentage(self) -> float:
        return self.metrics.acceptance_percentage

    @property
    def throughput_dps(self) -> float:
        """Sustained decisions per second over the active span."""
        if self.duration_s <= 0.0:
            return 0.0
        return self.decided / self.duration_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "controller": self.controller,
            "max_batch": self.config.max_batch,
            "max_wait_ms": self.config.max_wait_ms,
            "queue_capacity": self.config.queue_capacity,
            "capacity_bu": self.capacity_bu,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "completed": self.completed,
            "accepted_bu": self.accepted_bu,
            "requested_bu": self.requested_bu,
            "peak_occupancy_bu": self.peak_occupancy_bu,
            "acceptance_percentage": self.acceptance_percentage,
            "batch_count": self.batch_count,
            "size_flushes": self.size_flushes,
            "deadline_flushes": self.deadline_flushes,
            "close_flushes": self.close_flushes,
            "duration_s": self.duration_s,
            "throughput_dps": self.throughput_dps,
            "latency_ms": self.latency.as_dict(),
            "batches": [
                {
                    "index": record.index,
                    "flushed_at_s": record.flushed_at_s,
                    "size": record.size,
                    "admitted": record.admitted,
                    "reason": record.reason,
                    "occupancy_before_bu": record.occupancy_before_bu,
                    "occupancy_after_bu": record.occupancy_after_bu,
                }
                for record in self.batches
            ],
        }

    def to_json(self) -> str:
        """Canonical JSON — the byte-identity surface replay tests gate on."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


@dataclass
class _Pending:
    call: Call
    correction: float
    enqueued_at: float
    future: asyncio.Future = field(repr=False)


class AdmissionServer:
    """Micro-batching admission front-end over one base station."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        capacity_bu: int = PAPER_BANDWIDTH_UNITS,
        facs_config: FACSConfig | None = None,
        clock: Clock | None = None,
        collect_batches: bool = True,
    ) -> None:
        self._config = config or ServiceConfig()
        self._clock = clock or MonotonicClock()
        self._collect_batches = collect_batches
        self._station = BaseStation(capacity_bu=capacity_bu)
        self._controller = FuzzyAdmissionControlSystem(facs_config or FACSConfig())
        self._controller.reset()

        self._pending: deque[_Pending] = deque()
        self._deadline_task: asyncio.Task | None = None
        self._generation = 0
        self._closed = False

        # Departure queue of admitted calls: (departure time, call id, call);
        # the per-run call id breaks time ties deterministically.
        self._departures: list[tuple[float, int, Call]] = []

        self._submitted = 0
        self._admitted = 0
        self._rejected = 0
        self._shed = 0
        self._completed = 0
        self._accepted_bu = 0
        self._requested_bu = 0
        self._peak_occupancy = 0
        self._size_flushes = 0
        self._deadline_flushes = 0
        self._close_flushes = 0
        self._latencies_s: list[float] = []
        self._batches: list[ServiceBatchRecord] = []
        self._batch_count = 0
        self._first_enqueued_at: float | None = None
        self._last_decided_at: float | None = None

    # ------------------------------------------------------------------
    @property
    def config(self) -> ServiceConfig:
        return self._config

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def station(self) -> BaseStation:
        return self._station

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    async def submit(self, call: Call) -> ServiceDecision:
        """Ask for admission; resolves when the call's batch is answered.

        Sheds immediately (bounded queue) when ``queue_capacity`` requests
        are already waiting.  A queued request's FLC1 runs here, so an FLC1
        error raises to this caller alone, before anything is counted or
        queued.  An FLC2 error at the flush raises to this caller alone too;
        the request then leaves the counters and its batch's size, and every
        other request of the batch is answered.
        """
        if self._closed:
            raise ServiceClosedError("admission server is closed")
        now = self._clock.now()
        shed = len(self._pending) >= self._config.queue_capacity
        correction = None if shed else self._controller.correction_value(call.user_state)
        self._submitted += 1
        self._requested_bu += call.bandwidth_units
        if self._first_enqueued_at is None:
            self._first_enqueued_at = now

        if shed:
            self._shed += 1
            call.block(now, self._station.station_id)
            return ServiceDecision(
                call_id=call.call_id,
                outcome=SHED,
                enqueued_at_s=now,
                decided_at_s=now,
                batch_index=None,
            )

        future = asyncio.get_running_loop().create_future()
        self._pending.append(
            _Pending(call=call, correction=correction, enqueued_at=now, future=future)
        )
        if len(self._pending) >= self._config.max_batch:
            self._flush(FLUSH_SIZE)
        elif len(self._pending) == 1:
            self._arm_deadline(now + self._config.max_wait_s, self._generation)
        return await future

    async def aclose(self) -> None:
        """Flush whatever is pending, retire in-flight calls, stop timers."""
        if self._closed:
            return
        self._closed = True
        while self._pending:
            self._flush(FLUSH_CLOSE)
        if self._deadline_task is not None:
            task, self._deadline_task = self._deadline_task, None
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        # Retire every admitted call still holding bandwidth so the final
        # ledger is empty and ``completed`` equals ``admitted``.
        while self._departures:
            self._release_next_departure()

    def report(self, mode: str = "live") -> ServiceReport:
        """Snapshot the session counters as an immutable report."""
        duration = 0.0
        if self._first_enqueued_at is not None and self._last_decided_at is not None:
            duration = max(0.0, self._last_decided_at - self._first_enqueued_at)
        return ServiceReport(
            mode=mode,
            controller=self._controller.name,
            config=self._config,
            capacity_bu=self._station.capacity_bu,
            submitted=self._submitted,
            admitted=self._admitted,
            rejected=self._rejected,
            shed=self._shed,
            completed=self._completed,
            accepted_bu=self._accepted_bu,
            requested_bu=self._requested_bu,
            peak_occupancy_bu=self._peak_occupancy,
            batch_count=self._batch_count,
            size_flushes=self._size_flushes,
            deadline_flushes=self._deadline_flushes,
            close_flushes=self._close_flushes,
            duration_s=duration,
            latency=LatencySummary.from_latencies_s(self._latencies_s),
            batches=tuple(self._batches),
        )

    # ------------------------------------------------------------------
    def _arm_deadline(self, deadline: float, generation: int) -> None:
        self._deadline_task = asyncio.get_running_loop().create_task(
            self._deadline_flush(deadline, generation)
        )

    async def _deadline_flush(self, deadline: float, generation: int) -> None:
        # Deadline timers use key=0: submitter wakeups key on the (>= 1)
        # call id, so under a virtual clock an exact deadline/arrival time
        # tie deterministically flushes before the new arrival enqueues.
        await self._clock.sleep_until(deadline, key=0)
        if self._generation == generation and self._pending:
            self._deadline_task = None
            self._flush(FLUSH_DEADLINE)

    def _release_next_departure(self) -> None:
        departure_time, _, departed = heapq.heappop(self._departures)
        self._station.release(departed)
        departed.complete(departure_time)
        self._controller.on_released(departed, self._station, departure_time)
        self._completed += 1

    def _flush(self, reason: str) -> None:
        """Answer one batch of pending requests, synchronously."""
        if self._deadline_task is not None:
            self._deadline_task.cancel()
            self._deadline_task = None
        self._generation += 1
        now = self._clock.now()

        batch: list[_Pending] = []
        while self._pending and len(batch) < self._config.max_batch:
            batch.append(self._pending.popleft())

        # Release departures due by the batch instant first, so every
        # verdict reads the occupancy at the flush instant.
        while self._departures and self._departures[0][0] <= now:
            self._release_next_departure()

        occupancy_before = self._station.used_bu
        verdict, can_fit = self._controller.verdict, self._station.can_fit
        answered = admitted_in_batch = 0
        batch_index = self._batch_count
        for pending in batch:
            call = pending.call
            bandwidth = call.bandwidth_units
            try:
                above_threshold = verdict(pending.correction, bandwidth, occupancy_before)
            except Exception as exc:
                # An FLC2 error fails its own caller alone and, like an FLC1
                # error in submit, leaves its request uncounted.
                self._submitted -= 1
                self._requested_bu -= bandwidth
                if not pending.future.done():
                    pending.future.set_exception(exc)
                continue
            answered += 1
            accepted = above_threshold and can_fit(bandwidth)
            if accepted:
                self._station.allocate(call)
                call.admit(now, self._station.station_id)
                self._controller.on_admitted(call, self._station, now)
                heapq.heappush(
                    self._departures,
                    (now + call.holding_time_s, call.call_id, call),
                )
                self._admitted += 1
                admitted_in_batch += 1
                self._accepted_bu += call.bandwidth_units
                self._peak_occupancy = max(self._peak_occupancy, self._station.used_bu)
            else:
                call.block(now, self._station.station_id)
                self._rejected += 1
            self._latencies_s.append(now - pending.enqueued_at)
            self._last_decided_at = now
            if not pending.future.done():
                pending.future.set_result(
                    ServiceDecision(
                        call_id=call.call_id,
                        outcome=ADMITTED if accepted else REJECTED,
                        enqueued_at_s=pending.enqueued_at,
                        decided_at_s=now,
                        batch_index=batch_index,
                    )
                )

        self._batch_count += 1
        if reason == FLUSH_SIZE:
            self._size_flushes += 1
        elif reason == FLUSH_DEADLINE:
            self._deadline_flushes += 1
        else:
            self._close_flushes += 1
        if self._collect_batches:
            self._batches.append(
                ServiceBatchRecord(
                    index=batch_index,
                    flushed_at_s=now,
                    size=answered,
                    admitted=admitted_in_batch,
                    reason=reason,
                    occupancy_before_bu=occupancy_before,
                    occupancy_after_bu=self._station.used_bu,
                )
            )
        # A size-flush can leave newer arrivals queued (close drains in
        # chunks too); re-arm the deadline for the new oldest request.
        if self._pending and not self._closed:
            self._arm_deadline(
                self._pending[0].enqueued_at + self._config.max_wait_s,
                self._generation,
            )


def render_service_report(report: ServiceReport) -> str:
    """Human-readable summary used by the CLI and runner."""
    latency = report.latency
    lines = [
        f"admission service ({report.mode}) — {report.controller} on "
        f"{report.capacity_bu} BU",
        (
            f"batching: max_batch={report.config.max_batch} "
            f"max_wait_ms={report.config.max_wait_ms:g} "
            f"queue_capacity={report.config.queue_capacity}"
        ),
        (
            f"requests: submitted={report.submitted} admitted={report.admitted} "
            f"rejected={report.rejected} shed={report.shed} "
            f"completed={report.completed}"
        ),
        (
            f"acceptance: {report.acceptance_percentage:.2f}% "
            f"(peak occupancy {report.peak_occupancy_bu}/{report.capacity_bu} BU)"
        ),
        (
            f"batches: {report.batch_count} "
            f"(size={report.size_flushes} deadline={report.deadline_flushes} "
            f"close={report.close_flushes})"
        ),
        (
            f"latency ms: p50={latency.p50_ms:.3f} p95={latency.p95_ms:.3f} "
            f"p99={latency.p99_ms:.3f} max={latency.max_ms:.3f}"
        ),
        (
            f"throughput: {report.throughput_dps:.1f} decisions/s "
            f"over {report.duration_s:.3f}s"
        ),
    ]
    return "\n".join(lines)
