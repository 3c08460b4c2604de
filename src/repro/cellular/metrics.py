"""Call-level performance metrics.

The paper's figures report the **percentage of accepted calls** as a function
of the number of requesting connections; the integration experiments
additionally need new-call blocking probability, handoff dropping
probability, bandwidth utilisation and the grade-of-service combination the
CAC literature uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

from ..analysis.stats import acceptance_percentage as _acceptance_percentage
from .calls import Call, CallState, CallType
from .traffic import ServiceClass

__all__ = ["CallMetrics", "MetricsCollector"]


@dataclass(frozen=True)
class CallMetrics:
    """Aggregated counters over a set of finished calls."""

    requested: int
    accepted: int
    blocked: int
    completed: int
    dropped: int
    handoff_requests: int
    handoff_accepted: int
    accepted_bu: int
    requested_bu: int

    #: Counter field names in declaration order — the fixed column schema the
    #: columnar result store (:mod:`repro.analysis.frame`) carries per run.
    COUNTER_FIELDS: ClassVar[tuple[str, ...]] = (
        "requested",
        "accepted",
        "blocked",
        "completed",
        "dropped",
        "handoff_requests",
        "handoff_accepted",
        "accepted_bu",
        "requested_bu",
    )

    def as_counters(self) -> tuple[int, ...]:
        """The counters as a plain tuple in :data:`COUNTER_FIELDS` order.

        Spelled out (not a getattr loop): this sits on the per-row hot
        path of the columnar result store.
        """
        return (
            self.requested,
            self.accepted,
            self.blocked,
            self.completed,
            self.dropped,
            self.handoff_requests,
            self.handoff_accepted,
            self.accepted_bu,
            self.requested_bu,
        )

    @classmethod
    def from_counters(cls, counters: Sequence[int]) -> "CallMetrics":
        """Rebuild a metrics record from an :meth:`as_counters` tuple."""
        if len(counters) != len(cls.COUNTER_FIELDS):
            raise ValueError(
                f"expected {len(cls.COUNTER_FIELDS)} counters "
                f"({', '.join(cls.COUNTER_FIELDS)}), got {len(counters)}"
            )
        return cls(*(int(value) for value in counters))

    # ------------------------------------------------------------------
    @property
    def acceptance_percentage(self) -> float:
        """Percentage of accepted calls, 0–100 (the y axis of Figs. 7–10).

        Delegates to the shared arithmetic spec in
        :func:`repro.analysis.stats.acceptance_percentage`.
        """
        return _acceptance_percentage(self.accepted, self.requested)

    @property
    def blocking_probability(self) -> float:
        """New-call blocking probability."""
        if self.requested == 0:
            return 0.0
        return self.blocked / self.requested

    @property
    def dropping_probability(self) -> float:
        """Probability that an admitted call is dropped before completion."""
        if self.accepted == 0:
            return 0.0
        return self.dropped / self.accepted

    @property
    def handoff_dropping_probability(self) -> float:
        """Probability a handoff request is denied."""
        if self.handoff_requests == 0:
            return 0.0
        return 1.0 - self.handoff_accepted / self.handoff_requests

    @property
    def bandwidth_acceptance_ratio(self) -> float:
        """Fraction of requested bandwidth units that were admitted."""
        if self.requested_bu == 0:
            return 0.0
        return self.accepted_bu / self.requested_bu

    def grade_of_service(self, dropping_penalty: float = 10.0) -> float:
        """Weighted QoS cost: blocking + penalty x dropping (lower is better).

        Users are "much more sensitive to call dropping than to call
        blocking" (Section 1), so dropping is weighted more heavily.
        """
        if dropping_penalty < 0:
            raise ValueError(f"dropping penalty must be non-negative, got {dropping_penalty}")
        return self.blocking_probability + dropping_penalty * self.dropping_probability


class MetricsCollector:
    """Accumulates per-call outcomes and produces :class:`CallMetrics`."""

    def __init__(self) -> None:
        self._requested = 0
        self._accepted = 0
        self._blocked = 0
        self._completed = 0
        self._dropped = 0
        self._handoff_requests = 0
        self._handoff_accepted = 0
        self._accepted_bu = 0
        self._requested_bu = 0
        self._by_service: dict[ServiceClass, dict[str, int]] = {}

    # ------------------------------------------------------------------
    def record_request(self, call: Call) -> None:
        """Record that a connection request arrived."""
        self._requested += 1
        self._requested_bu += call.bandwidth_units
        if call.call_type is CallType.HANDOFF:
            self._handoff_requests += 1
        bucket = self._service_bucket(call.service)
        bucket["requested"] += 1

    def record_decision(self, call: Call, accepted: bool) -> None:
        """Record the admission decision for a previously recorded request."""
        bucket = self._service_bucket(call.service)
        if accepted:
            self._accepted += 1
            self._accepted_bu += call.bandwidth_units
            bucket["accepted"] += 1
            if call.call_type is CallType.HANDOFF:
                self._handoff_accepted += 1
        else:
            self._blocked += 1
            bucket["blocked"] += 1

    def record_completion(self, call: Call) -> None:
        """Record the final fate of an admitted call."""
        bucket = self._service_bucket(call.service)
        if call.state is CallState.COMPLETED:
            self._completed += 1
            bucket["completed"] += 1
        elif call.state is CallState.DROPPED:
            self._dropped += 1
            bucket["dropped"] += 1
        else:
            raise ValueError(
                f"call {call.call_id} is not finished (state={call.state.value})"
            )

    def _service_bucket(self, service: ServiceClass) -> dict[str, int]:
        if service not in self._by_service:
            self._by_service[service] = {
                "requested": 0,
                "accepted": 0,
                "blocked": 0,
                "dropped": 0,
                "completed": 0,
            }
        return self._by_service[service]

    # ------------------------------------------------------------------
    def snapshot(self) -> CallMetrics:
        """Produce an immutable metrics record for the data collected so far."""
        return CallMetrics(
            requested=self._requested,
            accepted=self._accepted,
            blocked=self._blocked,
            completed=self._completed,
            dropped=self._dropped,
            handoff_requests=self._handoff_requests,
            handoff_accepted=self._handoff_accepted,
            accepted_bu=self._accepted_bu,
            requested_bu=self._requested_bu,
        )

    def per_service(self) -> dict[ServiceClass, dict[str, int]]:
        """Per-class request/accept/block/drop/complete counters."""
        return {service: dict(counts) for service, counts in self._by_service.items()}

    def class_counter_values(self, service_names: Sequence[str]) -> tuple[float, ...]:
        """Flattened per-class counters of the named services.

        Class-major order over (requested, accepted, blocked, dropped,
        completed) — the exact layout of
        :data:`repro.analysis.frame.CLASS_COUNTER_FIELDS`, so workload
        runs can hand the tuple straight to a frame row.  Services with
        no recorded calls report zeros.
        """
        values: list[float] = []
        empty = {"requested": 0, "accepted": 0, "blocked": 0, "dropped": 0, "completed": 0}
        for name in service_names:
            bucket = self._by_service.get(ServiceClass(name), empty)
            values.extend(
                float(bucket[counter])
                for counter in ("requested", "accepted", "blocked", "dropped", "completed")
            )
        return tuple(values)

    def acceptance_percentage_for(self, service: ServiceClass) -> float:
        """Acceptance percentage restricted to one service class."""
        bucket = self._by_service.get(service)
        if not bucket or bucket["requested"] == 0:
            return 0.0
        return 100.0 * bucket["accepted"] / bucket["requested"]
