"""Online admission-control service: micro-batching front-end over FACS.

Three layers, one code path:

* :mod:`repro.service.server` — the asyncio server core: bounded queue,
  size/deadline micro-batcher.  FLC1 runs when a request is queued; the
  flush reads each request's FLC2 verdict (the certified screen's cell
  table, exact FLC2 only where it is ambiguous) at the flush-instant
  occupancy snapshot, then admits greedily
  (release-then-verdict-then-greedy-admit).
* :mod:`repro.service.replay` — deterministic replay of a seeded arrival
  trace on a virtual clock; what tests and CI gate on.
* :mod:`repro.service.loadgen` — closed-loop wall-clock load generator
  behind ``repro serve`` and the latency benchmark.
"""

from .clock import (
    Clock,
    MonotonicClock,
    VirtualClock,
    VirtualClockDeadlock,
    run_with_virtual_clock,
)
from .loadgen import build_load_requests, run_closed_loop, run_load_session
from .replay import run_service_replay
from .server import (
    ADMITTED,
    REJECTED,
    SHED,
    AdmissionServer,
    LatencySummary,
    ServiceBatchRecord,
    ServiceClosedError,
    ServiceConfig,
    ServiceDecision,
    ServiceReport,
    render_service_report,
)

__all__ = [
    "ADMITTED",
    "REJECTED",
    "SHED",
    "AdmissionServer",
    "Clock",
    "LatencySummary",
    "MonotonicClock",
    "ServiceBatchRecord",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceDecision",
    "ServiceReport",
    "VirtualClock",
    "VirtualClockDeadlock",
    "build_load_requests",
    "render_service_report",
    "run_closed_loop",
    "run_load_session",
    "run_service_replay",
    "run_with_virtual_clock",
]
