"""Open-loop load for the live admission service.

Mobile users arrive independently of each other, so the generator sends on
a seeded Poisson schedule regardless of how fast the server answers: one
process, one event loop, one :class:`repro.service.AdmissionServer`.  Each
request is timed three ways, all ending when its caller holds the decision:
from the instant it was *due*, from the instant its caller submitted it,
and the server's own enqueue -> decide stamp.  The server stamps a batch
before scoring it, so its stamp is the batching wait alone; the submit
time adds the batch's ``decide_batch`` and the caller's wake-up.  The
generator's own lateness (send time minus due time) is kept beside them.
On a shared machine the vCPU stalls for milliseconds at a time; a stall
delays the generator and so lands in the due-time latency of every request
it held back, while only the few requests queued at that moment see it
from their submit time.

Holding times are scaled by ``1 / (40 s x rate)``: at any rate each request
then offers the paper's load of one request per 40 s of holding-time
budget (50 requests per 2000 s).
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass

import numpy as np

from calibration import calibration_rate, scale
from run import nearest_rank
from repro.service import SHED, AdmissionServer, ServiceConfig, ServiceReport
from repro.service.loadgen import build_load_requests

#: The batching knobs under test; fixed, so every run measures one server.
SERVICE_CONFIG = ServiceConfig(max_batch=32, max_wait_ms=2.0, queue_capacity=256)
#: Nominal offered rate (decisions per second) of the latency measurement.
NOMINAL_RATE = 1000.0
#: Requests per nominal session (half a second at the nominal rate).
NOMINAL_REQUESTS = 500
#: The latency limit on p99, and the lateness beyond which a session is
#: invalid rather than slow.
LATENCY_LIMIT_MS = 20.0
#: Seconds of the paper's schedule per request (2000 s / 50 requests).
PAPER_SECONDS_PER_REQUEST = 40.0


@dataclass
class Session:
    """Outcome of one open-loop session."""

    rate: float
    wall_s: float
    due_latencies_ms: np.ndarray  # due time -> caller has the decision; inf if shed
    latencies_ms: np.ndarray  # submit -> caller has the decision; inf if shed
    queue_waits_ms: np.ndarray  # server enqueue -> decide stamp; inf if shed
    late_ms: np.ndarray  # send time - due time
    backlog: int  # requests outstanding when the last one was sent
    report: ServiceReport
    problems: list[str]

    @property
    def late_p99_ms(self) -> float:
        return nearest_rank(self.late_ms, 99)

    @property
    def valid(self) -> bool:
        """False when the generator ran too late to measure the server."""
        return self.late_p99_ms <= LATENCY_LIMIT_MS

    @property
    def meets_limit(self) -> bool:
        """Submit-to-decision p99 within the limit, generator on time, nothing shed, and
        no backlog building up (at overload the server holds the loop, so
        the generator falls behind and the backlog grows)."""
        backlog_limit = max(SERVICE_CONFIG.max_batch, self.rate * LATENCY_LIMIT_MS / 1000.0)
        return (
            self.valid
            and nearest_rank(self.latencies_ms, 99) <= LATENCY_LIMIT_MS
            and self.report.shed == 0
            and self.backlog <= backlog_limit
        )


def run_session(rate: float, count: int, seed: int) -> Session:
    """One session of ``count`` requests offered at ``rate`` per second."""
    calls = build_load_requests(
        count, seed, holding_scale=1.0 / (PAPER_SECONDS_PER_REQUEST * rate)
    )
    due = np.cumsum(np.random.default_rng([seed, int(rate)]).exponential(1.0 / rate, count))
    due_latencies = np.full(count, math.inf)
    latencies = np.full(count, math.inf)
    queue_waits = np.full(count, math.inf)
    late = np.zeros(count)
    outcomes: dict[int, str] = {}

    async def session() -> tuple[ServiceReport, int]:
        loop = asyncio.get_running_loop()
        server = AdmissionServer(SERVICE_CONFIG, collect_batches=False)
        answered = 0

        async def request(index: int, due_at: float) -> None:
            nonlocal answered
            submitted_at = loop.time()
            decision = await server.submit(calls[index])
            answered_at = loop.time()
            answered += 1
            if decision.call_id in outcomes:
                raise RuntimeError(f"call {decision.call_id} answered twice")
            outcomes[decision.call_id] = decision.outcome
            if decision.outcome != SHED:
                due_latencies[index] = 1000.0 * (answered_at - due_at)
                latencies[index] = 1000.0 * (answered_at - submitted_at)
                queue_waits[index] = 1000.0 * decision.latency_s

        tasks = []
        start = loop.time() + 0.002
        for index, offset in enumerate(due.tolist()):
            due_at = start + offset
            delay = due_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late[index] = 1000.0 * (loop.time() - due_at)
            tasks.append(asyncio.create_task(request(index, due_at)))
        backlog = len(tasks) - answered
        # Await only the requests still open (a gather over every task would
        # delay the last answers), then collect every task's outcome.
        await asyncio.gather(*(task for task in tasks if not task.done()))
        for task in tasks:
            task.result()
        await server.aclose()
        return server.report(mode="live"), backlog

    began = time.perf_counter()
    report, backlog = asyncio.run(session())
    wall = time.perf_counter() - began

    problems = []
    if len(outcomes) != count or set(outcomes) != {call.call_id for call in calls}:
        problems.append(f"{count} submits got {len(outcomes)} distinct decisions")
    if report.admitted + report.rejected + report.shed != report.submitted:
        problems.append(
            f"admitted {report.admitted} + rejected {report.rejected} + shed "
            f"{report.shed} != submitted {report.submitted}"
        )
    if report.completed != report.admitted:
        problems.append(
            f"completed {report.completed} != admitted {report.admitted} after aclose"
        )
    return Session(
        rate=rate,
        wall_s=wall,
        due_latencies_ms=due_latencies,
        latencies_ms=latencies,
        queue_waits_ms=queue_waits,
        late_ms=late,
        backlog=backlog,
        report=report,
        problems=problems,
    )


def max_rate(seed: int) -> tuple[float, list[tuple[float, bool]]]:
    """Highest ladder rate that meets the limit, and the rungs tried.

    The ladder climbs from twice the nominal rate (the nominal sessions
    already cover it) in steps of 2**(1/8) until three rungs in a row miss
    the limit.  A rung that misses is tried once more, so a stall of the
    shared machine rarely fails it.  Each rung sends at least 1000
    requests, enough for a p99 with ten samples beyond it.  At the highest
    rung that holds, the server is near saturation, so the rate is scaled
    to the reference CPU speed measured around that rung.
    """
    tried: list[tuple[float, bool]] = []
    best = NOMINAL_RATE
    misses = 0
    step = 8
    while misses < 3 and step <= 48:
        rate = NOMINAL_RATE * 2.0 ** (step / 8.0)
        count = max(1000, int(0.25 * rate))
        ok = False
        for attempt in range(2):
            before = calibration_rate()
            ok = run_session(rate, count, seed + attempt).meets_limit
            if ok:
                # A faster CPU than the reference holds a higher rate.
                best = rate / scale(1.0, (before + calibration_rate()) / 2.0)
                break
        tried.append((rate, ok))
        misses = 0 if ok else misses + 1
        step += 1
    return best, tried
