"""The service's flush answers what scoring whole micro-batches answered.

``AdmissionServer.submit`` computes a queued request's FLC1 correction
value; the flush reads each request's FLC2 verdict at the flush-instant
occupancy through ``FuzzyAdmissionControlSystem.verdict`` (the certified
screen's cell table, exact FLC2 where it is ambiguous or missing).  The
oracle, ``FlushOracleServer``, scores each micro-batch with ``decide_batch``.
These tests hold the two to the same decisions and report bytes over drawn
traces, batching knobs and controller pairs, pin which paths a flush takes,
and check that a request whose FLC1 or FLC2 fails fails alone.
"""

from __future__ import annotations

import asyncio
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cac.facs import screen as screen_module
from repro.cac.facs.definitions import flc1_definition, flc2_definition
from repro.cac.facs.system import FACSConfig, FuzzyAdmissionControlSystem
from repro.cellular.calls import Call, CallState
from repro.cellular.mobility import UserState
from repro.cellular.traffic import ServiceClass
from repro.des.rng import StreamFactory
from repro.fuzzy.controller import FuzzyController
from repro.fuzzy.defuzzification import DefuzzificationError
from repro.service import (
    ADMITTED,
    REJECTED,
    SHED,
    AdmissionServer,
    ServiceConfig,
    VirtualClock,
    run_with_virtual_clock,
)
from repro.simulation.batch import build_requests
from repro.simulation.config import BatchExperimentConfig
from tests.cac.test_facs_accepts import CONFIGS, THRESHOLDS, _tables_from
from tests.service.flush_oracle import FlushOracleServer

#: Build a bandwidth's tables on its first verdict, on the default one, and never.
MINIMUMS = (1, screen_module._BATCH_MIN_VERDICTS, sys.maxsize)


def replay(server_cls, config: BatchExperimentConfig, service: ServiceConfig, facs: FACSConfig):
    """Every decision and the report of the seeded trace through ``server_cls``."""
    requests = build_requests(config, StreamFactory(master_seed=config.stream_master_seed))
    clock = VirtualClock()
    server = server_cls(service, capacity_bu=config.capacity_bu, facs_config=facs, clock=clock)

    async def submitter(call: Call):
        await clock.sleep_until(call.requested_at, key=call.call_id)
        return await server.submit(call)

    async def main():
        decisions = await asyncio.gather(*(submitter(call) for call in requests))
        await server.aclose()
        return decisions

    decisions = run_with_virtual_clock(main(), clock)
    return requests, decisions, server.report(mode="replay")


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    requests=st.integers(0, 600),
    # Seconds per request, from an overload that sheds (a request per
    # millisecond) to the paper's load (50 requests per 2000 s).
    spacing_s=st.floats(-10.0, 5.33).map(lambda exponent: 2.0**exponent),
    max_batch=st.integers(1, 64),
    max_wait_ms=st.floats(1.0, 5000.0),
    queue_capacity=st.integers(1, 64),
    config=st.sampled_from(["compiled", "bisector", "tuned-weight"]),
    threshold=st.sampled_from(THRESHOLDS),
    minimum=st.sampled_from(MINIMUMS),
)
@example(
    seed=7,
    requests=600,
    spacing_s=0.001,
    max_batch=64,
    max_wait_ms=2000.0,
    queue_capacity=16,
    config="compiled",
    threshold=-0.25,
    minimum=1,
)
def test_flush_equals_the_decide_batch_oracle(
    seed, requests, spacing_s, max_batch, max_wait_ms, queue_capacity, config, threshold, minimum
):
    window_s = max(requests, 1) * spacing_s
    trace = BatchExperimentConfig(request_count=requests, arrival_window_s=window_s, seed=seed)
    service = ServiceConfig(
        max_batch=max_batch, max_wait_ms=max_wait_ms, queue_capacity=queue_capacity
    )
    facs = replace(CONFIGS[config], acceptance_threshold=threshold)
    with pytest.MonkeyPatch.context() as patch:
        _tables_from(patch, minimum)
        _, decisions, report = replay(AdmissionServer, trace, service, facs)
    _, expected, oracle = replay(FlushOracleServer, trace, service, facs)
    assert report.to_json() == oracle.to_json()
    assert decisions == expected


def _overload() -> tuple[BatchExperimentConfig, ServiceConfig]:
    """A trace that queues past a small queue: some requests are shed."""
    trace = BatchExperimentConfig(request_count=300, arrival_window_s=20.0, seed=11)
    return trace, ServiceConfig(max_batch=16, max_wait_ms=500.0, queue_capacity=6)


@pytest.mark.parametrize("config", ["compiled", "bisector"])
def test_a_flush_reads_verdicts_and_flc1_runs_once_per_queued_request(config, monkeypatch):
    _tables_from(monkeypatch, 1)
    asked = {"flc1": [], "verdict": 0, "decide_batch": 0, "compute_batch": 0}
    correction_value = FuzzyAdmissionControlSystem.correction_value
    verdict = FuzzyAdmissionControlSystem.verdict
    decide_batch = FuzzyAdmissionControlSystem.decide_batch
    compute_batch = FuzzyController.compute_batch

    def counted_flc1(self, user):
        asked["flc1"].append(user)
        return correction_value(self, user)

    def counted_verdict(self, *args):
        asked["verdict"] += 1
        return verdict(self, *args)

    def counted_decide_batch(self, *args):
        asked["decide_batch"] += 1
        return decide_batch(self, *args)

    def counted_compute_batch(self, **inputs):
        asked["compute_batch"] += 1
        return compute_batch(self, **inputs)

    monkeypatch.setattr(FuzzyAdmissionControlSystem, "correction_value", counted_flc1)
    monkeypatch.setattr(FuzzyAdmissionControlSystem, "verdict", counted_verdict)
    monkeypatch.setattr(FuzzyAdmissionControlSystem, "decide_batch", counted_decide_batch)
    monkeypatch.setattr(FuzzyController, "compute_batch", counted_compute_batch)
    trace, service = _overload()
    requests, decisions, report = replay(AdmissionServer, trace, service, CONFIGS[config])

    assert report.shed > 0 and report.decided > 0
    by_arrival = sorted(zip(requests, decisions), key=lambda pair: pair[0].requested_at)
    queued = [call.user_state for call, decision in by_arrival if decision.outcome != SHED]
    assert [id(user) for user in asked["flc1"]] == [id(user) for user in queued]
    assert asked["verdict"] == report.decided
    assert asked["decide_batch"] == asked["compute_batch"] == 0


def _call(call_id: int, speed_kmh: float) -> Call:
    return Call(
        service=ServiceClass.VOICE,
        bandwidth_units=5,
        user_state=UserState(speed_kmh, 0.0, 2.0),
        holding_time_s=50.0,
        call_id=call_id,
    )


def test_a_request_whose_flc1_fails_fails_alone():
    # No FLC1 rule covers a standing user, so its FLC1 raises.
    flc1 = flc1_definition()
    without_slow = replace(flc1, rules=[r for r in flc1.rules if ("S", "Sl") not in r.antecedent])
    clock = VirtualClock()
    server = AdmissionServer(
        ServiceConfig(max_batch=4, max_wait_ms=500.0),
        facs_config=FACSConfig(flc1=without_slow),
        clock=clock,
    )
    moving = [_call(call_id, 20.0 + 10.0 * call_id) for call_id in range(1, 7)]
    standing = _call(7, 0.0)

    async def main():
        async def at(when: float, call: Call):
            await clock.sleep_until(when, key=call.call_id)
            return await server.submit(call)

        answers = asyncio.gather(*(at(0.1 * k, call) for k, call in enumerate(moving)))
        # Three moving users are queued when the standing one submits.
        await clock.sleep_until(0.25, key=standing.call_id)
        before = (server.report(), server.pending_count, server._deadline_task)
        with pytest.raises(DefuzzificationError):
            await server.submit(standing)
        assert (server.report(), server.pending_count, server._deadline_task) == before
        decisions = await answers
        await server.aclose()
        return decisions

    decisions = run_with_virtual_clock(main(), clock)
    assert [d.call_id for d in decisions] == [call.call_id for call in moving]
    assert all(d.outcome in (ADMITTED, REJECTED) for d in decisions)
    assert standing.state is CallState.REQUESTED
    report = server.report()
    assert report.submitted == len(moving)
    assert report.admitted + report.rejected + report.shed == report.submitted
    assert report.completed == report.admitted


def test_a_request_whose_flc2_fails_fails_alone():
    # No FLC2 rule covers a video request, so its verdict raises at the flush.
    flc2 = flc2_definition()
    without_video = replace(flc2, rules=[r for r in flc2.rules if ("R", "Vi") not in r.antecedent])
    clock = VirtualClock()
    server = AdmissionServer(
        ServiceConfig(max_batch=4, max_wait_ms=100.0),
        facs_config=FACSConfig(flc2=without_video),
        clock=clock,
    )
    video = Call(
        service=ServiceClass.VIDEO,
        bandwidth_units=10,
        user_state=UserState(40.0, 0.0, 2.0),
        holding_time_s=50.0,
        call_id=2,
    )
    calls = [_call(1, 30.0), video, _call(3, 50.0)]

    async def main():
        async def at(when: float, call: Call):
            await clock.sleep_until(when, key=call.call_id)
            return await server.submit(call)

        # One 100 ms window: the deadline flushes all three together.
        answers = await asyncio.gather(
            *(at(0.01 * k, call) for k, call in enumerate(calls)), return_exceptions=True
        )
        await server.aclose()
        return answers

    first, failed, last = run_with_virtual_clock(main(), clock)
    assert isinstance(failed, DefuzzificationError)
    assert [first.call_id, last.call_id] == [1, 3]
    assert first.outcome in (ADMITTED, REJECTED) and last.outcome in (ADMITTED, REJECTED)
    assert first.batch_index == last.batch_index == 0
    assert video.state is CallState.REQUESTED
    report = server.report()
    assert (report.submitted, report.requested_bu) == (2, 10)
    assert report.admitted + report.rejected + report.shed == report.submitted
    assert report.completed == report.admitted
    assert [(batch.size, batch.reason) for batch in report.batches] == [(2, "deadline")]
