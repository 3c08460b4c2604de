"""Admission server core: batching policy, backpressure, accounting."""

from __future__ import annotations

import asyncio

import pytest

from repro.cellular.calls import Call, CallState, CallType
from repro.cellular.traffic import PAPER_TRAFFIC_MIX, ServiceClass
from repro.service import (
    ADMITTED,
    REJECTED,
    SHED,
    AdmissionServer,
    ServiceClosedError,
    ServiceConfig,
    VirtualClock,
    run_load_session,
    run_with_virtual_clock,
)


def make_call(call_id: int, requested_at: float = 0.0, holding: float = 50.0) -> Call:
    spec = PAPER_TRAFFIC_MIX.spec(ServiceClass.VOICE)
    return Call(
        service=ServiceClass.VOICE,
        bandwidth_units=spec.bandwidth_units,
        call_type=CallType.NEW,
        requested_at=requested_at,
        holding_time_s=holding,
        call_id=call_id,
    )


def drive(main_factory, clock: VirtualClock):
    return run_with_virtual_clock(main_factory(), clock)


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            ServiceConfig(max_wait_ms=0.0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            ServiceConfig(max_wait_ms=float("inf"))
        with pytest.raises(ValueError, match="queue_capacity"):
            ServiceConfig(queue_capacity=0)


class TestBatchingPolicy:
    def test_size_flush_answers_full_batch_immediately(self):
        clock = VirtualClock()
        server = AdmissionServer(
            ServiceConfig(max_batch=3, max_wait_ms=10_000.0), clock=clock
        )

        async def main():
            decisions = await asyncio.gather(
                *(server.submit(make_call(i)) for i in range(1, 4))
            )
            await server.aclose()
            return decisions

        decisions = drive(main, clock)
        report = server.report()
        assert [d.batch_index for d in decisions] == [0, 0, 0]
        assert report.size_flushes == 1
        assert report.deadline_flushes == 0
        # Size-triggered flush: decided the instant the batch filled.
        assert all(d.latency_s == 0.0 for d in decisions)

    def test_deadline_flush_bounds_the_wait(self):
        clock = VirtualClock()
        server = AdmissionServer(
            ServiceConfig(max_batch=10, max_wait_ms=250.0), clock=clock
        )

        async def main():
            decisions = await asyncio.gather(
                server.submit(make_call(1)), server.submit(make_call(2))
            )
            await server.aclose()
            return decisions

        decisions = drive(main, clock)
        report = server.report()
        assert report.deadline_flushes == 1
        assert all(d.decided_at_s == pytest.approx(0.25) for d in decisions)
        assert clock.now() == pytest.approx(0.25)

    def test_backpressure_sheds_beyond_queue_capacity(self):
        clock = VirtualClock()
        server = AdmissionServer(
            ServiceConfig(max_batch=100, max_wait_ms=1000.0, queue_capacity=4),
            clock=clock,
        )

        async def main():
            decisions = await asyncio.gather(
                *(server.submit(make_call(i)) for i in range(1, 8))
            )
            await server.aclose()
            return decisions

        decisions = drive(main, clock)
        outcomes = [d.outcome for d in decisions]
        assert outcomes.count(SHED) == 3
        shed = [d for d in decisions if d.outcome == SHED]
        # Shed decisions are immediate and carry no batch.
        assert all(d.latency_s == 0.0 for d in shed)
        assert all(d.batch_index is None for d in shed)
        assert server.report().shed == 3

    def test_submit_after_close_raises(self):
        clock = VirtualClock()
        server = AdmissionServer(clock=clock)

        async def main():
            await server.aclose()
            with pytest.raises(ServiceClosedError):
                await server.submit(make_call(1))

        drive(main, clock)


class TestAccounting:
    def run_session(self, count: int, config: ServiceConfig):
        clock = VirtualClock()
        server = AdmissionServer(config, clock=clock)

        async def main():
            calls = [make_call(i, requested_at=0.5 * i) for i in range(1, count + 1)]

            async def submitter(call):
                await clock.sleep_until(call.requested_at, key=call.call_id)
                return await server.submit(call)

            decisions = await asyncio.gather(*(submitter(call) for call in calls))
            await server.aclose()
            return calls, decisions

        calls, decisions = drive(main, clock)
        return calls, decisions, server.report()

    def test_counters_partition_the_requests(self):
        calls, decisions, report = self.run_session(
            40, ServiceConfig(max_batch=4, max_wait_ms=1500.0, queue_capacity=8)
        )
        assert report.submitted == 40
        assert report.admitted + report.rejected + report.shed == 40
        outcomes = [d.outcome for d in decisions]
        assert outcomes.count(ADMITTED) == report.admitted
        assert outcomes.count(REJECTED) == report.rejected
        assert report.metrics.requested == 40
        assert report.metrics.accepted == report.admitted

    def test_close_retires_every_admitted_call(self):
        calls, _, report = self.run_session(
            30, ServiceConfig(max_batch=8, max_wait_ms=2000.0)
        )
        assert report.completed == report.admitted
        assert not any(call.state is CallState.ACTIVE for call in calls)
        # The ledger drained: nothing holds bandwidth after close.
        assert report.peak_occupancy_bu <= report.capacity_bu

    def test_batch_records_cover_all_decided(self):
        _, _, report = self.run_session(
            25, ServiceConfig(max_batch=4, max_wait_ms=1000.0)
        )
        assert sum(record.size for record in report.batches) == report.decided
        assert sum(record.admitted for record in report.batches) == report.admitted
        for record in report.batches:
            assert 0 <= record.occupancy_before_bu <= report.capacity_bu
            assert 0 <= record.occupancy_after_bu <= report.capacity_bu


class TestLiveSession:
    def test_load_session_decides_everything(self):
        report = run_load_session(
            request_count=600,
            clients=32,
            service=ServiceConfig(max_batch=16, max_wait_ms=5.0, queue_capacity=64),
        )
        assert report.mode == "live"
        assert report.submitted == 600
        assert report.admitted + report.rejected + report.shed == 600
        assert report.completed == report.admitted
        assert report.latency.count == report.decided
        assert report.throughput_dps > 0.0
