"""Replay determinism: byte-identical reports, any run, any task order."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.service import (
    ServiceConfig,
    VirtualClock,
    VirtualClockDeadlock,
    run_service_replay,
    run_with_virtual_clock,
)
from repro.simulation import BatchExperimentConfig, run_trace_arrivals
from tests.conftest import BISECTOR_FACS


def replay_config(**overrides) -> BatchExperimentConfig:
    fields = dict(request_count=120, arrival_window_s=90.0, seed=20070628)
    fields.update(overrides)
    return BatchExperimentConfig(**fields)


SERVICE = ServiceConfig(max_batch=8, max_wait_ms=2000.0, queue_capacity=64)


class TestVirtualClock:
    def test_sleepers_fire_in_time_then_key_order(self):
        clock = VirtualClock()
        fired: list[str] = []

        async def sleeper(name: str, when: float, key: int):
            await clock.sleep_until(when, key=key)
            fired.append(name)

        async def main():
            # Created out of order on purpose: wakeups must sort by
            # (time, key), never by task creation order.
            await asyncio.gather(
                sleeper("c", 2.0, 1),
                sleeper("b", 1.0, 9),
                sleeper("a", 1.0, 2),
            )

        run_with_virtual_clock(main(), clock)
        assert fired == ["a", "b", "c"]
        assert clock.now() == 2.0

    def test_sleep_in_the_past_returns_immediately(self):
        clock = VirtualClock(start=5.0)

        async def main():
            await clock.sleep_until(1.0)
            return clock.now()

        assert run_with_virtual_clock(main(), clock) == 5.0

    def test_deadlock_is_detected(self):
        clock = VirtualClock()

        async def main():
            # Awaits a future no virtual timer will ever resolve.
            await asyncio.get_running_loop().create_future()

        with pytest.raises(VirtualClockDeadlock):
            run_with_virtual_clock(main(), clock)


class TestReplayDeterminism:
    def test_repeated_runs_are_byte_identical(self):
        first = run_service_replay(replay_config(), SERVICE)
        second = run_service_replay(replay_config(), SERVICE)
        assert first.to_json() == second.to_json()

    @pytest.mark.parametrize("shuffle_seed", [1, 7, 42])
    def test_scheduling_order_does_not_change_the_report(self, shuffle_seed):
        baseline = run_service_replay(replay_config(), SERVICE)
        order = list(range(replay_config().request_count))
        random.Random(shuffle_seed).shuffle(order)
        shuffled = run_service_replay(replay_config(), SERVICE, submit_order=order)
        assert shuffled.to_json() == baseline.to_json()

    def test_reversed_order_matches_too(self):
        baseline = run_service_replay(replay_config(), SERVICE)
        order = list(reversed(range(replay_config().request_count)))
        assert (
            run_service_replay(replay_config(), SERVICE, submit_order=order).to_json()
            == baseline.to_json()
        )

    def test_bad_submit_order_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            run_service_replay(replay_config(), SERVICE, submit_order=[0, 1, 2])

    def test_unscreened_controller_replays_identically(self):
        baseline = run_service_replay(replay_config(), SERVICE, facs_config=BISECTOR_FACS)
        order = list(reversed(range(replay_config().request_count)))
        shuffled = run_service_replay(
            replay_config(), SERVICE, submit_order=order, facs_config=BISECTOR_FACS
        )
        assert shuffled.to_json() == baseline.to_json()
        assert baseline.to_json() != run_service_replay(replay_config(), SERVICE).to_json()

    def test_different_seed_changes_the_report(self):
        first = run_service_replay(replay_config(), SERVICE)
        other = run_service_replay(replay_config(seed=1), SERVICE)
        assert first.to_json() != other.to_json()


class TestReplayMatchesTracePipeline:
    def test_unit_batches_reproduce_the_trace_pipeline(self):
        # With max_batch=1 every request flushes at its own arrival
        # instant, which is exactly the trace pipeline's per-request
        # admission: same admissions, same completions, same peak occupancy.
        config = replay_config(request_count=80)
        trace = run_trace_arrivals(config, stream=True)
        replay = run_service_replay(
            config, ServiceConfig(max_batch=1, max_wait_ms=2000.0, queue_capacity=64)
        )
        assert replay.submitted == trace.requested
        assert replay.admitted == trace.accepted
        assert replay.completed == trace.metrics.completed
        assert replay.peak_occupancy_bu == trace.peak_occupancy_bu
        assert replay.acceptance_percentage == pytest.approx(
            trace.acceptance_percentage
        )
