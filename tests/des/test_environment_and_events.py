"""Tests for the DES environment, events and timeouts."""

from __future__ import annotations

import pytest

from repro.des import (
    Environment,
    Event,
    SimulationError,
)
from repro.des.queue import EmptyQueueError, EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        env = Environment()
        queue = EventQueue()
        first, second = Event(env), Event(env)
        queue.push(second, 10.0)
        queue.push(first, 5.0)
        assert queue.pop().event is first
        assert queue.pop().event is second

    def test_fifo_within_same_time(self):
        env = Environment()
        queue = EventQueue()
        events = [Event(env) for _ in range(5)]
        for event in events:
            queue.push(event, 1.0)
        popped = [queue.pop().event for _ in range(5)]
        assert popped == events

    def test_empty_pop_raises(self):
        with pytest.raises(EmptyQueueError):
            EventQueue().pop()

    def test_peek_time(self):
        env = Environment()
        queue = EventQueue()
        queue.push(Event(env), 3.5)
        assert queue.peek_time() == 3.5


class TestEvents:
    def test_succeed_delivers_value(self, env):
        event = env.event()
        event.succeed("payload")
        env.run()
        assert event.processed
        assert event.value == "payload"

    def test_double_trigger_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(RuntimeError):
            _ = event.value

    def test_failed_event_propagates_at_step(self, env):
        event = env.event()
        event.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_defused_failure_does_not_propagate(self, env):
        event = env.event()
        event.fail(RuntimeError("boom"))
        event.defuse()
        env.run()
        assert event.triggered and not event.ok

    def test_state_transitions(self, env):
        event = env.event()
        assert not event.triggered
        event.succeed()
        assert event.triggered and not event.processed
        env.run()
        assert event.processed


class TestTimeouts:
    def test_timeout_advances_clock(self, env):
        timeout = env.timeout(12.5)
        env.run()
        assert env.now == pytest.approx(12.5)
        assert timeout.processed

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeout_value(self, env):
        timeout = env.timeout(1.0, value="done")
        env.run()
        assert timeout.value == "done"


class TestRunSemantics:
    def test_run_until_time_stops_clock_at_horizon(self, env):
        env.timeout(100.0)
        env.run(until=30.0)
        assert env.now == pytest.approx(30.0)
        assert env.pending_events == 1

    def test_run_until_past_time_rejected(self, env):
        env.timeout(1.0)
        env.run(until=5.0)
        with pytest.raises(ValueError):
            env.run(until=2.0)

    def test_step_without_events_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_peek_empty_is_infinite(self, env):
        assert env.peek() == float("inf")

    def test_processed_event_counter(self, env):
        env.timeout(1.0)
        env.timeout(2.0)
        env.run()
        assert env.processed_events == 2

    def test_schedule_in_past_rejected(self, env):
        event = env.event()
        with pytest.raises(ValueError):
            env.schedule(event, delay=-0.1)
