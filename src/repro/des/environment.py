"""Simulation environment: clock, future-event list and run loop."""

from __future__ import annotations

import math
from typing import Any

from .events import Event, Timeout
from .process import Process, ProcessGenerator
from .queue import EmptyQueueError, EventQueue

__all__ = ["Environment", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Environment:
    """Discrete-event simulation environment.

    Holds the simulated clock, schedules events and drives processes.  The
    public API mirrors the common process-interaction vocabulary:

    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(5)
    ...     return env.now
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> p.value
    5
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue = EventQueue()
        self._processed_events = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (diagnostic)."""
        return self._processed_events

    @property
    def pending_events(self) -> int:
        """Number of events still waiting in the future-event list."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a bare, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from a generator function call."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Scheduling and the run loop
    # ------------------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Place a triggered event on the future-event list."""
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        self._queue.push(event, self._now + delay)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when none remain."""
        try:
            return self._queue.peek_time()
        except EmptyQueueError:
            return math.inf

    def step(self) -> None:
        """Process exactly one event from the future-event list."""
        try:
            item = self._queue.pop()
        except EmptyQueueError:
            raise SimulationError("cannot step: no events scheduled") from None
        if item.time < self._now:
            raise SimulationError(
                f"event scheduled in the past: {item.time} < now={self._now}"
            )
        self._now = item.time
        event = item.event
        callbacks, event.callbacks = list(event.callbacks), []
        event._mark_processed()
        self._processed_events += 1
        for callback in callbacks:
            callback(event)
        if not event.ok and not event.defused:
            raise event.exception  # type: ignore[misc]

    def run(self, until: float | None = None) -> None:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain) or a number
        (run until the clock reaches that time; events due exactly then are
        processed, and the clock is left there).
        """
        if until is None:
            while self._queue:
                self.step()
            return None

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(
                f"cannot run until {horizon}, which is before the current time {self._now}"
            )
        while self._queue and self.peek() <= horizon:
            self.step()
        self._now = horizon
        return None
