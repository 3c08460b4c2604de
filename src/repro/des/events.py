"""Core event primitives for the discrete-event simulation kernel.

The kernel follows the familiar process-interaction style (as popularised by
SimPy): an :class:`Event` is something that will happen at a simulated time,
processes are generators that ``yield`` events, and callbacks run when an
event is *triggered* and later *processed* by the environment.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .environment import Environment

__all__ = ["EventState", "Event", "Timeout"]

_event_counter = itertools.count()


class EventState(enum.Enum):
    """Lifecycle of an event."""

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"


class Event:
    """A thing that may happen at some point in simulated time.

    Events carry a ``value`` (delivered to waiting processes), may ``succeed``
    or ``fail`` (failures propagate as exceptions into waiting processes) and
    accept callbacks executed when the event is processed.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: BaseException | None = None
        self._state = EventState.PENDING
        self._defused = False
        self.eid = next(_event_counter)

    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state is not EventState.PENDING

    @property
    def processed(self) -> bool:
        return self._state is EventState.PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise RuntimeError("event value is not available before the event triggers")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        return self._exception

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not escalate at teardown."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self.triggered:
            raise RuntimeError(f"event {self!r} has already been triggered")
        self._value = value
        self._state = EventState.TRIGGERED
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive ``exception``."""
        if self.triggered:
            raise RuntimeError(f"event {self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception instance, got {exception!r}")
        self._exception = exception
        self._state = EventState.TRIGGERED
        self.env.schedule(self)
        return self

    def _mark_processed(self) -> None:
        self._state = EventState.PROCESSED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} #{self.eid} {self._state.value}>"


class Timeout(Event):
    """An event that triggers automatically after a simulated delay."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"timeout delay must be non-negative, got {delay}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        self._state = EventState.TRIGGERED
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout #{self.eid} delay={self.delay}>"
