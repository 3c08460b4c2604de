"""Future-event list for the simulation kernel.

A binary-heap calendar keyed by ``(time, priority, sequence)`` — the sequence
number guarantees FIFO ordering among events scheduled for the same time and
priority, which keeps simulations deterministic for a fixed RNG seed.  Heap
entries are ``(time, priority, sequence, item)`` tuples, so the heap compares
them in C; the sequence is unique, so the comparison never reaches the item.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .events import Event

__all__ = ["EventQueue", "ScheduledItem", "EmptyQueueError", "Priority"]


class EmptyQueueError(RuntimeError):
    """Raised when popping from an empty future-event list."""


class Priority:
    """Scheduling priorities; lower values are processed first at equal times."""

    URGENT = 0
    NORMAL = 1
    LOW = 2


class ScheduledItem:
    """A scheduled event plus its time and tie-breaking keys.

    The handle :meth:`EventQueue.push` returns and :meth:`EventQueue.cancel`
    takes; the heap orders items by ``(time, priority, sequence)``.
    """

    __slots__ = ("time", "priority", "sequence", "event", "cancelled")

    def __init__(self, time: float, priority: int, sequence: int, event: "Event"):
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.event = event
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScheduledItem(time={self.time!r}, priority={self.priority!r}, "
            f"sequence={self.sequence!r}, cancelled={self.cancelled!r})"
        )


class EventQueue:
    """Min-heap of scheduled events ordered by (time, priority, insertion)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, ScheduledItem]] = []
        self._sequence = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: "Event", time: float, priority: int = Priority.NORMAL) -> ScheduledItem:
        """Schedule ``event`` at absolute simulated ``time``."""
        sequence = next(self._sequence)
        item = ScheduledItem(time, priority, sequence, event)
        heapq.heappush(self._heap, (time, priority, sequence, item))
        self._live += 1
        return item

    def pop(self) -> ScheduledItem:
        """Remove and return the earliest non-cancelled scheduled item."""
        while self._heap:
            item = heapq.heappop(self._heap)[3]
            if item.cancelled:
                continue
            self._live -= 1
            return item
        raise EmptyQueueError("the future event list is empty")

    def peek_time(self) -> float:
        """Time of the next non-cancelled event without removing it."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            raise EmptyQueueError("the future event list is empty")
        return self._heap[0][0]

    def cancel(self, item: ScheduledItem) -> None:
        """Lazily cancel a scheduled item (skipped when popped)."""
        if not item.cancelled:
            item.cancelled = True
            self._live -= 1

    def clear(self) -> None:
        self._heap.clear()
        self._live = 0
