"""Future-event list for the simulation kernel.

A binary-heap calendar keyed by ``(time, sequence)`` — the sequence number
guarantees FIFO ordering among events scheduled for the same time, which
keeps simulations deterministic for a fixed RNG seed.  Heap entries are
``(time, sequence, item)`` tuples, so the heap compares them in C; the
sequence is unique, so the comparison never reaches the item.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .events import Event

__all__ = ["EventQueue", "ScheduledItem", "EmptyQueueError"]


class EmptyQueueError(RuntimeError):
    """Raised when popping from an empty future-event list."""


class ScheduledItem:
    """A scheduled event plus its time and tie-breaking sequence number."""

    __slots__ = ("time", "sequence", "event")

    def __init__(self, time: float, sequence: int, event: "Event"):
        self.time = time
        self.sequence = sequence
        self.event = event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScheduledItem(time={self.time!r}, sequence={self.sequence!r})"


class EventQueue:
    """Min-heap of scheduled events ordered by (time, insertion)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, ScheduledItem]] = []
        self._sequence = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, event: "Event", time: float) -> ScheduledItem:
        """Schedule ``event`` at absolute simulated ``time``."""
        sequence = next(self._sequence)
        item = ScheduledItem(time, sequence, event)
        heapq.heappush(self._heap, (time, sequence, item))
        return item

    def pop(self) -> ScheduledItem:
        """Remove and return the earliest scheduled item."""
        if not self._heap:
            raise EmptyQueueError("the future event list is empty")
        return heapq.heappop(self._heap)[2]

    def peek_time(self) -> float:
        """Time of the next event without removing it."""
        if not self._heap:
            raise EmptyQueueError("the future event list is empty")
        return self._heap[0][0]
