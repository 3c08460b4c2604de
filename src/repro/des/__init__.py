"""A from-scratch discrete-event simulation kernel (replacement for SimPy).

Provides an environment with a future-event list, generator-based processes,
timeouts, composite events and reproducible named random streams — the
substrate on which the cellular network simulator (:mod:`repro.cellular`)
and the experiment engine (:mod:`repro.simulation`) are built.
"""

from .environment import Environment, SimulationError
from .events import AllOf, AnyOf, Event, EventState, Interruption, StopProcess, Timeout
from .process import Process
from .queue import EmptyQueueError, EventQueue, Priority, ScheduledItem
from .rng import RandomStream, StreamFactory

__all__ = [
    "Environment",
    "SimulationError",
    "Event",
    "EventState",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interruption",
    "StopProcess",
    "Process",
    "EventQueue",
    "ScheduledItem",
    "EmptyQueueError",
    "Priority",
    "RandomStream",
    "StreamFactory",
]
