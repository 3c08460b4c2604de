"""A from-scratch discrete-event simulation kernel (replacement for SimPy).

Provides an environment with a future-event list, generator-based processes,
timeouts and reproducible named random streams.  The named streams seed
every simulation in :mod:`repro.simulation`; the event loop runs the
single-cell DES experiment (:func:`~repro.simulation.batch.run_des_experiment`),
the oracle the admission loop is tested against.
"""

from .environment import Environment, SimulationError
from .events import Event, EventState, Timeout
from .process import Process
from .queue import EmptyQueueError, EventQueue, ScheduledItem
from .rng import RandomStream, StreamFactory

__all__ = [
    "Environment",
    "SimulationError",
    "Event",
    "EventState",
    "Timeout",
    "Process",
    "EventQueue",
    "ScheduledItem",
    "EmptyQueueError",
    "RandomStream",
    "StreamFactory",
]
