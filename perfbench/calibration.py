"""Scaling CPU-bound timings to a reference CPU speed.

The vCPUs of a shared cloud machine run a fixed piece of Python tens of
per cent faster or slower from one second to the next, depending on what
other tenants do, and each vCPU drifts on its own.  Left raw, that drift
swamps the run-to-run comparison the benchmark exists for.  So every
CPU-bound pass is timed between two short runs of a fixed pure-Python loop
on the same process, and its time is scaled by ``rate / REFERENCE_RATE``:
the time the pass would take on a CPU that runs the loop
``REFERENCE_RATE`` times per second.  The loop shares no code with the
program, so a change to the program moves the scaled time exactly as it
moves the raw one.
"""

from __future__ import annotations

import os
import time

#: Loop iterations per second of the reference CPU (about the median rate
#: of one vCPU of a 2-vCPU cloud VM running Python 3.11).
REFERENCE_RATE = 25_000.0
#: Seconds each calibration runs for.
CALIBRATION_S = 0.02


def _loop_rate() -> float:
    count = 0
    start = time.perf_counter()
    while True:
        total = 0
        for value in range(1000):
            total += value
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= CALIBRATION_S:
            return count / elapsed


def calibration_rate() -> float:
    """Iterations per second of the fixed loop, right now, on this process's CPUs.

    Each vCPU drifts on its own, so a process allowed on several CPUs (one
    whose pool workers use them all) measures each in turn and averages.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) == 1:
        return _loop_rate()
    rates = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            rates.append(_loop_rate())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(rates) / len(rates)


def scale(seconds: float, rate: float) -> float:
    """``seconds`` measured at ``rate``, expressed at the reference rate."""
    return seconds * rate / REFERENCE_RATE
