"""Offline, trace-driven admission: one exact per-request kernel over columns.

The batch experiment (:mod:`repro.simulation.batch`) decides every request
one at a time inside the discrete-event loop.  This module answers the same
question for offline workloads without the event loop: the whole arrival
trace is drawn first as numpy columns
(:func:`repro.simulation.batch.build_trace_arrays` — a pure function of the
seeded config), then walked in arrival order.

Semantics are the DES's, request for request.  At each arrival every
departure due at or before that instant is released; a request that does
not fit the free bandwidth is rejected; any other request is admitted iff
its A/R score at the occupancy it meets (FLC2's ``Cs`` input) is above the
threshold.  Instants are computed the way the DES clock computes them
(``now + (t − now)``, then ``now + holding``), so the departure order is
the DES's bit for bit, and the run's :class:`TraceRunResult` equals the one
built from :func:`~repro.simulation.batch.run_batch_experiment` field for
field — which is what ``stream=False`` runs, as the oracle.

FLC1 does not depend on the base station, so it runs once per fixed block
of rows through
:meth:`~repro.cac.facs.system.FuzzyAdmissionControlSystem.decide_columns`;
the arrival walk is then an integer loop with a departure heap that asks
the block for each verdict at the request's own occupancy.  The block size
bounds memory and changes no answer.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass

import numpy as np

from ..cac.facs.system import FACSConfig, FuzzyAdmissionControlSystem
from ..cellular.metrics import CallMetrics
from ..des.rng import StreamFactory
from .batch import build_trace_arrays, run_batch_experiment
from .config import BatchExperimentConfig
from .results import RunResult

__all__ = ["TraceRunResult", "run_trace_arrivals"]

_log = logging.getLogger(__name__)

#: Rows per FLC1 pass of the kernel.  Smaller blocks pay more per-call
#: overhead; larger ones hold more FLC1 intermediates at once (a whole
#: 20k-request trace in one block about doubles the process's peak RSS).
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class TraceRunResult:
    """Aggregate outcome of one trace-driven run."""

    controller: str
    peak_occupancy_bu: int
    metrics: CallMetrics

    @property
    def requested(self) -> int:
        return self.metrics.requested

    @property
    def accepted(self) -> int:
        return self.metrics.accepted

    @property
    def acceptance_percentage(self) -> float:
        return self.metrics.acceptance_percentage

    def to_run_result(self, seed: int = 0) -> RunResult:
        """The trace run as a counter row for the columnar result store.

        Every admitted call's departure is replayed before the run
        returns, so ``completed`` equals ``accepted``.
        """
        return RunResult(
            controller=self.controller,
            metrics=self.metrics,
            parameters={"request_count": float(self.requested)},
            seed=seed,
        )


def run_trace_arrivals(
    config: BatchExperimentConfig,
    facs_config: FACSConfig | None = None,
    stream: bool = False,
) -> TraceRunResult:
    """Admit the trace described by ``config`` through FACS, request by request.

    ``facs_config`` selects the FACS tuning and inference engine.
    ``stream=True`` runs the columnar kernel; ``stream=False`` runs the
    discrete-event batch experiment on the same config, the kernel's
    oracle.  Both return equal results.
    """
    facs_config = facs_config or FACSConfig()
    if not stream:
        output = run_batch_experiment(
            config, lambda: FuzzyAdmissionControlSystem(facs_config)
        )
        return TraceRunResult(
            controller=output.result.controller,
            peak_occupancy_bu=output.peak_occupancy_bu,
            metrics=output.result.metrics,
        )

    arrays = build_trace_arrays(
        config, StreamFactory(master_seed=config.stream_master_seed)
    )
    controller = FuzzyAdmissionControlSystem(facs_config)
    capacity = config.capacity_bu
    arrivals = arrays.arrival_time_s.tolist()
    holdings = arrays.holding_time_s.tolist()
    bandwidths = arrays.bandwidth_units.tolist()
    request_bus = arrays.bandwidth_units.astype(np.float64)
    total = len(arrivals)

    # Admitted calls' (departure instant, bandwidth), earliest first.
    departures: list[tuple[float, int]] = []
    now = 0.0
    used = accepted = accepted_bu = peak_occupancy = 0
    screened = exact_flc1 = exact_flc2 = 0
    for start in range(0, total, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, total)
        verdicts = controller.decide_columns(
            arrays.speed_kmh[start:stop],
            arrays.angle_deg[start:stop],
            arrays.distance_km[start:stop],
            request_bus[start:stop],
        )
        for row in range(start, stop):
            delay = arrivals[row] - now
            if delay > 0:
                now = now + delay
            while departures and departures[0][0] <= now:
                used -= heapq.heappop(departures)[1]
            bandwidth = bandwidths[row]
            if used + bandwidth > capacity or not verdicts.accepts(row - start, used):
                continue
            used += bandwidth
            accepted += 1
            accepted_bu += bandwidth
            peak_occupancy = max(peak_occupancy, used)
            heapq.heappush(departures, (now + holdings[row], bandwidth))
        screened += verdicts.screened
        exact_flc1 += verdicts.exact_flc1
        exact_flc2 += verdicts.exact_flc2

    _log.debug(
        "trace kernel: %d requests, %d screened, %d exact FLC1 rows, %d exact FLC2 rows",
        total,
        screened,
        exact_flc1,
        exact_flc2,
    )
    return TraceRunResult(
        controller=controller.name,
        peak_occupancy_bu=peak_occupancy,
        metrics=CallMetrics(
            requested=total,
            accepted=accepted,
            blocked=total - accepted,
            completed=accepted,
            dropped=0,
            handoff_requests=0,
            handoff_accepted=0,
            accepted_bu=accepted_bu,
            requested_bu=arrays.requested_bu,
        ),
    )
