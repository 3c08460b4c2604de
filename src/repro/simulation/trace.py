"""Offline, trace-driven admission through FACS.

A trace run is the single-cell batch experiment
(:mod:`repro.simulation.batch`) with a FACS controller, reported as a
:class:`TraceRunResult`.  ``stream=True`` runs it through
:func:`~repro.simulation.batch.run_batch_experiment`, whose admission loop
draws the whole trace first as numpy columns and then walks it in arrival
order, deciding each request at the occupancy it meets.  ``stream=False``
runs the discrete-event loop on the same config, the loop's oracle; the
two return equal results, field for field.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cac.facs.system import FACSConfig, FuzzyAdmissionControlSystem
from ..cellular.metrics import CallMetrics
from .batch import build_trace_arrays, run_batch_experiment, run_des_experiment
from .config import BatchExperimentConfig
from .results import RunResult
from .scenario import facs_factory

# ``build_trace_arrays`` stays importable from here: perfbench's tracing
# wraps it under this module's name.
__all__ = ["TraceRunResult", "build_trace_arrays", "run_trace_arrivals"]


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

    ``facs_config`` selects the FACS tuning.
    ``stream=True`` runs the admission loop; ``stream=False`` runs the
    discrete-event batch experiment on the same config, the loop's oracle.
    Both return equal results.
    """
    if stream:
        output = run_batch_experiment(config, facs_factory(facs_config))
    else:
        output = run_des_experiment(config, FuzzyAdmissionControlSystem(facs_config))
    return TraceRunResult(
        controller=output.result.controller,
        peak_occupancy_bu=output.peak_occupancy_bu,
        metrics=output.result.metrics,
    )
