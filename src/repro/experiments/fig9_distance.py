"""Figure 9: acceptance percentage vs requesting connections for different distances.

The paper fixes the user-to-BS distance per curve (1, 3, 7 and 10 km) and
randomises the remaining attributes.  Closer users are accepted slightly
more, but the spread is visibly smaller than for speed or angle — the paper's
point that "the speed and angle have strong effect compared with the
distance".
"""

from __future__ import annotations

from typing import Sequence

from ..cac.facs.system import FACSConfig
from ..simulation.config import PAPER_REQUEST_COUNTS
from ..simulation.executor import SweepExecutor
from ..simulation.scenario import (
    PAPER_DISTANCE_VALUES_KM,
    distance_sweep_variants,
    with_workload,
)
from ..simulation.sweep import SweepResult, run_acceptance_sweep
from ..workloads import WorkloadSpec
from .figures import render_acceptance_sweep

__all__ = ["reproduce_figure9", "render_figure9", "curve_spread"]


def reproduce_figure9(
    distances_km: Sequence[float] = PAPER_DISTANCE_VALUES_KM,
    request_counts: Sequence[int] = PAPER_REQUEST_COUNTS,
    replications: int = 10,
    seed: int = 20070609,
    facs_config: FACSConfig | None = None,
    executor: SweepExecutor | str | None = None,
    workload: WorkloadSpec | None = None,
) -> SweepResult:
    """Run the Fig. 9 sweep and return one curve per distance value."""
    variants = with_workload(
        distance_sweep_variants(distances_km, seed=seed, facs_config=facs_config),
        workload,
    )
    return run_acceptance_sweep(
        name="fig9-distance",
        variants=variants,
        request_counts=request_counts,
        replications=replications,
        executor=executor,
    )


def curve_spread(sweep: SweepResult) -> float:
    """Spread (max - min of curve means) of a sweep, in percentage points.

    Used to check the paper's claim that the distance spread is smaller than
    the speed and angle spreads.
    """
    means = [curve.mean_acceptance() for curve in sweep.curves]
    return max(means) - min(means)


def render_figure9(sweep: SweepResult) -> str:
    """Render the Fig. 9 reproduction as an ASCII table plus plot."""
    return render_acceptance_sweep(
        sweep,
        "Figure 9 — acceptance percentage vs requesting connections (distance curves)",
        "Figure 9 (reproduction)",
    )
