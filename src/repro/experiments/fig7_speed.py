"""Figure 7: acceptance percentage vs requesting connections for different speeds.

The paper fixes the user speed per curve (4, 10, 30 and 60 km/h), randomises
the remaining attributes and reports the percentage of accepted calls as the
number of requesting connections grows from 0 to 100.  The headline
observation is that faster users are accepted more because their direction
"can not be changed easy", so FLC1 predicts their trajectory with more
confidence.
"""

from __future__ import annotations

from typing import Sequence

from ..cac.facs.system import FACSConfig
from ..simulation.config import PAPER_REQUEST_COUNTS
from ..simulation.executor import SweepExecutor
from ..simulation.scenario import (
    PAPER_SPEED_VALUES_KMH,
    speed_sweep_variants,
    with_workload,
)
from ..simulation.sweep import SweepResult, run_acceptance_sweep
from ..workloads import WorkloadSpec
from .figures import render_acceptance_sweep

__all__ = ["reproduce_figure7", "render_figure7"]


def reproduce_figure7(
    speeds_kmh: Sequence[float] = PAPER_SPEED_VALUES_KMH,
    request_counts: Sequence[int] = PAPER_REQUEST_COUNTS,
    replications: int = 10,
    seed: int = 20070607,
    facs_config: FACSConfig | None = None,
    executor: SweepExecutor | str | None = None,
    workload: WorkloadSpec | None = None,
) -> SweepResult:
    """Run the Fig. 7 sweep and return one curve per speed value."""
    variants = with_workload(
        speed_sweep_variants(speeds_kmh, seed=seed, facs_config=facs_config),
        workload,
    )
    return run_acceptance_sweep(
        name="fig7-speed",
        variants=variants,
        request_counts=request_counts,
        replications=replications,
        executor=executor,
    )


def render_figure7(sweep: SweepResult) -> str:
    """Render the Fig. 7 reproduction as an ASCII table plus plot."""
    return render_acceptance_sweep(
        sweep,
        "Figure 7 — acceptance percentage vs requesting connections (speed curves)",
        "Figure 7 (reproduction)",
    )
