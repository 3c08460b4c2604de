"""Figure 8: acceptance percentage vs requesting connections for different angles.

The paper fixes the user's heading relative to the base station per curve
(0, 30, 50, 60 and 90 degrees) and randomises the remaining attributes.  A
user heading straight at the BS (angle 0) is accepted nearly always at light
load; users heading away are increasingly rejected because there is "no need
to allocate the bandwidth for this user".
"""

from __future__ import annotations

from typing import Sequence

from ..cac.facs.system import FACSConfig
from ..simulation.config import PAPER_REQUEST_COUNTS
from ..simulation.executor import SweepExecutor
from ..simulation.scenario import (
    PAPER_ANGLE_VALUES_DEG,
    angle_sweep_variants,
    with_workload,
)
from ..simulation.sweep import SweepResult, run_acceptance_sweep
from ..workloads import WorkloadSpec
from .figures import render_acceptance_sweep

__all__ = ["reproduce_figure8", "render_figure8"]


def reproduce_figure8(
    angles_deg: Sequence[float] = PAPER_ANGLE_VALUES_DEG,
    request_counts: Sequence[int] = PAPER_REQUEST_COUNTS,
    replications: int = 10,
    seed: int = 20070608,
    facs_config: FACSConfig | None = None,
    executor: SweepExecutor | str | None = None,
    workload: WorkloadSpec | None = None,
) -> SweepResult:
    """Run the Fig. 8 sweep and return one curve per angle value."""
    variants = with_workload(
        angle_sweep_variants(angles_deg, seed=seed, facs_config=facs_config),
        workload,
    )
    return run_acceptance_sweep(
        name="fig8-angle",
        variants=variants,
        request_counts=request_counts,
        replications=replications,
        executor=executor,
    )


def render_figure8(sweep: SweepResult) -> str:
    """Render the Fig. 8 reproduction as an ASCII table plus plot."""
    return render_acceptance_sweep(
        sweep,
        "Figure 8 — acceptance percentage vs requesting connections (angle curves)",
        "Figure 8 (reproduction)",
    )
