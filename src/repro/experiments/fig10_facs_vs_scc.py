"""Figure 10: FACS vs SCC acceptance percentage.

The paper's headline comparison: with fully randomised user attributes, the
proposed FACS accepts *more* connections than the Shadow Cluster Concept
while bandwidth is plentiful (below roughly 50 requesting connections) and
*fewer* once the system approaches saturation — because FACS holds back calls
with unfavourable trajectories to protect the QoS of ongoing calls.
"""

from __future__ import annotations

from typing import Sequence

from ..cac.facs.system import FACSConfig
from ..cac.scc.system import SCCConfig
from ..simulation.config import PAPER_REQUEST_COUNTS
from ..simulation.executor import SweepExecutor
from ..simulation.scenario import controller_comparison_variants, with_workload
from ..simulation.sweep import SweepResult, run_acceptance_sweep
from ..workloads import WorkloadSpec
from .figures import render_acceptance_sweep

__all__ = ["reproduce_figure10", "render_figure10", "crossover_request_count"]


def reproduce_figure10(
    request_counts: Sequence[int] = PAPER_REQUEST_COUNTS,
    replications: int = 10,
    seed: int = 20070610,
    facs_config: FACSConfig | None = None,
    scc_config: SCCConfig | None = None,
    executor: SweepExecutor | str | None = None,
    workload: WorkloadSpec | None = None,
) -> SweepResult:
    """Run the Fig. 10 sweep: the FACS and SCC curves on the same workload."""
    variants = with_workload(
        controller_comparison_variants(
            seed=seed, facs_config=facs_config, scc_config=scc_config
        ),
        workload,
    )
    return run_acceptance_sweep(
        name="fig10-facs-vs-scc",
        variants=variants,
        request_counts=request_counts,
        replications=replications,
        executor=executor,
    )


def crossover_request_count(sweep: SweepResult) -> int | None:
    """First request count at which SCC's acceptance overtakes FACS's.

    Returns ``None`` when the curves never cross inside the sweep — the
    Fig. 10 tests assert that a crossover exists and falls in the interior
    of the 0–100 range.
    """
    facs = sweep.curve("FACS")
    scc = sweep.curve("SCC")
    for facs_point, scc_point in zip(facs.points, scc.points):
        if scc_point.acceptance_percentage > facs_point.acceptance_percentage:
            return facs_point.request_count
    return None


def render_figure10(sweep: SweepResult) -> str:
    """Render the Fig. 10 reproduction as an ASCII table plus plot.

    A sweep of a single request count renders as the table alone, with no
    crossover line.
    """
    text = render_acceptance_sweep(
        sweep,
        "Figure 10 — FACS vs SCC acceptance percentage",
        "Figure 10 (reproduction)",
    )
    if len(sweep.curves[0].points) < 2:
        return text
    crossover = crossover_request_count(sweep)
    note = (
        f"crossover: SCC overtakes FACS at {crossover} requesting connections"
        if crossover is not None
        else "crossover: not observed within the sweep"
    )
    return f"{text}\n{note}"
