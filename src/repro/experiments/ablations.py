"""Ablation studies on design choices the paper fixes without exploring them.

These ablations quantify how much each one matters:

* the defuzzification method used by FLC1/FLC2 (centroid vs alternatives);
* the crisp acceptance threshold applied to the soft A/R output;
* FACS and SCC against the classic non-fuzzy baselines (Complete Sharing,
  Guard Channel, Threshold policy);
* the multi-cell integration run measuring dropping as well as blocking.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

from ..cac.facs.definitions import flc1_definition, flc2_definition
from ..cac.facs.system import FACSConfig
from ..simulation.config import (
    BatchExperimentConfig,
    NetworkExperimentConfig,
    PAPER_REQUEST_COUNTS,
)
from ..simulation.engine import NetworkRunOutput, run_network_experiment
from ..simulation.scenario import baseline_comparison_variants, facs_factory, scc_factory
from ..simulation.sweep import SweepResult, run_acceptance_sweep

__all__ = [
    "defuzzifier_ablation",
    "threshold_ablation",
    "baseline_ablation",
    "network_integration",
]


def defuzzifier_ablation(
    methods: Sequence[str] = ("centroid", "bisector", "mom"),
    request_counts: Sequence[int] = (20, 60, 100),
    replications: int = 5,
    seed: int = 20070612,
) -> SweepResult:
    """Acceptance sensitivity to the defuzzification method of both FLCs."""
    variants = {}
    for method in methods:
        config = FACSConfig(
            flc1=replace(flc1_definition(), defuzzifier=method),
            flc2=replace(flc2_definition(), defuzzifier=method),
        )
        variants[method] = (BatchExperimentConfig(seed=seed), facs_factory(config))
    return run_acceptance_sweep(
        name="ablation-defuzzifier",
        variants=variants,
        request_counts=request_counts,
        replications=replications,
    )


def threshold_ablation(
    thresholds: Sequence[float] = (-0.25, 0.0, 0.25, 0.5),
    request_counts: Sequence[int] = (20, 60, 100),
    replications: int = 5,
    seed: int = 20070613,
) -> SweepResult:
    """Acceptance sensitivity to the crisp A/R acceptance threshold."""
    variants = {}
    for threshold in thresholds:
        config = FACSConfig(acceptance_threshold=threshold)
        variants[f"threshold={threshold:+.2f}"] = (
            BatchExperimentConfig(seed=seed),
            facs_factory(config),
        )
    return run_acceptance_sweep(
        name="ablation-threshold",
        variants=variants,
        request_counts=request_counts,
        replications=replications,
    )


def baseline_ablation(
    request_counts: Sequence[int] = PAPER_REQUEST_COUNTS,
    replications: int = 5,
    seed: int = 20070614,
) -> SweepResult:
    """FACS and SCC against Complete Sharing, Guard Channel and Threshold policies."""
    return run_acceptance_sweep(
        name="ablation-baselines",
        variants=baseline_comparison_variants(seed=seed),
        request_counts=request_counts,
        replications=replications,
    )


def network_integration(
    controllers: Mapping[str, object] | None = None,
    config: NetworkExperimentConfig | None = None,
) -> dict[str, NetworkRunOutput]:
    """Multi-cell integration run (handoffs and dropping) per controller."""
    config = config or NetworkExperimentConfig()
    if controllers is None:
        controllers = {
            "FACS": facs_factory(),
            "SCC": scc_factory(),
        }
    results: dict[str, NetworkRunOutput] = {}
    for label, factory in controllers.items():
        results[label] = run_network_experiment(config, factory)  # type: ignore[arg-type]
    return results
