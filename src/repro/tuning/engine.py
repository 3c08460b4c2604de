"""The tuning engine: evaluate trials, drive a strategy, build the report.

One *trial* substitutes a candidate value vector into the base definition,
builds a FACS with the tuned stage (the other stage keeps the paper's
controller), runs a small acceptance sweep *serially inside the worker*
and extracts the objective through the registered
:data:`~repro.api.report.COMPARISON_METRICS` path — the same extractors
campaign comparisons use.  A generation of trials is fanned over a shared
:class:`~repro.simulation.executor.SweepExecutor`; ``map`` preserves task
order and the strategy only advances after the whole generation is back,
so a tuning run is byte-identical at any worker count.

An infeasible candidate (e.g. a mutated membership vector that is no
longer monotonic) is a *deterministic failed trial*: the definition layer
rejects it with the variable/term context, the trial records the message
and the strategy treats its score as worst-possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..analysis.frame import MetricsFrame
from ..analysis.io import (
    flc_definition_to_dict,
    metrics_frame_to_dict,
    sweep_result_to_dict,
    versioned_payload,
)
from ..analysis.tables import format_table
from ..api.report import COMPARISON_METRICS, build_comparison
from ..cac.facs.definitions import FLC1_VARIABLES, FLC2_VARIABLES
from ..cac.facs.system import FACSConfig
from ..cellular.metrics import CallMetrics
from ..fuzzy.definition import DefinitionError, FLCDefinition
from ..simulation.config import BatchExperimentConfig
from ..simulation.executor import SweepExecutor
from ..simulation.results import RunResult
from ..simulation.scenario import facs_factory
from ..simulation.sweep import run_acceptance_sweep
from .space import SearchSpace, TuningError
from .strategies import strategy_by_name

__all__ = ["TrialResult", "TuningReport", "run_tuning", "render_tuning_report"]

#: Curve labels inside trial payloads; also the comparison member ids.
_TUNED_LABEL = "tuned"
_PAPER_LABEL = "paper"

#: QoS columns of the tuned-vs-paper comparison (the objective is added
#: when it is not already one of them).
_REPORT_METRICS = ("mean_acceptance", "final_acceptance")


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one evaluated candidate."""

    index: int
    values: tuple[float, ...]
    score: float | None
    error: str | None = None
    counters: tuple[int, ...] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "values": list(self.values),
            "score": self.score,
            "error": self.error,
        }


@dataclass(frozen=True)
class _TrialTask:
    """Everything a worker needs to evaluate one candidate (picklable)."""

    index: int
    values: tuple[float, ...]
    base: FLCDefinition
    space: SearchSpace
    slot: str
    objective: str
    request_counts: tuple[int, ...]
    replications: int
    seed: int




def _sweep_payload(
    definition: FLCDefinition,
    slot: str,
    label: str,
    request_counts: tuple[int, ...],
    replications: int,
    seed: int,
) -> tuple[dict, tuple[int, ...]]:
    """(sweep metrics payload, summed counters) of one candidate run."""
    result = run_acceptance_sweep(
        name=f"tuning-{label}",
        variants={
            label: (
                BatchExperimentConfig(seed=seed),
                facs_factory(FACSConfig(**{slot: definition})),
            )
        },
        request_counts=request_counts,
        replications=replications,
        executor="serial",
    )
    totals = [0] * len(CallMetrics.COUNTER_FIELDS)
    for run in result.frame.run_results():
        for i, value in enumerate(run.metrics.as_counters()):
            totals[i] += value
    return sweep_result_to_dict(result), tuple(totals)


def _extract_objective(payload: Mapping[str, Any], objective: str, label: str) -> float:
    extracted = COMPARISON_METRICS.get(objective)(payload)
    if not extracted or label not in extracted:
        raise TuningError(
            f"objective {objective!r} does not apply to the trial sweep "
            f"payload (extracted: {extracted!r})"
        )
    return float(extracted[label])


def _evaluate_trial(task: _TrialTask) -> TrialResult:
    """Worker entry point: one candidate in, one :class:`TrialResult` out."""
    try:
        candidate = task.space.apply(task.base, task.values)
    except (DefinitionError, TuningError) as exc:
        return TrialResult(
            index=task.index, values=task.values, score=None, error=str(exc)
        )
    payload, counters = _sweep_payload(
        candidate,
        task.slot,
        _TUNED_LABEL,
        task.request_counts,
        task.replications,
        task.seed,
    )
    score = _extract_objective(payload, task.objective, _TUNED_LABEL)
    return TrialResult(
        index=task.index, values=task.values, score=score, counters=counters
    )


@dataclass(frozen=True)
class TuningReport:
    """Everything a tuning run produced, in one self-describing object."""

    objective: str
    direction: str
    strategy: str
    slot: str
    targets: tuple[str, ...]
    baseline_values: tuple[float, ...]
    baseline_score: float
    trials: tuple[TrialResult, ...]
    best: TrialResult
    best_definition: FLCDefinition
    frame: MetricsFrame
    comparison_text: str
    comparison: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """Schema-versioned ``tuning`` metrics payload (JSON-safe)."""
        return versioned_payload(
            {
                "type": "tuning",
                "objective": self.objective,
                "direction": self.direction,
                "strategy": self.strategy,
                "slot": self.slot,
                "targets": list(self.targets),
                "baseline": {
                    "values": list(self.baseline_values),
                    "score": self.baseline_score,
                },
                "best": self.best.to_dict(),
                "trial_count": len(self.trials),
                "trials": [trial.to_dict() for trial in self.trials],
                "best_definition": flc_definition_to_dict(self.best_definition),
                "comparison": self.comparison,
                "frame": metrics_frame_to_dict(self.frame),
            }
        )


def _slot_for(definition: FLCDefinition) -> str:
    signature = (definition.input_names(), definition.output_names())
    if signature == FLC1_VARIABLES:
        return "flc1"
    if signature == FLC2_VARIABLES:
        return "flc2"
    raise TuningError(
        f"definition {definition.name!r} fits neither FACS slot: "
        f"got {signature[0]} -> {signature[1]}"
    )


def _better(score: float, incumbent: float, direction: str) -> bool:
    if direction == "maximize":
        return score > incumbent
    return score < incumbent


def _trial_frame(trials: Sequence[TrialResult], targets: tuple[str, ...]) -> MetricsFrame:
    """One batch-kind frame row per trial (parameters: targets + score)."""
    runs = []
    labels = []
    zero = (0,) * len(CallMetrics.COUNTER_FIELDS)
    for trial in trials:
        parameters = {"trial": float(trial.index)}
        for target, value in zip(targets, trial.values):
            parameters[target] = value
        parameters["score"] = (
            math.nan if trial.score is None else float(trial.score)
        )
        runs.append(
            RunResult(
                controller="FACS",
                metrics=CallMetrics.from_counters(trial.counters or zero),
                parameters=parameters,
                seed=trial.index,
            )
        )
        labels.append(f"trial-{trial.index}")
    return MetricsFrame.from_run_results(runs, labels=labels)


def run_tuning(
    base: FLCDefinition,
    space: SearchSpace,
    strategy: str = "grid",
    objective: str = "mean_acceptance",
    direction: str = "maximize",
    request_counts: Sequence[int] = (10, 30),
    replications: int = 2,
    seed: int = 20070801,
    executor: SweepExecutor | None = None,
    population: int = 8,
    generations: int = 6,
    max_trials: int | None = None,
) -> TuningReport:
    """Search ``space`` around ``base`` and report the best candidate.

    The trial workload (request counts x replications, seeded) is fixed
    across all candidates and the paper baseline, so scores are directly
    comparable; ``executor`` only changes wall-clock, never the result.
    """
    if direction not in ("maximize", "minimize"):
        raise TuningError(
            f"direction must be 'maximize' or 'minimize', got {direction!r}"
        )
    if objective not in COMPARISON_METRICS:
        raise TuningError(
            f"unknown objective {objective!r}; available: "
            f"{list(COMPARISON_METRICS)}"
        )
    space.validate_against(base)
    slot = _slot_for(base)
    request_counts = tuple(int(c) for c in request_counts)
    search = strategy_by_name(
        strategy, space, seed=seed, population=population, generations=generations
    )

    # The paper baseline runs the identical workload with untouched values.
    baseline_payload, _ = _sweep_payload(
        base, slot, _PAPER_LABEL, request_counts, replications, seed
    )
    baseline_score = _extract_objective(baseline_payload, objective, _PAPER_LABEL)

    trials: list[TrialResult] = []
    while True:
        batch = search.ask()
        if not batch:
            break
        if max_trials is not None:
            batch = batch[: max(0, max_trials - len(trials))]
            if not batch:
                break
        tasks = [
            _TrialTask(
                index=len(trials) + offset,
                values=values,
                base=base,
                space=space,
                slot=slot,
                objective=objective,
                request_counts=request_counts,
                replications=replications,
                seed=seed,
            )
            for offset, values in enumerate(batch)
        ]
        if executor is None:
            results = [_evaluate_trial(task) for task in tasks]
        else:
            results = executor.map(_evaluate_trial, tasks)
        trials.extend(results)
        # Strategies maximize internally; flip the sign for minimization so
        # the same selection code serves both directions.
        search.tell(
            [
                None
                if r.score is None
                else (r.score if direction == "maximize" else -r.score)
                for r in results
            ]
        )

    if not trials:
        raise TuningError("the strategy produced no candidates")

    best: TrialResult | None = None
    for trial in trials:
        if trial.score is None:
            continue
        if best is None or _better(trial.score, best.score, direction):
            best = trial
    if best is None:
        raise TuningError(
            "every candidate was infeasible; first failure: "
            f"{trials[0].error}"
        )

    best_definition = space.apply(base, best.values)
    tuned_payload, _ = _sweep_payload(
        best_definition, slot, _TUNED_LABEL, request_counts, replications, seed
    )
    metrics = [objective] + [m for m in _REPORT_METRICS if m != objective]
    comparison_text, comparison = build_comparison(
        [_PAPER_LABEL, _TUNED_LABEL],
        [_MetricsView(baseline_payload), _MetricsView(tuned_payload)],
        metrics,
        baseline=_PAPER_LABEL,
    )

    return TuningReport(
        objective=objective,
        direction=direction,
        strategy=strategy,
        slot=slot,
        targets=space.targets(),
        baseline_values=space.baseline_values(base),
        baseline_score=baseline_score,
        trials=tuple(trials),
        best=best,
        best_definition=best_definition,
        frame=_trial_frame(trials, space.targets()),
        comparison_text=comparison_text,
        comparison=comparison,
    )


@dataclass(frozen=True)
class _MetricsView:
    """Duck-typed stand-in for a RunReport inside :func:`build_comparison`."""

    metrics: Mapping[str, Any]


def render_tuning_report(report: TuningReport) -> str:
    """The human-readable artifact of a tuning run."""
    sign = "+" if report.direction == "maximize" else "-"
    lines = [
        f"Rule-base tuning — {report.slot.upper()} "
        f"({report.strategy} search, {len(report.trials)} trials, "
        f"{sign}{report.objective})",
        "",
        f"targets: {', '.join(report.targets)}",
        f"paper baseline: {report.baseline_score:.4f} "
        f"at {list(report.baseline_values)}",
        f"best candidate: trial {report.best.index} -> "
        f"{report.best.score:.4f} at {list(report.best.values)}",
        "",
    ]
    ranked = sorted(
        (t for t in report.trials if t.score is not None),
        key=lambda t: (-t.score if report.direction == "maximize" else t.score, t.index),
    )
    rows = [
        [trial.index, *trial.values, round(trial.score, 4)]
        for trial in ranked[:10]
    ]
    lines.append(
        format_table(
            ["trial", *report.targets, report.objective],
            rows,
            title="Top candidates",
        )
    )
    failed = sum(1 for t in report.trials if t.score is None)
    if failed:
        lines.append(f"\ninfeasible candidates rejected: {failed}")
    lines.append("")
    lines.append(report.comparison_text)
    return "\n".join(lines)
