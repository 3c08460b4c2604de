"""Statistical helpers for reporting simulation results."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "SummaryStatistics",
    "summarize",
    "t_confidence_interval",
    "paired_difference",
    "series_mean",
    "series_sample_std",
    "acceptance_percentage",
]


def acceptance_percentage(accepted: float, requested: float) -> float:
    """Acceptance percentage with the pinned historical arithmetic.

    ``100.0 * (accepted / requested)``, and ``0.0`` when nothing was
    requested — the single executable spec of the paper's headline metric,
    shared by :class:`repro.cellular.metrics.CallMetrics`, the frame's
    derived acceptance column and the trace pipeline's counter-free
    fallback, so every reporting path stays bit-identical (see
    :func:`series_mean` for why the arithmetic is pinned).
    """
    if requested == 0:
        return 0.0
    return 100.0 * (accepted / requested)


def series_mean(values: Sequence[float]) -> float:
    """Left-to-right mean: ``sum(values) / len(values)``.

    This is deliberately the exact arithmetic of the historical replication
    aggregation loops (``aggregate_runs``/``aggregate_network_runs``), kept
    as the single executable spec both those loops and the columnar
    :meth:`repro.analysis.frame.MetricsFrame.group_reduce` share — so the
    two paths stay bit-identical, not merely close.
    """
    if not values:
        raise ValueError("cannot average an empty series")
    return sum(values) / len(values)


def series_sample_std(values: Sequence[float], mean: float | None = None) -> float:
    """Sample standard deviation with the historical loop arithmetic.

    ``sqrt(sum((v - mean)**2) / (n - 1))`` for ``n > 1``, else ``0.0`` —
    the exact expression of the original aggregation loops (see
    :func:`series_mean` for why the arithmetic is pinned).
    """
    if not values:
        raise ValueError("cannot take the deviation of an empty series")
    if mean is None:
        mean = series_mean(values)
    if len(values) <= 1:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(variance)


@dataclass(frozen=True)
class SummaryStatistics:
    """Mean / spread summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def standard_error(self) -> float:
        if self.count < 1:
            return 0.0
        return self.std / math.sqrt(self.count)


def summarize(values: Sequence[float]) -> SummaryStatistics:
    """Compute summary statistics of a non-empty sample."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("cannot summarise an empty sample")
    count = len(data)
    mean = sum(data) / count
    if count > 1:
        variance = sum((v - mean) ** 2 for v in data) / (count - 1)
    else:
        variance = 0.0
    return SummaryStatistics(
        count=count,
        mean=mean,
        std=math.sqrt(variance),
        minimum=min(data),
        maximum=max(data),
    )


def t_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Student-t confidence interval for the mean of a sample.

    The only user of scipy in the package, so scipy is imported here rather
    than at module level: every simulation imports this module, and loading
    ``scipy.stats`` would dominate a fresh process's start-up.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    summary = summarize(values)
    if summary.count < 2 or summary.std == 0.0:
        return (summary.mean, summary.mean)
    from scipy import stats as scipy_stats

    t_value = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=summary.count - 1))
    half_width = t_value * summary.standard_error
    return (summary.mean - half_width, summary.mean + half_width)


def paired_difference(
    first: Sequence[float], second: Sequence[float], confidence: float = 0.95
) -> tuple[float, tuple[float, float]]:
    """Mean paired difference (first - second) with its confidence interval.

    Used to report e.g. "FACS accepts X percentage points more than SCC at
    N=30 requests" with an uncertainty band across replications.
    """
    if len(first) != len(second):
        raise ValueError(
            f"paired samples must have equal length, got {len(first)} and {len(second)}"
        )
    differences = [float(a) - float(b) for a, b in zip(first, second)]
    interval = t_confidence_interval(differences, confidence)
    return (sum(differences) / len(differences), interval)
