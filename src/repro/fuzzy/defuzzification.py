"""Defuzzification strategies.

Mamdani inference produces an aggregated output fuzzy set sampled on the
output variable's grid; a defuzzifier reduces it to a single crisp value.
The paper's FLC uses the standard centre-of-gravity (centroid) defuzzifier;
the alternatives here are used by the defuzzification ablation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Defuzzifier",
    "Centroid",
    "Bisector",
    "MeanOfMaximum",
    "SmallestOfMaximum",
    "LargestOfMaximum",
    "WeightedAverage",
    "defuzzifier_by_name",
    "DEFAULT_DEFUZZIFIER",
]

_EPS = 1e-12


class DefuzzificationError(ValueError):
    """Raised when an aggregated surface cannot be defuzzified (e.g. all zero)."""


class Defuzzifier(ABC):
    """Strategy object converting an aggregated membership surface to a crisp value."""

    name: str = "defuzzifier"

    @abstractmethod
    def defuzzify(self, grid: np.ndarray, surface: np.ndarray) -> float:
        """Return the crisp value for membership ``surface`` sampled on ``grid``."""

    def __call__(self, grid: np.ndarray, surface: np.ndarray) -> float:
        grid = np.asarray(grid, dtype=float)
        surface = np.asarray(surface, dtype=float)
        if grid.shape != surface.shape:
            raise ValueError(
                f"grid and surface shapes differ: {grid.shape} vs {surface.shape}"
            )
        if grid.size < 2:
            raise ValueError("defuzzification requires at least two grid points")
        if np.any(surface < -_EPS) or np.any(surface > 1.0 + 1e-9):
            raise ValueError("membership surface values must lie in [0, 1]")
        if float(np.max(surface)) <= _EPS:
            raise DefuzzificationError(
                "aggregated membership surface is identically zero; "
                "no rule fired for the given inputs"
            )
        return float(self.defuzzify(grid, surface))


@dataclass(frozen=True)
class Centroid(Defuzzifier):
    """Centre-of-gravity defuzzifier (the paper's choice)."""

    name: str = "centroid"

    def defuzzify(self, grid: np.ndarray, surface: np.ndarray) -> float:
        area = float(np.trapezoid(surface, grid))
        if area <= _EPS:
            raise DefuzzificationError("zero area under membership surface")
        return float(np.trapezoid(surface * grid, grid) / area)


@dataclass(frozen=True)
class Bisector(Defuzzifier):
    """Value that splits the area under the surface into two equal halves."""

    name: str = "bisector"

    def defuzzify(self, grid: np.ndarray, surface: np.ndarray) -> float:
        # Cumulative trapezoidal areas between consecutive grid points.
        segment_areas = 0.5 * (surface[1:] + surface[:-1]) * np.diff(grid)
        cumulative = np.concatenate(([0.0], np.cumsum(segment_areas)))
        total = cumulative[-1]
        if total <= _EPS:
            raise DefuzzificationError("zero area under membership surface")
        half = 0.5 * total
        idx = int(np.searchsorted(cumulative, half))
        idx = min(max(idx, 1), len(grid) - 1)
        # Linear interpolation inside the segment containing the half-area point.
        area_before = cumulative[idx - 1]
        segment = segment_areas[idx - 1]
        if segment <= _EPS:
            return float(grid[idx - 1])
        fraction = (half - area_before) / segment
        return float(grid[idx - 1] + fraction * (grid[idx] - grid[idx - 1]))


@dataclass(frozen=True)
class MeanOfMaximum(Defuzzifier):
    """Mean of the grid points attaining the maximum membership."""

    name: str = "mom"
    tolerance: float = 1e-9

    def defuzzify(self, grid: np.ndarray, surface: np.ndarray) -> float:
        peak = float(np.max(surface))
        at_peak = grid[surface >= peak - self.tolerance]
        return float(np.mean(at_peak))


@dataclass(frozen=True)
class SmallestOfMaximum(Defuzzifier):
    """Smallest grid point attaining the maximum membership."""

    name: str = "som"
    tolerance: float = 1e-9

    def defuzzify(self, grid: np.ndarray, surface: np.ndarray) -> float:
        peak = float(np.max(surface))
        at_peak = grid[surface >= peak - self.tolerance]
        return float(np.min(at_peak))


@dataclass(frozen=True)
class LargestOfMaximum(Defuzzifier):
    """Largest grid point attaining the maximum membership."""

    name: str = "lom"
    tolerance: float = 1e-9

    def defuzzify(self, grid: np.ndarray, surface: np.ndarray) -> float:
        peak = float(np.max(surface))
        at_peak = grid[surface >= peak - self.tolerance]
        return float(np.max(at_peak))


@dataclass(frozen=True)
class WeightedAverage(Defuzzifier):
    """Height-weighted average — a fast approximation of the centroid.

    Equivalent to the centroid for symmetric, non-overlapping consequent
    sets; useful for latency-sensitive deployments of the controller.
    """

    name: str = "weighted_average"

    def defuzzify(self, grid: np.ndarray, surface: np.ndarray) -> float:
        total = float(np.sum(surface))
        if total <= _EPS:
            raise DefuzzificationError("zero total membership")
        return float(np.sum(surface * grid) / total)


DEFAULT_DEFUZZIFIER = Centroid()

_REGISTRY: dict[str, Defuzzifier] = {
    d.name: d
    for d in (
        Centroid(),
        Bisector(),
        MeanOfMaximum(),
        SmallestOfMaximum(),
        LargestOfMaximum(),
        WeightedAverage(),
    )
}


def defuzzifier_by_name(name: str) -> Defuzzifier:
    """Look up a defuzzifier by its registered name (``"centroid"``, ``"mom"``, ...)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown defuzzifier {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
