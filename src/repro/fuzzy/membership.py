"""Membership functions for fuzzy sets.

The paper uses triangular and trapezoidal membership functions exclusively
("because they are suitable for real-time operation", Section 3), defined as

``f(x; x0, a0, a1)``
    triangular function with centre ``x0``, left width ``a0`` and right width
    ``a1`` (paper notation), and

``g(x; x0, x1, a0, a1)``
    trapezoidal function with left edge ``x0``, right edge ``x1``, left width
    ``a0`` and right width ``a1``.

This module provides those two shapes, and only those, under both the
conventional break-point parameterisation (:class:`Triangular`,
:class:`Trapezoidal`) and the paper's width parameterisation
(:func:`paper_triangular`, :func:`paper_trapezoidal`); they are also the two
kinds an :class:`~repro.fuzzy.definition.FLCDefinition` can carry.

All membership functions are immutable callables mapping a crisp value (or a
NumPy array of values) to a membership degree in ``[0, 1]``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "MembershipFunction",
    "Triangular",
    "Trapezoidal",
    "paper_triangular",
    "paper_trapezoidal",
]

_EPS = 1e-12
# np.isclose defaults, inlined: for finite values np.isclose(x, b) is exactly
# |x - b| <= atol + rtol * |b|, and the direct expression skips np.isclose's
# errstate/broadcast machinery — a fixed cost that dominates small batches.
_ISCLOSE_RTOL = 1e-5
_ISCLOSE_ATOL = 1e-8


def _as_array(x: float | np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _near_peak(x: np.ndarray, b: float) -> np.ndarray:
    """Bit-identical replacement for ``np.isclose(x, b)`` on finite inputs."""
    return np.abs(x - b) <= (_ISCLOSE_ATOL + _ISCLOSE_RTOL * abs(b))


class MembershipFunction(ABC):
    """A fuzzy membership function ``mu: R -> [0, 1]``.

    Subclasses implement :meth:`evaluate` for NumPy arrays; scalar calls go
    through the same path and return a Python ``float``.
    """

    @abstractmethod
    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Return membership degrees for an array of crisp values."""

    @property
    @abstractmethod
    def support(self) -> tuple[float, float]:
        """Return the closed interval outside which membership is zero."""

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        arr = _as_array(x)
        result = np.clip(self.evaluate(arr), 0.0, 1.0)
        if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
            return float(result)
        return result

    def sample(self, universe: Sequence[float] | np.ndarray) -> np.ndarray:
        """Evaluate the membership function over a discretised universe."""
        return np.clip(self.evaluate(_as_array(universe)), 0.0, 1.0)


@dataclass(frozen=True)
class Triangular(MembershipFunction):
    """Triangular membership function with break points ``a <= b <= c``.

    ``a`` and ``c`` are the feet (membership 0) and ``b`` the peak
    (membership 1).  Degenerate shoulders (``a == b`` or ``b == c``) are
    allowed and produce half-open ramps, which is how the paper's edge terms
    (e.g. Near/Far distance in Fig. 5c) behave.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not (self.a <= self.b <= self.c):
            raise ValueError(
                f"Triangular break points must satisfy a <= b <= c, "
                f"got a={self.a}, b={self.b}, c={self.c}"
            )

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = _as_array(x)
        mu = np.zeros_like(x)
        left_width = self.b - self.a
        right_width = self.c - self.b
        if left_width > _EPS:
            rising = (x > self.a) & (x < self.b)
            mu[rising] = (x[rising] - self.a) / left_width
        else:
            mu[_near_peak(x, self.b)] = 1.0
        if right_width > _EPS:
            falling = (x >= self.b) & (x < self.c)
            mu[falling] = (self.c - x[falling]) / right_width
        mu[_near_peak(x, self.b)] = 1.0
        if left_width <= _EPS:
            # Left shoulder: everything at/below the peak is fully included
            # only at the peak itself unless it is also the universe edge.
            mu[x == self.b] = 1.0
        return mu

    @property
    def support(self) -> tuple[float, float]:
        return (self.a, self.c)

    @property
    def peak(self) -> float:
        """Crisp value with full membership."""
        return self.b


@dataclass(frozen=True)
class Trapezoidal(MembershipFunction):
    """Trapezoidal membership function with break points ``a <= b <= c <= d``.

    Membership rises from 0 at ``a`` to 1 at ``b``, stays 1 on ``[b, c]`` and
    falls back to 0 at ``d``.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not (self.a <= self.b <= self.c <= self.d):
            raise ValueError(
                f"Trapezoidal break points must satisfy a <= b <= c <= d, "
                f"got a={self.a}, b={self.b}, c={self.c}, d={self.d}"
            )

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = _as_array(x)
        mu = np.zeros_like(x)
        left_width = self.b - self.a
        right_width = self.d - self.c
        if left_width > _EPS:
            rising = (x > self.a) & (x < self.b)
            mu[rising] = (x[rising] - self.a) / left_width
        if right_width > _EPS:
            falling = (x > self.c) & (x < self.d)
            mu[falling] = (self.d - x[falling]) / right_width
        plateau = (x >= self.b) & (x <= self.c)
        mu[plateau] = 1.0
        return mu

    @property
    def support(self) -> tuple[float, float]:
        return (self.a, self.d)

    @property
    def core(self) -> tuple[float, float]:
        """Interval of full membership."""
        return (self.b, self.c)


# ----------------------------------------------------------------------
# Paper-notation constructors.
# ----------------------------------------------------------------------
def paper_triangular(x0: float, a0: float, a1: float) -> Triangular:
    """Build the paper's ``f(x; x0, a0, a1)`` triangular function.

    ``x0`` is the centre, ``a0`` the left width and ``a1`` the right width, so
    the support is ``[x0 - a0, x0 + a1]``.
    """
    if a0 < 0 or a1 < 0:
        raise ValueError(f"widths must be non-negative, got a0={a0}, a1={a1}")
    return Triangular(x0 - a0, x0, x0 + a1)


def paper_trapezoidal(x0: float, x1: float, a0: float, a1: float) -> Trapezoidal:
    """Build the paper's ``g(x; x0, x1, a0, a1)`` trapezoidal function.

    ``x0``/``x1`` are the left/right edges of the plateau and ``a0``/``a1``
    the left/right widths, so the support is ``[x0 - a0, x1 + a1]``.
    """
    if a0 < 0 or a1 < 0:
        raise ValueError(f"widths must be non-negative, got a0={a0}, a1={a1}")
    if x0 > x1:
        raise ValueError(f"plateau edges must satisfy x0 <= x1, got x0={x0}, x1={x1}")
    return Trapezoidal(x0 - a0, x0, x1, x1 + a1)
