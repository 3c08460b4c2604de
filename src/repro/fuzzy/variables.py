"""Linguistic variables and terms.

A :class:`LinguisticVariable` couples a named crisp universe of discourse
(e.g. user speed in km/h over ``[0, 120]``) with a *term set* — named fuzzy
sets such as ``Slow``, ``Middle``, ``Fast`` — exactly as Section 3 of the
paper defines ``T(S)``, ``T(A)``, ``T(D)`` and so on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .membership import MembershipFunction

__all__ = ["Term", "LinguisticVariable", "FuzzificationResult"]


@dataclass(frozen=True)
class Term:
    """A named fuzzy set belonging to a linguistic variable."""

    name: str
    membership: MembershipFunction

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("term name must be non-empty")

    def degree(self, value: float) -> float:
        """Membership degree of a crisp value in this term."""
        return float(self.membership(value))


@dataclass(frozen=True)
class FuzzificationResult:
    """Degrees of membership of a crisp value in every term of a variable."""

    variable: str
    value: float
    degrees: Mapping[str, float]

    def __getitem__(self, term: str) -> float:
        return self.degrees[term]


class LinguisticVariable:
    """A named variable over a crisp universe with a set of linguistic terms.

    Parameters
    ----------
    name:
        Variable name as used in rules (``"S"``, ``"A"``, ``"Cv"``, ...).
    universe:
        ``(low, high)`` bounds of the crisp universe of discourse.
    terms:
        Iterable of :class:`Term`; at least one term is required.
    resolution:
        Number of sample points used when the variable is discretised for
        Mamdani aggregation/defuzzification.
    """

    def __init__(
        self,
        name: str,
        universe: tuple[float, float],
        terms: Iterable[Term],
        resolution: int = 501,
    ):
        if not name:
            raise ValueError("variable name must be non-empty")
        low, high = float(universe[0]), float(universe[1])
        if not low < high:
            raise ValueError(
                f"universe must satisfy low < high, got ({low}, {high}) for {name!r}"
            )
        if resolution < 3:
            raise ValueError(f"resolution must be at least 3, got {resolution}")
        term_list = list(terms)
        if not term_list:
            raise ValueError(f"variable {name!r} requires at least one term")
        names = [t.name for t in term_list]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate term names in variable {name!r}: {names}")

        self._name = name
        self._universe = (low, high)
        self._terms: dict[str, Term] = {t.name: t for t in term_list}
        self._resolution = resolution
        self._grid = np.linspace(low, high, resolution)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def universe(self) -> tuple[float, float]:
        return self._universe

    @property
    def resolution(self) -> int:
        return self._resolution

    @property
    def grid(self) -> np.ndarray:
        """Discretised universe used for aggregation and defuzzification."""
        return self._grid

    @property
    def term_names(self) -> list[str]:
        return list(self._terms)

    def __contains__(self, term_name: str) -> bool:
        return term_name in self._terms

    def __iter__(self) -> Iterator[Term]:
        return iter(self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinguisticVariable({self._name!r}, universe={self._universe}, "
            f"terms={self.term_names})"
        )

    def term(self, name: str) -> Term:
        """Return the term with the given name, raising ``KeyError`` otherwise."""
        try:
            return self._terms[name]
        except KeyError:
            raise KeyError(
                f"variable {self._name!r} has no term {name!r}; "
                f"available: {self.term_names}"
            ) from None

    # ------------------------------------------------------------------
    # Fuzzification
    # ------------------------------------------------------------------
    def clip(self, value: float) -> float:
        """Clamp a crisp value into the universe of discourse."""
        low, high = self._universe
        return float(min(max(value, low), high))

    def fuzzify(self, value: float, strict: bool = False) -> FuzzificationResult:
        """Compute the membership degree of ``value`` in every term.

        Values outside the universe are clamped to the nearest bound (the
        behaviour a real controller exhibits with out-of-range sensor
        readings) unless ``strict`` is true, in which case they raise
        ``ValueError``.
        """
        low, high = self._universe
        if strict and not (low <= value <= high):
            raise ValueError(
                f"value {value} outside universe [{low}, {high}] of variable {self._name!r}"
            )
        clipped = self.clip(value)
        degrees = {name: term.degree(clipped) for name, term in self._terms.items()}
        return FuzzificationResult(self._name, clipped, degrees)

    def sample_term(self, term_name: str) -> np.ndarray:
        """Sample a term's membership function over the variable grid."""
        return self.term(term_name).membership.sample(self._grid)

    def coverage(self) -> np.ndarray:
        """Element-wise maximum membership over all terms on the grid.

        A well-formed term set covers the universe (no "holes"), i.e. the
        coverage should be strictly positive everywhere.  The FACS membership
        configurations are tested against this property.
        """
        surfaces = [self.sample_term(name) for name in self._terms]
        return np.maximum.reduce(surfaces)

    def is_complete(self, tolerance: float = 1e-9) -> bool:
        """Return ``True`` when every universe point belongs to some term."""
        return bool(np.all(self.coverage() > tolerance))
