"""Parameter search spaces over declarative controller definitions.

A :class:`SearchSpace` names a set of tunable scalars inside one
:class:`~repro.fuzzy.definition.FLCDefinition` — membership-function break
points and rule weights — each with either continuous bounds or a discrete
choice list.  ``apply`` substitutes a value vector into a base definition,
re-running the definition's own validation, so an infeasible candidate
(say, a mutated break-point vector that is no longer monotonic) fails
loudly with the variable/term context instead of producing a silently
broken controller.

Targets are dotted paths:

``mf.<variable>.<term>.<index>``
    the ``index``-th shape parameter of that term's membership function
    (e.g. ``mf.S.M.1`` is the peak of FLC1's *Middle* speed triangle);
``weight.<rule label>``
    the weight of the rule with that label (``weight.12``).

Everything here is frozen and built from primitives, so spaces are
hashable, picklable and embed losslessly in scenario JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

import numpy as np

from ..fuzzy.definition import (
    DefinitionError,
    FLCDefinition,
    MembershipDef,
    RuleDef,
    TermDef,
    VariableDef,
)

__all__ = ["TuningError", "ParameterSpec", "SearchSpace"]


class TuningError(ValueError):
    """A search space, strategy or tuning run is misconfigured."""


@dataclass(frozen=True)
class ParameterSpec:
    """One tunable scalar: a target path plus bounds or a choice list."""

    target: str
    low: float | None = None
    high: float | None = None
    choices: tuple[float, ...] | None = None
    #: Number of evenly spaced grid points the grid strategy samples from a
    #: bounded (``low``/``high``) spec; ignored for ``choices`` specs.
    steps: int = 5

    def __post_init__(self) -> None:
        if not isinstance(self.target, str) or not self.target:
            raise TuningError(
                f"parameter target must be a non-empty string, got {self.target!r}"
            )
        _parse_target(self.target)  # validate the path grammar eagerly
        if self.choices is not None:
            if self.low is not None or self.high is not None:
                raise TuningError(
                    f"parameter {self.target!r} must use either choices or "
                    f"low/high bounds, not both"
                )
            values = tuple(float(v) for v in self.choices)
            if len(values) < 1:
                raise TuningError(
                    f"parameter {self.target!r} needs at least one choice"
                )
            if not all(math.isfinite(v) for v in values):
                raise TuningError(
                    f"parameter {self.target!r} choices must be finite numbers, "
                    f"got {list(values)}"
                )
            object.__setattr__(self, "choices", values)
        else:
            if self.low is None or self.high is None:
                raise TuningError(
                    f"parameter {self.target!r} needs low and high bounds "
                    f"(or a choices list)"
                )
            object.__setattr__(self, "low", float(self.low))
            object.__setattr__(self, "high", float(self.high))
            if not (math.isfinite(self.low) and math.isfinite(self.high)):
                raise TuningError(
                    f"parameter {self.target!r} bounds must be finite numbers, "
                    f"got low={self.low}, high={self.high}"
                )
            if not self.low < self.high:
                raise TuningError(
                    f"parameter {self.target!r} bounds must satisfy "
                    f"low < high, got low={self.low}, high={self.high}"
                )
        if not isinstance(self.steps, int) or isinstance(self.steps, bool):
            raise TuningError(
                f"parameter {self.target!r} steps must be an int, got "
                f"{self.steps!r}"
            )
        if self.steps < 2:
            raise TuningError(
                f"parameter {self.target!r} steps must be >= 2, got {self.steps}"
            )

    def grid_values(self) -> tuple[float, ...]:
        """The discrete values the grid strategy enumerates for this spec."""
        if self.choices is not None:
            return self.choices
        return tuple(float(v) for v in np.linspace(self.low, self.high, self.steps))

    def bounds(self) -> tuple[float, float]:
        """(low, high) range the evolutionary strategy samples within."""
        if self.choices is not None:
            return (min(self.choices), max(self.choices))
        return (self.low, self.high)  # type: ignore[return-value]

    def to_dict(self) -> dict[str, Any]:
        if self.choices is not None:
            return {"target": self.target, "choices": list(self.choices)}
        return {
            "target": self.target,
            "low": self.low,
            "high": self.high,
            "steps": self.steps,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ParameterSpec":
        if not isinstance(payload, Mapping):
            raise TuningError(
                f"parameter spec must be a mapping, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - {"target", "low", "high", "choices", "steps"})
        if unknown:
            raise TuningError(f"unknown parameter spec fields: {unknown}")
        choices = payload.get("choices")
        return cls(
            target=payload.get("target", ""),
            low=payload.get("low"),
            high=payload.get("high"),
            choices=None if choices is None else tuple(choices),
            steps=payload.get("steps", 5),
        )


@dataclass(frozen=True)
class SearchSpace:
    """An ordered set of :class:`ParameterSpec` over one base definition."""

    specs: tuple[ParameterSpec, ...]

    def __post_init__(self) -> None:
        out = []
        for spec in self.specs:
            if isinstance(spec, ParameterSpec):
                out.append(spec)
            elif isinstance(spec, Mapping):
                out.append(ParameterSpec.from_dict(spec))
            else:
                raise TuningError(
                    f"each spec must be a ParameterSpec or mapping, got "
                    f"{type(spec).__name__}"
                )
        object.__setattr__(self, "specs", tuple(out))
        if not self.specs:
            raise TuningError("search space needs at least one parameter")
        targets = [spec.target for spec in self.specs]
        duplicates = sorted({t for t in targets if targets.count(t) > 1})
        if duplicates:
            raise TuningError(f"duplicate parameter targets: {duplicates}")

    def __len__(self) -> int:
        return len(self.specs)

    def targets(self) -> tuple[str, ...]:
        return tuple(spec.target for spec in self.specs)

    def validate_against(self, definition: FLCDefinition) -> None:
        """Check every target resolves inside ``definition`` (loudly)."""
        for spec in self.specs:
            _read_target(definition, spec.target)

    def apply(self, definition: FLCDefinition, values: Iterable[float]) -> FLCDefinition:
        """Substitute a value vector into ``definition`` (revalidating it)."""
        values = tuple(float(v) for v in values)
        if len(values) != len(self.specs):
            raise TuningError(
                f"value vector has {len(values)} entries for "
                f"{len(self.specs)} parameters"
            )
        for spec, value in zip(self.specs, values):
            definition = _write_target(definition, spec.target, value)
        return definition

    def baseline_values(self, definition: FLCDefinition) -> tuple[float, ...]:
        """The untouched (paper) value of every target, in spec order."""
        return tuple(_read_target(definition, spec.target) for spec in self.specs)

    def to_dict(self) -> list[dict[str, Any]]:
        return [spec.to_dict() for spec in self.specs]

    @classmethod
    def from_dict(cls, payload: Iterable[Mapping[str, Any]]) -> "SearchSpace":
        return cls(specs=tuple(payload))


# -- target path resolution ---------------------------------------------


def _parse_target(target: str) -> tuple[str, ...]:
    parts = tuple(target.split("."))
    if parts[0] == "mf":
        if len(parts) != 4:
            raise TuningError(
                f"membership target must be 'mf.<variable>.<term>.<index>', "
                f"got {target!r}"
            )
        if not parts[3].isdigit():
            raise TuningError(
                f"membership target index must be a non-negative integer, "
                f"got {target!r}"
            )
        return parts
    if parts[0] == "weight":
        if len(parts) != 2 or not parts[1]:
            raise TuningError(
                f"weight target must be 'weight.<rule label>', got {target!r}"
            )
        return parts
    raise TuningError(
        f"unknown target {target!r}; expected 'mf.<variable>.<term>.<index>' "
        f"or 'weight.<rule label>'"
    )


def _find_term(variable: VariableDef, name: str, target: str) -> TermDef:
    for term in variable.terms:
        if term.name == name:
            return term
    raise TuningError(
        f"target {target!r}: variable {variable.name!r} has no term {name!r}; "
        f"available: {list(variable.term_names())}"
    )


def _read_target(definition: FLCDefinition, target: str) -> float:
    parts = _parse_target(target)
    try:
        if parts[0] == "mf":
            variable = definition.variable(parts[1])
            term = _find_term(variable, parts[2], target)
            index = int(parts[3])
            params = term.membership.params
            if index >= len(params):
                raise TuningError(
                    f"target {target!r}: {term.membership.kind} membership "
                    f"has {len(params)} parameters"
                )
            return params[index]
        return definition.rule_by_label(parts[1]).weight
    except DefinitionError as exc:
        raise TuningError(f"target {target!r}: {exc}") from exc


def _write_target(
    definition: FLCDefinition, target: str, value: float
) -> FLCDefinition:
    parts = _parse_target(target)
    _read_target(definition, target)  # resolve (and bounds-check) first
    if parts[0] == "mf":
        variable = definition.variable(parts[1])
        term = _find_term(variable, parts[2], target)
        index = int(parts[3])
        params = list(term.membership.params)
        params[index] = value
        membership = MembershipDef(term.membership.kind, tuple(params))
        terms = tuple(
            TermDef(t.name, membership) if t.name == term.name else t
            for t in variable.terms
        )
        return definition.with_variable(replace(variable, terms=terms))
    rule = definition.rule_by_label(parts[1])
    return definition.with_rule(_reweighted(rule, value))


def _reweighted(rule: RuleDef, weight: float) -> RuleDef:
    try:
        return replace(rule, weight=weight)
    except DefinitionError as exc:
        raise TuningError(f"rule {rule.label!r}: {exc}") from exc
