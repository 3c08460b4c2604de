"""Declarative fuzzy-controller definitions.

A :class:`FLCDefinition` is a frozen, validated *data description* of a
complete Mamdani controller — linguistic variables with their membership
function parameter vectors, a weighted rule list and a defuzzifier choice.
It is built entirely from primitives and tuples, so definitions are
hashable (usable as ``lru_cache`` keys), picklable (shippable to worker
processes) and losslessly serializable to plain JSON dicts.

Two directions are supported:

``FLCDefinition.build_controller``
    compiles the definition into a live
    :class:`~repro.fuzzy.controller.FuzzyController` on the existing
    ``RuleBase``/``CompiledMamdaniEngine`` path, with the defuzzifier the
    definition names.  It is how FACS builds both of its stages: the
    paper's FLC1/FLC2 are definitions too
    (:mod:`repro.cac.facs.definitions`).

``definition_from_rule_base`` / ``definition_from_controller``
    extract a definition from an existing rule base or controller.  The
    extraction is lossless: the exact float break points, rule order,
    weights and resolution round trip untouched, so the extracted
    definition rebuilds a *bit-identical* control surface.

This module sits at the bottom of the dependency stack: it only imports
other ``repro.fuzzy`` modules.  The schema-versioned JSON codecs live in
:mod:`repro.analysis.io` (``flc_definition_to_dict`` and friends), which
is downstream of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

from .controller import FuzzyController
from .defuzzification import defuzzifier_by_name
from .membership import MembershipFunction, Trapezoidal, Triangular
from .rules import Consequent, FuzzyRule, Proposition, RuleBase
from .variables import LinguisticVariable, Term

__all__ = [
    "DefinitionError",
    "MembershipDef",
    "TermDef",
    "VariableDef",
    "RuleDef",
    "FLCDefinition",
    "definition_from_rule_base",
    "definition_from_controller",
]


class DefinitionError(ValueError):
    """A controller definition is malformed or internally inconsistent."""


#: Membership-function kinds a definition can carry, mapped to the number
#: of shape parameters each expects.  Only the shapes the paper's
#: controllers use are serializable; other MF classes raise loudly on
#: extraction instead of degrading silently.
MF_PARAM_COUNTS: Mapping[str, int] = {"triangular": 3, "trapezoidal": 4}


def _float_tuple(values: Iterable[Any], what: str) -> tuple[float, ...]:
    out = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DefinitionError(f"{what} must be numbers, got {value!r}")
        if not math.isfinite(value):
            raise DefinitionError(f"{what} must be finite numbers, got {value!r}")
        out.append(float(value))
    return tuple(out)


@dataclass(frozen=True)
class MembershipDef:
    """Shape + parameter vector of one membership function."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in MF_PARAM_COUNTS:
            raise DefinitionError(
                f"unknown membership kind {self.kind!r}; "
                f"supported: {sorted(MF_PARAM_COUNTS)}"
            )
        object.__setattr__(
            self, "params", _float_tuple(self.params, f"{self.kind} parameters")
        )
        expected = MF_PARAM_COUNTS[self.kind]
        if len(self.params) != expected:
            raise DefinitionError(
                f"{self.kind} membership takes {expected} parameters, "
                f"got {len(self.params)}: {list(self.params)}"
            )

    def build(self, *, variable: str = "?", term: str = "?") -> MembershipFunction:
        """The live membership function, with contextual validation errors.

        A non-monotonic or out-of-range parameter vector reports *which*
        variable and term carries it plus the offending values, instead of
        the bare break-point message the shape classes raise on their own.
        """
        try:
            if self.kind == "triangular":
                return Triangular(*self.params)
            return Trapezoidal(*self.params)
        except ValueError as exc:
            raise DefinitionError(
                f"invalid {self.kind} membership for term {term!r} of "
                f"variable {variable!r}: params={list(self.params)}: {exc}"
            ) from exc

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": list(self.params)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MembershipDef":
        _check_keys(payload, {"kind", "params"}, "membership")
        return cls(kind=payload.get("kind", ""), params=tuple(payload.get("params", ())))


@dataclass(frozen=True)
class TermDef:
    """A named linguistic term and its membership definition."""

    name: str
    membership: MembershipDef

    def __post_init__(self) -> None:
        _check_name(self.name, "term name")
        if isinstance(self.membership, Mapping):
            object.__setattr__(
                self, "membership", MembershipDef.from_dict(self.membership)
            )
        if not isinstance(self.membership, MembershipDef):
            raise DefinitionError(
                f"term {self.name!r} membership must be a MembershipDef, "
                f"got {type(self.membership).__name__}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "membership": self.membership.to_dict()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TermDef":
        _check_keys(payload, {"name", "membership"}, "term")
        return cls(name=payload.get("name", ""), membership=payload.get("membership", {}))


@dataclass(frozen=True)
class VariableDef:
    """A linguistic variable: universe, resolution and its term family."""

    name: str
    universe: tuple[float, float]
    terms: tuple[TermDef, ...]
    resolution: int = 501

    def __post_init__(self) -> None:
        _check_name(self.name, "variable name")
        universe = _float_tuple(self.universe, f"variable {self.name!r} universe")
        if len(universe) != 2 or not universe[0] < universe[1]:
            raise DefinitionError(
                f"variable {self.name!r} universe must be (low, high) with "
                f"low < high, got {list(universe)}"
            )
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "terms", _coerce_tuple(self.terms, TermDef, "term"))
        if not self.terms:
            raise DefinitionError(f"variable {self.name!r} has no terms")
        seen: set[str] = set()
        for term in self.terms:
            if term.name in seen:
                raise DefinitionError(
                    f"variable {self.name!r} has duplicate term {term.name!r}"
                )
            seen.add(term.name)
        if not isinstance(self.resolution, int) or isinstance(self.resolution, bool):
            raise DefinitionError(
                f"variable {self.name!r} resolution must be an int, "
                f"got {self.resolution!r}"
            )
        if self.resolution < 3:
            raise DefinitionError(
                f"variable {self.name!r} resolution must be at least 3, got {self.resolution}"
            )
        # Build each membership function once now so a bad parameter vector
        # fails at definition time, naming the variable and term.
        for term in self.terms:
            term.membership.build(variable=self.name, term=term.name)

    def term_names(self) -> tuple[str, ...]:
        return tuple(term.name for term in self.terms)

    def build(self) -> LinguisticVariable:
        """The live :class:`LinguisticVariable` this definition describes."""
        terms = [
            Term(term.name, term.membership.build(variable=self.name, term=term.name))
            for term in self.terms
        ]
        try:
            return LinguisticVariable(
                self.name, self.universe, terms, resolution=self.resolution
            )
        except ValueError as exc:
            raise DefinitionError(f"variable {self.name!r}: {exc}") from exc

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "universe": list(self.universe),
            "resolution": self.resolution,
            "terms": [term.to_dict() for term in self.terms],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "VariableDef":
        _check_keys(payload, {"name", "universe", "resolution", "terms"}, "variable")
        return cls(
            name=payload.get("name", ""),
            universe=tuple(payload.get("universe", ())),
            terms=tuple(payload.get("terms", ())),
            resolution=payload.get("resolution", 501),
        )


@dataclass(frozen=True)
class RuleDef:
    """One conjunctive rule: (variable, term) pairs in, consequents out."""

    antecedent: tuple[tuple[str, str], ...]
    consequents: tuple[tuple[str, str], ...]
    weight: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "antecedent", _pair_tuple(self.antecedent, "antecedent")
        )
        object.__setattr__(
            self, "consequents", _pair_tuple(self.consequents, "consequent")
        )
        if not self.antecedent:
            raise DefinitionError(f"rule {self.label!r} has an empty antecedent")
        if not self.consequents:
            raise DefinitionError(f"rule {self.label!r} has no consequents")
        if isinstance(self.weight, bool) or not isinstance(self.weight, (int, float)):
            raise DefinitionError(
                f"rule {self.label!r} weight must be a number, got {self.weight!r}"
            )
        object.__setattr__(self, "weight", float(self.weight))
        if not 0.0 <= self.weight <= 1.0:
            raise DefinitionError(
                f"rule {self.label!r} weight must lie in [0, 1], got {self.weight}"
            )
        if not isinstance(self.label, str):
            raise DefinitionError(f"rule label must be a string, got {self.label!r}")

    def build(self) -> FuzzyRule:
        """The live :class:`FuzzyRule`, one proposition per antecedent pair."""
        return FuzzyRule(
            antecedent=tuple(Proposition(var, term) for var, term in self.antecedent),
            consequents=tuple(Consequent(var, term) for var, term in self.consequents),
            weight=self.weight,
            label=self.label,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "if": [list(pair) for pair in self.antecedent],
            "then": [list(pair) for pair in self.consequents],
            "weight": self.weight,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RuleDef":
        _check_keys(payload, {"if", "then", "weight", "label"}, "rule")
        return cls(
            antecedent=tuple(tuple(pair) for pair in payload.get("if", ())),
            consequents=tuple(tuple(pair) for pair in payload.get("then", ())),
            weight=payload.get("weight", 1.0),
            label=payload.get("label", ""),
        )


@dataclass(frozen=True)
class FLCDefinition:
    """A complete, self-validating fuzzy logic controller description."""

    name: str
    inputs: tuple[VariableDef, ...]
    outputs: tuple[VariableDef, ...]
    rules: tuple[RuleDef, ...]
    defuzzifier: str = "centroid"

    def __post_init__(self) -> None:
        _check_name(self.name, "controller name")
        object.__setattr__(
            self, "inputs", _coerce_tuple(self.inputs, VariableDef, "input variable")
        )
        object.__setattr__(
            self, "outputs", _coerce_tuple(self.outputs, VariableDef, "output variable")
        )
        object.__setattr__(self, "rules", _coerce_tuple(self.rules, RuleDef, "rule"))
        if not self.inputs:
            raise DefinitionError(f"controller {self.name!r} has no input variables")
        if not self.outputs:
            raise DefinitionError(f"controller {self.name!r} has no output variables")
        if not self.rules:
            raise DefinitionError(f"controller {self.name!r} has no rules")
        names: set[str] = set()
        for variable in (*self.inputs, *self.outputs):
            if variable.name in names:
                raise DefinitionError(
                    f"controller {self.name!r} declares variable "
                    f"{variable.name!r} twice"
                )
            names.add(variable.name)
        if not isinstance(self.defuzzifier, str):
            raise DefinitionError(
                f"defuzzifier must be a name string, got {self.defuzzifier!r}"
            )
        try:
            defuzzifier_by_name(self.defuzzifier)
        except KeyError as exc:
            raise DefinitionError(str(exc)) from exc
        labels = [rule.label for rule in self.rules if rule.label]
        for label in labels:
            if labels.count(label) > 1:
                raise DefinitionError(
                    f"controller {self.name!r} has two rules labelled {label!r}"
                )
        inputs = {v.name: set(v.term_names()) for v in self.inputs}
        outputs = {v.name: set(v.term_names()) for v in self.outputs}
        for rule in self.rules:
            for var, term in rule.antecedent:
                if var not in inputs:
                    raise DefinitionError(
                        f"rule {rule.label!r} refers to unknown input "
                        f"variable {var!r}"
                    )
                if term not in inputs[var]:
                    raise DefinitionError(
                        f"rule {rule.label!r} refers to unknown term {term!r} "
                        f"of input variable {var!r}"
                    )
            for var, term in rule.consequents:
                if var not in outputs:
                    raise DefinitionError(
                        f"rule {rule.label!r} refers to unknown output "
                        f"variable {var!r}"
                    )
                if term not in outputs[var]:
                    raise DefinitionError(
                        f"rule {rule.label!r} refers to unknown term {term!r} "
                        f"of output variable {var!r}"
                    )

    # -- structure views -------------------------------------------------

    def input_names(self) -> tuple[str, ...]:
        return tuple(variable.name for variable in self.inputs)

    def output_names(self) -> tuple[str, ...]:
        return tuple(variable.name for variable in self.outputs)

    def variable(self, name: str) -> VariableDef:
        for variable in (*self.inputs, *self.outputs):
            if variable.name == name:
                return variable
        raise DefinitionError(
            f"controller {self.name!r} has no variable {name!r}; "
            f"available: {sorted(self.input_names() + self.output_names())}"
        )

    def rule_by_label(self, label: str) -> RuleDef:
        for rule in self.rules:
            if rule.label == label:
                return rule
        raise DefinitionError(
            f"controller {self.name!r} has no rule labelled {label!r}"
        )

    def with_variable(self, variable: VariableDef) -> "FLCDefinition":
        """A copy with the same-named variable replaced."""
        found = False

        def swap(variables: tuple[VariableDef, ...]) -> tuple[VariableDef, ...]:
            nonlocal found
            out = []
            for existing in variables:
                if existing.name == variable.name:
                    found = True
                    out.append(variable)
                else:
                    out.append(existing)
            return tuple(out)

        updated = replace(
            self, inputs=swap(self.inputs), outputs=swap(self.outputs)
        )
        if not found:
            raise DefinitionError(
                f"controller {self.name!r} has no variable {variable.name!r}"
            )
        return updated

    def with_rule(self, rule: RuleDef) -> "FLCDefinition":
        """A copy with the same-labelled rule replaced."""
        if not rule.label:
            raise DefinitionError("with_rule needs a labelled rule")
        self.rule_by_label(rule.label)
        return replace(
            self,
            rules=tuple(
                rule if existing.label == rule.label else existing
                for existing in self.rules
            ),
        )

    # -- compilation -----------------------------------------------------

    def build_controller(self) -> FuzzyController:
        """Compile into a live :class:`FuzzyController`."""
        return FuzzyController(
            name=self.name,
            inputs=[variable.build() for variable in self.inputs],
            outputs=[variable.build() for variable in self.outputs],
            rules=[rule.build() for rule in self.rules],
            defuzzifier=defuzzifier_by_name(self.defuzzifier),
        )

    # -- codecs ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON dict (schema stamping lives in :mod:`repro.analysis.io`)."""
        return {
            "name": self.name,
            "defuzzifier": self.defuzzifier,
            "inputs": [variable.to_dict() for variable in self.inputs],
            "outputs": [variable.to_dict() for variable in self.outputs],
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FLCDefinition":
        if not isinstance(payload, Mapping):
            raise DefinitionError(
                f"controller definition must be a mapping, got "
                f"{type(payload).__name__}"
            )
        _check_keys(
            payload,
            {"name", "defuzzifier", "inputs", "outputs", "rules"},
            "controller definition",
        )
        return cls(
            name=payload.get("name", ""),
            inputs=tuple(payload.get("inputs", ())),
            outputs=tuple(payload.get("outputs", ())),
            rules=tuple(payload.get("rules", ())),
            defuzzifier=payload.get("defuzzifier", "centroid"),
        )


# -- extraction ---------------------------------------------------------


def _membership_def(mf: MembershipFunction, variable: str, term: str) -> MembershipDef:
    if isinstance(mf, Triangular):
        return MembershipDef("triangular", (mf.a, mf.b, mf.c))
    if isinstance(mf, Trapezoidal):
        return MembershipDef("trapezoidal", (mf.a, mf.b, mf.c, mf.d))
    raise DefinitionError(
        f"term {term!r} of variable {variable!r} uses a "
        f"{type(mf).__name__} membership, which has no serializable "
        f"definition (supported: triangular, trapezoidal)"
    )


def _variable_def(variable: LinguisticVariable) -> VariableDef:
    return VariableDef(
        name=variable.name,
        universe=variable.universe,
        terms=tuple(
            TermDef(term.name, _membership_def(term.membership, variable.name, term.name))
            for term in variable
        ),
        resolution=variable.resolution,
    )


def _rule_def(rule: FuzzyRule) -> RuleDef:
    return RuleDef(
        antecedent=tuple((p.variable, p.term) for p in rule.antecedent),
        consequents=tuple((c.variable, c.term) for c in rule.consequents),
        weight=rule.weight,
        label=rule.label,
    )


def definition_from_rule_base(
    rule_base: RuleBase, name: str, defuzzifier: str = "centroid"
) -> FLCDefinition:
    """Extract a lossless definition from a live :class:`RuleBase`.

    Break points, universes, resolutions, rule order, weights and labels
    are copied exactly, so ``definition.build_controller()`` reproduces a
    bit-identical control surface.
    """
    return FLCDefinition(
        name=name,
        inputs=tuple(
            _variable_def(v) for v in rule_base.input_variables.values()
        ),
        outputs=tuple(
            _variable_def(v) for v in rule_base.output_variables.values()
        ),
        rules=tuple(_rule_def(rule) for rule in rule_base.rules),
        defuzzifier=defuzzifier,
    )


def definition_from_controller(
    controller: FuzzyController, defuzzifier: str = "centroid"
) -> FLCDefinition:
    """Extract a lossless definition from a live :class:`FuzzyController`."""
    return definition_from_rule_base(
        controller.rule_base, controller.name, defuzzifier=defuzzifier
    )


# -- helpers ------------------------------------------------------------


def _check_name(name: Any, what: str) -> None:
    if not isinstance(name, str) or not name:
        raise DefinitionError(f"{what} must be a non-empty string, got {name!r}")


def _pair_tuple(pairs: Any, what: str) -> tuple[tuple[str, str], ...]:
    out = []
    for pair in pairs:
        items = tuple(pair)
        if len(items) != 2 or not all(isinstance(p, str) and p for p in items):
            raise DefinitionError(
                f"each {what} entry must be a (variable, term) pair of "
                f"non-empty strings, got {pair!r}"
            )
        out.append(items)
    return tuple(out)


def _check_keys(payload: Mapping[str, Any], allowed: set[str], what: str) -> None:
    if not isinstance(payload, Mapping):
        raise DefinitionError(f"{what} must be a mapping, got {type(payload).__name__}")
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise DefinitionError(f"unknown {what} fields: {unknown}")


def _coerce_tuple(values: Any, cls: type, what: str) -> tuple:
    out = []
    for value in values:
        if isinstance(value, cls):
            out.append(value)
        elif isinstance(value, Mapping):
            out.append(cls.from_dict(value))
        else:
            raise DefinitionError(
                f"each {what} must be a {cls.__name__} or mapping, "
                f"got {type(value).__name__}"
            )
    return tuple(out)
