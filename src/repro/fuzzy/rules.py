"""Fuzzy rules and rule bases.

Rules have the paper's form ``IF "conditions" THEN "control action"``:

    IF S is Sl AND A is B1 AND D is N THEN Cv is Cv3

A rule's antecedent is a conjunction: a tuple of :class:`Proposition`
``variable IS term`` whose degrees combine by their minimum.  Every row
of FRB1 and FRB2 (Tables 1 and 2 of the paper) has this form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .variables import LinguisticVariable

__all__ = [
    "Proposition",
    "Consequent",
    "FuzzyRule",
    "RuleBase",
]


@dataclass(frozen=True)
class Proposition:
    """Atomic antecedent ``variable IS term``."""

    variable: str
    term: str

    def degree(self, degrees: Mapping[str, Mapping[str, float]]) -> float:
        """This proposition's membership degree among fuzzified inputs.

        ``degrees`` maps variable name -> term name -> membership degree.
        """
        try:
            var_degrees = degrees[self.variable]
        except KeyError:
            raise KeyError(
                f"no fuzzified degrees supplied for variable {self.variable!r}"
            ) from None
        try:
            return float(var_degrees[self.term])
        except KeyError:
            raise KeyError(
                f"variable {self.variable!r} has no fuzzified term {self.term!r}"
            ) from None

    def __str__(self) -> str:
        return f"{self.variable} is {self.term}"


@dataclass(frozen=True)
class Consequent:
    """Rule consequent ``variable IS term``."""

    variable: str
    term: str

    def __str__(self) -> str:
        return f"{self.variable} is {self.term}"


@dataclass(frozen=True)
class FuzzyRule:
    """A single ``IF p1 AND p2 ... THEN consequent(s)`` rule.

    ``weight`` scales the firing strength (1.0 for all paper rules) and
    ``label`` carries the rule index so FRB1/FRB2 tables can be rendered and
    cross-checked against the paper.
    """

    antecedent: tuple[Proposition, ...]
    consequents: tuple[Consequent, ...]
    weight: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "antecedent", tuple(self.antecedent))
        if not self.antecedent:
            raise ValueError("a rule requires at least one proposition")
        if not self.consequents:
            raise ValueError("a rule requires at least one consequent")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"rule weight must lie in [0, 1], got {self.weight}")

    def firing_strength(self, degrees: Mapping[str, Mapping[str, float]]) -> float:
        """Weighted firing strength: the weight times the minimum of the
        antecedent's proposition degrees."""
        return self.weight * min(p.degree(degrees) for p in self.antecedent)

    def input_variables(self) -> set[str]:
        return {p.variable for p in self.antecedent}

    def output_variables(self) -> set[str]:
        return {c.variable for c in self.consequents}

    def __str__(self) -> str:
        conditions = " AND ".join(str(p) for p in self.antecedent)
        then = " AND ".join(str(c) for c in self.consequents)
        prefix = f"[{self.label}] " if self.label else ""
        return f"{prefix}IF {conditions} THEN {then}"


class RuleBase:
    """An ordered collection of fuzzy rules validated against variables.

    The rule base checks, at construction time, that every rule references
    only known variables and terms — the paper's FRB1 (42 rules) and FRB2
    (27 rules) are instances of this class.
    """

    def __init__(
        self,
        rules: Iterable[FuzzyRule],
        inputs: Sequence[LinguisticVariable],
        outputs: Sequence[LinguisticVariable],
        name: str = "rule-base",
    ):
        self._name = name
        self._inputs = {var.name: var for var in inputs}
        self._outputs = {var.name: var for var in outputs}
        if not self._inputs:
            raise ValueError("rule base requires at least one input variable")
        if not self._outputs:
            raise ValueError("rule base requires at least one output variable")
        overlap = set(self._inputs) & set(self._outputs)
        if overlap:
            raise ValueError(f"variables cannot be both input and output: {sorted(overlap)}")
        self._rules = list(rules)
        if not self._rules:
            raise ValueError(f"rule base {name!r} requires at least one rule")
        for rule in self._rules:
            if not isinstance(rule, FuzzyRule):
                raise TypeError(
                    f"rule base {name!r} takes FuzzyRule objects, got {rule!r}"
                )
            self._validate_rule(rule)

    def _validate_rule(self, rule: FuzzyRule) -> None:
        for prop in rule.antecedent:
            var = self._inputs.get(prop.variable)
            if var is None:
                raise ValueError(
                    f"rule {rule.label or rule} references unknown input "
                    f"variable {prop.variable!r}"
                )
            if prop.term not in var:
                raise ValueError(
                    f"rule {rule.label or rule} references unknown term "
                    f"{prop.term!r} of variable {prop.variable!r}"
                )
        for consequent in rule.consequents:
            var = self._outputs.get(consequent.variable)
            if var is None:
                raise ValueError(
                    f"rule {rule.label or rule} references unknown output "
                    f"variable {consequent.variable!r}"
                )
            if consequent.term not in var:
                raise ValueError(
                    f"rule {rule.label or rule} references unknown term "
                    f"{consequent.term!r} of output variable {consequent.variable!r}"
                )

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def rules(self) -> list[FuzzyRule]:
        return list(self._rules)

    @property
    def input_variables(self) -> dict[str, LinguisticVariable]:
        return dict(self._inputs)

    @property
    def output_variables(self) -> dict[str, LinguisticVariable]:
        return dict(self._outputs)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[FuzzyRule]:
        return iter(self._rules)

    def __getitem__(self, index: int) -> FuzzyRule:
        return self._rules[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RuleBase({self._name!r}, rules={len(self._rules)})"

    # ------------------------------------------------------------------
    def completeness_gaps(self) -> list[dict[str, str]]:
        """Return input-term combinations not covered by any rule.

        A rule covers a combination when it names one term of every input
        variable (as each row of FRB1 and FRB2 does).  A complete grid rule
        base returns ``[]``.
        """
        covered: set[tuple[tuple[str, str], ...]] = set()
        for rule in self._rules:
            key = tuple(sorted((p.variable, p.term) for p in rule.antecedent))
            if len({var for var, _ in key}) == len(self._inputs):
                covered.add(key)

        gaps: list[dict[str, str]] = []
        names = sorted(self._inputs)
        combos: list[dict[str, str]] = [{}]
        for name in names:
            combos = [
                {**combo, name: term}
                for combo in combos
                for term in self._inputs[name].term_names
            ]
        for combo in combos:
            key = tuple(sorted(combo.items()))
            if key not in covered:
                gaps.append(combo)
        return gaps

    def is_complete(self) -> bool:
        """True when every input-term combination is covered by a rule."""
        return not self.completeness_gaps()
