"""Tests for propositions, conjunctive rules and rule bases."""

from __future__ import annotations

import pytest

from repro.fuzzy.membership import Triangular
from repro.fuzzy.rules import Consequent, FuzzyRule, Proposition, RuleBase
from repro.fuzzy.variables import LinguisticVariable, Term


def rule(*pairs: tuple[str, str], then: tuple[str, str], label: str = "") -> FuzzyRule:
    """``IF v1 is t1 AND ... THEN then[0] is then[1]``."""
    return FuzzyRule(
        tuple(Proposition(variable, term) for variable, term in pairs),
        (Consequent(*then),),
        label=label,
    )


def temp_var(name: str, terms: list[str]) -> LinguisticVariable:
    step = 1.0 / max(len(terms) - 1, 1)
    built = []
    for index, term in enumerate(terms):
        center = index * step
        shape = Triangular(max(center - step, 0.0), center, min(center + step, 1.0))
        built.append(Term(term, shape))
    return LinguisticVariable(name, (0.0, 1.0), built, resolution=101)


@pytest.fixture
def degrees():
    return {
        "temp": {"cold": 0.2, "hot": 0.7},
        "load": {"low": 0.9, "high": 0.1},
    }


class TestPropositions:
    def test_atomic_firing_strength(self, degrees):
        assert Proposition("temp", "hot").degree(degrees) == 0.7
        assert rule(("temp", "hot"), then=("fan", "fast")).firing_strength(degrees) == 0.7

    def test_missing_variable_raises(self, degrees):
        with pytest.raises(KeyError):
            Proposition("humidity", "x").degree(degrees)

    def test_missing_term_raises(self, degrees):
        with pytest.raises(KeyError):
            Proposition("temp", "warm").degree(degrees)

    def test_and_uses_tnorm(self, degrees):
        conjunction = rule(("temp", "hot"), ("load", "low"), then=("fan", "fast"))
        assert conjunction.firing_strength(degrees) == 0.7

    def test_variables_collection(self):
        conjunction = rule(("a", "x"), ("b", "y"), ("a", "z"), then=("out", "big"))
        assert conjunction.input_variables() == {"a", "b"}


class TestFuzzyRule:
    def test_weighted_firing_strength(self, degrees):
        weighted = FuzzyRule(
            (Proposition("temp", "hot"),), (Consequent("fan", "fast"),), weight=0.5
        )
        assert weighted.firing_strength(degrees) == pytest.approx(0.35)

    def test_requires_consequent(self):
        with pytest.raises(ValueError):
            FuzzyRule((Proposition("a", "b"),), ())

    def test_requires_a_proposition(self):
        with pytest.raises(ValueError, match="proposition"):
            FuzzyRule((), (Consequent("c", "d"),))

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            FuzzyRule((Proposition("a", "b"),), (Consequent("c", "d"),), weight=1.5)

    def test_str_rendering(self):
        text = str(rule(("temp", "hot"), ("load", "low"), then=("fan", "fast"), label="3"))
        assert text == "[3] IF temp is hot AND load is low THEN fan is fast"

    def test_io_variable_sets(self):
        atomic = rule(("temp", "hot"), then=("fan", "fast"))
        assert atomic.input_variables() == {"temp"}
        assert atomic.output_variables() == {"fan"}


class TestRuleBase:
    def setup_method(self):
        self.temp = temp_var("temp", ["cold", "hot"])
        self.load = temp_var("load", ["low", "high"])
        self.fan = temp_var("fan", ["slow", "fast"])

    def make(self, rules):
        return RuleBase(rules, [self.temp, self.load], [self.fan])

    def test_valid_rule_base(self):
        rules = [
            rule(("temp", "cold"), ("load", "low"), then=("fan", "slow")),
            rule(("temp", "cold"), ("load", "high"), then=("fan", "slow")),
            rule(("temp", "hot"), ("load", "low"), then=("fan", "fast")),
            rule(("temp", "hot"), ("load", "high"), then=("fan", "fast")),
        ]
        base = self.make(rules)
        assert len(base) == 4
        assert base.is_complete()

    def test_incomplete_rule_base_reports_gaps(self):
        base = self.make([rule(("temp", "cold"), ("load", "low"), then=("fan", "slow"))])
        gaps = base.completeness_gaps()
        assert not base.is_complete()
        assert {"temp": "hot", "load": "high"} in gaps
        assert len(gaps) == 3

    def test_unknown_input_variable_rejected(self):
        with pytest.raises(ValueError, match="unknown input"):
            self.make([rule(("humidity", "low"), then=("fan", "slow"))])

    def test_unknown_input_term_rejected(self):
        with pytest.raises(ValueError, match="unknown term"):
            self.make([rule(("temp", "lukewarm"), then=("fan", "slow"))])

    def test_unknown_output_variable_rejected(self):
        with pytest.raises(ValueError, match="unknown output"):
            self.make([rule(("temp", "cold"), then=("heater", "on"))])

    def test_unknown_output_term_rejected(self):
        with pytest.raises(ValueError, match="unknown term"):
            self.make([rule(("temp", "cold"), then=("fan", "turbo"))])

    def test_empty_rules_rejected(self):
        with pytest.raises(ValueError):
            self.make([])

    def test_variable_cannot_be_input_and_output(self):
        with pytest.raises(ValueError):
            RuleBase([rule(("temp", "cold"), then=("temp", "hot"))], [self.temp], [self.temp])

    def test_indexing_and_iteration(self):
        base = self.make(
            [
                rule(("temp", "cold"), then=("fan", "slow")),
                rule(("temp", "hot"), then=("fan", "fast")),
            ]
        )
        assert base[0].consequents[0].term == "slow"
        assert len(list(base)) == 2
