"""MIN conjunction, CLIP implication and MAX aggregation.

These are the paper's Mamdani operators and the only ones the engines run:
a rule fires at its weight times the minimum of its proposition degrees,
each consequent term is clipped at that strength, and an output's clipped
terms combine by their element-wise maximum.  The tests state each step as
an oracle, first on :meth:`FuzzyRule.firing_strength` alone and then over
FLC1 and FLC2, where both engines, on the scalar and the batch paths, must
meet it bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cac.facs.definitions import flc1_definition, flc2_definition
from repro.fuzzy.compiled import CompiledMamdaniEngine
from repro.fuzzy.defuzzification import Centroid
from repro.fuzzy.inference import MamdaniEngine
from repro.fuzzy.rules import Consequent, FuzzyRule, Proposition, RuleBase

degree = st.floats(min_value=0.0, max_value=1.0)
degree_lists = st.lists(degree, min_size=1, max_size=4)


def conjunction(count: int, weight: float = 1.0) -> FuzzyRule:
    """``IF x0 is t AND ... AND x{count-1} is t THEN y is t``."""
    return FuzzyRule(
        tuple(Proposition(f"x{i}", "t") for i in range(count)),
        (Consequent("y", "t"),),
        weight=weight,
    )


def degrees_of(values: list[float]) -> dict[str, dict[str, float]]:
    return {f"x{i}": {"t": value} for i, value in enumerate(values)}


class TestMinConjunction:
    @given(values=degree_lists, data=st.data())
    def test_commutativity(self, values, data):
        rule = conjunction(len(values))
        order = data.draw(st.permutations(range(len(values))))
        permuted = FuzzyRule(tuple(rule.antecedent[i] for i in order), rule.consequents)
        degrees = degrees_of(values)
        assert permuted.firing_strength(degrees) == rule.firing_strength(degrees)

    @given(values=degree_lists)
    def test_selects_the_smallest_degree(self, values):
        strength = conjunction(len(values)).firing_strength(degrees_of(values))
        assert strength in values
        assert all(strength <= value for value in values)

    @given(values=degree_lists)
    def test_identity_element_one(self, values):
        strength = conjunction(len(values)).firing_strength(degrees_of(values))
        extended = conjunction(len(values) + 1)
        assert extended.firing_strength(degrees_of([*values, 1.0])) == strength

    @given(values=degree_lists, data=st.data())
    def test_zero_annihilates(self, values, data):
        position = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
        values[position] = 0.0
        assert conjunction(len(values)).firing_strength(degrees_of(values)) == 0.0

    @given(values=degree_lists, raised=degree, data=st.data())
    def test_monotone_in_every_degree(self, values, raised, data):
        position = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
        higher = list(values)
        higher[position] = max(values[position], raised)
        rule = conjunction(len(values))
        assert rule.firing_strength(degrees_of(higher)) >= rule.firing_strength(degrees_of(values))

    @given(values=degree_lists, weight=degree)
    def test_weight_scales_the_minimum(self, values, weight):
        strength = conjunction(len(values), weight).firing_strength(degrees_of(values))
        assert strength == weight * min(values)


# ----------------------------------------------------------------------
# FLC1 and FLC2 against the oracle, on both engines
# ----------------------------------------------------------------------
PAPER = {"FLC1": flc1_definition(), "FLC2": flc2_definition()}
VARIABLES = {
    name: ([v.build() for v in paper.inputs], [v.build() for v in paper.outputs])
    for name, paper in PAPER.items()
}
RULES = {name: tuple(rule.build() for rule in paper.rules) for name, paper in PAPER.items()}
ENGINE_CLASSES = {"reference": MamdaniEngine, "compiled": CompiledMamdaniEngine}
CONTROLLERS = pytest.mark.parametrize("controller", sorted(VARIABLES))
ENGINES = pytest.mark.parametrize("kind", sorted(ENGINE_CLASSES))


def rule_base(controller: str, rules=None) -> RuleBase:
    inputs, outputs = VARIABLES[controller]
    chosen = RULES[controller] if rules is None else rules
    return RuleBase(chosen, inputs, outputs, name=controller)


def engine_for(controller: str, kind: str, rules=None) -> MamdaniEngine:
    return ENGINE_CLASSES[kind](rule_base(controller, rules))


def oracle_strengths(base: RuleBase, inputs: dict[str, float]) -> list[float]:
    """Each rule's weight times the minimum of its fuzzified propositions."""
    degrees = {
        name: variable.fuzzify(float(inputs[name])).degrees
        for name, variable in base.input_variables.items()
    }
    return [
        rule.weight * min(degrees[p.variable][p.term] for p in rule.antecedent)
        for rule in base
    ]


def oracle_surface(base: RuleBase, inputs: dict[str, float], output: str) -> np.ndarray:
    """MAX over every rule of its consequent term CLIPped at its strength."""
    variable = base.output_variables[output]
    surface = np.zeros(variable.resolution)
    for rule, strength in zip(base, oracle_strengths(base, inputs)):
        for consequent in rule.consequents:
            if consequent.variable == output:
                clipped = np.minimum(variable.sample_term(consequent.term), strength)
                surface = np.maximum(surface, clipped)
    return surface


@st.composite
def crisp_inputs(draw, controller: str) -> dict[str, float]:
    inputs, _ = VARIABLES[controller]
    return {variable.name: draw(st.floats(*variable.universe)) for variable in inputs}


def input_rows(controller: str, count: int, seed: int) -> dict[str, np.ndarray]:
    """``count`` rows spread over every input universe, edges included."""
    rng = np.random.default_rng(seed)
    inputs, _ = VARIABLES[controller]
    columns = {}
    for variable in inputs:
        low, high = variable.universe
        column = rng.uniform(low, high, count)
        column[:2] = (low, high)
        columns[variable.name] = column
    return columns


class TestEngineStrengths:
    @CONTROLLERS
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_engines_fire_every_rule_at_its_minimum(self, controller, data):
        inputs = data.draw(crisp_inputs(controller))
        base = rule_base(controller)
        expected = oracle_strengths(base, inputs)
        for kind in ENGINE_CLASSES:
            result = engine_for(controller, kind).infer(inputs)
            assert [a.firing_strength for a in result.activations] == expected


class TestClipAndMaxAggregation:
    @CONTROLLERS
    @ENGINES
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_aggregated_surface_is_the_max_of_clipped_consequents(self, controller, kind, data):
        inputs = data.draw(crisp_inputs(controller))
        base = rule_base(controller)
        result = engine_for(controller, kind).infer(inputs)
        for name, variable in base.output_variables.items():
            surface = oracle_surface(base, inputs, name)
            np.testing.assert_array_equal(result.aggregated[name], surface)
            assert result.outputs[name] == Centroid()(variable.grid, surface)

    @CONTROLLERS
    @ENGINES
    def test_batch_rows_defuzzify_the_oracle_surface(self, controller, kind):
        base = rule_base(controller)
        columns = input_rows(controller, 48, seed=30)
        batch = engine_for(controller, kind).infer_batch(columns)
        for i in range(len(batch)):
            row = {name: float(column[i]) for name, column in columns.items()}
            for name, variable in base.output_variables.items():
                expected = Centroid()(variable.grid, oracle_surface(base, row, name))
                assert batch.outputs[name][i] == expected
            assert batch.dominant_indices[i] == int(np.argmax(oracle_strengths(base, row)))

    @CONTROLLERS
    @ENGINES
    def test_repeating_every_rule_changes_nothing(self, controller, kind):
        """MAX is idempotent: a rule base listed twice infers the same."""
        columns = input_rows(controller, 32, seed=31)
        single = engine_for(controller, kind)
        doubled = engine_for(controller, kind, RULES[controller] * 2)
        once, twice = single.infer_batch(columns), doubled.infer_batch(columns)
        for name in once.outputs:
            np.testing.assert_array_equal(twice.outputs[name], once.outputs[name])
        np.testing.assert_array_equal(twice.dominant_indices, once.dominant_indices)
        row = {name: float(column[5]) for name, column in columns.items()}
        assert doubled.infer(row).outputs == single.infer(row).outputs

    @CONTROLLERS
    @ENGINES
    def test_a_zero_weight_rule_changes_nothing(self, controller, kind):
        """A zero strength clips its term to zero, the identity of MAX."""
        base = rule_base(controller)
        (output,) = base.output_variables.values()
        first = RULES[controller][0]
        silent = tuple(
            FuzzyRule(first.antecedent, (Consequent(output.name, term),), weight=0.0)
            for term in output.term_names
        )
        columns = input_rows(controller, 32, seed=32)
        plain = engine_for(controller, kind).infer_batch(columns)
        padded = engine_for(controller, kind, silent + RULES[controller]).infer_batch(columns)
        np.testing.assert_array_equal(padded.outputs[output.name], plain.outputs[output.name])
        np.testing.assert_array_equal(padded.dominant_indices, plain.dominant_indices + len(silent))
