"""The compiled engine answers what the interpreted one does: one property.

Random :class:`FLCDefinition` s — triangular and trapezoidal terms, one to
four weighted rules of one to three propositions, every defuzzifier — are
built into controllers, and for inputs inside and outside the universes the
compiled scalar path, the compiled batch path on a one-row batch and the
interpreted reference engine over the same rule base must return the same
float, or all raise :class:`DefuzzificationError`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzy.defuzzification import DefuzzificationError
from repro.fuzzy.definition import (
    FLCDefinition,
    MembershipDef,
    RuleDef,
    TermDef,
    VariableDef,
)
from tests.fuzzy.reference_engine import reference_compute

DEFUZZIFIERS = ("centroid", "bisector", "mom", "som", "lom", "weighted_average")

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def outcomes(definition: FLCDefinition, inputs: dict[str, float]) -> list[object]:
    """Each path's crisp output, or ``"raised"`` where it raises."""
    compiled = definition.build_controller()
    rows = {name: np.array([value]) for name, value in inputs.items()}
    paths = (
        lambda: compiled.compute(**inputs),
        lambda: float(compiled.compute_batch(**rows)[0]),
        lambda: reference_compute(compiled, **inputs),
    )
    results: list[object] = []
    for path in paths:
        try:
            results.append(path())
        except DefuzzificationError:
            results.append("raised")
    return results


@st.composite
def variables(draw, name: str) -> VariableDef:
    low = draw(st.floats(min_value=-100.0, max_value=100.0))
    span = draw(st.floats(min_value=1e-3, max_value=500.0))
    # Break points reach past the universe on both sides, so terms may be
    # cut off by it or lie wholly between two grid points.
    point = st.floats(min_value=-0.25, max_value=1.25).map(lambda u: low + span * u)
    terms = []
    for term in draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True)):
        kind = draw(st.sampled_from(("triangular", "trapezoidal")))
        count = 3 if kind == "triangular" else 4
        params = sorted(draw(st.lists(point, min_size=count, max_size=count)))
        terms.append(TermDef(term, MembershipDef(kind, tuple(params))))
    return VariableDef(
        name=name,
        universe=(low, low + span),
        terms=tuple(terms),
        resolution=draw(st.integers(min_value=3, max_value=64)),
    )


@st.composite
def definitions(draw) -> FLCDefinition:
    inputs = tuple(draw(variables(name)) for name in ("x1", "x2")[: draw(st.integers(1, 2))])
    output = draw(variables("y"))
    rules = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        # An antecedent may name one input twice ("x1 is a AND x1 is b").
        named = draw(st.lists(st.sampled_from(inputs), min_size=1, max_size=3))
        rules.append(
            RuleDef(
                antecedent=tuple(
                    (var.name, draw(st.sampled_from(var.term_names()))) for var in named
                ),
                consequents=(("y", draw(st.sampled_from(output.term_names()))),),
                weight=draw(unit),
                label=str(index),
            )
        )
    return FLCDefinition(
        name="random",
        inputs=inputs,
        outputs=(output,),
        rules=tuple(rules),
        defuzzifier=draw(st.sampled_from(DEFUZZIFIERS)),
    )


@st.composite
def cases(draw) -> tuple[FLCDefinition, dict[str, float]]:
    definition = draw(definitions())
    inputs = {}
    for variable in definition.inputs:
        low, high = variable.universe
        u = draw(st.floats(min_value=-0.5, max_value=1.5))
        inputs[variable.name] = low + (high - low) * u
    return definition, inputs


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_engines_agree_on_every_definition(case):
    definition, inputs = case
    compiled, batch, reference = outcomes(definition, inputs)
    assert compiled == batch == reference


def _one_input(output: VariableDef, rules: tuple[RuleDef, ...], defuzzifier: str):
    x = VariableDef(
        name="x",
        universe=(0.0, 10.0),
        terms=(
            TermDef("lo", MembershipDef("triangular", (0.0, 0.0, 10.0))),
            TermDef("hi", MembershipDef("triangular", (0.0, 10.0, 10.0))),
        ),
    )
    return FLCDefinition(
        name="edge", inputs=(x,), outputs=(output,), rules=rules, defuzzifier=defuzzifier
    )


@pytest.mark.parametrize("defuzzifier", DEFUZZIFIERS)
def test_fired_rule_whose_term_samples_to_zero_raises_everywhere(defuzzifier):
    # Grid 0, 2.5, ..., 10: the fired "spike" term lies between two grid
    # points, and the rule reaching "wide" has weight 0.
    y = VariableDef(
        name="y",
        universe=(0.0, 10.0),
        terms=(
            TermDef("spike", MembershipDef("triangular", (5.5, 6.0, 6.5))),
            TermDef("wide", MembershipDef("triangular", (0.0, 5.0, 10.0))),
        ),
        resolution=5,
    )
    rules = (
        RuleDef(antecedent=(("x", "lo"),), consequents=(("y", "spike"),), label="0"),
        RuleDef(antecedent=(("x", "hi"),), consequents=(("y", "wide"),), weight=0.0, label="1"),
    )
    assert outcomes(_one_input(y, rules, defuzzifier), {"x": 2.0}) == ["raised"] * 3


def test_centroid_of_a_surface_peaking_at_the_zero_tolerance_raises_everywhere():
    # Peak 1e-12 (the defuzzifiers' zero tolerance) over a 100-wide universe:
    # the area, 7.5e-11, is above the tolerance but the peak is not.
    y = VariableDef(
        name="y",
        universe=(0.0, 100.0),
        terms=(TermDef("wide", MembershipDef("triangular", (0.0, 50.0, 100.0))),),
        resolution=5,
    )
    rule = RuleDef(antecedent=(("x", "lo"),), consequents=(("y", "wide"),), weight=1e-12)
    assert outcomes(_one_input(y, (rule,), "centroid"), {"x": 0.0}) == ["raised"] * 3
