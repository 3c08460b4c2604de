"""Behavioural tests of FLC1 (mobility prediction) and FLC2 (admission decision).

These encode the qualitative claims of Section 4 of the paper as assertions
on the controllers themselves: straight-heading users get high correction
values, the correction value degrades with the angle, full cells push the
decision towards rejection, and so on.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cac.base import DecisionOutcome
from repro.cac.facs.definitions import flc1_definition, flc2_definition
from repro.cac.facs.flc1 import FLC1
from repro.cac.facs.flc2 import FLC2
from repro.cellular.mobility import UserState
from repro.fuzzy.definition import DefinitionError


class TestFLC1Structure:
    def test_rule_count(self, flc1):
        assert flc1.rule_count == 42

    def test_variable_universes(self, flc1):
        variables = flc1.controller.rule_base.input_variables
        assert variables["S"].universe == (0.0, 120.0)
        assert variables["A"].universe == (-180.0, 180.0)
        assert variables["D"].universe == (0.0, 10.0)
        assert flc1.controller.rule_base.output_variables["Cv"].universe == (0.0, 1.0)

    def test_term_sets_match_paper(self, flc1):
        variables = flc1.controller.rule_base.input_variables
        assert variables["S"].term_names == ["Sl", "M", "Fa"]
        assert variables["A"].term_names == ["B1", "L1", "L2", "St", "R1", "R2", "B2"]
        assert variables["D"].term_names == ["N", "F"]
        output = flc1.controller.rule_base.output_variables["Cv"]
        assert output.term_names == [f"Cv{i}" for i in range(1, 10)]

    def test_all_input_variables_cover_their_universe(self, flc1):
        for variable in flc1.controller.rule_base.input_variables.values():
            assert variable.is_complete(), f"{variable.name} has coverage holes"

    def test_correction_variable_covers_unit_interval(self, flc1):
        assert flc1.controller.rule_base.output_variables["Cv"].is_complete()

    def test_is_compiled_from_the_paper_definition(self, flc1):
        assert flc1.definition == flc1_definition()

    def test_rejects_a_definition_that_does_not_fit_the_slot(self):
        with pytest.raises(DefinitionError, match="does not fit the FLC1 slot"):
            FLC1(flc2_definition())


class TestFLC1Behaviour:
    def test_straight_fast_near_is_excellent(self, flc1):
        assert flc1.correction_value(60.0, 0.0, 1.0) > 0.85

    def test_moving_away_is_poor(self, flc1):
        assert flc1.correction_value(60.0, 180.0, 5.0) < 0.2
        assert flc1.correction_value(60.0, -180.0, 5.0) < 0.2

    def test_correction_decreases_with_angle(self, flc1):
        """Fig. 8's driver: larger angles mean worse predicted trajectories."""
        angles = (0.0, 30.0, 50.0, 60.0, 90.0)
        values = [flc1.correction_value(30.0, angle, 3.0) for angle in angles]
        assert all(earlier >= later for earlier, later in zip(values, values[1:]))

    def test_angle_symmetry(self, flc1):
        """Left and right trajectories are symmetric in FRB1."""
        for angle in (30.0, 60.0, 90.0, 135.0):
            left = flc1.correction_value(50.0, -angle, 4.0)
            right = flc1.correction_value(50.0, angle, 4.0)
            assert left == pytest.approx(right, abs=1e-6)

    def test_near_beats_far_for_straight_users(self, flc1):
        near = flc1.correction_value(20.0, 0.0, 1.0)
        far = flc1.correction_value(20.0, 0.0, 9.5)
        assert near > far

    def test_walking_users_have_middling_correction(self, flc1):
        """Slow users never reach the extreme correction values for side angles."""
        assert 0.1 < flc1.correction_value(4.0, 90.0, 5.0) < 0.6

    def test_fast_user_side_angle_is_extreme(self, flc1):
        """Fast users moving sideways-away are predicted to leave: very low Cv."""
        assert flc1.correction_value(100.0, 90.0, 5.0) < 0.2

    def test_evaluate_returns_diagnostics(self, flc1):
        result = flc1.evaluate(UserState(60.0, 0.0, 1.0))
        assert 0.0 <= result.correction_value <= 1.0
        assert result.dominant_rule in {str(i) for i in range(42)}
        assert result.inputs.speed_kmh == 60.0

    def test_out_of_range_inputs_are_clamped(self, flc1):
        assert 0.0 <= flc1.correction_value(500.0, 0.0, 50.0) <= 1.0

    @given(
        speed=st.floats(0.0, 120.0),
        angle=st.floats(-180.0, 180.0),
        distance=st.floats(0.0, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_always_in_unit_interval(self, flc1, speed, angle, distance):
        assert 0.0 <= flc1.correction_value(speed, angle, distance) <= 1.0


class TestFLC2Structure:
    def test_rule_count(self, flc2):
        assert flc2.rule_count == 27

    def test_variable_universes(self, flc2):
        variables = flc2.controller.rule_base.input_variables
        assert variables["Cv"].universe == (0.0, 1.0)
        assert variables["R"].universe == (0.0, 10.0)
        assert variables["Cs"].universe == (0.0, 40.0)
        assert flc2.controller.rule_base.output_variables["AR"].universe == (-1.0, 1.0)

    def test_term_sets_match_paper(self, flc2):
        variables = flc2.controller.rule_base.input_variables
        assert variables["Cv"].term_names == ["B", "N", "G"]
        assert variables["R"].term_names == ["T", "Vo", "Vi"]
        assert variables["Cs"].term_names == ["S", "M", "F"]
        assert flc2.controller.rule_base.output_variables["AR"].term_names == [
            "R",
            "WR",
            "NRNA",
            "WA",
            "A",
        ]

    def test_all_variables_cover_their_universe(self, flc2):
        for variable in flc2.controller.rule_base.input_variables.values():
            assert variable.is_complete()
        assert flc2.controller.rule_base.output_variables["AR"].is_complete()

    def test_is_compiled_from_the_paper_definition(self, flc2):
        assert flc2.definition == flc2_definition()

    def test_rejects_a_definition_that_does_not_fit_the_slot(self):
        with pytest.raises(DefinitionError, match="does not fit the FLC2 slot"):
            FLC2(flc1_definition())


class TestFLC2Behaviour:
    def test_empty_cell_accepts(self, flc2):
        assert flc2.decision_score(0.9, 1.0, 2.0) > 0.25

    def test_good_correction_full_cell_video_is_rejected(self, flc2):
        """Table 2 rule 26: G / Vi / F -> Reject."""
        assert flc2.decision_score(0.95, 10.0, 39.0) < -0.25

    def test_score_decreases_with_occupancy(self, flc2):
        scores = [flc2.decision_score(0.5, 5.0, cs) for cs in (2.0, 10.0, 20.0, 30.0, 38.0)]
        assert all(earlier >= later - 1e-9 for earlier, later in zip(scores, scores[1:]))

    def test_occupancy_above_the_universe_scores_as_a_full_universe(self, flc2):
        """FACS feeds a cell's occupancy as Cs; a cell larger than FLC2's
        40 BU universe is scored at 40 BU once it fills past it."""
        for correction in (0.1, 0.5, 0.9):
            for request in (1.0, 5.0, 10.0):
                full = flc2.decision_score(correction, request, 40.0)
                for counter in (41.0, 47.5, 60.0):
                    assert flc2.decision_score(correction, request, counter) == full

    def test_good_correction_beats_bad_correction_under_load(self, flc2):
        """The core of Fig. 7: under load, favourable trajectories are preferred."""
        good = flc2.decision_score(0.9, 1.0, 25.0)
        bad = flc2.decision_score(0.1, 1.0, 25.0)
        assert good > bad

    def test_classify_score_boundaries(self):
        assert FLC2.classify_score(-1.0) == DecisionOutcome.REJECT
        assert FLC2.classify_score(-0.5) == DecisionOutcome.WEAK_REJECT
        assert FLC2.classify_score(0.0) == DecisionOutcome.NEUTRAL
        assert FLC2.classify_score(0.5) == DecisionOutcome.WEAK_ACCEPT
        assert FLC2.classify_score(1.0) == DecisionOutcome.ACCEPT

    def test_evaluate_returns_diagnostics(self, flc2):
        result = flc2.evaluate(0.8, 5.0, 10.0)
        assert -1.0 <= result.score <= 1.0
        assert result.outcome in DecisionOutcome.ORDERED
        assert result.correction_value == 0.8

    @given(
        correction=st.floats(0.0, 1.0),
        request=st.floats(0.0, 10.0),
        counter=st.floats(0.0, 40.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_score_always_in_range(self, flc2, correction, request, counter):
        assert -1.0 <= flc2.decision_score(correction, request, counter) <= 1.0

    def test_custom_resolution(self):
        paper = flc2_definition()
        coarse = replace(
            paper,
            inputs=tuple(replace(variable, resolution=201) for variable in paper.inputs),
            outputs=tuple(replace(variable, resolution=201) for variable in paper.outputs),
        )
        flc2 = FLC2(coarse)
        assert flc2.controller.rule_base.output_variables["AR"].resolution == 201
        assert -1.0 <= flc2.decision_score(0.5, 5.0, 20.0) <= 1.0
