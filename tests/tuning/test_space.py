"""Search-space targets: parsing, resolution, substitution, validation."""

from __future__ import annotations

import pytest

from repro.cac.facs.definitions import flc1_definition
from repro.fuzzy.definition import DefinitionError
from repro.tuning import ParameterSpec, SearchSpace, TuningError


class TestParameterSpec:
    def test_bounded_spec_grid_values_are_evenly_spaced(self):
        spec = ParameterSpec("mf.S.M.1", low=20.0, high=40.0, steps=5)
        assert spec.grid_values() == (20.0, 25.0, 30.0, 35.0, 40.0)
        assert spec.bounds() == (20.0, 40.0)

    def test_choice_spec_enumerates_its_choices(self):
        spec = ParameterSpec("weight.1", choices=(0.5, 1.0))
        assert spec.grid_values() == (0.5, 1.0)
        assert spec.bounds() == (0.5, 1.0)

    def test_rejects_bounds_and_choices_together(self):
        with pytest.raises(TuningError, match="not both"):
            ParameterSpec("weight.1", low=0.0, high=1.0, choices=(0.5,))

    def test_rejects_missing_bounds(self):
        with pytest.raises(TuningError, match="low and high"):
            ParameterSpec("weight.1")

    def test_rejects_inverted_bounds(self):
        with pytest.raises(TuningError, match="low < high"):
            ParameterSpec("weight.1", low=1.0, high=0.0)

    @pytest.mark.parametrize("low,high", [
        (60.0, float("inf")), (float("-inf"), 1.0), (float("nan"), 1.0),
    ])
    def test_rejects_non_finite_bounds(self, low, high):
        with pytest.raises(TuningError, match="'mf.S.M.2' bounds must be finite"):
            ParameterSpec("mf.S.M.2", low=low, high=high)

    def test_rejects_non_finite_choices(self):
        with pytest.raises(TuningError, match="'weight.1' choices must be finite"):
            ParameterSpec("weight.1", choices=(0.5, float("nan")))
        with pytest.raises(TuningError, match="choices must be finite"):
            ParameterSpec("mf.S.M.2", choices=(60.0, float("inf")))

    @pytest.mark.parametrize("target", [
        "mf.S.M", "mf.S.M.x", "weight", "weight.", "speed.S.M.1", "",
    ])
    def test_rejects_malformed_targets(self, target):
        with pytest.raises(TuningError):
            ParameterSpec(target, low=0.0, high=1.0)

    def test_dict_round_trip(self):
        for spec in (
            ParameterSpec("mf.S.M.1", low=20.0, high=40.0, steps=3),
            ParameterSpec("weight.1", choices=(0.5, 1.0)),
        ):
            assert ParameterSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(TuningError, match="mood"):
            ParameterSpec.from_dict({"target": "weight.1", "choices": [1.0], "mood": 1})


class TestSearchSpace:
    def test_rejects_duplicate_targets(self):
        spec = ParameterSpec("weight.1", choices=(0.5, 1.0))
        with pytest.raises(TuningError, match="duplicate"):
            SearchSpace((spec, spec))

    def test_rejects_empty_space(self):
        with pytest.raises(TuningError, match="at least one"):
            SearchSpace(())

    def test_mappings_are_coerced_to_specs(self):
        space = SearchSpace(({"target": "weight.1", "choices": [0.5, 1.0]},))
        assert space.specs[0] == ParameterSpec("weight.1", choices=(0.5, 1.0))

    def test_baseline_values_read_the_paper_definition(self):
        base = flc1_definition()
        space = SearchSpace((
            ParameterSpec("mf.S.M.1", low=20.0, high=40.0),
            ParameterSpec("weight.1", choices=(0.5, 1.0)),
        ))
        peak = base.variable("S").terms[1].membership.params[1]
        assert space.baseline_values(base) == (peak, 1.0)

    def test_apply_substitutes_both_target_kinds(self):
        base = flc1_definition()
        space = SearchSpace((
            ParameterSpec("mf.S.M.1", low=20.0, high=40.0),
            ParameterSpec("weight.1", choices=(0.5, 1.0)),
        ))
        tuned = space.apply(base, (33.0, 0.5))
        assert tuned.variable("S").terms[1].membership.params[1] == 33.0
        assert tuned.rule_by_label("1").weight == 0.5
        # the base definition is untouched (definitions are immutable)
        assert space.baseline_values(base) != (33.0, 0.5)

    def test_apply_rejects_wrong_vector_length(self):
        space = SearchSpace((ParameterSpec("weight.1", choices=(1.0,)),))
        with pytest.raises(TuningError, match="1 parameters"):
            space.apply(flc1_definition(), (1.0, 2.0))

    def test_infeasible_vector_fails_with_membership_context(self):
        base = flc1_definition()
        space = SearchSpace((ParameterSpec("mf.S.M.1", low=0.0, high=200.0),))
        with pytest.raises(DefinitionError, match="'S'"):
            space.apply(base, (200.0,))  # peak beyond the right foot

    def test_validate_against_reports_unknown_terms(self):
        space = SearchSpace((ParameterSpec("mf.S.XXL.1", low=0.0, high=1.0),))
        with pytest.raises(TuningError, match="no term 'XXL'"):
            space.validate_against(flc1_definition())

    def test_validate_against_reports_out_of_range_index(self):
        space = SearchSpace((ParameterSpec("mf.S.M.7", low=0.0, high=1.0),))
        with pytest.raises(TuningError, match="3 parameters"):
            space.validate_against(flc1_definition())

    def test_validate_against_reports_unknown_rule_label(self):
        space = SearchSpace((ParameterSpec("weight.999", choices=(1.0,)),))
        with pytest.raises(TuningError, match="999"):
            space.validate_against(flc1_definition())
