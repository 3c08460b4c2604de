"""The tuning engine: trial evaluation, reports, executor independence."""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.io import SCHEMA_VERSION
from repro.cac.facs.definitions import flc1_definition, flc2_definition
from repro.simulation.executor import executor_by_name
from repro.tuning import (
    ParameterSpec,
    SearchSpace,
    TuningError,
    render_tuning_report,
    run_tuning,
)

QUICK = dict(request_counts=(100,), replications=1)

CHOICE_SPACE = SearchSpace((
    ParameterSpec("mf.S.M.1", choices=(25.0, 35.0)),
    ParameterSpec("weight.1", choices=(0.5, 1.0)),
))


def quick_run(**overrides):
    options = dict(QUICK, strategy="grid")
    options.update(overrides)
    return run_tuning(flc1_definition(), CHOICE_SPACE, **options)


class TestRunTuning:
    def test_grid_run_covers_the_full_product(self):
        report = quick_run()
        assert len(report.trials) == 4
        assert [t.index for t in report.trials] == [0, 1, 2, 3]
        assert report.slot == "flc1"
        assert report.targets == ("mf.S.M.1", "weight.1")
        assert report.baseline_values == (30.0, 1.0)
        assert report.best.score is not None

    def test_flc2_definitions_tune_the_flc2_slot(self):
        space = SearchSpace((ParameterSpec("weight.1", choices=(0.5, 1.0)),))
        report = run_tuning(flc2_definition(), space, strategy="grid", **QUICK)
        assert report.slot == "flc2"
        assert len(report.trials) == 2

    def test_max_trials_truncates_the_search(self):
        report = quick_run(max_trials=3)
        assert len(report.trials) == 3

    def test_direction_minimize_prefers_the_lowest_score(self):
        report = quick_run(direction="minimize")
        feasible = [t for t in report.trials if t.score is not None]
        assert report.best.score == min(t.score for t in feasible)

    def test_infeasible_candidates_become_failed_trials(self):
        # 200 pushes the M peak beyond its right foot -> invalid triangle.
        space = SearchSpace((ParameterSpec("mf.S.M.1", choices=(30.0, 200.0)),))
        report = run_tuning(flc1_definition(), space, strategy="grid", **QUICK)
        failed = [t for t in report.trials if t.score is None]
        assert len(failed) == 1
        assert "'S'" in failed[0].error
        assert report.best.values == (30.0,)

    def test_all_infeasible_is_a_loud_error(self):
        space = SearchSpace((ParameterSpec("mf.S.M.1", choices=(200.0,)),))
        with pytest.raises(TuningError, match="infeasible"):
            run_tuning(flc1_definition(), space, strategy="grid", **QUICK)

    def test_unknown_objective_and_direction_are_rejected(self):
        with pytest.raises(TuningError, match="objective"):
            quick_run(objective="mean_regret")
        with pytest.raises(TuningError, match="direction"):
            quick_run(direction="sideways")

    def test_space_must_resolve_inside_the_base_definition(self):
        space = SearchSpace((ParameterSpec("mf.Cv.B.0", low=0.0, high=1.0),))
        with pytest.raises(TuningError, match="Cv"):
            run_tuning(flc1_definition(), space, strategy="grid", **QUICK)


class TestReportPayload:
    def test_payload_is_schema_versioned_and_self_describing(self):
        report = quick_run()
        payload = report.to_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["type"] == "tuning"
        assert payload["trial_count"] == len(payload["trials"]) == 4
        assert payload["baseline"]["values"] == [30.0, 1.0]
        assert payload["best_definition"]["type"] == "flc-definition"
        assert payload["comparison"]["baseline"] == "paper"
        assert set(payload["frame"]["columns"]) >= {
            "param.trial", "param.score", "param.mf.S.M.1", "param.weight.1",
        }

    def test_frame_has_one_row_per_trial_with_nan_for_failures(self):
        space = SearchSpace((ParameterSpec("mf.S.M.1", choices=(30.0, 200.0)),))
        report = run_tuning(flc1_definition(), space, strategy="grid", **QUICK)
        frame = report.frame
        assert len(frame) == 2
        scores = frame.column("param.score")
        assert math.isnan(scores[1]) and not math.isnan(scores[0])

    def test_render_lists_targets_baseline_and_comparison(self):
        report = quick_run()
        text = render_tuning_report(report)
        assert "Rule-base tuning — FLC1" in text
        assert "mf.S.M.1" in text
        assert "paper baseline" in text
        assert "Top candidates" in text
        assert "Δmean_acceptance" in text


class TestExecutorIndependence:
    @pytest.mark.parametrize("executor_name,workers", [
        ("thread", 2), ("process", 2),
    ])
    def test_pool_results_match_the_serial_run(self, executor_name, workers):
        serial = quick_run(strategy="evolutionary", population=3, generations=2)
        executor = executor_by_name(executor_name, workers=workers)
        pooled = quick_run(
            strategy="evolutionary", population=3, generations=2,
            executor=executor,
        )
        assert pickle.dumps(serial.to_dict()) == pickle.dumps(pooled.to_dict())
        assert len(pooled.trials) == 3 * 2
        assert pooled.best.score is not None
        assert pooled.comparison["baseline"] == "paper"


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_seeded_searches_are_byte_deterministic(seed):
    reports = [
        quick_run(strategy="evolutionary", population=2, generations=2, seed=seed)
        for _ in range(2)
    ]
    assert pickle.dumps(reports[0].to_dict()) == pickle.dumps(reports[1].to_dict())
