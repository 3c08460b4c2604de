"""Trace-driven admission pipeline: determinism, bounds, scenario wiring."""

from __future__ import annotations

import pytest

from repro.api import Runner, Scenario, ScenarioError, TraceArrivalsScenario
from repro.cac.facs.system import FACSConfig
from repro.simulation import (
    BatchExperimentConfig,
    run_batch_experiment,
    run_trace_arrivals,
)


def small_config(**overrides) -> BatchExperimentConfig:
    fields = dict(request_count=60, seed=20070627)
    fields.update(overrides)
    return BatchExperimentConfig(**fields)


class TestRunTraceArrivals:
    def test_repeated_runs_are_identical(self):
        first = run_trace_arrivals(small_config(), batch_size=8)
        second = run_trace_arrivals(small_config(), batch_size=8)
        assert first == second

    def test_totals_are_consistent(self):
        result = run_trace_arrivals(small_config(), batch_size=8)
        assert result.requested == 60
        assert 0 <= result.accepted <= result.requested
        assert result.accepted == sum(b.accepted for b in result.batches)
        assert sum(b.size for b in result.batches) == result.requested
        assert result.batches[0].start_time_s <= result.batches[-1].start_time_s

    def test_occupancy_never_exceeds_capacity(self):
        config = small_config(request_count=150)
        result = run_trace_arrivals(config, batch_size=16)
        capacity = config.capacity_bu
        assert result.peak_occupancy_bu <= capacity
        for batch in result.batches:
            assert 0 <= batch.occupancy_before_bu <= capacity
            assert 0 <= batch.occupancy_after_bu <= capacity

    def test_engines_agree(self):
        compiled = run_trace_arrivals(
            small_config(), batch_size=8, facs_config=FACSConfig(engine="compiled")
        )
        reference = run_trace_arrivals(
            small_config(), batch_size=8, facs_config=FACSConfig(engine="reference")
        )
        assert compiled == reference

    def test_batch_size_one_runs(self):
        result = run_trace_arrivals(small_config(request_count=20), batch_size=1)
        assert len(result.batches) == 20
        assert all(batch.size == 1 for batch in result.batches)

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            run_trace_arrivals(small_config(), batch_size=0)

    def test_uses_the_same_trace_as_the_batch_experiment(self):
        # Same seeded config => same request trace => same request count and
        # comparable acceptance levels between the DES path and the pipeline.
        config = small_config(request_count=100)
        from repro.simulation.scenario import facs_factory

        des = run_batch_experiment(config, facs_factory())
        trace = run_trace_arrivals(config, batch_size=1)
        assert trace.requested == des.result.metrics.requested

    def test_unit_batches_pin_the_des_batch_experiment(self):
        # Regression: at batch_size=1 the pipeline is per-call admission on
        # the identical seeded trace, so its counters must pin the DES path
        # exactly — including `completed`, which once depended on where the
        # final batch boundary fell because the departure queue was never
        # drained after the last batch.
        config = small_config(request_count=100)
        from repro.simulation.scenario import facs_factory

        des = run_batch_experiment(config, facs_factory()).result.metrics
        trace = run_trace_arrivals(config, batch_size=1)
        assert trace.accepted == des.accepted
        assert trace.metrics.completed == des.completed
        assert trace.metrics.accepted_bu == des.accepted_bu

    def test_completions_do_not_depend_on_batch_boundaries(self):
        # Every admitted call's departure is replayed before the run
        # returns, so completed == accepted for any batch size.
        config = small_config(request_count=80)
        for batch_size in (1, 7, 16, 80):
            result = run_trace_arrivals(config, batch_size=batch_size)
            assert result.metrics.completed == result.accepted

    @pytest.mark.parametrize("batch_size", [1, 16, 1024])
    @pytest.mark.parametrize(
        "seconds_per_request", [40.0, None], ids=["paper-load", "default-window"]
    )
    def test_stream_path_equals_object_path(self, seconds_per_request, batch_size):
        # At the paper's load (40 s per request) about 11% of decisions see
        # Cs >= 21; in the default 2000 s window about 98% do, which is where
        # the screen sends the most rows to its exact fallback.
        requests = 1_500
        window = {}
        if seconds_per_request is not None:
            window["arrival_window_s"] = seconds_per_request * requests
        config = small_config(request_count=requests, **window)
        stream = run_trace_arrivals(config, batch_size=batch_size, stream=True)
        assert stream == run_trace_arrivals(config, batch_size=batch_size)

    def test_acceptance_percentage_delegates_to_call_metrics(self):
        result = run_trace_arrivals(small_config(), batch_size=8)
        assert (
            result.acceptance_percentage
            == result.metrics.acceptance_percentage
        )


class TestTraceArrivalsScenario:
    def test_round_trips(self):
        scenario = TraceArrivalsScenario(
            request_count=80, batch_size=4, speed_kmh=60.0, seed=7
        )
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_validation(self):
        with pytest.raises(ScenarioError, match="request_count"):
            TraceArrivalsScenario(request_count=0)
        with pytest.raises(ScenarioError, match="batch_size"):
            TraceArrivalsScenario(batch_size=0)
        with pytest.raises(ScenarioError, match="arrival_window_s"):
            TraceArrivalsScenario(arrival_window_s=-1.0)
        with pytest.raises(ScenarioError, match="speed_kmh"):
            TraceArrivalsScenario(speed_kmh=float("nan"))
        with pytest.raises(ScenarioError, match="unknown engine"):
            TraceArrivalsScenario(engine="warp")

    def test_cli_rejects_unsupported_shaping_flags(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="only --engine"):
            main(["run", "trace-arrivals", "--replications", "2"])
        with pytest.raises(SystemExit, match="only --engine"):
            main(["run", "trace-arrivals", "--requests", "10", "20"])

    def test_cli_engine_flag_applies(self, capsys):
        from repro.cli import main

        assert main(["run", "trace-arrivals", "--engine", "reference"]) == 0
        assert "trace-driven admission" in capsys.readouterr().out

    def test_runner_produces_report(self):
        scenario = TraceArrivalsScenario(request_count=40, batch_size=10)
        report = Runner().run(scenario)
        assert "trace-driven admission" in report.text
        assert report.metrics["type"] == "trace-arrivals"
        assert report.metrics["requested"] == 40
        assert len(report.metrics["batches"]) == 4
        assert report.scenario.slug == "trace-arrivals"

    def test_fixed_profile_changes_the_outcome(self):
        # Deterministic seeded runs: at this load the user-to-BS distance
        # flips at least one admission decision through FLC1.
        near = Runner().run(
            TraceArrivalsScenario(request_count=150, distance_km=0.5, seed=3)
        )
        far = Runner().run(
            TraceArrivalsScenario(request_count=150, distance_km=9.5, seed=3)
        )
        assert near.metrics["accepted"] != far.metrics["accepted"]
