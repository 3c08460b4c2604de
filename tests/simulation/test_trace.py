"""Trace-driven admission pipeline: the DES oracle, bounds, scenario wiring."""

from __future__ import annotations

import logging
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Runner, Scenario, ScenarioError, TraceArrivalsScenario
from repro.cac.facs import screen, system
from repro.cac.facs.system import FACSConfig, FuzzyAdmissionControlSystem
from repro.simulation import BatchExperimentConfig, run_trace_arrivals
from repro.simulation.batch import run_des_experiment
from repro.workloads import WORKLOADS
from tests.conftest import BISECTOR_FACS

WORKLOAD_NAMES = (None, *WORKLOADS.names())


def small_config(**overrides) -> BatchExperimentConfig:
    fields = dict(request_count=60, seed=20070627)
    fields.update(overrides)
    return BatchExperimentConfig(**fields)


class TestRunTraceArrivals:
    def test_repeated_runs_are_identical(self):
        first = run_trace_arrivals(small_config(), stream=True)
        second = run_trace_arrivals(small_config(), stream=True)
        assert first == second

    def test_totals_are_consistent(self):
        metrics = run_trace_arrivals(small_config(), stream=True).metrics
        assert metrics.requested == 60
        assert 0 <= metrics.accepted <= metrics.requested
        assert metrics.accepted + metrics.blocked == metrics.requested
        assert metrics.completed == metrics.accepted
        assert metrics.accepted <= metrics.accepted_bu <= metrics.requested_bu

    def test_occupancy_never_exceeds_capacity(self):
        config = small_config(request_count=150)
        result = run_trace_arrivals(config, stream=True)
        assert 0 < result.peak_occupancy_bu <= config.capacity_bu

    def test_screened_run_equals_the_exact_run(self, monkeypatch):
        # The paper's pair reads the decision screen; without one it scores
        # every verdict exactly, so this pins the screened path to the
        # exact one.  tests/simulation/test_facs_kernel.py holds both paths
        # to the DES oracle.
        screened = run_trace_arrivals(small_config(request_count=1_500), stream=True)
        monkeypatch.setattr(FuzzyAdmissionControlSystem, "_decision_screen", lambda self: None)
        exact = run_trace_arrivals(small_config(request_count=1_500), stream=True)
        assert screened == exact

    def test_uses_the_same_trace_as_the_batch_experiment(self):
        config = small_config(request_count=100)
        des = run_des_experiment(config, FuzzyAdmissionControlSystem())
        trace = run_trace_arrivals(config, stream=True)
        assert trace.requested == des.result.metrics.requested

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "seconds_per_request",
        [40.0, 8.0, None],
        ids=["paper-load", "overload", "default-window"],
    )
    def test_kernel_equals_the_des_oracle(self, seconds_per_request, seed):
        # At the paper's load (40 s per request) about 11% of decisions see
        # Cs >= 21; in the default 2000 s window about 98% do, which is where
        # the screen sends the most rows to its exact fallback.
        requests = 1_500
        window = {}
        if seconds_per_request is not None:
            window["arrival_window_s"] = seconds_per_request * requests
        config = small_config(request_count=requests, seed=seed, **window)
        assert run_trace_arrivals(config, stream=True) == run_trace_arrivals(config)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_kernel_equals_the_des_oracle_in_deep_overload(self, seed):
        # 5,000 requests in the default 2000 s window: about 90% blocked.
        config = BatchExperimentConfig(request_count=5_000, seed=seed)
        kernel = run_trace_arrivals(config, stream=True)
        assert kernel == run_trace_arrivals(config)
        assert kernel.acceptance_percentage < 20.0

    @given(
        request_count=st.integers(1, 300),
        seconds_per_request=st.floats(0.5, 200.0),
        seed=st.integers(0, 2**20),
        workload_name=st.sampled_from(WORKLOAD_NAMES),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_kernel_equals_the_des_on_any_trace(
        self, request_count, seconds_per_request, seed, workload_name
    ):
        config = BatchExperimentConfig(
            request_count=request_count,
            arrival_window_s=seconds_per_request * request_count,
            seed=seed,
            workload=None if workload_name is None else WORKLOADS.get(workload_name),
        )
        assert run_trace_arrivals(config, stream=True) == run_trace_arrivals(config)

    def test_kernel_logs_its_paths_once_per_run(self, caplog, monkeypatch):
        # A certified controller pair reads the screen at any run size; a
        # bisector pair has no screen and scores exactly.  A fresh
        # screen has no tables yet, and the first run asks no bandwidth often
        # enough to build them.
        for module, memo in ((system, "_shared_screen"), (screen, "_shared_verdicts")):
            fresh = lru_cache(maxsize=64)(getattr(module, memo).__wrapped__)
            monkeypatch.setattr(module, memo, fresh)
        for request_count, facs_config, path in (
            (100, FACSConfig(), "screened"),
            (1_500, FACSConfig(), "screened"),
            (100, BISECTOR_FACS, "exact"),
        ):
            caplog.clear()
            config = small_config(request_count=request_count)
            with caplog.at_level(logging.DEBUG, logger="repro.simulation.batch"):
                result = run_trace_arrivals(config, facs_config, stream=True)
                run_trace_arrivals(config, facs_config)  # the DES oracle logs nothing
            records = [r for r in caplog.records if r.name == "repro.simulation.batch"]
            assert len(records) == 1
            assert records[0].levelno == logging.DEBUG
            taken, requests, screened, exact_flc1, exact_flc2 = records[0].args
            assert (taken, requests) == (path, request_count)
            # Every request that fits is scored once: from a cell table or
            # by exact FLC2, which needs the exact FLC1 correction first.
            assert result.accepted <= screened + exact_flc2 <= requests
            assert exact_flc2 <= exact_flc1 <= requests
            if path == "exact":
                assert (screened, exact_flc1) == (0, requests)
            elif request_count == 100:
                # No table yet: every verdict ran exact FLC2.
                assert requests < screen._BATCH_MIN_VERDICTS
                assert screened == 0
            else:
                assert screened > exact_flc2
            assert f"({path}): {request_count} requests" in records[0].getMessage()

    def test_acceptance_percentage_delegates_to_call_metrics(self):
        result = run_trace_arrivals(small_config(), stream=True)
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

    def test_cli_rejects_unsupported_shaping_flags(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="takes no --replications"):
            main(["run", "trace-arrivals", "--replications", "2"])
        with pytest.raises(SystemExit, match="takes no --requests"):
            main(["run", "trace-arrivals", "--requests", "10", "20"])

    def test_cli_runs_the_trace(self, capsys):
        from repro.cli import main

        assert main(["run", "trace-arrivals"]) == 0
        assert "trace-driven admission" in capsys.readouterr().out

    def test_runner_produces_report(self):
        scenario = TraceArrivalsScenario(request_count=40, batch_size=10)
        report = Runner().run(scenario)
        assert "trace-driven admission" in report.text
        assert report.metrics["type"] == "trace-arrivals"
        assert report.metrics["requested"] == 40
        assert report.scenario.slug == "trace-arrivals"

    def test_batch_size_and_stream_change_no_report(self):
        # Every request is decided at its own arrival, so neither the
        # (inert) batch size nor the choice of kernel or DES oracle can
        # change an answer.
        reports = [
            Runner().run(
                TraceArrivalsScenario(
                    request_count=400, batch_size=batch_size, stream=stream, seed=11
                )
            )
            for batch_size in (1, 16, 1024)
            for stream in (False, True)
        ]
        first = reports[0]
        for report in reports[1:]:
            metrics = {k: v for k, v in report.metrics.items() if k != "stream"}
            assert metrics == first.metrics
            assert report.text == first.text

    def test_fixed_profile_changes_the_outcome(self):
        # Deterministic seeded runs: at the paper's load (40 s per request)
        # the user-to-BS distance flips at least one admission decision
        # through FLC1.
        window = 40.0 * 150
        near = Runner().run(
            TraceArrivalsScenario(
                request_count=150, arrival_window_s=window, distance_km=0.5, seed=3
            )
        )
        far = Runner().run(
            TraceArrivalsScenario(
                request_count=150, arrival_window_s=window, distance_km=9.5, seed=3
            )
        )
        assert near.metrics["accepted"] != far.metrics["accepted"]
