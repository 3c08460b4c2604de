"""Tests for the batch experiment, configs, result aggregation and sweeps."""

from __future__ import annotations

import pytest

from repro.cac.complete_sharing import CompleteSharingController
from repro.cellular.metrics import CallMetrics
from repro.cellular.mobility import UserProfile
from repro.simulation.batch import run_batch_experiment
from repro.simulation.config import (
    BatchExperimentConfig,
    NetworkExperimentConfig,
    PAPER_REQUEST_COUNTS,
)
from repro.simulation.results import RunResult, aggregate_runs
from repro.simulation.scenario import (
    angle_sweep_variants,
    baseline_comparison_variants,
    controller_comparison_variants,
    distance_sweep_variants,
    facs_factory,
    scc_factory,
    speed_sweep_variants,
)
from repro.simulation.sweep import (
    SweepCurve,
    SweepPoint,
    SweepResult,
    run_acceptance_sweep,
)


class TestConfigs:
    def test_paper_request_counts_reach_100(self):
        assert PAPER_REQUEST_COUNTS[-1] == 100
        assert list(PAPER_REQUEST_COUNTS) == sorted(PAPER_REQUEST_COUNTS)

    def test_batch_defaults_match_paper(self):
        config = BatchExperimentConfig()
        assert config.capacity_bu == 40
        assert config.traffic_mix.bandwidth_for.__self__ is config.traffic_mix

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            BatchExperimentConfig(request_count=-1)
        with pytest.raises(ValueError):
            BatchExperimentConfig(capacity_bu=0)
        with pytest.raises(ValueError):
            BatchExperimentConfig(arrival_window_s=0.0)

    def test_with_helpers_return_modified_copies(self):
        config = BatchExperimentConfig(request_count=10, seed=1)
        other = config.with_requests(50).with_seed(2, replication=3).with_profile(
            UserProfile(speed_kmh=60.0)
        )
        assert other.request_count == 50
        assert other.seed == 2 and other.replication == 3
        assert other.user_profile.speed_kmh == 60.0
        assert config.request_count == 10  # original untouched

    def test_network_config_validation(self):
        with pytest.raises(ValueError):
            NetworkExperimentConfig(rings=-1)
        with pytest.raises(ValueError):
            NetworkExperimentConfig(arrival_rate_per_cell_per_s=0.0)
        with pytest.raises(ValueError):
            NetworkExperimentConfig(duration_s=0.0)


class TestBatchExperiment:
    def test_zero_requests(self):
        config = BatchExperimentConfig(request_count=0)
        output = run_batch_experiment(config, facs_factory())
        assert output.result.metrics.requested == 0
        assert output.acceptance_percentage == 0.0

    def test_all_requests_decided(self):
        for count, seed in ((40, 11), (100, 20070616)):
            config = BatchExperimentConfig(request_count=count, seed=seed)
            output = run_batch_experiment(config, facs_factory())
            metrics = output.result.metrics
            assert metrics.requested == count
            assert metrics.accepted + metrics.blocked == count

    def test_reproducible_for_same_seed(self):
        config = BatchExperimentConfig(request_count=60, seed=123)
        first = run_batch_experiment(config, facs_factory())
        second = run_batch_experiment(config, facs_factory())
        assert first.acceptance_percentage == second.acceptance_percentage

    def test_different_replications_differ(self):
        config = BatchExperimentConfig(request_count=60, seed=123)
        first = run_batch_experiment(config, facs_factory())
        second = run_batch_experiment(config.with_seed(123, replication=1), facs_factory())
        assert first.acceptance_percentage != second.acceptance_percentage

    def test_admitted_calls_complete_and_release_bandwidth(self):
        config = BatchExperimentConfig(request_count=30, seed=5)
        output = run_batch_experiment(config, facs_factory())
        metrics = output.result.metrics
        # Every admitted call eventually completed (no drops in single-cell batch).
        assert metrics.completed == metrics.accepted
        assert metrics.dropped == 0

    def test_peak_occupancy_within_capacity(self):
        config = BatchExperimentConfig(request_count=100, seed=7)
        output = run_batch_experiment(config, facs_factory())
        assert 0 < output.peak_occupancy_bu <= config.capacity_bu

    def test_trace_collection(self):
        config = BatchExperimentConfig(request_count=25, seed=9)
        output = run_batch_experiment(config, facs_factory(), collect_trace=True)
        assert len(output.records) == 25
        arrival_times = [record.arrival_time_s for record in output.records]
        assert arrival_times == sorted(arrival_times)
        for record in output.records:
            assert record.occupancy_before_bu <= config.capacity_bu
            assert -1.0 <= record.score <= 1.0

    def test_complete_sharing_never_exceeds_capacity(self):
        config = BatchExperimentConfig(request_count=150, seed=13, arrival_window_s=600.0)
        output = run_batch_experiment(config, CompleteSharingController, collect_trace=True)
        assert output.peak_occupancy_bu <= config.capacity_bu

    def test_fixed_profile_parameters_recorded(self):
        config = BatchExperimentConfig(
            request_count=10, user_profile=UserProfile(speed_kmh=30.0, angle_deg=45.0)
        )
        output = run_batch_experiment(config, facs_factory())
        assert output.result.parameters["speed_kmh"] == 30.0
        assert output.result.parameters["angle_deg"] == 45.0
        assert "distance_km" not in output.result.parameters


class TestAggregation:
    def _run(self, acceptance: float) -> RunResult:
        accepted = int(acceptance)
        metrics = CallMetrics(
            requested=100,
            accepted=accepted,
            blocked=100 - accepted,
            completed=accepted,
            dropped=0,
            handoff_requests=0,
            handoff_accepted=0,
            accepted_bu=accepted,
            requested_bu=100,
        )
        return RunResult(controller="FACS", metrics=metrics)

    def test_mean_and_std(self):
        aggregated = aggregate_runs([self._run(80), self._run(90)])
        assert aggregated.mean_acceptance_percentage == pytest.approx(85.0)
        assert aggregated.std_acceptance_percentage > 0.0
        assert aggregated.replications == 2

    def test_confidence_interval_contains_mean(self):
        aggregated = aggregate_runs([self._run(80), self._run(90), self._run(85)])
        low, high = aggregated.confidence_interval()
        assert low <= aggregated.mean_acceptance_percentage <= high

    def test_single_run_interval_degenerate(self):
        aggregated = aggregate_runs([self._run(70)])
        assert aggregated.confidence_interval() == (70.0, 70.0)

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])

    def test_mixed_controllers_rejected(self):
        run_a = self._run(80)
        run_b = RunResult(controller="SCC", metrics=run_a.metrics)
        with pytest.raises(ValueError):
            aggregate_runs([run_a, run_b])


class TestSweep:
    def test_sweep_structure(self):
        variants = {"FACS": (BatchExperimentConfig(seed=1), facs_factory())}
        sweep = run_acceptance_sweep("mini", variants, request_counts=(10, 30), replications=2)
        assert sweep.name == "mini"
        assert sweep.labels() == ["FACS"]
        curve = sweep.curve("FACS")
        assert curve.request_counts() == [10, 30]
        assert all(0.0 <= value <= 100.0 for value in curve.acceptance_series())
        assert curve.point_at(10).replications == 2

    def test_unknown_curve_and_point(self):
        variants = {"FACS": (BatchExperimentConfig(seed=1), facs_factory())}
        sweep = run_acceptance_sweep("mini", variants, request_counts=(10,), replications=1)
        with pytest.raises(KeyError):
            sweep.curve("SCC")
        with pytest.raises(KeyError):
            sweep.curve("FACS").point_at(99)

    def test_validation(self):
        variants = {"FACS": (BatchExperimentConfig(seed=1), facs_factory())}
        with pytest.raises(ValueError):
            run_acceptance_sweep("x", variants, request_counts=(10,), replications=0)
        with pytest.raises(ValueError):
            run_acceptance_sweep("x", {}, request_counts=(10,), replications=1)
        with pytest.raises(ValueError):
            run_acceptance_sweep("x", variants, request_counts=(), replications=1)

    def test_scenario_variant_builders(self):
        assert set(speed_sweep_variants((4.0, 60.0))) == {"4km/h", "60km/h"}
        assert set(angle_sweep_variants((0.0, 90.0))) == {"Angle=0", "Angle=90"}
        assert set(distance_sweep_variants((1.0, 10.0))) == {"1km", "10km"}
        assert set(controller_comparison_variants()) == {"FACS", "SCC"}
        assert set(baseline_comparison_variants()) >= {"FACS", "SCC", "CS"}

    def test_speed_variants_fix_only_speed(self):
        config, _factory = speed_sweep_variants((4.0,))["4km/h"]
        assert config.user_profile.speed_kmh == 4.0
        assert config.user_profile.angle_deg is None
        assert config.user_profile.distance_km is None

    def test_scc_factory_builds_fresh_instances(self):
        factory = scc_factory()
        assert factory() is not factory()


def _point(request_count: int, acceptance: float = 50.0) -> SweepPoint:
    return SweepPoint(
        request_count=request_count,
        acceptance_percentage=acceptance,
        std_percentage=0.0,
        replications=1,
    )


class TestIndexedLookups:
    """point_at()/curve() use the O(1) indexes built at construction time."""

    def test_point_at_returns_matching_point(self):
        curve = SweepCurve("c", "FACS", (_point(10), _point(20), _point(30)))
        assert curve.point_at(20).request_count == 20
        with pytest.raises(KeyError, match="no point at 99"):
            curve.point_at(99)

    def test_point_at_keeps_first_duplicate(self):
        # Duplicate x values are degenerate, but the indexed lookup must keep
        # the linear-scan semantics: first match wins.
        curve = SweepCurve("c", "FACS", (_point(10, 40.0), _point(10, 80.0)))
        assert curve.point_at(10).acceptance_percentage == 40.0

    def test_curve_lookup_and_first_duplicate(self):
        first = SweepCurve("dup", "FACS", (_point(10, 1.0),))
        second = SweepCurve("dup", "FACS", (_point(10, 2.0),))
        result = SweepResult("s", (first, second))
        assert result.curve("dup") is first
        with pytest.raises(KeyError, match="no curve"):
            result.curve("missing")

    def test_indexes_survive_pickling(self):
        import pickle

        curve = SweepCurve("c", "FACS", (_point(10), _point(20)))
        result = SweepResult("s", (curve,))
        clone = pickle.loads(pickle.dumps(result))
        assert clone.curve("c").point_at(20) == curve.point_at(20)

    def test_large_curve_lookup_is_fast(self):
        import time

        points = tuple(_point(i) for i in range(5000))
        curve = SweepCurve("big", "FACS", points)
        start = time.perf_counter()
        for _ in range(200):
            curve.point_at(4999)
        elapsed = time.perf_counter() - start
        # 200 lookups at the far end of a 5000-point curve: O(n) scans would
        # take ~tens of milliseconds; the index stays comfortably under that.
        assert elapsed < 0.01


class TestBatchDeterminism:
    """Batch runs are pure functions of their config."""

    def test_call_ids_are_per_run_sequential(self):
        config = BatchExperimentConfig(request_count=12, seed=77)
        output = run_batch_experiment(config, facs_factory(), collect_trace=True)
        assert [record.call_id for record in output.records] == list(range(1, 13))

    def test_traces_identical_across_runs(self):
        # The global Call-id counter must not leak into results: two runs in
        # the same process (different counter state) produce identical traces.
        config = BatchExperimentConfig(request_count=30, seed=78)
        first = run_batch_experiment(config, scc_factory(), collect_trace=True)
        second = run_batch_experiment(config, scc_factory(), collect_trace=True)
        assert first.records == second.records
        assert first.result == second.result

    def test_stream_master_seed_mixes_replication(self):
        config = BatchExperimentConfig(seed=100, replication=0)
        assert config.stream_master_seed == 100
        assert config.with_seed(100, replication=2).stream_master_seed == (100 + 2 * 1_000_003)
