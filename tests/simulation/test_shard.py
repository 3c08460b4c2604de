"""Message-passing sharded topologies: determinism, equivalence, wiring."""

from __future__ import annotations

import pickle

import pytest

from repro.api import CoupledShardedNetworkSweepScenario, Runner, Scenario
from repro.cac.complete_sharing import CompleteSharingController
from repro.simulation import (
    CoupledShardedNetworkSimulation,
    NetworkExperimentConfig,
    NetworkSweepSpec,
    ProcessPoolSweepExecutor,
    ThreadPoolSweepExecutor,
    run_coupled_sharded_network_experiment,
    run_coupled_sharded_network_sweep,
    run_network_experiment,
    run_network_sweep,
)
from repro.simulation.scenario import facs_factory


def small_config(rings: int = 1, **overrides) -> NetworkExperimentConfig:
    defaults = dict(rings=rings, duration_s=90.0, seed=424242)
    defaults.update(overrides)
    return NetworkExperimentConfig(**defaults)


def small_spec(rings: int = 1, replications: int = 1) -> NetworkSweepSpec:
    return NetworkSweepSpec(
        name="coupled-sharded-test",
        controllers={"CS": CompleteSharingController},
        arrival_rates=(0.03,),
        replications=replications,
        base_config=small_config(rings),
    )


class TestShardedExperimentDeterminism:
    @pytest.mark.parametrize("rings", [1, 3])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_backends_and_worker_counts_are_byte_identical(self, rings, workers):
        config = small_config(rings)
        serial = pickle.dumps(
            run_coupled_sharded_network_experiment(config, CompleteSharingController)
        )
        threaded = run_coupled_sharded_network_experiment(
            config,
            CompleteSharingController,
            executor=ThreadPoolSweepExecutor(max_workers=workers),
        )
        process = run_coupled_sharded_network_experiment(
            config,
            CompleteSharingController,
            executor=ProcessPoolSweepExecutor(max_workers=workers),
        )
        assert pickle.dumps(threaded) == serial
        assert pickle.dumps(process) == serial

    def test_rings0_reproduces_the_coupled_engine_exactly(self):
        # A single cell has no handoffs and its shard owns the very same
        # named streams the coupled engine draws, so the sharded run must
        # be byte-identical to run_network_experiment — not merely close.
        config = small_config(rings=0, duration_s=300.0)
        coupled = run_network_experiment(config, CompleteSharingController)
        sharded = run_coupled_sharded_network_experiment(config, CompleteSharingController)
        assert pickle.dumps(sharded) == pickle.dumps(coupled)

    def test_rings1_delta_against_the_coupled_engine_is_bounded(self):
        # At rings>=1 the sharded run is near — but documented not equal
        # to — the coupled run: the coupled engine draws all mobility from
        # one shared stream in global event order, and handoff admission
        # is deferred to the window barrier.  New-call arrivals, however,
        # come from identical per-cell streams, so their count must match
        # exactly, and the QoS numbers must stay close.
        config = small_config(rings=1, duration_s=600.0)
        coupled = run_network_experiment(config, CompleteSharingController)
        sharded = run_coupled_sharded_network_experiment(config, CompleteSharingController)
        coupled_new = coupled.result.metrics.requested - coupled.result.metrics.handoff_requests
        sharded_new = sharded.result.metrics.requested - sharded.result.metrics.handoff_requests
        assert sharded_new == coupled_new
        assert sharded.result.metrics.acceptance_percentage == pytest.approx(
            coupled.result.metrics.acceptance_percentage, abs=10.0
        )
        assert sharded.time_average_occupancy_bu == pytest.approx(
            coupled.time_average_occupancy_bu, rel=0.25
        )

    def test_rings3_facs_new_calls_match_the_coupled_engine(self):
        # 37 FACS cells: the new calls come from the coupled run's per-cell
        # streams, and handoffs cross shards.
        config = NetworkExperimentConfig(
            rings=3,
            cell_radius_km=1.5,
            arrival_rate_per_cell_per_s=0.03,
            duration_s=900.0,
            mean_speed_kmh=60.0,
            seed=20070629,
        )
        coupled = run_network_experiment(config, facs_factory())
        sharded = run_coupled_sharded_network_experiment(config, facs_factory())
        coupled_new = coupled.result.metrics.requested - coupled.result.metrics.handoff_requests
        sharded_new = sharded.result.metrics.requested - sharded.result.metrics.handoff_requests
        assert sharded_new == coupled_new
        assert sharded.handoff_attempts > 0

    def test_handoffs_actually_cross_shard_boundaries(self):
        output = run_coupled_sharded_network_experiment(
            small_config(rings=1, duration_s=600.0, mean_speed_kmh=80.0),
            CompleteSharingController,
        )
        assert output.handoff_attempts > 0

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window_s"):
            CoupledShardedNetworkSimulation(
                small_config(), CompleteSharingController, window_s=0.0
            )

    @pytest.mark.parametrize("window_s", [float("nan"), float("inf")])
    def test_window_must_be_finite(self, window_s):
        # A NaN window steps no shard at all; an infinite one ends the run
        # after one window, with the calls still in transit lost.
        with pytest.raises(ValueError, match="window_s"):
            run_coupled_sharded_network_experiment(
                small_config(duration_s=300.0, seed=5),
                CompleteSharingController,
                window_s=window_s,
            )

    def test_rejects_foreign_executor_objects(self):
        with pytest.raises(TypeError, match="executor"):
            run_coupled_sharded_network_experiment(
                small_config(), CompleteSharingController, executor=object()
            )


class TestHeterogeneousCapacity:
    def test_capacity_for_defaults_to_uniform(self):
        config = small_config(rings=1)
        assert config.capacity_for(3) == config.capacity_bu

    def test_capacity_list_length_is_validated(self):
        with pytest.raises(ValueError, match="one capacity per cell"):
            small_config(rings=1, cell_capacities=(40, 40))
        with pytest.raises(ValueError, match="positive integers"):
            small_config(rings=0, cell_capacities=(0,))

    def test_network_builds_per_cell_capacities(self):
        from repro.cellular.network import CellularNetwork

        capacities = (10, 20, 30, 40, 50, 60, 70)
        network = CellularNetwork(rings=1, cell_capacities=capacities)
        built = tuple(cell.base_station.capacity_bu for cell in network)
        assert built == capacities
        with pytest.raises(ValueError, match="one capacity per cell"):
            CellularNetwork(rings=1, cell_capacities=(40,))

    def test_tight_capacity_blocks_more_calls(self):
        base = small_config(rings=0, duration_s=600.0, arrival_rate_per_cell_per_s=0.1)
        uniform = run_coupled_sharded_network_experiment(base, CompleteSharingController)
        tight = run_coupled_sharded_network_experiment(
            small_config(
                rings=0,
                duration_s=600.0,
                arrival_rate_per_cell_per_s=0.1,
                cell_capacities=(2,),
            ),
            CompleteSharingController,
        )
        assert tight.result.metrics.blocked > uniform.result.metrics.blocked

    def test_coupled_engine_honours_the_capacity_map(self):
        # Same override applied through capacity_bu and cell_capacities
        # must give byte-identical coupled runs.
        via_scalar = run_network_experiment(
            small_config(rings=0, capacity_bu=5), CompleteSharingController
        )
        via_map = run_network_experiment(
            small_config(rings=0, cell_capacities=(5,)), CompleteSharingController
        )
        assert pickle.dumps(via_scalar) == pickle.dumps(via_map)


class TestRunCoupledShardedNetworkSweep:
    @pytest.mark.parametrize("rings", [1, 3])
    def test_sweep_frames_are_byte_identical_across_backends(self, rings):
        spec = small_spec(rings=rings)
        serial = run_coupled_sharded_network_sweep(spec)
        for workers in (1, 2, 4):
            threaded = run_coupled_sharded_network_sweep(
                spec, executor=ThreadPoolSweepExecutor(max_workers=workers)
            )
            assert pickle.dumps(threaded.frame) == pickle.dumps(serial.frame)
            assert threaded == serial
        process = run_coupled_sharded_network_sweep(
            spec, executor=ProcessPoolSweepExecutor(max_workers=2)
        )
        assert pickle.dumps(process.frame) == pickle.dumps(serial.frame)

    def test_rings0_matches_the_coupled_sweep_point_for_point(self):
        spec = small_spec(rings=0, replications=2)
        sharded = run_coupled_sharded_network_sweep(spec)
        coupled = run_network_sweep(spec)
        assert sharded.curves == coupled.curves
        assert sharded.name == f"{coupled.name}-coupled-sharded"

    def test_points_keep_one_row_per_replication(self):
        result = run_coupled_sharded_network_sweep(small_spec(rings=1, replications=2))
        # Unlike the decoupled sharding, a whole topology is one run.
        assert result.curves[0].points[0].replications == 2


class TestCoupledShardedScenario:
    def test_round_trips(self):
        scenario = CoupledShardedNetworkSweepScenario(
            controllers=("CS",),
            arrival_rates=(0.03,),
            replications=1,
            rings=1,
            window_s=5.0,
            cell_capacities=(40, 40, 40, 40, 40, 20, 20),
        )
        restored = Scenario.from_json(scenario.to_json())
        assert restored == scenario
        assert isinstance(restored, CoupledShardedNetworkSweepScenario)
        assert restored.kind == "network-sweep-coupled-sharded"
        assert restored.slug == "net-sweep-coupled-sharded"
        assert restored.cell_capacities == (40, 40, 40, 40, 40, 20, 20)

    def test_validates_window_and_capacities(self):
        with pytest.raises(ValueError, match="window_s"):
            CoupledShardedNetworkSweepScenario(window_s=-1.0)
        with pytest.raises(ValueError, match="one capacity per cell"):
            CoupledShardedNetworkSweepScenario(rings=1, cell_capacities=(40,))
        with pytest.raises(ValueError, match="positive integers"):
            CoupledShardedNetworkSweepScenario(rings=0, cell_capacities=(-3,))

    def test_runner_reports_message_coupling_provenance(self):
        report = Runner().run(
            CoupledShardedNetworkSweepScenario(
                controllers=("CS",),
                arrival_rates=(0.03,),
                replications=1,
                duration_s=90.0,
                rings=1,
            )
        )
        assert report.metrics["handoff_coupling"] == "messages"
        assert report.metrics["curves"][0]["points"][0]["replications"] == 1
        assert "multi-cell QoS vs offered load" in report.text

    def test_runner_threads_capacities_and_window_through(self):
        scenario = CoupledShardedNetworkSweepScenario(
            controllers=("CS",),
            arrival_rates=(0.03,),
            replications=1,
            duration_s=90.0,
            rings=0,
            cell_radius_km=2.0,
            mean_speed_kmh=40.0,
            seed=424242,
            window_s=30.0,
            cell_capacities=(12,),
        )
        report = Runner().run(scenario)
        spec = NetworkSweepSpec(
            name="network-qos-sweep",
            controllers={"CS": CompleteSharingController},
            arrival_rates=(0.03,),
            replications=1,
            base_config=small_config(
                rings=0, cell_radius_km=2.0, mean_speed_kmh=40.0, cell_capacities=(12,)
            ),
        )
        direct = run_coupled_sharded_network_sweep(spec, window_s=30.0)
        point = direct.curves[0].points[0]
        assert report.metrics["curves"][0]["points"][0] == {
            "arrival_rate_per_cell_per_s": point.arrival_rate_per_cell_per_s,
            "acceptance_percentage": point.acceptance_percentage,
            "std_percentage": point.std_percentage,
            "blocking_probability": point.blocking_probability,
            "dropping_probability": point.dropping_probability,
            "handoff_failure_ratio": point.handoff_failure_ratio,
            "mean_occupancy_bu": point.mean_occupancy_bu,
            "replications": point.replications,
        }

    def test_parent_kind_still_decodes_to_the_coupled_scenario(self):
        scenario = Scenario.from_dict(
            {"kind": "network-sweep", "controllers": ["CS"], "arrival_rates": [0.03]}
        )
        assert not isinstance(scenario, CoupledShardedNetworkSweepScenario)
