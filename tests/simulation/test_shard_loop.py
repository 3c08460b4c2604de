"""The shard engine's event heaps equal the generator-process shards.

:func:`~repro.simulation.run_coupled_sharded_network_experiment` steps one
single-cell :class:`~repro.simulation.NetworkSimulation` per cell;
:func:`~tests.simulation.shard_oracle.run_des_sharded` steps one
generator-process shard per cell on :class:`repro.des.Environment` under the
same window protocol.  Each example pickles both ``NetworkRunOutput`` values
and compares the bytes, so every counter, float and class counter must agree
bit for bit.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import CONTROLLERS
from repro.cac.complete_sharing import CompleteSharingController
from repro.simulation import (
    NetworkExperimentConfig,
    ProcessPoolSweepExecutor,
    run_coupled_sharded_network_experiment,
)
from tests.simulation.shard_oracle import run_des_sharded
from tests.simulation.test_network_loop import network_configs

WINDOWS = st.none() | st.floats(1.0, 40.0)


@given(
    name=st.sampled_from(CONTROLLERS.names()),
    config=network_configs(),
    window_s=WINDOWS,
)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_shards_equal_the_des_oracle(name, config, window_s):
    factory = CONTROLLERS.get(name)()
    sharded = run_coupled_sharded_network_experiment(config, factory, window_s=window_s)
    oracle = run_des_sharded(config, factory, window_s=window_s)
    assert pickle.dumps(sharded) == pickle.dumps(oracle)


@pytest.mark.parametrize("rings", [3, 5])
def test_net_mobility_regime_equals_the_des_oracle(rings):
    # perfbench's net-mobility regime: FACS at 0.03 calls/s/cell for 900 s.
    config = NetworkExperimentConfig(
        rings=rings, arrival_rate_per_cell_per_s=0.03, duration_s=900.0
    )
    factory = CONTROLLERS.get("FACS")()
    oracle = pickle.dumps(run_des_sharded(config, factory))
    serial = run_coupled_sharded_network_experiment(config, factory)
    process = run_coupled_sharded_network_experiment(
        config, factory, executor=ProcessPoolSweepExecutor(max_workers=2)
    )
    assert pickle.dumps(serial) == oracle
    assert pickle.dumps(process) == oracle
    assert serial.handoff_attempts > 0


class TestRouting:
    def test_a_sharded_run_never_enters_the_event_loop(self, des_runs):
        config = NetworkExperimentConfig(rings=1, duration_s=300.0)
        run_coupled_sharded_network_experiment(config, CompleteSharingController)
        assert des_runs == []

    # The oracle stays a run of the event loop, so equality with it is not
    # the heaps compared with themselves.
    def test_the_oracle_enters_the_event_loop(self, des_runs):
        config = NetworkExperimentConfig(rings=1, duration_s=300.0)
        oracle = run_des_sharded(config, CompleteSharingController)
        assert des_runs
        entered = len(des_runs)
        assert run_coupled_sharded_network_experiment(config, CompleteSharingController) == oracle
        assert len(des_runs) == entered
