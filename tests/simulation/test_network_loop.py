"""The coupled network engine's event heap equals the generator-process DES.

``NetworkSimulation.run`` pops one heap of ``(time, sequence, kind,
payload)`` entries; ``DESNetworkSimulation`` (``network_oracle.py``) runs the
same model as generator processes on :class:`repro.des.Environment`.  Each
example pickles both ``NetworkRunOutput`` values and compares the bytes, so
every counter, float and class counter must agree bit for bit.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass
from typing import ClassVar

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import CONTROLLERS
from repro.cac.complete_sharing import CompleteSharingController
from repro.cac.facs.system import FuzzyAdmissionControlSystem
from repro.cellular.calls import CallType
from repro.cellular.network import hex_cell_count
from repro.simulation.config import NetworkExperimentConfig
from repro.simulation.engine import NetworkSimulation
from repro.simulation.scenario import facs_factory
from repro.workloads import WORKLOADS, WorkloadSpec
from repro.workloads.arrivals import ArrivalModel
from tests.conftest import BISECTOR_FACS
from tests.simulation.network_oracle import DESNetworkSimulation

WORKLOAD_NAMES = (None, *WORKLOADS.names())


def _pickled_runs(config: NetworkExperimentConfig, factory) -> tuple[bytes, bytes]:
    loop = NetworkSimulation(config, factory).run()
    oracle = DESNetworkSimulation(config, factory).run()
    return pickle.dumps(loop), pickle.dumps(oracle)


@st.composite
def network_configs(draw) -> NetworkExperimentConfig:
    rings = draw(st.integers(0, 2))
    cells = hex_cell_count(rings)
    per_cell = st.lists(st.integers(5, 60), min_size=cells, max_size=cells).map(tuple)
    cell_capacities = draw(st.none() | per_cell)
    workload = draw(st.sampled_from(WORKLOAD_NAMES))
    return NetworkExperimentConfig(
        rings=rings,
        cell_radius_km=draw(st.floats(0.3, 3.0)),
        capacity_bu=draw(st.integers(10, 60)),
        cell_capacities=cell_capacities,
        # Light load to overload at 40 BU; a run has at most ~450 arrivals.
        arrival_rate_per_cell_per_s=draw(st.floats(0.002, 0.06)),
        duration_s=draw(st.floats(20.0, 400.0)),
        mobility_update_s=draw(st.sampled_from((10.0, 5.0)) | st.floats(3.0, 60.0)),
        mean_speed_kmh=draw(st.sampled_from((0.0, 40.0)) | st.floats(0.0, 120.0)),
        seed=draw(st.integers(0, 2**31)),
        replication=draw(st.integers(0, 3)),
        workload=None if workload is None else WORKLOADS.get(workload),
    )


@pytest.mark.parametrize("name", CONTROLLERS.names())
@given(config=network_configs())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_loop_equals_the_des_oracle(name, config):
    loop, oracle = _pickled_runs(config, CONTROLLERS.get(name)())
    assert loop == oracle


#: perfbench's net-mobility regime: 37 cells, 0.03 calls/s/cell, 900 s.
NET_MOBILITY = NetworkExperimentConfig(
    rings=3, arrival_rate_per_cell_per_s=0.03, duration_s=900.0
)


@pytest.mark.parametrize("seed", [1, 20070626])
def test_net_mobility_regime_equals_the_des_oracle(seed):
    config = NET_MOBILITY.with_seed(seed)
    loop, oracle = _pickled_runs(config, CONTROLLERS.get("FACS")())
    assert loop == oracle
    assert pickle.loads(loop).handoff_attempts > 0


def test_unscreened_facs_equals_the_des_oracle():
    # A bisector FACS has no decision screen, so the engine scores every new
    # call's verdict exactly (ExactColumns) and asks every handoff ``accepts``.
    config = NetworkExperimentConfig(
        rings=2, arrival_rate_per_cell_per_s=0.03, duration_s=600.0, seed=1
    )
    loop, oracle = _pickled_runs(config, facs_factory(BISECTOR_FACS))
    assert loop == oracle
    assert pickle.loads(loop).handoff_attempts > 0


def test_facs_cells_above_the_cs_universe_equal_the_des_oracle(monkeypatch):
    # FLC2's Cs universe ends at 40 BU; these 60 BU cells fill past it.
    config = NetworkExperimentConfig(
        rings=1, capacity_bu=60, arrival_rate_per_cell_per_s=0.5, duration_s=300.0, seed=1
    )
    admitted_occupancy = []
    on_admitted = FuzzyAdmissionControlSystem.on_admitted

    def noted(self, call, station, now):
        on_admitted(self, call, station, now)
        admitted_occupancy.append(station.used_bu)

    monkeypatch.setattr(FuzzyAdmissionControlSystem, "on_admitted", noted)
    loop, oracle = _pickled_runs(config, CONTROLLERS.get("FACS")())
    assert loop == oracle
    assert max(admitted_occupancy) > 40


@dataclass(frozen=True)
class _RegularArrival(ArrivalModel):
    """An arrival every ``gap_s`` seconds in every cell."""

    gap_s: float = 3.3
    kind: ClassVar[str] = "regular"

    def sampler(self, rng, rate_per_s):
        return self

    def next_interarrival(self, now: float) -> float:
        return self.gap_s


@pytest.mark.parametrize("name", ["CS", "FACS", "MPCLookahead"])
def test_equal_instants_pop_in_the_oracle_order(name):
    # Every cell's arrivals, every call's ticks and the occupancy samples
    # fall on the same instants (each is ``now + 3.3`` from an instant of
    # the same grid), so the run depends on the order equal-time entries pop.
    config = NetworkExperimentConfig(
        rings=1,
        cell_radius_km=1.0,
        arrival_rate_per_cell_per_s=0.3,
        duration_s=300.0,
        mobility_update_s=3.3,
        mean_speed_kmh=60.0,
        workload=WorkloadSpec("regular", _RegularArrival()),
    )
    loop, oracle = _pickled_runs(config, CONTROLLERS.get(name)())
    assert loop == oracle


class _FailsOnRequest(CompleteSharingController):
    """Complete sharing, except that the run's ``fail_at``-th request raises."""

    def __init__(self, asked: itertools.count, fail_at: int):
        self._asked = asked
        self._fail_at = fail_at

    def accepts(self, call, station, now):
        if next(self._asked) == self._fail_at:
            raise RuntimeError(
                f"fault on {call.call_type.value} request {call.call_id} at t={now!r}"
            )
        return super().accepts(call, station, now)


def _failing_factory(fail_at: int):
    asked = itertools.count(1)
    return lambda: _FailsOnRequest(asked, fail_at)


@pytest.mark.parametrize(
    ("fail_at", "call_type"),
    [(1, CallType.NEW), (40, CallType.NEW), (44, CallType.HANDOFF)],
)
def test_a_controller_error_leaves_both_runs_alike(fail_at, call_type):
    config = NetworkExperimentConfig(
        rings=1, cell_radius_km=1.0, mean_speed_kmh=60.0, duration_s=600.0, seed=4242
    )
    with pytest.raises(RuntimeError) as loop_error:
        NetworkSimulation(config, _failing_factory(fail_at)).run()
    with pytest.raises(RuntimeError) as oracle_error:
        DESNetworkSimulation(config, _failing_factory(fail_at)).run()
    assert str(loop_error.value) == str(oracle_error.value)
    # A handoff request raises from inside a call's mobility tick.
    assert str(loop_error.value).startswith(f"fault on {call_type.value} request")


class TestRouting:
    def test_a_coupled_run_never_enters_the_event_loop(self, des_runs):
        config = NetworkExperimentConfig(rings=1, duration_s=300.0)
        NetworkSimulation(config, CompleteSharingController).run()
        assert des_runs == []

    # The oracle stays a run of the event loop, so equality with it is not
    # the heap compared with itself.
    def test_the_oracle_enters_the_event_loop_once(self, des_runs):
        config = NetworkExperimentConfig(rings=1, duration_s=300.0)
        oracle = DESNetworkSimulation(config, CompleteSharingController).run()
        assert len(des_runs) == 1
        assert NetworkSimulation(config, CompleteSharingController).run() == oracle
        assert len(des_runs) == 1
