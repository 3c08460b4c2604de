"""The single-cell admission loop's SCC column blocks equal the DES oracle.

``run_batch_experiment`` answers an exact ``ShadowClusterController`` run
without the per-call trace from SCC column blocks: each row's in-cell
demand tuple and reservation verdict, the block's reservations drawn in one
kernel call, and the controller's demand estimator as the envelope ledger.
``run_des_experiment`` asks ``decide`` on every request's ``Call``; the two
return the same ``BatchRunOutput`` for every SCC configuration.
"""

from __future__ import annotations

import logging
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cac.scc.projection import ProjectionConfig
from repro.cac.scc.system import SCCConfig, ShadowClusterController
from repro.cellular.calls import Call
from repro.cellular.mobility import UserProfile
from repro.simulation import NetworkExperimentConfig
from repro.simulation.batch import run_batch_experiment, run_des_experiment
from repro.simulation.config import BatchExperimentConfig
from repro.simulation.engine import run_network_experiment
from repro.workloads import WORKLOADS

PROFILES = (
    UserProfile(),
    UserProfile(speed_kmh=0.0),
    UserProfile(speed_kmh=4.0),
    UserProfile(angle_deg=90.0),
    UserProfile(distance_km=10.0),
)
WORKLOAD_NAMES = (None, *WORKLOADS.names())

#: Reservation seeds: the default, negative ones and ones of 2**64 and more.
_SEEDS = st.sampled_from((19970101, -1, 2**64, 2**64 + 5)) | st.integers(-(2**70), 2**70)
_CONFIGS = st.builds(
    SCCConfig,
    projection=st.builds(
        ProjectionConfig,
        horizon_intervals=st.sampled_from((6, 1)) | st.integers(1, 10),
        interval_s=st.sampled_from((10.0,)) | st.floats(0.5, 120.0),
        stationary_speed_kmh=st.sampled_from((0.0, 1.0, 200.0)),
    ),
    handoff_reservation_bu=st.sampled_from((8.0, 0.0)) | st.floats(0.0, 30.0),
    incoming_projection_factor=st.sampled_from((0.15, 0.0)) | st.floats(0.0, 1.0),
    admission_threshold=st.sampled_from((1.0, 0.8)) | st.floats(0.05, 1.0),
    reservations_per_mobile_user=st.integers(0, 3),
    reservation_failure_probability=st.sampled_from((0.0, 0.03, 0.5, 0.99)),
    reservation_seed=_SEEDS,
)


def _config(request_count, seconds_per_request, profile, workload_name, seed):
    return BatchExperimentConfig(
        request_count=request_count,
        arrival_window_s=seconds_per_request * max(request_count, 1),
        user_profile=profile,
        seed=seed,
        workload=None if workload_name is None else WORKLOADS.get(workload_name),
    )


@given(
    scc=_CONFIGS,
    request_count=st.integers(0, 1_200),
    seconds_per_request=st.sampled_from((10.0, 2.0)) | st.floats(0.5, 200.0),
    profile=st.sampled_from(PROFILES),
    workload_name=st.sampled_from(WORKLOAD_NAMES),
    seed=st.integers(0, 2**20),
)
# Stationary users that still need reservations (speed 0 is not below 0).
@example(
    scc=SCCConfig(
        projection=ProjectionConfig(stationary_speed_kmh=0.0),
        reservation_failure_probability=0.5,
    ),
    request_count=200,
    seconds_per_request=10.0,
    profile=PROFILES[1],
    workload_name=None,
    seed=3,
)
# Three blocks, the last a partial one, at the paper's load.
@example(
    scc=SCCConfig(),
    request_count=1_200,
    seconds_per_request=40.0,
    profile=PROFILES[0],
    workload_name=None,
    seed=1,
)
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scc_columns_equal_the_des_oracle(
    scc, request_count, seconds_per_request, profile, workload_name, seed
):
    config = _config(request_count, seconds_per_request, profile, workload_name, seed)
    factory = partial(ShadowClusterController, scc)
    assert run_batch_experiment(config, factory) == run_des_experiment(config, factory())


# -- routing -------------------------------------------------------------------


@pytest.fixture
def built(monkeypatch) -> Counter:
    """Counts of the generators and calls built and of what SCC is asked."""
    counts: Counter = Counter()
    pcg64 = np.random.PCG64

    def counted_pcg64(*args, **kwargs):
        counts["PCG64"] += 1
        return pcg64(*args, **kwargs)

    monkeypatch.setattr(np.random, "PCG64", counted_pcg64)
    post_init = Call.__post_init__

    def counted_call(self):
        counts["Call"] += 1
        post_init(self)

    monkeypatch.setattr(Call, "__post_init__", counted_call)
    for name in ("accepts", "decide"):
        method = getattr(ShadowClusterController, name)

        def asked(self, call, station, now, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, call, station, now)

        monkeypatch.setattr(ShadowClusterController, name, asked)
    return counts


class _Subclass(ShadowClusterController):
    pass


#: 300 requests of the default profile: most rows need reservations.
_RUN = BatchExperimentConfig(request_count=300, seed=5)


class TestRouting:
    def test_a_run_builds_no_generator_or_call_and_asks_nothing(self, built, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.simulation.batch"):
            run_batch_experiment(_RUN, ShadowClusterController)
        (record,) = caplog.records
        assert record.args[1] > 0  # rows that needed reservations
        assert built == Counter()

    def test_a_traced_run_asks_decide_on_each_call(self, built):
        output = run_batch_experiment(_RUN, ShadowClusterController, collect_trace=True)
        assert len(output.records) == 300
        assert built["decide"] == 300
        assert built["Call"] == 300
        assert built["PCG64"] > 0
        assert built["accepts"] == 0

    def test_a_subclass_is_asked_accepts_on_each_call(self, built):
        run_batch_experiment(_RUN, _Subclass)
        assert built["accepts"] == 300
        assert built["Call"] == 300
        assert built["PCG64"] > 0

    def test_a_network_run_asks_accepts_on_each_call(self, built):
        config = NetworkExperimentConfig(arrival_rate_per_cell_per_s=0.05, duration_s=300.0)
        output = run_network_experiment(config, ShadowClusterController)
        assert built["accepts"] == output.result.metrics.requested > 0
        assert built["PCG64"] > 0


# -- the column record ----------------------------------------------------------


@pytest.mark.parametrize("request_count", (0, 300, 1_100))
def test_the_record_leaves_the_output_equal(caplog, request_count):
    config = BatchExperimentConfig(request_count=request_count, seed=7)
    quiet = run_batch_experiment(config, ShadowClusterController)
    with caplog.at_level(logging.DEBUG, logger="repro.simulation.batch"):
        logged = run_batch_experiment(config, ShadowClusterController)
    assert logged == quiet
    (record,) = [r for r in caplog.records if r.name == "repro.simulation.batch"]
    assert record.levelno == logging.DEBUG
    requests, needed, failed, kernel_calls, kernel_ms, recomputed, extended = record.args
    assert requests == request_count
    assert failed <= needed <= request_count
    # One kernel call per block of 512 rows that has a mobile row.
    assert kernel_calls == -(-request_count // 512)
    assert kernel_ms >= 0.0
    # The ledger is read before every admission, so every admission extends
    # the sums, and each departure recomputes them at most once.
    accepted = logged.result.metrics.accepted
    assert extended == accepted
    assert recomputed <= accepted
    assert record.getMessage().startswith(f"SCC columns: {request_count} requests")
