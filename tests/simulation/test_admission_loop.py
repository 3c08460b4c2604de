"""The single-cell admission loop equals the DES oracle for every controller.

``run_batch_experiment`` walks the trace once for every controller in
``CONTROLLERS``: an exact FACS controller reads its verdicts from FACS
blocks, and every other controller, like every run that collects the
per-call trace, is asked about each request before the fit check and hears
its lifecycle hooks.  ``run_des_experiment`` replays the same trace on the
event loop; the two return the same ``BatchRunOutput``, field for field.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.api import CONTROLLERS
from repro.cellular.mobility import UserProfile
from repro.simulation.batch import run_batch_experiment, run_des_experiment
from repro.simulation.config import BatchExperimentConfig
from repro.workloads import WORKLOADS

PROFILES = (
    UserProfile(),
    UserProfile(speed_kmh=4.0),
    UserProfile(angle_deg=90.0),
    UserProfile(distance_km=10.0),
)
WORKLOAD_NAMES = (None, *WORKLOADS.names())


@pytest.mark.parametrize("name", CONTROLLERS.names())
@given(
    request_count=st.integers(0, 300),
    # Light load (200 s per request) to overload (0.5 s); at 8 s and 2 s
    # per request MPCLookahead's verdicts depend on being asked about
    # requests that do not fit.
    seconds_per_request=st.sampled_from((8.0, 2.0)) | st.floats(0.5, 200.0),
    profile=st.sampled_from(PROFILES),
    workload_name=st.sampled_from(WORKLOAD_NAMES),
    seed=st.integers(0, 2**20),
)
@example(
    request_count=300,
    seconds_per_request=8.0,
    profile=PROFILES[0],
    workload_name=None,
    seed=1,
)
@example(
    request_count=300,
    seconds_per_request=2.0,
    profile=PROFILES[0],
    workload_name=None,
    seed=1,
)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_loop_equals_the_des_oracle(
    name, request_count, seconds_per_request, profile, workload_name, seed
):
    config = BatchExperimentConfig(
        request_count=request_count,
        arrival_window_s=seconds_per_request * max(request_count, 1),
        user_profile=profile,
        seed=seed,
        workload=None if workload_name is None else WORKLOADS.get(workload_name),
    )
    factory = CONTROLLERS.get(name)()
    for collect_trace in (False, True):
        loop = run_batch_experiment(config, factory, collect_trace=collect_trace)
        oracle = run_des_experiment(config, factory(), collect_trace=collect_trace)
        assert loop == oracle
        assert len(loop.records) == (request_count if collect_trace else 0)
