"""Property suites for the frame-native trace pipeline's two identities.

1. **Columnar trace == scalar draw loop.**  :func:`build_trace_arrays`
   replaced the historical per-request draw loop with sized numpy draws.
   The suite reimplements that scalar loop verbatim — one named stream per
   attribute, one scalar draw per request — and asserts the columns (and
   the ``Call`` objects materialized from them) are bit-identical for
   every registered :data:`~repro.workloads.spec.WORKLOADS` arrival model
   and for the legacy no-workload sequence, across seeds and counts.

2. **Chunked fold == one serial fold.**  ``map_reduce`` with a
   :class:`~repro.analysis.frame.FrameReducer` folds each chunk into a
   frame and merges the chunk frames in task order, so the reduced frame
   must be byte-identical to one fold over every row on every backend at
   any worker count and chunking.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.frame import BATCH_KIND, FrameReducer, run_result_row
from repro.cellular.metrics import CallMetrics
from repro.des.rng import StreamFactory
from repro.simulation.batch import build_requests, build_trace_arrays
from repro.simulation.config import BatchExperimentConfig
from repro.simulation.executor import (
    ProcessPoolSweepExecutor,
    SerialExecutor,
    ThreadPoolSweepExecutor,
)
from repro.simulation.results import RunResult
from repro.workloads import WORKLOADS

_slow_settings = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

WORKLOAD_NAMES = (None, *WORKLOADS.names())


def _scalar_reference(config: BatchExperimentConfig):
    """The historical per-request draw loop, reimplemented scalar draw by
    scalar draw: what ``build_requests`` did before the columnar builder.

    Streams are named and independent, so attribute order across streams is
    irrelevant; within each stream the draws happen one request at a time.
    """
    streams = StreamFactory(master_seed=config.stream_master_seed)
    arrival_rng = streams.stream("arrivals")
    class_rng = streams.stream("service-class")
    user_rng = streams.stream("user-state")
    holding_rng = streams.stream("holding-time")
    count = config.request_count

    if config.workload is None:
        arrivals = sorted(
            arrival_rng.uniform(0.0, config.arrival_window_s) for _ in range(count)
        )
    else:
        # The list path walks the model's stateful sampler one scalar draw
        # at a time (Poisson overrides it with scalar sorted uniforms).
        arrivals = config.workload.arrival.batch_arrival_times(
            arrival_rng, count, config.arrival_window_s
        )

    mix = config.effective_traffic_mix()
    services = [mix.sample_class(class_rng) for _ in range(count)]
    users = [config.user_profile.sample(user_rng) for _ in range(count)]
    mean_by_service = dict(zip(mix.services, mix.mean_holding_by_code()))
    bandwidth_by_service = dict(zip(mix.services, mix.bandwidth_by_code()))
    holdings = [
        holding_rng.exponential(float(mean_by_service[service]))
        for service in services
    ]
    bandwidths = [int(bandwidth_by_service[service]) for service in services]
    return arrivals, services, users, holdings, bandwidths


@pytest.mark.parametrize("workload_name", WORKLOAD_NAMES, ids=str)
@given(
    request_count=st.integers(0, 80),
    seed=st.integers(0, 2**20),
)
@_slow_settings
def test_trace_arrays_bit_identical_to_scalar_loop(workload_name, request_count, seed):
    workload = None if workload_name is None else WORKLOADS.get(workload_name)
    config = BatchExperimentConfig(
        request_count=request_count, seed=seed, workload=workload
    )
    arrays = build_trace_arrays(
        config, StreamFactory(master_seed=config.stream_master_seed)
    )
    arrivals, services, users, holdings, bandwidths = _scalar_reference(config)

    assert len(arrays) == request_count
    assert arrays.arrival_time_s.tolist() == arrivals
    assert [arrays.services[code] for code in arrays.class_codes] == services
    assert arrays.bandwidth_units.tolist() == bandwidths
    assert arrays.holding_time_s.tolist() == holdings
    assert arrays.speed_kmh.tolist() == [u.speed_kmh for u in users]
    assert arrays.angle_deg.tolist() == [u.angle_deg for u in users]
    assert arrays.distance_km.tolist() == [u.distance_km for u in users]
    assert arrays.requested_bu == sum(bandwidths)


@given(
    request_count=st.integers(1, 40),
    seed=st.integers(0, 2**20),
    workload_name=st.sampled_from(WORKLOAD_NAMES),
)
@_slow_settings
def test_materialized_calls_match_scalar_loop(request_count, seed, workload_name):
    workload = None if workload_name is None else WORKLOADS.get(workload_name)
    config = BatchExperimentConfig(
        request_count=request_count, seed=seed, workload=workload
    )
    calls = build_requests(config, StreamFactory(master_seed=config.stream_master_seed))
    arrivals, services, users, holdings, bandwidths = _scalar_reference(config)

    assert [call.call_id for call in calls] == list(range(1, request_count + 1))
    assert [call.requested_at for call in calls] == arrivals
    assert [call.service for call in calls] == services
    assert [call.bandwidth_units for call in calls] == bandwidths
    assert [call.holding_time_s for call in calls] == holdings
    assert [call.user_state for call in calls] == users


# ----------------------------------------------------------------------
# Chunked fold identity.


def _make_row(index: int):
    """A deterministic synthetic counter row.

    Varies the label, controller, parameter set and seed with the index so
    chunk boundaries exercise vocabulary growth and late-appearing
    parameter columns (NaN backfill) in the merge.
    """
    requested = 50 + (index * 13) % 40
    accepted = requested - (index * 7) % 20
    parameters = {"request_count": float(requested)}
    if index % 3 == 0:
        parameters["capacity_bu"] = 80.0 + index
    if index % 5 == 4:
        parameters["arrival_window_s"] = 3600.0
    result = RunResult(
        controller=("FACS", "SCC", "CS")[index % 3],
        metrics=CallMetrics(
            requested=requested,
            accepted=accepted,
            blocked=requested - accepted,
            completed=accepted,
            dropped=0,
            handoff_requests=index % 4,
            handoff_accepted=index % 3,
            accepted_bu=accepted * 2,
            requested_bu=requested * 2,
        ),
        parameters=parameters,
        seed=index,
    )
    return run_result_row(result, label=f"label{index % 4}", replication=index % 6)


def _serial_fold(row_count: int):
    return FrameReducer(BATCH_KIND).fold(_make_row(i) for i in range(row_count))


@given(
    row_count=st.integers(1, 60),
    max_workers=st.integers(1, 5),
    chunksize=st.integers(1, 9),
    backend=st.sampled_from(["serial", "thread"]),
)
@_slow_settings
def test_frame_reducer_matches_one_serial_fold(row_count, max_workers, chunksize, backend):
    if backend == "serial":
        executor = SerialExecutor()
    else:
        executor = ThreadPoolSweepExecutor(max_workers=max_workers, chunksize=chunksize)
    frame = executor.map_reduce(_make_row, range(row_count), FrameReducer(BATCH_KIND))
    assert frame == _serial_fold(row_count)


@pytest.mark.parametrize("chunksize", [1, 4])
def test_frame_reducer_matches_on_process_pool(chunksize):
    executor = ProcessPoolSweepExecutor(max_workers=2, chunksize=chunksize)
    rows = 25
    frame = executor.map_reduce(_make_row, range(rows), FrameReducer(BATCH_KIND))
    assert frame == _serial_fold(rows)


def test_frame_reducer_empty_tasks():
    expected = FrameReducer(BATCH_KIND).fold([])
    for executor in (
        SerialExecutor(),
        ThreadPoolSweepExecutor(max_workers=2, chunksize=3),
        ProcessPoolSweepExecutor(max_workers=2, chunksize=3),
    ):
        frame = executor.map_reduce(_make_row, [], FrameReducer(BATCH_KIND))
        assert frame == expected
