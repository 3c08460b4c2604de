"""The columnar sweep pipeline: map_reduce semantics, task chunking, and
the no-pickled-run-outputs guarantee of the process backend."""

from __future__ import annotations

import pickle
import time
from multiprocessing.reduction import ForkingPickler

import pytest

from repro.analysis.frame import FrameReducer, FrameRow, MetricsFrame, run_result_row
from repro.cellular.metrics import CallMetrics
from repro.simulation.config import BatchExperimentConfig, NetworkExperimentConfig
from repro.simulation.results import RunResult
from repro.simulation.executor import (
    ProcessPoolSweepExecutor,
    SerialExecutor,
    SweepExecutionError,
    TaskReducer,
    ThreadPoolSweepExecutor,
    default_chunksize,
)
from repro.simulation.scenario import facs_factory, scc_factory
from repro.simulation.sweep import (
    NetworkSweepSpec,
    ReplicationTask,
    _execute_network_replication_row,
    _execute_replication_row,
    run_acceptance_sweep,
    run_network_sweep,
)


class ListReducer(TaskReducer):
    """Order-preserving reducer for observing map_reduce semantics."""

    def fold(self, results):
        return list(results)

    def merge(self, partials):
        return [item for partial in partials for item in partial]


def _square(x):
    return x * x


def _explode_on_two_and_five(x):
    """Worker fn whose tasks 2 and 5 fail, task 2 last of all."""
    if x == 2:
        time.sleep(0.3)
        raise ValueError(f"boom {x}")
    if x == 5:
        raise ValueError(f"boom {x}")
    return run_result_row(
        RunResult("FACS", CallMetrics(x + 1, x, 1, x, 0, 0, 0, 2 * x, 2 * x + 2))
    )


class TestMapReduce:
    @pytest.mark.parametrize(
        "executor",
        [
            SerialExecutor(),
            ThreadPoolSweepExecutor(max_workers=3),
            ThreadPoolSweepExecutor(max_workers=3, chunksize=7),
            ProcessPoolSweepExecutor(max_workers=2),
            ProcessPoolSweepExecutor(max_workers=2, chunksize=5),
        ],
    )
    def test_preserves_task_order(self, executor):
        tasks = list(range(53))
        assert executor.map_reduce(_square, tasks, ListReducer()) == [
            x * x for x in tasks
        ]

    def test_empty_tasks_fold_once(self):
        assert SerialExecutor().map_reduce(_square, [], ListReducer()) == []
        assert (
            ThreadPoolSweepExecutor(max_workers=2).map_reduce(
                _square, [], ListReducer()
            )
            == []
        )
        assert (
            ProcessPoolSweepExecutor(max_workers=2).map_reduce(
                _square, [], ListReducer()
            )
            == []
        )

    def test_process_map_reduce_rejects_unpicklable_tasks(self):
        with pytest.raises(SweepExecutionError, match="picklable"):
            ProcessPoolSweepExecutor(max_workers=2).map_reduce(
                _square, [lambda: None], ListReducer()
            )

    def test_first_failing_chunk_in_task_order_raises(self):
        # Task 5 fails while task 2 is still running; task 2's error is the
        # one raised, however the pool scheduled them.
        executor = ProcessPoolSweepExecutor(max_workers=2, chunksize=1)
        tasks = list(range(8))
        with pytest.raises(ValueError, match="boom 2"):
            executor.map_reduce(_explode_on_two_and_five, tasks, FrameReducer("batch"))


class TestChunking:
    def test_default_chunksize_heuristic(self):
        assert default_chunksize(1, 1) == 1
        assert default_chunksize(10, 4) == 1
        assert default_chunksize(1000, 4) == 62  # ~4 chunks per worker
        assert default_chunksize(5000, 0) == 1250  # degenerate workers clamp

    def test_chunksize_validation(self):
        with pytest.raises(ValueError, match="chunksize"):
            ThreadPoolSweepExecutor(chunksize=0)
        with pytest.raises(ValueError, match="chunksize"):
            ProcessPoolSweepExecutor(chunksize=0)

    @pytest.mark.parametrize("chunksize", [None, 1, 3, 50, 1000])
    def test_thread_map_chunking_preserves_order(self, chunksize):
        executor = ThreadPoolSweepExecutor(max_workers=4, chunksize=chunksize)
        tasks = list(range(200))
        assert executor.map(_square, tasks) == [x * x for x in tasks]

    def test_process_map_honours_explicit_chunksize(self):
        executor = ProcessPoolSweepExecutor(max_workers=2, chunksize=25)
        tasks = list(range(60))
        assert executor.map(_square, tasks) == [x * x for x in tasks]


class TestNoPickledRunOutputs:
    """The acceptance criterion: process workers ship chunk frames, not
    pickled NetworkRunOutput dataclass trees."""

    def _network_rows(self):
        spec = NetworkSweepSpec(
            name="wire",
            controllers={"FACS": facs_factory()},
            arrival_rates=(0.03,),
            replications=2,
            base_config=NetworkExperimentConfig(rings=0, duration_s=60.0, seed=7),
        )
        return [_execute_network_replication_row(task) for task in spec.tasks()]

    def test_worker_fn_returns_plain_counter_rows(self):
        rows = self._network_rows()
        for row in rows:
            assert isinstance(row, FrameRow)
            assert isinstance(row, tuple)
            assert row.network is not None

    def test_worker_wire_payload_references_no_dataclasses(self):
        # The chunk frame is what _map_reduce_chunk returns, so it is what
        # the pool pickles back to the parent.
        reducer = FrameReducer("network")
        wire = bytes(ForkingPickler.dumps(reducer.fold(self._network_rows())))
        for needle in (b"NetworkRunOutput", b"RunResult", b"CallMetrics"):
            assert needle not in wire
        assert pickle.loads(wire).kind == "network"

    def test_batch_worker_fn_returns_rows(self):
        task = ReplicationTask(
            label="FACS",
            request_count=10,
            replication=0,
            config=BatchExperimentConfig(request_count=10, seed=5),
            controller_factory=facs_factory(),
        )
        row = _execute_replication_row(task)
        assert isinstance(row, FrameRow)
        assert row.label == "FACS"
        assert row.network is None


class TestSweepFrames:
    def test_acceptance_sweep_attaches_the_frame(self):
        variants = {
            "FACS": (BatchExperimentConfig(seed=991), facs_factory()),
            "SCC": (BatchExperimentConfig(seed=991), scc_factory()),
        }
        sweep = run_acceptance_sweep(
            "mini", variants, request_counts=(8, 20), replications=2
        )
        frame = sweep.frame
        assert isinstance(frame, MetricsFrame)
        assert len(frame) == 2 * 2 * 2
        assert frame.kind == "batch"
        assert frame.has_ordinals
        # Frame rows reduce back to exactly the rendered points.
        groups = frame.group_reduce(("curve", "point"))
        assert [g.replications for g in groups] == [2, 2, 2, 2]
        assert (
            groups[0].mean_acceptance_percentage
            == sweep.curve("FACS").point_at(8).acceptance_percentage
        )

    def test_network_sweep_frame_is_identical_across_backends(self):
        spec = NetworkSweepSpec(
            name="mini",
            controllers={"FACS": facs_factory()},
            arrival_rates=(0.02, 0.04),
            replications=2,
            base_config=NetworkExperimentConfig(rings=0, duration_s=90.0, seed=11),
        )
        serial = run_network_sweep(spec)
        process = run_network_sweep(
            spec, executor=ProcessPoolSweepExecutor(max_workers=2)
        )
        threaded = run_network_sweep(
            spec, executor=ThreadPoolSweepExecutor(max_workers=3)
        )
        assert serial.frame == process.frame == threaded.frame
        assert pickle.dumps(serial) == pickle.dumps(process) == pickle.dumps(threaded)

    def test_equality_ignores_the_frame_carrier(self):
        # Codec round-trips drop the frame; rendered results still compare.
        spec = {
            "FACS": (BatchExperimentConfig(seed=3), facs_factory()),
        }
        sweep = run_acceptance_sweep("x", spec, request_counts=(5,), replications=1)
        from dataclasses import replace

        assert replace(sweep, frame=None) == sweep
