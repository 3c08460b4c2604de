"""Determinism and behaviour of the pluggable sweep executors.

The headline guarantee: ``run_acceptance_sweep`` produces *byte-identical*
results for the serial backend and for process pools of any size, because
every replication derives its randomness from its own seeded config and the
results are reassembled in task order.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.simulation.config import BatchExperimentConfig
from repro.simulation.executor import (
    EXECUTOR_CHOICES,
    ProcessPoolSweepExecutor,
    SerialExecutor,
    SweepExecutionError,
    SweepExecutor,
    _chunked,
    default_chunksize,
    executor_by_name,
)
from repro.simulation.scenario import (
    FACSControllerFactory,
    SCCControllerFactory,
    facs_factory,
    scc_factory,
)
from repro.simulation.sweep import ReplicationTask, run_acceptance_sweep
from tests.conftest import BISECTOR_FACS


def _mini_variants():
    config = BatchExperimentConfig(seed=991)
    return {
        "FACS": (config, facs_factory()),
        "SCC": (config, scc_factory()),
    }


class TestExecutorRegistry:
    def test_names_resolve(self):
        assert isinstance(executor_by_name("serial"), SerialExecutor)
        assert isinstance(executor_by_name("process"), ProcessPoolSweepExecutor)
        assert isinstance(executor_by_name("parallel"), ProcessPoolSweepExecutor)
        assert isinstance(executor_by_name("  Serial "), SerialExecutor)

    def test_workers_forwarded(self):
        executor = executor_by_name("process", workers=3)
        assert executor.max_workers == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            executor_by_name("quantum")

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolSweepExecutor(max_workers=0)

    def test_choices_cover_registry(self):
        for name in EXECUTOR_CHOICES:
            assert isinstance(executor_by_name(name), SweepExecutor)


class TestChunkingPlan:
    @given(
        task_count=st.integers(0, 500),
        workers=st.integers(-2, 64),
    )
    def test_default_chunksize_is_always_valid(self, task_count, workers):
        # Degenerate plans — zero tasks, more workers than tasks, bogus
        # non-positive worker counts — still yield a usable chunksize.
        chunksize = default_chunksize(task_count, workers)
        assert chunksize >= 1

    def test_negative_task_count_rejected(self):
        with pytest.raises(ValueError, match="task_count"):
            default_chunksize(-1, 4)

    def test_invalid_chunksize_rejected(self):
        with pytest.raises(ValueError, match="chunksize"):
            _chunked([1, 2, 3], 0)

    @given(
        tasks=st.lists(st.integers(), max_size=200),
        workers=st.integers(1, 32),
    )
    def test_chunking_preserves_order_and_covers_every_task_once(
        self, tasks, workers
    ):
        chunks = _chunked(tasks, default_chunksize(len(tasks), workers))
        flattened = [task for chunk in chunks for task in chunk]
        assert flattened == tasks
        assert all(len(chunk) >= 1 for chunk in chunks)

    @given(
        tasks=st.lists(st.integers(), min_size=1, max_size=100),
        chunksize=st.integers(1, 120),
    )
    def test_explicit_chunksize_bounds_every_chunk(self, tasks, chunksize):
        chunks = _chunked(tasks, chunksize)
        assert [task for chunk in chunks for task in chunk] == tasks
        assert all(1 <= len(chunk) <= chunksize for chunk in chunks)


class TestExecutorMapping:
    def test_serial_map_preserves_order(self):
        executor = SerialExecutor()
        assert executor.map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_process_map_preserves_order(self):
        executor = ProcessPoolSweepExecutor(max_workers=2)
        tasks = [
            ReplicationTask(
                label="FACS",
                request_count=count,
                replication=0,
                config=BatchExperimentConfig(request_count=count, seed=5),
                controller_factory=facs_factory(),
            )
            for count in (5, 10, 15)
        ]
        from repro.simulation.sweep import _execute_replication

        results = executor.map(_execute_replication, tasks)
        assert [r.parameters["request_count"] for r in results] == [5.0, 10.0, 15.0]

    def test_process_map_empty_tasks(self):
        assert ProcessPoolSweepExecutor(max_workers=2).map(print, []) == []


class TestSweepDeterminism:
    @pytest.fixture(scope="class")
    def serial_sweep(self):
        return run_acceptance_sweep(
            "determinism",
            _mini_variants(),
            request_counts=(8, 20),
            replications=2,
            executor=SerialExecutor(),
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_matches_serial_byte_for_byte(self, serial_sweep, workers):
        parallel = run_acceptance_sweep(
            "determinism",
            _mini_variants(),
            request_counts=(8, 20),
            replications=2,
            executor=ProcessPoolSweepExecutor(max_workers=workers),
        )
        assert parallel == serial_sweep
        assert pickle.dumps(parallel) == pickle.dumps(serial_sweep)

    def test_default_executor_is_serial(self, serial_sweep):
        default = run_acceptance_sweep(
            "determinism", _mini_variants(), request_counts=(8, 20), replications=2
        )
        assert pickle.dumps(default) == pickle.dumps(serial_sweep)

    def test_executor_accepted_by_name(self, serial_sweep):
        named = run_acceptance_sweep(
            "determinism",
            _mini_variants(),
            request_counts=(8, 20),
            replications=2,
            executor="serial",
        )
        assert pickle.dumps(named) == pickle.dumps(serial_sweep)

    def test_rerun_is_stable_within_process(self, serial_sweep):
        again = run_acceptance_sweep(
            "determinism",
            _mini_variants(),
            request_counts=(8, 20),
            replications=2,
        )
        assert pickle.dumps(again) == pickle.dumps(serial_sweep)

    def test_invalid_executor_type_rejected(self):
        with pytest.raises(TypeError):
            run_acceptance_sweep(
                "x", _mini_variants(), request_counts=(8,), replications=1, executor=42
            )


class TestPicklability:
    def test_scenario_factories_are_picklable(self):
        for factory in (
            facs_factory(),
            facs_factory(BISECTOR_FACS),
            scc_factory(),
        ):
            clone = pickle.loads(pickle.dumps(factory))
            assert type(clone) is type(factory)
            assert clone() is not None

    def test_factory_dataclasses_compare_by_config(self):
        assert facs_factory() == FACSControllerFactory(None)
        assert scc_factory() == SCCControllerFactory(None)

    def test_replication_task_roundtrips(self):
        task = ReplicationTask(
            label="FACS",
            request_count=10,
            replication=3,
            config=BatchExperimentConfig(request_count=10, seed=1),
            controller_factory=facs_factory(),
        )
        clone = pickle.loads(pickle.dumps(task))
        assert (clone.label, clone.request_count, clone.replication) == (
            task.label,
            task.request_count,
            task.replication,
        )
        assert clone.config.seed == task.config.seed
        assert clone.config.stream_master_seed == task.config.stream_master_seed
        assert clone.controller_factory == task.controller_factory

    def test_lambda_factory_raises_helpful_error(self):
        variants = {
            "FACS": (BatchExperimentConfig(seed=1), lambda: None),
        }
        with pytest.raises(SweepExecutionError, match="picklable"):
            run_acceptance_sweep(
                "x",
                variants,
                request_counts=(5,),
                replications=1,
                executor=ProcessPoolSweepExecutor(max_workers=2),
            )

    def test_lambda_factory_still_fine_serially(self):
        from repro.cac.complete_sharing import CompleteSharingController

        variants = {"CS": (BatchExperimentConfig(seed=1), CompleteSharingController)}
        sweep = run_acceptance_sweep("x", variants, request_counts=(5,), replications=1)
        assert sweep.curve("CS").point_at(5).replications == 1
