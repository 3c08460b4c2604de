"""Tests of the workload seam through the simulation paths.

Two families of guarantees:

* the ``poisson`` workload is **byte-identical** to no workload at all on
  every path (batch, network, sweep) — the legacy draw sequences are
  reproduced exactly;
* the bursty workloads stay byte-identical across serial, thread and
  process executors, and their per-class admission counters ride the
  frame into :meth:`MetricsFrame.group_reduce`.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.frame import MetricsFrame, class_column_names
from repro.cac.complete_sharing import CompleteSharingController
from repro.cac.facs.system import FuzzyAdmissionControlSystem
from repro.cellular.traffic import ServiceClass
from repro.simulation import (
    BatchExperimentConfig,
    NetworkExperimentConfig,
    NetworkSweepSpec,
    ProcessPoolSweepExecutor,
    ThreadPoolSweepExecutor,
    run_batch_experiment,
    run_network_experiment,
    run_network_sweep,
)
from repro.simulation.batch import run_batch_experiment_row
from repro.simulation.scenario import facs_factory
from repro.workloads import WORKLOADS

POISSON = WORKLOADS.get("poisson")
MMPP = WORKLOADS.get("mmpp")


def batch_config(workload=None) -> BatchExperimentConfig:
    return BatchExperimentConfig(request_count=60, seed=11, workload=workload)


def network_config(workload=None) -> NetworkExperimentConfig:
    return NetworkExperimentConfig(
        rings=1, duration_s=300.0, arrival_rate_per_cell_per_s=0.05, seed=11,
        workload=workload,
    )


def sweep_spec(workload=None) -> NetworkSweepSpec:
    return NetworkSweepSpec(
        name="workload-paths",
        controllers={"FACS": facs_factory()},
        arrival_rates=(0.05,),
        replications=2,
        base_config=network_config(workload),
    )


class TestPoissonIsByteIdenticalToLegacy:
    def test_batch_path(self):
        legacy = run_batch_experiment(batch_config(None), CompleteSharingController)
        poisson = run_batch_experiment(batch_config(POISSON), CompleteSharingController)
        assert pickle.dumps(poisson) == pickle.dumps(legacy)

    def test_batch_trace_path(self):
        legacy = run_batch_experiment(
            batch_config(None), CompleteSharingController, collect_trace=True
        )
        poisson = run_batch_experiment(
            batch_config(POISSON), CompleteSharingController, collect_trace=True
        )
        assert pickle.dumps(poisson) == pickle.dumps(legacy)

    def test_network_path(self):
        legacy = run_network_experiment(network_config(None), CompleteSharingController)
        poisson = run_network_experiment(
            network_config(POISSON), CompleteSharingController
        )
        assert pickle.dumps(poisson) == pickle.dumps(legacy)

    def test_network_sweep_path(self):
        legacy = run_network_sweep(sweep_spec(None))
        poisson = run_network_sweep(sweep_spec(POISSON))
        assert pickle.dumps(poisson) == pickle.dumps(legacy)


class TestExecutorIdentity:
    def test_mmpp_sweep_identical_across_backends_and_worker_counts(self):
        reference = pickle.dumps(run_network_sweep(sweep_spec(MMPP)))
        for workers in (1, 3):
            threaded = run_network_sweep(
                sweep_spec(MMPP), executor=ThreadPoolSweepExecutor(max_workers=workers)
            )
            assert pickle.dumps(threaded) == reference
        pooled = run_network_sweep(
            sweep_spec(MMPP), executor=ProcessPoolSweepExecutor(max_workers=2)
        )
        assert pickle.dumps(pooled) == reference

    def test_mmpp_sweep_identical_without_the_screen(self, monkeypatch):
        # Without its decision screen FACS scores every new call's verdict
        # exactly (ExactColumns), so the screen cannot perturb a decision.
        screened = run_network_sweep(sweep_spec(MMPP))
        monkeypatch.setattr(FuzzyAdmissionControlSystem, "_decision_screen", lambda self: None)
        exact = run_network_sweep(sweep_spec(MMPP))
        for left, right in zip(screened.curves, exact.curves):
            assert left.points == right.points


class TestPerClassCounters:
    def test_batch_output_carries_class_counters(self):
        output = run_batch_experiment(batch_config(MMPP), CompleteSharingController)
        assert output.class_names == ("voice", "data", "video")
        values = dict(zip(class_column_names(output.class_names), output.class_values))
        requested = sum(values[f"class.{s}.requested"] for s in output.class_names)
        assert requested == output.result.metrics.requested
        for service in output.class_names:
            assert values[f"class.{service}.requested"] == (
                values[f"class.{service}.accepted"] + values[f"class.{service}.blocked"]
            )

    def test_legacy_runs_carry_no_class_counters(self):
        output = run_batch_experiment(batch_config(None), CompleteSharingController)
        assert output.class_names == ()
        assert output.class_values == ()

    def test_workload_mix_drives_the_service_split(self):
        output = run_batch_experiment(batch_config(MMPP), CompleteSharingController)
        per_service = output.result.metrics  # totals only; use the collector split
        values = dict(zip(class_column_names(output.class_names), output.class_values))
        # data has the largest share (0.45) of the preset mix.
        assert values["class.data.requested"] > values["class.video.requested"]
        assert per_service.requested == 60

    def test_sweep_frame_exposes_class_columns_and_group_totals(self):
        sweep = run_network_sweep(sweep_spec(MMPP))
        frame = sweep.frame
        assert frame.class_names == ("voice", "data", "video")
        for name in class_column_names(frame.class_names):
            assert not np.isnan(frame.column(name)).any()
        for service in frame.class_names:
            total = {
                counter: frame.column(f"class.{service}.{counter}").sum()
                for counter in ("requested", "accepted", "blocked")
            }
            assert total["requested"] > 0, service
            assert total["requested"] == total["accepted"] + total["blocked"]
        groups = frame.group_reduce()
        assert groups
        for group in groups:
            assert group.class_totals is not None
            for service in frame.class_names:
                blocking = group.class_blocking_probability(service)
                dropping = group.class_dropping_probability(service)
                assert 0.0 <= blocking <= 1.0
                assert 0.0 <= dropping <= 1.0

    def test_group_without_class_counters_raises_keyerror(self):
        sweep = run_network_sweep(sweep_spec(None))
        group = sweep.frame.group_reduce()[0]
        assert group.class_totals is None
        with pytest.raises(KeyError):
            group.class_blocking_probability("voice")

    def test_mixed_frames_nan_fill_legacy_rows(self):
        legacy_row = run_batch_experiment_row(
            batch_config(None), CompleteSharingController, label="legacy"
        )
        workload_row = run_batch_experiment_row(
            batch_config(MMPP), CompleteSharingController, label="mmpp"
        )
        frame = MetricsFrame.from_rows("batch", [legacy_row, workload_row])
        assert frame.class_names == ("voice", "data", "video")
        column = frame.column("class.voice.requested")
        assert np.isnan(column[0])
        assert not np.isnan(column[1])

    def test_effective_traffic_mix_prefers_the_workload(self):
        legacy = network_config(None)
        workload = network_config(MMPP)
        poisson = network_config(POISSON)
        assert legacy.effective_traffic_mix() is legacy.traffic_mix
        assert poisson.effective_traffic_mix() is poisson.traffic_mix
        assert set(workload.effective_traffic_mix().classes) == {
            ServiceClass.VOICE,
            ServiceClass.DATA,
            ServiceClass.VIDEO,
        }

    def test_workload_replaces_through_dataclasses_replace(self):
        config = network_config(MMPP)
        bumped = replace(config, arrival_rate_per_cell_per_s=0.2)
        assert bumped.workload is MMPP
