"""Forked workers inherit their controllers' warm-up from the parent.

Where the program forks worker processes — a sweep on a
:class:`ProcessPoolSweepExecutor` and a process-backed coupled-sharded run —
the parent calls :meth:`AdmissionController.warm_up` once per controller
configuration first, so an exact FACS builds its verdict tables there and
every worker inherits them.  In-process runs and workers started by any
other method build their tables lazily instead, and no result depends on
which happened.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
from functools import lru_cache, partial

import pytest

from repro.cac.base import AdmissionController
from repro.cac.facs import screen, system
from repro.cac.facs.system import FuzzyAdmissionControlSystem
from repro.simulation import sweep
from repro.simulation.batch import run_batch_experiment_row
from repro.simulation.config import BatchExperimentConfig, NetworkExperimentConfig
from repro.simulation.executor import ProcessPoolSweepExecutor, ThreadPoolSweepExecutor
from repro.simulation.scenario import facs_factory, scc_factory
from repro.simulation.shard import run_coupled_sharded_network_experiment
from repro.simulation.sweep import NetworkSweepSpec, run_acceptance_sweep, run_network_sweep

#: The paper's traffic mix asks for 1, 5 and 10 BU.
PAPER_BANDWIDTHS = [1, 5, 10]

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)


@pytest.fixture(autouse=True)
def fresh_screens(monkeypatch):
    """Empty screen memos, so each test's parent starts without tables."""
    for module, memo in ((system, "_shared_screen"), (screen, "_shared_verdicts")):
        fresh = lru_cache(maxsize=screen._MEMO_ENTRIES)(getattr(module, memo).__wrapped__)
        monkeypatch.setattr(module, memo, fresh)


def _paper_tables():
    return FuzzyAdmissionControlSystem()._decision_screen()._verdicts


def _fig10_variants() -> dict:
    config = BatchExperimentConfig(seed=20070610)
    return {"FACS": (config, facs_factory()), "SCC": (config, scc_factory())}


def _row_and_batch_count(directory, task):
    """Run one replication, then record the batches this process's tables hold."""
    row = run_batch_experiment_row(task.config, task.controller_factory, label=task.label)
    path = directory / f"{os.getpid()}-{task.label}-{task.request_count}-{task.replication}"
    path.write_text(str(_paper_tables().batches))
    return row


def test_forked_workers_of_a_warmed_sweep_build_no_tables(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep, "_execute_replication_row", partial(_row_and_batch_count, tmp_path))
    run_acceptance_sweep(
        "fig10-style",
        _fig10_variants(),
        request_counts=(40, 100),
        replications=2,
        executor=ProcessPoolSweepExecutor(max_workers=2),
    )
    # The parent built every table of the paper's three bandwidths ...
    parent = _paper_tables()
    assert parent.batches == 3
    # ... and each of the 8 tasks ran in a forked worker that built none.
    counts = {path.name: int(path.read_text()) for path in tmp_path.iterdir()}
    assert len(counts) == 8
    assert all(not name.startswith(f"{os.getpid()}-") for name in counts)
    assert set(counts.values()) == {parent.batches}


def test_a_warmed_process_sweep_pickles_equal_to_the_serial_one(caplog):
    variants = _fig10_variants()
    with caplog.at_level(logging.DEBUG, logger="repro"):
        pooled = run_acceptance_sweep(
            "fig10-style",
            variants,
            request_counts=(40, 100),
            replications=2,
            executor=ProcessPoolSweepExecutor(max_workers=2),
        )
    serial = run_acceptance_sweep("fig10-style", variants, request_counts=(40, 100), replications=2)
    assert pickle.dumps(pooled) == pickle.dumps(serial)
    warm_ups = [r for r in caplog.records if r.name == "repro.simulation.executor"]
    assert len(warm_ups) == 1 and warm_ups[0].levelno == logging.DEBUG
    site, controllers, bandwidths, _ = warm_ups[0].args
    assert site == "acceptance sweep 'fig10-style'"
    assert (controllers, bandwidths) == (2, PAPER_BANDWIDTHS)
    batches = [r.args[:2] for r in caplog.records if r.name == "repro.cac.facs.screen"]
    assert batches == [(1.0, "warm-up"), (5.0, "warm-up"), (10.0, "warm-up")]


@pytest.fixture
def warm_ups(monkeypatch) -> list:
    """``(controller name, bandwidths)`` of every warm-up call, in any class."""
    calls = []

    def recording(original):
        def warm_up(self, bandwidths_bu):
            calls.append((self.name, list(bandwidths_bu)))
            return original(self, bandwidths_bu)

        return warm_up

    for cls in (AdmissionController, FuzzyAdmissionControlSystem):
        monkeypatch.setattr(cls, "warm_up", recording(cls.warm_up))
    return calls


def _network_spec() -> NetworkSweepSpec:
    return NetworkSweepSpec(
        name="net",
        controllers={"FACS": facs_factory(), "SCC": scc_factory()},
        arrival_rates=(0.03,),
        replications=2,
        base_config=NetworkExperimentConfig(rings=1, duration_s=120.0, seed=3),
    )


def test_each_fork_site_warms_each_controller_up_once(warm_ups):
    run_acceptance_sweep(
        "x", _fig10_variants(), request_counts=(10,), replications=2, executor="process"
    )
    assert warm_ups == [("FACS", PAPER_BANDWIDTHS), ("SCC", PAPER_BANDWIDTHS)]
    warm_ups.clear()
    run_network_sweep(_network_spec(), executor=ProcessPoolSweepExecutor(max_workers=2))
    assert warm_ups == [("FACS", PAPER_BANDWIDTHS), ("SCC", PAPER_BANDWIDTHS)]
    warm_ups.clear()
    config = NetworkExperimentConfig(rings=1, duration_s=60.0, seed=3)
    run_coupled_sharded_network_experiment(config, facs_factory(), executor="process")
    assert warm_ups == [("FACS", PAPER_BANDWIDTHS)]


@pytest.mark.parametrize("executor", ["serial", ThreadPoolSweepExecutor(max_workers=2)])
def test_in_process_runs_never_warm_up(warm_ups, executor):
    run_acceptance_sweep(
        "x", _fig10_variants(), request_counts=(10,), replications=2, executor=executor
    )
    run_network_sweep(_network_spec(), executor=executor)
    config = NetworkExperimentConfig(rings=1, duration_s=60.0, seed=3)
    run_coupled_sharded_network_experiment(config, facs_factory(), executor=executor)
    assert warm_ups == []


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_other_start_methods_never_warm_up(warm_ups, monkeypatch, caplog, method):
    # Only the start method the fork sites read is replaced; the pools
    # still fork, so the runs stay quick.
    monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: method)
    with caplog.at_level(logging.DEBUG, logger="repro.simulation.executor"):
        run_acceptance_sweep(
            "x", _fig10_variants(), request_counts=(10,), replications=2, executor="process"
        )
        config = NetworkExperimentConfig(rings=1, duration_s=60.0, seed=3)
        run_coupled_sharded_network_experiment(config, facs_factory(), executor="process")
    assert warm_ups == []
    assert _paper_tables().batches == 0
    messages = [r.getMessage() for r in caplog.records]
    assert messages == [
        f"acceptance sweep 'x': no warm-up, workers start by {method!r}, not fork",
        f"coupled-sharded run: no warm-up, workers start by {method!r}, not fork",
    ]
