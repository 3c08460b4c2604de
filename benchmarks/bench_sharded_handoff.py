"""Wall-clock benchmark: per-cell shard workers vs the coupled topology.

The coupled multi-cell engine runs the whole hex topology as one event
heap, so a rings>=3 network (37+ cells) is a single serial bottleneck no
sweep-level parallelism can touch.  The sharded engine
(``repro.simulation.shard``) runs every cell as its own one-cell
simulation and passes handoffs between shards as explicit messages.  This bench runs the
same rings=3 FACS experiment twice —

* the historical configuration: coupled engine, interpreted reference
  inference, strictly serial, and
* the scaled path: sharded engine, compiled inference, 4 process-backed
  shard workers —

and asserts

* a >= 2x wall-clock speedup of the sharded path,
* byte-identical sharded results across the serial/thread/process
  backends and worker counts 1/2/4 (the conservative-window protocol's
  headline guarantee), and
* the documented coupling invariant against the coupled run: new-call
  arrivals come from identical per-cell streams, so their count matches
  exactly even though handoff admission timing differs.

It also writes ``results/BENCH_sharded.json`` with the timings and QoS
numbers, so every CI run appends a machine-readable point to the
performance trajectory (uploaded as a workflow artifact).
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import time
from pathlib import Path

from repro.cac.facs.system import FACSConfig
from repro.simulation import (
    NetworkExperimentConfig,
    ProcessPoolSweepExecutor,
    ThreadPoolSweepExecutor,
    run_coupled_sharded_network_experiment,
    run_network_experiment,
)
from repro.simulation.scenario import facs_factory

SHARD_WORKERS = 4

BASE_CONFIG = NetworkExperimentConfig(
    rings=3,  # 37 cells — beyond what the coupled path is sized for
    cell_radius_km=1.5,
    arrival_rate_per_cell_per_s=0.03,
    duration_s=900.0,
    mean_speed_kmh=60.0,
    seed=20070629,
)

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results" / "BENCH_sharded.json"


def test_sharded_handoff_scaling(benchmark):
    start = time.perf_counter()
    coupled = run_network_experiment(BASE_CONFIG, facs_factory(FACSConfig(engine="reference")))
    coupled_seconds = time.perf_counter() - start

    compiled = facs_factory(FACSConfig(engine="compiled"))
    timing: dict[str, float] = {}

    def run_sharded_path():
        start = time.perf_counter()
        output = run_coupled_sharded_network_experiment(
            BASE_CONFIG,
            compiled,
            executor=ProcessPoolSweepExecutor(max_workers=SHARD_WORKERS),
        )
        timing["seconds"] = time.perf_counter() - start
        return output

    sharded = benchmark.pedantic(run_sharded_path, rounds=1, iterations=1)
    sharded_seconds = timing["seconds"]

    # Guarantee 1: byte-identical sharded results for every backend and
    # worker count — serial, threads and process blocks must all agree.
    reference_bytes = pickle.dumps(
        run_coupled_sharded_network_experiment(BASE_CONFIG, compiled)
    )
    assert pickle.dumps(sharded) == reference_bytes
    for workers in (1, 2, 4):
        threaded = run_coupled_sharded_network_experiment(
            BASE_CONFIG, compiled, executor=ThreadPoolSweepExecutor(max_workers=workers)
        )
        assert pickle.dumps(threaded) == reference_bytes
    process1 = run_coupled_sharded_network_experiment(
        BASE_CONFIG, compiled, executor=ProcessPoolSweepExecutor(max_workers=1)
    )
    assert pickle.dumps(process1) == reference_bytes

    # Guarantee 2: the documented delta against the coupled engine is
    # bounded — per-cell arrival streams are shared with the coupled run,
    # so the number of *new* calls must match exactly.
    coupled_new = coupled.result.metrics.requested - coupled.result.metrics.handoff_requests
    sharded_new = sharded.result.metrics.requested - sharded.result.metrics.handoff_requests
    assert sharded_new == coupled_new
    assert sharded.handoff_attempts > 0

    speedup = coupled_seconds / sharded_seconds
    metrics = sharded.result.metrics
    payload = {
        "benchmark": "bench_sharded_handoff",
        "config": {
            "rings": BASE_CONFIG.rings,
            "cells": 37,
            "arrival_rate_per_cell_per_s": BASE_CONFIG.arrival_rate_per_cell_per_s,
            "duration_s": BASE_CONFIG.duration_s,
            "shard_workers": SHARD_WORKERS,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "timings": {
            "coupled_reference_serial_seconds": round(coupled_seconds, 3),
            "sharded_compiled_process_seconds": round(sharded_seconds, 3),
            "speedup": round(speedup, 2),
        },
        "qos": {
            "requested": metrics.requested,
            "acceptance_percentage": round(metrics.acceptance_percentage, 2),
            "blocking_probability": round(metrics.blocking_probability, 4),
            "dropping_probability": round(metrics.dropping_probability, 4),
            "handoff_attempts": sharded.handoff_attempts,
            "handoff_failure_ratio": round(sharded.handoff_failure_ratio, 4),
            "mean_occupancy_bu": round(sharded.time_average_occupancy_bu, 1),
        },
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    benchmark.extra_info.update(payload["timings"])
    benchmark.extra_info["results_file"] = str(RESULTS_PATH)
    print(
        f"\nsharded handoff: coupled reference serial {coupled_seconds:.2f}s, "
        f"sharded compiled process({SHARD_WORKERS}) {sharded_seconds:.2f}s, "
        f"speedup {speedup:.2f}x -> {RESULTS_PATH.name}"
    )
    assert speedup >= 2.0
