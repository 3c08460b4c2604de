"""Wall-clock benchmark: columnar frame aggregation vs pickled dataclasses.

The refactor gate of the MetricsFrame result core.  A many-replication
network sweep produces thousands of per-run outputs whose *aggregation +
IPC* path used to be: process workers pickle whole ``NetworkRunOutput``
dataclass trees back to the parent, which walks them in pure-Python
aggregation loops.  The frame path folds the runs into a columnar
``MetricsFrame`` inside the worker, which the pool pickles back as one
chunk frame, and reduces vectorized groups in the parent.

This bench isolates exactly that path: the run outputs are synthesized
once (deterministically — the simulation itself is benched elsewhere),
then both pipelines replay the same worker-chunked aggregation:

* **baseline** — per chunk: ``pickle.dumps``/``loads`` the output list
  (the worker -> parent hop), then per-point ``aggregate_network_runs``;
* **frame** — per chunk: fold rows into a ``MetricsFrame`` and
  ``pickle.dumps``/``loads`` it (the worker -> parent hop), then
  ``concat`` + ``group_reduce``.

Asserted invariants:

* the frame path is >= 2x faster end to end,
* its per-point statistics equal the legacy loops **exactly** (dataclass
  equality, which is bitwise for the float fields), and
* the pickled chunk frame never references ``NetworkRunOutput`` — the
  worker ships columns, not dataclass trees.

Writes ``results/BENCH_frame.json`` with the timings (uploaded as a CI
artifact alongside ``BENCH_multicell.json``).
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import random
import time
from pathlib import Path

from repro.analysis.frame import MetricsFrame, network_output_row
from repro.cellular.metrics import CallMetrics
from repro.simulation.engine import NetworkRunOutput
from repro.simulation.results import RunResult, aggregate_network_runs
from repro.simulation.sweep import _sweep_ordinals

CONTROLLERS = ("FACS", "SCC")
ARRIVAL_RATES = (0.01, 0.02, 0.03, 0.04, 0.05)
REPLICATIONS = 600  # per (controller, rate) point -> 6000 runs total
CHUNKS = 8  # simulated worker chunks of the process pool
ROUNDS = 5  # timing rounds per pipeline; the minimum is reported

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results" / "BENCH_frame.json"


def synthesize_outputs() -> list[NetworkRunOutput]:
    """Deterministic many-replication sweep outputs, no simulation needed."""
    rng = random.Random(20070627)
    outputs: list[NetworkRunOutput] = []
    for controller in CONTROLLERS:
        for rate in ARRIVAL_RATES:
            for replication in range(REPLICATIONS):
                requested = rng.randint(400, 900)
                accepted = rng.randint(requested // 2, requested)
                handoffs = rng.randint(0, 120)
                handoffs_ok = rng.randint(0, handoffs)
                dropped = rng.randint(0, accepted // 10)
                metrics = CallMetrics(
                    requested=requested,
                    accepted=accepted,
                    blocked=requested - accepted,
                    completed=accepted - dropped,
                    dropped=dropped,
                    handoff_requests=handoffs,
                    handoff_accepted=handoffs_ok,
                    accepted_bu=accepted * 2,
                    requested_bu=requested * 2,
                )
                result = RunResult(
                    controller=controller,
                    metrics=metrics,
                    parameters={
                        "rings": 1.0,
                        "cells": 7.0,
                        "arrival_rate_per_cell_per_s": rate,
                        "duration_s": 1200.0,
                    },
                    seed=20070627 + replication,
                )
                outputs.append(
                    NetworkRunOutput(
                        result=result,
                        handoff_attempts=handoffs,
                        handoff_failures=handoffs - handoffs_ok,
                        completed_calls=accepted - dropped,
                        dropped_calls=dropped,
                        time_average_occupancy_bu=rng.uniform(50.0, 250.0),
                    )
                )
    return outputs


def chunked(items, chunks):
    size = (len(items) + chunks - 1) // chunks
    return [items[i : i + size] for i in range(0, len(items), size)]


def baseline_pipeline(outputs):
    """Pickled-dataclass IPC + pure-Python per-point aggregation loops."""
    received: list[NetworkRunOutput] = []
    for chunk in chunked(outputs, CHUNKS):
        received.extend(pickle.loads(pickle.dumps(chunk)))  # worker -> parent hop
    aggregates = []
    for start in range(0, len(received), REPLICATIONS):
        aggregates.append(aggregate_network_runs(received[start : start + REPLICATIONS]))
    return aggregates


def frame_pipeline(outputs):
    """Columnar fold in the 'worker', pickled chunk frames, vectorized reduce."""
    partials = []
    for chunk in chunked(outputs, CHUNKS):
        rows = [network_output_row(output) for output in chunk]  # worker side
        frame = MetricsFrame.from_rows("network", rows)
        partials.append(pickle.loads(pickle.dumps(frame)))  # worker -> parent hop
    frame = MetricsFrame.concat(partials)
    frame = frame.with_ordinals(
        *_sweep_ordinals(len(CONTROLLERS), len(ARRIVAL_RATES), REPLICATIONS)
    )
    groups = frame.group_reduce(("curve", "point"))
    return [group.to_network_aggregated_result() for group in groups]


def test_frame_aggregation_speedup(benchmark):
    outputs = synthesize_outputs()

    # Equivalence first: identical per-point statistics, bit for bit.
    baseline_aggregates = baseline_pipeline(outputs)
    frame_aggregates = frame_pipeline(outputs)
    assert frame_aggregates == baseline_aggregates

    # The worker payload must not smuggle dataclass trees: the pickled
    # chunk frame (what a process-pool worker returns) never references
    # the run output class.
    first_chunk = chunked(outputs, CHUNKS)[0]
    rows = [network_output_row(output) for output in first_chunk]
    wire_bytes = pickle.dumps(MetricsFrame.from_rows("network", rows))
    assert b"NetworkRunOutput" not in wire_bytes

    baseline_seconds = min(
        _timed(baseline_pipeline, outputs) for _ in range(ROUNDS)
    )

    timing: dict[str, float] = {}

    def run_frame_path():
        timing["seconds"] = min(_timed(frame_pipeline, outputs) for _ in range(ROUNDS))

    benchmark.pedantic(run_frame_path, rounds=1, iterations=1)
    frame_seconds = timing["seconds"]
    speedup = baseline_seconds / frame_seconds

    payload = {
        "benchmark": "bench_frame_aggregation",
        "config": {
            "controllers": list(CONTROLLERS),
            "arrival_rates": list(ARRIVAL_RATES),
            "replications_per_point": REPLICATIONS,
            "runs": len(outputs),
            "worker_chunks": CHUNKS,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "timings": {
            "pickled_dataclass_seconds": round(baseline_seconds, 4),
            "pickled_frame_seconds": round(frame_seconds, 4),
            "speedup": round(speedup, 2),
        },
        "wire_bytes": {
            "pickled_chunk": len(pickle.dumps(first_chunk)),
            "pickled_chunk_frame": len(wire_bytes),
        },
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    benchmark.extra_info.update(payload["timings"])
    benchmark.extra_info["results_file"] = str(RESULTS_PATH)
    print(
        f"\nframe aggregation: pickled dataclasses {baseline_seconds:.3f}s, "
        f"pickled frames {frame_seconds:.3f}s, speedup {speedup:.2f}x "
        f"-> {RESULTS_PATH.name}"
    )
    assert speedup >= 2.0


def _timed(fn, outputs) -> float:
    start = time.perf_counter()
    fn(outputs)
    return time.perf_counter() - start
