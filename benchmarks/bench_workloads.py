"""Wall-clock benchmark: the MMPP workload sweep on the executor fast path.

The workloads subsystem replaces the hard-wired Poisson arrivals with
registered arrival-process models and multi-service classes, and its whole
value rests on two guarantees: the new draws stay a pure function of the
seeded config (so results are byte-identical for every backend and worker
count), and the per-class counters ride the same chunk-frame path the
legacy counters do (so parallel sweeps still scale).  This bench runs
the MMPP network sweep — bursty 2-state arrivals with the voice/data/video
mix — twice:

* the historical configuration: interpreted reference engine, strictly
  serial replications, and
* the fast path: compiled engine, process-pool executor —

and asserts

* identical curves between the engines (the workload draws live in the
  traffic layer, so the engine choice must not perturb a single decision),
* byte-identical sweep results across serial / thread / process backends
  at worker counts 1, 2 and 4,
* per-class admission counters present and consistent in the sweep frame
  (requested = accepted + blocked per service class), and
* a >= 2x wall-clock speedup of the fast path over the historical one.

It also writes ``results/BENCH_workloads.json`` with the timings, the QoS
numbers and the pooled per-class totals, so every CI run appends a
machine-readable point to the performance trajectory (uploaded as a
workflow artifact).
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import time
from pathlib import Path

import numpy as np

from repro.analysis.frame import class_column_names
from repro.cac.facs.system import FACSConfig
from repro.simulation import (
    NetworkExperimentConfig,
    NetworkSweepSpec,
    ProcessPoolSweepExecutor,
    ThreadPoolSweepExecutor,
    run_network_sweep,
)
from repro.simulation.scenario import facs_factory
from repro.workloads import resolve_workload

BENCH_ARRIVAL_RATES = (0.04, 0.08)
BENCH_REPLICATIONS = 4
PARALLEL_WORKERS = 4

BASE_CONFIG = NetworkExperimentConfig(
    rings=1,
    cell_radius_km=1.5,
    duration_s=900.0,
    mean_speed_kmh=60.0,
    seed=20070808,
    workload=resolve_workload("mmpp"),
)

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results" / "BENCH_workloads.json"


def _spec(engine: str) -> NetworkSweepSpec:
    return NetworkSweepSpec(
        name="bench-workloads-mmpp",
        controllers={"FACS": facs_factory(FACSConfig(engine=engine))},
        arrival_rates=BENCH_ARRIVAL_RATES,
        replications=BENCH_REPLICATIONS,
        base_config=BASE_CONFIG,
    )


def _class_totals(frame) -> dict[str, dict[str, float]]:
    """Pooled per-class counter totals of the sweep frame."""
    totals: dict[str, dict[str, float]] = {}
    for name in class_column_names(frame.class_names):
        _, service, counter = name.split(".")
        totals.setdefault(service, {})[counter] = float(
            np.nansum(frame.column(name))
        )
    return totals


def test_mmpp_workload_sweep_identity_and_speedup(benchmark):
    start = time.perf_counter()
    reference_sweep = run_network_sweep(_spec("reference"))
    reference_seconds = time.perf_counter() - start

    timing: dict[str, float] = {}

    def run_fast_path():
        start = time.perf_counter()
        sweep = run_network_sweep(
            _spec("compiled"),
            executor=ProcessPoolSweepExecutor(max_workers=PARALLEL_WORKERS),
        )
        timing["seconds"] = time.perf_counter() - start
        return sweep

    fast_sweep = benchmark.pedantic(run_fast_path, rounds=1, iterations=1)
    fast_seconds = timing["seconds"]

    # Guarantee 1: the workload draws live in the traffic layer, so the
    # engine choice must not perturb a single admission decision — every
    # MMPP sweep point agrees exactly between the engines.
    for reference_curve, fast_curve in zip(reference_sweep.curves, fast_sweep.curves):
        assert reference_curve.label == fast_curve.label
        assert reference_curve.points == fast_curve.points

    # Guarantee 2: byte-identical results across every backend and worker
    # count — the workload draws derive from the same named streams the
    # legacy path used, never from execution order.
    serial_sweep = run_network_sweep(_spec("compiled"))
    reference_bytes = pickle.dumps(serial_sweep)
    assert pickle.dumps(fast_sweep) == reference_bytes
    for workers in (1, 2, 4):
        thread_sweep = run_network_sweep(
            _spec("compiled"), executor=ThreadPoolSweepExecutor(max_workers=workers)
        )
        assert pickle.dumps(thread_sweep) == reference_bytes
    process2_sweep = run_network_sweep(
        _spec("compiled"), executor=ProcessPoolSweepExecutor(max_workers=2)
    )
    assert pickle.dumps(process2_sweep) == reference_bytes

    # Guarantee 3: the per-class counters rode the frame path intact.
    frame = serial_sweep.frame
    assert frame.class_names == ("voice", "data", "video")
    class_totals = _class_totals(frame)
    for service, counters in class_totals.items():
        assert counters["requested"] > 0, service
        assert counters["requested"] == counters["accepted"] + counters["blocked"]

    speedup = reference_seconds / fast_seconds
    payload = {
        "benchmark": "bench_workloads",
        "config": {
            "workload": "mmpp",
            "controllers": list(_spec("compiled").controllers),
            "arrival_rates_per_cell_per_s": list(BENCH_ARRIVAL_RATES),
            "replications": BENCH_REPLICATIONS,
            "duration_s": BASE_CONFIG.duration_s,
            "rings": BASE_CONFIG.rings,
            "workers": PARALLEL_WORKERS,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "timings": {
            "reference_serial_seconds": round(reference_seconds, 3),
            "compiled_parallel_seconds": round(fast_seconds, 3),
            "speedup": round(speedup, 2),
        },
        "qos": {
            label: {
                "mean_dropping_probability": round(
                    sum(curve.dropping_series()) / len(curve.points), 4
                ),
                "mean_blocking_probability": round(
                    sum(curve.blocking_series()) / len(curve.points), 4
                ),
            }
            for label, curve in (
                (curve.label, curve) for curve in serial_sweep.curves
            )
        },
        "class_totals": class_totals,
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    benchmark.extra_info.update(payload["timings"])
    benchmark.extra_info["results_file"] = str(RESULTS_PATH)
    print(
        f"\nmmpp workload sweep: reference+serial {reference_seconds:.2f}s, "
        f"compiled+parallel({PARALLEL_WORKERS}) {fast_seconds:.2f}s, "
        f"speedup {speedup:.2f}x -> {RESULTS_PATH.name}"
    )
    assert speedup >= 2.0
