"""Scale gate: the trace kernel at one million requests.

The trace kernel (``run_trace_arrivals(..., stream=True)``) exists for
exactly one reason: offline million-request traces should take seconds,
not minutes, without giving up a single bit of fidelity.  This bench holds
it to that contract end to end:

* **Byte-identity first.**  The discrete-event batch experiment
  (``run_trace_arrivals(config)``, the DES) is the oracle.  The kernel must
  reproduce its full :class:`~repro.simulation.trace.TraceRunResult` —
  counters and peak occupancy — on a 5,000-request trace, and again at
  the full million-request scale.  Only then is anything timed.
* **Wall clock.**  Warm (decision-screen tables built), the kernel must
  beat the DES by >= 5x on the same million-request trace.

Writes ``results/BENCH_trace.json`` (committed, and uploaded as a CI
artifact).  ``REPRO_TRACE_SCALE_REQUESTS`` scales the trace down for CI
smoke runs; the speedup gate stays the same.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from repro.simulation.config import BatchExperimentConfig
from repro.simulation.trace import run_trace_arrivals

REQUESTS = int(os.environ.get("REPRO_TRACE_SCALE_REQUESTS", "1000000"))
SEED = 7
KERNEL_ROUNDS = 2  # min-of-rounds; the DES oracle runs once (it is slow)
MIN_SPEEDUP = 5.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results" / "BENCH_trace.json"


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_trace_scale_gate(benchmark):
    # ------------------------------------------------------------------
    # Byte-identity on a small trace, peak occupancy included.
    small = BatchExperimentConfig(request_count=5_000, seed=11)
    assert run_trace_arrivals(small, stream=True) == run_trace_arrivals(small)

    # ------------------------------------------------------------------
    # The full-scale trace: equivalence at scale, then warm timings.
    config = BatchExperimentConfig(request_count=REQUESTS, seed=SEED)
    kernel_result = run_trace_arrivals(config, stream=True)

    start = time.perf_counter()
    oracle_result = run_trace_arrivals(config)
    des_seconds = time.perf_counter() - start
    assert kernel_result == oracle_result, "kernel diverged from the DES at scale"

    timing: dict[str, float] = {}

    def run_kernel():
        timing["seconds"] = min(
            _timed(lambda: run_trace_arrivals(config, stream=True))
            for _ in range(KERNEL_ROUNDS)
        )

    benchmark.pedantic(run_kernel, rounds=1, iterations=1)
    kernel_seconds = timing["seconds"]
    speedup = des_seconds / kernel_seconds

    payload = {
        "benchmark": "bench_trace_scale",
        "config": {
            "request_count": REQUESTS,
            "seed": SEED,
            "kernel_rounds": KERNEL_ROUNDS,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "timings": {
            "des_oracle_seconds": round(des_seconds, 4),
            "kernel_seconds": round(kernel_seconds, 4),
            "speedup": round(speedup, 2),
        },
        "equivalence": {
            "small_trace_requests": 5_000,
            "full_scale_byte_identical": True,
            "accepted": kernel_result.accepted,
            "completed": kernel_result.metrics.completed,
            "acceptance_percentage": round(kernel_result.acceptance_percentage, 6),
        },
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    benchmark.extra_info.update(payload["timings"])
    benchmark.extra_info["results_file"] = str(RESULTS_PATH)
    print(
        f"\ntrace scale ({REQUESTS} requests): DES {des_seconds:.2f}s, "
        f"kernel {kernel_seconds:.2f}s, speedup {speedup:.2f}x "
        f"-> {RESULTS_PATH.name}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"kernel only {speedup:.2f}x faster than the DES oracle "
        f"(gate: {MIN_SPEEDUP}x)"
    )
