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
* **Constant parent memory.**  The streaming-fold reduce
  (:class:`~repro.analysis.frame.StreamingFrameReducer` with a spill
  directory) must keep the parent's peak RSS flat as the replication
  count grows: each chunk frame streams to the on-disk memmap format
  instead of accumulating in memory.  Measured in fresh subprocesses via
  ``VmHWM`` from ``/proc/self/status`` — no third-party profiler needed.

Writes ``results/BENCH_trace.json`` (committed, and uploaded as a CI
artifact).  ``REPRO_TRACE_SCALE_REQUESTS`` scales the trace down for CI
smoke runs; the speedup and RSS gates stay the same.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro.simulation.config import BatchExperimentConfig
from repro.simulation.trace import run_trace_arrivals

REQUESTS = int(os.environ.get("REPRO_TRACE_SCALE_REQUESTS", "1000000"))
SEED = 7
KERNEL_ROUNDS = 2  # min-of-rounds; the DES oracle runs once (it is slow)
MIN_SPEEDUP = 5.0

#: RSS gate: replications in the small/large streaming-fold subprocesses
#: (8x more rows) and the maximum tolerated peak-RSS growth between them.
RSS_ROWS_SMALL = 50_000
RSS_ROWS_LARGE = 400_000
RSS_CHUNK_ROWS = 10_000
MAX_RSS_GROWTH = 1.35

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results" / "BENCH_trace.json"

_RSS_CHILD = """
import sys, tempfile
from repro.analysis.frame import BATCH_KIND, StreamingFrameReducer, run_result_row
from repro.cellular.metrics import CallMetrics
from repro.simulation.executor import ThreadPoolSweepExecutor
from repro.simulation.results import RunResult

rows, chunk_rows, spill = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "spill"

def make_row(i):
    requested = 400 + (i * 7919) % 500
    accepted = requested - (i * 104729) % (requested // 2)
    metrics = CallMetrics(
        requested=requested, accepted=accepted, blocked=requested - accepted,
        completed=accepted, dropped=0, handoff_requests=0, handoff_accepted=0,
        accepted_bu=accepted * 2, requested_bu=requested * 2,
    )
    result = RunResult(
        controller="FACS", metrics=metrics,
        parameters={"request_count": float(requested)}, seed=i,
    )
    return run_result_row(result, label=f"rep{i % 5}", replication=i)

executor = ThreadPoolSweepExecutor(max_workers=2, chunksize=chunk_rows)
with tempfile.TemporaryDirectory() as tmp:
    reducer = StreamingFrameReducer(BATCH_KIND, spill_dir=tmp if spill else None)
    frame = executor.map_reduce(make_row, range(rows), reducer)
    assert len(frame) == rows

# Peak RSS of *this* address space.  Not getrusage's ru_maxrss: that
# counter survives exec, so a subprocess spawned via vfork/posix_spawn
# would report the parent's peak, not its own.  VmHWM is per-mm and
# resets on exec.
with open("/proc/self/status") as status:
    for line in status:
        if line.startswith("VmHWM:"):
            print(line.split()[1])
            break
"""


def _peak_rss_kb(rows: int, spill: bool) -> int:
    """Peak RSS (KiB on Linux) of a fresh streaming-fold subprocess."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            _RSS_CHILD,
            str(rows),
            str(RSS_CHUNK_ROWS),
            "spill" if spill else "memory",
        ],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return int(out.stdout.strip().splitlines()[-1])


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

    # ------------------------------------------------------------------
    # Constant parent memory in streaming-fold mode: 8x the replications
    # must not grow peak RSS past the tolerance (spill keeps the parent
    # holding one chunk at a time).
    rss_small_kb = _peak_rss_kb(RSS_ROWS_SMALL, spill=True)
    rss_large_kb = _peak_rss_kb(RSS_ROWS_LARGE, spill=True)
    rss_growth = rss_large_kb / rss_small_kb
    # In-memory contrast (not gated): the buffered fold's RSS grows with
    # the row count, which is exactly what spill mode removes.
    rss_inmem_large_kb = _peak_rss_kb(RSS_ROWS_LARGE, spill=False)

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
        "streaming_fold_rss": {
            "rows_small": RSS_ROWS_SMALL,
            "rows_large": RSS_ROWS_LARGE,
            "peak_rss_small_kb": rss_small_kb,
            "peak_rss_large_kb": rss_large_kb,
            "growth_ratio": round(rss_growth, 3),
            "in_memory_large_kb": rss_inmem_large_kb,
        },
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    benchmark.extra_info.update(payload["timings"])
    benchmark.extra_info["rss_growth_ratio"] = payload["streaming_fold_rss"][
        "growth_ratio"
    ]
    benchmark.extra_info["results_file"] = str(RESULTS_PATH)
    print(
        f"\ntrace scale ({REQUESTS} requests): DES {des_seconds:.2f}s, "
        f"kernel {kernel_seconds:.2f}s, speedup {speedup:.2f}x; "
        f"streaming-fold RSS x{rss_growth:.2f} over 8x rows "
        f"-> {RESULTS_PATH.name}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"kernel only {speedup:.2f}x faster than the DES oracle "
        f"(gate: {MIN_SPEEDUP}x)"
    )
    assert rss_growth <= MAX_RSS_GROWTH, (
        f"streaming-fold peak RSS grew {rss_growth:.2f}x over 8x rows "
        f"(gate: {MAX_RSS_GROWTH}x)"
    )
