"""One fresh benchmark process, started by ``perfbench/run.py``.

Two roles:

* ``probe``: the first pass runs cold (interpreter, imports, controller
  builds, screen tables, pool start), then warm passes run until the time
  budget is spent.  The last probe of a run also checks the outputs, stamps
  the regime and, for the service, climbs the rate ladder.
* ``trace``: a cold traced pass (for one-off set-up spans), then rounds of
  an untraced and a traced pass on the same executor.  Spans are written to
  ``--spans`` at the end; the per-layer metrics are medians over rounds.

The result is one JSON line on stdout, prefixed by :data:`RESULT_PREFIX`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import openloop  # noqa: E402
from calibration import calibration_rate  # noqa: E402
from run import RESULT_PREFIX, nearest_rank  # noqa: E402
from tracing import Tracer, traced  # noqa: E402
from workloads import WORKLOADS, PassResult, Workload  # noqa: E402

#: Span name prefix -> layer, for the self-time breakdown.
LAYERS = ("api", "executor", "analysis", "simulation", "des", "cellular", "cac", "fuzzy")


def peak_rss_mb() -> float:
    """High-water resident set size in MiB of this process or of any of its
    finished children (the pool workers of a process executor), whichever
    is larger."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return max(int(line.split()[1]) / 1024.0, children)
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, children)


def cheap_problems(workload: Workload, results: list[PassResult]) -> list[str]:
    """Checks every timed pass gets; the costly ones run once per run."""
    problems = workload.regime_problems(results)
    for result in results:
        problems += workload.pass_checks(result)
    return problems


def probe(workload: Workload, budget: float, final: bool) -> dict:
    workload.run_pass()
    cold_end = time.monotonic()
    cold_rate = calibration_rate()
    warm: list[PassResult] = []
    rates: list[float] = []
    began = time.perf_counter()
    while True:
        before = calibration_rate()
        result = workload.run_pass()
        rates.append((before + calibration_rate()) / 2.0)
        warm.append(result)
        spent = time.perf_counter() - began
        if spent + spent / len(warm) > budget:
            break
    out: dict = {
        "cold_end": cold_end,
        "cold_rate": cold_rate,
        "walls": [r.wall_s for r in warm],
        "rates": rates,
        "decisions": [r.decisions for r in warm],
        "rss_mb": peak_rss_mb(),
        "problems": cheap_problems(workload, warm),
    }
    sessions = [r.output for r in warm if isinstance(r.output, openloop.Session)]
    if sessions:
        out["latencies_ms"] = np.concatenate([s.latencies_ms for s in sessions]).tolist()
        out["due_latencies_ms"] = np.concatenate(
            [s.due_latencies_ms for s in sessions]
        ).tolist()
        out["queue_waits_ms"] = np.concatenate([s.queue_waits_ms for s in sessions]).tolist()
        out["late_ms"] = np.concatenate([s.late_ms for s in sessions]).tolist()
        out["shed"] = sum(s.report.shed for s in sessions)
        out["latency_limit_ms"] = openloop.LATENCY_LIMIT_MS
    if final:
        last = warm[-1]
        out["problems"] += workload.checks(last)
        out["regime"] = workload.regime(last)
        out["digest"] = workload.output_digest(last)
        if sessions:
            rate, rungs = openloop.max_rate(workload.seed)
            out["max_rate_dps"] = rate
            out["rungs"] = rungs
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counts."""
    table = tracer.summary()
    counts = tracer.counts

    def get(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0)

    def per(numerator: float, denominator: float, scale: float = 1e6) -> float:
        return scale * numerator / denominator if denominator else 0.0

    m: dict[str, float] = {
        "api.run.self_s": get("api.run", "self_s"),
        "executor.map_reduce.wall_s": get("executor.map_reduce", "busy_s"),
        "executor.tasks": counts["executor.map_reduce.tasks"],
        "analysis.frame.fold.self_s": get("analysis.frame.fold", "self_s"),
        "analysis.frame.group_reduce.busy_s": get("analysis.frame.group_reduce", "busy_s"),
        "analysis.frame.rows": counts["analysis.frame.fold.rows"],
        "simulation.run_batch_experiment.calls": get("simulation.run_batch_experiment", "calls"),
        "simulation.run_batch_experiment.busy_s": get(
            "simulation.run_batch_experiment", "busy_s"
        ),
        "simulation.build_trace_arrays.busy_s": get("simulation.build_trace_arrays", "busy_s"),
        "simulation.run_network_experiment.busy_s": get(
            "simulation.run_network_experiment", "busy_s"
        ),
        "simulation.run_trace_arrivals.self_s": get("simulation.run_trace_arrivals", "self_s"),
        "des.events": counts["des.events"],
        "des.run.self_s": get("des.run", "self_s"),
        "des.self_us_per_event": per(get("des.run", "self_s"), counts["des.events"]),
        "cellular.handoff_attempts": counts["simulation.run_network_experiment.handoff_attempts"],
    }
    for span in ("cellular.mobility.update", "cellular.serving_cell"):
        m[f"{span}.calls"] = get(span, "calls")
        m[f"{span}.busy_s"] = get(span, "busy_s")
    for span in ("cac.facs.decide", "cac.scc.decide"):
        m[f"{span}.calls"] = get(span, "calls")
        m[f"{span}.busy_s"] = get(span, "busy_s")
        m[f"{span}.us_per_call"] = per(get(span, "busy_s"), get(span, "calls"))
    for span in ("cac.facs.decide_columns", "cac.facs.decide_batch", "fuzzy.compute_batch"):
        m[f"{span}.calls"] = get(span, "calls")
        m[f"{span}.rows"] = counts[f"{span}.rows"]
        m[f"{span}.busy_s"] = get(span, "busy_s")
    m["cac.facs.decide_columns.us_per_row"] = per(
        get("cac.facs.decide_columns", "busy_s"), counts["cac.facs.decide_columns.rows"]
    )
    m["fuzzy.crisp_decision.calls"] = get("fuzzy.crisp_decision", "calls")
    m["fuzzy.crisp_decision.busy_s"] = get("fuzzy.crisp_decision", "busy_s")
    wall, unspanned = tracer.coverage()
    m["trace.wall_s"] = wall
    m["trace.unspanned_s"] = unspanned
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in table.items() if name.split(".")[0] == layer
        )
    return m


def service_metrics(session: openloop.Session) -> dict[str, float]:
    """Batching and queueing of one untraced nominal session."""
    report = session.report
    batches = max(report.batch_count, 1)
    mean_batch = report.decided / batches
    return {
        "service.queue_wait_p50_ms": nearest_rank(session.queue_waits_ms, 50),
        "service.queue_wait_p99_ms": nearest_rank(session.queue_waits_ms, 99),
        "loadgen.due_latency_p99_ms": nearest_rank(session.due_latencies_ms, 99),
        "service.batch_size": mean_batch,
        "service.batch_fill": mean_batch / report.config.max_batch,
        "service.size_flush_frac": report.size_flushes / batches,
        "service.shed": report.shed,
        "loadgen.late_p99_ms": nearest_rank(session.late_ms, 99),
    }


def trace_session(workload: Workload, budget: float, spans: Path) -> dict:
    spans.parent.mkdir(parents=True, exist_ok=True)
    spans.write_text("")
    variant = workload.traced_variant
    with traced() as tracer:
        workload.run_pass(variant)
    tracer.write(spans, workload.name, -1)
    cold = tracer.summary()
    screen_build_s = cold.get("cac.screen.build", {}).get("busy_s", 0.0)
    cold_columns_s = cold.get("cac.facs.decide_columns", {}).get("busy_s", 0.0)

    rounds: list[dict[str, float]] = []
    untraced_walls: list[float] = []
    traced_results: list[PassResult] = []
    problems: list[str] = []
    spent = 0.0
    while True:
        began = time.perf_counter()
        untraced = workload.run_pass(variant)
        untraced_walls.append(untraced.wall_s)
        metrics: dict[str, float] = {}
        if variant != "measured":
            measured = workload.run_pass("measured")
            metrics["executor.speedup"] = untraced.wall_s / measured.wall_s
            metrics["executor.efficiency"] = metrics["executor.speedup"] / workload.workers
        with traced() as tracer:
            result = workload.run_pass(variant)
        problems += tracer.check_coverage(result.wall_s)
        traced_results.append(result)
        tracer.write(spans, workload.name, len(rounds))
        metrics.update(layer_metrics(tracer))
        if isinstance(untraced.output, openloop.Session):
            metrics.update(service_metrics(untraced.output))
        rounds.append(metrics)
        round_s = time.perf_counter() - began
        spent += round_s
        if len(rounds) >= 2 and spent + round_s > budget:
            break
    names = sorted({name for metrics in rounds for name in metrics})
    per_layer = {
        name: statistics.median(metrics.get(name, 0.0) for metrics in rounds) for name in names
    }
    per_layer["cac.screen.build_s"] = screen_build_s
    per_layer["cac.facs.decide_columns.cold_busy_s"] = cold_columns_s
    per_layer["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - per_layer["trace.untraced_wall_s"]
    per_layer["trace.overhead_frac"] = (
        per_layer["trace.overhead_s"] / per_layer["trace.untraced_wall_s"]
    )
    problems += cheap_problems(workload, traced_results) + workload.checks(result)
    return {
        "per_layer": per_layer,
        "rounds": len(rounds),
        "problems": problems,
        "regime": workload.regime(result),
        "digest": workload.output_digest(result),
        "spans": str(spans.relative_to(ROOT)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("probe", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of timed passes")
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--final", action="store_true", help="also check outputs (probe)")
    parser.add_argument("--cpu", type=int, help="CPU to pin a single-process workload to")
    parser.add_argument("--spans", type=Path, help="span output file (trace)")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed, args.batch_size)
    if args.cpu is not None and not workload.uses_pool:
        # The calibration then measures the one CPU the passes run on.
        os.sched_setaffinity(0, {args.cpu})
    if args.role == "probe":
        out = probe(workload, args.budget, args.final)
    else:
        out = trace_session(workload, args.budget, args.spans)
    print(RESULT_PREFIX + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
