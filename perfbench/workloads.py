"""The four benchmark workloads, driven through the public library surface.

Each workload builds its inputs from the seed alone, runs one *pass* (the
unit that is timed), reports the regime the pass ran in, and checks the
program's outputs.  Checks run outside the timed passes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api import (
    FigureSweepScenario,
    NetworkSweepScenario,
    Runner,
    ServiceReplayScenario,
    TraceArrivalsScenario,
    metrics_frame_from_dict,
)
from repro.cellular.traffic import PAPER_BANDWIDTH_UNITS, PAPER_TRAFFIC_MIX
from repro.simulation.config import PAPER_REQUEST_COUNTS, BatchExperimentConfig

import openloop

#: Admitted fraction outside this band means the workload measured a
#: degenerate regime: almost nothing or everything admitted.  (The service
#: at the paper's offered load admits 97-99%.)
ADMITTED_BAND = (0.20, 0.999)
#: Offline traces: the paper's 50 requests per 2000 s window.
TRACE_REQUESTS = 20_000
TRACE_BATCH_SIZE = 16
TRACE_PREFIX_REQUESTS = 2_000
#: Arrival window of the paper's single-cell figures.
PAPER_WINDOW_S = BatchExperimentConfig().arrival_window_s


def offered_bu_erlangs(requests_per_s: float) -> float:
    """Offered load per cell in BU-Erlangs for the paper's traffic mix."""
    per_request = sum(
        spec.share * spec.bandwidth_units * spec.mean_holding_time_s
        for spec in PAPER_TRAFFIC_MIX.classes.values()
    )
    return requests_per_s * per_request


def digest(payload: Any) -> str:
    """Short digest of a JSON-able output, to show results are unchanged."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class PassResult:
    """One timed pass: its wall time, work done and the program's output."""

    wall_s: float
    decisions: int
    admitted_fraction: float
    output: Any


class Workload:
    """Base of the four workloads; ``seed`` fixes every input."""

    name = ""
    #: Executor variant a traced pass runs on (``"measured"`` = as timed).
    traced_variant = "measured"
    #: Whether a pass fans out over worker processes (else it uses one CPU).
    uses_pool = False

    def __init__(self, seed: int, batch_size: int | None = None) -> None:
        self.seed = seed
        self.batch_size = batch_size

    def run_pass(self, variant: str = "measured") -> PassResult:
        raise NotImplementedError

    def regime(self, result: PassResult) -> dict[str, Any]:
        raise NotImplementedError

    def checks(self, result: PassResult) -> list[str]:
        """Correctness problems of ``result`` (empty when correct); run once."""
        raise NotImplementedError

    def pass_checks(self, result: PassResult) -> list[str]:
        """Cheap correctness problems, checked on every timed pass."""
        return []

    def output_digest(self, result: PassResult) -> str:
        return digest(result.output.metrics)

    def regime_problems(self, results: list[PassResult]) -> list[str]:
        """Problems when the passes' pooled admitted fraction is degenerate."""
        low, high = ADMITTED_BAND
        decisions = sum(r.decisions for r in results)
        fraction = sum(r.admitted_fraction * r.decisions for r in results) / decisions
        if low <= fraction <= high:
            return []
        return [
            f"admitted fraction {fraction:.4f} is outside the non-degenerate band "
            f"[{low}, {high}]"
        ]


class _ScenarioWorkload(Workload):
    """A workload whose pass is one ``Runner.run`` of a frozen scenario."""

    def scenario(self, variant: str):
        raise NotImplementedError

    def run_pass(self, variant: str = "measured") -> PassResult:
        scenario = self.scenario(variant)
        began = time.perf_counter()
        report = Runner().run(scenario)
        wall = time.perf_counter() - began
        frame = metrics_frame_from_dict(report.metrics["frame"])
        return PassResult(
            wall_s=wall,
            decisions=int(frame.column("requested").sum()),
            admitted_fraction=self.admitted(frame),
            output=report,
        )

    @staticmethod
    def admitted(frame) -> float:
        return float(frame.column("accepted").sum() / frame.column("requested").sum())


def _identity(frame, left: str, right: np.ndarray, what: str) -> list[str]:
    bad = np.flatnonzero(frame.column(left) != right)
    if bad.size == 0:
        return []
    return [f"{what} fails on {bad.size} of {len(frame)} runs (first row {int(bad[0])})"]


class Fig10Sweep(_ScenarioWorkload):
    name = "fig10-sweep"
    traced_variant = "serial"
    uses_pool = True
    workers = 2

    def scenario(self, variant: str) -> FigureSweepScenario:
        scenario = FigureSweepScenario(
            figure="fig10-facs-vs-scc",
            seed=self.seed,
            executor="process",
            workers=self.workers,
        )
        if variant == "serial":
            return dataclasses.replace(scenario, executor="serial", workers=None)
        return scenario

    def regime(self, result: PassResult) -> dict[str, Any]:
        scenario = self.scenario("measured")
        return {
            "offered_bu_erlangs_per_cell": [
                offered_bu_erlangs(min(PAPER_REQUEST_COUNTS) / PAPER_WINDOW_S),
                offered_bu_erlangs(max(PAPER_REQUEST_COUNTS) / PAPER_WINDOW_S),
            ],
            "capacity_bu": PAPER_BANDWIDTH_UNITS,
            "request_counts": list(scenario.request_counts),
            "replications": scenario.replications,
            "executor": "process",
            "workers": self.workers,
            "admitted_fraction": result.admitted_fraction,
        }

    def checks(self, result: PassResult) -> list[str]:
        serial = self.run_pass("serial").output
        problems = []
        if serial.metrics != result.output.metrics or serial.text != result.output.text:
            problems.append("the 2-worker process pool result differs from the serial result")
        frame = metrics_frame_from_dict(result.output.metrics["frame"])
        column = frame.column
        problems += _identity(
            frame,
            "requested",
            column("accepted") + column("blocked"),
            "accepted + blocked = requested",
        )
        problems += _identity(
            frame, "requested", column("request_count"), "requested = request count"
        )
        problems += _identity(frame, "completed", column("accepted"), "completed = accepted")
        return problems


class NetMobility(_ScenarioWorkload):
    name = "net-mobility"
    rate = 0.03
    rings = 3

    def scenario(self, variant: str) -> NetworkSweepScenario:
        return NetworkSweepScenario(
            controllers=("FACS",),
            arrival_rates=(self.rate,),
            replications=2,
            duration_s=900.0,
            rings=self.rings,
            seed=self.seed,
            executor="serial",
        )

    @staticmethod
    def admitted(frame) -> float:
        """New-call admitted fraction (handoff decisions excluded)."""
        new_accepted = frame.column("accepted") - frame.column("handoff_accepted")
        new_requested = frame.column("requested") - frame.column("handoff_requests")
        return float(new_accepted.sum() / new_requested.sum())

    def regime(self, result: PassResult) -> dict[str, Any]:
        return {
            "offered_bu_erlangs_per_cell": offered_bu_erlangs(self.rate),
            "capacity_bu": PAPER_BANDWIDTH_UNITS,
            "rings": self.rings,
            "cells": 1 + 3 * self.rings * (self.rings + 1),
            "executor": "serial",
            "workers": 1,
            "admitted_fraction": result.admitted_fraction,
        }

    def checks(self, result: PassResult) -> list[str]:
        frame = metrics_frame_from_dict(result.output.metrics["frame"])
        column = frame.column
        problems = _identity(
            frame,
            "requested",
            column("accepted") + column("blocked"),
            "accepted + blocked = requested",
        )
        problems += _identity(
            frame,
            "accepted",
            column("completed") + column("dropped") + column("handoff_accepted"),
            "completed + dropped + handoff accepted = accepted",
        )
        problems += _identity(
            frame, "handoff_requests", column("handoff_attempts"), "handoff requests = attempts"
        )
        if column("handoff_requests").sum() <= 0:
            problems.append("no handoffs happened, so mobility was not exercised")
        return problems


class TracePaperLoad(_ScenarioWorkload):
    name = "trace-paper-load"

    def scenario(
        self, variant: str, requests: int = TRACE_REQUESTS
    ) -> TraceArrivalsScenario:
        return TraceArrivalsScenario(
            request_count=requests,
            batch_size=self.batch_size or TRACE_BATCH_SIZE,
            arrival_window_s=openloop.PAPER_SECONDS_PER_REQUEST * requests,
            seed=self.seed,
            stream=variant != "object",
        )

    def regime(self, result: PassResult) -> dict[str, Any]:
        return {
            "offered_bu_erlangs_per_cell": offered_bu_erlangs(
                1.0 / openloop.PAPER_SECONDS_PER_REQUEST
            ),
            "capacity_bu": PAPER_BANDWIDTH_UNITS,
            "requests": TRACE_REQUESTS,
            "batch_size": self.batch_size or TRACE_BATCH_SIZE,
            "stream": True,
            "admitted_fraction": result.admitted_fraction,
        }

    def checks(self, result: PassResult) -> list[str]:
        runner = Runner()
        stream = runner.run(self.scenario("stream", TRACE_PREFIX_REQUESTS))
        oracle = runner.run(self.scenario("object", TRACE_PREFIX_REQUESTS))
        stream_metrics = {k: v for k, v in stream.metrics.items() if k != "stream"}
        problems = []
        if stream_metrics != oracle.metrics or stream.text != oracle.text:
            problems.append(
                f"stream path differs from the object path on a "
                f"{TRACE_PREFIX_REQUESTS}-request trace"
            )
        frame = metrics_frame_from_dict(result.output.metrics["frame"])
        problems += _identity(frame, "completed", frame.column("accepted"), "completed = accepted")
        return problems


class ServiceOpenLoop(Workload):
    name = "service-open-loop"

    def run_pass(self, variant: str = "measured") -> PassResult:
        """One nominal session of the open-loop generator."""
        session = openloop.run_session(
            openloop.NOMINAL_RATE, openloop.NOMINAL_REQUESTS, self.seed
        )
        report = session.report
        return PassResult(
            wall_s=session.wall_s,
            decisions=report.submitted,
            admitted_fraction=report.admitted / report.submitted,
            output=session,
        )

    def regime(self, result: PassResult) -> dict[str, Any]:
        config = openloop.SERVICE_CONFIG
        return {
            "offered_bu_erlangs_per_cell": offered_bu_erlangs(
                1.0 / openloop.PAPER_SECONDS_PER_REQUEST
            ),
            "capacity_bu": PAPER_BANDWIDTH_UNITS,
            "loop": "open",
            "rate_dps": openloop.NOMINAL_RATE,
            "requests": openloop.NOMINAL_REQUESTS,
            "service_config": dataclasses.asdict(config),
            "workers": 1,
            "admitted_fraction": result.admitted_fraction,
        }

    def pass_checks(self, result: PassResult) -> list[str]:
        return list(result.output.problems)

    def checks(self, result: PassResult) -> list[str]:
        """Every session's accounting is already checked by ``pass_checks``."""
        return []

    def output_digest(self, result: PassResult) -> str:
        """Digest of a deterministic replay (live sessions depend on timing)."""
        return digest(Runner().run(ServiceReplayScenario(seed=self.seed)).metrics)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Fig10Sweep, NetMobility, TracePaperLoad, ServiceOpenLoop)
}
