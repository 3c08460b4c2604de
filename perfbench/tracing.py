"""In-memory spans around the public calls of each layer of the FACS system.

Spans are recorded from the benchmark's own files: :func:`traced` swaps the
public functions listed in :data:`PATCHES` for wrappers while a traced pass
runs and restores the originals afterwards, so untraced passes execute the
unmodified program.  Each span keeps ``(name, start, end, parent)``; a
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


def _tasks(args, kwargs, result) -> tuple[str, int]:
    return "tasks", len(args[2])


def _folded_rows(args, kwargs, result) -> tuple[str, int]:
    return "rows", len(result)


def _candidate_rows(args, kwargs, result) -> tuple[str, int]:
    return "rows", len(args[1])


def _input_rows(args, kwargs, result) -> tuple[str, int]:
    return "rows", len(next(iter(kwargs.values())))


def _handoffs(args, kwargs, result) -> tuple[str, int]:
    return "handoff_attempts", result.handoff_attempts


#: (module, owner class or None for a module function, attribute, span name,
#: work counter or None).  A module function is patched where its caller
#: looks it up.  A counter maps ``(args, kwargs, result)`` of one call to
#: ``(suffix, amount)``, summed into ``<span name>.<suffix>``.
PATCHES = (
    ("repro.api.runner", "Runner", "run", "api.run", None),
    ("repro.api.runner", None, "run_trace_arrivals", "simulation.run_trace_arrivals", None),
    ("repro.simulation.executor", "SweepExecutor", "map_reduce", "executor.map_reduce", _tasks),
    (
        "repro.simulation.executor",
        "ProcessPoolSweepExecutor",
        "map_reduce",
        "executor.map_reduce",
        _tasks,
    ),
    (
        "repro.simulation.executor",
        "ThreadPoolSweepExecutor",
        "map_reduce",
        "executor.map_reduce",
        _tasks,
    ),
    ("repro.analysis.frame", "FrameReducer", "fold", "analysis.frame.fold", _folded_rows),
    ("repro.analysis.frame", "FrameReducer", "merge", "analysis.frame.fold", None),
    (
        "repro.analysis.frame",
        "MetricsFrame",
        "group_reduce",
        "analysis.frame.group_reduce",
        None,
    ),
    (
        "repro.simulation.batch",
        None,
        "run_batch_experiment",
        "simulation.run_batch_experiment",
        None,
    ),
    (
        "repro.simulation.trace",
        None,
        "build_trace_arrays",
        "simulation.build_trace_arrays",
        None,
    ),
    (
        "repro.simulation.engine",
        "NetworkSimulation",
        "run",
        "simulation.run_network_experiment",
        _handoffs,
    ),
    ("repro.des.environment", "Environment", "run", "des.run", None),
    ("repro.cellular.mobility", "GaussMarkovModel", "update", "cellular.mobility.update", None),
    ("repro.cellular.network", "CellularNetwork", "serving_cell", "cellular.serving_cell", None),
    ("repro.cac.facs.system", "FuzzyAdmissionControlSystem", "decide", "cac.facs.decide", None),
    (
        "repro.cac.facs.system",
        "FuzzyAdmissionControlSystem",
        "decide_columns",
        "cac.facs.decide_columns",
        _candidate_rows,
    ),
    (
        "repro.cac.facs.system",
        "FuzzyAdmissionControlSystem",
        "decide_batch",
        "cac.facs.decide_batch",
        _candidate_rows,
    ),
    ("repro.cac.facs.screen", "DecisionScreen", "build", "cac.screen.build", None),
    ("repro.cac.scc.system", "ShadowClusterController", "decide", "cac.scc.decide", None),
    (
        "repro.fuzzy.controller",
        "FuzzyController",
        "crisp_decision",
        "fuzzy.crisp_decision",
        None,
    ),
    (
        "repro.fuzzy.controller",
        "FuzzyController",
        "compute_batch",
        "fuzzy.compute_batch",
        _input_rows,
    ),
)


class Tracer:
    """Spans of one traced pass, kept in memory until the pass ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.started = time.perf_counter()
        self.finished = self.started

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            events_before = args[0].processed_events if name == "des.run" else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if name == "des.run":
                counts["des.events"] += args[0].processed_events - events_before
            if counter is not None:
                suffix, amount = counter(args, kwargs, result)
                counts[f"{name}.{suffix}"] += amount
            return result

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = table[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(table)

    def coverage(self) -> tuple[float, float]:
        """``(wall, unspanned)`` of the traced pass.

        The self times of all spans sum to the time of the root spans, so
        self times plus ``unspanned`` equal ``wall`` when spans nest.
        """
        wall = self.finished - self.started
        rooted = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return wall, wall - rooted

    def check_coverage(self, pass_wall_s: float) -> list[str]:
        """Problems with the spans of a pass that timed itself at ``pass_wall_s``.

        The root spans must fit inside the pass's own timing, and the traced
        window may exceed it only by the pass's untimed input and output
        handling, so the layer self times account for the pass.
        """
        wall, unspanned = self.coverage()
        rooted = wall - unspanned
        problems = []
        if rooted > pass_wall_s + 1e-6:
            problems.append(
                f"root spans take {rooted:.6f} s, more than the pass's own "
                f"{pass_wall_s:.6f} s: spans overlap"
            )
        if wall - pass_wall_s > 0.01 + 0.05 * pass_wall_s:
            problems.append(
                f"traced window {wall:.6f} s exceeds the pass's own {pass_wall_s:.6f} s: "
                f"the spans miss work outside the timed pass"
            )
        negative = [
            name for name, entry in self.summary().items() if entry["self_s"] < -1e-6
        ]
        if negative:
            problems.append(f"negative self time (overlapping spans) in {negative}")
        return problems

    def write(self, path: Path, workload: str, pass_index: int) -> None:
        """Append this pass's spans as JSON lines (times relative to its start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as out:
            for name, start, end, parent in self.spans:
                out.write(
                    json.dumps(
                        [
                            workload,
                            pass_index,
                            name,
                            round(start - self.started, 9),
                            round(end - self.started, 9),
                            parent,
                        ]
                    )
                    + "\n"
                )


def _resolve(module: str, owner: str | None):
    target = importlib.import_module(module)
    return target if owner is None else getattr(target, owner)


@contextlib.contextmanager
def traced():
    """Run the body with every :data:`PATCHES` entry wrapped by one tracer."""
    tracer = Tracer()
    restore = []
    try:
        for module, owner, attribute, name, counter in PATCHES:
            holder = _resolve(module, owner)
            # The raw attribute, so classmethods stay classmethods.
            original = vars(holder)[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(tracer.wrap(name, original.__func__, counter))
            else:
                replacement = tracer.wrap(name, original, counter)
            setattr(holder, attribute, replacement)
            restore.append((holder, attribute, original))
        tracer.started = time.perf_counter()
        yield tracer
        tracer.finished = time.perf_counter()
    finally:
        for holder, attribute, original in reversed(restore):
            setattr(holder, attribute, original)
