"""Per-cell shards with message-passing handoffs.

The coupled :class:`~repro.simulation.engine.NetworkSimulation` runs the
whole hexagonal topology as one explicit event heap: a handoff is a
synchronous method call that touches two cells' state in the same process.
That is faithful but unscalable — the topology cannot be split across
workers because every cell shares one event list, one mobility stream and
one call-id counter.

This module is the distributed shape of the same experiment: every cell of
the topology runs as its own *shard* — a
:class:`~repro.simulation.engine.NetworkSimulation` that owns that one cell,
its controller instance, its event heap and its named random streams — and
handoffs travel between shards as explicit
:class:`~repro.simulation.engine.HandoffMessage` values.  A shard runs the
coupled engine's own handlers; it changes no other shard's state.

Determinism is the headline guarantee, achieved with a conservative
time-window protocol:

* The coordinator advances simulated time in windows of ``window_s``
  (default: the mobility update interval).  Within a window every shard
  simulates independently; a call crossing a cell boundary releases its
  bandwidth at the source and becomes a buffered outbound message.
* At the window barrier the coordinator routes all messages, and each
  shard drains its inbound queue in the canonical
  ``(time, source_cell, call_id)`` order before simulating the next
  window.  The admission attempt at the target cell happens at the
  barrier instant.

Because each shard's evolution is a pure function of its seeded
configuration and its canonically ordered inbound messages, the run output
is **byte-identical across the serial and process backends at any worker
count**.  At ``rings=0`` (a single cell, no handoffs) the shard engine
reproduces the coupled :func:`run_network_experiment` output exactly, bit
for bit — the anchor the equivalence tests lock down.  At ``rings>=1`` the
results are *near* the coupled run but not identical, for two documented
reasons: the coupled engine draws all calls' mobility from one shared
stream in global event order (shards each own a per-cell mobility stream),
and handoff admission is deferred from the crossing instant to the next
window barrier (the call holds bandwidth in neither cell while in transit,
and its holding clock freezes until delivery).
``tests/simulation/test_shard.py`` quantifies the delta: per-cell new-call
arrival schedules are stream-identical to the coupled run at any rings.

Under the ``fork`` start method the coordinator warms the controller up
before it starts the shard workers (a FACS builds its decision screen's
verdict tables for the run's bandwidths), so every worker inherits them.
Under any other start method each worker builds its own screen, and a
bandwidth's tables only on the hundred-odd-th verdict asked there, so a
worker that asks few verdicts mostly scores them exactly.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
from typing import Sequence

from ..analysis.frame import FrameRow, network_output_row
from ..cellular.network import CellularNetwork, hex_cell_count
from .config import NetworkExperimentConfig
from .engine import (
    ControllerFactory,
    HandoffMessage,
    NetworkRunOutput,
    NetworkSimulation,
    ShardOutcome,
    merge_outcomes,
)
from .executor import (
    ProcessPoolSweepExecutor,
    SerialExecutor,
    SweepExecutionError,
    SweepExecutor,
    ThreadPoolSweepExecutor,
    executor_by_name,
    warm_up_before_fork,
)

__all__ = [
    "CoupledShardedNetworkSimulation",
    "run_coupled_sharded_network_experiment",
    "run_coupled_sharded_network_experiment_row",
]


def _build_shards(
    config: NetworkExperimentConfig,
    controller_factory: ControllerFactory,
    cell_ids: Sequence[int],
) -> dict[int, NetworkSimulation]:
    """One single-cell simulation per cell id, all sharing one layout."""
    network = CellularNetwork(
        rings=config.rings,
        cell_radius_km=config.cell_radius_km,
        capacity_bu=config.capacity_bu,
        cell_capacities=config.cell_capacities,
    )
    return {
        cell_id: NetworkSimulation(config, controller_factory, (cell_id,), network)
        for cell_id in cell_ids
    }


def _step(
    shards: dict[int, NetworkSimulation],
    until: float,
    inbound: dict[int, list[HandoffMessage]],
) -> tuple[list[HandoffMessage], bool]:
    """Step every shard to ``until``; return their messages and whether any is busy."""
    outbox: list[HandoffMessage] = []
    for cell_id, shard in shards.items():
        outbox.extend(shard.step_to(until, inbound.get(cell_id, ())))
    return outbox, any(shard.busy for shard in shards.values())


def _partition(items: list[int], parts: int) -> list[list[int]]:
    """Deterministic contiguous near-equal blocks (worker-count invariant)."""
    parts = max(1, min(parts, len(items)))
    base, extra = divmod(len(items), parts)
    blocks: list[list[int]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        blocks.append(items[start : start + size])
        start += size
    return blocks


def _route(messages: list[HandoffMessage]) -> dict[int, list[HandoffMessage]]:
    """Per-target inbound queues in canonical ``(time, source, id)`` order."""
    inbound: dict[int, list[HandoffMessage]] = {}
    for message in sorted(messages, key=lambda m: m.sort_key):
        inbound.setdefault(message.target_cell, []).append(message)
    return inbound


def _shard_worker(connection, config, controller_factory, cell_ids) -> None:
    """Process-backend worker: owns a block of shards for the whole run."""
    try:
        shards = _build_shards(config, controller_factory, cell_ids)
        while True:
            command = connection.recv()
            if command[0] == "step":
                _, until, inbound = command
                connection.send(("ok", *_step(shards, until, inbound)))
            elif command[0] == "finish":
                connection.send(("ok", [shard.outcome() for shard in shards.values()]))
                return
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown shard command {command[0]!r}")
    except BaseException as exc:  # pragma: no cover - transport for the parent
        try:
            connection.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        raise


class CoupledShardedNetworkSimulation:
    """Coordinator of one sharded-but-coupled multi-cell run.

    Builds one single-cell :class:`~repro.simulation.engine.NetworkSimulation`
    per cell of the topology, advances them in conservative windows of
    ``window_s`` simulated seconds and routes
    :class:`~repro.simulation.engine.HandoffMessage` values between them at
    each barrier.  The ``executor`` selects *where the shards live* (reusing
    the sweep executor vocabulary): :class:`SerialExecutor` steps them
    in-process in cell order, and :class:`ProcessPoolSweepExecutor`
    partitions the cells into contiguous blocks owned by persistent worker
    processes (actor-style — shard state never crosses the process
    boundary, only messages and final counters do).  A
    :class:`ThreadPoolSweepExecutor` steps them in-process too: the shards
    are pure Python, so threads under the GIL would only add switching, and
    the output is the same either way.
    """

    def __init__(
        self,
        config: NetworkExperimentConfig,
        controller_factory: ControllerFactory,
        executor: SweepExecutor | str | None = None,
        window_s: float | None = None,
    ):
        if window_s is not None and not (0 < window_s < math.inf):
            raise ValueError(f"window_s must be positive and finite, got {window_s}")
        self._config = config
        self._controller_factory = controller_factory
        self._window_s = window_s if window_s is not None else config.mobility_update_s
        self._backend, self._workers = _backend_of(executor)

    # ------------------------------------------------------------------
    def run(self) -> NetworkRunOutput:
        """Execute the sharded run and return the merged network output."""
        if self._backend == "process":
            outcomes = self._run_process()
        else:
            outcomes = self._run_serial()
        return merge_outcomes(self._config, sorted(outcomes, key=lambda o: o.cell_id))

    # -- backends --------------------------------------------------------
    def _windows(self):
        """Barrier times: ``window_s`` steps up to the coupled horizon."""
        horizon = self._config.duration_s * 3.0
        t = 0.0
        while t < horizon:
            t = min(t + self._window_s, horizon)
            yield t

    def _run_serial(self) -> list[ShardOutcome]:
        cell_ids = range(1, hex_cell_count(self._config.rings) + 1)
        shards = _build_shards(self._config, self._controller_factory, cell_ids)
        inbound: dict[int, list[HandoffMessage]] = {}
        for until in self._windows():
            outbox, busy = _step(shards, until, inbound)
            inbound = _route(outbox)
            if not inbound and not busy:
                break
        return [shard.outcome() for shard in shards.values()]

    def _run_process(self) -> list[ShardOutcome]:
        config, factory = self._config, self._controller_factory
        try:
            pickle.dumps((config, factory))
        except Exception as exc:
            raise SweepExecutionError(
                "sharded process execution requires picklable configs and "
                "controller factories; use the module-level factories in "
                f"repro.simulation.scenario ({exc})"
            ) from exc
        warm_up_before_fork(
            "coupled-sharded run",
            [(factory, config.effective_traffic_mix().bandwidth_by_code().tolist())],
        )
        cell_ids = list(range(1, hex_cell_count(config.rings) + 1))
        blocks = _partition(cell_ids, self._pool_size())
        context = multiprocessing.get_context()
        workers = []
        try:
            for block in blocks:
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_shard_worker,
                    args=(child_end, config, factory, block),
                    daemon=True,
                )
                process.start()
                child_end.close()
                workers.append((process, parent_end, block))

            inbound: dict[int, list[HandoffMessage]] = {}
            for until in self._windows():
                for _, connection, block in workers:
                    connection.send(
                        ("step", until, {cid: inbound.get(cid, []) for cid in block})
                    )
                outbox: list[HandoffMessage] = []
                busy = False
                for _, connection, _ in workers:
                    reply = connection.recv()
                    if reply[0] != "ok":
                        raise SweepExecutionError(f"shard worker failed: {reply[1]}")
                    outbox.extend(reply[1])
                    busy = busy or reply[2]
                inbound = _route(outbox)
                if not inbound and not busy:
                    break

            outcomes: list[ShardOutcome] = []
            for _, connection, _ in workers:
                connection.send(("finish",))
            for _, connection, _ in workers:
                reply = connection.recv()
                if reply[0] != "ok":
                    raise SweepExecutionError(f"shard worker failed: {reply[1]}")
                outcomes.extend(reply[1])
            return outcomes
        finally:
            for process, connection, _ in workers:
                connection.close()
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()
                    process.join()

    # -- helpers ---------------------------------------------------------
    def _pool_size(self) -> int:
        cells = hex_cell_count(self._config.rings)
        return min(self._workers or os.cpu_count() or 1, cells)


def _backend_of(executor: SweepExecutor | str | None) -> tuple[str, int | None]:
    """Map the sweep-executor vocabulary onto a shard backend + pool size.

    Threads map to the in-process loop: the shards are pure Python.
    """
    if executor is None:
        return "serial", None
    if isinstance(executor, str):
        executor = executor_by_name(executor)
    if isinstance(executor, (SerialExecutor, ThreadPoolSweepExecutor)):
        return "serial", None
    if isinstance(executor, ProcessPoolSweepExecutor):
        return "process", executor.max_workers
    raise TypeError(
        f"executor must be a SweepExecutor, an executor name or None, "
        f"got {type(executor).__name__}"
    )


def run_coupled_sharded_network_experiment(
    config: NetworkExperimentConfig,
    controller_factory: ControllerFactory,
    executor: SweepExecutor | str | None = None,
    window_s: float | None = None,
) -> NetworkRunOutput:
    """Run one multi-cell experiment with per-cell shards.

    The message-passing counterpart of
    :func:`~repro.simulation.engine.run_network_experiment`: handoff
    coupling is preserved (departing calls are admitted by the neighbour
    shard), but every cell runs as an isolated actor, so the topology
    scales across the ``executor``'s worker processes.  The output is
    byte-identical for every backend and worker count.
    """
    return CoupledShardedNetworkSimulation(
        config, controller_factory, executor=executor, window_s=window_s
    ).run()


def run_coupled_sharded_network_experiment_row(
    config: NetworkExperimentConfig,
    controller_factory: ControllerFactory,
    label: str | None = None,
    executor: SweepExecutor | str | None = None,
    window_s: float | None = None,
) -> FrameRow:
    """Run one sharded experiment and emit its compact counter row."""
    output = run_coupled_sharded_network_experiment(
        config, controller_factory, executor=executor, window_s=window_s
    )
    return network_output_row(output, label=label, replication=config.replication)
