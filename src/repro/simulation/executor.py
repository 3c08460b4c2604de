"""Pluggable executors fanning independent sweep replications across cores.

Every figure of the paper is an acceptance-vs-requests sweep whose hundreds
of replications are mutually independent: each one derives its own random
streams from ``(seed, replication)`` and shares no state with its siblings.
That makes the sweep an embarrassingly parallel collective, and the executor
abstraction here lets :func:`repro.simulation.sweep.run_acceptance_sweep`
fan the replications out without caring how they are scheduled:

* :class:`SerialExecutor` runs tasks in order in the calling process (the
  reference backend, and the default);
* :class:`ProcessPoolSweepExecutor` distributes tasks over a
  ``concurrent.futures.ProcessPoolExecutor``;
* :class:`ThreadPoolSweepExecutor` distributes tasks over a thread pool —
  no pickling and no worker start-up cost, worthwhile now that the compiled
  inference hot path spends its time in NumPy.

All backends preserve task order in their results, and because every task
carries its full seeded configuration, the assembled sweep is *identical*
regardless of backend, worker count or scheduling order — a property locked
down by ``tests/simulation/test_parallel_executor.py`` and
``tests/simulation/test_network_sweep.py``.

Parallel tasks must be picklable; the controller factories in
:mod:`repro.simulation.scenario` are dataclass callables for exactly this
reason.  Passing a lambda/closure factory raises :class:`SweepExecutionError`
with a pointer to the picklable alternatives.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Iterable, Sequence, TypeVar

from ..registry import Registry, RegistryError

__all__ = [
    "SweepExecutor",
    "SerialExecutor",
    "ProcessPoolSweepExecutor",
    "ThreadPoolSweepExecutor",
    "SweepExecutionError",
    "TaskReducer",
    "default_chunksize",
    "executor_by_name",
    "warm_up_before_fork",
    "EXECUTORS",
    "EXECUTOR_CHOICES",
]

T = TypeVar("T")
R = TypeVar("R")

_log = logging.getLogger(__name__)


def default_chunksize(task_count: int, workers: int) -> int:
    """A few chunks per worker: amortise the per-task submit/pickle cost.

    Thousand-task sweeps used to pay one pool submission (and, on
    the process backend, one pickle round) per task; batching ~4 chunks
    per worker removes that overhead without starving the pool when task
    durations vary (heavier request counts take longer).

    Always returns a valid chunksize (>= 1): degenerate plans — an empty
    task list, or more workers than tasks — collapse to chunks of one.
    """
    if task_count < 0:
        raise ValueError(f"task_count must be >= 0, got {task_count}")
    return max(1, task_count // (4 * max(workers, 1)))


def _chunked(tasks: Sequence[T], chunksize: int) -> list[Sequence[T]]:
    """Split ``tasks`` into contiguous, order-preserving chunks.

    Concatenating the chunks in order reproduces ``tasks`` exactly: every
    task appears once, in its original position.
    """
    if chunksize < 1:
        raise ValueError(f"chunksize must be >= 1, got {chunksize}")
    return [tasks[i : i + chunksize] for i in range(0, len(tasks), chunksize)]


class TaskReducer(ABC):
    """Protocol for :meth:`SweepExecutor.map_reduce` reductions.

    ``fold`` turns one chunk's per-task results into a compact partial
    (it runs *inside the worker* on the process backend, so the heavyweight
    per-task results never cross the process boundary — the pool pickles
    the partial back like any other result); ``merge`` combines the
    partials in task order in the parent.  ``merge`` over any chunking must
    equal one ``fold`` over all results — that associativity is what keeps
    reduced results byte-identical for every backend and worker count.

    Executors call these two methods structurally; implementations do not
    have to subclass (see :class:`repro.analysis.frame.FrameReducer`).
    """

    @abstractmethod
    def fold(self, results: Iterable[R]) -> Any:
        """Combine one chunk of per-task results into a partial."""

    @abstractmethod
    def merge(self, partials: Sequence[Any]) -> Any:
        """Combine the chunk partials, in task order, into the final result."""


def _map_reduce_chunk(fn, reducer, chunk):
    """Fold one chunk in a worker; module-level so process pools can pickle it."""
    return reducer.fold([fn(task) for task in chunk])


def warm_up_before_fork(
    site: str, controllers: Sequence[tuple[Callable[[], Any], Iterable[int]]]
) -> None:
    """Warm each controller configuration up before workers fork from this process.

    ``controllers`` pairs a controller factory with the bandwidths (BU) its
    requests ask for.  Under the ``fork`` start method every worker
    inherits, copy on write, what ``factory().warm_up(bandwidths)`` builds
    here, so none of them builds it again.  Under any other start method a
    worker would inherit nothing, so nothing is built.  Logs one DEBUG
    record on ``repro.simulation.executor`` naming ``site``: what was warmed
    and how long it took, or why nothing was.
    """
    method = multiprocessing.get_start_method()
    if method != "fork":
        _log.debug("%s: no warm-up, workers start by %r, not fork", site, method)
        return
    began = time.perf_counter()
    bandwidths: set[int] = set()
    for factory, wanted in controllers:
        wanted = sorted(set(wanted))
        factory().warm_up(wanted)
        bandwidths.update(wanted)
    _log.debug(
        "%s: warmed %d controllers up for bandwidths %s before forking, %.2f ms",
        site,
        len(controllers),
        sorted(bandwidths),
        1e3 * (time.perf_counter() - began),
    )


#: Registry of executor backends: name → builder ``(workers) -> SweepExecutor``.
#: Registration order defines the CLI ``--executor`` choices; aliases
#: ("parallel", "threads") resolve but stay out of the choices list.
EXECUTORS: Registry[Callable[[int | None], "SweepExecutor"]] = Registry("executor")


class SweepExecutionError(RuntimeError):
    """Raised when a sweep cannot be executed on the selected backend."""


class SweepExecutor(ABC):
    """Strategy object mapping a function over independent sweep tasks."""

    name: str = "executor"

    @abstractmethod
    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every task, returning results in task order."""

    def map_reduce(
        self, fn: Callable[[T], R], tasks: Sequence[T], reducer: TaskReducer
    ) -> Any:
        """Apply ``fn`` to every task and reduce the results via ``reducer``.

        The default (serial) implementation folds everything in one
        in-process pass; the pool backends override it to fold per chunk —
        inside the worker on the process pool, so only the chunk partials
        travel back to the parent.  Because ``reducer.merge`` over any
        chunking equals one fold over all results, the reduced value is
        identical for every backend and worker count.
        """
        return reducer.merge([reducer.fold(fn(task) for task in tasks)])

    def warm_up(
        self, site: str, controllers: Sequence[tuple[Callable[[], Any], Iterable[int]]]
    ) -> None:
        """Warm controllers up in this process before tasks that build them run.

        Only a backend whose workers inherit this process's state does
        anything (see :func:`warm_up_before_fork`); in-process backends
        build what they need on the way, as a single run does.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialExecutor(SweepExecutor):
    """Run every task in order in the calling process."""

    name = "serial"

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        return [fn(task) for task in tasks]


class ProcessPoolSweepExecutor(SweepExecutor):
    """Fan tasks out over a pool of worker processes.

    Parameters
    ----------
    max_workers:
        Number of worker processes; ``None`` uses ``os.cpu_count()``.  The
        pool never starts more workers than there are tasks.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None, chunksize: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {max_workers}")
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be at least 1, got {chunksize}")
        self.max_workers = max_workers
        self.chunksize = chunksize

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessPoolSweepExecutor(max_workers={self.max_workers})"

    _PICKLE_HINT = (
        "parallel sweep execution requires picklable tasks; controller "
        "factories must be module-level callables — use the factories in "
        "repro.simulation.scenario (e.g. facs_factory()) instead of "
        "lambdas or closures"
    )

    def _workers_for(self, task_count: int) -> int:
        workers = self.max_workers or os.cpu_count() or 1
        return min(workers, task_count)

    def _preflight(self, *payload) -> None:
        # Cheap pre-flight on one representative task; heterogeneous task
        # lists are still covered by the translation around the pool below.
        try:
            pickle.dumps(payload)
        except Exception as exc:
            raise SweepExecutionError(f"{self._PICKLE_HINT} ({exc})") from exc

    def warm_up(
        self, site: str, controllers: Sequence[tuple[Callable[[], Any], Iterable[int]]]
    ) -> None:
        """:func:`warm_up_before_fork`, once the factories are known to pickle."""
        self._preflight(*(factory for factory, _ in controllers))
        warm_up_before_fork(site, controllers)

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        tasks = list(tasks)
        if not tasks:
            return []
        self._preflight(fn, tasks[0])
        workers = self._workers_for(len(tasks))
        chunksize = self.chunksize or default_chunksize(len(tasks), workers)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, tasks, chunksize=chunksize))
        except pickle.PicklingError as exc:
            raise SweepExecutionError(f"{self._PICKLE_HINT} ({exc})") from exc

    def map_reduce(
        self, fn: Callable[[T], R], tasks: Sequence[T], reducer: TaskReducer
    ) -> Any:
        """Fold chunks inside the workers; only the chunk partials come back.

        With a reducer like :class:`repro.analysis.frame.FrameReducer`, each
        worker folds its chunk of counter rows into a columnar frame, and
        the pool pickles that frame back — the per-task result objects
        never cross the process boundary.  ``pool.map`` yields the partials
        in task order whichever worker finishes first, so they merge in
        task order and the first failing chunk, in task order, raises.
        """
        tasks = list(tasks)
        if not tasks:
            return reducer.merge([reducer.fold([])])
        self._preflight(fn, reducer, tasks[0])
        workers = self._workers_for(len(tasks))
        chunks = _chunked(
            tasks, self.chunksize or default_chunksize(len(tasks), workers)
        )
        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
                partials = list(pool.map(partial(_map_reduce_chunk, fn, reducer), chunks))
        except pickle.PicklingError as exc:
            raise SweepExecutionError(f"{self._PICKLE_HINT} ({exc})") from exc
        return reducer.merge(partials)


class ThreadPoolSweepExecutor(SweepExecutor):
    """Fan tasks out over a pool of threads in the calling process.

    The discrete-event loops are pure Python and serialise on the GIL, but
    the compiled inference engines spend their time inside NumPy kernels
    that release it, so threads overlap usefully on the now NumPy-bound hot
    path — with none of the pickling constraints or worker start-up cost of
    the process pool.  Tasks must therefore be thread-safe: the engines
    keep their scratch state in thread-local storage, and every replication
    builds its own controllers, streams and DES environment.

    Parameters
    ----------
    max_workers:
        Number of worker threads; ``None`` uses ``os.cpu_count()``.  The
        pool never starts more threads than there are tasks.
    """

    name = "thread"

    def __init__(self, max_workers: int | None = None, chunksize: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {max_workers}")
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be at least 1, got {chunksize}")
        self.max_workers = max_workers
        self.chunksize = chunksize

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadPoolSweepExecutor(max_workers={self.max_workers})"

    def _plan(self, tasks: Sequence[T]) -> tuple[int, list[Sequence[T]]]:
        workers = self.max_workers or os.cpu_count() or 1
        workers = min(workers, len(tasks))
        chunksize = self.chunksize or default_chunksize(len(tasks), workers)
        return workers, _chunked(tasks, chunksize)

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        tasks = list(tasks)
        if not tasks:
            return []
        workers, chunks = self._plan(tasks)
        # ThreadPoolExecutor.map ignores chunksize, so chunk explicitly:
        # one submission per chunk instead of one per task.
        with ThreadPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            chunked = list(pool.map(lambda chunk: [fn(t) for t in chunk], chunks))
        return [result for chunk in chunked for result in chunk]

    def map_reduce(
        self, fn: Callable[[T], R], tasks: Sequence[T], reducer: TaskReducer
    ) -> Any:
        """Fold per chunk in the pool; the partials stay in this process."""
        tasks = list(tasks)
        if not tasks:
            return reducer.merge([reducer.fold([])])
        workers, chunks = self._plan(tasks)
        with ThreadPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            partials = list(pool.map(lambda chunk: reducer.fold([fn(t) for t in chunk]), chunks))
        return reducer.merge(partials)


@EXECUTORS.register("serial")
def _build_serial(workers: int | None = None) -> SweepExecutor:
    return SerialExecutor()


@EXECUTORS.register("process", aliases=("parallel",))
def _build_process(workers: int | None = None) -> SweepExecutor:
    return ProcessPoolSweepExecutor(max_workers=workers)


@EXECUTORS.register("thread", aliases=("threads",))
def _build_thread(workers: int | None = None) -> SweepExecutor:
    return ThreadPoolSweepExecutor(max_workers=workers)


#: Import-time snapshot of the registered executor names, kept as a tuple
#: for backwards compatibility.  Live consumers (the CLI ``--executor``
#: choices, error messages) should read ``EXECUTORS.names()`` instead so
#: executors registered later are picked up.
EXECUTOR_CHOICES = EXECUTORS.names()


def executor_by_name(name: str, workers: int | None = None) -> SweepExecutor:
    """Build an executor from its registered name.

    ``"serial"`` ignores ``workers``; ``"process"`` (alias ``"parallel"``)
    and ``"thread"`` (alias ``"threads"``) forward it as the pool size.
    """
    key = name.strip().lower()
    try:
        builder = EXECUTORS.get(key)
    except RegistryError:
        raise ValueError(
            f"unknown executor {name!r}; available: {sorted(EXECUTORS.names())}"
        ) from None
    return builder(workers)
