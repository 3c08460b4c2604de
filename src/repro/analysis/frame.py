"""Columnar, numpy-backed result core: the :class:`MetricsFrame`.

Every headline artifact of the paper (Figs. 7-10, the controller tables)
is an *aggregation over many replications*, yet the result path used to
shuttle per-run dataclass trees around: process workers pickled whole
``NetworkRunOutput`` objects back to the parent and the aggregation loops
walked them in pure Python.  The :class:`MetricsFrame` replaces that with
a compact columnar record store — one row per run, fixed-dtype numpy
columns for the counters and parameters, interned string vocabularies for
curve labels and controller ids — that

* builds from run results (:meth:`MetricsFrame.from_run_results`) or
  multi-cell outputs (:meth:`MetricsFrame.from_network_outputs`),
* concatenates row-wise in task order (:meth:`MetricsFrame.concat`),
* reduces per group (:meth:`MetricsFrame.group_reduce`, mean/std/CI per
  controller x parameter group) with **bit-identical** arithmetic to the
  historical ``aggregate_runs``/``aggregate_network_runs`` loops
  (the shared spec lives in :func:`repro.analysis.stats.series_mean` /
  :func:`~repro.analysis.stats.series_sample_std`), and
* folds inside the worker (:class:`FrameReducer`), so a process-pool
  worker pickles back one chunk frame — a handful of flat arrays — instead
  of a list of dataclass trees, the same move NIC-side collective
  aggregation makes: reduce where the data is.

The legacy dataclasses (``RunResult``, ``AggregatedResult``,
``NetworkAggregatedResult``, ``NetworkRunOutput``) survive as thin views
over frame rows: :meth:`MetricsFrame.run_result`,
:meth:`MetricsFrame.network_output` and :meth:`FrameGroup.to_aggregated_result`
reconstruct them exactly, so every renderer keeps its exact output.

Import discipline: this module must not import anything from
``repro.simulation`` at module scope (the simulation layer imports the
frame on its hot path); the view constructors import the dataclasses
lazily instead.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ..cellular.metrics import CallMetrics
from .stats import series_mean, series_sample_std

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (simulation imports us)
    from ..simulation.engine import NetworkRunOutput
    from ..simulation.results import (
        AggregatedResult,
        NetworkAggregatedResult,
        RunResult,
    )

__all__ = [
    "BATCH_KIND",
    "NETWORK_KIND",
    "CLASS_COUNTER_FIELDS",
    "class_column_names",
    "FrameGroup",
    "FrameReducer",
    "FrameRow",
    "MetricsFrame",
    "network_output_row",
    "run_result_row",
]

#: Frame kinds: single-cell batch runs vs multi-cell network runs (which
#: carry the extra handoff/occupancy columns).
BATCH_KIND = "batch"
NETWORK_KIND = "network"

#: Per-run call counters (CallMetrics fields), one int64 column each.
COUNTER_COLUMNS: tuple[str, ...] = CallMetrics.COUNTER_FIELDS
#: Extra counters of a multi-cell run, one int64 column each.
NETWORK_COUNTER_COLUMNS: tuple[str, ...] = (
    "handoff_attempts",
    "handoff_failures",
    "completed_calls",
    "dropped_calls",
)
#: Time-average occupancy of a multi-cell run (float64).
OCCUPANCY_COLUMN = "time_average_occupancy_bu"
#: Optional ordinal columns the sweeps attach for positional grouping.
ORDINAL_COLUMNS: tuple[str, ...] = ("curve", "point")

#: Prefix separating parameter columns from the fixed schema in the
#: internal column dict (a parameter may not shadow e.g. "controller").
_PARAM_PREFIX = "param."

#: Prefix of the optional per-service-class counter columns
#: (``class.<service>.<counter>``), attached only by workload runs.
_CLASS_PREFIX = "class."

#: Per-class counters a workload run attaches, one float64 column per
#: (service class, counter) pair; NaN marks rows without class counters.
CLASS_COUNTER_FIELDS: tuple[str, ...] = (
    "requested",
    "accepted",
    "blocked",
    "dropped",
    "completed",
)


def class_column_names(class_names: Sequence[str]) -> tuple[str, ...]:
    """Column names of the per-class counters for ``class_names``."""
    return tuple(
        f"{_CLASS_PREFIX}{service}.{counter}"
        for service in class_names
        for counter in CLASS_COUNTER_FIELDS
    )

#: Derived per-row rate columns, computed lazily from the counters.
_DERIVED = ("acceptance_percentage", "blocking_probability", "dropping_probability")
_NETWORK_DERIVED = ("handoff_failure_ratio",)


class FrameRow(NamedTuple):
    """One run's compact counter row — the only thing workers emit.

    Plain strings, ints and floats: cheap to build inside a worker and
    cheap to fold into a chunk-local :class:`MetricsFrame` there, so the
    heavyweight run outputs never cross a process boundary.  Parameter
    names and values are parallel tuples (not pairs) so a whole chunk of
    rows transposes into columns with one ``zip(*rows)``.
    """

    label: str
    controller: str
    seed: int
    replication: int
    param_names: tuple[str, ...]
    param_values: tuple[float, ...]
    counters: tuple[int, ...]
    network: tuple[int, int, int, int] | None
    occupancy: float | None
    #: Service-class names of the per-class counters (empty for legacy
    #: runs) and the counter values, flattened class-major over
    #: :data:`CLASS_COUNTER_FIELDS`.
    class_names: tuple[str, ...] = ()
    class_values: tuple[float, ...] = ()

    @property
    def parameters(self) -> dict[str, float]:
        """The row's parameters as a mapping (convenience view)."""
        return dict(zip(self.param_names, self.param_values))


def run_result_row(
    result: "RunResult",
    label: str | None = None,
    replication: int = 0,
    class_names: tuple[str, ...] = (),
    class_values: tuple[float, ...] = (),
) -> FrameRow:
    """Counter row of one single-cell :class:`~repro.simulation.results.RunResult`.

    Per-row hot path: no defensive coercions here — parameter values are
    floats by the :class:`RunResult` contract, and :meth:`MetricsFrame.from_rows`
    coerces to the fixed column dtypes anyway.
    """
    # tuple.__new__ skips the NamedTuple keyword wrapper: this runs once
    # per replication and the wrapper is measurable at sweep scale.  It
    # also skips field defaults, so the class fields are spelled out.
    return tuple.__new__(
        FrameRow,
        (
            result.controller if label is None else label,
            result.controller,
            result.seed,
            replication,
            tuple(result.parameters),
            tuple(result.parameters.values()),
            result.metrics.as_counters(),
            None,
            None,
            class_names,
            class_values,
        ),
    )


def network_output_row(
    output: "NetworkRunOutput", label: str | None = None, replication: int = 0
) -> FrameRow:
    """Counter row of one :class:`~repro.simulation.engine.NetworkRunOutput`."""
    result = output.result
    return tuple.__new__(
        FrameRow,
        (
            result.controller if label is None else label,
            result.controller,
            result.seed,
            replication,
            tuple(result.parameters),
            tuple(result.parameters.values()),
            result.metrics.as_counters(),
            (
                output.handoff_attempts,
                output.handoff_failures,
                output.completed_calls,
                output.dropped_calls,
            ),
            output.time_average_occupancy_bu,
            output.class_names,
            output.class_values,
        ),
    )


def _encode(values: Sequence[str], vocab: dict[str, int]) -> np.ndarray:
    """Int32 codes of ``values``, filling ``vocab`` in first-appearance order.

    Single-value sequences (the common worker-chunk shape) skip the
    per-element dict walk.
    """
    if len(set(values)) == 1:
        vocab[values[0]] = 0
        return np.zeros(len(values), dtype=np.int32)
    return np.array(
        [vocab.setdefault(v, len(vocab)) for v in values], dtype=np.int32
    )


@dataclass(frozen=True)
class FrameGroup:
    """One (controller x parameter) group of a :meth:`MetricsFrame.group_reduce`.

    Carries the replication statistics of the group — computed with the
    exact arithmetic of the historical aggregation loops — plus enough
    context (controller, label, first-row parameters) to re-express the
    legacy aggregate dataclasses as views via
    :meth:`to_aggregated_result`/:meth:`to_network_aggregated_result`.
    """

    key: tuple[Any, ...]
    label: str
    controller: str
    parameters: Mapping[str, float]
    replications: int
    row_indices: tuple[int, ...]
    mean_acceptance_percentage: float
    std_acceptance_percentage: float
    mean_blocking_probability: float
    mean_dropping_probability: float
    mean_handoff_failure_ratio: float | None = None
    mean_handoff_attempts: float | None = None
    mean_occupancy_bu: float | None = None
    #: Per-service-class counter totals over the group's rows
    #: (``"<service>.<counter>"`` -> sum, NaN rows skipped), or ``None``
    #: when the frame carries no class columns.
    class_totals: Mapping[str, float] | None = None

    def class_blocking_probability(self, service: str) -> float:
        """Per-class new-call blocking (ratio of group sums)."""
        totals = self._class_totals_for(service)
        requested = totals[f"{service}.requested"]
        return totals[f"{service}.blocked"] / requested if requested else 0.0

    def class_dropping_probability(self, service: str) -> float:
        """Per-class dropping of admitted calls (ratio of group sums)."""
        totals = self._class_totals_for(service)
        accepted = totals[f"{service}.accepted"]
        return totals[f"{service}.dropped"] / accepted if accepted else 0.0

    def _class_totals_for(self, service: str) -> Mapping[str, float]:
        if self.class_totals is None or f"{service}.requested" not in self.class_totals:
            raise KeyError(
                f"group has no per-class counters for service {service!r}"
            )
        return self.class_totals

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-theory CI of the mean acceptance percentage."""
        return self.to_aggregated_result().confidence_interval(z)

    def to_aggregated_result(self) -> "AggregatedResult":
        """This group as the legacy single-cell aggregate dataclass."""
        from ..simulation.results import AggregatedResult

        return AggregatedResult(
            controller=self.controller,
            parameters=dict(self.parameters),
            replications=self.replications,
            mean_acceptance_percentage=self.mean_acceptance_percentage,
            std_acceptance_percentage=self.std_acceptance_percentage,
            mean_blocking_probability=self.mean_blocking_probability,
            mean_dropping_probability=self.mean_dropping_probability,
        )

    def to_network_aggregated_result(self) -> "NetworkAggregatedResult":
        """This group as the legacy multi-cell aggregate dataclass."""
        if self.mean_handoff_failure_ratio is None:
            raise ValueError(
                "this group was reduced from a batch frame; network QoS "
                "means exist only for network-kind frames"
            )
        from ..simulation.results import NetworkAggregatedResult

        return NetworkAggregatedResult(
            controller=self.controller,
            parameters=dict(self.parameters),
            replications=self.replications,
            mean_acceptance_percentage=self.mean_acceptance_percentage,
            std_acceptance_percentage=self.std_acceptance_percentage,
            mean_blocking_probability=self.mean_blocking_probability,
            mean_dropping_probability=self.mean_dropping_probability,
            mean_handoff_failure_ratio=self.mean_handoff_failure_ratio,
            mean_handoff_attempts=self.mean_handoff_attempts,
            mean_occupancy_bu=self.mean_occupancy_bu,
        )


class MetricsFrame:
    """Compact columnar store of per-run counters and parameters.

    Construction goes through the classmethods (:meth:`from_rows`,
    :meth:`from_run_results`, :meth:`from_network_outputs`,
    :meth:`concat`, :meth:`from_columns`); rows stay in insertion (task)
    order throughout, which is what keeps sweep results byte-identical
    for every executor backend and worker count.
    """

    __slots__ = (
        "kind",
        "label_vocab",
        "controller_vocab",
        "param_names",
        "class_names",
        "_columns",
    )

    def __init__(
        self,
        kind: str,
        columns: Mapping[str, np.ndarray],
        label_vocab: Sequence[str],
        controller_vocab: Sequence[str],
        param_names: Sequence[str],
        class_names: Sequence[str] = (),
    ):
        if kind not in (BATCH_KIND, NETWORK_KIND):
            raise ValueError(f"unknown frame kind {kind!r}")
        self.kind = kind
        # Interned vocabularies: equal-valued frames then pickle to
        # identical bytes whether their rows were built in-process or
        # unpickled from a worker (same reasoning as SweepCurve).
        self.label_vocab = tuple(sys.intern(str(v)) for v in label_vocab)
        self.controller_vocab = tuple(sys.intern(str(v)) for v in controller_vocab)
        self.param_names = tuple(sys.intern(str(v)) for v in param_names)
        self.class_names = tuple(sys.intern(str(v)) for v in class_names)
        spec = self._column_spec(self.kind, self.param_names, self.class_names)
        missing = [name for name in spec if name not in columns]
        extra = sorted(set(columns) - set(spec) - set(ORDINAL_COLUMNS))
        if missing or extra:
            raise ValueError(
                f"frame columns mismatch: missing {missing}, unexpected {extra}"
            )
        ordered: dict[str, np.ndarray] = {}
        length: int | None = None
        names = list(spec) + [c for c in ORDINAL_COLUMNS if c in columns]
        for name in names:
            dtype = spec.get(name, np.int64)
            array = np.ascontiguousarray(columns[name], dtype=dtype)
            if array.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D, got shape {array.shape}")
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise ValueError(
                    f"column {name!r} has {len(array)} rows, expected {length}"
                )
            ordered[name] = array
        self._columns = ordered

    # ------------------------------------------------------------------
    @staticmethod
    @lru_cache(maxsize=128)
    def _column_spec(
        kind: str,
        param_names: tuple[str, ...],
        class_names: tuple[str, ...] = (),
    ) -> dict[str, type]:
        spec: dict[str, type] = {
            "label": np.int32,
            "controller": np.int32,
            "seed": np.int64,
            "replication": np.int64,
        }
        for name in COUNTER_COLUMNS:
            spec[name] = np.int64
        if kind == NETWORK_KIND:
            for name in NETWORK_COUNTER_COLUMNS:
                spec[name] = np.int64
            spec[OCCUPANCY_COLUMN] = np.float64
        for name in param_names:
            spec[_PARAM_PREFIX + name] = np.float64
        for name in class_column_names(class_names):
            spec[name] = np.float64
        return spec

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._columns["label"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsFrame):
            return NotImplemented
        if (
            self.kind != other.kind
            or self.label_vocab != other.label_vocab
            or self.controller_vocab != other.controller_vocab
            or self.param_names != other.param_names
            or self.class_names != other.class_names
            or set(self._columns) != set(other._columns)
        ):
            return False
        # Bitwise column comparison: NaN parameter slots compare equal.
        return all(
            self._columns[name].tobytes() == other._columns[name].tobytes()
            for name in self._columns
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsFrame(kind={self.kind!r}, rows={len(self)}, "
            f"labels={len(self.label_vocab)}, params={list(self.param_names)})"
        )

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """Name -> column array (the arrays themselves, not copies)."""
        return dict(self._columns)

    def column(self, name: str) -> np.ndarray:
        """One raw column; parameter columns go by their bare name."""
        if name in self.param_names:
            name = _PARAM_PREFIX + name
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"frame has no column {name!r}; available: {self.column_names()}"
            ) from None

    def column_names(self) -> list[str]:
        return [
            name[len(_PARAM_PREFIX):] if name.startswith(_PARAM_PREFIX) else name
            for name in self._columns
        ]

    @property
    def has_ordinals(self) -> bool:
        return all(name in self._columns for name in ORDINAL_COLUMNS)

    def labels(self) -> list[str]:
        """Per-row curve labels (decoded)."""
        return [self.label_vocab[code] for code in self._columns["label"].tolist()]

    def controllers(self) -> list[str]:
        """Per-row controller ids (decoded)."""
        return [
            self.controller_vocab[code]
            for code in self._columns["controller"].tolist()
        ]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, kind: str, rows: Iterable[FrameRow]) -> "MetricsFrame":
        """Build a frame from counter rows, preserving row order.

        Bulk construction: one ``zip(*rows)`` transposes the whole chunk
        into per-field columns at C speed, and the numeric families
        convert through single 2-D ``np.array`` calls — this is the
        worker-side fold of every sweep, so it must stay cheap at
        thousands of rows.
        """
        rows = list(rows)
        n = len(rows)
        if n == 0:
            return cls(kind, cls._empty_columns(kind), (), (), ())
        (
            labels,
            controllers,
            seeds,
            replication_ids,
            name_tuples,
            value_tuples,
            counter_tuples,
            network_tuples,
            occupancies,
            class_name_tuples,
            class_value_tuples,
        ) = zip(*rows)

        label_vocab: dict[str, int] = {}
        controller_vocab: dict[str, int] = {}
        columns: dict[str, np.ndarray] = {
            "label": _encode(labels, label_vocab),
            "controller": _encode(controllers, controller_vocab),
            "seed": np.array(seeds, dtype=np.int64),
            "replication": np.array(replication_ids, dtype=np.int64),
        }
        counters = np.fromiter(
            itertools.chain.from_iterable(counter_tuples),
            dtype=np.int64,
            count=n * len(COUNTER_COLUMNS),
        ).reshape(n, len(COUNTER_COLUMNS))
        for offset, name in enumerate(COUNTER_COLUMNS):
            columns[name] = counters[:, offset]
        if kind == NETWORK_KIND:
            if None in network_tuples or None in occupancies:
                raise ValueError(
                    "network-kind frames need the handoff counters and "
                    "occupancy on every row (got a batch row)"
                )
            network = np.fromiter(
                itertools.chain.from_iterable(network_tuples),
                dtype=np.int64,
                count=n * len(NETWORK_COUNTER_COLUMNS),
            ).reshape(n, len(NETWORK_COUNTER_COLUMNS))
            for offset, name in enumerate(NETWORK_COUNTER_COLUMNS):
                columns[name] = network[:, offset]
            columns[OCCUPANCY_COLUMN] = np.array(occupancies, dtype=np.float64)
        elif any(value is not None for value in network_tuples):
            raise ValueError(
                "batch-kind frames cannot hold network rows; build the frame "
                f"with kind={NETWORK_KIND!r}"
            )
        param_names = cls._fill_param_columns(name_tuples, value_tuples, n, columns)
        class_names = cls._fill_class_columns(
            class_name_tuples, class_value_tuples, n, columns
        )
        return cls(
            kind,
            columns,
            tuple(label_vocab),
            tuple(controller_vocab),
            param_names,
            class_names,
        )

    @staticmethod
    def _empty_columns(kind: str) -> dict[str, np.ndarray]:
        return {
            name: np.array([], dtype=dtype)
            for name, dtype in MetricsFrame._column_spec(kind, ()).items()
        }

    @staticmethod
    def _fill_param_columns(
        name_tuples: Sequence[tuple[str, ...]],
        value_tuples: Sequence[tuple[float, ...]],
        n: int,
        columns: dict[str, np.ndarray],
    ) -> tuple[str, ...]:
        """Add the parameter columns to ``columns``.

        Fast path: every row of a sweep carries the same parameter-name
        tuple (checked with one set build over cached-hash tuples), so
        the values convert as one 2-D array.  Heterogeneous rows (mixed
        frames) fall back to per-row fills with NaN for absent
        parameters.
        """
        distinct = set(name_tuples)
        if len(distinct) == 1:
            names = name_tuples[0]
            if names:
                values = np.fromiter(
                    itertools.chain.from_iterable(value_tuples),
                    dtype=np.float64,
                    count=n * len(names),
                ).reshape(n, len(names))
                for offset, name in enumerate(names):
                    columns[_PARAM_PREFIX + name] = values[:, offset]
            return names
        param_names: dict[str, None] = {}
        for names in name_tuples:
            for name in names:
                param_names.setdefault(name, None)
        filled = {
            name: np.full(n, np.nan, dtype=np.float64) for name in param_names
        }
        for i, (names, values) in enumerate(zip(name_tuples, value_tuples)):
            for name, value in zip(names, values):
                filled[name][i] = value
        for name, values in filled.items():
            columns[_PARAM_PREFIX + name] = values
        return tuple(param_names)

    @staticmethod
    def _fill_class_columns(
        name_tuples: Sequence[tuple[str, ...]],
        value_tuples: Sequence[tuple[float, ...]],
        n: int,
        columns: dict[str, np.ndarray],
    ) -> tuple[str, ...]:
        """Add the per-class counter columns to ``columns``.

        Mirrors :meth:`_fill_param_columns`: the all-rows-identical case
        (including the all-legacy ``()`` case, which adds nothing)
        converts as one 2-D array; mixed frames NaN-fill per row.
        """
        distinct = set(name_tuples)
        if len(distinct) == 1:
            class_names = name_tuples[0]
            if class_names:
                column_names = class_column_names(class_names)
                values = np.fromiter(
                    itertools.chain.from_iterable(value_tuples),
                    dtype=np.float64,
                    count=n * len(column_names),
                ).reshape(n, len(column_names))
                for offset, name in enumerate(column_names):
                    columns[name] = values[:, offset]
            return class_names
        class_names_union: dict[str, None] = {}
        for names in name_tuples:
            for name in names:
                class_names_union.setdefault(name, None)
        filled = {
            name: np.full(n, np.nan, dtype=np.float64)
            for name in class_column_names(tuple(class_names_union))
        }
        for i, (names, values) in enumerate(zip(name_tuples, value_tuples)):
            for name, value in zip(class_column_names(names), values):
                filled[name][i] = value
        columns.update(filled)
        return tuple(class_names_union)

    @classmethod
    def from_run_results(
        cls,
        runs: Sequence["RunResult"],
        labels: Sequence[str] | None = None,
        replications: Sequence[int] | None = None,
    ) -> "MetricsFrame":
        """Build a batch-kind frame, one row per :class:`RunResult`."""
        return cls.from_rows(
            BATCH_KIND, cls._result_rows(run_result_row, runs, labels, replications)
        )

    @classmethod
    def from_network_outputs(
        cls,
        outputs: Sequence["NetworkRunOutput"],
        labels: Sequence[str] | None = None,
        replications: Sequence[int] | None = None,
    ) -> "MetricsFrame":
        """Build a network-kind frame, one row per :class:`NetworkRunOutput`."""
        return cls.from_rows(
            NETWORK_KIND,
            cls._result_rows(network_output_row, outputs, labels, replications),
        )

    @staticmethod
    def _result_rows(row_fn, results, labels, replications) -> list[FrameRow]:
        if labels is not None and len(labels) != len(results):
            raise ValueError(
                f"{len(labels)} labels for {len(results)} results"
            )
        if replications is not None and len(replications) != len(results):
            raise ValueError(
                f"{len(replications)} replication indices for {len(results)} results"
            )
        return [
            row_fn(
                result,
                label=None if labels is None else labels[i],
                replication=0 if replications is None else replications[i],
            )
            for i, result in enumerate(results)
        ]

    @classmethod
    def concat(cls, frames: Sequence["MetricsFrame"]) -> "MetricsFrame":
        """Stack frames row-wise, preserving order and merging vocabularies."""
        frames = list(frames)
        if not frames:
            raise ValueError("cannot concatenate an empty list of frames")
        if len(frames) == 1:
            return frames[0]
        kinds = {frame.kind for frame in frames}
        if len(kinds) != 1:
            raise ValueError(f"frames mix kinds: {sorted(kinds)}")
        ordinal_presence = {frame.has_ordinals for frame in frames}
        if len(ordinal_presence) != 1:
            raise ValueError("cannot concatenate frames with and without ordinals")
        kind = frames[0].kind
        label_vocab: dict[str, int] = {}
        controller_vocab: dict[str, int] = {}
        param_names: dict[str, None] = {}
        class_names: dict[str, None] = {}
        for frame in frames:
            for value in frame.label_vocab:
                label_vocab.setdefault(value, len(label_vocab))
            for value in frame.controller_vocab:
                controller_vocab.setdefault(value, len(controller_vocab))
            for name in frame.param_names:
                param_names.setdefault(name, None)
            for name in frame.class_names:
                class_names.setdefault(name, None)

        def remapped(frame: "MetricsFrame", column: str, vocab: dict[str, int],
                     source: tuple[str, ...]) -> np.ndarray:
            remap = np.array([vocab[v] for v in source], dtype=np.int32)
            codes = frame._columns[column]
            return remap[codes] if len(remap) else codes

        columns: dict[str, np.ndarray] = {}
        spec = cls._column_spec(kind, tuple(param_names), tuple(class_names))
        names = list(spec) + (list(ORDINAL_COLUMNS) if frames[0].has_ordinals else [])
        for name in names:
            parts = []
            for frame in frames:
                if name == "label":
                    parts.append(remapped(frame, name, label_vocab, frame.label_vocab))
                elif name == "controller":
                    parts.append(
                        remapped(frame, name, controller_vocab, frame.controller_vocab)
                    )
                elif name in frame._columns:
                    parts.append(frame._columns[name])
                else:  # parameter/class column absent in this frame
                    parts.append(np.full(len(frame), np.nan, dtype=np.float64))
            columns[name] = np.concatenate(parts) if parts else np.array([])
        return cls(
            kind,
            columns,
            tuple(label_vocab),
            tuple(controller_vocab),
            tuple(param_names),
            tuple(class_names),
        )

    def with_ordinals(
        self, curve: Sequence[int] | np.ndarray, point: Sequence[int] | np.ndarray
    ) -> "MetricsFrame":
        """Copy of this frame with positional (curve, point) grouping columns.

        The sweeps group by these ordinals rather than by parameter values,
        so degenerate inputs (duplicate x values) keep one group per
        declared point — exactly the historical task-order semantics.
        """
        columns = dict(self._columns)
        columns["curve"] = np.asarray(curve, dtype=np.int64)
        columns["point"] = np.asarray(point, dtype=np.int64)
        return MetricsFrame(
            self.kind,
            columns,
            self.label_vocab,
            self.controller_vocab,
            self.param_names,
            self.class_names,
        )

    # ------------------------------------------------------------------
    # Derived per-row rates
    # ------------------------------------------------------------------
    def derived_column(self, name: str) -> np.ndarray:
        """Per-row derived rate, vectorized.

        Element-wise IEEE-754 float64 arithmetic in the exact expression
        order of the legacy properties (``100.0 * (accepted / requested)``
        etc.), so each element is bit-identical to the per-object Python
        computation it replaces.
        """
        cols = self._columns
        with np.errstate(divide="ignore", invalid="ignore"):
            if name == "acceptance_percentage":
                requested = cols["requested"]
                return np.where(
                    requested == 0, 0.0, 100.0 * (cols["accepted"] / requested)
                )
            if name == "blocking_probability":
                requested = cols["requested"]
                return np.where(requested == 0, 0.0, cols["blocked"] / requested)
            if name == "dropping_probability":
                accepted = cols["accepted"]
                return np.where(accepted == 0, 0.0, cols["dropped"] / accepted)
            if name == "handoff_failure_ratio":
                if self.kind != NETWORK_KIND:
                    raise KeyError(
                        "handoff_failure_ratio exists only for network frames"
                    )
                attempts = cols["handoff_attempts"]
                return np.where(
                    attempts == 0, 0.0, cols["handoff_failures"] / attempts
                )
        available = list(_DERIVED) + (
            list(_NETWORK_DERIVED) if self.kind == NETWORK_KIND else []
        )
        raise KeyError(f"unknown derived column {name!r}; available: {available}")

    # ------------------------------------------------------------------
    # Group reduction
    # ------------------------------------------------------------------
    def _key_array(self, name: str) -> np.ndarray:
        if name in ("label", "controller"):
            return self._columns[name].astype(np.int64)
        if name in ("seed", "replication") or name in ORDINAL_COLUMNS:
            return self.column(name)
        if name in self.param_names:
            # Bitwise view so NaN ("parameter absent") groups with NaN.
            return self._columns[_PARAM_PREFIX + name].view(np.int64)
        raise KeyError(
            f"unknown group key {name!r}; available: "
            f"{['label', 'controller', 'seed', 'replication', *ORDINAL_COLUMNS, *self.param_names]}"
        )

    def _decoded_key(self, name: str, row: int) -> Any:
        if name == "label":
            return self.label_vocab[int(self._columns["label"][row])]
        if name == "controller":
            return self.controller_vocab[int(self._columns["controller"][row])]
        if name in self.param_names:
            return float(self._columns[_PARAM_PREFIX + name][row])
        return int(self.column(name)[row])

    def row_parameters(self, row: int) -> dict[str, float]:
        """The parameter mapping of one row (NaN slots dropped)."""
        parameters: dict[str, float] = {}
        for name in self.param_names:
            value = float(self._columns[_PARAM_PREFIX + name][row])
            if not np.isnan(value):
                parameters[name] = value
        return parameters

    def group_reduce(self, by: Sequence[str] | None = None) -> list[FrameGroup]:
        """Reduce replications per group, in first-appearance group order.

        ``by`` names the grouping keys ("label", "controller", "curve",
        "point", "seed", "replication" or any parameter column); the
        default groups per controller x full parameter vector.  Each
        group's mean/std statistics use the historical loop arithmetic
        (see :mod:`repro.analysis.stats`), so the reduction is
        bit-identical to ``aggregate_runs``/``aggregate_network_runs``
        over the same rows in the same order.
        """
        if by is None:
            by = ("controller", *self.param_names)
        by = tuple(by)
        if not by:
            raise ValueError("at least one group key is required")
        if len(self) == 0:
            return []
        keys = np.column_stack([self._key_array(name) for name in by])
        _, first_index, inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        order = np.argsort(first_index, kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        group_of_row = rank[inverse]
        sort_index = np.argsort(group_of_row, kind="stable")
        boundaries = np.flatnonzero(np.diff(group_of_row[sort_index])) + 1
        index_groups = np.split(sort_index, boundaries)

        acceptance = self.derived_column("acceptance_percentage")
        blocking = self.derived_column("blocking_probability")
        dropping = self.derived_column("dropping_probability")
        network = self.kind == NETWORK_KIND
        if network:
            handoff_failure = self.derived_column("handoff_failure_ratio")
            handoff_attempts = self._columns["handoff_attempts"]
            occupancy = self._columns[OCCUPANCY_COLUMN]
        class_columns = {
            name[len(_CLASS_PREFIX):]: self._columns[name]
            for name in class_column_names(self.class_names)
        }

        controller_codes = self._columns["controller"]
        groups: list[FrameGroup] = []
        for indices in index_groups:
            codes = np.unique(controller_codes[indices])
            if len(codes) != 1:
                mixed = sorted(self.controller_vocab[int(c)] for c in codes)
                raise ValueError(f"runs mix controllers: {mixed}")
            first = int(indices[0])
            acceptance_values = acceptance[indices].tolist()
            mean_acceptance = series_mean(acceptance_values)
            group = FrameGroup(
                key=tuple(self._decoded_key(name, first) for name in by),
                label=self.label_vocab[int(self._columns["label"][first])],
                controller=self.controller_vocab[int(codes[0])],
                parameters=self.row_parameters(first),
                replications=len(indices),
                row_indices=tuple(indices.tolist()),
                mean_acceptance_percentage=mean_acceptance,
                std_acceptance_percentage=series_sample_std(
                    acceptance_values, mean_acceptance
                ),
                mean_blocking_probability=series_mean(blocking[indices].tolist()),
                mean_dropping_probability=series_mean(dropping[indices].tolist()),
                mean_handoff_failure_ratio=(
                    series_mean(handoff_failure[indices].tolist()) if network else None
                ),
                mean_handoff_attempts=(
                    series_mean(handoff_attempts[indices].tolist()) if network else None
                ),
                mean_occupancy_bu=(
                    series_mean(occupancy[indices].tolist()) if network else None
                ),
                class_totals=(
                    {
                        name: float(np.nansum(column[indices]))
                        for name, column in class_columns.items()
                    }
                    if class_columns
                    else None
                ),
            )
            groups.append(group)
        return groups

    # ------------------------------------------------------------------
    # Row views (the legacy dataclasses, reconstructed)
    # ------------------------------------------------------------------
    def run_result(self, row: int) -> "RunResult":
        """Row ``row`` as the legacy :class:`RunResult` view."""
        from ..simulation.results import RunResult

        return RunResult(
            controller=self.controller_vocab[int(self._columns["controller"][row])],
            metrics=CallMetrics.from_counters(
                tuple(int(self._columns[name][row]) for name in COUNTER_COLUMNS)
            ),
            parameters=self.row_parameters(row),
            seed=int(self._columns["seed"][row]),
        )

    def run_results(self) -> list["RunResult"]:
        return [self.run_result(i) for i in range(len(self))]

    def network_output(self, row: int) -> "NetworkRunOutput":
        """Row ``row`` as the legacy :class:`NetworkRunOutput` view."""
        if self.kind != NETWORK_KIND:
            raise ValueError("batch-kind frames hold no network rows")
        from ..simulation.engine import NetworkRunOutput

        class_names: tuple[str, ...] = ()
        class_values: tuple[float, ...] = ()
        if self.class_names:
            values = tuple(
                float(self._columns[name][row])
                for name in class_column_names(self.class_names)
            )
            if not any(value != value for value in values):  # no NaN slots
                class_names = self.class_names
                class_values = values
        return NetworkRunOutput(
            result=self.run_result(row),
            handoff_attempts=int(self._columns["handoff_attempts"][row]),
            handoff_failures=int(self._columns["handoff_failures"][row]),
            completed_calls=int(self._columns["completed_calls"][row]),
            dropped_calls=int(self._columns["dropped_calls"][row]),
            time_average_occupancy_bu=float(self._columns[OCCUPANCY_COLUMN][row]),
            class_names=class_names,
            class_values=class_values,
        )

    def network_outputs(self) -> list["NetworkRunOutput"]:
        return [self.network_output(i) for i in range(len(self))]

    # ------------------------------------------------------------------
    def column_buffers(self) -> tuple[dict[str, Any], list[np.ndarray]]:
        """Schema metadata plus the raw column arrays, in schema order."""
        meta = {
            "kind": self.kind,
            "rows": len(self),
            "label_vocab": list(self.label_vocab),
            "controller_vocab": list(self.controller_vocab),
            "param_names": list(self.param_names),
            "class_names": list(self.class_names),
            "columns": [
                [name, array.dtype.str] for name, array in self._columns.items()
            ],
        }
        return meta, [np.ascontiguousarray(a) for a in self._columns.values()]


class FrameReducer:
    """Task reducer folding worker rows into chunk frames.

    Implements the :class:`repro.simulation.executor.TaskReducer` protocol
    for :meth:`SweepExecutor.map_reduce`: workers fold their chunk of
    :class:`FrameRow` results into a chunk-local frame, which the process
    pool pickles back like any other result; the parent concatenates the
    chunk frames in task order.  ``merge(fold(chunk) for chunks)`` is
    exactly ``fold(all rows)``, so the reduced frame is identical for
    every backend, chunking and worker count.
    """

    def __init__(self, kind: str):
        if kind not in (BATCH_KIND, NETWORK_KIND):
            raise ValueError(f"unknown frame kind {kind!r}")
        self.kind = kind

    def fold(self, results: Iterable[FrameRow]) -> MetricsFrame:
        return MetricsFrame.from_rows(self.kind, results)

    def merge(self, partials: Sequence[MetricsFrame]) -> MetricsFrame:
        return MetricsFrame.concat(list(partials))
