"""CSV and JSON export/import of sweep results, plus payload schema versioning.

The CSV functions are the historical flat export of the acceptance sweeps.
The ``*_to_dict``/``*_from_dict`` pairs are the lossless JSON codecs the
unified scenario API (:mod:`repro.api`) uses for the machine-readable
``metrics`` half of every :class:`~repro.api.RunReport`.

This module is also the home of the *schema version* machinery shared by
every serialized API payload (``Scenario``, ``RunReport``, ``Campaign``,
``CampaignReport``): :data:`SCHEMA_VERSION` is the version new payloads are
stamped with, :func:`versioned_payload` stamps it, and
:func:`migrate_payload` upgrades older payloads on read — explicitly, one
version step at a time — while rejecting versions this build does not know
with a loud :class:`PayloadVersionError`.

Versioning policy
-----------------
* **v0** — the pre-versioning payloads of the first Scenario/Runner API
  (no ``schema_version`` key).  Still readable: the v0→v1 migration is the
  identity, because v1 only *added* the stamp.
* **v1** — the first stamped payloads (Campaign API era).
* **v2** — Adds the columnar :class:`~repro.analysis.frame.MetricsFrame`
  payload (``frame`` key inside sweep ``RunReport`` metrics, plus the
  standalone ``metrics-frame`` codec below) and the optional
  ``baseline``/``deltas`` comparison fields.  All additive, so the v1→v2
  migration is the identity.
* **v3** — Adds the ``network-sweep-coupled-sharded`` scenario
  kind (per-cell shards with message-passing handoffs) with its
  ``window_s``/``cell_capacities`` fields, and the ``handoff_coupling``
  provenance key inside network-sweep ``RunReport`` metrics.  All
  additive — old payloads simply lack the kind and the keys — so the
  v2→v3 migration is the identity.
* **v4** — Adds the ``flc-definition`` payload (declarative
  fuzzy-controller definitions, :mod:`repro.fuzzy.definition`), the
  ``tuning`` scenario kind and its ``tuning`` ``RunReport`` metrics
  payload (:mod:`repro.tuning`).  All additive — old payloads simply
  lack the kind and the codecs — so the v3→v4 migration is the
  identity.
* **v5** — Adds the ``workload`` payload (arrival-process
  models and service classes, :mod:`repro.workloads`), the optional
  ``workload`` field on scenario payloads, and the optional
  ``class_names``/``class.*`` per-class counter columns inside
  ``metrics-frame`` payloads.  All additive — old payloads simply lack
  the field and the columns — so the v4→v5 migration is the identity.
* **v6** — Adds the optional ``stream`` field on
  ``trace-arrivals`` scenarios (the frame-native columnar fast path of
  :func:`repro.simulation.trace.run_trace_arrivals`).  Additive —
  ``stream`` is omitted from payloads while ``False`` — so the v5→v6
  migration is the identity.
* **v7** — ``trace-arrivals`` admits every request at its own
  arrival, as the discrete-event batch experiment does, so its results
  no longer depend on ``batch_size`` (still accepted, now without
  effect), and its run-report metrics drop the ``batch_size`` and
  ``batches`` keys.  No payload field changes meaning on read, so the
  v6→v7 migration is the identity.
* **v8** — current.  Fuzzy inference has one engine, so scenario and
  campaign payloads lose their ``engine`` field.  The v7→v8 migration
  drops it: ``"compiled"`` and ``"reference"`` named engines that agreed
  bit for bit, so either value decodes to the same run.
* Future breaking field changes must bump :data:`SCHEMA_VERSION` and add a
  migration step to :data:`_MIGRATIONS`; decoding a payload newer than the
  running build always fails loudly rather than guessing.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from ..fuzzy.definition import DefinitionError, FLCDefinition
from ..simulation.sweep import (
    NetworkSweepCurve,
    NetworkSweepPoint,
    NetworkSweepResult,
    SweepCurve,
    SweepPoint,
    SweepResult,
)
from .frame import MetricsFrame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..workloads.spec import WorkloadSpec

__all__ = [
    "SCHEMA_VERSION",
    "PayloadVersionError",
    "versioned_payload",
    "migrate_payload",
    "write_guarded_json",
    "sweep_to_rows",
    "write_sweep_csv",
    "read_sweep_csv",
    "sweep_result_to_dict",
    "sweep_result_from_dict",
    "network_sweep_result_to_dict",
    "network_sweep_result_from_dict",
    "metrics_frame_to_dict",
    "metrics_frame_from_dict",
    "flc_definition_to_dict",
    "flc_definition_from_dict",
    "flc_definition_to_json",
    "write_flc_definition_json",
    "read_flc_definition_json",
    "workload_to_dict",
    "workload_from_dict",
    "workload_to_json",
    "write_workload_json",
    "read_workload_json",
    "write_result_json",
    "read_result_json",
]

# ----------------------------------------------------------------------
# Payload schema versioning
# ----------------------------------------------------------------------
#: Version stamped into every newly serialized API payload.
SCHEMA_VERSION = 8


class PayloadVersionError(ValueError):
    """Raised when a payload's ``schema_version`` cannot be handled."""


def versioned_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Return ``payload`` with the current ``schema_version`` stamped first."""
    return {"schema_version": SCHEMA_VERSION, **payload}


def _migrate_v0_to_v1(payload: dict[str, Any]) -> dict[str, Any]:
    """v0 → v1: the identity — v1 only added the ``schema_version`` stamp."""
    return payload


def _migrate_v1_to_v2(payload: dict[str, Any]) -> dict[str, Any]:
    """v1 → v2: the identity — v2 only *added* fields.

    New in v2: the optional ``frame`` payload (columnar MetricsFrame)
    inside sweep run-report metrics, and the optional ``baseline`` /
    per-row ``deltas`` fields of campaign comparisons.  Old payloads
    simply lack them, and every decoder treats the fields as optional.
    """
    return payload


def _migrate_v2_to_v3(payload: dict[str, Any]) -> dict[str, Any]:
    """v2 → v3: the identity — v3 only *added* fields.

    New in v3: the ``network-sweep-coupled-sharded`` scenario kind (with
    ``window_s`` and ``cell_capacities``) and the optional
    ``handoff_coupling`` provenance key in network-sweep report metrics.
    Old payloads simply lack them, and every decoder treats them as
    optional.
    """
    return payload


def _migrate_v3_to_v4(payload: dict[str, Any]) -> dict[str, Any]:
    """v3 → v4: the identity — v4 only *added* payload kinds.

    New in v4: the ``flc-definition`` codec (declarative fuzzy-controller
    definitions) and the ``tuning`` scenario kind with its report
    metrics payload.  Old payloads simply lack them.
    """
    return payload


def _migrate_v4_to_v5(payload: dict[str, Any]) -> dict[str, Any]:
    """v4 → v5: the identity — v5 only *added* fields.

    New in v5: the ``workload`` codec (:mod:`repro.workloads`), the
    optional ``workload`` field on scenario payloads, and the optional
    per-class counter columns (``class_names`` plus ``class.*`` columns)
    inside ``metrics-frame`` payloads.  Old payloads simply lack them,
    and every decoder treats them as optional.
    """
    return payload


def _migrate_v5_to_v6(payload: dict[str, Any]) -> dict[str, Any]:
    """v5 → v6: the identity — v6 only *added* fields.

    New in v6: the optional ``stream`` field on ``trace-arrivals``
    scenario payloads (omitted while ``False``).  Old payloads simply lack
    the field, and the decoder fills it from the dataclass default.
    """
    return payload


def _migrate_v6_to_v7(payload: dict[str, Any]) -> dict[str, Any]:
    """v6 → v7: the identity — no payload field changed shape.

    New in v7: ``trace-arrivals`` decides each request at its own arrival,
    so ``batch_size`` no longer changes results and the run-report
    metrics lose their ``batch_size`` and per-batch ``batches`` keys.
    Scenario payloads decode unchanged.
    """
    return payload


def _migrate_v7_to_v8(payload: dict[str, Any]) -> dict[str, Any]:
    """v7 → v8: drop the ``engine`` field of scenario and campaign payloads.

    Scenario and campaign payloads are the only ones with a top-level
    ``engine`` key.  Its two values selected engines that agree bit for
    bit, so dropping it keeps the run the payload describes.
    """
    payload.pop("engine", None)
    return payload


#: Migration steps: version ``n`` → the function upgrading ``n`` to ``n+1``.
_MIGRATIONS: dict[int, Callable[[dict[str, Any]], dict[str, Any]]] = {
    0: _migrate_v0_to_v1,
    1: _migrate_v1_to_v2,
    2: _migrate_v2_to_v3,
    3: _migrate_v3_to_v4,
    4: _migrate_v4_to_v5,
    5: _migrate_v5_to_v6,
    6: _migrate_v6_to_v7,
    7: _migrate_v7_to_v8,
}


def migrate_payload(payload: Mapping[str, Any], what: str) -> dict[str, Any]:
    """Upgrade a payload to the current schema, dropping the version key.

    A payload without a ``schema_version`` key is treated as **v0** (the
    pre-versioning format).  Versions newer than :data:`SCHEMA_VERSION`,
    negative versions and non-integer versions raise
    :class:`PayloadVersionError` naming the payload and the versions this
    build can read — never a silent best-effort parse.
    """
    data = dict(payload)
    version = data.pop("schema_version", 0)
    if not isinstance(version, int) or isinstance(version, bool):
        raise PayloadVersionError(
            f"{what} schema_version must be an integer, got {version!r}"
        )
    if version < 0 or version > SCHEMA_VERSION:
        raise PayloadVersionError(
            f"unknown {what} schema_version {version}; this build reads "
            f"versions 0..{SCHEMA_VERSION} (0 = pre-versioning payloads). "
            f"Upgrade the package to read newer payloads."
        )
    for step in range(version, SCHEMA_VERSION):
        data = _MIGRATIONS[step](data)
    return data


def write_guarded_json(
    target: Path,
    payload_text: str,
    holds_same_spec: Callable[[dict], bool],
    error_cls: type[Exception],
    what: str,
) -> Path:
    """Write ``payload_text`` to ``target``, refusing to clobber foreign files.

    Re-saving over a file whose embedded spec satisfies
    ``holds_same_spec`` overwrites (runs are deterministic); anything else
    at the target — a different spec, unparsable JSON, a non-report —
    raises ``error_cls`` instead of being silently replaced.  Shared by
    :meth:`repro.api.RunReport.save` and
    :meth:`repro.api.CampaignReport.save`.
    """
    if target.exists():
        try:
            existing = json.loads(target.read_text())
            same = holds_same_spec(existing)
        except (OSError, ValueError, KeyError, TypeError):
            # ValueError covers JSONDecodeError and the decode errors of
            # the embedded spec (ScenarioError/CampaignError subclass it).
            same = False
        if not same:
            raise error_cls(
                f"refusing to overwrite {target}: it does not hold a "
                f"report of this {what} (delete it or save elsewhere)"
            )
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(payload_text)
    return target


#: ``type`` discriminators stamped into the JSON payloads.
_SWEEP_TYPE = "acceptance-sweep"
_NETWORK_SWEEP_TYPE = "network-sweep"

_FIELDNAMES = (
    "sweep",
    "curve",
    "controller",
    "request_count",
    "acceptance_percentage",
    "std_percentage",
    "replications",
)


def sweep_to_rows(sweep: SweepResult) -> list[dict[str, object]]:
    """Flatten a sweep result into one dict per (curve, point)."""
    rows: list[dict[str, object]] = []
    for curve in sweep.curves:
        for point in curve.points:
            rows.append(
                {
                    "sweep": sweep.name,
                    "curve": curve.label,
                    "controller": curve.controller,
                    "request_count": point.request_count,
                    "acceptance_percentage": point.acceptance_percentage,
                    "std_percentage": point.std_percentage,
                    "replications": point.replications,
                }
            )
    return rows


def write_sweep_csv(sweep: SweepResult, path: str | Path) -> Path:
    """Write a sweep result to a CSV file and return the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_FIELDNAMES)
        writer.writeheader()
        for row in sweep_to_rows(sweep):
            writer.writerow(row)
    return target


def read_sweep_csv(path: str | Path) -> SweepResult:
    """Read a sweep result previously written by :func:`write_sweep_csv`."""
    source = Path(path)
    curves: dict[str, dict[str, object]] = {}
    sweep_name = source.stem
    with source.open() as handle:
        reader = csv.DictReader(handle)
        missing = set(_FIELDNAMES) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"CSV {source} is missing columns: {sorted(missing)}")
        for row in reader:
            sweep_name = row["sweep"]
            label = row["curve"]
            entry = curves.setdefault(
                label, {"controller": row["controller"], "points": []}
            )
            entry["points"].append(
                SweepPoint(
                    request_count=int(row["request_count"]),
                    acceptance_percentage=float(row["acceptance_percentage"]),
                    std_percentage=float(row["std_percentage"]),
                    replications=int(row["replications"]),
                )
            )
    if not curves:
        raise ValueError(f"CSV {source} contains no data rows")
    return SweepResult(
        name=sweep_name,
        curves=tuple(
            SweepCurve(
                label=label,
                controller=str(entry["controller"]),
                points=tuple(entry["points"]),  # type: ignore[arg-type]
            )
            for label, entry in curves.items()
        ),
    )


# ----------------------------------------------------------------------
# JSON codecs (lossless, used by repro.api for RunReport metrics)
# ----------------------------------------------------------------------
def sweep_result_to_dict(sweep: SweepResult) -> dict:
    """Lossless dict form of an acceptance :class:`SweepResult`."""
    return {
        "type": _SWEEP_TYPE,
        "name": sweep.name,
        "curves": [
            {
                "label": curve.label,
                "controller": curve.controller,
                "points": [
                    {
                        "request_count": point.request_count,
                        "acceptance_percentage": point.acceptance_percentage,
                        "std_percentage": point.std_percentage,
                        "replications": point.replications,
                    }
                    for point in curve.points
                ],
            }
            for curve in sweep.curves
        ],
    }


def sweep_result_from_dict(payload: dict) -> SweepResult:
    """Rebuild a :class:`SweepResult` written by :func:`sweep_result_to_dict`."""
    if payload.get("type") != _SWEEP_TYPE:
        raise ValueError(
            f"expected a {_SWEEP_TYPE!r} payload, got type={payload.get('type')!r}"
        )
    return SweepResult(
        name=payload["name"],
        curves=tuple(
            SweepCurve(
                label=curve["label"],
                controller=curve["controller"],
                points=tuple(
                    SweepPoint(
                        request_count=int(point["request_count"]),
                        acceptance_percentage=float(point["acceptance_percentage"]),
                        std_percentage=float(point["std_percentage"]),
                        replications=int(point["replications"]),
                    )
                    for point in curve["points"]
                ),
            )
            for curve in payload["curves"]
        ),
    )


def network_sweep_result_to_dict(result: NetworkSweepResult) -> dict:
    """Lossless dict form of a multi-cell :class:`NetworkSweepResult`."""
    return {
        "type": _NETWORK_SWEEP_TYPE,
        "name": result.name,
        "curves": [
            {
                "label": curve.label,
                "controller": curve.controller,
                "points": [
                    {
                        "arrival_rate_per_cell_per_s": point.arrival_rate_per_cell_per_s,
                        "acceptance_percentage": point.acceptance_percentage,
                        "std_percentage": point.std_percentage,
                        "blocking_probability": point.blocking_probability,
                        "dropping_probability": point.dropping_probability,
                        "handoff_failure_ratio": point.handoff_failure_ratio,
                        "mean_occupancy_bu": point.mean_occupancy_bu,
                        "replications": point.replications,
                    }
                    for point in curve.points
                ],
            }
            for curve in result.curves
        ],
    }


def network_sweep_result_from_dict(payload: dict) -> NetworkSweepResult:
    """Rebuild a result written by :func:`network_sweep_result_to_dict`."""
    if payload.get("type") != _NETWORK_SWEEP_TYPE:
        raise ValueError(
            f"expected a {_NETWORK_SWEEP_TYPE!r} payload, got type={payload.get('type')!r}"
        )
    return NetworkSweepResult(
        name=payload["name"],
        curves=tuple(
            NetworkSweepCurve(
                label=curve["label"],
                controller=curve["controller"],
                points=tuple(
                    NetworkSweepPoint(
                        arrival_rate_per_cell_per_s=float(
                            point["arrival_rate_per_cell_per_s"]
                        ),
                        acceptance_percentage=float(point["acceptance_percentage"]),
                        std_percentage=float(point["std_percentage"]),
                        blocking_probability=float(point["blocking_probability"]),
                        dropping_probability=float(point["dropping_probability"]),
                        handoff_failure_ratio=float(point["handoff_failure_ratio"]),
                        mean_occupancy_bu=float(point["mean_occupancy_bu"]),
                        replications=int(point["replications"]),
                    )
                    for point in curve["points"]
                ),
            )
            for curve in payload["curves"]
        ),
    )


# ----------------------------------------------------------------------
# MetricsFrame codec (lossless, schema-versioned)
# ----------------------------------------------------------------------
_FRAME_TYPE = "metrics-frame"


def metrics_frame_to_dict(frame: MetricsFrame) -> dict:
    """Lossless, schema-versioned dict form of a :class:`MetricsFrame`.

    Columns serialise as plain JSON lists with their dtype strings; float
    values round-trip exactly (shortest-repr doubles) and NaN parameter
    slots encode as ``null``.
    """
    meta, buffers = frame.column_buffers()
    columns: dict[str, list] = {}
    for (name, _dtype), array in zip(meta["columns"], buffers):
        if array.dtype.kind == "f":
            columns[name] = [
                None if value != value else value for value in array.tolist()
            ]
        else:
            columns[name] = array.tolist()
    payload = {
        "type": _FRAME_TYPE,
        "kind": meta["kind"],
        "rows": meta["rows"],
        "label_vocab": meta["label_vocab"],
        "controller_vocab": meta["controller_vocab"],
        "param_names": meta["param_names"],
        "dtypes": {name: dtype for name, dtype in meta["columns"]},
        "columns": columns,
    }
    # Emitted only for workload frames, so legacy payloads stay
    # byte-identical to their pre-v5 form.
    if meta["class_names"]:
        payload["class_names"] = meta["class_names"]
    return versioned_payload(payload)


def metrics_frame_from_dict(payload: Mapping[str, Any]) -> MetricsFrame:
    """Rebuild a frame written by :func:`metrics_frame_to_dict`."""
    data = migrate_payload(payload, "metrics frame")
    if data.get("type") != _FRAME_TYPE:
        raise ValueError(
            f"expected a {_FRAME_TYPE!r} payload, got type={data.get('type')!r}"
        )
    columns: dict[str, np.ndarray] = {}
    for name, dtype_str in data["dtypes"].items():
        dtype = np.dtype(dtype_str)
        values = data["columns"][name]
        if dtype.kind == "f":
            values = [np.nan if value is None else value for value in values]
        columns[name] = np.array(values, dtype=dtype)
    return MetricsFrame(
        data["kind"],
        columns,
        tuple(data["label_vocab"]),
        tuple(data["controller_vocab"]),
        tuple(data["param_names"]),
        tuple(data.get("class_names", ())),
    )


# ----------------------------------------------------------------------
# FLC definition codec (lossless, schema-versioned)
# ----------------------------------------------------------------------
_FLC_DEFINITION_TYPE = "flc-definition"


def flc_definition_to_dict(definition: FLCDefinition) -> dict:
    """Lossless, schema-versioned dict form of an :class:`FLCDefinition`."""
    return versioned_payload({"type": _FLC_DEFINITION_TYPE, **definition.to_dict()})


def flc_definition_from_dict(payload: Mapping[str, Any]) -> FLCDefinition:
    """Rebuild a definition written by :func:`flc_definition_to_dict`."""
    data = migrate_payload(payload, "controller definition")
    if data.pop("type", None) != _FLC_DEFINITION_TYPE:
        raise ValueError(
            f"expected a {_FLC_DEFINITION_TYPE!r} payload, "
            f"got type={payload.get('type')!r}"
        )
    return FLCDefinition.from_dict(data)


def flc_definition_to_json(definition: FLCDefinition) -> str:
    """Canonical JSON text of a definition (byte-stable for a fixed input)."""
    return json.dumps(flc_definition_to_dict(definition), indent=2) + "\n"


def write_flc_definition_json(definition: FLCDefinition, path: str | Path) -> Path:
    """Write a controller definition to a JSON file."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(flc_definition_to_json(definition))
    return target


def read_flc_definition_json(path: str | Path) -> FLCDefinition:
    """Read a definition previously written by :func:`write_flc_definition_json`."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DefinitionError(f"cannot read controller definition {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DefinitionError(
            f"controller definition {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, Mapping):
        raise DefinitionError(
            f"controller definition {path} must hold a JSON object, "
            f"got {type(payload).__name__}"
        )
    try:
        return flc_definition_from_dict(payload)
    except (ValueError, PayloadVersionError) as exc:
        raise DefinitionError(f"controller definition {path}: {exc}") from exc


# ----------------------------------------------------------------------
# Workload codec (lossless, schema-versioned)
# ----------------------------------------------------------------------
_WORKLOAD_TYPE = "workload"


def workload_to_dict(spec: "WorkloadSpec") -> dict:
    """Lossless, schema-versioned dict form of a :class:`WorkloadSpec`."""
    return versioned_payload({"type": _WORKLOAD_TYPE, **spec.to_dict()})


def workload_from_dict(payload: Mapping[str, Any]) -> "WorkloadSpec":
    """Rebuild a workload written by :func:`workload_to_dict`."""
    from ..workloads.spec import WorkloadSpec

    data = migrate_payload(payload, "workload")
    if data.pop("type", None) != _WORKLOAD_TYPE:
        raise ValueError(
            f"expected a {_WORKLOAD_TYPE!r} payload, "
            f"got type={payload.get('type')!r}"
        )
    return WorkloadSpec.from_dict(data)


def workload_to_json(spec: "WorkloadSpec") -> str:
    """Canonical JSON text of a workload (byte-stable for a fixed input)."""
    return json.dumps(workload_to_dict(spec), indent=2) + "\n"


def write_workload_json(spec: "WorkloadSpec", path: str | Path) -> Path:
    """Write a workload definition to a JSON file."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(workload_to_json(spec))
    return target


def read_workload_json(path: str | Path) -> "WorkloadSpec":
    """Read a workload previously written by :func:`write_workload_json`."""
    from ..workloads.spec import WorkloadError

    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise WorkloadError(f"cannot read workload {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"workload {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, Mapping):
        raise WorkloadError(
            f"workload {path} must hold a JSON object, got {type(payload).__name__}"
        )
    try:
        return workload_from_dict(payload)
    except (ValueError, PayloadVersionError) as exc:
        raise WorkloadError(f"workload {path}: {exc}") from exc


def write_result_json(result: SweepResult | NetworkSweepResult, path: str | Path) -> Path:
    """Write a sweep result (either family) to a JSON file."""
    if isinstance(result, NetworkSweepResult):
        payload = network_sweep_result_to_dict(result)
    elif isinstance(result, SweepResult):
        payload = sweep_result_to_dict(result)
    else:
        raise TypeError(
            f"expected SweepResult or NetworkSweepResult, got {type(result).__name__}"
        )
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


def read_result_json(path: str | Path) -> SweepResult | NetworkSweepResult:
    """Read a result previously written by :func:`write_result_json`."""
    payload = json.loads(Path(path).read_text())
    kind = payload.get("type")
    if kind == _SWEEP_TYPE:
        return sweep_result_from_dict(payload)
    if kind == _NETWORK_SWEEP_TYPE:
        return network_sweep_result_from_dict(payload)
    raise ValueError(f"unknown result payload type {kind!r} in {path}")
