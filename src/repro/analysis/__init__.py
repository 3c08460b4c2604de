"""Reporting utilities: statistics, frames, ASCII tables/plots, CSV/JSON export.

The package exports resolve lazily (PEP 562).  That is deliberate, not an
optimisation: :mod:`repro.analysis.io` imports the sweep result types from
``repro.simulation.sweep``, while ``repro.simulation`` aggregates through
the columnar :mod:`repro.analysis.frame` — eagerly importing every
submodule here would close that loop into a circular import.  Lazy
resolution keeps both directions working: importing ``repro.analysis.frame``
never drags in the simulation layer, and importing ``repro.simulation``
never needs a fully-initialised ``repro.analysis``.
"""

from importlib import import_module

__all__ = [
    # stats
    "SummaryStatistics",
    "summarize",
    "t_confidence_interval",
    "paired_difference",
    "series_mean",
    "series_sample_std",
    # frame
    "MetricsFrame",
    "FrameGroup",
    "FrameReducer",
    "FrameRow",
    "run_result_row",
    "network_output_row",
    # tables / plotting
    "format_table",
    "format_curve_table",
    "ascii_line_plot",
    "ascii_membership_plot",
    "ascii_heatmap",
    # io
    "sweep_to_rows",
    "write_sweep_csv",
    "read_sweep_csv",
    "sweep_result_to_dict",
    "sweep_result_from_dict",
    "network_sweep_result_to_dict",
    "network_sweep_result_from_dict",
    "metrics_frame_to_dict",
    "metrics_frame_from_dict",
    "write_result_json",
    "read_result_json",
]

#: Export name -> defining submodule.
_EXPORTS = {
    "SummaryStatistics": ".stats",
    "summarize": ".stats",
    "t_confidence_interval": ".stats",
    "paired_difference": ".stats",
    "series_mean": ".stats",
    "series_sample_std": ".stats",
    "MetricsFrame": ".frame",
    "FrameGroup": ".frame",
    "FrameReducer": ".frame",
    "FrameRow": ".frame",
    "run_result_row": ".frame",
    "network_output_row": ".frame",
    "format_table": ".tables",
    "format_curve_table": ".tables",
    "ascii_line_plot": ".plotting",
    "ascii_membership_plot": ".plotting",
    "ascii_heatmap": ".plotting",
    "sweep_to_rows": ".io",
    "write_sweep_csv": ".io",
    "read_sweep_csv": ".io",
    "sweep_result_to_dict": ".io",
    "sweep_result_from_dict": ".io",
    "network_sweep_result_to_dict": ".io",
    "network_sweep_result_from_dict": ".io",
    "metrics_frame_to_dict": ".io",
    "metrics_frame_from_dict": ".io",
    "write_result_json": ".io",
    "read_result_json": ".io",
}

_SUBMODULES = ("frame", "io", "plotting", "stats", "tables")


def __getattr__(name: str):
    if name in _SUBMODULES:
        module = import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(target, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
