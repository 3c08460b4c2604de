"""Registry of the paper's figures and tables and how to regenerate them.

Each entry ties a paper artifact (Fig. 7, Table 1, ...) to the function in
this package that reproduces it and to the expected qualitative shape the
reproduction is checked against, so the experiment inventory lives in one
place.
The acceptance-sweep figures and ablations share one renderer,
:func:`render_acceptance_sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.plotting import ascii_line_plot
from ..analysis.tables import format_curve_table
from ..simulation.sweep import SweepResult

__all__ = [
    "ExperimentSpec",
    "EXPERIMENTS",
    "experiment",
    "experiment_ids",
    "render_acceptance_sweep",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Description of one reproducible paper artifact."""

    experiment_id: str
    paper_artifact: str
    description: str
    expected_shape: str
    runner: str  # dotted name of the function reproducing it


EXPERIMENTS: tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        experiment_id="table1-frb1",
        paper_artifact="Table 1",
        description="FRB1: 42 rules mapping (speed, angle, distance) to the correction value",
        expected_shape="exactly 42 rules covering all 3x7x2 input combinations",
        runner="repro.experiments.tables.render_frb1",
    ),
    ExperimentSpec(
        experiment_id="table2-frb2",
        paper_artifact="Table 2",
        description="FRB2: 27 rules mapping (Cv, request, counter state) to accept/reject",
        expected_shape="exactly 27 rules covering all 3x3x3 input combinations",
        runner="repro.experiments.tables.render_frb2",
    ),
    ExperimentSpec(
        experiment_id="fig5-flc1-mf",
        paper_artifact="Figure 5",
        description="FLC1 membership functions for S, A, D and Cv",
        expected_shape="term sets cover their universes with triangular/trapezoidal shapes",
        runner="repro.experiments.tables.render_flc1_memberships",
    ),
    ExperimentSpec(
        experiment_id="fig6-flc2-mf",
        paper_artifact="Figure 6",
        description="FLC2 membership functions for Cv, R, Cs and A/R",
        expected_shape="term sets cover their universes with triangular/trapezoidal shapes",
        runner="repro.experiments.tables.render_flc2_memberships",
    ),
    ExperimentSpec(
        experiment_id="fig7-speed",
        paper_artifact="Figure 7",
        description="Acceptance percentage vs requesting connections for speeds 4/10/30/60 km/h",
        expected_shape=(
            "acceptance decreases with offered requests; faster users are accepted more "
            "(walking speeds 4 and 10 km/h lowest)"
        ),
        runner="repro.experiments.fig7_speed.reproduce_figure7",
    ),
    ExperimentSpec(
        experiment_id="fig8-angle",
        paper_artifact="Figure 8",
        description="Acceptance percentage vs requesting connections for angles 0/30/50/60/90 deg",
        expected_shape=(
            "angle 0 stays near 100% at light load; acceptance decreases monotonically "
            "with the angle"
        ),
        runner="repro.experiments.fig8_angle.reproduce_figure8",
    ),
    ExperimentSpec(
        experiment_id="fig9-distance",
        paper_artifact="Figure 9",
        description="Acceptance percentage vs requesting connections for distances 1/3/7/10 km",
        expected_shape=(
            "closer users are accepted more, but the spread is smaller than for "
            "speed or angle"
        ),
        runner="repro.experiments.fig9_distance.reproduce_figure9",
    ),
    ExperimentSpec(
        experiment_id="fig10-facs-vs-scc",
        paper_artifact="Figure 10",
        description="FACS vs SCC acceptance percentage vs requesting connections",
        expected_shape=(
            "FACS accepts more than SCC at light load and fewer at heavy load "
            "(crossover near the middle of the sweep)"
        ),
        runner="repro.experiments.fig10_facs_vs_scc.reproduce_figure10",
    ),
    ExperimentSpec(
        experiment_id="abl-defuzz",
        paper_artifact="ablation (not in paper)",
        description="Sensitivity of the Fig. 7 curves to the defuzzification method",
        expected_shape="centroid and bisector nearly coincide; MOM is coarser",
        runner="repro.experiments.ablations.defuzzifier_ablation",
    ),
    ExperimentSpec(
        experiment_id="abl-threshold",
        paper_artifact="ablation (not in paper)",
        description="Sensitivity of the FACS acceptance to the A/R acceptance threshold",
        expected_shape="acceptance decreases monotonically as the threshold rises",
        runner="repro.experiments.ablations.threshold_ablation",
    ),
    ExperimentSpec(
        experiment_id="abl-baselines",
        paper_artifact="ablation (not in paper)",
        description="FACS and SCC against Complete Sharing, Guard Channel and Threshold policies",
        expected_shape="Complete Sharing accepts the most; FACS trades acceptance for QoS headroom",
        runner="repro.experiments.ablations.baseline_ablation",
    ),
    ExperimentSpec(
        experiment_id="net-integration",
        paper_artifact="Section 4 QoS claim",
        description="Multi-cell run with mobility and handoffs: dropping/blocking per controller",
        expected_shape="FACS keeps handoff dropping at or below the Complete Sharing level",
        runner="repro.experiments.ablations.network_integration",
    ),
    ExperimentSpec(
        experiment_id="net-sweep",
        paper_artifact="Section 4 QoS claim (load sweep)",
        description=(
            "Multi-cell QoS sweep: blocking/dropping/handoff failure vs per-cell "
            "arrival rate for FACS, SCC and Complete Sharing"
        ),
        expected_shape=(
            "dropping and handoff failure grow with offered load; FACS holds "
            "dropping at or below the Complete Sharing level throughout"
        ),
        runner="repro.experiments.network_sweep.reproduce_network_sweep",
    ),
    ExperimentSpec(
        experiment_id="surface-flc1",
        paper_artifact="Section 3.1 (derived)",
        description="FLC1 control surface: Cv over the (speed, angle) plane",
        expected_shape=(
            "Cv is highest for fast users heading straight at the BS and "
            "falls off as the angle grows"
        ),
        runner="repro.experiments.surfaces.render_flc1_surface",
    ),
    ExperimentSpec(
        experiment_id="surface-flc2",
        paper_artifact="Section 3.2 (derived)",
        description="FLC2 control surface: A/R over the (Cv, counter state) plane",
        expected_shape=(
            "A/R decreases with occupancy and increases with Cv; the accept "
            "region shrinks as the counters fill"
        ),
        runner="repro.experiments.surfaces.render_flc2_surface",
    ),
)

_BY_ID = {spec.experiment_id: spec for spec in EXPERIMENTS}


def experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment by its identifier."""
    try:
        return _BY_ID[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(_BY_ID)}"
        ) from None


def experiment_ids() -> list[str]:
    """All registered experiment identifiers, in registry order."""
    return [spec.experiment_id for spec in EXPERIMENTS]


def render_acceptance_sweep(sweep: SweepResult, title: str, plot_title: str) -> str:
    """An acceptance sweep as a table plus an ASCII plot of its curves.

    A sweep of a single request count has no line to draw, so it renders as
    the table alone.
    """
    x_values = sweep.curves[0].request_counts()
    series = {curve.label: curve.acceptance_series() for curve in sweep.curves}
    table = format_curve_table("Requests", x_values, series, title=title)
    if len(x_values) < 2:
        return table
    plot = ascii_line_plot(
        [float(x) for x in x_values],
        series,
        y_label="percentage of accepted calls",
        x_label="number of requesting connections",
        title=plot_title,
    )
    return f"{table}\n\n{plot}"
