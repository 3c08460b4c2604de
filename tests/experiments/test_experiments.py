"""Tests of the experiments layer: registry, table/membership rendering and
small-scale versions of the figure reproductions.

Most shape checks run with few replications and few request counts; the
``test_paper_sweep_*`` and ``*_at_paper_size`` cases rerun each figure and
ablation on its full x axis with more replications, which still takes about
a second for all of them.
"""

from __future__ import annotations

import pytest

from repro.cac import CompleteSharingController
from repro.experiments import (
    baseline_ablation,
    crossover_request_count,
    curve_spread,
    defuzzifier_ablation,
    experiment,
    experiment_ids,
    render_figure7,
    render_figure8,
    render_figure9,
    render_figure10,
    render_flc1_memberships,
    render_flc2_memberships,
    render_frb1,
    render_frb2,
    reproduce_figure7,
    reproduce_figure8,
    reproduce_figure9,
    reproduce_figure10,
    threshold_ablation,
)
from repro.simulation import NetworkExperimentConfig, run_network_experiment
from repro.simulation.scenario import facs_factory, scc_factory

# Small but statistically meaningful settings for unit-level shape checks.
QUICK_POINTS = (20, 100)
QUICK_REPS = 4

# The full-size shape checks: the x axis and replications of Figs. 7-9, the
# denser axis of Fig. 10 and the ablations' own, all at the default seeds.
PAPER_POINTS = (10, 30, 50, 70, 100)
PAPER_REPS = 6
FIG10_POINTS = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
ABLATION_POINTS = (30, 70, 100)
ABLATION_REPS = 4


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = experiment_ids()
        for required in (
            "table1-frb1",
            "table2-frb2",
            "fig5-flc1-mf",
            "fig6-flc2-mf",
            "fig7-speed",
            "fig8-angle",
            "fig9-distance",
            "fig10-facs-vs-scc",
        ):
            assert required in ids

    def test_lookup(self):
        assert experiment("fig7-speed").paper_artifact == "Figure 7"
        with pytest.raises(KeyError):
            experiment("fig99")


class TestTableRendering:
    def test_frb1_rendering_contains_all_rules(self):
        text = render_frb1()
        assert "Table 1" in text
        # 42 rule rows + header + separator + title
        assert len(text.splitlines()) == 45
        assert "Cv9" in text

    def test_frb2_rendering_contains_all_rules(self):
        text = render_frb2()
        assert "Table 2" in text
        assert len(text.splitlines()) == 30
        assert "NRNA" in text

    def test_flc1_membership_rendering(self):
        text = render_flc1_memberships(points=15)
        for label in ("Fig. 5(a)", "Fig. 5(b)", "Fig. 5(c)", "Fig. 5(d)"):
            assert label in text

    def test_flc2_membership_rendering(self):
        text = render_flc2_memberships(points=15)
        for label in ("Fig. 6(a)", "Fig. 6(b)", "Fig. 6(c)", "Fig. 6(d)"):
            assert label in text


@pytest.fixture(scope="module")
def fig7_sweep():
    return reproduce_figure7(
        speeds_kmh=(4.0, 60.0), request_counts=QUICK_POINTS, replications=QUICK_REPS
    )


@pytest.fixture(scope="module")
def fig10_sweep():
    return reproduce_figure10(request_counts=QUICK_POINTS, replications=QUICK_REPS)


def _mean_at(curve, counts) -> float:
    return sum(curve.point_at(n).acceptance_percentage for n in counts) / len(counts)


class TestFigure7Shape:
    def test_acceptance_decreases_with_load(self, fig7_sweep):
        for curve in fig7_sweep.curves:
            series = curve.acceptance_series()
            assert series[0] >= series[-1]

    def test_fast_users_accepted_at_least_as_much_as_slow(self, fig7_sweep):
        slow = fig7_sweep.curve("4km/h").mean_acceptance()
        fast = fig7_sweep.curve("60km/h").mean_acceptance()
        assert fast >= slow

    def test_percentages_in_range(self, fig7_sweep):
        for curve in fig7_sweep.curves:
            for value in curve.acceptance_series():
                assert 0.0 <= value <= 100.0

    def test_render_produces_table_and_plot(self, fig7_sweep):
        text = render_figure7(fig7_sweep)
        assert "Figure 7" in text
        assert "legend:" in text

    def test_paper_sweep_favours_vehicular_users_up_to_heavy_load(self):
        sweep = reproduce_figure7(request_counts=PAPER_POINTS, replications=PAPER_REPS)
        for curve in sweep.curves:
            series = curve.acceptance_series()
            assert series[0] >= series[-1], f"{curve.label} does not decrease with load"
        slow = min(sweep.curve(label).mean_acceptance() for label in ("4km/h", "10km/h"))
        fast = max(sweep.curve(label).mean_acceptance() for label in ("30km/h", "60km/h"))
        assert fast >= slow
        heavy = PAPER_POINTS[-1]
        slow_heavy = sweep.curve("4km/h").point_at(heavy).acceptance_percentage
        fast_heavy = sweep.curve("60km/h").point_at(heavy).acceptance_percentage
        assert fast_heavy >= slow_heavy


class TestFigure8Shape:
    def test_straight_heading_beats_perpendicular(self):
        sweep = reproduce_figure8(
            angles_deg=(0.0, 90.0), request_counts=QUICK_POINTS, replications=QUICK_REPS
        )
        straight = sweep.curve("Angle=0").mean_acceptance()
        perpendicular = sweep.curve("Angle=90").mean_acceptance()
        assert straight > perpendicular
        assert sweep.curve("Angle=0").acceptance_series()[0] > 95.0
        assert "Figure 8" in render_figure8(sweep)

    def test_paper_sweep_means_do_not_rise_with_the_angle(self):
        sweep = reproduce_figure8(request_counts=PAPER_POINTS, replications=PAPER_REPS)
        light, heavy = PAPER_POINTS[0], PAPER_POINTS[-1]
        assert sweep.curve("Angle=0").point_at(light).acceptance_percentage > 95.0
        labels = ("Angle=0", "Angle=30", "Angle=50", "Angle=60", "Angle=90")
        means = [sweep.curve(label).mean_acceptance() for label in labels]
        tolerance = 1.0  # percentage points of replication noise
        assert all(a >= b - tolerance for a, b in zip(means, means[1:])), means
        straight = sweep.curve("Angle=0").point_at(heavy).acceptance_percentage
        perpendicular = sweep.curve("Angle=90").point_at(heavy).acceptance_percentage
        assert straight > perpendicular


class TestFigure9Shape:
    def test_distance_effect_is_small_but_ordered(self):
        sweep = reproduce_figure9(
            distances_km=(1.0, 10.0), request_counts=QUICK_POINTS, replications=QUICK_REPS
        )
        near = sweep.curve("1km").mean_acceptance()
        far = sweep.curve("10km").mean_acceptance()
        assert near >= far - 1.0  # ordering holds up to small noise
        assert curve_spread(sweep) < 20.0
        assert "Figure 9" in render_figure9(sweep)

    def test_paper_sweep_distance_spread_is_below_the_angle_spread(self):
        sweep = reproduce_figure9(request_counts=PAPER_POINTS, replications=PAPER_REPS)
        for curve in sweep.curves:
            series = curve.acceptance_series()
            assert series[0] >= series[-1]
            assert all(0.0 <= value <= 100.0 for value in series)
        assert sweep.curve("1km").mean_acceptance() >= sweep.curve("10km").mean_acceptance() - 1.0
        angles = reproduce_figure8(
            angles_deg=(0.0, 90.0), request_counts=PAPER_POINTS, replications=3
        )
        assert curve_spread(sweep) < curve_spread(angles)


class TestFigure10Shape:
    def test_facs_above_scc_at_light_load(self, fig10_sweep):
        facs = fig10_sweep.curve("FACS").point_at(QUICK_POINTS[0]).acceptance_percentage
        scc = fig10_sweep.curve("SCC").point_at(QUICK_POINTS[0]).acceptance_percentage
        assert facs >= scc

    def test_scc_above_facs_at_heavy_load(self, fig10_sweep):
        facs = fig10_sweep.curve("FACS").point_at(QUICK_POINTS[-1]).acceptance_percentage
        scc = fig10_sweep.curve("SCC").point_at(QUICK_POINTS[-1]).acceptance_percentage
        assert scc > facs

    def test_render_reports_crossover(self, fig10_sweep):
        text = render_figure10(fig10_sweep)
        assert "Figure 10" in text and "crossover" in text

    def test_crossover_helper(self, fig10_sweep):
        crossover = crossover_request_count(fig10_sweep)
        assert crossover is None or crossover in QUICK_POINTS

    def test_paper_sweep_crosses_inside_the_swept_range(self):
        sweep = reproduce_figure10(request_counts=FIG10_POINTS, replications=PAPER_REPS)
        facs, scc = sweep.curve("FACS"), sweep.curve("SCC")
        assert _mean_at(facs, (20, 30, 40)) >= _mean_at(scc, (20, 30, 40))
        assert _mean_at(scc, (90, 100)) > _mean_at(facs, (90, 100))
        crossover = crossover_request_count(sweep)
        assert crossover is not None
        assert FIG10_POINTS[0] < crossover <= FIG10_POINTS[-1]


class TestAblations:
    def test_defuzzifier_ablation_produces_all_methods(self):
        sweep = defuzzifier_ablation(
            methods=("centroid", "mom"), request_counts=(30,), replications=2
        )
        assert set(sweep.labels()) == {"centroid", "mom"}

    def test_threshold_ablation_monotone(self):
        sweep = threshold_ablation(thresholds=(-0.25, 0.5), request_counts=(60,), replications=3)
        lenient = sweep.curve("threshold=-0.25").mean_acceptance()
        strict = sweep.curve("threshold=+0.50").mean_acceptance()
        assert lenient >= strict

    def test_baseline_ablation_complete_sharing_accepts_most(self):
        sweep = baseline_ablation(request_counts=(80,), replications=3)
        cs = sweep.curve("CS").mean_acceptance()
        facs = sweep.curve("FACS").mean_acceptance()
        assert cs >= facs

    def test_defuzzifiers_stay_in_one_band_at_paper_size(self):
        sweep = defuzzifier_ablation(request_counts=ABLATION_POINTS, replications=ABLATION_REPS)
        centroid = sweep.curve("centroid").mean_acceptance()
        assert abs(centroid - sweep.curve("bisector").mean_acceptance()) < 5.0
        assert abs(centroid - sweep.curve("mom").mean_acceptance()) < 20.0

    def test_threshold_ablation_is_monotone_at_paper_size(self):
        sweep = threshold_ablation(
            thresholds=(-0.25, 0.0, 0.25, 0.5),
            request_counts=ABLATION_POINTS,
            replications=ABLATION_REPS,
        )
        labels = sorted(sweep.labels(), key=lambda label: float(label.split("=")[1]))
        means = [sweep.curve(label).mean_acceptance() for label in labels]
        tolerance = 1.0
        assert all(a >= b - tolerance for a, b in zip(means, means[1:])), means

    def test_complete_sharing_bounds_the_baselines_at_paper_size(self):
        sweep = baseline_ablation(request_counts=ABLATION_POINTS, replications=ABLATION_REPS)
        means = {label: sweep.curve(label).mean_acceptance() for label in sweep.labels()}
        assert means["CS"] >= means["FACS"]
        assert means["CS"] >= means["Threshold"]
        assert all(0.0 <= value <= 100.0 for value in means.values())


class TestNetworkIntegration:
    """The Section 4 QoS claim on the 7-cell network with mobility."""

    CONFIG = NetworkExperimentConfig(
        rings=1,
        cell_radius_km=1.5,
        arrival_rate_per_cell_per_s=0.03,
        duration_s=1500.0,
        mean_speed_kmh=60.0,
        seed=20070615,
    )

    def test_complete_sharing_admits_most_and_facs_drops_no_more(self):
        outputs = {
            "FACS": run_network_experiment(self.CONFIG, facs_factory()),
            "SCC": run_network_experiment(self.CONFIG, scc_factory()),
            "CS": run_network_experiment(self.CONFIG, CompleteSharingController),
        }
        for output in outputs.values():
            assert output.result.metrics.requested > 0
            assert output.handoff_attempts > 0
        facs, cs = outputs["FACS"].result.metrics, outputs["CS"].result.metrics
        assert cs.acceptance_percentage >= facs.acceptance_percentage
        assert facs.dropping_probability <= cs.dropping_probability + 0.02
