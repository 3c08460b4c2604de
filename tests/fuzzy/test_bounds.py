"""Certified bound tables and the FACS decision screen built on them."""

from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np
import pytest

from repro.cac.facs.screen import VerdictTables
from repro.cac.facs.system import FuzzyAdmissionControlSystem
from repro.fuzzy.bounds import CentroidBoundTables
from repro.fuzzy.compiled import CompiledMamdaniEngine
from repro.fuzzy.defuzzification import Bisector
from repro.fuzzy.rules import RuleBase
from tests.cac.verdict_table_oracle import pair_scores

STAGES = [("flc1", "Cv"), ("flc2", "AR")]


@pytest.fixture(scope="module")
def facs() -> FuzzyAdmissionControlSystem:
    return FuzzyAdmissionControlSystem()


@pytest.fixture(scope="module")
def batched(facs) -> VerdictTables:
    # Private verdict tables with every paper bandwidth's batch built.
    tables = VerdictTables(facs.flc2, facs.config.acceptance_threshold)
    tables.warm_up([1.0, 5.0, 10.0])
    return tables


def _tables(facs, stage, variable) -> tuple[CompiledMamdaniEngine, CentroidBoundTables]:
    engine = getattr(facs, stage).controller.engine
    tables = CentroidBoundTables.for_engine(engine, variable)
    assert tables is not None
    return engine, tables


def _dense_curve_sums(engine, variable, tables, strengths) -> np.ndarray:
    """Area and sign-split moments of every clipped curve: ``(rows, curves, 3)``.

    The dense formulation: each term surface materialised on the whole
    grid, clipped at its own strength (pairs at both strengths), and
    integrated with the engine's trapezoid formula.
    """
    term_surfaces, _, supports, grid_length = engine._grouped_consequent_plans[variable]
    fulls = np.zeros((len(supports), grid_length))
    for t, (segment, (start, stop)) in enumerate(zip(term_surfaces, supports)):
        fulls[t, start:stop] = segment
    grid = engine._consequent_plans[variable][2].grid
    spacing = np.diff(grid)
    clipped = np.minimum(fulls[None, :, :], strengths[:, :, None])
    overlaps = np.minimum(clipped[:, tables._pair_t], clipped[:, tables._pair_u])
    curves = np.concatenate((clipped, overlaps), axis=1)
    sums = []
    for factor in (np.ones_like(grid), np.maximum(grid, 0.0), np.maximum(-grid, 0.0)):
        values = curves * factor
        sums.append(((values[..., 1:] + values[..., :-1]) * spacing / 2.0).sum(axis=-1))
    return np.stack(sums, axis=-1)


def _strength_intervals(rng, engine, variable, rows) -> tuple[np.ndarray, np.ndarray]:
    """Random ``s_lo <= s_hi`` with 0, 1 and exact grid samples (ties) mixed in."""
    term_surfaces = engine._grouped_consequent_plans[variable][0]
    samples = np.unique(np.concatenate(term_surfaces))
    ends = rng.uniform(0.0, 1.0, (2, rows, len(term_surfaces)))
    pick = rng.uniform(size=ends.shape)
    ends[pick < 0.15] = 0.0
    ends[(pick >= 0.15) & (pick < 0.3)] = 1.0
    ties = pick >= 0.7
    ends[ties] = rng.choice(samples, int(ties.sum()))
    return np.minimum(ends[0], ends[1]), np.maximum(ends[0], ends[1])


@pytest.mark.parametrize(("stage", "variable"), STAGES)
def test_curve_sums_match_dense_trapezoids(facs, stage, variable):
    engine, tables = _tables(facs, stage, variable)
    s_lo, s_hi = _strength_intervals(np.random.default_rng(7), engine, variable, 300)
    # Both sides sum ~grid non-negative terms, each within grid * eps of
    # the real value.
    rtol = engine._consequent_plans[variable][2].grid.size * np.finfo(float).eps
    for strengths in (s_lo, s_hi):
        expected = _dense_curve_sums(engine, variable, tables, strengths)
        actual = tables._curve_sums(strengths, strengths)
        assert actual.shape == expected.shape
        np.testing.assert_allclose(actual, expected, rtol=rtol, atol=0.0)


@pytest.mark.parametrize(("stage", "variable"), STAGES)
def test_intervals_contain_engine_centroid(facs, stage, variable):
    engine, tables = _tables(facs, stage, variable)
    term_columns = engine._grouped_consequent_plans[variable][1]
    n_rules = len(engine._antecedent_index)
    rng = np.random.default_rng(11)
    strengths = rng.uniform(0.0, 1.0, (2000, n_rules))
    pick = rng.uniform(size=strengths.shape)
    strengths[pick < 0.5] = 0.0
    strengths[pick > 0.95] = 1.0
    terms = engine._term_strengths_batch(strengths, term_columns)
    fired = (terms > 0.0).any(axis=1)
    strengths, terms = strengths[fired], terms[fired]

    aggregated = engine._aggregate_output_batch(strengths, variable)
    variable_def = engine._consequent_plans[variable][2]
    centroid = engine._defuzzify_fast_batch(variable, variable_def, aggregated)

    lo, hi, valid = tables.score_interval(terms, terms)
    assert valid.all()
    assert np.all((lo <= centroid) & (centroid <= hi))
    assert np.max(hi - lo) < 1e-7
    # Any interval around the exact strengths contains the centroid too.
    wide_lo, wide_hi, valid = tables.score_interval(
        terms * rng.uniform(0.0, 1.0, terms.shape),
        terms + (1.0 - terms) * rng.uniform(0.0, 1.0, terms.shape),
    )
    assert np.all(~valid | ((wide_lo <= centroid) & (centroid <= wide_hi)))


def _half_weight_first_rule(rb: RuleBase) -> RuleBase:
    rules = rb.rules
    rules[0] = replace(rules[0], weight=0.5)
    return RuleBase(rules, list(rb.input_variables.values()), list(rb.output_variables.values()))


@pytest.mark.parametrize(
    "make_engine",
    [
        lambda rb: CompiledMamdaniEngine(rb, defuzzifier=Bisector()),
        lambda rb: CompiledMamdaniEngine(_half_weight_first_rule(rb)),
    ],
    ids=[
        "bisector-defuzzifier",
        "rule-weights",
    ],
)
def test_for_engine_rejects_uncertified_regimes(facs, make_engine):
    engine = make_engine(facs.flc2.controller.rule_base)
    assert CentroidBoundTables.for_engine(engine, "AR") is None


# 47 and 60 BU lie above FLC2's 40 BU Cs universe, as in a larger cell.
@pytest.mark.parametrize("occupancy_bu", [0, 20, 21, 30, 34, 39, 47, 60])
def test_screen_verdicts_equal_exact_scores(facs, occupancy_bu):
    rng = np.random.default_rng(20070628)
    count = 400
    columns = (
        rng.uniform(0.0, 130.0, count),
        rng.uniform(-180.0, 180.0, count),
        rng.uniform(0.0, 12.0, count),
        rng.choice([1.0, 5.0, 10.0], count),
    )
    exact = facs.score_columns(*columns, occupancy_bu) > facs.config.acceptance_threshold
    verdicts = facs.decide_columns(*columns)
    assert [verdicts.accepts(k, occupancy_bu) for k in range(count)] == exact.tolist()
    # Every row is answered from a cell table or by exact FLC2, once.
    assert verdicts.screened + verdicts.exact_flc2 == count


# Every default (R, Cs) table: R in {1, 5, 10} BU, Cs 0..40 BU.
@pytest.mark.parametrize("occupancy_bu", range(41))
@pytest.mark.parametrize("bandwidth", [1.0, 5.0, 10.0])
def test_batched_table_verdicts_hold_at_edges_and_midpoints(facs, batched, bandwidth, occupancy_bu):
    occupancy = float(occupancy_bu)
    threshold = facs.config.acceptance_threshold
    cell_lo, cell_hi = batched._edges[:-1], batched._edges[1:]
    fill = np.ones(cell_lo.size)
    decision = batched._table(bandwidth, occupancy)
    assert decision.shape == cell_lo.shape
    # The per-pair bounds the batch reproduces cell for cell.
    score_lo, score_hi, certain = pair_scores(batched, bandwidth, occupancy)
    decided = decision != -1
    assert np.all(certain[decided])
    for points in (cell_lo, 0.5 * (cell_lo + cell_hi), cell_hi):
        scores = facs.flc2.decision_scores(points, bandwidth * fill, occupancy * fill)
        assert np.all(~certain | ((score_lo <= scores) & (scores <= score_hi)))
        assert np.array_equal((scores > threshold)[decided], (decision == 1)[decided])


def test_batch_build_is_logged_at_debug(facs, caplog):
    tables = VerdictTables(facs.flc2, facs.config.acceptance_threshold)
    with caplog.at_level(logging.DEBUG, logger="repro.cac.facs.screen"):
        tables.warm_up([5.0])
        tables.warm_up([5.0])  # built: no second record
    records = [r for r in caplog.records if r.name == "repro.cac.facs.screen"]
    assert len(records) == 1
    assert records[0].levelno == logging.DEBUG
    bandwidth, trigger, count, _, _, ambiguous, width, _ = records[0].args
    decision = tables._table(5.0, 22.0)
    assert (bandwidth, trigger, count) == (5.0, "warm-up", 41)
    assert decision.size == tables._edges.size - 1
    assert np.count_nonzero(decision == -1) > 0
    assert ambiguous == sum(np.count_nonzero(tables._table(5.0, cs) == -1) for cs in range(41))
    assert width > np.diff(tables._edges)[decision == -1].sum()
    assert "R=5 (warm-up)" in records[0].getMessage()
