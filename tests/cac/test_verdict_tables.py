"""The screen's verdict tables, built one bandwidth at a time.

:class:`~repro.cac.facs.screen.VerdictTables` builds every (R, Cs) table of
a bandwidth in one coarse-to-fine batch.  These tests hold each batched
table equal, cell for cell, to the per-pair construction of
``tests/cac/verdict_table_oracle.py``, on the paper's FLC2 and on FLC2
variants a tuning search would try, and pin when a batch is built and what
it logs.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cac.facs import screen as screen_module
from repro.cac.facs.definitions import flc2_definition
from repro.cac.facs.flc2 import FLC2
from repro.cac.facs.screen import VerdictTables
from repro.cac.facs.system import FuzzyAdmissionControlSystem
from repro.fuzzy.definition import DefinitionError
from repro.tuning import ParameterSpec, SearchSpace, TuningError
from tests.cac.verdict_table_oracle import pair_table

#: The paper's bandwidths and one that no paper class asks for.
BANDWIDTHS = (1.0, 5.0, 10.0, 3.0)
#: Cs keys 41-60 lie above FLC2's 40 BU universe, as in a larger cell.
OCCUPANCIES = range(61)


def _assert_batches_equal_the_oracle(tables: VerdictTables) -> None:
    tables.warm_up(BANDWIDTHS)
    for bandwidth in BANDWIDTHS:
        for occupancy in OCCUPANCIES:
            table = tables._table(bandwidth, occupancy)
            expected = pair_table(tables, bandwidth, occupancy)
            assert np.array_equal(table, expected), f"R={bandwidth} Cs={occupancy}"


@pytest.mark.parametrize("threshold", [0.0, 0.5])
def test_batched_tables_equal_the_per_pair_oracle(threshold):
    _assert_batches_equal_the_oracle(VerdictTables(FuzzyAdmissionControlSystem().flc2, threshold))


def _flc2_targets() -> list[tuple[str, int]]:
    """``(mf.<variable>.<term>, parameter count)`` of every FLC2 membership."""
    definition = flc2_definition()
    return [
        (f"mf.{variable}.{term.name}", len(term.membership.params))
        for variable in ("Cv", "R", "Cs")
        for term in definition.variable(variable).terms
    ]


@st.composite
def flc2_variants(draw) -> FLC2:
    """The paper's FLC2 with one membership parameter of Cv, R or Cs moved
    between its neighbours, as a tuning search over that target would."""
    definition = flc2_definition()
    prefix, count = draw(st.sampled_from(_flc2_targets()))
    index = draw(st.integers(0, count - 1))
    variable = definition.variable(prefix.split(".")[1])
    params = next(
        term.membership.params for term in variable.terms if term.name == prefix.split(".")[2]
    )
    low = params[index - 1] if index > 0 else variable.universe[0]
    high = params[index + 1] if index < count - 1 else variable.universe[1]
    value = low + draw(st.floats(0.0, 1.0)) * (high - low)
    target = f"{prefix}.{index}"
    space = SearchSpace((ParameterSpec(target, choices=(value,)),))
    try:
        return FLC2(definition=space.apply(definition, (value,)))
    except (TuningError, DefinitionError):
        assume(False)


@settings(max_examples=25, deadline=None)
@given(flc2=flc2_variants(), threshold=st.sampled_from([0.0, 0.5]))
def test_batched_tables_of_tuned_flc2s_equal_the_per_pair_oracle(flc2, threshold):
    try:
        tables = VerdictTables(flc2, threshold)
    except ValueError:  # outside the certified regime: no screen at all
        assume(False)
    _assert_batches_equal_the_oracle(tables)


@pytest.fixture
def tables() -> VerdictTables:
    # Private verdict tables, so no test sees a batch built elsewhere.
    return VerdictTables(FuzzyAdmissionControlSystem().flc2, 0.0)


def _exact(tables: VerdictTables, correction: float, bandwidth: float, occupancy: float) -> bool:
    return tables._flc2.evaluate(correction, bandwidth, occupancy).score > 0.0


def test_a_batch_is_built_on_its_bandwidths_minimum_verdict(tables):
    minimum = screen_module._BATCH_MIN_VERDICTS
    for occupancy in range(minimum - 1):
        assert tables.verdict_at(0.3, 1.0, float(occupancy % 61))[1]  # exact FLC2
    assert tables.verdict_at(0.3, 5.0, 0.0)[1]
    assert tables._cells == {} and tables.batches == 0
    assert tables._waiting == {1.0: minimum - 1, 5.0: 1}
    # The minimum-th verdict at R=1, at a Cs above the universe, builds
    # every table of R=1 and reads the one Cs=40 shares with it.
    assert tables.verdict_at(0.3, 1.0, 47.0) == (_exact(tables, 0.3, 1.0, 47.0), False)
    assert tables.batches == 1
    assert set(tables._cells) == {(1.0, float(cs)) for cs in (*range(41), 47)}
    assert tables._cells[(1.0, 47.0)] is tables._cells[(1.0, 40.0)]
    # A Cs between two integers has no table; it is scored exactly.
    assert tables._table(1.0, 2.5) is None
    assert tables.verdict_at(0.3, 1.0, 2.5) == (_exact(tables, 0.3, 1.0, 2.5), True)


def test_warm_up_builds_each_bandwidth_once(tables):
    tables.warm_up([5, 10.0, 5.0])
    assert tables.batches == 2
    assert {bandwidth for bandwidth, _ in tables._cells} == {5.0, 10.0}
    assert tables._waiting == {}
    tables.warm_up([10])
    assert tables.batches == 2
    assert tables.verdict_at(0.3, 5.0, 0.0) == (_exact(tables, 0.3, 5.0, 0.0), False)


def test_each_batch_is_logged_once_at_debug(tables, caplog):
    with caplog.at_level(logging.DEBUG, logger="repro.cac.facs.screen"):
        tables.warm_up([5.0])
        tables.warm_up([5.0])  # built: no second record
        for _ in range(screen_module._BATCH_MIN_VERDICTS):
            tables.verdict_at(0.3, 1.0, 3.0)
    records = [r for r in caplog.records if r.name == "repro.cac.facs.screen"]
    assert [r.levelno for r in records] == [logging.DEBUG, logging.DEBUG]
    assert [r.args[:2] for r in records] == [(5.0, "warm-up"), (1.0, "verdict")]
    _, _, count, coarse, fine, ambiguous, width, build_ms = records[0].args
    table = np.stack([tables._table(5.0, cs) for cs in range(41)])
    assert count == len(table) == 41
    assert coarse == count * tables._group_starts.size
    assert ambiguous == np.count_nonzero(table == -1) > 0
    assert ambiguous <= fine < table.size
    assert width == float(((table == -1) * np.diff(tables._edges)).sum())
    assert build_ms > 0.0
    assert "R=5 (warm-up): 41 tables" in records[0].getMessage()
