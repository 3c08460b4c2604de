"""Tests for linguistic variables, terms and fuzzification."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzzy.membership import Triangular
from repro.fuzzy.variables import LinguisticVariable, Term


def make_speed_variable(resolution: int = 201) -> LinguisticVariable:
    return LinguisticVariable(
        "speed",
        (0.0, 120.0),
        [
            Term("slow", Triangular(0.0, 0.0, 60.0)),
            Term("middle", Triangular(0.0, 60.0, 120.0)),
            Term("fast", Triangular(60.0, 120.0, 120.0)),
        ],
        resolution=resolution,
    )


class TestTerm:
    def test_degree_delegates_to_membership(self):
        term = Term("slow", Triangular(0.0, 0.0, 60.0))
        assert term.degree(30.0) == pytest.approx(0.5)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Term("", Triangular(0.0, 1.0, 2.0))


class TestLinguisticVariableConstruction:
    def test_basic_properties(self):
        var = make_speed_variable()
        assert var.name == "speed"
        assert var.universe == (0.0, 120.0)
        assert var.term_names == ["slow", "middle", "fast"]
        assert len(var) == 3
        assert "slow" in var and "warp" not in var

    def test_grid_spans_universe(self):
        var = make_speed_variable(resolution=11)
        assert var.grid[0] == pytest.approx(0.0)
        assert var.grid[-1] == pytest.approx(120.0)
        assert len(var.grid) == 11

    def test_duplicate_term_names_rejected(self):
        with pytest.raises(ValueError):
            LinguisticVariable(
                "x",
                (0.0, 1.0),
                [Term("a", Triangular(0, 0, 1)), Term("a", Triangular(0, 1, 1))],
            )

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            LinguisticVariable("x", (0.0, 1.0), [])

    def test_bad_universe_rejected(self):
        with pytest.raises(ValueError):
            LinguisticVariable("x", (1.0, 1.0), [Term("a", Triangular(0, 0, 1))])

    def test_bad_resolution_rejected(self):
        with pytest.raises(ValueError):
            LinguisticVariable(
                "x", (0.0, 1.0), [Term("a", Triangular(0, 0, 1))], resolution=2
            )

    def test_unknown_term_lookup_raises(self):
        var = make_speed_variable()
        with pytest.raises(KeyError):
            var.term("warp")

    def test_iteration_yields_terms(self):
        var = make_speed_variable()
        assert [t.name for t in var] == ["slow", "middle", "fast"]


class TestFuzzification:
    def test_degrees_at_prototype_points(self):
        var = make_speed_variable()
        result = var.fuzzify(0.0)
        assert result["slow"] == pytest.approx(1.0)
        assert result["middle"] == pytest.approx(0.0)

        result = var.fuzzify(60.0)
        assert result["middle"] == pytest.approx(1.0)

    def test_degrees_sum_reasonably_for_partition(self):
        """For this triangular partition, degrees at any point sum to ~1."""
        var = make_speed_variable()
        for x in np.linspace(0.0, 120.0, 41):
            total = sum(var.fuzzify(float(x)).degrees.values())
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range_is_clamped(self):
        var = make_speed_variable()
        result = var.fuzzify(500.0)
        assert result.value == pytest.approx(120.0)
        assert result["fast"] == pytest.approx(1.0)

    def test_strict_mode_rejects_out_of_range(self):
        var = make_speed_variable()
        with pytest.raises(ValueError):
            var.fuzzify(500.0, strict=True)

    def test_degrees_cover_every_term(self):
        var = make_speed_variable()
        result = var.fuzzify(100.0)
        assert set(result.degrees) == {"slow", "middle", "fast"}
        assert max(result.degrees, key=result.degrees.get) == "fast"
        assert {name for name, mu in result.degrees.items() if mu > 0.0} == {"middle", "fast"}

    def test_result_getitem(self):
        var = make_speed_variable()
        result = var.fuzzify(30.0)
        assert result["slow"] == pytest.approx(0.5)

    @given(x=st.floats(-50.0, 200.0))
    @settings(max_examples=100)
    def test_degrees_always_in_unit_interval(self, x):
        var = make_speed_variable()
        for mu in var.fuzzify(x).degrees.values():
            assert 0.0 <= mu <= 1.0


class TestCoverage:
    def test_complete_partition_is_complete(self):
        assert make_speed_variable().is_complete()

    def test_gap_detected(self):
        var = LinguisticVariable(
            "x",
            (0.0, 10.0),
            [
                Term("low", Triangular(0.0, 1.0, 2.0)),
                Term("high", Triangular(8.0, 9.0, 10.0)),
            ],
        )
        assert not var.is_complete()

    def test_coverage_shape(self):
        var = make_speed_variable(resolution=51)
        assert var.coverage().shape == (51,)

    def test_sample_term(self):
        var = make_speed_variable(resolution=13)
        samples = var.sample_term("slow")
        assert samples[0] == pytest.approx(1.0)
        assert samples[-1] == pytest.approx(0.0)

    def test_clip(self):
        var = make_speed_variable()
        assert var.clip(-5.0) == 0.0
        assert var.clip(500.0) == 120.0
        assert var.clip(42.0) == 42.0
