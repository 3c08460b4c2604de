"""Property-based tests for the fuzzy toolkit invariants.

Hypothesis drives the fuzzy machinery over random (but reproducible) inputs
and checks the algebraic properties the engines rely on:

* membership degrees always lie in [0, 1], and the compiled engine's scalar
  fast paths agree exactly with the array evaluation they mirror;
* defuzzified outputs always lie inside the output variable's universe;
* ``infer`` is invariant under rule-order permutation (for both engines).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cac.facs.definitions import flc2_definition
from repro.cac.facs.system import FuzzyAdmissionControlSystem
from repro.fuzzy.compiled import (
    CompiledMamdaniEngine,
    _trapezoidal_degree,
    _triangular_degree,
)
from repro.fuzzy.inference import MamdaniEngine
from repro.fuzzy.membership import Trapezoidal, Triangular
from repro.fuzzy.rules import RuleBase
from tests.fuzzy.reference_engine import reference_compute

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


_RB2 = flc2_definition().build_controller().rule_base
_REFERENCE2 = MamdaniEngine(_RB2)
_COMPILED2 = CompiledMamdaniEngine(_RB2)


class TestMembershipProperties:
    @COMMON
    @given(points=st.lists(finite, min_size=3, max_size=3), x=finite)
    def test_triangular_degree_in_unit_interval(self, points, x):
        a, b, c = sorted(points)
        mf = Triangular(a, b, c)
        assert 0.0 <= mf(x) <= 1.0

    @COMMON
    @given(points=st.lists(finite, min_size=4, max_size=4), x=finite)
    def test_trapezoidal_degree_in_unit_interval(self, points, x):
        a, b, c, d = sorted(points)
        mf = Trapezoidal(a, b, c, d)
        assert 0.0 <= mf(x) <= 1.0

    @COMMON
    @given(points=st.lists(finite, min_size=3, max_size=3), x=finite)
    def test_scalar_fast_path_matches_array_triangular(self, points, x):
        a, b, c = sorted(points)
        mf = Triangular(a, b, c)
        assert _triangular_degree(x, a, b, c) == float(mf(x))

    @COMMON
    @given(points=st.lists(finite, min_size=4, max_size=4), x=finite)
    def test_scalar_fast_path_matches_array_trapezoidal(self, points, x):
        a, b, c, d = sorted(points)
        mf = Trapezoidal(a, b, c, d)
        assert _trapezoidal_degree(x, a, b, c, d) == float(mf(x))


class TestDefuzzifiedOutputInsideUniverse:
    @COMMON
    @given(
        correction=st.floats(min_value=-0.5, max_value=1.5),
        request_bu=st.floats(min_value=-2.0, max_value=12.0),
        counter=st.floats(min_value=-5.0, max_value=45.0),
    )
    def test_flc2_output_inside_decision_universe(self, correction, request_bu, counter):
        low, high = _RB2.output_variables["AR"].universe
        inputs = {"Cv": correction, "R": request_bu, "Cs": counter}
        for engine in (_REFERENCE2, _COMPILED2):
            value = engine.infer(inputs)["AR"]
            assert low <= value <= high

    @COMMON
    @given(
        speed=st.floats(min_value=-50.0, max_value=200.0),
        angle=st.floats(min_value=-400.0, max_value=400.0),
        distance=st.floats(min_value=-5.0, max_value=20.0),
    )
    def test_flc1_correction_inside_unit_universe(self, speed, angle, distance, flc1):
        value = flc1.correction_value(speed, angle, distance)
        assert 0.0 <= value <= 1.0


class TestRulePermutationInvariance:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        correction=st.floats(min_value=0.0, max_value=1.0),
        counter=st.floats(min_value=0.0, max_value=40.0),
    )
    def test_infer_invariant_under_rule_permutation(self, seed, correction, counter):
        inputs = {"Cv": correction, "R": 5.0, "Cs": counter}
        baseline = _COMPILED2.infer_crisp(inputs)["AR"]

        rules = _RB2.rules
        np.random.default_rng(seed).shuffle(rules)
        shuffled = RuleBase(
            rules,
            list(_RB2.input_variables.values()),
            list(_RB2.output_variables.values()),
            name="frb2-shuffled",
        )
        for engine in (MamdaniEngine(shuffled), CompiledMamdaniEngine(shuffled)):
            assert engine.infer(inputs)["AR"] == pytest.approx(baseline, abs=1e-12)


class TestSimulationLevelProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        speed=st.floats(min_value=0.0, max_value=120.0),
        angle=st.floats(min_value=-180.0, max_value=180.0),
        distance=st.floats(min_value=0.0, max_value=10.0),
        counter=st.integers(min_value=0, max_value=40),
    )
    def test_engines_agree_on_admission_scores(self, speed, angle, distance, counter):
        """FACS scores equal the reference engine's at arbitrary operating points."""
        fast = FuzzyAdmissionControlSystem()
        correction_fast = fast.flc1.correction_value(speed, angle, distance)
        correction_slow = reference_compute(fast.flc1.controller, S=speed, A=angle, D=distance)
        assert correction_fast == pytest.approx(correction_slow, abs=1e-9)
        score_fast = fast.flc2.decision_score(correction_fast, 5.0, float(counter))
        score_slow = reference_compute(
            fast.flc2.controller, Cv=correction_slow, R=5.0, Cs=float(counter)
        )
        assert score_fast == pytest.approx(score_slow, abs=1e-9)
