"""Equivalence regression tests: CompiledMamdaniEngine vs MamdaniEngine.

The compiled engine is the default fast path for FLC1/FLC2, so these tests
lock down the guarantee it is built on: it reproduces the reference engine
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cac.facs.definitions import flc1_definition, flc2_definition
from repro.cac.facs.system import FuzzyAdmissionControlSystem
from repro.fuzzy.compiled import CompiledMamdaniEngine, CrispInference
from repro.fuzzy.controller import FuzzyController
from repro.fuzzy.defuzzification import (
    Bisector,
    DefuzzificationError,
    MeanOfMaximum,
)
from repro.fuzzy.inference import MamdaniEngine
from repro.fuzzy.membership import Triangular
from repro.fuzzy.rules import Consequent, FuzzyRule, Proposition, RuleBase
from repro.fuzzy.variables import LinguisticVariable, Term
from tests.fuzzy.reference_engine import reference_compute, reference_engine

# Paper operating points (the curve parameters of Figs. 7-9).
PAPER_SPEEDS = (4.0, 10.0, 30.0, 60.0)
PAPER_ANGLES = (0.0, 30.0, 50.0, 60.0, 90.0)
PAPER_DISTANCES = (1.0, 3.0, 7.0, 10.0)


@pytest.fixture(scope="module")
def rb1() -> RuleBase:
    return flc1_definition().build_controller().rule_base


@pytest.fixture(scope="module")
def rb2() -> RuleBase:
    return flc2_definition().build_controller().rule_base


@pytest.fixture(scope="module")
def engines1(rb1) -> tuple[MamdaniEngine, CompiledMamdaniEngine]:
    return MamdaniEngine(rb1), CompiledMamdaniEngine(rb1)


@pytest.fixture(scope="module")
def engines2(rb2) -> tuple[MamdaniEngine, CompiledMamdaniEngine]:
    return MamdaniEngine(rb2), CompiledMamdaniEngine(rb2)


class TestDenseSurfaceEquivalence:
    """Dense control-surface grids agree between the two engines."""

    def test_flc1_speed_angle_surface(self, engines1):
        reference, compiled = engines1
        for distance in (1.0, 5.0, 9.0):
            xs_r, ys_r, z_r = reference.control_surface(
                "S", "A", "Cv", fixed={"D": distance}, resolution=13
            )
            xs_c, ys_c, z_c = compiled.control_surface(
                "S", "A", "Cv", fixed={"D": distance}, resolution=13
            )
            np.testing.assert_array_equal(xs_r, xs_c)
            np.testing.assert_array_equal(ys_r, ys_c)
            assert np.max(np.abs(z_r - z_c)) <= 1e-9
            # The paper operators are min/max: the fast path is exact.
            np.testing.assert_array_equal(z_r, z_c)

    def test_flc1_speed_distance_surface(self, engines1):
        reference, compiled = engines1
        _, _, z_r = reference.control_surface(
            "S", "D", "Cv", fixed={"A": 15.0}, resolution=13
        )
        _, _, z_c = compiled.control_surface(
            "S", "D", "Cv", fixed={"A": 15.0}, resolution=13
        )
        np.testing.assert_array_equal(z_r, z_c)

    def test_flc2_correction_counter_surface(self, engines2):
        reference, compiled = engines2
        for request_bu in (1.0, 5.0, 10.0):
            _, _, z_r = reference.control_surface(
                "Cv", "Cs", "AR", fixed={"R": request_bu}, resolution=13
            )
            _, _, z_c = compiled.control_surface(
                "Cv", "Cs", "AR", fixed={"R": request_bu}, resolution=13
            )
            assert np.max(np.abs(z_r - z_c)) <= 1e-9
            np.testing.assert_array_equal(z_r, z_c)


class TestPaperOperatingPoints:
    """Every paper operating point produces identical inferences."""

    def test_flc1_paper_points(self, engines1):
        reference, compiled = engines1
        for speed in PAPER_SPEEDS:
            for angle in PAPER_ANGLES:
                for distance in PAPER_DISTANCES:
                    inputs = {"S": speed, "A": angle, "D": distance}
                    expected = reference.infer(inputs)
                    full = compiled.infer(inputs)
                    crisp = compiled.infer_crisp(inputs)
                    assert full["Cv"] == expected["Cv"]
                    assert crisp["Cv"] == expected["Cv"]

    def test_flc2_paper_points(self, engines2):
        reference, compiled = engines2
        for correction in (0.0, 0.25, 0.5, 0.75, 1.0):
            for request_bu in (1.0, 5.0, 10.0):
                for counter in (0.0, 10.0, 20.0, 30.0, 40.0):
                    inputs = {"Cv": correction, "R": request_bu, "Cs": counter}
                    expected = reference.infer(inputs)["AR"]
                    assert compiled.infer_crisp(inputs)["AR"] == expected

    def test_full_inference_diagnostics_match(self, engines1):
        reference, compiled = engines1
        inputs = {"S": 45.0, "A": -60.0, "D": 3.5}
        expected = reference.infer(inputs)
        actual = compiled.infer(inputs)
        assert actual.outputs == expected.outputs
        assert actual.fuzzified_inputs == expected.fuzzified_inputs
        assert len(actual.activations) == len(expected.activations)
        for got, want in zip(actual.activations, expected.activations):
            assert got.rule is want.rule
            assert got.firing_strength == want.firing_strength
        for name in expected.aggregated:
            np.testing.assert_array_equal(actual.aggregated[name], expected.aggregated[name])
        assert (actual.dominant_rule().rule.label == expected.dominant_rule().rule.label)

    def test_dominant_rule_matches_crisp_path(self, engines1):
        reference, compiled = engines1
        rng = np.random.default_rng(7)
        for _ in range(50):
            inputs = {
                "S": float(rng.uniform(0, 120)),
                "A": float(rng.uniform(-180, 180)),
                "D": float(rng.uniform(0, 10)),
            }
            expected = reference.infer(inputs).dominant_rule().rule.label
            assert compiled.infer_crisp(inputs).dominant_label == expected


class TestAlternativeDefuzzifiers:
    @pytest.mark.parametrize("defuzzifier", [Bisector(), MeanOfMaximum()])
    def test_alternative_defuzzifiers(self, rb2, defuzzifier):
        reference = MamdaniEngine(rb2, defuzzifier=defuzzifier)
        compiled = CompiledMamdaniEngine(rb2, defuzzifier=defuzzifier)
        for correction in (0.1, 0.5, 0.9):
            inputs = {"Cv": correction, "R": 5.0, "Cs": 20.0}
            assert compiled.infer_crisp(inputs)["AR"] == reference.infer(inputs)["AR"]


class TestErrorParity:
    """Both engines fail identically on bad inputs and uncovered regions."""

    def test_missing_inputs_message(self, engines1):
        reference, compiled = engines1
        with pytest.raises(ValueError, match="missing crisp inputs") as ref_error:
            reference.infer({"S": 10.0})
        with pytest.raises(ValueError, match="missing crisp inputs") as fast_error:
            compiled.infer_crisp({"S": 10.0})
        assert str(ref_error.value) == str(fast_error.value)
        with pytest.raises(ValueError, match="missing crisp inputs"):
            compiled.infer({"S": 10.0})

    def test_uncovered_region_raises_in_both(self):
        # A one-rule base leaving most of the universe uncovered.
        x = LinguisticVariable("x", (0.0, 10.0), [Term("lo", Triangular(0, 0, 2))])
        y = LinguisticVariable("y", (0.0, 1.0), [Term("out", Triangular(0, 0.5, 1))])
        controller_rules = [FuzzyRule((Proposition("x", "lo"),), (Consequent("y", "out"),))]
        compiled = FuzzyController("t", [x], [y], controller_rules)
        with pytest.raises(DefuzzificationError):
            reference_compute(compiled, x=9.0)
        with pytest.raises(DefuzzificationError):
            compiled.compute(x=9.0)
        assert compiled.compute(x=1.0) == reference_compute(compiled, x=1.0)


class TestCompilability:
    def test_auto_compiles_conjunctive_rules(self, rb1):
        engine = CompiledMamdaniEngine(rb1)
        assert isinstance(engine, MamdaniEngine)  # drop-in subclass


class TestControllerIntegration:
    def test_flc_controllers_default_to_compiled(self):
        facs = FuzzyAdmissionControlSystem()
        assert isinstance(facs.flc1.controller.engine, CompiledMamdaniEngine)
        assert isinstance(facs.flc2.controller.engine, CompiledMamdaniEngine)

    def test_facs_decisions_identical_across_engines(self, call_factory, station):
        compiled_system = FuzzyAdmissionControlSystem()
        flc1 = compiled_system.flc1.controller
        flc2 = compiled_system.flc2.controller
        rng = np.random.default_rng(3)
        for _ in range(25):
            call = call_factory(
                speed=float(rng.uniform(0, 120)),
                angle=float(rng.uniform(-180, 180)),
                distance=float(rng.uniform(0, 10)),
            )
            fast = compiled_system.decide(call, station, now=0.0)
            user = call.user_state.clamped()
            correction = reference_compute(
                flc1, S=user.speed_kmh, A=user.angle_deg, D=user.distance_km
            )
            slow = reference_compute(
                flc2,
                Cv=min(max(correction, 0.0), 1.0),
                R=float(call.bandwidth_units),
                Cs=float(station.used_bu),
            )
            assert fast.score == min(max(slow, -1.0), 1.0)
            assert fast.outcome == compiled_system.flc2.classify_score(fast.score)
            assert fast.accepted == (fast.score > 0.0)

    def test_crisp_decision_matches_evaluate_on_reference(self):
        controller = FuzzyAdmissionControlSystem().flc2.controller
        crisp: CrispInference = controller.crisp_decision(Cv=0.6, R=5.0, Cs=12.0)
        full = reference_engine(controller).infer({"Cv": 0.6, "R": 5.0, "Cs": 12.0})
        assert crisp["AR"] == full["AR"]
        assert crisp.dominant_label == full.dominant_rule().rule.label
