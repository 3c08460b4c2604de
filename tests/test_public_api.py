"""Package-level integration tests: public exports and end-to-end flows."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import repro
from repro import (
    BatchExperimentConfig,
    FuzzyAdmissionControlSystem,
    ShadowClusterController,
    run_batch_experiment,
)
from repro.cellular import BaseStation, Call, ServiceClass, UserState
from repro.experiments import EXPERIMENTS
from repro.simulation.scenario import facs_factory

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestPublicExports:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ exports missing attribute {name}"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.fuzzy",
            "repro.des",
            "repro.cellular",
            "repro.cac",
            "repro.simulation",
            "repro.experiments",
            "repro.analysis",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        package = importlib.import_module(module)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{module}.__all__ exports missing attribute {name}"


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        """The code block shown in README.md works as written."""
        facs = FuzzyAdmissionControlSystem()
        station = BaseStation()
        call = Call(
            service=ServiceClass.VIDEO,
            bandwidth_units=10,
            user_state=UserState(speed_kmh=60.0, angle_deg=0.0, distance_km=2.0),
        )
        decision = facs.decide(call, station, now=0.0)
        assert decision.accepted
        assert decision.reason


class TestEndToEnd:
    def test_facs_and_scc_run_same_workload(self):
        config = BatchExperimentConfig(request_count=50, seed=20070617)
        facs_output = run_batch_experiment(config, facs_factory())
        scc_output = run_batch_experiment(config, ShadowClusterController)
        assert facs_output.result.metrics.requested == 50
        assert scc_output.result.metrics.requested == 50
        assert facs_output.result.controller == "FACS"
        assert scc_output.result.controller == "SCC"

    def test_repeated_runs_are_bit_identical(self):
        config = BatchExperimentConfig(request_count=80, seed=31337)
        outputs = [
            run_batch_experiment(config, facs_factory(), collect_trace=True) for _ in range(2)
        ]
        first, second = outputs
        assert first.acceptance_percentage == second.acceptance_percentage
        assert [r.accepted for r in first.records] == [r.accepted for r in second.records]
        assert [r.score for r in first.records] == pytest.approx([r.score for r in second.records])


class TestRepositoryInventory:
    def test_every_registered_runner_is_importable(self):
        for spec in EXPERIMENTS:
            module_name, _, attribute = spec.runner.rpartition(".")
            module = importlib.import_module(module_name)
            assert hasattr(module, attribute), f"{spec.runner} does not exist"

    def test_examples_exist_and_have_main(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 4
        for example in examples:
            source = example.read_text()
            assert "def main()" in source, f"{example.name} has no main()"
            assert '"""' in source, f"{example.name} has no module docstring"
