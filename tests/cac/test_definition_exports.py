"""The shipped FLC1/FLC2 definition exports are byte-stable and bit-identical.

``examples/controllers/flc{1,2}.json`` are exports of the definitions the
in-code paper controllers are built from: their serialization must never
drift, and the
controllers built from them must reproduce the full Fig. 5/Fig. 6 control
surfaces bit-for-bit, on the compiled engine and on the interpreted
reference engine over the same rule base.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.analysis.io import flc_definition_to_json, read_flc_definition_json
from repro.api.registry import controller_factory, is_definition_controller
from repro.cac.facs import FLC1, FLC2
from repro.cac.facs.definitions import flc1_definition, flc2_definition
from tests.fuzzy.reference_engine import reference_engine

REPO_ROOT = Path(__file__).resolve().parents[2]
CONTROLLER_DIR = REPO_ROOT / "examples" / "controllers"

EXPORTS = {
    "flc1.json": flc1_definition,
    "flc2.json": flc2_definition,
}

#: Engine name -> the engine of that kind over a controller's rule base.
ENGINES = {"compiled": lambda controller: controller.engine, "reference": reference_engine}


@pytest.mark.parametrize("filename", sorted(EXPORTS))
def test_shipped_export_matches_builtin_definition_byte_for_byte(filename):
    shipped = (CONTROLLER_DIR / filename).read_text()
    assert shipped == flc_definition_to_json(EXPORTS[filename]())


@pytest.mark.parametrize("filename", sorted(EXPORTS))
def test_serialization_is_deterministic(filename):
    definition = EXPORTS[filename]()
    assert flc_definition_to_json(definition) == flc_definition_to_json(
        EXPORTS[filename]()
    )


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_flc1_surface_is_bit_identical_to_the_in_code_controller(engine):
    definition = read_flc_definition_json(CONTROLLER_DIR / "flc1.json")
    built = ENGINES[engine](definition.build_controller())
    paper = ENGINES[engine](FLC1().controller)
    xs, ys, surface = built.control_surface(
        "S", "A", "Cv", fixed={"D": 3.0}, resolution=61
    )
    xs2, ys2, expected = paper.control_surface(
        "S", "A", "Cv", fixed={"D": 3.0}, resolution=61
    )
    assert np.array_equal(xs, xs2) and np.array_equal(ys, ys2)
    assert np.array_equal(surface, expected)


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_flc2_surface_is_bit_identical_to_the_in_code_controller(engine):
    definition = read_flc_definition_json(CONTROLLER_DIR / "flc2.json")
    built = ENGINES[engine](definition.build_controller())
    paper = ENGINES[engine](FLC2().controller)
    xs, ys, surface = built.control_surface(
        "Cv", "Cs", "AR", fixed={"R": 5.0}, resolution=61
    )
    xs2, ys2, expected = paper.control_surface(
        "Cv", "Cs", "AR", fixed={"R": 5.0}, resolution=61
    )
    assert np.array_equal(xs, xs2) and np.array_equal(ys, ys2)
    assert np.array_equal(surface, expected)


class TestDefinitionControllerIds:
    def test_json_paths_are_recognized_as_definition_controllers(self):
        assert is_definition_controller("examples/controllers/flc1.json")
        assert not is_definition_controller("FACS")

    def test_factory_builds_a_behaviorally_identical_facs(self):
        factory = controller_factory(str(CONTROLLER_DIR / "flc1.json"))
        from_definition = factory()
        builtin = controller_factory("FACS")()
        for speed, angle, distance in ((20.0, 10.0, 3.0), (90.0, 170.0, 9.0)):
            ours = from_definition.flc1.correction_value(
                speed_kmh=speed, angle_deg=angle, distance_km=distance
            )
            theirs = builtin.flc1.correction_value(
                speed_kmh=speed, angle_deg=angle, distance_km=distance
            )
            assert ours == theirs
