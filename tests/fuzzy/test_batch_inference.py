"""Bit-identity of the batched inference paths on the paper's rule bases.

The contract under test: ``infer_batch`` and the tensorized
``control_surface`` are *layout changes, not approximations* — on FRB1 and
FRB2 (via FLC1/FLC2) every batched value must equal the corresponding scalar
``infer``/``infer_crisp`` result bit for bit, for the compiled and the
reference engine alike.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cac.facs.flc1 import FLC1
from repro.cac.facs.flc2 import FLC2
from repro.fuzzy.inference import BatchInference
from repro.fuzzy.compiled import CompiledMamdaniEngine
from tests.fuzzy.reference_engine import reference_engine


def _controller(name: str):
    """The FuzzyController of FLC1 or FLC2."""
    return (FLC1() if name == "FLC1" else FLC2()).controller


def _sample_matrix(engine, count: int, seed: int, margin: float = 2.0) -> np.ndarray:
    """Random input rows spanning each universe plus out-of-range margins."""
    rng = np.random.default_rng(seed)
    input_vars = engine.rule_base.input_variables
    columns = []
    for name in engine.input_order:
        low, high = input_vars[name].universe
        columns.append(rng.uniform(low - margin, high + margin, count))
    return np.column_stack(columns)


def _boundary_matrix(engine) -> np.ndarray:
    """The cartesian product of each variable's universe edges and midpoint."""
    input_vars = engine.rule_base.input_variables
    axes = []
    for name in engine.input_order:
        low, high = input_vars[name].universe
        axes.append([low, (low + high) / 2.0, high])
    grid = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([axis.ravel() for axis in grid])


@pytest.mark.parametrize("flc", ["FLC1", "FLC2"])
class TestInferBatchBitIdentity:
    def test_matches_scalar_infer_on_random_inputs(self, flc):
        compiled = _controller(flc)
        engine = compiled.engine
        matrix = _sample_matrix(engine, 300, seed=101)
        batch = engine.infer_batch(matrix)
        order = engine.input_order
        for var in engine.rule_base.output_variables:
            scalar = np.array([engine.infer(dict(zip(order, row)))[var] for row in matrix])
            assert np.array_equal(batch.outputs[var], scalar)

    def test_matches_infer_crisp(self, flc):
        compiled = _controller(flc)
        engine = compiled.engine
        matrix = _sample_matrix(engine, 200, seed=102)
        batch = engine.infer_batch(matrix)
        order = engine.input_order
        for i, row in enumerate(matrix):
            crisp = engine.infer_crisp(dict(zip(order, row)))
            for var in engine.rule_base.output_variables:
                assert batch.outputs[var][i] == crisp[var]
            assert batch.dominant_indices[i] == crisp.dominant_index

    def test_matches_reference_engine(self, flc):
        compiled = _controller(flc)
        matrix = _sample_matrix(compiled.engine, 200, seed=103)
        compiled_batch = compiled.engine.infer_batch(matrix)
        reference_batch = reference_engine(compiled).infer_batch(matrix)
        for var in compiled.engine.rule_base.output_variables:
            assert np.array_equal(compiled_batch.outputs[var], reference_batch.outputs[var])

    def test_boundary_inputs(self, flc):
        compiled = _controller(flc)
        engine = compiled.engine
        matrix = _boundary_matrix(engine)
        batch = engine.infer_batch(matrix)
        order = engine.input_order
        for var in engine.rule_base.output_variables:
            scalar = np.array([engine.infer(dict(zip(order, row)))[var] for row in matrix])
            assert np.array_equal(batch.outputs[var], scalar)

    def test_mapping_inputs_equal_matrix_inputs(self, flc):
        compiled = _controller(flc)
        engine = compiled.engine
        matrix = _sample_matrix(engine, 50, seed=104)
        by_name = {
            name: matrix[:, k] for k, name in enumerate(engine.input_order)
        }
        from_matrix = engine.infer_batch(matrix)
        from_mapping = engine.infer_batch(by_name)
        for var in engine.rule_base.output_variables:
            assert np.array_equal(from_matrix.outputs[var], from_mapping.outputs[var])

    def test_chunked_blocks_are_bitwise_transparent(self, flc):
        compiled = _controller(flc)
        engine = compiled.engine
        matrix = _sample_matrix(engine, 137, seed=105)
        whole = engine.infer_batch(matrix)
        original = CompiledMamdaniEngine._BATCH_BLOCK_ELEMENTS
        try:
            # One-row blocks: every row goes through the chunked path.
            engine._BATCH_BLOCK_ELEMENTS = 1
            chunked = engine.infer_batch(matrix)
        finally:
            engine._BATCH_BLOCK_ELEMENTS = original
        for var in engine.rule_base.output_variables:
            assert np.array_equal(whole.outputs[var], chunked.outputs[var])
        assert np.array_equal(whole.dominant_indices, chunked.dominant_indices)

    def test_thread_shared_engine_is_deterministic(self, flc):
        compiled = _controller(flc)
        engine = compiled.engine
        matrix = _sample_matrix(engine, 120, seed=106)
        order = engine.input_order
        var = next(iter(engine.rule_base.output_variables))
        rows = [dict(zip(order, row)) for row in matrix]
        serial = [engine.infer_crisp(row)[var] for row in rows]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda row: engine.infer_crisp(row)[var], rows))
        assert serial == threaded


@pytest.mark.parametrize("engine_kind", ["compiled", "reference"])
@pytest.mark.parametrize("flc", ["FLC1", "FLC2"])
class TestTensorizedControlSurface:
    def test_matches_per_point_inference(self, flc, engine_kind):
        compiled = _controller(flc)
        engine = compiled.engine if engine_kind == "compiled" else reference_engine(compiled)
        order = engine.input_order
        x_var, y_var, pin_var = order[0], order[1], order[2]
        input_vars = engine.rule_base.input_variables
        low, high = input_vars[pin_var].universe
        fixed = {pin_var: (low + high) / 2.0}
        output = next(iter(engine.rule_base.output_variables))
        xs, ys, surface = engine.control_surface(x_var, y_var, output, fixed=fixed, resolution=13)
        assert surface.shape == (13, 13)
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                inputs = {**fixed, x_var: float(x), y_var: float(y)}
                assert surface[i, j] == engine.infer(inputs)[output]


class TestControlSurfaceValidation:
    def test_unknown_variable_rejected(self):
        engine = FLC1().controller.engine
        with pytest.raises(KeyError, match="unknown input variable"):
            engine.control_surface("S", "bogus", "Cv", fixed={"D": 1.0})

    def test_missing_fixed_value_rejected(self):
        engine = FLC1().controller.engine
        with pytest.raises(ValueError, match="fixed values required"):
            engine.control_surface("S", "A", "Cv")


class TestBatchInputValidation:
    def test_wrong_matrix_shape_rejected(self):
        engine = FLC1().controller.engine
        with pytest.raises(ValueError, match="shape"):
            engine.infer_batch(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="shape"):
            engine.infer_batch(np.zeros(4))

    def test_missing_mapping_variable_rejected(self):
        engine = FLC1().controller.engine
        with pytest.raises(ValueError, match="missing crisp inputs"):
            engine.infer_batch({"S": np.zeros(3), "A": np.zeros(3)})

    def test_unequal_mapping_lengths_rejected(self):
        engine = FLC1().controller.engine
        with pytest.raises(ValueError, match="equally sized"):
            engine.infer_batch(
                {"S": np.zeros(3), "A": np.zeros(4), "D": np.zeros(3)}
            )

    def test_batch_inference_container_protocol(self):
        engine = FLC1().controller.engine
        batch = engine.infer_batch(np.array([[30.0, 0.0, 2.0], [60.0, 45.0, 5.0]]))
        assert isinstance(batch, BatchInference)
        assert len(batch) == 2
        assert np.array_equal(batch["Cv"], batch.outputs["Cv"])


class TestComputeBatch:
    def test_matches_scalar_compute(self):
        controller = FLC1().controller
        rng = np.random.default_rng(9)
        speeds = rng.uniform(0.0, 120.0, 40)
        angles = rng.uniform(-180.0, 180.0, 40)
        distances = rng.uniform(0.0, 10.0, 40)
        batch = controller.compute_batch(S=speeds, A=angles, D=distances)
        scalar = [
            controller.compute(S=s, A=a, D=d)
            for s, a, d in zip(speeds, angles, distances)
        ]
        assert np.array_equal(batch, np.array(scalar))

    def test_flc_helpers_match_scalar_paths(self):
        flc1, flc2 = FLC1(), FLC2()
        rng = np.random.default_rng(10)
        speeds = rng.uniform(0.0, 130.0, 25)
        angles = rng.uniform(-200.0, 200.0, 25)
        distances = rng.uniform(0.0, 12.0, 25)
        cvs = flc1.correction_values(speeds, angles, distances)
        for i in range(len(speeds)):
            assert cvs[i] == flc1.correction_value(speeds[i], angles[i], distances[i])
        requests = rng.choice([1.0, 5.0, 10.0], 25)
        counters = rng.uniform(0.0, 40.0, 25)
        scores = flc2.decision_scores(cvs, requests, counters)
        for i in range(len(speeds)):
            assert scores[i] == flc2.evaluate(cvs[i], requests[i], counters[i]).score
