"""Mamdani fuzzy inference engine.

The engine combines the four FLC blocks shown in Fig. 2 of the paper —
fuzzifier, inference engine, fuzzy rule base and defuzzifier — into a single
``infer`` call:

1. *Fuzzification*: crisp inputs are mapped to membership degrees of every
   input term.
2. *Rule evaluation*: each rule's proposition degrees are combined with the
   minimum (MIN conjunction) and scaled by the rule weight.
3. *Implication*: the rule's consequent set is clipped at the firing
   strength (CLIP, Mamdani's minimum).
4. *Aggregation*: all clipped consequent surfaces for an output variable are
   combined with the element-wise maximum (MAX).
5. *Defuzzification*: the aggregated surface is reduced to a crisp output.

MIN, CLIP and MAX are the paper's operators and the only ones the engines
run; they are also what :mod:`repro.fuzzy.bounds` certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .defuzzification import DEFAULT_DEFUZZIFIER, DefuzzificationError, Defuzzifier
from .rules import FuzzyRule, RuleBase

__all__ = [
    "RuleActivation",
    "InferenceResult",
    "BatchInference",
    "MamdaniEngine",
]


@dataclass(frozen=True)
class RuleActivation:
    """Diagnostic record of one rule's contribution to an inference."""

    rule: FuzzyRule
    firing_strength: float


@dataclass(frozen=True)
class InferenceResult:
    """Outcome of a single inference: crisp outputs plus full diagnostics."""

    outputs: Mapping[str, float]
    fuzzified_inputs: Mapping[str, Mapping[str, float]]
    activations: tuple[RuleActivation, ...]
    aggregated: Mapping[str, np.ndarray]

    def __getitem__(self, variable: str) -> float:
        return self.outputs[variable]

    def dominant_rule(self) -> RuleActivation:
        """The activation with the highest firing strength."""
        return max(self.activations, key=lambda a: a.firing_strength)


@dataclass(frozen=True)
class BatchInference:
    """Outcome of a batched inference over ``N`` crisp input rows.

    ``outputs`` maps every output variable to its ``(N,)`` vector of crisp
    values; ``dominant_indices`` holds the index of the strongest-firing rule
    per row.  Row ``i`` is exactly what ``infer`` would produce for the
    ``i``-th input row — the batch is a layout change, not an approximation.
    """

    outputs: Mapping[str, np.ndarray]
    dominant_indices: np.ndarray

    def __getitem__(self, variable: str) -> np.ndarray:
        return self.outputs[variable]

    def __len__(self) -> int:
        return int(self.dominant_indices.shape[0])


class MamdaniEngine:
    """Mamdani-type fuzzy inference over a :class:`RuleBase`.

    Parameters
    ----------
    rule_base:
        Validated rule base with its input and output variables.
    defuzzifier:
        Strategy reducing the aggregated output set to a crisp value
        (paper default: centroid).
    """

    def __init__(
        self,
        rule_base: RuleBase,
        defuzzifier: Defuzzifier = DEFAULT_DEFUZZIFIER,
    ):
        self._rule_base = rule_base
        self._defuzzifier = defuzzifier
        # Pre-sample every output term on its variable grid once; inference
        # then only clips/aggregates arrays (hot path for the simulator).
        self._output_term_surfaces: dict[str, dict[str, np.ndarray]] = {
            var_name: {
                term.name: var.sample_term(term.name) for term in var
            }
            for var_name, var in rule_base.output_variables.items()
        }

    # ------------------------------------------------------------------
    @property
    def rule_base(self) -> RuleBase:
        return self._rule_base

    @property
    def input_order(self) -> list[str]:
        """Column order expected by :meth:`infer_batch` matrices.

        This is the rule base's declared input-variable order (not sorted),
        so matrices and scalar mappings address the same variables.
        """
        return list(self._rule_base.input_variables)

    @property
    def defuzzifier(self) -> Defuzzifier:
        return self._defuzzifier

    # ------------------------------------------------------------------
    def fuzzify(self, inputs: Mapping[str, float]) -> dict[str, dict[str, float]]:
        """Fuzzify crisp inputs against every input variable's term set."""
        missing = set(self._rule_base.input_variables) - set(inputs)
        if missing:
            raise ValueError(f"missing crisp inputs for variables: {sorted(missing)}")
        degrees: dict[str, dict[str, float]] = {}
        for name, variable in self._rule_base.input_variables.items():
            degrees[name] = dict(variable.fuzzify(float(inputs[name])).degrees)
        return degrees

    def infer(self, inputs: Mapping[str, float]) -> InferenceResult:
        """Run the full fuzzify → infer → aggregate → defuzzify pipeline."""
        degrees = self.fuzzify(inputs)

        activations: list[RuleActivation] = []
        # output variable -> aggregated surface
        aggregated: dict[str, np.ndarray] = {
            name: np.zeros(var.resolution)
            for name, var in self._rule_base.output_variables.items()
        }
        any_fired: dict[str, bool] = {name: False for name in aggregated}

        for rule in self._rule_base:
            strength = rule.firing_strength(degrees)
            activations.append(RuleActivation(rule, strength))
            if strength <= 0.0:
                continue
            for consequent in rule.consequents:
                term_surface = self._output_term_surfaces[consequent.variable][
                    consequent.term
                ]
                clipped = np.minimum(term_surface, strength)
                current = aggregated[consequent.variable]
                aggregated[consequent.variable] = np.maximum(current, clipped)
                any_fired[consequent.variable] = True

        outputs: dict[str, float] = {}
        for name, variable in self._rule_base.output_variables.items():
            if not any_fired[name]:
                raise DefuzzificationError(
                    f"no rule fired for output variable {name!r} with inputs {dict(inputs)!r}; "
                    f"the rule base does not cover this input region"
                )
            outputs[name] = self._defuzzifier(variable.grid, aggregated[name])

        return InferenceResult(
            outputs=outputs,
            fuzzified_inputs=degrees,
            activations=tuple(activations),
            aggregated=aggregated,
        )

    def _batch_matrix(
        self, inputs: np.ndarray | Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """Coerce batch inputs to an ``(N, n_vars)`` float matrix.

        Accepts either a matrix whose columns follow :attr:`input_order` or a
        mapping of variable name to ``(N,)`` value vectors.
        """
        order = self.input_order
        if isinstance(inputs, Mapping):
            missing = set(order) - set(inputs)
            if missing:
                raise ValueError(
                    f"missing crisp inputs for variables: {sorted(missing)}"
                )
            columns = [np.asarray(inputs[name], dtype=float) for name in order]
            lengths = {column.shape for column in columns}
            if len(lengths) > 1 or any(column.ndim != 1 for column in columns):
                raise ValueError(
                    f"batch input vectors must be 1-D and equally sized, "
                    f"got shapes {[column.shape for column in columns]}"
                )
            return np.column_stack(columns)
        matrix = np.asarray(inputs, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(order):
            raise ValueError(
                f"batch input matrix must have shape (N, {len(order)}) with "
                f"columns {order}, got {matrix.shape}"
            )
        return matrix

    def infer_batch(
        self, inputs: np.ndarray | Mapping[str, np.ndarray]
    ) -> BatchInference:
        """Infer crisp outputs for a whole batch of input rows.

        ``inputs`` is an ``(N, n_vars)`` matrix whose columns follow
        :attr:`input_order` (or a mapping of variable name to value vectors).
        The reference implementation simply loops :meth:`infer` per row;
        :class:`~repro.fuzzy.compiled.CompiledMamdaniEngine` overrides it
        with a tensorized evaluation that produces bit-identical numbers.
        """
        matrix = self._batch_matrix(inputs)
        order = self.input_order
        count = matrix.shape[0]
        outputs = {
            name: np.empty(count) for name in self._rule_base.output_variables
        }
        dominant = np.empty(count, dtype=np.intp)
        for i in range(count):
            row = {name: float(matrix[i, k]) for k, name in enumerate(order)}
            result = self.infer(row)
            for name in outputs:
                outputs[name][i] = result.outputs[name]
            activations = result.activations
            dominant[i] = max(
                range(len(activations)),
                key=lambda index: activations[index].firing_strength,
            )
        return BatchInference(outputs=outputs, dominant_indices=dominant)

    def control_surface(
        self,
        x_variable: str,
        y_variable: str,
        output: str,
        fixed: Mapping[str, float] | None = None,
        resolution: int = 25,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sweep two inputs and return ``(xs, ys, Z)`` of crisp outputs.

        Useful for visualising/regression-testing the FLC1 and FLC2 decision
        surfaces; all other input variables must be pinned via ``fixed``.
        The whole grid is evaluated through :meth:`infer_batch`, so the
        compiled engine computes it in a handful of tensor passes instead of
        ``resolution**2`` scalar inferences.
        """
        fixed = dict(fixed or {})
        input_vars = self._rule_base.input_variables
        for name in (x_variable, y_variable):
            if name not in input_vars:
                raise KeyError(f"unknown input variable {name!r}")
        remaining = set(input_vars) - {x_variable, y_variable} - set(fixed)
        if remaining:
            raise ValueError(
                f"fixed values required for input variables: {sorted(remaining)}"
            )
        xs = np.linspace(*input_vars[x_variable].universe, resolution)
        ys = np.linspace(*input_vars[y_variable].universe, resolution)
        # Row-major grid: x varies fastest, matching the historical
        # (for y: for x:) nesting point for point.
        columns = {
            x_variable: np.tile(xs, resolution),
            y_variable: np.repeat(ys, resolution),
        }
        matrix = np.empty((resolution * resolution, len(input_vars)))
        for k, name in enumerate(self.input_order):
            if name in columns:
                matrix[:, k] = columns[name]
            else:
                matrix[:, k] = float(fixed[name])
        batch = self.infer_batch(matrix)
        surface = batch.outputs[output].reshape(resolution, resolution)
        return xs, ys, surface
