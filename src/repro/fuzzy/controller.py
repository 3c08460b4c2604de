"""High-level fuzzy logic controller (FLC) facade.

:class:`FuzzyController` packages the four blocks of Fig. 2 of the paper —
fuzzifier, inference engine, fuzzy rule base (FRB) and defuzzifier — behind a
single callable object with named inputs and a single (or multiple) crisp
outputs.  FLC1 and FLC2 of the FACS system are both instances of this class.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .compiled import CompiledMamdaniEngine, CrispInference
from .defuzzification import DEFAULT_DEFUZZIFIER, Defuzzifier
from .inference import InferenceResult
from .rules import FuzzyRule, RuleBase
from .variables import LinguisticVariable

__all__ = ["FuzzyController"]


class FuzzyController:
    """A complete Mamdani fuzzy logic controller.

    Parameters
    ----------
    name:
        Human-readable controller name (``"FLC1"``, ``"FLC2"``).
    inputs, outputs:
        Linguistic variables of the controller.
    rules:
        The :class:`FuzzyRule` objects of the rule base.
    defuzzifier:
        Strategy reducing the aggregated output set to a crisp value.

    Inference runs on the vectorized
    :class:`~repro.fuzzy.compiled.CompiledMamdaniEngine`, which agrees bit
    for bit with the interpreted :class:`~repro.fuzzy.inference.MamdaniEngine`
    it extends.
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[LinguisticVariable],
        outputs: Sequence[LinguisticVariable],
        rules: Sequence[FuzzyRule],
        defuzzifier: Defuzzifier = DEFAULT_DEFUZZIFIER,
    ):
        self._name = name
        self._rule_base = RuleBase(rules, inputs, outputs, name=f"{name}-rules")
        self._engine = CompiledMamdaniEngine(self._rule_base, defuzzifier=defuzzifier)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def rule_base(self) -> RuleBase:
        return self._rule_base

    @property
    def engine(self) -> CompiledMamdaniEngine:
        return self._engine

    @property
    def input_names(self) -> list[str]:
        return sorted(self._rule_base.input_variables)

    @property
    def output_names(self) -> list[str]:
        return sorted(self._rule_base.output_variables)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FuzzyController({self._name!r}, inputs={self.input_names}, "
            f"outputs={self.output_names}, rules={len(self._rule_base)})"
        )

    # ------------------------------------------------------------------
    def evaluate(self, **inputs: float) -> InferenceResult:
        """Run the controller and return the full :class:`InferenceResult`."""
        return self._engine.infer(inputs)

    def compute(self, **inputs: float) -> float:
        """Run the controller and return its single crisp output value.

        Raises ``ValueError`` when the controller has more than one output
        variable (use :meth:`evaluate` in that case).
        """
        outputs = self.output_names
        if len(outputs) != 1:
            raise ValueError(
                f"controller {self._name!r} has {len(outputs)} outputs; "
                "use evaluate() and index the result"
            )
        return self._engine.infer_crisp(inputs)[outputs[0]]

    def crisp_decision(self, **inputs: float) -> CrispInference:
        """Crisp outputs plus the dominant rule, skipping per-rule diagnostics.

        FLC1 and FLC2 use this in the simulator hot loop.
        """
        return self._engine.infer_crisp(inputs)

    def compute_batch(self, **inputs: np.ndarray) -> np.ndarray:
        """Crisp output vector for named ``(N,)`` input vectors.

        The batched counterpart of :meth:`compute`: the whole batch flows
        through the engine's tensorized ``infer_batch`` path and the
        returned values are bit-identical to calling :meth:`compute` per row.
        """
        outputs = self.output_names
        if len(outputs) != 1:
            raise ValueError(
                f"controller {self._name!r} has {len(outputs)} outputs; "
                "use engine.infer_batch() and index its outputs instead"
            )
        arrays = {name: np.asarray(values, dtype=float) for name, values in inputs.items()}
        return self._engine.infer_batch(arrays).outputs[outputs[0]]

    def membership_table(
        self, variable: str, points: int = 11
    ) -> dict[str, list[tuple[float, float]]]:
        """Sample each term of a variable at ``points`` evenly spaced values.

        Used by the experiments layer to render Figs. 5 and 6 (membership
        function plots) as ASCII tables.
        """
        all_vars = {
            **self._rule_base.input_variables,
            **self._rule_base.output_variables,
        }
        try:
            var = all_vars[variable]
        except KeyError:
            raise KeyError(
                f"controller {self._name!r} has no variable {variable!r}; "
                f"available: {sorted(all_vars)}"
            ) from None
        xs = np.linspace(*var.universe, points)
        table: dict[str, list[tuple[float, float]]] = {}
        for term in var:
            mu = term.membership.sample(xs)
            table[term.name] = [(float(x), float(m)) for x, m in zip(xs, mu)]
        return table
