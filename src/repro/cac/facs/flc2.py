"""FLC2 — the fuzzy admission-decision controller (Section 3.2).

Inputs: the correction value ``Cv`` produced by FLC1, the requested bandwidth
``R`` (in BU — 1 for text, 5 for voice, 10 for video) and the counter state
``Cs`` (total BU in use at the base station).  Output: the soft
accept/reject value ``A/R ∈ [-1, 1]`` whose linguistic terms are
{Reject, Weak Reject, Not-Reject-Not-Accept, Weak Accept, Accept}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...fuzzy.controller import FuzzyController
from ...fuzzy.definition import FLCDefinition
from ..base import DecisionOutcome
from .definitions import FLC2_VARIABLES, flc2_definition
from .flc1 import _check_definition_shape

__all__ = ["FLC2", "DecisionResult"]


@dataclass(frozen=True)
class DecisionResult:
    """FLC2 output with diagnostics."""

    score: float
    outcome: str
    dominant_rule: str
    correction_value: float
    request_bu: float
    counter_state_bu: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.score <= 1.0:
            raise ValueError(f"decision score must lie in [-1, 1], got {self.score}")
        if self.outcome not in DecisionOutcome.ORDERED:
            raise ValueError(f"unknown outcome {self.outcome!r}")


class FLC2:
    """The admission-decision fuzzy controller of the FACS system.

    Compiled from ``definition``; ``None`` means the paper's
    (:func:`~repro.cac.facs.definitions.flc2_definition`).
    """

    def __init__(self, definition: FLCDefinition | None = None):
        if definition is None:
            definition = flc2_definition()
        _check_definition_shape(definition, *FLC2_VARIABLES, "FLC2")
        self._definition = definition
        self._controller = definition.build_controller()

    # ------------------------------------------------------------------
    @property
    def definition(self) -> FLCDefinition:
        """The declarative definition this controller was built from."""
        return self._definition

    @property
    def controller(self) -> FuzzyController:
        return self._controller

    @property
    def rule_count(self) -> int:
        return len(self._controller.rule_base)

    # ------------------------------------------------------------------
    def decision_score(
        self, correction_value: float, request_bu: float, counter_state_bu: float
    ) -> float:
        """Defuzzified A/R score in [-1, 1] for raw crisp inputs."""
        return self._controller.compute(Cv=correction_value, R=request_bu, Cs=counter_state_bu)

    def decision_scores(
        self,
        correction_values: np.ndarray,
        request_bus: np.ndarray,
        counter_states_bu: np.ndarray,
    ) -> np.ndarray:
        """A/R scores for whole input vectors in one tensorized pass.

        Bit-identical to calling :meth:`evaluate` per element (including its
        [-1, 1] clip); the batched counterpart of the simulator's scalar
        admission decision.
        """
        return np.clip(
            self._controller.compute_batch(
                Cv=correction_values, R=request_bus, Cs=counter_states_bu
            ),
            -1.0,
            1.0,
        )

    def evaluate(
        self, correction_value: float, request_bu: float, counter_state_bu: float
    ) -> DecisionResult:
        """Full soft decision for the given inputs, with diagnostics."""
        crisp = self._controller.crisp_decision(
            Cv=correction_value, R=request_bu, Cs=counter_state_bu
        )
        score = min(max(crisp["AR"], -1.0), 1.0)
        return DecisionResult(
            score=score,
            outcome=self.classify_score(score),
            dominant_rule=crisp.dominant_label,
            correction_value=correction_value,
            request_bu=request_bu,
            counter_state_bu=counter_state_bu,
        )

    @staticmethod
    def classify_score(score: float) -> str:
        """Map a crisp A/R score to the nearest linguistic outcome.

        The five terms are centred at −1, −0.5, 0, 0.5 and 1; the midpoints
        between adjacent centres are the classification boundaries.
        """
        if score <= -0.75:
            return DecisionOutcome.REJECT
        if score <= -0.25:
            return DecisionOutcome.WEAK_REJECT
        if score < 0.25:
            return DecisionOutcome.NEUTRAL
        if score < 0.75:
            return DecisionOutcome.WEAK_ACCEPT
        return DecisionOutcome.ACCEPT
