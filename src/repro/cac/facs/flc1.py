"""FLC1 — the fuzzy mobility-prediction controller (Section 3.1).

Inputs: user Speed ``S`` (km/h), user Angle ``A`` (degrees, relative to the
bearing towards the base station) and Distance ``D`` between user and BS
(km).  Output: Correction value ``Cv ∈ [0, 1]`` expressing how favourable
the user's predicted trajectory is — 1 for a fast user heading straight at a
nearby BS, 0 for a user heading away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...cellular.mobility import UserState
from ...fuzzy.controller import FuzzyController
from ...fuzzy.definition import DefinitionError, FLCDefinition
from .definitions import FLC1_VARIABLES, flc1_definition

__all__ = ["FLC1", "CorrectionResult"]


def _check_definition_shape(
    definition: FLCDefinition,
    inputs: tuple[str, ...],
    outputs: tuple[str, ...],
    slot: str,
) -> None:
    """Reject a definition whose variables don't fit the FACS pipeline slot."""
    if definition.input_names() != inputs or definition.output_names() != outputs:
        raise DefinitionError(
            f"definition {definition.name!r} does not fit the {slot} slot: "
            f"expected inputs {list(inputs)} and outputs {list(outputs)}, "
            f"got inputs {list(definition.input_names())} and outputs "
            f"{list(definition.output_names())}"
        )


@dataclass(frozen=True)
class CorrectionResult:
    """FLC1 output with diagnostics."""

    correction_value: float
    dominant_rule: str
    inputs: UserState

    def __post_init__(self) -> None:
        if not 0.0 <= self.correction_value <= 1.0:
            raise ValueError(
                f"correction value must lie in [0, 1], got {self.correction_value}"
            )


class FLC1:
    """The mobility-prediction fuzzy controller of the FACS system.

    Compiled from ``definition``; ``None`` means the paper's
    (:func:`~repro.cac.facs.definitions.flc1_definition`).
    """

    def __init__(self, definition: FLCDefinition | None = None):
        if definition is None:
            definition = flc1_definition()
        _check_definition_shape(definition, *FLC1_VARIABLES, "FLC1")
        self._definition = definition
        self._controller = definition.build_controller()

    # ------------------------------------------------------------------
    @property
    def definition(self) -> FLCDefinition:
        """The declarative definition this controller was built from."""
        return self._definition

    @property
    def controller(self) -> FuzzyController:
        """The underlying generic fuzzy controller (for introspection/tests)."""
        return self._controller

    @property
    def rule_count(self) -> int:
        return len(self._controller.rule_base)

    # ------------------------------------------------------------------
    def correction_value(
        self, speed_kmh: float, angle_deg: float, distance_km: float
    ) -> float:
        """Compute Cv for raw crisp inputs (clamped to their universes)."""
        return self._controller.compute(S=speed_kmh, A=angle_deg, D=distance_km)

    def correction_values(
        self,
        speeds_kmh: np.ndarray,
        angles_deg: np.ndarray,
        distances_km: np.ndarray,
    ) -> np.ndarray:
        """Cv for whole vectors of observations in one tensorized pass.

        Bit-identical to calling :meth:`evaluate` per element (including its
        [0, 1] clip): the engine evaluates the batch through its
        antecedent/consequent tensors.
        """
        return np.clip(
            self._controller.compute_batch(S=speeds_kmh, A=angles_deg, D=distances_km),
            0.0,
            1.0,
        )

    def evaluate(self, user: UserState) -> CorrectionResult:
        """Compute Cv for a :class:`UserState`, with rule diagnostics."""
        crisp = self._controller.crisp_decision(
            S=user.speed_kmh, A=user.angle_deg, D=user.distance_km
        )
        return CorrectionResult(
            correction_value=min(max(crisp["Cv"], 0.0), 1.0),
            dominant_rule=crisp.dominant_label,
            inputs=user,
        )
