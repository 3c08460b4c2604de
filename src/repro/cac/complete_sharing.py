"""Complete Sharing (CS) admission control.

The simplest CAC technique discussed in the paper's introduction: an arriving
call is served whenever enough free channels exist for it; otherwise it is
lost.  "Easy to implement but not fair to customers with large bandwidth
requirements" — the acceptance upper bound of the baseline ablation.
"""

from __future__ import annotations

from ..cellular.calls import Call
from ..cellular.cell import BaseStation
from .base import AdmissionController, AdmissionDecision, DecisionOutcome

__all__ = ["CompleteSharingController"]


class CompleteSharingController(AdmissionController):
    """Admit any call that fits in the free bandwidth."""

    name = "CS"

    def decide(self, call: Call, station: BaseStation, now: float) -> AdmissionDecision:
        fits = station.can_fit(call.bandwidth_units)
        if fits:
            reason = (
                f"{call.bandwidth_units} BU fits in {station.free_bu} BU of free bandwidth"
            )
        else:
            reason = (
                f"insufficient bandwidth: need {call.bandwidth_units} BU, "
                f"{station.free_bu} BU free"
            )
        free_after = station.free_bu - call.bandwidth_units
        return AdmissionDecision(
            accepted=fits,
            score=max(-1.0, min(1.0, free_after / station.capacity_bu)),
            outcome=DecisionOutcome.ACCEPT if fits else DecisionOutcome.REJECT,
            reason=reason,
            diagnostics={"free_bu": float(station.free_bu)},
        )
