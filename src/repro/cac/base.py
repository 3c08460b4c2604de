"""Admission-controller interface shared by FACS, SCC and the baselines.

Every controller answers the same question the paper poses during the call
setup phase: *given a connection request and the current state of the base
station, should the call be admitted?*  Controllers additionally receive
lifecycle notifications (admitted / released) so stateful schemes — SCC's
shadow-cluster bookkeeping, for one — can track ongoing calls.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..cellular.calls import Call
from ..cellular.cell import BaseStation

__all__ = ["AdmissionDecision", "AdmissionController", "DecisionOutcome"]


class DecisionOutcome:
    """Soft decision labels matching the paper's A/R term set."""

    REJECT = "reject"
    WEAK_REJECT = "weak_reject"
    NEUTRAL = "not_reject_not_accept"
    WEAK_ACCEPT = "weak_accept"
    ACCEPT = "accept"

    ORDERED = (REJECT, WEAK_REJECT, NEUTRAL, WEAK_ACCEPT, ACCEPT)


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission decision.

    ``accepted`` is the binding crisp decision.  ``score`` is the controller's
    soft output when it has one (FACS exposes the defuzzified A/R value in
    [-1, 1]); ``outcome`` is the corresponding linguistic label; ``reason``
    is a human-readable explanation; ``diagnostics`` carries
    controller-specific numbers (e.g. FLC1's correction value) that the
    experiment layer logs.
    """

    accepted: bool
    score: float = 0.0
    outcome: str = DecisionOutcome.NEUTRAL
    reason: str = ""
    diagnostics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.outcome not in DecisionOutcome.ORDERED:
            raise ValueError(
                f"unknown outcome {self.outcome!r}; expected one of {DecisionOutcome.ORDERED}"
            )


class AdmissionController(ABC):
    """Abstract call admission controller."""

    #: Short display name used in benchmark tables ("FACS", "SCC", "CS", ...).
    name: str = "controller"

    @abstractmethod
    def decide(self, call: Call, station: BaseStation, now: float) -> AdmissionDecision:
        """Decide whether to admit ``call`` at ``station`` at time ``now``.

        Implementations must not mutate the station's ledger — the caller
        performs the allocation after a positive decision and then invokes
        :meth:`on_admitted`.
        """

    def accepts(self, call: Call, station: BaseStation, now: float) -> bool:
        """The verdict of :meth:`decide`, without its score, reason or diagnostics.

        What the network engine asks per handoff, and what it and the
        admission loop ask per new call of every controller but an exact
        FACS, whose new calls they decide in FACS blocks.  A controller may
        answer it faster than :meth:`decide`, but never differently: the
        result (and any error raised) must equal ``decide(call, station,
        now).accepted``.  The same no-mutation rule applies.
        """
        return self.decide(call, station, now).accepted

    # -- lifecycle notifications (default: stateless no-ops) -------------
    def on_admitted(self, call: Call, station: BaseStation, now: float) -> None:
        """Called after the call's bandwidth has been allocated."""

    def on_released(self, call: Call, station: BaseStation, now: float) -> None:
        """Called after the call's bandwidth has been released (completion, drop or handoff-out)."""

    def reset(self) -> None:
        """Clear any internal state between simulation replications."""

    def warm_up(self, bandwidths_bu: Iterable[int]) -> None:
        """Build now, in this process, what deciding requests of these bandwidths reads.

        Called once per controller configuration in the parent of a process
        pool that forks its workers, so they inherit what it builds instead
        of each building it.  It must change no verdict.  The default builds
        nothing.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
