"""The Shadow Cluster Concept (SCC) admission controller.

This is the comparator of Fig. 10 of the paper, following Levine, Akyildiz
and Naghshineh (IEEE/ACM ToN 1997): each base station projects the bandwidth
demand of the active calls in its shadow cluster over a horizon of future
intervals and admits a new call only if, with the new call included, the
projected demand stays within the admission target in every interval.

The projection uses the same GPS observation FACS receives, but — unlike
FACS — the admission test itself does not *grade* the requesting user's
trajectory: any call that fits under the projected-demand envelope is
admitted.  Two behaviours follow, and they are exactly the qualitative
differences the paper reports in Fig. 10:

* at light load SCC still reserves bandwidth for predicted handoffs from
  neighbouring cells (``handoff_reservation_bu`` plus a load-proportional
  term under the equal-probability-neighbour assumption the paper's
  introduction criticises), so it blocks a few requests FACS would accept;
* at heavy load SCC keeps admitting any call that fits under the envelope,
  whereas FACS holds back calls with unfavourable trajectories to protect
  the QoS of ongoing calls — so SCC's acceptance ends up higher.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...cellular.calls import Call
from ...cellular.cell import BaseStation
from ...des.rng import _mix_seed
from ..base import AdmissionController, AdmissionDecision, DecisionOutcome
from .demand import DemandEstimator
from .projection import ProjectionConfig

__all__ = ["SCCConfig", "ShadowClusterController"]


@dataclass(frozen=True)
class SCCConfig:
    """Tunable parameters of the SCC controller."""

    projection: ProjectionConfig = ProjectionConfig()
    #: Fixed bandwidth (BU) reserved for handoffs predicted to arrive from
    #: neighbouring cells of the shadow cluster.
    handoff_reservation_bu: float = 8.0
    #: Additional incoming-handoff demand as a fraction of the cell's own
    #: occupancy (equal-probability neighbour-movement assumption).
    incoming_projection_factor: float = 0.15
    #: Fraction of the capacity usable by the admission test (1.0 = all of it).
    admission_threshold: float = 1.0
    #: Number of bordering cells in the user's direction of travel for which
    #: the tentative shadow cluster must establish reservations before the
    #: call is admitted (0 for stationary users).
    reservations_per_mobile_user: int = 2
    #: Probability that establishing one of those reservations fails because
    #: the neighbouring base station's probabilistic information is stale or
    #: the equal-probability movement assumption mispredicts the target cell
    #: (the weakness of SCC the paper's introduction points out).  This is
    #: what keeps SCC's acceptance slightly below FACS's at light load.
    reservation_failure_probability: float = 0.03
    #: Seed mixed into the per-call reservation draw (kept for reproducibility).
    reservation_seed: int = 19970101

    def __post_init__(self) -> None:
        if self.handoff_reservation_bu < 0:
            raise ValueError(
                f"handoff_reservation_bu must be non-negative, got {self.handoff_reservation_bu}"
            )
        if self.incoming_projection_factor < 0:
            raise ValueError(
                f"incoming_projection_factor must be non-negative, "
                f"got {self.incoming_projection_factor}"
            )
        if not 0.0 < self.admission_threshold <= 1.0:
            raise ValueError(
                f"admission_threshold must lie in (0, 1], got {self.admission_threshold}"
            )
        if self.reservations_per_mobile_user < 0:
            raise ValueError(
                f"reservations_per_mobile_user must be non-negative, "
                f"got {self.reservations_per_mobile_user}"
            )
        if not 0.0 <= self.reservation_failure_probability < 1.0:
            raise ValueError(
                f"reservation_failure_probability must lie in [0, 1), "
                f"got {self.reservation_failure_probability}"
            )


class ShadowClusterController(AdmissionController):
    """SCC admission control based on projected shadow-cluster demand."""

    name = "SCC"

    def __init__(self, config: SCCConfig | None = None):
        self._config = config or SCCConfig()
        self._estimator = DemandEstimator(self._config.projection)

    # ------------------------------------------------------------------
    @property
    def config(self) -> SCCConfig:
        return self._config

    @property
    def estimator(self) -> DemandEstimator:
        return self._estimator

    # ------------------------------------------------------------------
    def projected_envelope(self, station: BaseStation) -> list[float]:
        """Projected demand (BU) per future interval, including reservations."""
        own = self._estimator.projected_in_cell_demand()
        incoming = (
            self._config.handoff_reservation_bu
            + self._config.incoming_projection_factor * station.used_bu
        )
        return [demand + incoming for demand in own]

    def required_reservations(self, call: Call) -> int:
        """Bordering-cell reservations the tentative shadow cluster needs."""
        user = call.user_state
        if user is None:
            return 0
        if user.speed_kmh < self._config.projection.stationary_speed_kmh:
            return 0
        return self._config.reservations_per_mobile_user

    def _establish_reservations(self, call: Call) -> bool:
        """Try to establish the bordering-cell reservations for a new call.

        The outcome is a deterministic pseudo-random function of the request
        itself (user state, arrival time and the configured seed), so the
        same workload always produces the same SCC decisions while different
        calls and different replications see independent draws.  The label
        deliberately excludes ``call_id``: ids are an artifact of object
        creation order, and seeding from them would make SCC's decisions
        depend on what else ran in the process before this call.
        """
        failure = self._config.reservation_failure_probability
        count = self.required_reservations(call)
        if failure <= 0.0 or count == 0:
            return True
        # A call that needs reservations has a user state.
        user = call.user_state
        label = (
            f"{call.requested_at:.6f}:{user.speed_kmh:.3f}:"
            f"{user.angle_deg:.3f}:{user.distance_km:.3f}"
        )
        # One Bernoulli draw per reservation, bit for bit what a RandomStream
        # seeded with ``seed`` draws: numpy's Generator.random() on PCG64 is
        # the top 53 bits of one raw output, scaled to [0, 1).
        seed = _mix_seed(self._config.reservation_seed, label)
        raw = np.random.PCG64(seed).random_raw(count).tolist()
        return not any((value >> 11) * 2.0**-53 < failure for value in raw)

    def _admission_test(self, call: Call, station: BaseStation) -> tuple[bool, float, float]:
        """``(fits, projected peak, admission capacity)`` of a request.

        Projects the candidate through the estimator's ``profile_for``,
        whose profile :meth:`on_admitted` reuses when the call is tracked.
        """
        admission_capacity = self._config.admission_threshold * station.capacity_bu
        fits = station.can_fit(call.bandwidth_units)

        candidate = self._estimator.profile_for(call)
        envelope = self.projected_envelope(station)
        candidate_demand = candidate.in_cell_demand()
        peak = max(base + extra for base, extra in zip(envelope, candidate_demand))
        return fits, peak, admission_capacity

    def accepts(self, call: Call, station: BaseStation, now: float) -> bool:
        """The verdict of :meth:`decide`, without its reason or diagnostics.

        The reservation draw is a pure function of the call, so it is made
        only for a call that fits and stays within the envelope, the only
        calls whose verdict it can change.
        """
        fits, peak, admission_capacity = self._admission_test(call, station)
        return fits and peak <= admission_capacity and self._establish_reservations(call)

    def decide(self, call: Call, station: BaseStation, now: float) -> AdmissionDecision:
        fits, peak, admission_capacity = self._admission_test(call, station)
        within_envelope = peak <= admission_capacity
        reservations_ok = self._establish_reservations(call)
        accepted = fits and within_envelope and reservations_ok

        if not fits:
            reason = (
                f"insufficient bandwidth: need {call.bandwidth_units} BU, "
                f"{station.free_bu} BU free"
            )
        elif not within_envelope:
            reason = (
                f"projected peak demand {peak:.1f} BU exceeds admission capacity "
                f"{admission_capacity:.1f} BU"
            )
        elif not reservations_ok:
            reason = (
                "could not establish bandwidth reservations in the tentative "
                "shadow cluster's bordering cells"
            )
        else:
            reason = (
                f"projected peak demand {peak:.1f} BU within admission capacity "
                f"{admission_capacity:.1f} BU"
            )
        margin = admission_capacity - peak
        # Scale the margin into a [-1, 1] score for comparability with FACS.
        score = max(-1.0, min(1.0, margin / station.capacity_bu))
        outcome = DecisionOutcome.ACCEPT if accepted else DecisionOutcome.REJECT
        return AdmissionDecision(
            accepted=accepted,
            score=score,
            outcome=outcome,
            reason=reason,
            diagnostics={
                "projected_peak_bu": peak,
                "admission_capacity_bu": admission_capacity,
                "used_bu": float(station.used_bu),
                "reservation_bu": float(
                    self._config.handoff_reservation_bu
                    + self._config.incoming_projection_factor * station.used_bu
                ),
                "required_reservations": float(self.required_reservations(call)),
                "reservations_ok": 1.0 if reservations_ok else 0.0,
            },
        )

    # -- lifecycle -------------------------------------------------------
    def on_admitted(self, call: Call, station: BaseStation, now: float) -> None:
        if not self._estimator.is_tracking(call):
            self._estimator.track(call)

    def on_released(self, call: Call, station: BaseStation, now: float) -> None:
        self._estimator.untrack(call)

    def reset(self) -> None:
        self._estimator.reset()
