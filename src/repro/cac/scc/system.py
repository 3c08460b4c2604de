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

import math
import time
from dataclasses import dataclass
from operator import add

import numpy as np

from ...cellular.calls import Call
from ...cellular.cell import BaseStation
from ...des.rng import _mix_seed, mix_seeds, pcg64_random_raw
from ..base import AdmissionController, AdmissionDecision, DecisionOutcome
from .demand import DemandEstimator, in_cell_demand
from .projection import ProjectionConfig, exit_time_s, in_cell_active

__all__ = ["SCCColumns", "SCCConfig", "ShadowClusterController"]


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


def _reservation_label(
    requested_at: float, speed_kmh: float, angle_deg: float, distance_km: float
) -> str:
    """The text a request's reservation draw is seeded from."""
    return f"{requested_at:.6f}:{speed_kmh:.3f}:{angle_deg:.3f}:{distance_km:.3f}"


class SCCColumns:
    """SCC's verdicts for one block of rows of the single-cell admission loop.

    What :meth:`ShadowClusterController.decide_columns` returns.  It holds
    each row's in-cell demand tuple (``demands``) and reservation verdict,
    and reads the controller's :class:`~repro.cac.scc.demand.DemandEstimator`
    as the envelope ledger, which the loop keeps: it adds an admitted row's
    demand under the row's index and removes it at the row's departure.
    ``accepts(k, occupancy)`` is then what ``accepts`` answers on row
    ``k``'s :class:`~repro.cellular.calls.Call` at a station of that
    occupancy that it fits, the loop checking the fit first.
    """

    def __init__(
        self,
        ledger: DemandEstimator,
        demands: list[tuple[float, ...]],
        reserved: list[bool],
        config: SCCConfig,
        capacity_bu: int,
    ):
        self.demands = demands
        self._reserved = reserved
        self._ledger = ledger
        self._reservation_bu = config.handoff_reservation_bu
        self._incoming_factor = config.incoming_projection_factor
        self._admission_capacity = config.admission_threshold * capacity_bu
        #: Rows that needed reservations, and those whose draw failed.
        self.reservation_rows = 0
        self.failed_rows = 0
        #: Kernel calls (0 or 1) that drew the reservations, and their time.
        self.kernel_calls = 0
        self.kernel_ms = 0.0

    def accepts(self, k: int, occupancy_bu: int) -> bool:
        """Row ``k``'s verdict at ``occupancy_bu``, for a request that fits."""
        if not self._reserved[k]:
            return False
        incoming = self._reservation_bu + self._incoming_factor * occupancy_bu
        envelope = [total + incoming for total in self._ledger.projected_in_cell_demand()]
        return max(map(add, envelope, self.demands[k])) <= self._admission_capacity


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

        This scalar draw is the definition: :meth:`decide_columns` draws a
        whole block's reservations in one call of
        :func:`~repro.des.rng.pcg64_random_raw`, bit for bit the same.
        """
        failure = self._config.reservation_failure_probability
        count = self.required_reservations(call)
        if failure <= 0.0 or count == 0:
            return True
        # A call that needs reservations has a user state.
        user = call.user_state
        label = _reservation_label(
            call.requested_at, user.speed_kmh, user.angle_deg, user.distance_km
        )
        # One Bernoulli draw per reservation, bit for bit what a RandomStream
        # seeded with ``seed`` draws: numpy's Generator.random() on PCG64 is
        # the top 53 bits of one raw output, scaled to [0, 1).
        seed = _mix_seed(self._config.reservation_seed, label)
        raw = np.random.PCG64(seed).random_raw(count).tolist()
        return not any((value >> 11) * 2.0**-53 < failure for value in raw)

    def decide_columns(
        self,
        arrival_times_s: np.ndarray,
        speeds_kmh: np.ndarray,
        angles_deg: np.ndarray,
        distances_km: np.ndarray,
        bandwidth_units: np.ndarray,
        capacity_bu: int,
    ) -> SCCColumns:
        """Verdicts for a block of pre-drawn request columns at one cell.

        Each row's demand tuple comes from the projection arithmetic
        :meth:`accepts` runs, and each row's reservation verdict from one
        call of :func:`~repro.des.rng.pcg64_random_raw` over the block's
        mobile rows (``speed_kmh >= stationary_speed_kmh``), seeded as
        :meth:`_establish_reservations` seeds one.  No ``Call``,
        ``DemandProfile`` or generator is built.  The returned block reads
        this controller's estimator as its ledger.
        """
        config = self._config
        projection = config.projection
        arrivals = arrival_times_s.tolist()
        speeds = speeds_kmh.tolist()
        angles = angles_deg.tolist()
        distances = distances_km.tolist()
        # A user who stays past the horizon stays in every interval, as a
        # stationary one does, so its demand depends on its bandwidth alone.
        staying = in_cell_active(math.inf, projection)
        staying_demands: dict[int, tuple[float, ...]] = {}
        demands = []
        for bandwidth, speed, angle, distance in zip(
            bandwidth_units.tolist(), speeds, angles, distances
        ):
            exit_s = exit_time_s(speed, angle, distance, projection)
            if exit_s < projection.horizon_s:
                demands.append(in_cell_demand(bandwidth, in_cell_active(exit_s, projection)))
            else:
                demand = staying_demands.get(bandwidth)
                if demand is None:
                    demand = staying_demands[bandwidth] = in_cell_demand(bandwidth, staying)
                demands.append(demand)
        reserved = [True] * len(demands)
        block = SCCColumns(self._estimator, demands, reserved, config, capacity_bu)
        failure = config.reservation_failure_probability
        count = config.reservations_per_mobile_user
        if failure <= 0.0 or count == 0:
            return block
        mobile = np.flatnonzero(speeds_kmh >= projection.stationary_speed_kmh)
        if not len(mobile):
            return block
        labels = [
            _reservation_label(arrivals[row], speeds[row], angles[row], distances[row])
            for row in mobile.tolist()
        ]
        started = time.perf_counter()
        raw = pcg64_random_raw(mix_seeds(config.reservation_seed, labels), count)
        failed = mobile[((raw >> 11) * 2.0**-53 < failure).any(axis=1)].tolist()
        block.kernel_ms = (time.perf_counter() - started) * 1e3
        block.kernel_calls = 1
        block.reservation_rows = len(labels)
        block.failed_rows = len(failed)
        for row in failed:
            reserved[row] = False
        return block

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
        calls whose verdict it can change.  What the network engines ask,
        and the single-cell admission loop for a subclass or a run that
        collects the per-call trace; the loop answers an exact
        :class:`ShadowClusterController` from :meth:`decide_columns`.
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
