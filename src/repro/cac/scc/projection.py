"""Shadow-cluster probability projection.

Following Levine, Akyildiz and Naghshineh (IEEE/ACM ToN 1997), every active
mobile terminal projects, for a sequence of future time intervals, the
probability of still being *active in* its cell.  The projection here is
derived from the same GPS observation FACS uses — speed, heading relative
to the serving base station and distance — plus an exponential
call-holding-time assumption:

* **Residency**: a user moving towards the base station (|angle| small) at
  distance ``d`` and speed ``v`` is expected to remain in the cell for at
  least the time needed to cross it; a user moving away exits after roughly
  ``(R - d) / v``.  The probability of still being in the cell decays once
  the expected exit time is passed.
* **Activity**: the probability that the call is still in progress after
  ``t`` seconds is ``exp(-t / mean_holding_time)``.

The neighbouring cells enter only through the controller's reservations
(``handoff_reservation_bu`` plus ``incoming_projection_factor`` times the
cell's occupancy, see :class:`~repro.cac.scc.system.SCCConfig`); no demand
is projected onto them.  The paper under reproduction does not restate
these formulas; they are the standard SCC behaviour and the Fig. 10
crossover is robust to the constants (see the threshold ablation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ...cellular.mobility import UserState

__all__ = [
    "ProjectionConfig",
    "ResidencyProjection",
    "exit_time_s",
    "expected_exit_time_s",
    "in_cell_active",
    "project_residency",
]


@dataclass(frozen=True)
class ProjectionConfig:
    """Parameters of the shadow-cluster projection."""

    #: Number of future intervals the cluster projects over.
    horizon_intervals: int = 6
    #: Length of one projection interval in seconds.
    interval_s: float = 10.0
    #: Effective cell radius used to estimate time-to-exit, in km.
    cell_radius_km: float = 10.0
    #: Mean call holding time assumed for the activity decay, in seconds.
    mean_holding_time_s: float = 120.0
    #: Minimum speed (km/h) below which the user is treated as stationary.
    stationary_speed_kmh: float = 1.0
    #: Residual in-cell probability for a user that has nominally exited
    #: (accounts for direction changes bringing the user back).
    residual_probability: float = 0.1

    def __post_init__(self) -> None:
        if self.horizon_intervals < 1:
            raise ValueError(
                f"horizon_intervals must be >= 1, got {self.horizon_intervals}"
            )
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {self.interval_s}")
        if self.cell_radius_km <= 0:
            raise ValueError(f"cell_radius_km must be positive, got {self.cell_radius_km}")
        if self.mean_holding_time_s <= 0:
            raise ValueError(
                f"mean_holding_time_s must be positive, got {self.mean_holding_time_s}"
            )
        if not 0.0 <= self.residual_probability <= 1.0:
            raise ValueError(
                f"residual_probability must lie in [0, 1], got {self.residual_probability}"
            )

    @property
    def horizon_s(self) -> float:
        return self.horizon_intervals * self.interval_s

    def interval_times(self) -> list[float]:
        """End times (seconds from now) of each projection interval."""
        return [(k + 1) * self.interval_s for k in range(self.horizon_intervals)]


@dataclass(frozen=True)
class ResidencyProjection:
    """Per-interval probabilities that a call remains active in its cell."""

    in_cell_active: tuple[float, ...]
    expected_exit_s: float

    def __post_init__(self) -> None:
        for p in self.in_cell_active:
            if not 0.0 <= p <= 1.0 + 1e-9:
                raise ValueError(f"projection probabilities must lie in [0, 1], got {p}")


def exit_time_s(
    speed_kmh: float, angle_deg: float, distance_km: float, config: ProjectionConfig
) -> float:
    """Expected time (s) until a user with this observation leaves its cell.

    A user heading towards the base station must cross to the far edge of the
    cell (distance ``d + R`` along its heading component); a user heading away
    exits after covering ``R - d``.  Stationary users never exit.
    """
    speed_km_per_s = speed_kmh / 3600.0
    if speed_kmh < config.stationary_speed_kmh or speed_km_per_s <= 0.0:
        return math.inf
    radius = config.cell_radius_km
    distance = min(distance_km, radius)
    heading = math.radians(abs(angle_deg))
    # Component of motion towards (+) or away from (-) the base station.
    radial = math.cos(heading)
    if radial >= 0:
        # Moving towards the BS: travels inwards, then out the other side.
        travel_km = distance * radial + radius
    else:
        # Moving away: must cover the remaining distance to the boundary.
        travel_km = max(radius - distance, 0.05)
    return travel_km / speed_km_per_s


def expected_exit_time_s(user: UserState, config: ProjectionConfig) -> float:
    """Expected time (s) until the user leaves the serving cell (see
    :func:`exit_time_s`)."""
    return exit_time_s(user.speed_kmh, user.angle_deg, user.distance_km, config)


def in_cell_active(exit_s: float, config: ProjectionConfig) -> tuple[float, ...]:
    """Per-interval probability that a call is still active and inside its
    cell, for a user expected to leave it after ``exit_s`` seconds.

    The one projection arithmetic: :func:`project_residency` and the SCC
    column blocks of the single-cell admission loop both call it.
    """
    in_cell: list[float] = []
    for t in config.interval_times():
        active = math.exp(-t / config.mean_holding_time_s)
        if math.isinf(exit_s):
            stay = 1.0
        elif t <= exit_s:
            stay = 1.0
        else:
            # After the nominal exit time the in-cell probability decays
            # geometrically per interval towards the residual floor.
            overshoot_intervals = (t - exit_s) / config.interval_s
            stay = max(config.residual_probability, 0.5**overshoot_intervals)
        in_cell.append(active * stay)
    return tuple(in_cell)


def project_residency(user: UserState | None, config: ProjectionConfig) -> ResidencyProjection:
    """Project the probability that a call is still active in its cell, per
    interval.  A fixed terminal (no user state) never leaves its cell."""
    exit_s = math.inf if user is None else expected_exit_time_s(user, config)
    return ResidencyProjection(in_cell_active(exit_s, config), exit_s)
