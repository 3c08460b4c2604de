"""Shadow-cluster demand estimation.

A base station participating in a shadow cluster keeps, for every active call
it knows about (its own calls plus the calls of neighbouring cells whose
shadow reaches it), the projected bandwidth demand in each future interval.
The admission test of Levine et al. then checks that, with the new call
included, the projected demand never exceeds the admission-capacity target in
any interval of the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...cellular.calls import Call
from .projection import ProjectionConfig, ResidencyProjection, project_residency

__all__ = ["DemandEstimator", "DemandProfile"]


@dataclass(frozen=True)
class DemandProfile:
    """Projected bandwidth demand (BU) of one call per future interval."""

    call_id: int
    bandwidth_units: int
    in_cell: tuple[float, ...]
    outgoing: tuple[float, ...]
    _in_cell_demand: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Read on every admission test while the call is tracked.
        demand = tuple(self.bandwidth_units * p for p in self.in_cell)
        object.__setattr__(self, "_in_cell_demand", demand)

    def in_cell_demand(self) -> tuple[float, ...]:
        """Expected BU this call needs in its current cell per interval."""
        return self._in_cell_demand

    def outgoing_demand(self) -> tuple[float, ...]:
        """Expected BU this call projects onto neighbouring cells per interval."""
        return tuple(self.bandwidth_units * p for p in self.outgoing)


class DemandEstimator:
    """Tracks active calls of one cell and aggregates projected demand."""

    def __init__(self, config: ProjectionConfig):
        self._config = config
        self._profiles: dict[int, DemandProfile] = {}
        #: The call :meth:`profile_for` projected last, with its profile.
        #: :meth:`track` reuses the profile for that same call object only.
        self._last: tuple[Call, DemandProfile] | None = None

    # ------------------------------------------------------------------
    @property
    def config(self) -> ProjectionConfig:
        return self._config

    @property
    def tracked_calls(self) -> int:
        return len(self._profiles)

    def is_tracking(self, call: Call) -> bool:
        return call.call_id in self._profiles

    # ------------------------------------------------------------------
    def profile_for(self, call: Call) -> DemandProfile:
        """Build the demand profile of a (not necessarily tracked) call."""
        projection: ResidencyProjection = project_residency(call.user_state, self._config)
        profile = DemandProfile(
            call_id=call.call_id,
            bandwidth_units=call.bandwidth_units,
            in_cell=projection.in_cell_active,
            outgoing=projection.departed_active,
        )
        self._last = (call, profile)
        return profile

    def track(self, call: Call) -> DemandProfile:
        """Start projecting an admitted call's demand.

        A call is admitted at the instant it was scored, so the profile
        :meth:`profile_for` just built for this very call object is reused
        instead of projected again.
        """
        if call.call_id in self._profiles:
            raise ValueError(f"call {call.call_id} is already tracked")
        last = self._last
        profile = last[1] if last is not None and last[0] is call else self.profile_for(call)
        self._last = None
        self._profiles[call.call_id] = profile
        return profile

    def untrack(self, call: Call) -> None:
        """Stop projecting a call (completed, dropped or handed off away)."""
        self._profiles.pop(call.call_id, None)

    def reset(self) -> None:
        self._profiles.clear()
        self._last = None

    # ------------------------------------------------------------------
    def projected_in_cell_demand(self) -> list[float]:
        """Expected BU needed in this cell per future interval (tracked calls).

        Each interval's total is summed from 0.0 call by call, in tracking
        order.
        """
        if not self._profiles:
            return [0.0] * self._config.horizon_intervals
        totals = []
        demands = [profile.in_cell_demand() for profile in self._profiles.values()]
        for column in zip(*demands):
            total = 0.0
            for demand in column:
                total += demand
            totals.append(total)
        return totals

    def projected_outgoing_demand(self) -> list[float]:
        """Expected BU tracked calls project onto neighbouring cells per interval."""
        totals = [0.0] * self._config.horizon_intervals
        for profile in self._profiles.values():
            for index, demand in enumerate(profile.outgoing_demand()):
                totals[index] += demand
        return totals

    def peak_projected_demand(self) -> float:
        """Maximum projected in-cell demand over the horizon (BU)."""
        demand = self.projected_in_cell_demand()
        return max(demand) if demand else 0.0
