"""Shadow-cluster demand estimation.

A base station participating in a shadow cluster keeps, for every active call
it knows about, the projected bandwidth demand in each future interval.  The
admission test of Levine et al. then checks that, with the new call
included, the projected demand never exceeds the admission-capacity target in
any interval of the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...cellular.calls import Call
from .projection import ProjectionConfig, ResidencyProjection, project_residency

__all__ = ["DemandEstimator", "DemandProfile", "in_cell_demand"]


def in_cell_demand(bandwidth_units: int, in_cell: tuple[float, ...]) -> tuple[float, ...]:
    """Expected BU a call of ``bandwidth_units`` needs in its cell per
    interval, from its :func:`~repro.cac.scc.projection.in_cell_active`."""
    return tuple(bandwidth_units * p for p in in_cell)


@dataclass(frozen=True)
class DemandProfile:
    """Projected bandwidth demand (BU) of one call per future interval."""

    call_id: int
    bandwidth_units: int
    in_cell: tuple[float, ...]
    _in_cell_demand: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Read on every admission test while the call is tracked.
        object.__setattr__(
            self, "_in_cell_demand", in_cell_demand(self.bandwidth_units, self.in_cell)
        )

    def in_cell_demand(self) -> tuple[float, ...]:
        """Expected BU this call needs in its current cell per interval."""
        return self._in_cell_demand


class DemandEstimator:
    """The demand ledger of one cell: the tracked calls' in-cell demand.

    It keeps each tracked call's demand tuple in tracking order, under the
    call's id, and caches the per-interval totals.  Each total is the sum
    from 0.0, call by call in tracking order, so an admission extends the
    cached totals by one term, and a release drops them: the next read sums
    the remaining calls again.  ``extended`` and ``recomputed`` count the
    two.  Calls are tracked through :meth:`track` (on their
    :class:`~repro.cellular.calls.Call`) or :meth:`add` (on a demand tuple
    the caller projected, as the single-cell admission loop's SCC column
    blocks do).
    """

    def __init__(self, config: ProjectionConfig):
        self._config = config
        self._demands: dict[int, tuple[float, ...]] = {}
        self._totals: list[float] | None = [0.0] * config.horizon_intervals
        self.extended = 0
        self.recomputed = 0
        #: The call :meth:`profile_for` projected last, with its profile.
        #: :meth:`track` reuses the profile for that same call object only.
        self._last: tuple[Call, DemandProfile] | None = None

    # ------------------------------------------------------------------
    @property
    def config(self) -> ProjectionConfig:
        return self._config

    @property
    def tracked_calls(self) -> int:
        return len(self._demands)

    def is_tracking(self, call: Call) -> bool:
        return call.call_id in self._demands

    # ------------------------------------------------------------------
    def profile_for(self, call: Call) -> DemandProfile:
        """Build the demand profile of a (not necessarily tracked) call."""
        projection: ResidencyProjection = project_residency(call.user_state, self._config)
        profile = DemandProfile(
            call_id=call.call_id,
            bandwidth_units=call.bandwidth_units,
            in_cell=projection.in_cell_active,
        )
        self._last = (call, profile)
        return profile

    def track(self, call: Call) -> DemandProfile:
        """Start projecting an admitted call's demand.

        A call is admitted at the instant it was scored, so the profile
        :meth:`profile_for` just built for this very call object is reused
        instead of projected again.
        """
        last = self._last
        profile = last[1] if last is not None and last[0] is call else self.profile_for(call)
        self._last = None
        self.add(call.call_id, profile.in_cell_demand())
        return profile

    def untrack(self, call: Call) -> None:
        """Stop projecting a call (completed, dropped or handed off away)."""
        self.remove(call.call_id)

    def add(self, key: int, demand: tuple[float, ...]) -> None:
        """Track ``demand`` under ``key``, after every tracked call."""
        if key in self._demands:
            raise ValueError(f"call {key} is already tracked")
        self._demands[key] = demand
        totals = self._totals
        if totals is not None:
            self._totals = [total + value for total, value in zip(totals, demand)]
            self.extended += 1

    def remove(self, key: int) -> None:
        """Stop tracking ``key``; a key not tracked is ignored."""
        if self._demands.pop(key, None) is not None:
            self._totals = None

    def reset(self) -> None:
        self._demands.clear()
        self._totals = [0.0] * self._config.horizon_intervals
        self._last = None
        self.extended = self.recomputed = 0

    # ------------------------------------------------------------------
    def projected_in_cell_demand(self) -> list[float]:
        """Expected BU needed in this cell per future interval (tracked calls).

        Each interval's total is summed from 0.0 call by call, in tracking
        order.  The list returned is the cache: read it, do not change it.
        """
        totals = self._totals
        if totals is None:
            totals = [0.0] * self._config.horizon_intervals
            for demand in self._demands.values():
                totals = [total + value for total, value in zip(totals, demand)]
            self._totals = totals
            self.recomputed += 1
        return totals
