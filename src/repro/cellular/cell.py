"""Cells and base stations with bandwidth-unit accounting.

A :class:`BaseStation` owns a pool of Bandwidth Units (40 BU in the paper's
evaluation) and a ledger of per-call allocations split by real-time /
non-real-time service — the physical realisation of the paper's Counter
state (Cs), Real Time Counter (RTC) and Non Real Time Counter (NRTC).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .calls import Call
from .geometry import HexCoordinate, Point
from .traffic import PAPER_BANDWIDTH_UNITS

__all__ = ["BandwidthLedger", "BaseStation", "Cell"]

_cell_ids = itertools.count(1)

#: Relative margin :meth:`Cell.inside_inscribed_circle` keeps inside the
#: circle.  A point that far inside is about 1e-9 cell radii from every edge
#: of the hexagon, far beyond the rounding of
#: :meth:`~repro.cellular.geometry.HexCoordinate.from_point` (a few ulps of
#: the ring count, in cell radii).
_INSCRIBED_MARGIN = 1e-9


class InsufficientBandwidthError(RuntimeError):
    """Raised when an allocation is attempted beyond the base station capacity."""


@dataclass
class BandwidthLedger:
    """Tracks per-call bandwidth allocations against a fixed capacity."""

    capacity_bu: int
    _allocations: dict[int, int] = field(default_factory=dict)
    _real_time: dict[int, bool] = field(default_factory=dict)
    #: Running sum of ``_allocations``: allocations are whole BU, so the
    #: total is exact and every read is O(1).
    _used_bu: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity_bu <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_bu}")
        self._used_bu = sum(self._allocations.values())

    # ------------------------------------------------------------------
    @property
    def used_bu(self) -> int:
        """Total allocated bandwidth units."""
        return self._used_bu

    @property
    def free_bu(self) -> int:
        return self.capacity_bu - self.used_bu

    @property
    def real_time_bu(self) -> int:
        """Bandwidth units allocated to real-time calls (the paper's RTC)."""
        return sum(
            amount
            for call_id, amount in self._allocations.items()
            if self._real_time[call_id]
        )

    @property
    def non_real_time_bu(self) -> int:
        """Bandwidth units allocated to non-real-time calls (the paper's NRTC)."""
        return self.used_bu - self.real_time_bu

    @property
    def occupancy(self) -> float:
        """Fraction of capacity in use, in [0, 1]."""
        return self.used_bu / self.capacity_bu

    @property
    def active_calls(self) -> int:
        return len(self._allocations)

    def allocation_for(self, call_id: int) -> int:
        """Bandwidth currently allocated to a call (0 if none)."""
        return self._allocations.get(call_id, 0)

    # ------------------------------------------------------------------
    def can_fit(self, bandwidth_units: int) -> bool:
        """True when the requested amount fits in the free capacity."""
        if bandwidth_units <= 0:
            raise ValueError(f"bandwidth_units must be positive, got {bandwidth_units}")
        return bandwidth_units <= self.free_bu

    def allocate(self, call: Call) -> None:
        """Reserve the call's bandwidth; raises if it does not fit or is duplicate."""
        if call.call_id in self._allocations:
            raise ValueError(f"call {call.call_id} already holds an allocation")
        if not self.can_fit(call.bandwidth_units):
            raise InsufficientBandwidthError(
                f"cannot allocate {call.bandwidth_units} BU: only {self.free_bu} of "
                f"{self.capacity_bu} BU free"
            )
        self._allocations[call.call_id] = call.bandwidth_units
        self._real_time[call.call_id] = call.is_real_time
        self._used_bu += call.bandwidth_units

    def release(self, call: Call) -> int:
        """Free the call's allocation, returning the amount released."""
        amount = self._allocations.pop(call.call_id, None)
        if amount is None:
            raise KeyError(f"call {call.call_id} holds no allocation")
        self._real_time.pop(call.call_id, None)
        self._used_bu -= amount
        return amount


class BaseStation:
    """A base station: a bandwidth ledger plus a position."""

    def __init__(
        self,
        position: Point = Point(0.0, 0.0),
        capacity_bu: int = PAPER_BANDWIDTH_UNITS,
        station_id: int | None = None,
    ):
        self.station_id = station_id if station_id is not None else next(_cell_ids)
        self.position = position
        self.ledger = BandwidthLedger(capacity_bu)

    # Convenience pass-throughs so admission controllers read naturally.
    @property
    def capacity_bu(self) -> int:
        return self.ledger.capacity_bu

    @property
    def used_bu(self) -> int:
        return self.ledger.used_bu

    @property
    def free_bu(self) -> int:
        return self.ledger.free_bu

    @property
    def occupancy(self) -> float:
        return self.ledger.occupancy

    def can_fit(self, bandwidth_units: int) -> bool:
        return self.ledger.can_fit(bandwidth_units)

    def allocate(self, call: Call) -> None:
        self.ledger.allocate(call)

    def release(self, call: Call) -> int:
        return self.ledger.release(call)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BaseStation(id={self.station_id}, used={self.used_bu}/{self.capacity_bu} BU)"
        )


class Cell:
    """A hexagonal cell served by one base station."""

    def __init__(
        self,
        coordinate: HexCoordinate,
        radius_km: float,
        capacity_bu: int = PAPER_BANDWIDTH_UNITS,
        cell_id: int | None = None,
    ):
        if radius_km <= 0:
            raise ValueError(f"cell radius must be positive, got {radius_km}")
        self.cell_id = cell_id if cell_id is not None else next(_cell_ids)
        self.coordinate = coordinate
        self.radius_km = radius_km
        self.center = coordinate.to_point(radius_km)
        self.base_station = BaseStation(
            position=self.center, capacity_bu=capacity_bu, station_id=self.cell_id
        )
        # The inscribed circle of a hexagon of circumradius R has radius
        # R * sqrt(3) / 2; squared, less the margin.
        inscribed = radius_km * math.sqrt(3.0) / 2.0 * (1.0 - _INSCRIBED_MARGIN)
        self._inscribed_sq = inscribed * inscribed

    def contains(self, point: Point) -> bool:
        """True when a planar point falls inside this cell's hexagon."""
        return HexCoordinate.from_point(point, self.radius_km) == self.coordinate

    def inside_inscribed_circle(self, x: float, y: float) -> bool:
        """True when ``(x, y)`` lies strictly inside this cell's inscribed
        circle, shrunk by :data:`_INSCRIBED_MARGIN`.

        There :meth:`~repro.cellular.network.CellularNetwork.serving_cell`
        can only return this cell, so a caller may skip the hexagon
        rounding.  False says nothing: the point may still be in the cell.
        """
        dx = x - self.center.x
        dy = y - self.center.y
        return dx * dx + dy * dy < self._inscribed_sq

    def distance_to(self, point: Point) -> float:
        """Distance from the cell centre (= base station) to a point, in km."""
        return self.center.distance_to(point)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cell(id={self.cell_id}, q={self.coordinate.q}, r={self.coordinate.r}, "
            f"used={self.base_station.used_bu}/{self.base_station.capacity_bu} BU)"
        )
