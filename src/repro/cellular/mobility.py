"""Mobile terminals and mobility models.

The FACS controller's FLC1 stage is fed GPS-style measurements of a mobile
terminal: its **speed** (km/h), its **heading angle relative to the bearing
towards the base station** (degrees, 0° = heading straight at the BS) and its
**distance** from the base station (km).  This module provides the mobile
terminal state, several mobility models (constant velocity, random waypoint,
Gauss–Markov) and the sampling helpers the batch experiments use to draw the
user populations of Figs. 7–9.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import Point, heading_between, normalize_angle, relative_angle

if TYPE_CHECKING:  # pragma: no cover
    from ..des.rng import RandomStream

__all__ = [
    "UserState",
    "MobileTerminal",
    "MobilityModel",
    "observation_at",
    "ConstantVelocityModel",
    "RandomWaypointModel",
    "GaussMarkovModel",
    "UserProfile",
    "UserPopulation",
    "PAPER_SPEED_RANGE_KMH",
    "PAPER_ANGLE_RANGE_DEG",
    "PAPER_DISTANCE_RANGE_KM",
]

#: Parameter ranges from Section 4 of the paper.
PAPER_SPEED_RANGE_KMH = (0.0, 120.0)
PAPER_ANGLE_RANGE_DEG = (-180.0, 180.0)
PAPER_DISTANCE_RANGE_KM = (0.0, 10.0)

_terminal_ids = itertools.count(1)


@dataclass(frozen=True)
class UserState:
    """The GPS-derived observation FLC1 consumes for one admission decision."""

    speed_kmh: float
    angle_deg: float
    distance_km: float

    def __post_init__(self) -> None:
        if self.speed_kmh < 0:
            raise ValueError(f"speed must be non-negative, got {self.speed_kmh}")
        if self.distance_km < 0:
            raise ValueError(f"distance must be non-negative, got {self.distance_km}")
        if not -180.0 <= self.angle_deg <= 180.0:
            raise ValueError(
                f"angle must lie in [-180, 180] degrees, got {self.angle_deg}"
            )

    def clamped(
        self,
        speed_range: tuple[float, float] = PAPER_SPEED_RANGE_KMH,
        distance_range: tuple[float, float] = PAPER_DISTANCE_RANGE_KM,
    ) -> "UserState":
        """Clamp speed and distance into the controller's universes."""
        return UserState(
            speed_kmh=min(max(self.speed_kmh, speed_range[0]), speed_range[1]),
            angle_deg=self.angle_deg,
            distance_km=min(max(self.distance_km, distance_range[0]), distance_range[1]),
        )


@dataclass
class UserProfile:
    """Sampling specification for one user attribute sweep.

    ``None`` fields are drawn uniformly from the paper's ranges; fixed fields
    reproduce the figure sweeps (e.g. Fig. 7 fixes speed and randomises angle
    and distance).
    """

    speed_kmh: float | None = None
    angle_deg: float | None = None
    distance_km: float | None = None
    speed_range: tuple[float, float] = PAPER_SPEED_RANGE_KMH
    angle_range: tuple[float, float] = PAPER_ANGLE_RANGE_DEG
    distance_range: tuple[float, float] = PAPER_DISTANCE_RANGE_KM

    def sample(self, rng: "RandomStream") -> UserState:
        """Draw a :class:`UserState` according to the profile."""
        speed = (
            self.speed_kmh
            if self.speed_kmh is not None
            else rng.uniform(*self.speed_range)
        )
        angle = (
            self.angle_deg
            if self.angle_deg is not None
            else rng.uniform(*self.angle_range)
        )
        distance = (
            self.distance_km
            if self.distance_km is not None
            else rng.uniform(*self.distance_range)
        )
        return UserState(speed_kmh=speed, angle_deg=angle, distance_km=distance)

    def sample_columns(
        self, rng: "RandomStream", count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``count`` user states as (speed, angle, distance) columns.

        Consumes the stream exactly like ``count`` calls of :meth:`sample`:
        only ``None`` fields draw — interleaved per user in speed → angle →
        distance order, one standard uniform each, mapped through the same
        ``low + (high - low) * u`` affine numpy's ``uniform`` applies — so
        the columnar trace builder stays bit-identical to the object path.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        specs = (
            (self.speed_kmh, self.speed_range),
            (self.angle_deg, self.angle_range),
            (self.distance_km, self.distance_range),
        )
        drawn = [index for index, (value, _) in enumerate(specs) if value is None]
        columns: list[np.ndarray | None] = [None, None, None]
        if drawn:
            uniforms = rng.random_batch(len(drawn) * count).reshape(count, len(drawn))
            for slot, index in enumerate(drawn):
                low, high = specs[index][1]
                columns[index] = low + (high - low) * uniforms[:, slot]
        for index, (value, _) in enumerate(specs):
            if value is not None:
                columns[index] = np.full(count, float(value))
        speed, angle, distance = columns
        return speed, angle, distance


class UserPopulation:
    """A reproducible generator of user states for batch experiments."""

    def __init__(self, profile: UserProfile, rng: "RandomStream"):
        self._profile = profile
        self._rng = rng

    def draw(self, count: int) -> list[UserState]:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self._profile.sample(self._rng) for _ in range(count)]


def observation_at(
    x: float, y: float, heading_deg: float, station: Point
) -> tuple[float, float]:
    """``(angle, distance)`` that a terminal at ``(x, y)`` heading ``heading_deg``
    shows a base station at ``station``: what :meth:`MobileTerminal.observe`
    reports, from floats, so callers holding rows of floats build nothing."""
    distance = math.hypot(x - station.x, y - station.y)
    bearing = math.degrees(math.atan2(station.y - y, station.x - x))
    return relative_angle(heading_deg, bearing), distance


class MobileTerminal:
    """A mobile terminal with planar position and velocity.

    The terminal does not know about cells; the network layer maps positions
    to serving cells and the handoff manager reacts to cell changes.  The
    position is kept as two floats, :attr:`x` and :attr:`y` (km), so moving
    a terminal builds no object; :attr:`position` reads and sets them as a
    :class:`Point`.
    """

    __slots__ = ("terminal_id", "x", "y", "speed_kmh", "heading_deg", "mean_heading_deg")

    def __init__(
        self,
        position: Point,
        speed_kmh: float,
        heading_deg: float,
        terminal_id: int | None = None,
    ):
        if speed_kmh < 0:
            raise ValueError(f"speed must be non-negative, got {speed_kmh}")
        self.terminal_id = terminal_id if terminal_id is not None else next(_terminal_ids)
        self.x = position.x
        self.y = position.y
        self.speed_kmh = speed_kmh
        self.heading_deg = normalize_angle(heading_deg)
        #: The heading a :class:`GaussMarkovModel` pulls this terminal back
        #: towards: its heading at its first update (``None`` before it).
        self.mean_heading_deg: float | None = None

    # ------------------------------------------------------------------
    @property
    def position(self) -> Point:
        return Point(self.x, self.y)

    @position.setter
    def position(self, point: Point) -> None:
        self.x = point.x
        self.y = point.y

    def advance(self, duration_s: float) -> None:
        """Move the terminal along its heading for ``duration_s`` seconds.

        ``x + (speed * cos(heading)) * (duration_s / 3600)``, and ``sin``
        for ``y``: the operations of
        ``position.translate(Vector.from_polar(speed, heading).scale(...))``
        in the same order, without building the vectors or the point.
        """
        if duration_s < 0:
            raise ValueError(f"duration must be non-negative, got {duration_s}")
        factor = duration_s / 3600.0
        radians = math.radians(self.heading_deg)
        self.x = self.x + self.speed_kmh * math.cos(radians) * factor
        self.y = self.y + self.speed_kmh * math.sin(radians) * factor

    def observe(self, base_station_position: Point) -> UserState:
        """Produce the (speed, angle, distance) observation for FLC1.

        The angle is the user's heading *relative to the bearing towards the
        base station*: 0° means moving straight at the BS, ±180° means moving
        straight away — matching the paper's "Straight"/"Back" terms.
        """
        angle, distance = observation_at(self.x, self.y, self.heading_deg, base_station_position)
        return UserState(speed_kmh=self.speed_kmh, angle_deg=angle, distance_km=distance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MobileTerminal(id={self.terminal_id}, pos=({self.x:.2f}, "
            f"{self.y:.2f}), v={self.speed_kmh:.1f}km/h @ {self.heading_deg:.0f}°)"
        )


class MobilityModel(ABC):
    """Strategy updating a terminal's speed and heading over time."""

    @abstractmethod
    def update(self, terminal: MobileTerminal, duration_s: float, rng: "RandomStream") -> None:
        """Advance the terminal by ``duration_s`` seconds, mutating its state."""


class ConstantVelocityModel(MobilityModel):
    """Straight-line motion at constant speed (the paper's implicit model).

    Faster users keep their heading — exactly the effect the paper leans on
    when explaining Fig. 7 ("with the increase of the user speed, the user
    direction can not be changed easy").
    """

    def update(self, terminal: MobileTerminal, duration_s: float, rng: "RandomStream") -> None:
        terminal.advance(duration_s)


class RandomWaypointModel(MobilityModel):
    """Random-waypoint mobility within a rectangular region.

    The terminal walks towards a random waypoint at a random speed, pauses,
    then picks the next waypoint.  Used by the multi-cell integration runs.
    """

    def __init__(
        self,
        region_km: tuple[float, float, float, float],
        speed_range_kmh: tuple[float, float] = (1.0, 120.0),
        pause_s: float = 0.0,
    ):
        x_min, y_min, x_max, y_max = region_km
        if x_min >= x_max or y_min >= y_max:
            raise ValueError(f"degenerate region: {region_km}")
        if speed_range_kmh[0] <= 0 or speed_range_kmh[0] > speed_range_kmh[1]:
            raise ValueError(f"invalid speed range: {speed_range_kmh}")
        if pause_s < 0:
            raise ValueError(f"pause must be non-negative, got {pause_s}")
        self.region = region_km
        self.speed_range_kmh = speed_range_kmh
        self.pause_s = pause_s
        self._waypoints: dict[int, Point] = {}
        self._pause_left: dict[int, float] = {}

    def _pick_waypoint(self, terminal: MobileTerminal, rng: "RandomStream") -> Point:
        x_min, y_min, x_max, y_max = self.region
        waypoint = Point(rng.uniform(x_min, x_max), rng.uniform(y_min, y_max))
        self._waypoints[terminal.terminal_id] = waypoint
        terminal.speed_kmh = rng.uniform(*self.speed_range_kmh)
        terminal.heading_deg = heading_between(terminal.position, waypoint)
        return waypoint

    def update(self, terminal: MobileTerminal, duration_s: float, rng: "RandomStream") -> None:
        remaining = duration_s
        while remaining > 1e-9:
            pause_left = self._pause_left.get(terminal.terminal_id, 0.0)
            if pause_left > 0:
                wait = min(pause_left, remaining)
                self._pause_left[terminal.terminal_id] = pause_left - wait
                remaining -= wait
                continue
            waypoint = self._waypoints.get(terminal.terminal_id)
            if waypoint is None:
                waypoint = self._pick_waypoint(terminal, rng)
            distance_left = terminal.position.distance_to(waypoint)
            speed_km_per_s = terminal.speed_kmh / 3600.0
            if speed_km_per_s <= 0:
                self._pick_waypoint(terminal, rng)
                continue
            time_to_waypoint = distance_left / speed_km_per_s
            if time_to_waypoint <= remaining:
                terminal.position = waypoint
                remaining -= time_to_waypoint
                self._waypoints.pop(terminal.terminal_id, None)
                self._pause_left[terminal.terminal_id] = self.pause_s
            else:
                terminal.advance(remaining)
                remaining = 0.0


class GaussMarkovModel(MobilityModel):
    """Gauss–Markov mobility: speed and heading drift with tunable memory.

    ``alpha`` close to 1 produces smooth, highly-correlated motion (vehicular
    users); ``alpha`` close to 0 produces erratic motion (pedestrians) — the
    distinction the paper draws between walking users (4/10 km/h) whose
    direction "can be changed easy" and fast users whose direction cannot.
    """

    def __init__(
        self,
        alpha: float = 0.85,
        mean_speed_kmh: float = 30.0,
        speed_std_kmh: float = 10.0,
        heading_std_deg: float = 30.0,
        update_interval_s: float = 10.0,
    ):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        if mean_speed_kmh < 0 or speed_std_kmh < 0 or heading_std_deg < 0:
            raise ValueError("speed/heading parameters must be non-negative")
        if update_interval_s <= 0:
            raise ValueError(f"update interval must be positive, got {update_interval_s}")
        self.alpha = alpha
        self.mean_speed_kmh = mean_speed_kmh
        self.speed_std_kmh = speed_std_kmh
        self.heading_std_deg = heading_std_deg
        self.update_interval_s = update_interval_s

    def update(self, terminal: MobileTerminal, duration_s: float, rng: "RandomStream") -> None:
        """Advance ``terminal`` by ``duration_s`` in steps of the update interval.

        Each step moves the terminal, then draws two normals from ``rng``
        (speed, then heading) with ``rng.normal(0.0, std)``, so a
        :class:`~repro.des.rng.BufferedNormals` over a stream moves it
        exactly as the stream itself does.  The terminal keeps its mean
        heading (:attr:`MobileTerminal.mean_heading_deg`).
        """
        remaining = duration_s
        if terminal.mean_heading_deg is None:
            terminal.mean_heading_deg = terminal.heading_deg
        mean_heading = terminal.mean_heading_deg
        alpha = self.alpha
        sqrt_term = math.sqrt(max(1.0 - alpha**2, 0.0))
        while remaining > 1e-9:
            step = min(self.update_interval_s, remaining)
            terminal.advance(step)
            new_speed = (
                alpha * terminal.speed_kmh
                + (1.0 - alpha) * self.mean_speed_kmh
                + sqrt_term * rng.normal(0.0, self.speed_std_kmh)
            )
            new_heading = (
                alpha * terminal.heading_deg
                + (1.0 - alpha) * mean_heading
                + sqrt_term * rng.normal(0.0, self.heading_std_deg)
            )
            terminal.speed_kmh = max(new_speed, 0.0)
            terminal.heading_deg = normalize_angle(new_heading)
            remaining -= step
