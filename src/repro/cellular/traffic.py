"""Traffic classes and the paper's workload mix.

The paper's simulation parameters (Section 4):

* three service classes — **text**, **voice**, **video**;
* class mix 60% text, 30% voice, 10% video;
* requested bandwidth 1, 5 and 10 Bandwidth Units (BU) respectively;
* base-station capacity 40 BU.

Text is non-real-time (queueable/delay-tolerant), voice and video are
real-time — this is the "Differentiated service" (Ds) distinction the paper's
FACS uses to route accepted calls to its RTC and NRTC counters; a
:class:`~repro.cellular.cell.BandwidthLedger` reports both parts of a
station's occupancy.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..des.rng import RandomStream

__all__ = [
    "ServiceClass",
    "TrafficClassSpec",
    "TrafficMix",
    "PAPER_TRAFFIC_MIX",
    "PAPER_BANDWIDTH_UNITS",
]

#: Base-station capacity used throughout the paper's evaluation (Section 4).
PAPER_BANDWIDTH_UNITS = 40


class ServiceClass(enum.Enum):
    """The paper's three service classes, plus bulk data (workload studies).

    ``DATA`` is not part of the paper's mix — it exists for the
    :mod:`repro.workloads` multi-service presets (voice/data/video) and is
    non-real-time like ``TEXT``.
    """

    TEXT = "text"
    VOICE = "voice"
    VIDEO = "video"
    DATA = "data"

    @property
    def is_real_time(self) -> bool:
        """Voice and video are real-time; text is queueable (Section 1)."""
        return self in (ServiceClass.VOICE, ServiceClass.VIDEO)


@dataclass(frozen=True)
class TrafficClassSpec:
    """Static description of one service class."""

    service: ServiceClass
    bandwidth_units: int
    share: float
    mean_holding_time_s: float = 120.0

    def __post_init__(self) -> None:
        if self.bandwidth_units <= 0:
            raise ValueError(
                f"bandwidth_units must be positive, got {self.bandwidth_units}"
            )
        if not 0.0 <= self.share <= 1.0:
            raise ValueError(f"share must lie in [0, 1], got {self.share}")
        if self.mean_holding_time_s <= 0:
            raise ValueError(
                f"mean_holding_time_s must be positive, got {self.mean_holding_time_s}"
            )


class TrafficMix:
    """A probability mix over service classes with per-class bandwidth demands."""

    def __init__(self, classes: Mapping[ServiceClass, TrafficClassSpec]):
        if not classes:
            raise ValueError("traffic mix requires at least one class")
        total_share = sum(spec.share for spec in classes.values())
        if abs(total_share - 1.0) > 1e-9:
            raise ValueError(
                f"class shares must sum to 1, got {total_share:.6f} "
                f"({ {c.value: s.share for c, s in classes.items()} })"
            )
        for service, spec in classes.items():
            if spec.service is not service:
                raise ValueError(
                    f"mix key {service} does not match spec service {spec.service}"
                )
        self._classes = dict(classes)
        # Precomputed sampling tables: identical to what RandomStream.choice
        # derives per call (same order, same normalisation arithmetic), hoisted
        # out of the per-request hot loop.
        self._services: tuple[ServiceClass, ...] = tuple(self._classes)
        weights = np.asarray([self._classes[s].share for s in self._services], dtype=float)
        self._probabilities = weights / weights.sum()
        # The cumulative table Generator.choice(n, p=...) builds per call.
        cumulative = self._probabilities.cumsum()
        cumulative /= cumulative[-1]
        self._cumulative: list[float] = cumulative.tolist()

    @property
    def classes(self) -> dict[ServiceClass, TrafficClassSpec]:
        return dict(self._classes)

    def spec(self, service: ServiceClass) -> TrafficClassSpec:
        try:
            return self._classes[service]
        except KeyError:
            raise KeyError(f"traffic mix has no class {service}") from None

    def bandwidth_for(self, service: ServiceClass) -> int:
        """Bandwidth demand in BU for a service class."""
        return self.spec(service).bandwidth_units

    def sample_class(self, rng: "RandomStream") -> ServiceClass:
        """Draw a service class according to the mix shares.

        Draw for draw what ``Generator.choice(n, p=shares)`` returns on the
        same stream: numpy's ``choice`` draws one standard uniform and
        finds it in the cumulative table (``side="right"``), as this does.
        """
        return self._services[bisect.bisect_right(self._cumulative, rng.random())]

    # -- columnar sampling tables (trace pipeline) ---------------------
    @property
    def services(self) -> tuple[ServiceClass, ...]:
        """The class order behind :meth:`sample_class_codes` codes."""
        return self._services

    def sample_class_codes(self, rng: "RandomStream", count: int) -> np.ndarray:
        """``count`` class codes (indices into :attr:`services`); consumes the
        stream exactly like ``count`` calls of :meth:`sample_class`."""
        return rng.choice_indices(self._probabilities, count)

    def bandwidth_by_code(self) -> np.ndarray:
        """Per-code bandwidth demand (BU, int64), aligned with :attr:`services`."""
        return np.asarray(
            [self._classes[s].bandwidth_units for s in self._services], dtype=np.int64
        )

    def mean_holding_by_code(self) -> np.ndarray:
        """Per-code mean holding time (s, float64), aligned with :attr:`services`."""
        return np.asarray(
            [self._classes[s].mean_holding_time_s for s in self._services],
            dtype=np.float64,
        )

    def offered_load_bu(self) -> float:
        """Expected bandwidth demand of a single request in BU."""
        return sum(spec.share * spec.bandwidth_units for spec in self._classes.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{s.value}: {spec.share:.0%}/{spec.bandwidth_units}BU"
            for s, spec in self._classes.items()
        )
        return f"TrafficMix({parts})"


#: The workload of Section 4: 60% text (1 BU), 30% voice (5 BU), 10% video (10 BU).
PAPER_TRAFFIC_MIX = TrafficMix(
    {
        ServiceClass.TEXT: TrafficClassSpec(
            ServiceClass.TEXT, bandwidth_units=1, share=0.60, mean_holding_time_s=90.0
        ),
        ServiceClass.VOICE: TrafficClassSpec(
            ServiceClass.VOICE, bandwidth_units=5, share=0.30, mean_holding_time_s=120.0
        ),
        ServiceClass.VIDEO: TrafficClassSpec(
            ServiceClass.VIDEO, bandwidth_units=10, share=0.10, mean_holding_time_s=180.0
        ),
    }
)
