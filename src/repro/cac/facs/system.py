"""FACS — the Fuzzy Admission Control System (the paper's contribution).

The system cascades the two controllers of Fig. 4:

1. **FLC1** turns the GPS observation of the requesting user (speed, angle,
   distance) into a correction value ``Cv``;
2. **FLC2** combines ``Cv`` with the requested bandwidth ``R`` and the
   counter state ``Cs`` into the soft accept/reject score ``A/R``.

In the paper ``Cs`` is the sum of the Real-Time / Non-Real-Time counters
(RTC / NRTC) that the Differentiated service block feeds; here it is the
base station's occupancy, ``station.used_bu``, which every verdict reads.
FLC2 clamps it into its ``Cs`` universe, so a cell larger than that
universe scores a fuller cell like a full one.

The crisp admission decision accepts a call when the defuzzified A/R score
exceeds ``acceptance_threshold`` *and* the base station physically has the
requested bandwidth available.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from ...cellular.calls import Call
from ...cellular.cell import BaseStation
from ...cellular.mobility import (
    PAPER_DISTANCE_RANGE_KM,
    PAPER_SPEED_RANGE_KMH,
    UserState,
)
from ...fuzzy.defuzzification import DefuzzificationError
from ...fuzzy.definition import FLCDefinition
from ..base import AdmissionController, AdmissionDecision
from .flc1 import FLC1
from .flc2 import FLC2
from .screen import _MEMO_ENTRIES, DecisionScreen, ScreenedColumns

__all__ = [
    "BatchAdmissionDecision",
    "ExactColumns",
    "FACSConfig",
    "FuzzyAdmissionControlSystem",
]

#: Correction value assumed when a request carries no GPS observation.
_NEUTRAL_CORRECTION = 0.5

#: Sentinel cached when no decision screen can be built for a configuration,
#: so the (failing) build is attempted at most once per controller.
_SCREEN_UNAVAILABLE = object()


@dataclass(frozen=True)
class FACSConfig:
    """The two stages of a FACS controller and its acceptance threshold.

    ``flc1`` and ``flc2`` are the stages' definitions (see
    :mod:`repro.fuzzy.definition`); ``None`` means the paper's
    (:mod:`repro.cac.facs.definitions`).  ``None`` keeps the default config
    cheap to hash, for the construction memos, and to pickle, for sweep
    tasks shipped to worker processes.
    """

    flc1: FLCDefinition | None = None
    flc2: FLCDefinition | None = None
    #: Minimum defuzzified A/R score for acceptance.  The default 0 accepts
    #: "weak accept" and above, mirroring the paper's soft decision scale.
    acceptance_threshold: float = 0.0

    def __post_init__(self) -> None:
        if not -1.0 <= self.acceptance_threshold <= 1.0:
            raise ValueError(
                f"acceptance_threshold must lie in [-1, 1], got {self.acceptance_threshold}"
            )


@lru_cache(maxsize=_MEMO_ENTRIES)
def _shared_flc1(definition: FLCDefinition | None) -> FLC1:
    """Build (or reuse) the FLC1 of a definition (``None``: the paper's).

    Controller construction — membership sampling, rule-base compilation —
    costs a few milliseconds, which dominates short replications when every
    run builds a fresh FACS.  FLC1/FLC2 hold no per-call state, so instances
    are shared across FACS systems with the same definition — including
    across threads: the compiled engine keeps its scratch buffer in
    thread-local storage, so the thread-pool sweep executor can share one
    memoised controller between workers.
    """
    return FLC1(definition)


@lru_cache(maxsize=_MEMO_ENTRIES)
def _shared_flc2(definition: FLCDefinition | None) -> FLC2:
    """Build (or reuse) the FLC2 of a definition (see :func:`_shared_flc1`)."""
    return FLC2(definition)


@lru_cache(maxsize=_MEMO_ENTRIES)
def _shared_screen(flc1: FLC1, flc2: FLC2, threshold: float) -> DecisionScreen | None:
    """Build (or reuse) the decision screen for a controller pair.

    Screens hold only tables derived from the controller pair and the
    threshold; FLC1/FLC2 instances are themselves memoised, so keying on
    their identity shares one table build across every FACS system — and
    every trace run — with the same configuration.  Their FLC2 half, the
    verdict tables, is shared wider still: by every pair with the same FLC2
    and threshold.  ``None`` (pair outside
    the certified regime) is cached too, so the failing build runs, and logs
    its reason, once.
    """
    return DecisionScreen.build(flc1, flc2, threshold)


@dataclass(frozen=True)
class BatchAdmissionDecision:
    """Vectorized what-if admission outcome for ``N`` candidate requests.

    All candidates are scored against the *same* base-station snapshot —
    nothing is admitted and no state changes — so element ``i`` equals what
    :meth:`FuzzyAdmissionControlSystem.decide` would return for candidate
    ``i`` against that snapshot.
    """

    scores: np.ndarray
    accepted: np.ndarray
    correction_values: np.ndarray
    counter_state_bu: float

    def __len__(self) -> int:
        return int(self.scores.shape[0])


class ExactColumns:
    """Threshold verdicts for one block of rows, at any occupancy, scored exactly.

    What :meth:`FuzzyAdmissionControlSystem.decide_columns` returns for a
    controller pair without a decision screen: FLC1 ran once over the
    block, and :meth:`accepts` runs FLC2 per verdict.  It keeps the
    counters of :class:`~repro.cac.facs.screen.ScreenedColumns`.
    """

    screened = 0

    def __init__(
        self,
        corrections: np.ndarray,
        request_bus: np.ndarray,
        flc2: FLC2,
        threshold: float,
    ):
        self._corrections = corrections.tolist()
        self._bandwidths = request_bus.tolist()
        self._flc2 = flc2
        self._threshold = threshold
        self.exact_flc1 = len(self._corrections)
        self.exact_flc2 = 0

    def accepts(self, k: int, occupancy_bu: int) -> bool:
        """Whether row ``k``'s A/R score at ``occupancy_bu`` is above the
        threshold: ``score_columns(...)[k] > threshold`` at that occupancy."""
        self.exact_flc2 += 1
        decision = self._flc2.evaluate(
            self._corrections[k], self._bandwidths[k], float(occupancy_bu)
        )
        return decision.score > self._threshold


class FuzzyAdmissionControlSystem(AdmissionController):
    """The paper's FACS admission controller."""

    name = "FACS"

    def __init__(self, config: FACSConfig | None = None):
        self._config = config or FACSConfig()
        self._flc1 = _shared_flc1(self._config.flc1)
        self._flc2 = _shared_flc2(self._config.flc2)
        # Looked up lazily on the first screened verdict (see
        # _decision_screen).
        self._screen: DecisionScreen | object | None = None

    # ------------------------------------------------------------------
    @property
    def config(self) -> FACSConfig:
        return self._config

    @property
    def flc1(self) -> FLC1:
        return self._flc1

    @property
    def flc2(self) -> FLC2:
        return self._flc2

    def _decision_screen(self) -> DecisionScreen | None:
        """The process-wide screen of this controller pair, or ``None`` for a
        pair outside the certified regime.  Looked up once per controller.
        """
        shared = self._screen
        if shared is None:
            shared = _shared_screen(
                self._flc1, self._flc2, self._config.acceptance_threshold
            )
            self._screen = shared if shared is not None else _SCREEN_UNAVAILABLE
        return shared if isinstance(shared, DecisionScreen) else None

    def warm_up(self, bandwidths_bu: Iterable[int]) -> None:
        """Build the screen's verdict tables for requests of these bandwidths.

        Every table of each bandwidth, in one batch per bandwidth (see
        :meth:`~repro.cac.facs.screen.VerdictTables.warm_up`), instead of on
        the bandwidth's :data:`~repro.cac.facs.screen._BATCH_MIN_VERDICTS`-th
        verdict.  A pair without a screen, and a subclass, which answers
        through its own :meth:`decide`, have nothing to build.
        """
        if type(self) is not FuzzyAdmissionControlSystem:
            return
        screen = self._decision_screen()
        if screen is not None:
            screen.warm_up(bandwidths_bu)

    # ------------------------------------------------------------------
    def correction_value(self, user: UserState | None) -> float:
        """FLC1 stage: correction value for a user observation.

        Requests with no GPS observation (e.g. fixed terminals) get a neutral
        correction value so FLC2 decides on bandwidth and occupancy alone.
        """
        if user is None:
            return _NEUTRAL_CORRECTION
        return self._flc1.evaluate(user.clamped()).correction_value

    def correction_values(
        self, users: Sequence[UserState | None]
    ) -> np.ndarray:
        """FLC1 stage for a whole vector of observations in one pass.

        Bit-identical to :meth:`correction_value` per element; observations
        of ``None`` get the neutral correction, exactly as in the scalar
        path.
        """
        count = len(users)
        speeds = np.zeros(count)
        angles = np.zeros(count)
        distances = np.zeros(count)
        observed = np.zeros(count, dtype=bool)
        for i, user in enumerate(users):
            if user is None:
                continue
            clamped = user.clamped()
            observed[i] = True
            speeds[i] = clamped.speed_kmh
            angles[i] = clamped.angle_deg
            distances[i] = clamped.distance_km
        values = np.full(count, _NEUTRAL_CORRECTION)
        if observed.all():
            return self._flc1.correction_values(speeds, angles, distances)
        if observed.any():
            values[observed] = self._flc1.correction_values(
                speeds[observed], angles[observed], distances[observed]
            )
        return values

    def score_columns(
        self,
        speeds_kmh: np.ndarray,
        angles_deg: np.ndarray,
        distances_km: np.ndarray,
        request_bus: np.ndarray,
        occupancy_bu: int,
    ) -> np.ndarray:
        """FLC1 → FLC2 scores for pre-drawn observation columns.

        The frame-native twin of :meth:`decide_batch`'s scoring stage:
        candidates arrive as columns (one entry per request, all observed)
        instead of ``Call`` objects, and every candidate sees the same
        ``occupancy_bu`` snapshot.  Speed and distance are clamped into the
        controller universes exactly like :meth:`UserState.clamped`, so the
        scores are bit-identical to :meth:`decide_batch` over the equivalent
        calls.
        """
        speeds = np.clip(speeds_kmh, *PAPER_SPEED_RANGE_KMH)
        distances = np.clip(distances_km, *PAPER_DISTANCE_RANGE_KM)
        corrections = self._flc1.correction_values(speeds, angles_deg, distances)
        return self._flc2.decision_scores(
            corrections,
            request_bus,
            np.full(len(request_bus), float(occupancy_bu)),
        )

    def decide_columns(
        self,
        speeds_kmh: np.ndarray,
        angles_deg: np.ndarray,
        distances_km: np.ndarray,
        request_bus: np.ndarray,
    ) -> ScreenedColumns | ExactColumns:
        """Threshold verdicts for a block of pre-drawn observation columns.

        FLC1 does not depend on the base station, so its stage runs once
        here over the whole block; the returned object's
        ``accepts(k, occupancy)`` then answers row ``k`` at whatever
        occupancy its request meets, equal to
        ``score_columns(...)[k] > acceptance_threshold`` at that occupancy.
        When the controller pair supports it, the verdict comes from the
        certified :class:`~repro.cac.facs.screen.DecisionScreen` the process
        shares: most rows are decided by one lookup in the (R, Cs) cell
        table and only the undecidable remainder pays for exact dense-grid
        inference.  Configurations outside the certified regime (non-unit
        rule weights, a non-centroid defuzzifier, …) get
        :class:`ExactColumns`: exact FLC1 once per block and exact FLC2 per
        verdict.
        """
        speeds = np.clip(speeds_kmh, *PAPER_SPEED_RANGE_KMH)
        distances = np.clip(distances_km, *PAPER_DISTANCE_RANGE_KM)
        shared = self._decision_screen()
        if shared is not None:
            try:
                return shared.columns(speeds, angles_deg, distances, request_bus)
            except DefuzzificationError:
                # Deferred: run FLC1 exactly so diagnostics (e.g. the
                # no-rule-fired error) carry their canonical batch wording.
                pass
        return ExactColumns(
            self._flc1.correction_values(speeds, angles_deg, distances),
            request_bus,
            self._flc2,
            self._config.acceptance_threshold,
        )

    def decide_batch(
        self, calls: Sequence[Call], station: BaseStation, now: float
    ) -> BatchAdmissionDecision:
        """Score ``N`` candidate requests against one station snapshot.

        The cascaded FLC1 → FLC2 evaluation runs once over the whole
        candidate vector through the engines' tensorized ``infer_batch``.
        No candidate is admitted and nothing changes, so this answers
        "which of these would be accepted *right now*" — element for element
        identical to calling :meth:`decide` on the unchanged station.

        No production path calls it.  The admission service answers each
        request through :meth:`verdict` at its flush snapshot; its test
        oracle (``tests/service/flush_oracle.py``) scores whole micro-batches
        here, as the service once did.
        """
        corrections = self.correction_values([call.user_state for call in calls])
        bandwidths = np.array([float(call.bandwidth_units) for call in calls])
        counter_state = float(station.used_bu)
        scores = self._flc2.decision_scores(
            corrections,
            bandwidths,
            np.full(len(calls), counter_state),
        )
        fits = np.array([station.can_fit(call.bandwidth_units) for call in calls], dtype=bool)
        accepted = (scores > self._config.acceptance_threshold) & fits
        return BatchAdmissionDecision(
            scores=scores,
            accepted=accepted,
            correction_values=corrections,
            counter_state_bu=counter_state,
        )

    def decide(self, call: Call, station: BaseStation, now: float) -> AdmissionDecision:
        """The cascaded FLC1 → FLC2 admission decision."""
        correction = self.correction_value(call.user_state)
        counter_state = float(station.used_bu)
        decision = self._flc2.evaluate(
            correction_value=correction,
            request_bu=float(call.bandwidth_units),
            counter_state_bu=counter_state,
        )
        fits = station.can_fit(call.bandwidth_units)
        accepted = decision.score > self._config.acceptance_threshold and fits
        if not fits:
            reason = (
                f"insufficient bandwidth: need {call.bandwidth_units} BU, "
                f"{station.free_bu} BU free"
            )
        elif accepted:
            reason = (
                f"A/R score {decision.score:+.3f} above threshold "
                f"{self._config.acceptance_threshold:+.3f}"
            )
        else:
            reason = (
                f"A/R score {decision.score:+.3f} at or below threshold "
                f"{self._config.acceptance_threshold:+.3f}"
            )
        return AdmissionDecision(
            accepted=accepted,
            score=decision.score,
            outcome=decision.outcome,
            reason=reason,
            diagnostics={
                "correction_value": correction,
                "counter_state_bu": counter_state,
                "request_bu": float(call.bandwidth_units),
                "free_bu": float(station.free_bu),
            },
        )

    def verdict(self, correction: float, request_bu: float, occupancy_bu: float) -> bool:
        """Whether FLC2's A/R score at a known correction value is above the threshold.

        FLC2's half of :meth:`decide`'s verdict, without the fit check.  The
        certified screen answers from its (R, Cs) cell table
        (:meth:`~repro.cac.facs.screen.DecisionScreen.verdict_at`) and runs
        exact FLC2 where the cell is ambiguous or the bandwidth's tables are
        not yet worth building, so it raises wherever :meth:`decide`'s FLC2
        would.  For a pair without a screen, FLC2 runs exactly.
        :meth:`accepts` and the admission service's flush both answer
        through it.
        """
        screen = self._decision_screen()
        if screen is not None:
            return screen.verdict_at(correction, request_bu, occupancy_bu)[0]
        score = self._flc2.evaluate(correction, float(request_bu), float(occupancy_bu)).score
        return score > self._config.acceptance_threshold

    def accepts(self, call: Call, station: BaseStation, now: float) -> bool:
        """The verdict of :meth:`decide`: exact FLC1, then :meth:`verdict`.

        FLC1 runs exactly, as in :meth:`decide`, so its errors are raised
        the same way, and :meth:`verdict` reads FLC2's verdict at that
        correction value from the screen.  Only an exact
        ``FuzzyAdmissionControlSystem`` reads the screen: a subclass may
        override :meth:`decide`, so it answers through its own.
        """
        if type(self) is not FuzzyAdmissionControlSystem:
            return super().accepts(call, station, now)
        correction = self.correction_value(call.user_state)
        bandwidth = call.bandwidth_units
        return self.verdict(correction, bandwidth, station.used_bu) and station.can_fit(bandwidth)
