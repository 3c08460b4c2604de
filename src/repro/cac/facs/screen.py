"""Certified decision screening for the FACS cascade.

The trace pipeline only needs the *boolean* admission verdict — "is the
defuzzified A/R score above the threshold?" — yet the score path pays for
full dense-grid aggregation and centroid integration in both FLC stages for
every request.  :class:`DecisionScreen` answers the boolean directly for the
overwhelming majority of rows using certified interval bounds
(:class:`repro.fuzzy.bounds.CentroidBoundTables`), and evaluates *exactly*
— through the very same batched engine paths the oracle uses — only the
rows whose bounds straddle the threshold.  Decisions are therefore
byte-identical to ``score_columns(...) > threshold`` by construction, never
by tolerance.

How a batch flows through the screen:

1. **Exact FLC1 front end.**  Fuzzification and rule firing strengths are
   cheap (a few vector ops over ~40 rules); the screen runs them exactly
   and reduces to per-consequent-term strengths — the only quantities the
   aggregation stage depends on.
2. **FLC1 correction interval.**  Bound tables turn the exact term
   strengths into a certified interval for the correction value ``Cv``
   (FLC1's defuzzified, [0, 1]-clipped output).
3. **FLC2 cell lookup.**  FLC2's other two inputs are effectively discrete
   in the trace pipeline (bandwidth ∈ {1, 5, 10} BU, occupancy an integer),
   so for each ``(R, Cs)`` pair the screen lazily builds a one-dimensional
   table over ``Cv`` cells: per cell, interval rule strengths (degree
   endpoints are certified because triangular/trapezoidal memberships are
   quasiconcave — including ``Triangular``'s ``np.isclose`` peak band,
   which gets its own guard cells forced to an upper bound of 1), then
   certified score bounds, collapsing to a per-cell verdict: accept,
   reject, or ambiguous.  Cells whose verdict is ambiguous are split and
   re-bounded adaptively, so the undecidable band shrinks to the region
   where the score genuinely pins the threshold (e.g. the exact-zero
   plateaus of symmetric surfaces).  Prefix sums answer "do all cells of
   an interval agree?" in O(1).
4. **Exact fallback.**  Rows whose correction interval spans disagreeing
   cells finish FLC1 exactly — reusing the firing strengths from step 1,
   and bit-identical because batched engine rows are independent; rows
   landing in an *ambiguous* cell additionally run exact FLC2.  Rows where
   FLC1's rule base did not fire make the screen defer the whole batch to
   the exact path so the diagnostic error is raised with its canonical
   wording.
"""

from __future__ import annotations

import logging

import numpy as np

from ...fuzzy.bounds import CentroidBoundTables
from ...fuzzy.compiled import CompiledMamdaniEngine
from ...fuzzy.defuzzification import DefuzzificationError
from ...fuzzy.membership import Trapezoidal, Triangular
from .flc1 import FLC1
from .flc2 import FLC2

__all__ = ["DecisionScreen"]

_log = logging.getLogger(__name__)

#: Widening applied to per-cell membership-degree endpoints; generous cover
#: for the one rounding step between a degree and its quasiconcave envelope.
_DEGREE_SLACK = 1e-9
#: ``np.isclose`` defaults — ``Triangular.evaluate`` snaps a *band* of this
#: half-width around its peak to 1.0, so the screen treats the (doubled)
#: band as part of the plateau.
_ISCLOSE_RTOL = 1e-5
_ISCLOSE_ATOL = 1e-8
#: Number of uniform refinement points seeding the ``Cv`` cell edges.
_CV_SEED_CELLS = 257
#: Adaptive refinement of ambiguous cells: each round splits every still-
#: ambiguous cell into four and re-bounds only the new subcells.  The
#: budget caps total growth so regions where the score genuinely sits *on*
#: the threshold (e.g. exact-zero plateaus of symmetric surfaces, which no
#: split can ever decide) stay ambiguous at bounded resolution instead of
#: splitting forever — rows landing there just take the exact fallback.
_REFINE_ROUNDS = 10
_REFINE_BOUNDS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_REFINE_BUDGET = 20_000
_MIN_CELL_WIDTH = 1e-7
#: An ambiguous cell whose midpoint score is certified to sit within this
#: margin of the threshold is treated as hopeless and never split: the
#: bounds bottom out at the widening slack (~1e-9 relative), so such cells
#: — e.g. the exact-zero plateaus of symmetric rule surfaces, where the
#: float score is a ±1e-17 summation residue — can never be decided by
#: refinement, only by the runtime exact fallback.  The probe bounds the
#: midpoint as a zero-width cell and merely *prioritises* refinement
#: effort; correctness never depends on it.
_HOPELESS_MARGIN = 1e-7


def _peak_interval(membership: object) -> tuple[float, float, list[float]]:
    """(plateau lo, plateau hi, extra cell edges) of a supported membership."""
    if type(membership) is Triangular:
        band = 2.0 * (_ISCLOSE_ATOL + _ISCLOSE_RTOL * abs(membership.b))
        lo, hi = membership.b - band, membership.b + band
        return lo, hi, [membership.a, lo, membership.b, hi, membership.c]
    if type(membership) is Trapezoidal:
        return (
            membership.b,
            membership.c,
            [membership.a, membership.b, membership.c, membership.d],
        )
    raise ValueError(f"unsupported membership shape {type(membership).__name__}")


class DecisionScreen:
    """Threshold decisions for FACS admission batches, byte-identical and fast.

    Build via :meth:`build`, which returns ``None`` whenever the controller
    pair falls outside the certified regime; callers then simply use the
    exact score path.
    """

    def __init__(self, flc1: FLC1, flc2: FLC2, threshold: float):
        eng1 = flc1.controller.engine
        eng2 = flc2.controller.engine
        tables1 = CentroidBoundTables.for_engine(eng1, "Cv")
        tables2 = CentroidBoundTables.for_engine(eng2, "AR")
        if tables1 is None or tables2 is None:
            raise ValueError("controller pair outside the certified regime")
        assert isinstance(eng1, CompiledMamdaniEngine)
        assert isinstance(eng2, CompiledMamdaniEngine)
        self._eng1 = eng1
        self._eng2 = eng2
        self._tables1 = tables1
        self._tables2 = tables2
        self._threshold = float(threshold)
        self._term_columns1 = eng1._grouped_consequent_plans["Cv"][1]
        self._term_columns2 = eng2._grouped_consequent_plans["AR"][1]

        # FLC2 input layout: locate the Cv / R / Cs slots in the engine's
        # flat degree vector and keep the Cv memberships for cell tables.
        plan_by_name = {entry[0]: entry for entry in eng2._batch_fuzzify_plan}
        if set(plan_by_name) != {"Cv", "R", "Cs"}:
            raise ValueError("FLC2 does not have the Cv/R/Cs input signature")
        _, cv_low, cv_high, _, cv_memberships = plan_by_name["Cv"]
        self._cv_low = cv_low
        self._cv_high = cv_high
        self._cv_memberships = cv_memberships

        # Seed Cv cell edges: universe ends, every membership breakpoint
        # (and isclose guard band), plus a uniform refinement for tightness.
        edges: list[float] = [cv_low, cv_high]
        self._peaks: list[tuple[float, float]] = []
        for membership in cv_memberships:
            lo, hi, extra = _peak_interval(membership)
            self._peaks.append((lo, hi))
            edges.extend(extra)
        edges.extend(np.linspace(cv_low, cv_high, _CV_SEED_CELLS))
        self._seed_edges = np.unique(
            np.clip(np.asarray(edges, dtype=float), cv_low, cv_high)
        )

        #: (bandwidth, occupancy) -> (edges, cell decisions, prefix sums).
        self._cells: dict[
            tuple[float, float],
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        ] = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, flc1: FLC1, flc2: FLC2, threshold: float) -> "DecisionScreen | None":
        """A screen for the controller pair, or ``None`` when unsupported.

        ``None`` sends every batch down the exact score path, so the reason
        is logged at INFO on ``repro.cac.facs.screen``.
        """
        try:
            return cls(flc1, flc2, threshold)
        except (ValueError, KeyError, AttributeError) as exc:
            _log.info(
                "decision screen unavailable, scoring exactly: %s: %s",
                type(exc).__name__,
                exc,
            )
            return None

    # ------------------------------------------------------------------
    def _degree_intervals(
        self, cell_lo: np.ndarray, cell_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Certified per-cell degree intervals for every Cv membership.

        The supported shapes are quasiconcave, so cell extrema sit at the
        cell endpoints — except on the peak plateau (incl. the isclose
        band), where the upper bound is forced to the exact plateau value 1.
        """
        at_lo_edge = np.clip(cell_lo, self._cv_low, self._cv_high)
        at_hi_edge = np.clip(cell_hi, self._cv_low, self._cv_high)
        deg_lo = np.empty((len(self._cv_memberships), cell_lo.size))
        deg_hi = np.empty((len(self._cv_memberships), cell_lo.size))
        for j, membership in enumerate(self._cv_memberships):
            left = np.clip(membership.evaluate(at_lo_edge), 0.0, 1.0)
            right = np.clip(membership.evaluate(at_hi_edge), 0.0, 1.0)
            lo = np.minimum(left, right) - _DEGREE_SLACK
            hi = np.maximum(left, right) + _DEGREE_SLACK
            peak_lo, peak_hi = self._peaks[j]
            on_peak = (cell_lo <= peak_hi) & (cell_hi >= peak_lo)
            hi[on_peak] = 1.0
            deg_lo[j] = np.clip(lo, 0.0, 1.0)
            deg_hi[j] = np.clip(hi, 0.0, 1.0)
        return deg_lo, deg_hi

    def _cell_table(
        self, bandwidth: float, occupancy: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        key = (float(bandwidth), float(occupancy))
        cached = self._cells.get(key)
        if cached is None:
            cached = self._build_cell_table(*key)
            self._cells[key] = cached
        return cached

    def _build_cell_table(
        self, bandwidth: float, occupancy: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Adaptively refined per-``Cv``-cell verdicts for one (R, Cs) pair.

        Returns ``(edges, decision, accept_prefix, reject_prefix)`` where
        decision is ``1`` accept / ``0`` reject / ``-1`` ambiguous per cell
        and the prefix sums count decided cells for O(1) range-agreement
        queries.
        """
        cell_lo = self._seed_edges[:-1]
        cell_hi = self._seed_edges[1:]
        decision = self._decide_cells(cell_lo, cell_hi, bandwidth, occupancy)
        hopeless = self._hopeless(cell_lo, cell_hi, decision, bandwidth, occupancy)
        budget = _REFINE_BUDGET
        for _ in range(_REFINE_ROUNDS):
            chosen = np.flatnonzero(
                (decision == -1)
                & ~hopeless
                & (cell_hi - cell_lo > _MIN_CELL_WIDTH)
            )
            if not chosen.size or budget < 4:
                break
            if 4 * chosen.size > budget:
                # Spend the remaining budget on the widest cells: they are
                # the ones the per-request correction intervals land in most.
                widest = np.argsort(cell_hi[chosen] - cell_lo[chosen])
                chosen = np.sort(chosen[widest[-(budget // 4) :]])
            budget -= 4 * chosen.size

            # Split each chosen cell into quarters and bound only the new
            # subcells; all other cells keep their verdicts untouched.
            bounds = (
                cell_lo[chosen, None]
                + (cell_hi - cell_lo)[chosen, None] * _REFINE_BOUNDS
            )
            bounds[:, 0] = cell_lo[chosen]
            bounds[:, -1] = cell_hi[chosen]
            sub_lo = bounds[:, :4].ravel()
            sub_hi = bounds[:, 1:].ravel()
            sub_decision = self._decide_cells(sub_lo, sub_hi, bandwidth, occupancy)
            sub_hopeless = self._hopeless(
                sub_lo, sub_hi, sub_decision, bandwidth, occupancy
            )

            split = np.zeros(cell_lo.size, dtype=bool)
            split[chosen] = True
            starts = np.concatenate(([0], np.cumsum(np.where(split, 4, 1))[:-1]))
            total = cell_lo.size + 3 * chosen.size
            new_lo = np.empty(total)
            new_hi = np.empty(total)
            new_decision = np.empty(total, dtype=np.int8)
            new_hopeless = np.empty(total, dtype=bool)
            kept = starts[~split]
            new_lo[kept] = cell_lo[~split]
            new_hi[kept] = cell_hi[~split]
            new_decision[kept] = decision[~split]
            new_hopeless[kept] = hopeless[~split]
            slots = (starts[chosen][:, None] + np.arange(4)).ravel()
            new_lo[slots] = sub_lo
            new_hi[slots] = sub_hi
            new_decision[slots] = sub_decision
            new_hopeless[slots] = sub_hopeless
            cell_lo, cell_hi = new_lo, new_hi
            decision, hopeless = new_decision, new_hopeless
        edges = np.append(cell_lo, cell_hi[-1])
        accept_prefix = np.concatenate(([0], np.cumsum(decision == 1)))
        reject_prefix = np.concatenate(([0], np.cumsum(decision == 0)))
        _log.debug(
            "cell table R=%g Cs=%g: %d cells, %d ambiguous, refinement budget exhausted: %s",
            bandwidth,
            occupancy,
            decision.size,
            decision.size - accept_prefix[-1] - reject_prefix[-1],
            budget < 4,
        )
        return edges, decision, accept_prefix, reject_prefix

    def _hopeless(
        self,
        cell_lo: np.ndarray,
        cell_hi: np.ndarray,
        decision: np.ndarray,
        bandwidth: float,
        occupancy: float,
    ) -> np.ndarray:
        """Ambiguous cells whose midpoint score pins the threshold.

        The midpoint is bounded as a zero-width cell, batched over every
        ambiguous cell; its certified interval lying wholly within
        ``_HOPELESS_MARGIN`` of the threshold marks the cell hopeless — a
        build-time probe that steers the split budget away from undecidable
        plateaus and toward bands the bounds *can* still resolve.
        """
        hopeless = np.zeros(cell_lo.size, dtype=bool)
        ambiguous = np.flatnonzero(decision == -1)
        if ambiguous.size:
            mids = 0.5 * (cell_lo[ambiguous] + cell_hi[ambiguous])
            score_lo, score_hi, certain = self._cell_scores(mids, mids, bandwidth, occupancy)
            hopeless[ambiguous] = (
                certain
                & (score_lo >= self._threshold - _HOPELESS_MARGIN)
                & (score_hi <= self._threshold + _HOPELESS_MARGIN)
            )
        return hopeless

    def _decide_cells(
        self,
        cell_lo: np.ndarray,
        cell_hi: np.ndarray,
        bandwidth: float,
        occupancy: float,
    ) -> np.ndarray:
        """Per-cell verdicts for ``[cell_lo, cell_hi]`` Cv intervals."""
        score_lo, score_hi, certain = self._cell_scores(cell_lo, cell_hi, bandwidth, occupancy)
        decision = np.full(cell_lo.size, -1, dtype=np.int8)
        decision[certain & (score_lo > self._threshold)] = 1
        decision[certain & (score_hi <= self._threshold)] = 0
        return decision

    def _cell_scores(
        self,
        cell_lo: np.ndarray,
        cell_hi: np.ndarray,
        bandwidth: float,
        occupancy: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Certified FLC2 score bounds over ``[cell_lo, cell_hi]`` Cv intervals.

        Returns ``(lo, hi, certain)``; the bounds mean nothing where
        ``certain`` is False (no rule certainly fired, or no positive area
        bound).
        """
        eng = self._eng2
        n_cells = cell_lo.size
        deg_lo = np.empty((n_cells, eng._n_degree_slots))
        deg_hi = np.empty((n_cells, eng._n_degree_slots))
        deg_lo[:, eng._identity_slot] = 1.0
        deg_hi[:, eng._identity_slot] = 1.0
        scalars = {"R": bandwidth, "Cs": occupancy}
        for name, low, high, offset, memberships in eng._batch_fuzzify_plan:
            if name == "Cv":
                cv_lo, cv_hi = self._degree_intervals(cell_lo, cell_hi)
                stop = offset + len(memberships)
                deg_lo[:, offset:stop] = cv_lo.T
                deg_hi[:, offset:stop] = cv_hi.T
                continue
            # Exactly the engine's batched fuzzification of this scalar.
            value = np.clip(np.array([scalars[name]]), low, high)
            for j, membership in enumerate(memberships):
                degree = float(np.clip(membership.evaluate(value), 0.0, 1.0)[0])
                deg_lo[:, offset + j] = degree
                deg_hi[:, offset + j] = degree

        # Interval rule strengths, folded column for column in the engine's
        # order: min is an exact selection, so endpoint folds bound the
        # engine's fold in float.
        index = eng._antecedent_index
        s_lo = deg_lo[:, index[:, 0]]
        s_hi = deg_hi[:, index[:, 0]]
        for column in range(1, eng._antecedent_width):
            s_lo = np.minimum(s_lo, deg_lo[:, index[:, column]])
            s_hi = np.minimum(s_hi, deg_hi[:, index[:, column]])

        t_lo = np.empty((n_cells, len(self._term_columns2)))
        t_hi = np.empty((n_cells, len(self._term_columns2)))
        for t, columns in enumerate(self._term_columns2):
            t_lo[:, t] = s_lo[:, columns].max(axis=1)
            t_hi[:, t] = s_hi[:, columns].max(axis=1)

        fired = (t_lo > 0.0).any(axis=1)
        score_lo, score_hi, valid = self._tables2.score_interval(t_lo, t_hi)
        # The oracle clips the defuzzified score into the output range
        # before comparing; clipping is monotone, so the bounds follow.
        return np.clip(score_lo, -1.0, 1.0), np.clip(score_hi, -1.0, 1.0), fired & valid

    # ------------------------------------------------------------------
    def decide(
        self,
        speeds_kmh: np.ndarray,
        angles_deg: np.ndarray,
        distances_km: np.ndarray,
        request_bus: np.ndarray,
        occupancy_bu: float,
    ) -> np.ndarray:
        """Boolean threshold verdicts, byte-identical to the exact score path.

        Inputs are the already universe-clamped observation columns of
        :meth:`FuzzyAdmissionControlSystem.score_columns`.  Raises
        :class:`DefuzzificationError` when the batch must be deferred to the
        exact path for its canonical no-rule-fired diagnostics.
        """
        eng1 = self._eng1
        matrix = eng1._batch_matrix(
            {"S": speeds_kmh, "A": angles_deg, "D": distances_km}
        )
        degrees = eng1._fill_degrees_batch(matrix)
        strengths = eng1._firing_strengths_batch(degrees)
        term_strengths = eng1._term_strengths_batch(strengths, self._term_columns1)
        if not (term_strengths > 0.0).any(axis=1).all():
            # Let the exact path raise with its canonical row-indexed message.
            raise DefuzzificationError("screen deferral: FLC1 rule base did not fire")

        corr_lo, corr_hi, valid = self._tables1.score_interval(
            term_strengths, term_strengths
        )
        corr_lo = np.clip(corr_lo, 0.0, 1.0)
        corr_hi = np.clip(corr_hi, 0.0, 1.0)

        count = matrix.shape[0]
        occupancy = float(occupancy_bu)
        accepted = np.zeros(count, dtype=bool)
        undecided = ~valid
        for bandwidth in np.unique(request_bus):
            mask = request_bus == bandwidth
            edges, _, accept_prefix, reject_prefix = self._cell_table(
                float(bandwidth), occupancy
            )
            last = edges.size - 2
            first_cell = np.clip(
                np.searchsorted(edges, corr_lo[mask], side="right") - 1, 0, last
            )
            last_cell = np.clip(
                np.searchsorted(edges, corr_hi[mask], side="left") - 1, 0, last
            )
            lo_cell = np.minimum(first_cell, last_cell)
            hi_cell = np.maximum(first_cell, last_cell)
            span = hi_cell - lo_cell + 1
            all_accept = (accept_prefix[hi_cell + 1] - accept_prefix[lo_cell]) == span
            all_reject = (reject_prefix[hi_cell + 1] - reject_prefix[lo_cell]) == span
            accepted[mask] = valid[mask] & all_accept
            undecided[mask] |= ~(all_accept | all_reject)

        fallback = np.flatnonzero(undecided)
        if fallback.size:
            # Exact FLC1 on the undecided subset, completed from the firing
            # strengths already computed above: batched engine rows are
            # mutually independent, so the subset aggregation + centroid is
            # bit-identical to the corresponding rows of a full-batch run
            # (and to ``FLC1.correction_values``, whose [0, 1] clip this
            # replays).
            eng1_grouped = eng1._grouped_consequent_plans["Cv"]
            cv_variable = eng1._consequent_plans["Cv"][2]
            aggregated = eng1._aggregate_output_batch_grouped(
                strengths[fallback], eng1_grouped, "Cv", 0
            )
            corrections = np.clip(
                eng1._defuzzify_fast_batch("Cv", cv_variable, aggregated), 0.0, 1.0
            )
            verdict = np.empty(fallback.size, dtype=np.int8)
            for bandwidth in np.unique(request_bus[fallback]):
                sub = request_bus[fallback] == bandwidth
                edges, decision, _, _ = self._cell_table(float(bandwidth), occupancy)
                cell = np.clip(
                    np.searchsorted(edges, corrections[sub], side="right") - 1,
                    0,
                    edges.size - 2,
                )
                verdict[sub] = decision[cell]
            accepted[fallback] = verdict == 1
            ambiguous = fallback[verdict == -1]
            if ambiguous.size:
                scores = self._exact_scores(
                    corrections[verdict == -1],
                    request_bus[ambiguous],
                    np.full(ambiguous.size, occupancy),
                )
                accepted[ambiguous] = scores > self._threshold
        return accepted

    def _exact_scores(
        self, corrections: np.ndarray, request_bus: np.ndarray, counters: np.ndarray
    ) -> np.ndarray:
        """Exact FLC2 scores through the engine's batched hot path.

        The same operation sequence as
        :meth:`FLC2.decision_scores` → ``compute_batch`` → ``infer_batch``
        (including the final [-1, 1] clip), minus the wrapper overhead —
        results are bit-identical because every step is shared.
        """
        eng = self._eng2
        matrix = eng._batch_matrix(
            {"Cv": corrections, "R": request_bus, "Cs": counters}
        )
        degrees = eng._fill_degrees_batch(matrix)
        strengths = eng._firing_strengths_batch(degrees)
        grouped = eng._grouped_consequent_plans["AR"]
        variable = eng._consequent_plans["AR"][2]
        aggregated = eng._aggregate_output_batch_grouped(strengths, grouped, "AR", 0)
        scores = eng._defuzzify_fast_batch("AR", variable, aggregated)
        return np.clip(scores, -1.0, 1.0)
