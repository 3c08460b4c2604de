"""Certified decision screening for the FACS cascade.

The trace pipeline only needs the *boolean* admission verdict — "is the
defuzzified A/R score above the threshold?" — yet the score path pays for
full dense-grid aggregation and centroid integration in both FLC stages for
every request.  :class:`DecisionScreen` answers the boolean directly for the
overwhelming majority of rows using certified interval bounds
(:class:`repro.fuzzy.bounds.CentroidBoundTables`), and evaluates *exactly*
— through the very same engine paths the oracle uses — only the rows whose
bounds straddle the threshold.  Decisions are therefore
byte-identical to ``score_columns(...) > threshold`` by construction, never
by tolerance.

How a block of trace rows flows through the screen
(:meth:`DecisionScreen.columns` runs steps 1–2 once per block;
:meth:`ScreenedColumns.accepts` runs steps 3–4 per row, at the occupancy the
row's request meets):

1. **Exact FLC1 front end.**  Fuzzification and rule firing strengths are
   cheap (a few vector ops over ~40 rules); the screen runs them exactly
   and reduces to per-consequent-term strengths — the only quantities the
   aggregation stage depends on.
2. **FLC1 correction interval.**  Bound tables turn the exact term
   strengths into a certified interval for the correction value ``Cv``
   (FLC1's defuzzified, [0, 1]-clipped output).
3. **FLC2 cell lookup.**  FLC2's other two inputs are effectively discrete
   in the trace pipeline (bandwidth ∈ {1, 5, 10} BU, occupancy an integer),
   so for each ``(R, Cs)`` pair the screen lazily builds one verdict per
   cell of a ``Cv`` grid that every pair shares: uniform points plus every
   membership breakpoint.  One bounding pass gives each cell interval rule
   strengths (degree endpoints are certified because triangular/trapezoidal
   memberships are quasiconcave — including ``Triangular``'s ``np.isclose``
   peak band, which gets its own guard cells forced to an upper bound of
   1), then certified score bounds, collapsing to a verdict: accept,
   reject, or ambiguous.  A row is decided when the cells holding the two
   ends of its correction interval are the same or adjacent cells and carry
   the same accept or reject verdict.  FLC1 intervals are under 1e-7 wide
   and every shared cell except the 2e-8-wide guard cell at ``Cv = 0`` is
   at least 1e-5 wide, so almost every row spans at most two cells.
   Cells are never split, so an ambiguous band is as wide as the cells
   that cover it.  At R ∈ {1, 5} with Cs 21–39 the score grows only like
   ``(Cv − 0.5)³`` away from the threshold (about −1e-5 at ``Cv = 0.525``),
   so the bounds would need cells about 4e-6 wide there; those tables keep
   ambiguous bands 0.03–0.21 wide.  Few decisions fall there at the paper's
   load, but an overloaded trace makes almost all of its decisions at
   Cs ≥ 21, and more of its rows take the exact fallback.
4. **Exact fallback.**  A row the lookup leaves undecided finishes FLC1
   exactly, once — reusing the firing strengths from step 1, and
   bit-identical because batched engine rows are independent; where its
   exact correction lands in an *ambiguous* cell it additionally runs exact
   FLC2 at that occupancy.  Rows where FLC1's rule base did not fire make
   the screen defer the whole block to the exact path so the diagnostic
   error is raised with its canonical wording.
"""

from __future__ import annotations

import logging
from bisect import bisect_right

import numpy as np

from ...fuzzy.bounds import CentroidBoundTables
from ...fuzzy.compiled import CompiledMamdaniEngine
from ...fuzzy.defuzzification import DefuzzificationError
from ...fuzzy.membership import Trapezoidal, Triangular
from .flc1 import FLC1
from .flc2 import FLC2

__all__ = ["DecisionScreen", "ScreenedColumns"]

_log = logging.getLogger(__name__)

#: Widening applied to per-cell membership-degree endpoints; generous cover
#: for the one rounding step between a degree and its quasiconcave envelope.
_DEGREE_SLACK = 1e-9
#: ``np.isclose`` defaults — ``Triangular.evaluate`` snaps a *band* of this
#: half-width around its peak to 1.0, so the screen treats the (doubled)
#: band as part of the plateau.
_ISCLOSE_RTOL = 1e-5
_ISCLOSE_ATOL = 1e-8
#: Number of uniform points in the shared ``Cv`` cell grid.
_CV_SEED_CELLS = 257


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
    """Threshold decisions for FACS admission requests, byte-identical and fast.

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
        self._flc2 = flc2
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

        # The Cv cell grid every (R, Cs) table shares: universe ends, every
        # membership breakpoint (and isclose guard band), plus uniform points
        # for tightness.
        edges: list[float] = [cv_low, cv_high]
        self._peaks: list[tuple[float, float]] = []
        for membership in cv_memberships:
            lo, hi, extra = _peak_interval(membership)
            self._peaks.append((lo, hi))
            edges.extend(extra)
        edges.extend(np.linspace(cv_low, cv_high, _CV_SEED_CELLS))
        self._edges = np.unique(np.clip(np.asarray(edges, dtype=float), cv_low, cv_high))
        self._edge_list = self._edges.tolist()

        #: (bandwidth, occupancy) -> verdict per shared cell: 1 accept,
        #: 0 reject, -1 ambiguous.
        self._cells: dict[tuple[float, float], np.ndarray] = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, flc1: FLC1, flc2: FLC2, threshold: float) -> "DecisionScreen | None":
        """A screen for the controller pair, or ``None`` when unsupported.

        ``None`` sends every block down the exact score path, so the reason
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

    def _cell_table(self, bandwidth: float, occupancy: float) -> np.ndarray:
        """Verdicts of one (R, Cs) pair over the shared cells, built once."""
        key = (float(bandwidth), float(occupancy))
        decision = self._cells.get(key)
        if decision is None:
            cell_lo, cell_hi = self._edges[:-1], self._edges[1:]
            decision = self._decide_cells(cell_lo, cell_hi, *key)
            ambiguous = decision == -1
            _log.debug(
                "cell table R=%g Cs=%g: %d cells, %d ambiguous, ambiguous Cv width %.4g",
                *key,
                decision.size,
                np.count_nonzero(ambiguous),
                float((cell_hi - cell_lo)[ambiguous].sum()),
            )
            self._cells[key] = decision
        return decision

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
    def columns(
        self,
        speeds_kmh: np.ndarray,
        angles_deg: np.ndarray,
        distances_km: np.ndarray,
        request_bus: np.ndarray,
    ) -> "ScreenedColumns":
        """FLC1's certified correction intervals for a block of rows.

        Inputs are the already universe-clamped observation columns of
        :meth:`FuzzyAdmissionControlSystem.score_columns`.  FLC1 does not
        depend on the base station, so this runs once per block; the
        returned object then answers each row at any occupancy.  Raises
        :class:`DefuzzificationError` when the block must be deferred to the
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
        last = self._edges.size - 2
        first_cell = np.clip(
            np.searchsorted(self._edges, np.clip(corr_lo, 0.0, 1.0), side="right") - 1,
            0,
            last,
        )
        last_cell = np.clip(
            np.searchsorted(self._edges, np.clip(corr_hi, 0.0, 1.0), side="left") - 1,
            0,
            last,
        )
        # The exact correction lies in the union of the two end cells, so a
        # row whose end cells are equal or adjacent is decided wherever both
        # carry one accept/reject verdict; any other row needs exact FLC1.
        tight = valid & (last_cell - first_cell <= 1)
        return ScreenedColumns(self, strengths, request_bus, first_cell, last_cell, tight)

    def _exact_correction(self, strengths: np.ndarray) -> float:
        """Exact FLC1 for one row, completed from its firing strengths.

        Batched engine rows are mutually independent, so the one-row
        aggregation and centroid are bit-identical to that row of a
        full-batch run (and to ``FLC1.correction_values``, whose [0, 1] clip
        this replays).
        """
        eng1 = self._eng1
        aggregated = eng1._aggregate_output_batch_grouped(
            strengths[None, :], eng1._grouped_consequent_plans["Cv"], "Cv", 0
        )
        cv_variable = eng1._consequent_plans["Cv"][2]
        centroid = eng1._defuzzify_fast_batch("Cv", cv_variable, aggregated)[0]
        return min(max(float(centroid), 0.0), 1.0)

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


class ScreenedColumns:
    """Threshold verdicts for one block of rows, at any occupancy.

    Built by :meth:`DecisionScreen.columns`.  :meth:`accepts` reads row
    ``k``'s verdict from the (R, Cs) cell table at the occupancy it is
    given; a row the table cannot decide runs exact FLC1 and, where its
    exact correction lands in an ambiguous cell, exact FLC2.  The counters
    tell how each verdict was reached: ``screened`` verdicts came from a
    cell table, ``exact_flc2`` from exact FLC2, and ``exact_flc1`` counts
    the exact correction values computed.
    """

    def __init__(
        self,
        screen: DecisionScreen,
        strengths: np.ndarray,
        request_bus: np.ndarray,
        first_cell: np.ndarray,
        last_cell: np.ndarray,
        tight: np.ndarray,
    ):
        self._screen = screen
        self._strengths = strengths
        self._bandwidths = request_bus.tolist()
        self._first = first_cell.tolist()
        self._last = last_cell.tolist()
        self._tight = tight.tolist()
        self.screened = 0
        self.exact_flc1 = 0
        self.exact_flc2 = 0

    def accepts(self, k: int, occupancy_bu: int) -> bool:
        """Whether row ``k``'s A/R score at ``occupancy_bu`` is above the
        threshold: ``score_columns(...)[k] > threshold`` at that occupancy."""
        screen = self._screen
        bandwidth = self._bandwidths[k]
        table = screen._cell_table(bandwidth, occupancy_bu)
        if self._tight[k]:
            verdict = table[self._first[k]]
            if verdict != -1 and verdict == table[self._last[k]]:
                self.screened += 1
                return verdict == 1
        correction = screen._exact_correction(self._strengths[k])
        self.exact_flc1 += 1
        cell = min(max(bisect_right(screen._edge_list, correction) - 1, 0), len(table) - 1)
        verdict = table[cell]
        if verdict != -1:
            self.screened += 1
            return verdict == 1
        self.exact_flc2 += 1
        decision = screen._flc2.evaluate(correction, bandwidth, float(occupancy_bu))
        return decision.score > screen._threshold
