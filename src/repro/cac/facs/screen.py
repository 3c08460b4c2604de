"""Certified decision screening for the FACS cascade.

The single-cell admission loop, both network engines and the admission
service only need the *boolean* admission verdict — "is the defuzzified A/R score above the
threshold?" — yet the score path pays for full dense-grid aggregation and
centroid integration in both FLC stages for every request.
:class:`DecisionScreen` answers the boolean directly for the overwhelming
majority of requests using certified interval bounds
(:class:`repro.fuzzy.bounds.CentroidBoundTables`), and evaluates *exactly*
— through the very same engine paths the oracle uses — only the requests
whose bounds straddle the threshold.  Decisions are therefore
byte-identical to ``score_columns(...) > threshold`` by construction, never
by tolerance.

There are two ways in.  A block of rows (a trace's, or a network cell's new
calls) goes through :meth:`DecisionScreen.columns`, which bounds FLC1 for
the whole block.  A single request whose exact correction value is already
known (a network handoff or a queued service request, through
:meth:`~repro.cac.facs.system.FuzzyAdmissionControlSystem.verdict`, and a
row the block bounds could not decide) goes through
:meth:`DecisionScreen.verdict_at`: one bisect of the shared ``Cv`` grid and
one read of the (R, Cs) cell table, with exact FLC2 only where that cell is
ambiguous.  A process builds the screen once per controller pair.  Its
FLC2 half, :class:`VerdictTables` (the ``Cv`` grid and the cell tables),
depends on FLC2 and the threshold alone and is shared by every pair with
the same FLC2 and threshold, so a rule-base tuning search over FLC1 builds
each table once for all its trials.

Tables are built per bandwidth, in one batch: every table of that
bandwidth, one per integer ``Cs`` of FLC2's ``Cs`` universe (a key above
it reads the table at the universe's end, where FLC2 clamps it).  The
batch bounds coarse groups of ``Cv`` cells first and single cells only
inside the groups it left ambiguous, so it builds the tables cell for
cell equal to building them one at a time, in a fraction of the time.
One rule builds a bandwidth's batch, for both ways in: on the
:data:`_BATCH_MIN_VERDICTS`-th verdict asked at that bandwidth, the
verdicts before it being scored exactly, so a process that asks few
verdicts never pays for tables.  A parent that forks worker processes
builds the batches of its requests' bandwidths first instead
(:meth:`DecisionScreen.warm_up`, through
:meth:`~repro.cac.base.AdmissionController.warm_up`), and its workers
inherit them.

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
   in every caller (bandwidth ∈ {1, 5, 10} BU, occupancy an integer),
   so for each ``(R, Cs)`` pair the screen holds one verdict per cell of a
   ``Cv`` grid that every pair shares: uniform points plus every
   membership breakpoint, once the bandwidth's batch is built (until then
   the row takes step 4).  Bounding gives each cell (or group) interval
   rule strengths (degree endpoints are certified because
   triangular/trapezoidal memberships are quasiconcave — including
   ``Triangular``'s ``np.isclose`` peak band, which gets its own guard
   cells forced to an upper bound of 1), then certified score bounds,
   collapsing to a verdict: accept, reject, or ambiguous.  A row is
   decided when the cells holding the two ends of its correction interval
   are the same or adjacent cells and carry the same accept or reject
   verdict.  FLC1 intervals are under 1e-7 wide
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
   bit-identical because the engine's batch rows are independent and equal
   its scalar path — and reads its verdict at that exact correction in the
   cell table, running exact FLC2 at that occupancy where the bandwidth
   has no tables yet or the correction lands in an *ambiguous* cell.  A
   warm block, most of whose rows the lookup decides, finishes FLC1 for
   its few undecided rows one at a time.  A cold block, most of whose rows
   meet a bandwidth without tables (every block of a run too short to
   build them), finishes it in vectorized passes over the row and the
   next ones, as exact scoring would: a block counts as cold while it has
   finished FLC1 for at least as many rows as the lookup has decided.
   Rows where FLC1's rule base did not fire make the screen defer the
   whole block to the exact path so the diagnostic error is raised with
   its canonical wording.
"""

from __future__ import annotations

import logging
import math
import time
from bisect import bisect_right
from functools import lru_cache
from typing import Iterable

import numpy as np

from ...fuzzy.bounds import CentroidBoundTables
from ...fuzzy.defuzzification import DefuzzificationError
from ...fuzzy.membership import Trapezoidal, Triangular
from .flc1 import FLC1
from .flc2 import FLC2

__all__ = ["DecisionScreen", "ScreenedColumns", "VerdictTables"]

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
#: Verdicts asked at one bandwidth, through a block or through
#: :meth:`VerdictTables.verdict_at`, before that bandwidth's tables are
#: built.  One bandwidth's batch (its 41 tables on the paper's FLC2) costs
#: about 4 ms, as much as about 110 exact FLC2 evaluations (about 37 µs
#: each; both on a 2-vCPU host), so paying exact FLC2 until a bandwidth has
#: been asked this often, and building its tables then, never costs much
#: more than twice the cheaper choice, however many verdicts the process
#: goes on to ask there.
_BATCH_MIN_VERDICTS = 110
#: Shared cells per group of the batch's coarse pass.  The paper FLC2's
#: three batches took about 17 ms with groups of 16 cells, against about
#: 22 ms with 4 and 29 ms with 64.
_GROUP_CELLS = 16
#: Rows (one group or one cell of a table each) the batch bounds at once,
#: which bounds its temporaries: three batches allocate at most about
#: 0.5 MiB at once, against 2 MiB with the fine pass unchunked.
_PASS_ROWS = 256
#: Rows a cold block corrects in one exact FLC1 pass (see
#: :meth:`ScreenedColumns.accepts`).  A pass holds a few (rows × Cv grid)
#: arrays at once, about 16 KiB a row: 8 MiB for a whole 512-row block, a
#: sixth of a 20,000-request trace run's peak RSS.  At 64 rows it costs
#: about 13 µs a row, against 35 µs for a row corrected alone.  A process
#: whose runs are too short to build tables, such as a tuning trial of a
#: few hundred requests, finishes FLC1 for every row: without the passes
#: a cold 50-trial FLC2 grid ran 13% slower on a 2-vCPU host.
_FLC1_PASS_ROWS = 64
#: Entries each process-wide memo of FLC controllers, screens and verdict
#: tables keeps (here and in :mod:`repro.cac.facs.system`): room for the few
#: FACS configurations one sweep interleaves.  A tuning search makes new
#: controllers every trial and reads none of its past trials', so a larger
#: memo would only keep them alive (about 0.3 MiB of tables a trial).
_MEMO_ENTRIES = 4


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


class VerdictTables:
    """FLC2's half of the screen: the verdict tables of every (R, Cs).

    The tables, and the verdicts counted toward building them, depend on
    FLC2 and the threshold alone, so every controller pair with the same
    FLC2 and threshold reads one instance (:func:`_shared_verdicts`).  A
    rule-base tuning search over FLC1 thus builds each table once for all
    its trials.  The tables of one bandwidth are built together, in one
    batch (:meth:`_build`): one table per integer ``Cs`` of FLC2's ``Cs``
    universe, which a key above (or below) the universe shares with the
    end FLC2 clamps it to.
    """

    def __init__(self, flc2: FLC2, threshold: float):
        eng2 = flc2.controller.engine
        tables2 = CentroidBoundTables.for_engine(eng2, "AR")
        if tables2 is None:
            raise ValueError("controller pair outside the certified regime")
        self._eng2 = eng2
        self._flc2 = flc2
        self._tables2 = tables2
        self._threshold = float(threshold)
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
        _, cs_low, cs_high, _, _ = plan_by_name["Cs"]
        self._cs_low = cs_low
        self._cs_high = cs_high
        #: The Cs of each table of a bandwidth: every integer of FLC2's Cs
        #: universe, and its ends.
        self._cs_values = sorted(
            {
                min(max(float(cs), cs_low), cs_high)
                for cs in range(math.floor(cs_low), math.ceil(cs_high) + 1)
            }
        )

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
        # Sorted distinct edges, as np.unique gives them: np.unique's first
        # call imports numpy.ma, which every process that builds a screen
        # (each coupled-sharded shard worker does) would pay.
        clipped = np.clip(np.asarray(edges, dtype=float), cv_low, cv_high)
        self._edge_list = sorted(set(clipped.tolist()))
        self._edges = np.array(self._edge_list)
        # Interval rule strengths are mins over antecedent degrees, and min
        # is an exact selection, so the fold splits bit for bit into its Cv
        # part, which depends on the shared cell grid alone and is folded
        # here once, and its R/Cs part, constant within a table and folded
        # per batch (see _constant_strengths): ``(cells, rules)``.  Rules are
        # laid out grouped by consequent term, so one maximum.reduceat gives
        # every term's strength (max is exact too).
        deg_lo, deg_hi = self._degree_intervals(self._edges[:-1], self._edges[1:])
        term_rules = self._term_columns2
        self._term_starts2 = np.cumsum([0] + [len(rules) for rules in term_rules[:-1]])
        index = self._rule_index2 = eng2._antecedent_index[np.concatenate(term_rules)]
        cv_slot = index - plan_by_name["Cv"][3]
        on_cv = (cv_slot >= 0) & (cv_slot < len(cv_memberships))
        lo = self._cv_strength_lo = np.ones((self._edges.size - 1, len(index)))
        hi = self._cv_strength_hi = np.ones((self._edges.size - 1, len(index)))
        for column in range(eng2._antecedent_width):
            rules = np.flatnonzero(on_cv[:, column])
            slots = cv_slot[rules, column]
            lo[:, rules] = np.minimum(lo[:, rules], deg_lo[slots].T)
            hi[:, rules] = np.minimum(hi[:, rules], deg_hi[slots].T)
        # The coarse pass's groups of consecutive cells.  A group's Cv
        # strengths span its cells' (min and max are exact selections), so
        # its interval contains each of its cells' intervals.
        cells = self._edges.size - 1
        self._group_starts = np.arange(0, cells, _GROUP_CELLS)
        self._group_sizes = np.diff(np.append(self._group_starts, cells))
        self._group_lo = np.minimum.reduceat(lo, self._group_starts, axis=0)
        self._group_hi = np.maximum.reduceat(hi, self._group_starts, axis=0)

        #: (bandwidth, occupancy) -> verdict per shared cell: 1 accept,
        #: 0 reject, -1 ambiguous.
        self._cells: dict[tuple[float, float], np.ndarray] = {}
        #: bandwidth -> table Cs -> its table, once the batch is built.
        self._batches: dict[float, dict[float, np.ndarray]] = {}
        #: bandwidth -> verdicts asked there before its batch, by every
        #: screen that shares these tables.
        self._waiting: dict[float, int] = {}
        #: Batches built on these tables in this process or, for a forked
        #: worker, in its parent before the fork.
        self.batches = 0

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

    def _table(self, bandwidth: float, occupancy: float) -> np.ndarray | None:
        """The (R, Cs) pair's cell table for one verdict asked there.

        ``None`` until the bandwidth has been asked
        :data:`_BATCH_MIN_VERDICTS` times (that ask builds its batch), and
        for a ``Cs`` between two integers of FLC2's universe.
        """
        key = (float(bandwidth), float(occupancy))
        table = self._cells.get(key)
        if table is None:
            table = self._lookup(*key)
        return table

    def _lookup(self, bandwidth: float, occupancy: float) -> np.ndarray | None:
        """:meth:`_table` for a key not yet in ``_cells``.

        Counts the verdict toward the bandwidth's batch while it has none.
        A built key outside the universe is remembered with the table of
        the end it clamps to.  A count lost to a racing thread only delays
        the build; a batch built twice by racing threads is built equal.
        """
        batch = self._batches.get(bandwidth)
        if batch is None:
            waiting = self._waiting[bandwidth] = self._waiting.get(bandwidth, 0) + 1
            if waiting < _BATCH_MIN_VERDICTS:
                return None
            batch = self._build(bandwidth, "verdict")
        table = batch.get(min(max(occupancy, self._cs_low), self._cs_high))
        if table is not None:
            self._cells[(bandwidth, occupancy)] = table
        return table

    def warm_up(self, bandwidths: Iterable[float]) -> None:
        """Build the tables of every bandwidth given that has none yet."""
        for bandwidth in bandwidths:
            if float(bandwidth) not in self._batches:
                self._build(float(bandwidth), "warm-up")

    def verdict_at(
        self, correction: float, bandwidth: float, occupancy: float
    ) -> tuple[bool, bool]:
        """Whether the A/R score at an exact correction value is above the threshold.

        Reads the cell holding ``correction`` in the (R, Cs) cell table.
        Exact FLC2 decides instead where that cell is ambiguous, and while
        the bandwidth has no tables: until it has been asked
        :data:`_BATCH_MIN_VERDICTS` times, when they are built.  Returns
        ``(accepted, exact)``, ``exact`` telling whether exact FLC2 ran.  A
        certified cell implies that some FLC2 rule fires at every Cv in
        it, so exact FLC2 runs, and raises, wherever the oracle's would.
        """
        table = self._table(bandwidth, occupancy)
        return self._verdict(table, correction, bandwidth, occupancy)

    def _verdict(
        self, table: np.ndarray | None, correction: float, bandwidth: float, occupancy: float
    ) -> tuple[bool, bool]:
        """:meth:`verdict_at` with the pair's table (or ``None``) in hand."""
        if table is not None:
            cell = min(max(bisect_right(self._edge_list, correction) - 1, 0), len(table) - 1)
            verdict = int(table[cell])
            if verdict != -1:
                return verdict == 1, False
        decision = self._flc2.evaluate(correction, float(bandwidth), float(occupancy))
        return decision.score > self._threshold, True

    def _build(self, bandwidth: float, trigger: str) -> dict[float, np.ndarray]:
        """Every table of one bandwidth, in one coarse-to-fine bounding pass.

        The coarse pass bounds each table over groups of
        :data:`_GROUP_CELLS` cells, and a group certified there gives its
        verdict to each of its cells: a cell's interval lies inside its
        group's, so its own bounds would certify it too.  The fine pass
        bounds the cells of the groups left ambiguous, one cell at a time,
        as one table at a time would.
        """
        began = time.perf_counter()
        constant = self._constant_strengths(bandwidth)
        count, groups = constant.shape[0], self._group_starts.size
        coarse = self._bounded_verdicts(
            constant,
            np.repeat(np.arange(count), groups),
            self._group_lo,
            self._group_hi,
            np.tile(np.arange(groups), count),
        ).reshape(count, groups)
        tables = np.repeat(coarse, self._group_sizes, axis=1)
        # One fine row per cell of each ambiguous (table, group): the group's
        # first cell plus the row's offset within the group's run of rows.
        table_index, group_index = np.nonzero(coarse == -1)
        sizes = self._group_sizes[group_index]
        table_index = np.repeat(table_index, sizes)
        cell_index = np.repeat(self._group_starts[group_index] - np.cumsum(sizes) + sizes, sizes)
        cell_index += np.arange(cell_index.size)
        tables[table_index, cell_index] = self._bounded_verdicts(
            constant, table_index, self._cv_strength_lo, self._cv_strength_hi, cell_index
        )
        batch = {cs: tables[i] for i, cs in enumerate(self._cs_values)}
        self._cells.update(((bandwidth, cs), table) for cs, table in batch.items())
        self._batches[bandwidth] = batch
        self.batches += 1
        if _log.isEnabledFor(logging.DEBUG):
            ambiguous = tables == -1
            _log.debug(
                "verdict tables R=%g (%s): %d tables, %d coarse rows, %d fine rows, "
                "%d ambiguous cells over Cv width %.4g, %.2f ms",
                bandwidth,
                trigger,
                count,
                coarse.size,
                cell_index.size,
                np.count_nonzero(ambiguous),
                float((ambiguous * np.diff(self._edges)).sum()),
                1e3 * (time.perf_counter() - began),
            )
        return batch

    def _constant_strengths(self, bandwidth: float) -> np.ndarray:
        """The R/Cs part of every FLC2 rule strength at each table's Cs.

        ``(tables, rules)``: R and Cs degrees exactly as the engine's batched
        fuzzification gives them, every Cv slot (and the padding slot)
        holding the min identity 1, folded per rule.
        """
        eng = self._eng2
        occupancy = np.array(self._cs_values)
        degrees = np.ones((occupancy.size, eng._n_degree_slots))
        columns = {"R": np.full(occupancy.size, float(bandwidth)), "Cs": occupancy}
        for name, low, high, offset, memberships in eng._batch_fuzzify_plan:
            if name == "Cv":
                continue
            value = np.clip(columns[name], low, high)
            for j, membership in enumerate(memberships):
                degrees[:, offset + j] = np.clip(membership.evaluate(value), 0.0, 1.0)
        return degrees[:, self._rule_index2].min(axis=2)

    def _bounded_verdicts(
        self,
        constant: np.ndarray,
        tables: np.ndarray,
        cv_lo: np.ndarray,
        cv_hi: np.ndarray,
        cv_index: np.ndarray,
    ) -> np.ndarray:
        """Certified verdicts for rows of FLC2 rule-strength intervals.

        Row ``k``'s rule strengths fold the R/Cs part ``constant[tables[k]]``
        with a Cv part in ``[cv_lo[cv_index[k]], cv_hi[cv_index[k]]]``.
        Returns 1 (accept), 0 (reject) or -1 (ambiguous: the score bounds
        straddle the threshold, no rule certainly fired, or the area bound
        is not positive) per row, bounding :data:`_PASS_ROWS` rows at a time.
        """
        starts = self._term_starts2
        verdicts = np.empty(tables.size, dtype=np.int8)
        for start in range(0, tables.size, _PASS_ROWS):
            rows = slice(start, start + _PASS_ROWS)
            fixed, cv = constant[tables[rows]], cv_index[rows]
            t_lo = np.maximum.reduceat(np.minimum(cv_lo[cv], fixed), starts, axis=1)
            t_hi = np.maximum.reduceat(np.minimum(cv_hi[cv], fixed), starts, axis=1)
            score_lo, score_hi, valid = self._tables2.score_interval(t_lo, t_hi)
            certain = valid & (t_lo > 0.0).any(axis=1)
            # The oracle clips the defuzzified score into the output range
            # before comparing; clipping is monotone, so the bounds follow.
            verdict = np.full(score_lo.size, -1, dtype=np.int8)
            verdict[certain & (np.clip(score_lo, -1.0, 1.0) > self._threshold)] = 1
            verdict[certain & (np.clip(score_hi, -1.0, 1.0) <= self._threshold)] = 0
            verdicts[rows] = verdict
        return verdicts


@lru_cache(maxsize=_MEMO_ENTRIES)
def _shared_verdicts(flc2: FLC2, threshold: float) -> VerdictTables:
    """The process's :class:`VerdictTables` for one FLC2 and threshold."""
    return VerdictTables(flc2, threshold)


class DecisionScreen:
    """Threshold decisions for FACS admission requests, byte-identical and fast.

    FLC1's bound tables, read against the :class:`VerdictTables` of the
    pair's FLC2 and threshold.  Build via :meth:`build`, which returns
    ``None`` whenever the controller pair falls outside the certified
    regime; callers then simply use the exact score path.
    """

    def __init__(self, flc1: FLC1, flc2: FLC2, threshold: float):
        eng1 = flc1.controller.engine
        tables1 = CentroidBoundTables.for_engine(eng1, "Cv")
        if tables1 is None:
            raise ValueError("controller pair outside the certified regime")
        self._eng1 = eng1
        self._tables1 = tables1
        self._term_columns1 = eng1._grouped_consequent_plans["Cv"][1]
        self._verdicts = _shared_verdicts(flc2, float(threshold))

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

    def verdict_at(
        self, correction: float, bandwidth: float, occupancy: float
    ) -> tuple[bool, bool]:
        """:meth:`VerdictTables.verdict_at` for the pair's FLC2 and threshold."""
        return self._verdicts.verdict_at(correction, bandwidth, occupancy)

    def warm_up(self, bandwidths: Iterable[float]) -> None:
        """:meth:`VerdictTables.warm_up` for the pair's FLC2 and threshold."""
        self._verdicts.warm_up(bandwidths)

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
        edges = self._verdicts._edges
        last = edges.size - 2
        first_cell = np.clip(
            np.searchsorted(edges, np.clip(corr_lo, 0.0, 1.0), side="right") - 1,
            0,
            last,
        )
        last_cell = np.clip(
            np.searchsorted(edges, np.clip(corr_hi, 0.0, 1.0), side="left") - 1,
            0,
            last,
        )
        # The exact correction lies in the union of the two end cells, so a
        # row whose end cells are equal or adjacent is decided wherever both
        # carry one accept/reject verdict; any other row needs exact FLC1.
        tight = valid & (last_cell - first_cell <= 1)
        return ScreenedColumns(self, strengths, request_bus, first_cell, last_cell, tight)

    def _exact_corrections(self, strengths: np.ndarray) -> np.ndarray:
        """Exact FLC1 for rows of firing strengths, completed from them.

        Batched engine rows are mutually independent, so each row's
        aggregation and centroid are bit-identical to that row of a
        full-batch run (and to ``FLC1.correction_values``, whose [0, 1] clip
        this replays), whether one row is passed or a whole block.
        """
        eng1 = self._eng1
        aggregated = eng1._aggregate_output_batch(strengths, "Cv")
        cv_variable = eng1._consequent_plans["Cv"][2]
        centroids = eng1._defuzzify_fast_batch("Cv", cv_variable, aggregated)
        return np.clip(centroids, 0.0, 1.0)

    def _exact_correction(self, strengths: np.ndarray) -> float:
        """:meth:`_exact_corrections` for one row, through the engine's scalar
        path: bit-identical to a batch row, at about a third of the cost of
        a batch of one."""
        eng1 = self._eng1
        entry_rules, tensor, cv_variable = eng1._consequent_plans["Cv"]
        aggregated = eng1._aggregate_output(strengths, entry_rules, tensor, "Cv", {})
        return min(max(eng1._defuzzify_fast("Cv", cv_variable, aggregated), 0.0), 1.0)


class ScreenedColumns:
    """Threshold verdicts for one block of rows, at any occupancy.

    Built by :meth:`DecisionScreen.columns`.  :meth:`accepts` reads row
    ``k``'s verdict from the (R, Cs) cell table at the occupancy it is
    given; a row the table cannot decide, or whose bandwidth has no tables
    yet, runs exact FLC1 and, where there is no table or its exact
    correction lands in an ambiguous cell, exact FLC2.  The counters tell
    how each verdict was reached: ``screened`` verdicts came from a cell
    table, ``exact_flc2`` from exact FLC2, and ``exact_flc1`` counts the
    rows whose exact correction was computed.
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
        #: Row -> exact correction, for the rows a cold block's passes cover.
        self._corrections: dict[int, float] = {}
        self.screened = 0
        self.exact_flc1 = 0
        self.exact_flc2 = 0

    def accepts(self, k: int, occupancy_bu: int) -> bool:
        """Whether row ``k``'s A/R score at ``occupancy_bu`` is above the
        threshold: ``score_columns(...)[k] > threshold`` at that occupancy."""
        screen = self._screen
        verdicts = screen._verdicts
        bandwidth = self._bandwidths[k]
        table = verdicts._table(bandwidth, occupancy_bu)
        if table is not None and self._tight[k]:
            verdict = table[self._first[k]]
            if verdict != -1 and verdict == table[self._last[k]]:
                self.screened += 1
                return verdict == 1
        corrections = self._corrections
        correction = corrections.get(k)
        if correction is None:
            if self.exact_flc1 >= self.screened:
                # A cold block: this row and the next ones in one pass.
                stop = k + _FLC1_PASS_ROWS
                passed = screen._exact_corrections(self._strengths[k:stop]).tolist()
                corrections.update(enumerate(passed, start=k))
                self.exact_flc1 += len(passed)
                correction = passed[0]
            else:
                correction = screen._exact_correction(self._strengths[k])
                self.exact_flc1 += 1
        accepted, exact = verdicts._verdict(table, correction, bandwidth, occupancy_bu)
        if exact:
            self.exact_flc2 += 1
        else:
            self.screened += 1
        return accepted
