"""Certified interval bounds on compiled-engine centroid outputs.

The batched Mamdani hot path spends nearly all of its time materialising
``(rows, grid)`` aggregated surfaces and integrating them — work whose
*crisp result* is usually needed only coarsely (e.g. "is the defuzzified
score above the admission threshold?").  This module trades that dense
per-row integration for table lookups that bound the exact result from
both sides, so callers can act on every row whose answer the bounds
already decide and fall back to the exact engine for the rest.

The bounds are *certified*: they hold for the bit-exact value the engine's
batch path produces, not merely for the underlying real number.  Three
facts make that possible:

1. **Exact decomposition.**  With the MAXIMUM s-norm the aggregated
   surface is ``max_t f(T_t, s_t)`` over the distinct consequent terms
   (``f`` = min for CLIP, product for SCALE implication; ``s_t`` = the
   term's maximal firing strength).  When no grid point is covered by
   three or more term supports — true for every standard fuzzy partition,
   and verified at build time — the pointwise identity
   ``max(f_1, …, f_k) = Σ f_t − Σ min(f_t, f_u)`` over support-adjacent
   pairs ``(t, u)`` holds exactly, so areas and moments split into
   per-term curves and adjacent-pair overlap corrections.
2. **Monotonicity.**  Every curve is monotone in its strength argument,
   and IEEE-754 rounding is monotone, so evaluating a curve at tabulated
   strength knots bracketing ``s_t`` brackets its value — in float, not
   just in theory.  Likewise the final ``moment / area`` division is
   monotone in both operands, so evaluating it at interval corners
   brackets the exact quotient.
3. **Generous widening.**  Tables and sums are widened by ``1e-9``
   relative + ``1e-12`` absolute — about five orders of magnitude more
   than the worst-case accumulated rounding of the ~500-term trapezoid
   sums they stand in for — so *any* float summation order may be used to
   build them (the implementation uses BLAS dot products); differences
   between the table arithmetic and the engine's pinned summation trees
   are swallowed by the interval, never hidden by it.

The resulting intervals are loose by construction (knot quantisation plus
the widening), but a caller never has to trust them blindly: rows whose
interval straddles the caller's decision boundary are simply re-evaluated
exactly.
"""

from __future__ import annotations

import numpy as np

from .compiled import CompiledMamdaniEngine, ImplicationMethod
from .defuzzification import Centroid
from .operators import MAXIMUM, MINIMUM, PRODUCT

__all__ = ["CentroidBoundTables"]

#: Relative widening applied to every tabulated value and folded sum.
_REL = 1e-9
#: Absolute widening floor (guards values at or near zero).
_ABS = 1e-12
#: Strength knots per block when tabulating the per-term curves: a block's
#: ``(knots, grid)`` temporary stays cache-sized (~2 MB at a 501-point grid).
_KNOT_BLOCK = 512


class CentroidBoundTables:
    """Lookup tables bounding one output variable's centroid, per row.

    Build via :meth:`for_engine`, which returns ``None`` when the engine or
    rule base falls outside the certified regime (non-compiled engine,
    non-MAXIMUM s-norm, non-centroid defuzzifier, rule weights, or a term
    geometry with triple overlaps).
    """

    def __init__(
        self,
        engine: CompiledMamdaniEngine,
        var_name: str,
        strength_cells: int = 1024,
        pair_cells: int = 128,
    ):
        grouped = engine._grouped_consequent_plans[var_name]
        term_surfaces, _term_columns, supports, grid_length = grouped
        variable = engine._consequent_plans[var_name][2]
        grid = variable.grid
        spacing = np.diff(grid)
        scale = self._implication_fn(engine)

        fulls = []
        for segment, (start, stop) in zip(term_surfaces, supports):
            full = np.zeros(grid_length)
            full[start:stop] = segment
            fulls.append(full)

        coverage = (np.stack(fulls) > 0.0).sum(axis=0)
        if coverage.size and int(coverage.max()) > 2:
            raise ValueError("term supports overlap more than pairwise")
        order = sorted(range(len(fulls)), key=lambda t: supports[t][0])
        pairs = []
        for i, t in enumerate(order):
            for u in order[i + 1 :]:
                if np.any((fulls[t] > 0.0) & (fulls[u] > 0.0)):
                    pairs.append((t, u))

        # Trapezoid integration as a dot product: the per-point quadrature
        # weights, optionally premultiplied by the (sign-split) grid for the
        # moment integrals.
        quad = np.zeros(grid_length)
        quad[:-1] += spacing / 2.0
        quad[1:] += spacing / 2.0
        weight_sets = (quad, quad * np.maximum(grid, 0.0), quad * np.maximum(-grid, 0.0))

        # Kept for the direct (table-free) interval path.
        self._fulls = np.stack(fulls) if fulls else np.zeros((0, grid_length))
        self._pairs = pairs
        self._scale = scale
        self._weights_matrix = np.stack(weight_sets, axis=1)

        self._sigma = np.linspace(0.0, 1.0, strength_cells + 1)
        self._pair_sigma = np.linspace(0.0, 1.0, pair_cells + 1)
        self._pair_cells = pair_cells

        n_terms = len(fulls)
        knots = strength_cells + 1
        # Knot-major, fused (knots, n_terms, 3) layout: per-row lookups are a
        # single fancy-index gather per endpoint, which serves the area and
        # both sign-split moment integrals at once.
        term_sums = np.empty((knots, n_terms, 3))
        for t, full in enumerate(fulls):
            for start in range(0, knots, _KNOT_BLOCK):
                stop = start + _KNOT_BLOCK
                clipped = scale(full[None, :], self._sigma[start:stop, None])
                for k, weights in enumerate(weight_sets):
                    term_sums[start:stop, t, k] = clipped @ weights
        self._term_lo = term_sums * (1.0 - _REL) - _ABS
        self._term_hi = term_sums * (1.0 + _REL) + _ABS

        # Adjacent-pair overlap corrections, flattened over the 2-D
        # (σ_t, σ_u) knot grid: (pair knots squared, n_pairs, 3) layout.
        # Filled one σ_t row at a time, so the overlap temporary is
        # (pair knots, grid) rather than (pair knots squared, grid).
        n_pairs = len(pairs)
        width = self._pair_sigma.size
        pair_sums = np.empty((width, width, n_pairs, 3))
        for p, (t, u) in enumerate(pairs):
            left = scale(fulls[t][None, :], self._pair_sigma[:, None])
            right = scale(fulls[u][None, :], self._pair_sigma[:, None])
            for i, row in enumerate(left):
                overlap = np.minimum(row, right)
                for k, weights in enumerate(weight_sets):
                    pair_sums[i, :, p, k] = overlap @ weights
        pair_sums = pair_sums.reshape(width * width, n_pairs, 3)
        self._pair_lo = pair_sums * (1.0 - _REL) - _ABS
        self._pair_hi = pair_sums * (1.0 + _REL) + _ABS
        self._pair_t = np.array([t for t, _ in pairs], dtype=np.intp)
        self._pair_u = np.array([u for _, u in pairs], dtype=np.intp)
        self._term_cols = np.arange(n_terms)
        self._pair_cols = np.arange(n_pairs)
        # With power-of-two cell counts the knots are i / K with K a power of
        # two, so s * K is computed exactly (scaling by a power of two never
        # rounds) and floor/ceil give the certified bracketing indices with
        # plain arithmetic instead of a binary search.
        self._uniform = (strength_cells & (strength_cells - 1)) == 0 and (
            pair_cells & (pair_cells - 1)
        ) == 0
        self._strength_cells = strength_cells

    # ------------------------------------------------------------------
    @staticmethod
    def _implication_fn(engine: CompiledMamdaniEngine):
        if engine._implication == ImplicationMethod.CLIP:
            return np.minimum
        return np.multiply

    @classmethod
    def for_engine(
        cls,
        engine: object,
        var_name: str,
        strength_cells: int = 1024,
        pair_cells: int = 128,
    ) -> "CentroidBoundTables | None":
        """Build tables for ``engine``'s output ``var_name``, or ``None``.

        ``None`` (rather than an error) keeps callers' fast paths optional:
        anything outside the certified regime simply runs exact.
        """
        if not isinstance(engine, CompiledMamdaniEngine):
            return None
        if engine._snorm is not MAXIMUM:
            return None
        if engine._tnorm is not MINIMUM and engine._tnorm is not PRODUCT:
            return None
        if not engine._trivial_weights or not engine._fast_centroid:
            return None
        if type(engine._defuzzifier) is not Centroid:
            return None
        if var_name not in engine._grouped_consequent_plans:
            return None
        try:
            return cls(engine, var_name, strength_cells, pair_cells)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    def score_interval(
        self, s_lo: np.ndarray, s_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bound the centroid for rows of term-strength intervals.

        ``s_lo``/``s_hi`` are ``(rows, n_terms)`` arrays with
        ``0 <= s_lo <= s_hi <= 1`` bounding each term's maximal firing
        strength.  Returns ``(lo, hi, valid)``; where ``valid`` is False the
        area's lower bound was not positive and the row must be evaluated
        exactly.
        """
        last = self._sigma.size - 1
        if self._uniform:
            cells = self._strength_cells
            ilo = np.clip(np.floor(s_lo * cells).astype(np.intp), 0, last)
            ihi = np.clip(np.ceil(s_hi * cells).astype(np.intp), 0, last)
            plo = np.clip(
                np.floor(s_lo * self._pair_cells).astype(np.intp), 0, self._pair_cells
            )
            phi = np.clip(
                np.ceil(s_hi * self._pair_cells).astype(np.intp), 0, self._pair_cells
            )
        else:
            ilo = np.clip(np.searchsorted(self._sigma, s_lo, side="right") - 1, 0, last)
            ihi = np.clip(np.searchsorted(self._sigma, s_hi, side="left"), 0, last)
            plo = np.clip(
                np.searchsorted(self._pair_sigma, s_lo, side="right") - 1,
                0,
                self._pair_cells,
            )
            phi = np.clip(
                np.searchsorted(self._pair_sigma, s_hi, side="left"),
                0,
                self._pair_cells,
            )

        cols = self._term_cols
        lo_sums = self._term_lo[ilo, cols].sum(axis=1)
        hi_sums = self._term_hi[ihi, cols].sum(axis=1)
        if self._pair_t.size:
            width = self._pair_cells + 1
            # Overlap corrections subtract, so the *upper* strength corner
            # tightens the lower bound and vice versa.
            upper = phi[:, self._pair_t] * width + phi[:, self._pair_u]
            lower = plo[:, self._pair_t] * width + plo[:, self._pair_u]
            pcols = self._pair_cols
            lo_sums -= self._pair_hi[upper, pcols].sum(axis=1)
            hi_sums -= self._pair_lo[lower, pcols].sum(axis=1)

        return self._finish(
            lo_sums[:, 0],
            hi_sums[:, 0],
            lo_sums[:, 1],
            hi_sums[:, 1],
            lo_sums[:, 2],
            hi_sums[:, 2],
        )

    def score_interval_direct(
        self, s_lo: np.ndarray, s_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`score_interval`, but free of knot quantisation.

        Evaluates the per-term curves and pair overlaps at the exact
        strength endpoints instead of bracketing knots, so the interval
        width is driven by the strength interval itself plus the widening —
        no ``1/strength_cells`` resolution floor.  Costs a ``(rows, grid)``
        materialisation per term, so it suits one-time table construction
        (e.g. screen cell tables), not per-request screening.
        """
        rows = s_lo.shape[0]
        parts = [np.empty(rows) for _ in range(6)]
        chunk = 256
        for start in range(0, rows, chunk):
            stop = min(start + chunk, rows)
            self._direct_chunk(s_lo[start:stop], s_hi[start:stop], parts, start)
        return self._finish(*parts)

    def _direct_chunk(
        self,
        s_lo: np.ndarray,
        s_hi: np.ndarray,
        parts: list[np.ndarray],
        offset: int,
    ) -> None:
        rows = s_lo.shape[0]
        stop = offset + rows
        # Clipped/scaled curves per term at both endpoints, reused by the
        # pair overlaps below.
        clipped_lo = [
            self._scale(full[None, :], s_lo[:, t, None])
            for t, full in enumerate(self._fulls)
        ]
        clipped_hi = [
            self._scale(full[None, :], s_hi[:, t, None])
            for t, full in enumerate(self._fulls)
        ]
        lo_total = np.zeros((rows, 3))
        hi_total = np.zeros((rows, 3))
        weights = self._weights_matrix
        for t in range(len(self._fulls)):
            sums_lo = clipped_lo[t] @ weights
            sums_hi = clipped_hi[t] @ weights
            lo_total += sums_lo * (1.0 - _REL) - _ABS
            hi_total += sums_hi * (1.0 + _REL) + _ABS
        for t, u in self._pairs:
            # Overlap corrections subtract, so the *upper* strength corner
            # tightens the lower bound and vice versa.
            over_hi = np.minimum(clipped_hi[t], clipped_hi[u]) @ weights
            over_lo = np.minimum(clipped_lo[t], clipped_lo[u]) @ weights
            lo_total -= over_hi * (1.0 + _REL) + _ABS
            hi_total -= over_lo * (1.0 - _REL) - _ABS
        a_lo, a_hi, mp_lo, mp_hi, mn_lo, mn_hi = parts
        a_lo[offset:stop] = lo_total[:, 0]
        a_hi[offset:stop] = hi_total[:, 0]
        mp_lo[offset:stop] = lo_total[:, 1]
        mp_hi[offset:stop] = hi_total[:, 1]
        mn_lo[offset:stop] = lo_total[:, 2]
        mn_hi[offset:stop] = hi_total[:, 2]

    @staticmethod
    def _finish(
        a_lo: np.ndarray,
        a_hi: np.ndarray,
        mp_lo: np.ndarray,
        mp_hi: np.ndarray,
        mn_lo: np.ndarray,
        mn_hi: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m_lo = mp_lo - mn_hi
        m_hi = mp_hi - mn_lo
        slack_m = _REL * (np.abs(mp_hi) + np.abs(mn_hi)) + _ABS
        slack_a = _REL * np.abs(a_hi) + _ABS
        m_lo -= slack_m
        m_hi += slack_m
        a_lo = a_lo - slack_a
        a_hi = a_hi + slack_a

        valid = a_lo > 0.0
        safe_lo = np.where(valid, a_lo, 1.0)
        safe_hi = np.where(valid, a_hi, 1.0)
        lo = np.minimum(m_lo / safe_lo, m_lo / safe_hi)
        hi = np.maximum(m_hi / safe_lo, m_hi / safe_hi)
        return lo, hi, valid
