"""Certified interval bounds on compiled-engine centroid outputs.

The batched Mamdani hot path spends nearly all of its time materialising
``(rows, grid)`` aggregated surfaces and integrating them — work whose
*crisp result* is usually needed only coarsely (e.g. "is the defuzzified
score above the admission threshold?").  This module trades that dense
per-row integration for a binary search and a gather per curve that bound
the exact result from both sides, so callers can act on every row whose
answer the bounds already decide and fall back to the exact engine for the
rest.

The bounds are *certified*: they hold for the bit-exact value the engine's
batch path produces, not merely for the underlying real number.  Three
facts make that possible:

1. **Exact decomposition.**  With MIN conjunction, CLIPped consequents and
   MAX aggregation (the only operators the engines run) the aggregated
   surface is ``max_t min(T_t, s_t)`` over the distinct consequent terms
   (``s_t`` = the term's maximal firing strength).  When no grid point is
   covered by three or more term supports — true for every standard fuzzy
   partition, and verified at build time — the pointwise identity
   ``max(f_1, …, f_k) = Σ f_t − Σ min(f_t, f_u)`` over support-adjacent
   pairs ``(t, u)`` holds exactly, and
   ``min(min(T, s_t), min(U, s_u)) = min(min(T, U), min(s_t, s_u))``.  So
   areas and moments split into one-strength *curves*: each term surface
   and each adjacent pair's ``min(T, U)``, clipped at one strength.
2. **Prefix sums.**  A curve sampled on the grid as ``V_i`` with
   quadrature weights ``w_i`` integrates to
   ``Σ w_i·min(V_i, s) = Σ_{V_i ≤ s} w_i·V_i + s·Σ_{V_i > s} w_i``.
   With each curve's samples sorted once, a cumulative sum of ``w·V`` and
   a suffix sum of ``w`` answer any strength exactly — no quantisation.
   The moment weights are split by the sign of the grid, so every sum has
   non-negative terms and its float error is at most about ``n·eps``
   relative.  One ``searchsorted`` serves all curves: curve ``c``'s keys
   are shifted by ``2c`` (each curve lies in [0, 1]), which rounds a key by
   at most half an ulp of the largest key; rounding is monotone, so it can
   only turn a near-tie into a tie, moving a sum by at most that ulp times
   the curve's total weight, which the absolute widening adds per curve.
3. **Generous widening and monotonicity.**  Every curve sum and every
   folded total is widened by ``1e-9`` relative + ``1e-12`` absolute —
   about four orders of magnitude more than the rounding of the ~500-term
   sums on either side — so differences between this arithmetic and the
   engine's pinned trapezoid summation are swallowed by the interval,
   never hidden by it.  Each curve is nondecreasing in its strength and
   the final ``moment / area`` division is monotone in both operands, so
   evaluating at interval corners brackets every value inside.

A caller never has to trust the intervals blindly: rows whose interval
straddles the caller's decision boundary are simply re-evaluated exactly.
"""

from __future__ import annotations

import numpy as np

from .compiled import CompiledMamdaniEngine

__all__ = ["CentroidBoundTables"]

#: Relative widening applied to every curve sum and folded total.
_REL = 1e-9
#: Absolute widening of the same (guards values at or near zero).
_ABS = 1e-12


class CentroidBoundTables:
    """Prefix-sum tables bounding one output variable's centroid, per row.

    Build via :meth:`for_engine`, which returns ``None`` when the engine
    falls outside the certified regime (anything but unit rule weights and
    the centroid defuzzifier, or a term geometry with triple overlaps).
    """

    def __init__(self, engine: CompiledMamdaniEngine, var_name: str):
        grouped = engine._grouped_consequent_plans[var_name]
        term_surfaces, _, supports, grid_length = grouped
        grid = engine._consequent_plans[var_name][2].grid

        fulls = np.zeros((len(supports), grid_length))
        for t, (segment, (start, stop)) in enumerate(zip(term_surfaces, supports)):
            fulls[t, start:stop] = segment
        positive = fulls > 0.0
        if positive.sum(axis=0).max(initial=0) > 2:
            raise ValueError("term supports overlap more than pairwise")
        order = sorted(range(len(fulls)), key=lambda t: supports[t][0])
        pairs = [
            (t, u)
            for i, t in enumerate(order)
            for u in order[i + 1 :]
            if np.any(positive[t] & positive[u])
        ]

        # Trapezoid quadrature weights, and the same premultiplied by the
        # sign-split grid for the moment integrals: ``(grid, 3)``.
        spacing = np.diff(grid)
        quad = np.zeros(grid_length)
        quad[:-1] += spacing / 2.0
        quad[1:] += spacing / 2.0
        weights = np.stack(
            (quad, quad * np.maximum(grid, 0.0), quad * np.maximum(-grid, 0.0)), axis=1
        )

        curves = [*fulls, *(np.minimum(fulls[t], fulls[u]) for t, u in pairs)]
        keys, below, above = [], [], []
        zero = np.zeros((1, 3))
        for c, curve in enumerate(curves):
            # Zero samples contribute ``min(0, s) = 0`` at every strength.
            kept = np.flatnonzero(curve > 0.0)
            kept = kept[np.argsort(curve[kept], kind="stable")]
            values = curve[kept]
            keys.append(values + 2.0 * c)
            # Row k of curve c: Σ_{j<k} w_j·V_j and Σ_{j≥k} w_j over its
            # sorted samples, so curve c owns n_c + 1 rows.
            below.append(np.concatenate((zero, np.cumsum(weights[kept] * values[:, None], 0))))
            above.append(np.concatenate((np.cumsum(weights[kept][::-1], 0)[::-1], zero)))
        self._keys = np.concatenate(keys)
        self._below = np.concatenate(below)
        self._above = np.concatenate(above)
        self._shift = 2.0 * np.arange(len(curves))
        # Curve c's rows start c entries after its keys do.
        self._row_offset = np.arange(len(curves))
        self._pair_t = np.array([t for t, _ in pairs], dtype=np.intp)
        self._pair_u = np.array([u for _, u in pairs], dtype=np.intp)

        # The widened fold of the (non-negative) curve sums into bounds:
        # terms add and overlaps subtract, each moved by REL of itself.
        sign = np.concatenate((np.ones(len(fulls)), -np.ones(len(pairs))))
        self._fold_lo = sign - _REL
        self._fold_hi = sign + _REL
        # Absolute widening per curve: _ABS plus the most a tie made by the
        # shifted search can move the curve's sums.
        tie = np.spacing(2.0 * len(curves)) * weights.sum(axis=0)
        self._slack = len(curves) * (_ABS + tie)

    # ------------------------------------------------------------------
    @classmethod
    def for_engine(
        cls, engine: CompiledMamdaniEngine, var_name: str
    ) -> "CentroidBoundTables | None":
        """Build tables for ``engine``'s output ``var_name``, or ``None``.

        ``None`` (rather than an error) keeps callers' fast paths optional:
        anything outside the certified regime simply runs exact.
        """
        if not (
            engine._trivial_weights
            and engine._fast_centroid
            and var_name in engine._grouped_consequent_plans
        ):
            return None
        try:
            return cls(engine, var_name)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    def _curve_sums(self, terms: np.ndarray, overlaps_at: np.ndarray) -> np.ndarray:
        """Unwidened area and moment integrals of every curve: ``(rows, curves, 3)``.

        Term curves are clipped at ``terms``; each pair's overlap curve at
        the smaller of the pair's two strengths in ``overlaps_at``.
        """
        overlaps = np.minimum(overlaps_at[:, self._pair_t], overlaps_at[:, self._pair_u])
        strengths = np.concatenate((terms, overlaps), axis=1)
        rows = np.searchsorted(self._keys, strengths + self._shift, side="right")
        rows += self._row_offset
        return self._below[rows] + strengths[:, :, None] * self._above[rows]

    def score_interval(
        self, s_lo: np.ndarray, s_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bound the centroid for rows of term-strength intervals.

        ``s_lo``/``s_hi`` are ``(rows, n_terms)`` arrays with
        ``0 <= s_lo <= s_hi <= 1`` bounding each term's maximal firing
        strength; pass the same array twice for exact strengths, which are
        then evaluated once.  Returns ``(lo, hi, valid)``; where ``valid`` is
        False the area's lower bound was not positive and the row must be
        evaluated exactly.
        """
        # Overlap corrections subtract, so each bound takes the overlaps at
        # the opposite strength corner.
        lower = self._curve_sums(s_lo, s_hi)
        upper = lower if s_hi is s_lo else self._curve_sums(s_hi, s_lo)
        lo = self._fold_lo @ lower - self._slack
        hi = self._fold_hi @ upper + self._slack
        return self._finish(lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1], lo[:, 2], hi[:, 2])

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
