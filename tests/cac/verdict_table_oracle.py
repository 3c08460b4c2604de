"""The per-pair verdict table: the oracle of the screen's batched tables.

One (R, Cs) table at a time, over every shared Cv cell, through the same
certified bounds :class:`~repro.cac.facs.screen.VerdictTables` reads.  The
screen builds every table of a bandwidth in one coarse-to-fine batch
instead, and must produce these tables cell for cell.
"""

from __future__ import annotations

import numpy as np

from repro.cac.facs.screen import VerdictTables


def pair_scores(
    tables: VerdictTables, bandwidth: float, occupancy: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified FLC2 score bounds at one (R, Cs) over every shared Cv cell.

    Returns ``(lo, hi, certain)``; the bounds mean nothing where
    ``certain`` is False (no rule certainly fired, or no positive area
    bound).
    """
    eng = tables._eng2
    # R and Cs degrees exactly as the engine's batched fuzzification gives
    # them; every Cv slot (and the padding slot) holds the min identity 1.
    degrees = np.ones(eng._n_degree_slots)
    scalars = {"R": bandwidth, "Cs": occupancy}
    for name, low, high, offset, memberships in eng._batch_fuzzify_plan:
        if name == "Cv":
            continue
        value = np.clip(np.array([scalars[name]]), low, high)
        for j, membership in enumerate(memberships):
            degrees[offset + j] = float(np.clip(membership.evaluate(value), 0.0, 1.0)[0])
    constant = degrees[tables._rule_index2].min(axis=1)
    starts = tables._term_starts2
    t_lo = np.maximum.reduceat(np.minimum(tables._cv_strength_lo, constant), starts, axis=1)
    t_hi = np.maximum.reduceat(np.minimum(tables._cv_strength_hi, constant), starts, axis=1)

    fired = (t_lo > 0.0).any(axis=1)
    score_lo, score_hi, valid = tables._tables2.score_interval(t_lo, t_hi)
    return np.clip(score_lo, -1.0, 1.0), np.clip(score_hi, -1.0, 1.0), fired & valid


def pair_table(tables: VerdictTables, bandwidth: float, occupancy: float) -> np.ndarray:
    """Verdicts of one (R, Cs) pair over the shared cells: 1 accept, 0 reject,
    -1 ambiguous."""
    score_lo, score_hi, certain = pair_scores(tables, float(bandwidth), float(occupancy))
    decision = np.full(score_lo.size, -1, dtype=np.int8)
    decision[certain & (score_lo > tables._threshold)] = 1
    decision[certain & (score_hi <= tables._threshold)] = 0
    return decision
