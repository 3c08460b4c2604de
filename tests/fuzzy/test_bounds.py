"""Certified bound tables and the FACS decision screen built on them."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cac.facs.system import FuzzyAdmissionControlSystem
from repro.fuzzy.bounds import _ABS, _REL, CentroidBoundTables


def _dense_reference(tables: CentroidBoundTables) -> tuple[np.ndarray, np.ndarray]:
    """Term and pair sums with every curve materialised at once.

    The straightforward formulation the blocked table build must reproduce:
    one ``(knots, grid)`` clipped surface per term and one
    ``(pair knots squared, grid)`` overlap per adjacent pair.
    """
    weights = [tables._weights_matrix[:, k].copy() for k in range(3)]
    term = np.stack(
        [
            np.stack(
                [tables._scale(full[None, :], tables._sigma[:, None]) @ w for w in weights],
                axis=1,
            )
            for full in tables._fulls
        ],
        axis=1,
    )
    pairs = []
    grid = tables._fulls.shape[1]
    for t, u in tables._pairs:
        left = tables._scale(tables._fulls[t][None, :], tables._pair_sigma[:, None])
        right = tables._scale(tables._fulls[u][None, :], tables._pair_sigma[:, None])
        overlap = np.minimum(left[:, None, :], right[None, :, :]).reshape(-1, grid)
        pairs.append(np.stack([overlap @ w for w in weights], axis=1))
    return term, np.stack(pairs, axis=1)


@pytest.fixture(scope="module")
def facs() -> FuzzyAdmissionControlSystem:
    return FuzzyAdmissionControlSystem()


@pytest.mark.parametrize(("stage", "variable"), [("flc1", "Cv"), ("flc2", "AR")])
def test_blocked_tables_match_dense_reference(facs, stage, variable):
    engine = getattr(facs, stage).controller.engine
    # 1025 knots: two full blocks and a one-knot remainder.  64 pair cells
    # keep the reference's (pair knots squared, grid) overlap small.
    tables = CentroidBoundTables.for_engine(engine, variable, strength_cells=1024, pair_cells=64)
    assert tables is not None
    term, pair = _dense_reference(tables)
    # Only the summation order of the non-negative trapezoid sums may differ,
    # which moves a sum of n terms by at most n * eps of its value.
    rtol = tables._fulls.shape[1] * np.finfo(float).eps
    for actual, reference, widen in (
        (tables._term_lo, term, lambda s: s * (1.0 - _REL) - _ABS),
        (tables._term_hi, term, lambda s: s * (1.0 + _REL) + _ABS),
        (tables._pair_lo, pair, lambda s: s * (1.0 - _REL) - _ABS),
        (tables._pair_hi, pair, lambda s: s * (1.0 + _REL) + _ABS),
    ):
        expected = widen(reference)
        assert actual.shape == expected.shape
        np.testing.assert_allclose(actual, expected, rtol=rtol, atol=_ABS * 1e-3)


@pytest.mark.parametrize("occupancy_bu", [0, 20, 34])
def test_screen_verdicts_equal_exact_scores(facs, occupancy_bu):
    rng = np.random.default_rng(occupancy_bu + 20070628)
    count = 400
    columns = (
        rng.uniform(0.0, 130.0, count),
        rng.uniform(-180.0, 180.0, count),
        rng.uniform(0.0, 12.0, count),
        rng.choice([1.0, 5.0, 10.0], count),
        occupancy_bu,
    )
    exact = facs.score_columns(*columns) > facs.config.acceptance_threshold
    verdicts = facs.decide_columns(*columns)
    assert verdicts.dtype == bool
    assert np.array_equal(verdicts, exact)
