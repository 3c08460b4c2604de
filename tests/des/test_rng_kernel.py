"""The many-seed kernel of ``repro.des.rng`` equals numpy's seeded generators.

``mix_seeds`` is ``_mix_seed`` over a list of labels and
``pcg64_random_raw`` is ``np.random.PCG64(seed).random_raw(count)`` over an
array of seeds, both bit for bit.  The SCC column blocks of the single-cell
admission loop draw a whole block's reservations through the two.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cac.scc.system import _reservation_label
from repro.des.rng import _mix_seed, mix_seeds, pcg64_random_raw

_EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1)

#: Labels as the SCC reservation draw formats them (26 to 36 characters).
_SCC_LABELS = st.builds(
    _reservation_label,
    st.floats(0.0, 10_000.0),
    st.floats(0.0, 120.0),
    st.floats(-180.0, 180.0),
    st.floats(0.0, 10.0),
)
_LABELS = (
    st.sampled_from(("", "a", "arrivals", "0.000000:0.000:0.000:0.000"))
    | st.text(st.characters(min_codepoint=0, max_codepoint=127), max_size=40)
    | _SCC_LABELS
)


@given(
    seeds=st.lists(st.sampled_from(_EDGE_SEEDS) | st.integers(0, 2**63 - 1), max_size=16),
    count=st.integers(0, 4),
)
@example(seeds=list(_EDGE_SEEDS), count=4)
@example(seeds=[], count=2)
@settings(max_examples=200, deadline=None)
def test_kernel_equals_numpy_pcg64(seeds, count):
    raw = pcg64_random_raw(np.array(seeds, dtype=np.uint64), count)
    assert raw.dtype == np.uint64
    assert raw.shape == (len(seeds), count)
    for seed, row in zip(seeds, raw.tolist()):
        assert row == np.random.PCG64(seed).random_raw(count).tolist()


@given(
    seed=st.sampled_from((19970101, 0, -1, 2**64, 2**64 + 7)) | st.integers(-(2**70), 2**70),
    labels=st.lists(_LABELS, max_size=12),
)
# Empty, one character, and an SCC label of 33 characters.
@example(seed=19970101, labels=["", "x", "1234.567890:12.345:-170.123:9.876"])
@settings(max_examples=200, deadline=None)
def test_label_hash_equals_mix_seed(seed, labels):
    mixed = mix_seeds(seed, labels)
    assert mixed.dtype == np.uint64
    assert mixed.tolist() == [_mix_seed(seed, label) for label in labels]


def test_kernel_rejects_a_negative_count():
    with pytest.raises(ValueError):
        pcg64_random_raw(np.zeros(1, dtype=np.uint64), -1)
