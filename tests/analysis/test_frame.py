"""MetricsFrame property suite: bit-identity to the legacy aggregation
loops on random result sets, lossless codecs (JSON, and the pickle the
process pool ships chunk frames with) and concat/vocab semantics."""

from __future__ import annotations

import json
import pickle
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.frame import (
    BATCH_KIND,
    CLASS_COUNTER_FIELDS,
    NETWORK_KIND,
    FrameReducer,
    MetricsFrame,
    network_output_row,
    run_result_row,
)
from repro.analysis.io import metrics_frame_from_dict, metrics_frame_to_dict
from repro.cellular.metrics import CallMetrics
from repro.simulation.engine import NetworkRunOutput
from repro.simulation.executor import ProcessPoolSweepExecutor
from repro.simulation.results import (
    RunResult,
    aggregate_network_runs,
    aggregate_runs,
)

# ----------------------------------------------------------------------
# Random result-set strategies
# ----------------------------------------------------------------------
_counts = st.integers(min_value=0, max_value=10_000)


@st.composite
def call_metrics(draw) -> CallMetrics:
    requested = draw(_counts)
    accepted = draw(st.integers(min_value=0, max_value=requested))
    dropped = draw(st.integers(min_value=0, max_value=accepted))
    handoffs = draw(st.integers(min_value=0, max_value=requested))
    return CallMetrics(
        requested=requested,
        accepted=accepted,
        blocked=requested - accepted,
        completed=accepted - dropped,
        dropped=dropped,
        handoff_requests=handoffs,
        handoff_accepted=draw(st.integers(min_value=0, max_value=handoffs)),
        accepted_bu=accepted * 2,
        requested_bu=requested * 2,
    )


_params = st.dictionaries(
    st.sampled_from(["request_count", "speed_kmh", "angle_deg", "distance_km"]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    max_size=3,
)


@st.composite
def run_results(draw, controller: str = "FACS") -> RunResult:
    return RunResult(
        controller=controller,
        metrics=draw(call_metrics()),
        parameters=draw(_params),
        seed=draw(st.integers(min_value=0, max_value=2**40)),
    )


@st.composite
def network_outputs(draw, controller: str = "FACS") -> NetworkRunOutput:
    attempts = draw(st.integers(min_value=0, max_value=500))
    return NetworkRunOutput(
        result=draw(run_results(controller)),
        handoff_attempts=attempts,
        handoff_failures=draw(st.integers(min_value=0, max_value=attempts)),
        completed_calls=draw(_counts),
        dropped_calls=draw(_counts),
        time_average_occupancy_bu=draw(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
        ),
    )


_class_names = st.sampled_from([(), ("voice",), ("voice", "data", "video")])


@st.composite
def frames(draw) -> MetricsFrame:
    """Batch or network frames, possibly empty, whose rows mix parameter
    sets (NaN slots) and per-class counter sets, optionally with ordinals."""
    network = draw(st.booleans())
    results = draw(st.lists(network_outputs() if network else run_results(), max_size=6))
    rows = []
    for result in results:
        row = network_output_row(result) if network else run_result_row(result)
        names = draw(_class_names)
        count = len(names) * len(CLASS_COUNTER_FIELDS)
        values = draw(
            st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=count, max_size=count)
        )
        rows.append(row._replace(class_names=names, class_values=tuple(values)))
    frame = MetricsFrame.from_rows(NETWORK_KIND if network else BATCH_KIND, rows)
    if draw(st.booleans()):
        ordinals = st.lists(st.integers(0, 9), min_size=len(rows), max_size=len(rows))
        frame = frame.with_ordinals(draw(ordinals), draw(ordinals))
    return frame


class TestGroupReduceBitIdentity:
    """group_reduce must equal the legacy loops bit for bit — the
    acceptance gate of the columnar refactor."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(run_results(), min_size=1, max_size=12))
    def test_matches_aggregate_runs(self, runs):
        # One group: every run shares the controller, like one sweep point.
        frame = MetricsFrame.from_run_results(runs)
        (group,) = frame.group_reduce(("controller",))
        legacy = aggregate_runs(runs)
        view = group.to_aggregated_result()
        assert view.controller == legacy.controller
        assert view.replications == legacy.replications
        assert view.mean_acceptance_percentage == legacy.mean_acceptance_percentage
        assert view.std_acceptance_percentage == legacy.std_acceptance_percentage
        assert view.mean_blocking_probability == legacy.mean_blocking_probability
        assert view.mean_dropping_probability == legacy.mean_dropping_probability
        assert view.confidence_interval() == legacy.confidence_interval()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(network_outputs(), min_size=1, max_size=12))
    def test_matches_aggregate_network_runs(self, outputs):
        frame = MetricsFrame.from_network_outputs(outputs)
        (group,) = frame.group_reduce(("controller",))
        legacy = aggregate_network_runs(outputs)
        view = group.to_network_aggregated_result()
        assert view.mean_acceptance_percentage == legacy.mean_acceptance_percentage
        assert view.std_acceptance_percentage == legacy.std_acceptance_percentage
        assert view.mean_blocking_probability == legacy.mean_blocking_probability
        assert view.mean_dropping_probability == legacy.mean_dropping_probability
        assert view.mean_handoff_failure_ratio == legacy.mean_handoff_failure_ratio
        assert view.mean_handoff_attempts == legacy.mean_handoff_attempts
        assert view.mean_occupancy_bu == legacy.mean_occupancy_bu

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(run_results("FACS"), min_size=1, max_size=6),
        st.lists(run_results("SCC"), min_size=1, max_size=6),
    )
    def test_multi_group_reduction_matches_per_group_loops(self, facs, scc):
        frame = MetricsFrame.from_run_results(list(facs) + list(scc))
        groups = frame.group_reduce(("controller",))
        assert [group.controller for group in groups] == ["FACS", "SCC"]
        for group, runs in zip(groups, (facs, scc)):
            legacy = aggregate_runs(runs)
            view = group.to_aggregated_result()
            assert view.mean_acceptance_percentage == legacy.mean_acceptance_percentage
            assert view.std_acceptance_percentage == legacy.std_acceptance_percentage

    def test_mixed_controllers_in_one_group_rejected(self):
        runs = [
            RunResult("FACS", CallMetrics(1, 1, 0, 1, 0, 0, 0, 2, 2)),
            RunResult("SCC", CallMetrics(1, 0, 1, 0, 0, 0, 0, 0, 2)),
        ]
        frame = MetricsFrame.from_run_results(runs, labels=["same", "same"])
        with pytest.raises(ValueError, match="mix controllers"):
            frame.group_reduce(("label",))

    def test_groups_come_in_first_appearance_order(self):
        runs = [
            RunResult("B", CallMetrics(2, 1, 1, 1, 0, 0, 0, 2, 4)),
            RunResult("A", CallMetrics(2, 2, 0, 2, 0, 0, 0, 4, 4)),
            RunResult("B", CallMetrics(2, 0, 2, 0, 0, 0, 0, 0, 4)),
        ]
        frame = MetricsFrame.from_run_results(runs)
        groups = frame.group_reduce(("controller",))
        assert [group.controller for group in groups] == ["B", "A"]
        assert groups[0].row_indices == (0, 2)

    def test_network_view_requires_network_frame(self):
        frame = MetricsFrame.from_run_results(
            [RunResult("FACS", CallMetrics(1, 1, 0, 1, 0, 0, 0, 2, 2))]
        )
        (group,) = frame.group_reduce(("controller",))
        with pytest.raises(ValueError, match="network"):
            group.to_network_aggregated_result()


class TestRowViews:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(run_results(), min_size=1, max_size=8))
    def test_run_results_reconstruct_exactly(self, runs):
        frame = MetricsFrame.from_run_results(runs)
        assert frame.run_results() == [
            RunResult(r.controller, r.metrics, dict(r.parameters), r.seed)
            for r in runs
        ]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(network_outputs(), min_size=1, max_size=8))
    def test_network_outputs_reconstruct_exactly(self, outputs):
        frame = MetricsFrame.from_network_outputs(outputs)
        rebuilt = frame.network_outputs()
        for original, view in zip(outputs, rebuilt):
            assert view.result.metrics == original.result.metrics
            assert view.handoff_attempts == original.handoff_attempts
            assert view.handoff_failures == original.handoff_failures
            assert view.time_average_occupancy_bu == original.time_average_occupancy_bu


class TestCodecs:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(network_outputs(), min_size=1, max_size=8))
    def test_dict_codec_round_trips_losslessly(self, outputs):
        frame = MetricsFrame.from_network_outputs(outputs)
        payload = metrics_frame_to_dict(frame)
        assert payload["schema_version"] >= 2
        assert payload["type"] == "metrics-frame"
        restored = metrics_frame_from_dict(json.loads(json.dumps(payload)))
        assert restored == frame

    def test_nan_parameter_slots_round_trip(self):
        runs = [
            RunResult("FACS", CallMetrics(1, 1, 0, 1, 0, 0, 0, 2, 2), {"a": 1.5}),
            RunResult("FACS", CallMetrics(1, 0, 1, 0, 0, 0, 0, 0, 2), {"b": 2.5}),
        ]
        frame = MetricsFrame.from_run_results(runs)
        payload = metrics_frame_to_dict(frame)
        assert payload["columns"]["param.a"][1] is None  # NaN encodes as null
        restored = metrics_frame_from_dict(payload)
        assert restored == frame
        assert restored.row_parameters(0) == {"a": 1.5}
        assert restored.row_parameters(1) == {"b": 2.5}

    def test_wrong_type_tag_rejected(self):
        with pytest.raises(ValueError, match="metrics-frame"):
            metrics_frame_from_dict({"schema_version": 2, "type": "campaign"})

    @settings(max_examples=40, deadline=None)
    @given(frames())
    @example(MetricsFrame.from_rows(BATCH_KIND, []))
    @example(MetricsFrame.from_rows(NETWORK_KIND, []))
    def test_bytes_codec_round_trips(self, frame):
        # What a process-pool worker sends back: the chunk frame, pickled
        # by the pool's own pickler.
        wire = bytes(ForkingPickler.dumps(frame))
        assert pickle.loads(wire) == frame
        for needle in (b"NetworkRunOutput", b"RunResult", b"CallMetrics"):
            assert needle not in wire

    def test_shared_memory_transport_round_trips(self):
        # Chunk frames reach the parent through the process pool's own
        # pickle, with no shared-memory segment on the way: a network frame
        # folded in two workers arrives equal to the in-process frame.
        outputs = [
            NetworkRunOutput(
                result=RunResult("FACS", CallMetrics(5, 4, 1, 4, 0, 1, 1, 8, 10)),
                handoff_attempts=3,
                handoff_failures=1,
                completed_calls=4,
                dropped_calls=0,
                time_average_occupancy_bu=12.5,
            ),
            NetworkRunOutput(
                result=RunResult(
                    "FACS", CallMetrics(7, 5, 2, 4, 1, 2, 1, 10, 14), {"speed_kmh": 60.0}
                ),
                handoff_attempts=2,
                handoff_failures=0,
                completed_calls=4,
                dropped_calls=1,
                time_average_occupancy_bu=20.25,
            ),
        ]
        executor = ProcessPoolSweepExecutor(max_workers=2, chunksize=1)
        frame = executor.map_reduce(network_output_row, outputs, FrameReducer(NETWORK_KIND))
        assert frame == MetricsFrame.from_network_outputs(outputs)

    def test_bytes_transport_fallback_round_trips(self):
        # The frame pickles without the pool's protocol too: every protocol
        # from 2 up restores it, and no protocol writes a dataclass tree.
        frame = MetricsFrame.from_run_results(
            [RunResult("FACS", CallMetrics(1, 1, 0, 1, 0, 0, 0, 2, 2))]
        )
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            wire = pickle.dumps(frame, protocol=protocol)
            assert pickle.loads(wire) == frame
            assert b"RunResult" not in wire and b"CallMetrics" not in wire


class TestConcatAndReducer:
    def test_concat_equals_single_fold(self):
        outputs = [
            NetworkRunOutput(
                result=RunResult(
                    "FACS" if i % 2 else "SCC",
                    CallMetrics(10 + i, 5 + i, 5, 5 + i, 0, 2, 1, 10, 20),
                    {"rate": float(i)},
                    seed=i,
                ),
                handoff_attempts=i,
                handoff_failures=0,
                completed_calls=5 + i,
                dropped_calls=0,
                time_average_occupancy_bu=float(i),
            )
            for i in range(10)
        ]
        rows = [network_output_row(output) for output in outputs]
        whole = MetricsFrame.from_rows("network", rows)
        reducer = FrameReducer("network")
        for split in (1, 3, 5):
            parts = [
                reducer.fold(rows[i : i + split]) for i in range(0, len(rows), split)
            ]
            assert reducer.merge(parts) == whole

    def test_concat_merges_disjoint_vocabularies_in_order(self):
        first = MetricsFrame.from_run_results(
            [RunResult("SCC", CallMetrics(1, 1, 0, 1, 0, 0, 0, 2, 2))]
        )
        second = MetricsFrame.from_run_results(
            [RunResult("FACS", CallMetrics(1, 0, 1, 0, 0, 0, 0, 0, 2))]
        )
        merged = MetricsFrame.concat([first, second])
        assert merged.controller_vocab == ("SCC", "FACS")
        assert merged.controllers() == ["SCC", "FACS"]

    def test_concat_unions_parameter_columns_with_nan(self):
        first = MetricsFrame.from_run_results(
            [RunResult("FACS", CallMetrics(1, 1, 0, 1, 0, 0, 0, 2, 2), {"a": 1.0})]
        )
        second = MetricsFrame.from_run_results(
            [RunResult("FACS", CallMetrics(1, 1, 0, 1, 0, 0, 0, 2, 2), {"b": 2.0})]
        )
        merged = MetricsFrame.concat([first, second])
        assert merged.param_names == ("a", "b")
        assert np.isnan(merged.column("a")[1])
        assert merged.row_parameters(1) == {"b": 2.0}

    def test_concat_rejects_mixed_kinds(self):
        batch = MetricsFrame.from_run_results(
            [RunResult("FACS", CallMetrics(1, 1, 0, 1, 0, 0, 0, 2, 2))]
        )
        network = MetricsFrame.from_network_outputs(
            [
                NetworkRunOutput(
                    result=RunResult("FACS", CallMetrics(1, 1, 0, 1, 0, 0, 0, 2, 2)),
                    handoff_attempts=0,
                    handoff_failures=0,
                    completed_calls=1,
                    dropped_calls=0,
                    time_average_occupancy_bu=0.0,
                )
            ]
        )
        with pytest.raises(ValueError, match="mix kinds"):
            MetricsFrame.concat([batch, network])

    def test_empty_fold_produces_an_empty_frame(self):
        frame = FrameReducer("batch").fold([])
        assert len(frame) == 0
        assert frame.group_reduce(("controller",)) == []

    def test_row_builders_reject_kind_mismatch(self):
        run = RunResult("FACS", CallMetrics(1, 1, 0, 1, 0, 0, 0, 2, 2))
        with pytest.raises(ValueError, match="network-kind"):
            MetricsFrame.from_rows("network", [run_result_row(run)])

    def test_unknown_group_key_rejected(self):
        frame = MetricsFrame.from_run_results(
            [RunResult("FACS", CallMetrics(1, 1, 0, 1, 0, 0, 0, 2, 2))]
        )
        with pytest.raises(KeyError, match="unknown group key"):
            frame.group_reduce(("warp",))

    def test_ordinals_enable_positional_grouping(self):
        runs = [
            RunResult("FACS", CallMetrics(10, i, 10 - i, i, 0, 0, 0, 2 * i, 20))
            for i in (2, 4, 6, 8)
        ]
        frame = MetricsFrame.from_run_results(runs).with_ordinals(
            curve=[0, 0, 1, 1], point=[0, 0, 0, 0]
        )
        groups = frame.group_reduce(("curve", "point"))
        assert [group.replications for group in groups] == [2, 2]
        assert groups[0].key == (0, 0)
