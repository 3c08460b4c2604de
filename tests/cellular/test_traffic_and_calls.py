"""Tests for traffic classes, the paper's mix, call lifecycle and metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cellular.calls import Call, CallState, CallType
from repro.cellular.metrics import MetricsCollector
from repro.cellular.mobility import UserState
from repro.cellular.traffic import (
    PAPER_BANDWIDTH_UNITS,
    PAPER_TRAFFIC_MIX,
    ServiceClass,
    TrafficClassSpec,
    TrafficMix,
)
from repro.des.rng import RandomStream
from repro.workloads import WORKLOADS


class TestPaperTrafficParameters:
    def test_bandwidth_units_match_section4(self):
        """Section 4: request sizes 1, 5 and 10 BU for text, voice and video."""
        assert PAPER_TRAFFIC_MIX.bandwidth_for(ServiceClass.TEXT) == 1
        assert PAPER_TRAFFIC_MIX.bandwidth_for(ServiceClass.VOICE) == 5
        assert PAPER_TRAFFIC_MIX.bandwidth_for(ServiceClass.VIDEO) == 10

    def test_class_shares_match_section4(self):
        """Section 4: 60% text, 30% voice, 10% video."""
        assert PAPER_TRAFFIC_MIX.spec(ServiceClass.TEXT).share == pytest.approx(0.60)
        assert PAPER_TRAFFIC_MIX.spec(ServiceClass.VOICE).share == pytest.approx(0.30)
        assert PAPER_TRAFFIC_MIX.spec(ServiceClass.VIDEO).share == pytest.approx(0.10)

    def test_base_station_capacity_matches_section4(self):
        """Section 4: the bandwidth of the BS is 40 BU."""
        assert PAPER_BANDWIDTH_UNITS == 40

    def test_real_time_classification(self):
        assert ServiceClass.VOICE.is_real_time
        assert ServiceClass.VIDEO.is_real_time
        assert not ServiceClass.TEXT.is_real_time

    def test_offered_load_per_request(self):
        expected = 0.6 * 1 + 0.3 * 5 + 0.1 * 10
        assert PAPER_TRAFFIC_MIX.offered_load_bu() == pytest.approx(expected)


class TestTrafficMix:
    def test_shares_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TrafficMix(
                {
                    ServiceClass.TEXT: TrafficClassSpec(ServiceClass.TEXT, 1, 0.5),
                    ServiceClass.VOICE: TrafficClassSpec(ServiceClass.VOICE, 5, 0.4),
                }
            )

    def test_key_spec_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            TrafficMix({ServiceClass.TEXT: TrafficClassSpec(ServiceClass.VOICE, 5, 1.0)})

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            TrafficMix({})

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrafficClassSpec(ServiceClass.TEXT, 0, 0.5)
        with pytest.raises(ValueError):
            TrafficClassSpec(ServiceClass.TEXT, 1, 1.5)
        with pytest.raises(ValueError):
            TrafficClassSpec(ServiceClass.TEXT, 1, 0.5, mean_holding_time_s=0.0)

    def test_unknown_class_lookup(self):
        mix = TrafficMix({ServiceClass.TEXT: TrafficClassSpec(ServiceClass.TEXT, 1, 1.0)})
        with pytest.raises(KeyError):
            mix.spec(ServiceClass.VIDEO)

    def test_sample_class_follows_shares(self):
        rng = RandomStream("mix", 7)
        samples = [PAPER_TRAFFIC_MIX.sample_class(rng) for _ in range(3000)]
        text_share = samples.count(ServiceClass.TEXT) / len(samples)
        video_share = samples.count(ServiceClass.VIDEO) / len(samples)
        assert text_share == pytest.approx(0.60, abs=0.05)
        assert video_share == pytest.approx(0.10, abs=0.03)

    @pytest.mark.parametrize(
        "mix", [PAPER_TRAFFIC_MIX, WORKLOADS.get("mmpp").traffic_mix()], ids=["paper", "mmpp"]
    )
    @given(seed=st.integers(0, 2**63 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sample_class_draws_as_generator_choice(self, mix, seed):
        services = mix.services
        shares = np.asarray([mix.spec(service).share for service in services])
        probabilities = shares / shares.sum()
        stream = RandomStream("class", seed)
        generator = np.random.default_rng(seed)
        for _ in range(250):
            index = int(generator.choice(len(services), p=probabilities))
            assert mix.sample_class(stream) is services[index]
        # Both streams stand at the same position afterwards.
        assert stream.random() == generator.random()


class TestCallLifecycle:
    def make_call(self) -> Call:
        return Call(
            service=ServiceClass.VOICE,
            bandwidth_units=5,
            user_state=UserState(30.0, 0.0, 2.0),
            holding_time_s=100.0,
        )

    def test_new_call_state(self):
        call = self.make_call()
        assert call.state is CallState.REQUESTED
        assert not call.is_finished
        assert call.is_real_time

    def test_admit_then_complete(self):
        call = self.make_call()
        call.admit(10.0, cell_id=1)
        assert call.state is CallState.ACTIVE
        assert call.serving_cell_id == 1
        call.complete(110.0)
        assert call.state is CallState.COMPLETED
        assert call.is_finished
        assert [event.description for event in call.history] == ["admitted", "completed"]

    def test_block(self):
        call = self.make_call()
        call.block(5.0, cell_id=2)
        assert call.state is CallState.BLOCKED

    def test_drop_records_reason(self):
        call = self.make_call()
        call.admit(0.0, 1)
        call.drop(50.0, reason="handoff failure")
        assert call.state is CallState.DROPPED
        assert "handoff failure" in call.history[-1].description

    def test_handoff_updates_cell_and_counter(self):
        call = self.make_call()
        call.admit(0.0, 1)
        call.handoff(30.0, 2)
        call.handoff(60.0, 3)
        assert call.serving_cell_id == 3
        assert call.handoff_count == 2

    def test_invalid_transitions_rejected(self):
        call = self.make_call()
        with pytest.raises(ValueError):
            call.complete(1.0)
        call.admit(0.0, 1)
        with pytest.raises(ValueError):
            call.admit(1.0, 2)
        call.complete(2.0)
        with pytest.raises(ValueError):
            call.drop(3.0)

    def test_validation_of_fields(self):
        with pytest.raises(ValueError):
            Call(service=ServiceClass.TEXT, bandwidth_units=0)
        with pytest.raises(ValueError):
            Call(service=ServiceClass.TEXT, bandwidth_units=1, holding_time_s=-1.0)

    def test_unique_call_ids(self):
        ids = {Call(service=ServiceClass.TEXT, bandwidth_units=1).call_id for _ in range(50)}
        assert len(ids) == 50


class TestMetricsCollector:
    def make_call(self, service=ServiceClass.VOICE, call_type=CallType.NEW) -> Call:
        bandwidth = {ServiceClass.TEXT: 1, ServiceClass.VOICE: 5, ServiceClass.VIDEO: 10}
        return Call(service=service, bandwidth_units=bandwidth[service], call_type=call_type)

    def test_acceptance_percentage(self):
        collector = MetricsCollector()
        for accept in (True, True, False, True):
            call = self.make_call()
            collector.record_request(call)
            collector.record_decision(call, accept)
        metrics = collector.snapshot()
        assert metrics.requested == 4
        assert metrics.accepted == 3
        assert metrics.acceptance_percentage == pytest.approx(75.0)
        assert metrics.blocking_probability == pytest.approx(0.25)

    def test_empty_metrics_are_zero(self):
        metrics = MetricsCollector().snapshot()
        assert metrics.acceptance_percentage == 0.0
        assert metrics.blocking_probability == 0.0
        assert metrics.dropping_probability == 0.0
        assert metrics.handoff_dropping_probability == 0.0

    def test_dropping_probability(self):
        collector = MetricsCollector()
        calls = [self.make_call() for _ in range(4)]
        for call in calls:
            collector.record_request(call)
            collector.record_decision(call, True)
            call.admit(0.0, 1)
        calls[0].complete(1.0)
        calls[1].complete(1.0)
        calls[2].drop(1.0)
        calls[3].drop(1.0)
        for call in calls:
            collector.record_completion(call)
        metrics = collector.snapshot()
        assert metrics.dropping_probability == pytest.approx(0.5)
        assert metrics.completed == 2 and metrics.dropped == 2

    def test_record_completion_requires_finished_call(self):
        collector = MetricsCollector()
        call = self.make_call()
        call.admit(0.0, 1)
        with pytest.raises(ValueError):
            collector.record_completion(call)

    def test_handoff_statistics(self):
        collector = MetricsCollector()
        handoff = self.make_call(call_type=CallType.HANDOFF)
        collector.record_request(handoff)
        collector.record_decision(handoff, False)
        metrics = collector.snapshot()
        assert metrics.handoff_requests == 1
        assert metrics.handoff_accepted == 0
        assert metrics.handoff_dropping_probability == pytest.approx(1.0)

    def test_bandwidth_acceptance_ratio(self):
        collector = MetricsCollector()
        video = self.make_call(ServiceClass.VIDEO)
        text = self.make_call(ServiceClass.TEXT)
        for call, accept in ((video, False), (text, True)):
            collector.record_request(call)
            collector.record_decision(call, accept)
        metrics = collector.snapshot()
        assert metrics.requested_bu == 11
        assert metrics.accepted_bu == 1
        assert metrics.bandwidth_acceptance_ratio == pytest.approx(1.0 / 11.0)

    def test_per_service_breakdown(self):
        collector = MetricsCollector()
        voice = self.make_call(ServiceClass.VOICE)
        collector.record_request(voice)
        collector.record_decision(voice, True)
        text = self.make_call(ServiceClass.TEXT)
        collector.record_request(text)
        collector.record_decision(text, False)
        assert collector.acceptance_percentage_for(ServiceClass.VOICE) == 100.0
        assert collector.acceptance_percentage_for(ServiceClass.TEXT) == 0.0
        assert collector.acceptance_percentage_for(ServiceClass.VIDEO) == 0.0

    def test_grade_of_service_weighting(self):
        collector = MetricsCollector()
        call = self.make_call()
        collector.record_request(call)
        collector.record_decision(call, True)
        call.admit(0.0, 1)
        call.drop(1.0)
        collector.record_completion(call)
        metrics = collector.snapshot()
        assert metrics.grade_of_service(dropping_penalty=10.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            metrics.grade_of_service(dropping_penalty=-1.0)
