"""Tests of the complete FACS controller (cascade + counters) and ServiceCounters."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.cac.base import AdmissionDecision, DecisionOutcome
from repro.cac.counters import ServiceCounters
from repro.cac.facs.system import FACSConfig, FuzzyAdmissionControlSystem, _shared_screen
from repro.cellular.calls import Call
from repro.cellular.mobility import UserState
from repro.cellular.traffic import ServiceClass
from tests.conftest import make_call


class TestServiceCounters:
    def test_ds_classification(self):
        assert ServiceCounters.classify(make_call(ServiceClass.VOICE))
        assert ServiceCounters.classify(make_call(ServiceClass.VIDEO))
        assert not ServiceCounters.classify(make_call(ServiceClass.TEXT))

    def test_rtc_nrtc_accounting(self):
        counters = ServiceCounters(capacity_bu=40)
        voice = make_call(ServiceClass.VOICE)
        text = make_call(ServiceClass.TEXT)
        video = make_call(ServiceClass.VIDEO)
        for call in (voice, text, video):
            counters.admit(call)
        assert counters.real_time_bu == 15
        assert counters.non_real_time_bu == 1
        assert counters.counter_state == 16
        counters.release(video)
        assert counters.real_time_bu == 5
        assert counters.counter_state == 6

    def test_snapshot(self):
        counters = ServiceCounters(capacity_bu=40)
        counters.admit(make_call(ServiceClass.VOICE))
        snap = counters.snapshot()
        assert snap.total_bu == 5
        assert snap.free_bu == 35
        assert snap.occupancy == pytest.approx(5 / 40)

    def test_double_admit_rejected(self):
        counters = ServiceCounters()
        call = make_call(ServiceClass.TEXT)
        counters.admit(call)
        with pytest.raises(ValueError):
            counters.admit(call)

    def test_release_untracked_rejected(self):
        with pytest.raises(KeyError):
            ServiceCounters().release(make_call(ServiceClass.TEXT))

    def test_capacity_overflow_rejected(self):
        counters = ServiceCounters(capacity_bu=12)
        counters.admit(make_call(ServiceClass.VIDEO))
        with pytest.raises(ValueError):
            counters.admit(make_call(ServiceClass.VOICE))

    def test_reset(self):
        counters = ServiceCounters()
        counters.admit(make_call(ServiceClass.VOICE))
        counters.reset()
        assert counters.counter_state == 0
        assert counters.tracked_calls == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ServiceCounters(capacity_bu=0)


class TestFACSDecisions:
    def test_decision_structure(self, facs, station):
        decision = facs.decide(make_call(), station, now=0.0)
        assert isinstance(decision, AdmissionDecision)
        assert decision.outcome in DecisionOutcome.ORDERED
        assert "correction_value" in decision.diagnostics
        assert -1.0 <= decision.score <= 1.0

    def test_accepts_on_empty_station_with_good_trajectory(self, facs, station):
        call = make_call(speed=60.0, angle=0.0, distance=1.0)
        assert facs.decide(call, station, 0.0).accepted

    def test_rejects_when_bandwidth_unavailable(self, facs, station):
        filler = make_call(ServiceClass.VIDEO, bandwidth=38)
        station.allocate(filler)
        call = make_call(ServiceClass.VOICE, speed=60.0, angle=0.0, distance=1.0)
        decision = facs.decide(call, station, 0.0)
        assert not decision.accepted
        assert "insufficient bandwidth" in decision.reason

    def test_rejects_unfavourable_trajectory_under_load(self, facs, station):
        """A user speeding away from a busy BS is not worth the bandwidth."""
        for _ in range(5):
            station.allocate(make_call(ServiceClass.VOICE))
        call = make_call(ServiceClass.VIDEO, speed=100.0, angle=170.0, distance=9.0)
        assert not facs.decide(call, station, 0.0).accepted

    def test_accepts_favourable_trajectory_under_same_load(self, facs, station):
        for _ in range(5):
            station.allocate(make_call(ServiceClass.VOICE))
        call = make_call(ServiceClass.VIDEO, speed=100.0, angle=0.0, distance=1.0)
        assert facs.decide(call, station, 0.0).accepted

    def test_decision_does_not_mutate_station(self, facs, station):
        used_before = station.used_bu
        facs.decide(make_call(), station, 0.0)
        assert station.used_bu == used_before

    def test_call_without_user_state_uses_neutral_correction(self, facs, station):
        call = Call(service=ServiceClass.TEXT, bandwidth_units=1)
        decision = facs.decide(call, station, 0.0)
        assert decision.diagnostics["correction_value"] == pytest.approx(0.5)
        assert decision.accepted  # text call on an empty station

    def test_threshold_controls_strictness(self, station):
        lenient = FuzzyAdmissionControlSystem(FACSConfig(acceptance_threshold=-0.5))
        strict = FuzzyAdmissionControlSystem(FACSConfig(acceptance_threshold=0.75))
        for _ in range(4):
            station.allocate(make_call(ServiceClass.VOICE))
        call = make_call(ServiceClass.VOICE, speed=20.0, angle=60.0, distance=6.0)
        assert lenient.decide(call, station, 0.0).accepted
        assert not strict.decide(call, station, 0.0).accepted

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            FACSConfig(acceptance_threshold=2.0)

    def test_correction_value_for_none_user(self, facs):
        assert facs.correction_value(None) == pytest.approx(0.5)

    def test_correction_value_clamps_out_of_range_observation(self, facs):
        state = UserState(speed_kmh=300.0, angle_deg=0.0, distance_km=40.0)
        assert 0.0 <= facs.correction_value(state) <= 1.0


class TestFACSLifecycle:
    def test_counters_track_admitted_calls(self, facs, station):
        call = make_call(ServiceClass.VOICE, speed=60.0, angle=0.0, distance=1.0)
        decision = facs.decide(call, station, 0.0)
        assert decision.accepted
        station.allocate(call)
        facs.on_admitted(call, station, 0.0)
        assert facs.counters.counter_state == 5
        assert facs.counters.real_time_bu == 5
        station.release(call)
        facs.on_released(call, station, 10.0)
        assert facs.counters.counter_state == 0

    def test_on_admitted_is_idempotent(self, facs, station):
        call = make_call(ServiceClass.TEXT)
        station.allocate(call)
        facs.on_admitted(call, station, 0.0)
        facs.on_admitted(call, station, 0.0)
        assert facs.counters.counter_state == 1

    def test_on_released_ignores_untracked_calls(self, facs, station):
        facs.on_released(make_call(ServiceClass.TEXT), station, 0.0)
        assert facs.counters.counter_state == 0

    def test_reset_clears_counters(self, facs, station):
        call = make_call(ServiceClass.VIDEO)
        station.allocate(call)
        facs.on_admitted(call, station, 0.0)
        facs.reset()
        assert facs.counters.counter_state == 0

    def test_name(self, facs):
        assert facs.name == "FACS"


class TestFACSAcceptanceTrends:
    """Monte-Carlo checks of the qualitative trends driving Figs. 7-9."""

    def _acceptance_fraction(self, facs, station, calls):
        accepted = 0
        for call in calls:
            if facs.decide(call, station, 0.0).accepted:
                accepted += 1
        return accepted / len(calls)

    def test_fast_users_accepted_more_than_slow_under_load(self, facs, station):
        for _ in range(4):
            station.allocate(make_call(ServiceClass.VOICE))
        angles = [-150, -120, -90, -60, -30, 0, 30, 60, 90, 120, 150]
        slow = [make_call(ServiceClass.TEXT, speed=4.0, angle=a, distance=5.0) for a in angles]
        fast = [make_call(ServiceClass.TEXT, speed=60.0, angle=a, distance=5.0) for a in angles]
        assert self._acceptance_fraction(facs, station, fast) >= self._acceptance_fraction(
            facs, station, slow
        )

    def test_small_angles_accepted_more_than_large_under_load(self, facs, station):
        for _ in range(4):
            station.allocate(make_call(ServiceClass.VOICE))
        speeds = [10, 30, 50, 70, 90, 110]
        toward = [make_call(ServiceClass.TEXT, speed=s, angle=0.0, distance=5.0) for s in speeds]
        away = [make_call(ServiceClass.TEXT, speed=s, angle=150.0, distance=5.0) for s in speeds]
        assert self._acceptance_fraction(facs, station, toward) > self._acceptance_fraction(
            facs, station, away
        )


class TestBatchAdmission:
    def _candidates(self, count: int = 60) -> list[Call]:
        rng = np.random.default_rng(20250722)
        calls = []
        services = (ServiceClass.TEXT, ServiceClass.VOICE, ServiceClass.VIDEO)
        for i in range(count):
            if i % 13 == 0:
                # Fixed terminal: no GPS observation.
                calls.append(make_call(services[i % 3]))
                calls[-1].user_state = None
                continue
            calls.append(
                make_call(
                    services[i % 3],
                    speed=float(rng.uniform(0.0, 130.0)),
                    angle=float(rng.uniform(-180.0, 180.0)),
                    distance=float(rng.uniform(0.0, 12.0)),
                )
            )
        return calls

    def test_decide_batch_matches_sequential_decide(self, facs, station):
        calls = self._candidates()
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=30))
        batch = facs.decide_batch(calls, station, now=0.0)
        assert len(batch) == len(calls)
        for i, call in enumerate(calls):
            decision = facs.decide(call, station, 0.0)
            assert batch.scores[i] == decision.score
            assert bool(batch.accepted[i]) == decision.accepted
            assert (
                batch.correction_values[i]
                == decision.diagnostics["correction_value"]
            )
        assert batch.counter_state_bu == float(station.used_bu)

    def test_decide_batch_does_not_mutate_state(self, facs, station):
        calls = self._candidates(20)
        used_before = station.used_bu
        counters_before = (facs.counters.real_time_bu, facs.counters.non_real_time_bu)
        facs.decide_batch(calls, station, now=0.0)
        assert station.used_bu == used_before
        assert (
            facs.counters.real_time_bu,
            facs.counters.non_real_time_bu,
        ) == counters_before

    def test_missing_observations_get_neutral_correction(self, facs):
        values = facs.correction_values([None, None])
        assert list(values) == [0.5, 0.5]

    def test_correction_values_match_scalar_path(self, facs):
        users = [
            UserState(speed_kmh=30.0, angle_deg=10.0, distance_km=2.0),
            None,
            UserState(speed_kmh=90.0, angle_deg=80.0, distance_km=9.0),
        ]
        values = facs.correction_values(users)
        for user, value in zip(users, values):
            assert value == facs.correction_value(user)

    def test_batch_respects_bandwidth_fit(self, facs, station):
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=39))
        video = make_call(ServiceClass.VIDEO, speed=60.0, angle=0.0, distance=1.0)
        batch = facs.decide_batch([video], station, now=0.0)
        assert not bool(batch.accepted[0])


class TestScreenFallbackLogging:
    LOGGER = "repro.cac.facs.screen"

    @staticmethod
    def _columns(count: int = 40):
        rng = np.random.default_rng(20070628)
        return (
            rng.uniform(0.0, 130.0, count),
            rng.uniform(-180.0, 180.0, count),
            rng.uniform(0.0, 12.0, count),
            rng.choice([1.0, 5.0, 10.0], count),
            12,
        )

    def _screen_records(self, caplog) -> list[logging.LogRecord]:
        return [record for record in caplog.records if record.name == self.LOGGER]

    def test_exact_fallback_is_logged_once_per_controller_pair(self, caplog):
        # Screens are built once per controller pair and memoised; forget
        # earlier builds so this test sees the first one.
        _shared_screen.cache_clear()
        reference = FuzzyAdmissionControlSystem(FACSConfig(engine="reference"))
        twin = FuzzyAdmissionControlSystem(FACSConfig(engine="reference"))
        columns = self._columns()
        with caplog.at_level(logging.INFO, logger=self.LOGGER):
            verdicts = reference.decide_columns(*columns)
            reference.decide_columns(*columns)
            twin.decide_columns(*columns)
        records = self._screen_records(caplog)
        assert len(records) == 1
        assert records[0].levelno == logging.INFO
        assert "ValueError" in records[0].getMessage()
        assert list(verdicts) == list(reference.score_columns(*columns) > 0.0)

    def test_certified_screen_logs_nothing(self, caplog):
        _shared_screen.cache_clear()
        with caplog.at_level(logging.INFO, logger=self.LOGGER):
            FuzzyAdmissionControlSystem().decide_columns(*self._columns())
        assert self._screen_records(caplog) == []
