"""Tests of the SCC baseline and the classic non-fuzzy admission controllers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cac.complete_sharing import CompleteSharingController
from repro.cac.guard_channel import GuardChannelConfig, GuardChannelController
from repro.cac.scc import demand
from repro.cac.scc.demand import DemandEstimator
from repro.cac.scc.projection import ProjectionConfig, expected_exit_time_s, project_residency
from repro.cac.scc.system import SCCConfig, ShadowClusterController
from repro.cac.threshold_policy import ThresholdPolicyConfig, ThresholdPolicyController
from repro.cellular.calls import Call, CallType
from repro.cellular.cell import BaseStation
from repro.cellular.mobility import UserState
from repro.cellular.traffic import ServiceClass
from repro.des.rng import RandomStream, _mix_seed
from tests.conftest import make_call

_USERS = st.none() | st.builds(
    UserState,
    # Below 1 km/h a user is stationary and needs no reservations.
    speed_kmh=st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 120.0),
    angle_deg=st.floats(-180.0, 180.0),
    distance_km=st.floats(0.0, 10.0),
)


def _stream_reservations(scc: ShadowClusterController, call: Call) -> bool:
    """The reservation draw as a RandomStream seeded from the request makes it."""
    failure = scc.config.reservation_failure_probability
    if failure <= 0.0:
        return True
    user = call.user_state
    label = (
        f"{call.requested_at:.6f}:{user.speed_kmh:.3f}:"
        f"{user.angle_deg:.3f}:{user.distance_km:.3f}"
        if user is not None
        else f"{call.requested_at:.6f}"
    )
    rng = RandomStream(
        f"scc-reservation-{label}/{label}",
        seed=_mix_seed(scc.config.reservation_seed, label),
    )
    for _ in range(scc.required_reservations(call)):
        if rng.bernoulli(failure):
            return False
    return True


class TestProjection:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProjectionConfig(horizon_intervals=0)
        with pytest.raises(ValueError):
            ProjectionConfig(interval_s=0.0)
        with pytest.raises(ValueError):
            ProjectionConfig(residual_probability=1.5)

    def test_interval_times(self):
        config = ProjectionConfig(horizon_intervals=3, interval_s=10.0)
        assert config.interval_times() == [10.0, 20.0, 30.0]
        assert config.horizon_s == 30.0

    def test_stationary_user_never_exits(self):
        config = ProjectionConfig()
        user = UserState(0.5, 0.0, 5.0)
        assert math.isinf(expected_exit_time_s(user, config))

    def test_user_moving_away_exits_sooner_than_user_moving_towards(self):
        config = ProjectionConfig()
        towards = expected_exit_time_s(UserState(60.0, 0.0, 5.0), config)
        away = expected_exit_time_s(UserState(60.0, 180.0, 5.0), config)
        assert away < towards

    def test_faster_user_exits_sooner(self):
        config = ProjectionConfig()
        slow = expected_exit_time_s(UserState(10.0, 180.0, 5.0), config)
        fast = expected_exit_time_s(UserState(100.0, 180.0, 5.0), config)
        assert fast < slow

    def test_projection_probabilities_valid_and_decaying(self):
        config = ProjectionConfig()
        # Heading away at 120 km/h from 9 km out: exits after 30 s.
        projection = project_residency(UserState(120.0, 180.0, 9.0), config)
        assert len(projection.in_cell_active) == config.horizon_intervals
        for p in projection.in_cell_active:
            assert 0.0 <= p <= 1.0
        # In-cell activity decays monotonically over the horizon, and faster
        # once the user has left than activity alone.
        in_cell = projection.in_cell_active
        assert all(a >= b for a, b in zip(in_cell, in_cell[1:]))
        staying = project_residency(None, config).in_cell_active
        assert in_cell[:3] == staying[:3]
        assert all(p < q for p, q in zip(in_cell[3:], staying[3:]))

    def test_projection_for_fixed_terminal(self):
        config = ProjectionConfig()
        projection = project_residency(None, config)
        assert projection.in_cell_active == tuple(
            math.exp(-t / config.mean_holding_time_s) for t in config.interval_times()
        )
        assert math.isinf(projection.expected_exit_s)


class TestDemandEstimator:
    def test_track_and_untrack(self):
        estimator = DemandEstimator(ProjectionConfig())
        call = make_call(ServiceClass.VIDEO)
        estimator.track(call)
        assert estimator.tracked_calls == 1
        assert max(estimator.projected_in_cell_demand()) > 0.0
        estimator.untrack(call)
        assert estimator.tracked_calls == 0
        assert max(estimator.projected_in_cell_demand()) == 0.0

    def test_double_track_rejected(self):
        estimator = DemandEstimator(ProjectionConfig())
        call = make_call(ServiceClass.TEXT)
        estimator.track(call)
        with pytest.raises(ValueError):
            estimator.track(call)

    def test_untrack_unknown_is_noop(self):
        estimator = DemandEstimator(ProjectionConfig())
        estimator.untrack(make_call(ServiceClass.TEXT))

    def test_projected_demand_sums_over_calls(self):
        estimator = DemandEstimator(ProjectionConfig())
        estimator.track(make_call(ServiceClass.VOICE, speed=0.0))
        estimator.track(make_call(ServiceClass.VOICE, speed=0.0))
        demand = estimator.projected_in_cell_demand()
        # Two stationary 5 BU calls: demand starts near 10 BU and decays with activity.
        assert demand[0] == pytest.approx(
            10.0 * math.exp(-10.0 / ProjectionConfig().mean_holding_time_s), rel=1e-6
        )

    def test_reset(self):
        estimator = DemandEstimator(ProjectionConfig())
        estimator.track(make_call(ServiceClass.TEXT))
        estimator.reset()
        assert estimator.tracked_calls == 0

    @pytest.fixture
    def projections(self, monkeypatch):
        counter = {"calls": 0}

        def counted(*args, **kwargs):
            counter["calls"] += 1
            return project_residency(*args, **kwargs)

        monkeypatch.setattr(demand, "project_residency", counted)
        return counter

    def test_track_reuses_the_profile_just_scored(self, projections):
        estimator = DemandEstimator(ProjectionConfig())
        call = make_call(ServiceClass.VIDEO, speed=60.0, angle=120.0)
        scored = estimator.profile_for(call)
        assert estimator.track(call) is scored
        assert projections["calls"] == 1

    def test_reuse_is_tied_to_the_scored_call_object(self, projections):
        estimator = DemandEstimator(ProjectionConfig())
        scored = make_call(ServiceClass.VIDEO, speed=60.0, angle=120.0)
        other = make_call(ServiceClass.VOICE, speed=4.0, distance=9.0)
        estimator.profile_for(scored)
        profile = estimator.track(other)
        assert profile.call_id == other.call_id
        expected = project_residency(other.user_state, ProjectionConfig())
        assert profile.in_cell == expected.in_cell_active
        # Consumed by the first track, and cleared by reset.
        estimator.reset()
        estimator.track(scored)
        assert projections["calls"] == 3

    def test_totals_are_summed_call_by_call_in_tracking_order(self):
        estimator = DemandEstimator(ProjectionConfig())
        calls = [
            make_call(service, speed=speed, angle=angle, distance=distance)
            for service, speed, angle, distance in (
                (ServiceClass.VIDEO, 60.0, 170.0, 8.5),
                (ServiceClass.TEXT, 4.0, 30.0, 1.2),
                (ServiceClass.VOICE, 33.3, 90.0, 6.1),
                (ServiceClass.VIDEO, 0.3, 10.0, 9.9),
                (ServiceClass.VOICE, 99.0, 179.0, 0.4),
            )
        ]
        for call in calls:
            estimator.track(call)
        estimator.untrack(calls[1])
        estimator.track(calls[1])
        expected = [0.0] * ProjectionConfig().horizon_intervals
        for call in (calls[0], *calls[2:], calls[1]):
            profile = estimator.profile_for(call)
            for index, value in enumerate(profile.in_cell_demand()):
                expected[index] += value
        assert estimator.projected_in_cell_demand() == expected

    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(("add", "remove", "read")),
                st.integers(0, 6),
                st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_cached_totals_are_the_sums_from_zero_in_tracking_order(self, steps):
        estimator = DemandEstimator(ProjectionConfig(horizon_intervals=3))
        tracked: dict[int, tuple[float, ...]] = {}
        for step, key, demand in steps:
            if step == "add" and key not in tracked:
                tracked[key] = tuple(demand)
                estimator.add(key, tracked[key])
            elif step == "remove":
                tracked.pop(key, None)
                estimator.remove(key)
            elif step == "read":
                expected = [0.0] * 3
                for values in tracked.values():
                    expected = [total + value for total, value in zip(expected, values)]
                assert estimator.projected_in_cell_demand() == expected
        assert estimator.tracked_calls == len(tracked)


class TestSCCController:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SCCConfig(handoff_reservation_bu=-1.0)
        with pytest.raises(ValueError):
            SCCConfig(admission_threshold=0.0)
        with pytest.raises(ValueError):
            SCCConfig(reservation_failure_probability=1.0)
        with pytest.raises(ValueError):
            SCCConfig(reservations_per_mobile_user=-1)

    def test_accepts_on_empty_station(self, station):
        scc = ShadowClusterController(SCCConfig(reservation_failure_probability=0.0))
        assert scc.decide(make_call(), station, 0.0).accepted

    def test_rejects_when_bandwidth_unavailable(self, station):
        scc = ShadowClusterController(SCCConfig(reservation_failure_probability=0.0))
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=38))
        decision = scc.decide(make_call(ServiceClass.VOICE), station, 0.0)
        assert not decision.accepted
        assert "insufficient bandwidth" in decision.reason

    def test_rejects_when_projected_envelope_exceeded(self, station):
        scc = ShadowClusterController(
            SCCConfig(handoff_reservation_bu=20.0, reservation_failure_probability=0.0)
        )
        # Track enough stationary calls that projected demand + reservation is high.
        for _ in range(3):
            call = make_call(ServiceClass.VOICE, speed=0.0)
            station.allocate(call)
            scc.on_admitted(call, station, 0.0)
        decision = scc.decide(make_call(ServiceClass.VIDEO, speed=0.0), station, 0.0)
        assert not decision.accepted
        assert "exceeds admission capacity" in decision.reason

    def test_each_admitted_call_is_projected_once(self, station, monkeypatch):
        projected = []
        monkeypatch.setattr(
            demand,
            "project_residency",
            lambda user, config: projected.append(user) or project_residency(user, config),
        )
        scc = ShadowClusterController(SCCConfig(reservation_failure_probability=0.0))
        call = make_call(ServiceClass.VOICE)
        assert scc.decide(call, station, 0.0).accepted
        station.allocate(call)
        scc.on_admitted(call, station, 0.0)
        assert projected == [call.user_state]
        assert scc.estimator.tracked_calls == 1

    def test_tracking_follows_lifecycle(self, station):
        scc = ShadowClusterController(SCCConfig(reservation_failure_probability=0.0))
        call = make_call(ServiceClass.VOICE)
        station.allocate(call)
        scc.on_admitted(call, station, 0.0)
        assert scc.estimator.tracked_calls == 1
        scc.on_released(call, station, 60.0)
        assert scc.estimator.tracked_calls == 0

    def test_reset(self, station):
        scc = ShadowClusterController(SCCConfig(reservation_failure_probability=0.0))
        call = make_call(ServiceClass.VOICE)
        station.allocate(call)
        scc.on_admitted(call, station, 0.0)
        scc.reset()
        assert scc.estimator.tracked_calls == 0

    def test_required_reservations(self):
        scc = ShadowClusterController()
        mobile = make_call(speed=60.0)
        stationary = make_call(speed=0.2)
        no_gps = Call(service=ServiceClass.TEXT, bandwidth_units=1)
        assert scc.required_reservations(mobile) == 2
        assert scc.required_reservations(stationary) == 0
        assert scc.required_reservations(no_gps) == 0

    def test_reservation_failures_reject_some_mobile_calls(self, station):
        scc = ShadowClusterController(SCCConfig(reservation_failure_probability=0.5))
        decisions = [
            scc.decide(make_call(ServiceClass.TEXT, speed=80.0, angle=float(a)), station, 0.0)
            for a in range(-170, 171, 10)
        ]
        rejected = [d for d in decisions if not d.accepted]
        accepted = [d for d in decisions if d.accepted]
        assert rejected, "with 50% failure probability some reservations must fail"
        assert accepted, "not every call should fail its reservations"
        assert any("shadow cluster" in d.reason for d in rejected)

    def test_reservation_outcome_is_deterministic_per_call(self, station):
        scc_a = ShadowClusterController(SCCConfig(reservation_failure_probability=0.3))
        scc_b = ShadowClusterController(SCCConfig(reservation_failure_probability=0.3))
        call = make_call(ServiceClass.TEXT, speed=80.0, angle=42.0)
        assert (
            scc_a.decide(call, station, 0.0).accepted
            == scc_b.decide(call, station, 0.0).accepted
        )

    @given(
        user=st.none()
        | st.builds(
            UserState,
            # Below 1 km/h a user is stationary and needs no reservations.
            speed_kmh=st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 120.0),
            angle_deg=st.floats(-180.0, 180.0),
            distance_km=st.floats(0.0, 10.0),
        ),
        requested_at=st.floats(0.0, 10_000.0),
        failure=st.sampled_from((0.0, 0.03)) | st.floats(0.0, 0.99),
        per_user=st.integers(0, 4),
        seed=st.integers(0, 2**63 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_reservations_draw_as_the_stream_does(
        self, user, requested_at, failure, per_user, seed
    ):
        scc = ShadowClusterController(
            SCCConfig(
                reservations_per_mobile_user=per_user,
                reservation_failure_probability=failure,
                reservation_seed=seed,
            )
        )
        call = Call(
            service=ServiceClass.TEXT,
            bandwidth_units=1,
            user_state=user,
            requested_at=requested_at,
        )
        decision = scc.decide(call, BaseStation(), requested_at)
        expected = _stream_reservations(scc, call)
        assert decision.diagnostics["reservations_ok"] == (1.0 if expected else 0.0)

    def test_accepts_projects_an_admitted_call_once(self, station, monkeypatch):
        projected = []
        monkeypatch.setattr(
            demand,
            "project_residency",
            lambda user, config: projected.append(user) or project_residency(user, config),
        )
        scc = ShadowClusterController()
        call = make_call(ServiceClass.VOICE, speed=0.0)
        assert scc.accepts(call, station, 0.0)
        station.allocate(call)
        scc.on_admitted(call, station, 0.0)
        assert projected == [call.user_state]

    def test_accepts_skips_the_reservation_draw_for_a_call_that_does_not_fit(
        self, station, monkeypatch
    ):
        drawn = []
        monkeypatch.setattr(
            ShadowClusterController,
            "_establish_reservations",
            lambda self, call: drawn.append(call) or True,
        )
        scc = ShadowClusterController()
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=38))
        assert not scc.accepts(make_call(ServiceClass.VOICE), station, 0.0)
        assert drawn == []
        assert scc.accepts(make_call(ServiceClass.TEXT), station, 0.0)
        assert len(drawn) == 1

    @given(
        candidate=st.builds(
            Call,
            service=st.just(ServiceClass.TEXT),
            bandwidth_units=st.sampled_from((1, 5, 10)),
            call_type=st.sampled_from(CallType),
            user_state=_USERS,
            requested_at=st.floats(0.0, 10_000.0),
        ),
        tracked=st.lists(
            st.tuples(st.sampled_from((1, 5, 10)), _USERS, st.booleans()), max_size=12
        ),
        handoff_reservation=st.sampled_from((0.0, 8.0)) | st.floats(0.0, 30.0),
        failure=st.sampled_from((0.0, 0.03)) | st.floats(0.0, 0.99),
        threshold=st.sampled_from((1.0, 0.8)),
    )
    @settings(max_examples=300, deadline=None)
    def test_accepts_equals_decide(
        self, candidate, tracked, handoff_reservation, failure, threshold
    ):
        # ``accepts`` skips the reservation draw where the call cannot be
        # admitted anyway; the verdict must not move.
        scc = ShadowClusterController(
            SCCConfig(
                handoff_reservation_bu=handoff_reservation,
                reservation_failure_probability=failure,
                admission_threshold=threshold,
            )
        )
        station = BaseStation()
        for bandwidth, user, known in tracked:
            call = Call(service=ServiceClass.TEXT, bandwidth_units=bandwidth, user_state=user)
            if not station.can_fit(bandwidth):
                break
            station.allocate(call)
            # Some occupancy is not tracked by this controller's cluster.
            if known:
                scc.on_admitted(call, station, 0.0)
        now = candidate.requested_at
        assert scc.accepts(candidate, station, now) == scc.decide(candidate, station, now).accepted

    def test_stationary_calls_never_fail_reservations(self, station):
        scc = ShadowClusterController(SCCConfig(reservation_failure_probability=0.9))
        decision = scc.decide(make_call(ServiceClass.TEXT, speed=0.0), station, 0.0)
        assert decision.accepted

    def test_name_and_diagnostics(self, station):
        scc = ShadowClusterController()
        assert scc.name == "SCC"
        decision = scc.decide(make_call(), station, 0.0)
        assert "projected_peak_bu" in decision.diagnostics
        assert "required_reservations" in decision.diagnostics


class TestCompleteSharing:
    def test_accepts_anything_that_fits(self, station):
        controller = CompleteSharingController()
        assert controller.decide(make_call(ServiceClass.VIDEO), station, 0.0).accepted

    def test_rejects_when_full(self, station):
        controller = CompleteSharingController()
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=35))
        assert not controller.decide(make_call(ServiceClass.VIDEO), station, 0.0).accepted

    def test_score_reflects_remaining_headroom(self, station):
        controller = CompleteSharingController()
        empty_score = controller.decide(make_call(ServiceClass.TEXT), station, 0.0).score
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=30))
        loaded_score = controller.decide(make_call(ServiceClass.TEXT), station, 0.0).score
        assert empty_score > loaded_score


class TestGuardChannel:
    def test_new_calls_blocked_inside_guard_band(self, station):
        controller = GuardChannelController(GuardChannelConfig(guard_bu=10))
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=28))
        new_call = make_call(ServiceClass.VOICE, call_type=CallType.NEW)
        handoff_call = make_call(ServiceClass.VOICE, call_type=CallType.HANDOFF)
        assert not controller.decide(new_call, station, 0.0).accepted
        assert controller.decide(handoff_call, station, 0.0).accepted

    def test_both_accepted_below_threshold(self, station):
        controller = GuardChannelController(GuardChannelConfig(guard_bu=10))
        assert controller.decide(make_call(ServiceClass.VOICE), station, 0.0).accepted

    def test_handoff_rejected_only_when_no_room(self, station):
        controller = GuardChannelController()
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=38))
        handoff_call = make_call(ServiceClass.VOICE, call_type=CallType.HANDOFF)
        assert not controller.decide(handoff_call, station, 0.0).accepted

    def test_negative_guard_rejected(self):
        with pytest.raises(ValueError):
            GuardChannelConfig(guard_bu=-1)


class TestThresholdPolicy:
    def test_wide_calls_cut_off_before_narrow_ones(self, station):
        controller = ThresholdPolicyController()
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=25))
        video = make_call(ServiceClass.VIDEO)
        text = make_call(ServiceClass.TEXT)
        assert not controller.decide(video, station, 0.0).accepted
        assert controller.decide(text, station, 0.0).accepted

    def test_handoffs_exempt_from_class_thresholds(self, station):
        controller = ThresholdPolicyController()
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=25))
        handoff_video = make_call(ServiceClass.VIDEO, call_type=CallType.HANDOFF)
        assert controller.decide(handoff_video, station, 0.0).accepted

    def test_custom_thresholds(self, station):
        config = ThresholdPolicyConfig({ServiceClass.TEXT: 2})
        controller = ThresholdPolicyController(config)
        station.allocate(make_call(ServiceClass.VOICE))
        assert not controller.decide(make_call(ServiceClass.TEXT), station, 0.0).accepted

    def test_unknown_class_threshold_raises(self, station):
        controller = ThresholdPolicyController(ThresholdPolicyConfig({ServiceClass.TEXT: 10}))
        with pytest.raises(KeyError):
            controller.decide(make_call(ServiceClass.VOICE), station, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThresholdPolicyConfig({})
        with pytest.raises(ValueError):
            ThresholdPolicyConfig({ServiceClass.TEXT: -5})
