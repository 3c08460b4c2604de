"""Tests for user state and mobility models."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cellular.geometry import Point
from repro.cellular.mobility import (
    ConstantVelocityModel,
    GaussMarkovModel,
    MobileTerminal,
    PAPER_ANGLE_RANGE_DEG,
    PAPER_DISTANCE_RANGE_KM,
    PAPER_SPEED_RANGE_KMH,
    RandomWaypointModel,
    UserPopulation,
    UserProfile,
    UserState,
)
from repro.des.rng import RandomStream


class TestUserState:
    def test_validation(self):
        with pytest.raises(ValueError):
            UserState(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            UserState(1.0, 200.0, 1.0)
        with pytest.raises(ValueError):
            UserState(1.0, 0.0, -1.0)

    def test_clamped(self):
        state = UserState(200.0, 90.0, 50.0).clamped()
        assert state.speed_kmh == 120.0
        assert state.distance_km == 10.0
        assert state.angle_deg == 90.0

    def test_paper_ranges(self):
        assert PAPER_SPEED_RANGE_KMH == (0.0, 120.0)
        assert PAPER_ANGLE_RANGE_DEG == (-180.0, 180.0)
        assert PAPER_DISTANCE_RANGE_KM == (0.0, 10.0)


class TestUserProfile:
    def test_fixed_fields_are_respected(self):
        rng = RandomStream("profile", 1)
        profile = UserProfile(speed_kmh=60.0, angle_deg=30.0, distance_km=5.0)
        state = profile.sample(rng)
        assert (state.speed_kmh, state.angle_deg, state.distance_km) == (60.0, 30.0, 5.0)

    def test_random_fields_stay_in_paper_ranges(self):
        rng = RandomStream("profile", 2)
        profile = UserProfile()
        for _ in range(200):
            state = profile.sample(rng)
            assert 0.0 <= state.speed_kmh <= 120.0
            assert -180.0 <= state.angle_deg <= 180.0
            assert 0.0 <= state.distance_km <= 10.0

    def test_population_draw(self):
        rng = RandomStream("population", 3)
        population = UserPopulation(UserProfile(speed_kmh=4.0), rng)
        states = population.draw(25)
        assert len(states) == 25
        assert all(state.speed_kmh == 4.0 for state in states)
        with pytest.raises(ValueError):
            population.draw(-1)


class TestMobileTerminal:
    def test_advance_moves_along_heading(self):
        terminal = MobileTerminal(Point(0.0, 0.0), speed_kmh=36.0, heading_deg=0.0)
        terminal.advance(3600.0)
        assert terminal.position.x == pytest.approx(36.0)
        assert terminal.position.y == pytest.approx(0.0, abs=1e-9)

    def test_advance_rejects_negative_duration(self):
        terminal = MobileTerminal(Point(0.0, 0.0), 10.0, 0.0)
        with pytest.raises(ValueError):
            terminal.advance(-1.0)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            MobileTerminal(Point(0.0, 0.0), -5.0, 0.0)

    def test_observe_straight_towards_bs(self):
        terminal = MobileTerminal(Point(-3.0, 0.0), speed_kmh=50.0, heading_deg=0.0)
        state = terminal.observe(Point(0.0, 0.0))
        assert state.angle_deg == pytest.approx(0.0, abs=1e-9)
        assert state.distance_km == pytest.approx(3.0)
        assert state.speed_kmh == 50.0

    def test_observe_moving_away_from_bs(self):
        terminal = MobileTerminal(Point(3.0, 0.0), speed_kmh=50.0, heading_deg=0.0)
        state = terminal.observe(Point(0.0, 0.0))
        assert abs(state.angle_deg) == pytest.approx(180.0)

    def test_observe_perpendicular(self):
        terminal = MobileTerminal(Point(0.0, -2.0), speed_kmh=50.0, heading_deg=0.0)
        state = terminal.observe(Point(0.0, 0.0))
        assert abs(state.angle_deg) == pytest.approx(90.0)

    def test_unique_terminal_ids(self):
        ids = {MobileTerminal(Point(0, 0), 1.0, 0.0).terminal_id for _ in range(20)}
        assert len(ids) == 20


class TestMobilityModels:
    def test_constant_velocity_keeps_heading_and_speed(self):
        terminal = MobileTerminal(Point(0.0, 0.0), 60.0, 45.0)
        ConstantVelocityModel().update(terminal, 600.0, RandomStream("m", 1))
        assert terminal.speed_kmh == 60.0
        assert terminal.heading_deg == 45.0
        assert terminal.position.distance_to(Point(0.0, 0.0)) == pytest.approx(10.0)

    def test_random_waypoint_stays_in_region(self):
        model = RandomWaypointModel(region_km=(0.0, 0.0, 10.0, 10.0), speed_range_kmh=(10.0, 50.0))
        rng = RandomStream("rwp", 2)
        terminal = MobileTerminal(Point(5.0, 5.0), 20.0, 0.0)
        for _ in range(50):
            model.update(terminal, 60.0, rng)
            assert -0.5 <= terminal.position.x <= 10.5
            assert -0.5 <= terminal.position.y <= 10.5

    def test_random_waypoint_validation(self):
        with pytest.raises(ValueError):
            RandomWaypointModel(region_km=(0.0, 0.0, 0.0, 10.0))
        with pytest.raises(ValueError):
            RandomWaypointModel(region_km=(0.0, 0.0, 1.0, 1.0), speed_range_kmh=(0.0, 10.0))
        with pytest.raises(ValueError):
            RandomWaypointModel(region_km=(0.0, 0.0, 1.0, 1.0), pause_s=-1.0)

    def test_gauss_markov_speed_stays_non_negative(self):
        model = GaussMarkovModel(alpha=0.5, mean_speed_kmh=20.0, speed_std_kmh=30.0)
        rng = RandomStream("gm", 3)
        terminal = MobileTerminal(Point(0.0, 0.0), 20.0, 0.0)
        for _ in range(100):
            model.update(terminal, 10.0, rng)
            assert terminal.speed_kmh >= 0.0
            assert -180.0 <= terminal.heading_deg <= 180.0

    def test_gauss_markov_alpha_one_keeps_velocity(self):
        model = GaussMarkovModel(alpha=1.0, mean_speed_kmh=50.0)
        rng = RandomStream("gm", 4)
        terminal = MobileTerminal(Point(0.0, 0.0), 33.0, 10.0)
        model.update(terminal, 100.0, rng)
        assert terminal.speed_kmh == pytest.approx(33.0)
        assert terminal.heading_deg == pytest.approx(10.0)

    def test_gauss_markov_validation(self):
        with pytest.raises(ValueError):
            GaussMarkovModel(alpha=1.5)
        with pytest.raises(ValueError):
            GaussMarkovModel(update_interval_s=0.0)

    @given(
        speed=st.floats(1.0, 120.0),
        heading=st.floats(-179.0, 179.0),
        hours=st.floats(0.01, 1.0),
    )
    @settings(max_examples=50)
    def test_constant_velocity_distance_property(self, speed, heading, hours):
        terminal = MobileTerminal(Point(0.0, 0.0), speed, heading)
        terminal.advance(hours * 3600.0)
        travelled = terminal.position.distance_to(Point(0.0, 0.0))
        assert travelled == pytest.approx(speed * hours, rel=1e-9)
