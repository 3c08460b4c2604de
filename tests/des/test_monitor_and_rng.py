"""Tests for the seeded random streams."""

from __future__ import annotations

import statistics

import pytest

from repro.des import RandomStream, StreamFactory


class TestRandomStream:
    def test_reproducible_given_seed(self):
        a = RandomStream("s", 99).uniform()
        b = RandomStream("s", 99).uniform()
        assert a == b

    def test_different_seeds_differ(self):
        assert RandomStream("s", 1).uniform() != RandomStream("s", 2).uniform()

    def test_uniform_bounds(self):
        stream = RandomStream("s", 7)
        for _ in range(100):
            assert 2.0 <= stream.uniform(2.0, 3.0) < 3.0
        with pytest.raises(ValueError):
            stream.uniform(3.0, 2.0)

    def test_integer_bounds_inclusive(self):
        stream = RandomStream("s", 7)
        values = {stream.integer(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}
        with pytest.raises(ValueError):
            stream.integer(3, 1)

    def test_exponential_mean(self):
        stream = RandomStream("s", 11)
        values = [stream.exponential(10.0) for _ in range(4000)]
        assert statistics.fmean(values) == pytest.approx(10.0, rel=0.1)
        with pytest.raises(ValueError):
            stream.exponential(0.0)

    def test_choice_with_weights_respects_zero_weight(self):
        stream = RandomStream("s", 13)
        picks = {stream.choice(["a", "b", "c"], [1.0, 0.0, 1.0]) for _ in range(200)}
        assert "b" not in picks

    def test_choice_validation(self):
        stream = RandomStream("s", 13)
        with pytest.raises(ValueError):
            stream.choice([])
        with pytest.raises(ValueError):
            stream.choice(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            stream.choice(["a", "b"], [0.0, 0.0])

    def test_bernoulli_bounds(self):
        stream = RandomStream("s", 17)
        with pytest.raises(ValueError):
            stream.bernoulli(1.5)
        assert stream.bernoulli(1.0) is True
        assert stream.bernoulli(0.0) is False

    def test_angle_degrees_range(self):
        stream = RandomStream("s", 19)
        for _ in range(100):
            assert -180.0 <= stream.angle_degrees() < 180.0

    def test_shuffle_preserves_elements(self):
        stream = RandomStream("s", 23)
        items = list(range(10))
        shuffled = stream.shuffle(items)
        assert sorted(shuffled) == items

    def test_pareto_and_lognormal_positive(self):
        stream = RandomStream("s", 29)
        assert stream.pareto(1.5, 2.0) >= 2.0
        assert stream.lognormal(0.0, 1.0) > 0.0
        with pytest.raises(ValueError):
            stream.pareto(0.0, 1.0)

    def test_spawn_creates_independent_child(self):
        parent = RandomStream("parent", 31)
        child_a = parent.spawn("child")
        child_b = RandomStream("parent", 31).spawn("child")
        assert child_a.uniform() == child_b.uniform()
        assert child_a.name == "parent/child"


class TestStreamFactory:
    def test_same_name_returns_same_stream(self):
        factory = StreamFactory(1)
        assert factory.stream("arrivals") is factory.stream("arrivals")

    def test_streams_are_decorrelated_across_names(self):
        factory = StreamFactory(1)
        a = [factory.stream("a").uniform() for _ in range(5)]
        b = [factory.stream("b").uniform() for _ in range(5)]
        assert a != b

    def test_reproducible_across_factories(self):
        first = StreamFactory(2024).stream("arrivals").uniform()
        second = StreamFactory(2024).stream("arrivals").uniform()
        assert first == second

    def test_contains_and_names(self):
        factory = StreamFactory(3)
        factory.stream("x")
        assert "x" in factory and "y" not in factory
        assert factory.stream_names() == ["x"]
