"""The network engine's fast paths, each checked against what it replaces.

The network engine moves terminals with normals read from a buffer, skips
hexagon rounding deep inside a cell, and answers an exact FACS controller's
new calls from FACS blocks.  ``test_network_loop.py`` and
``test_shard_loop.py`` hold whole runs equal to generator-process oracles;
the tests here check each fast path on its own, against the scalar code it
stands in for:

* a :class:`~repro.des.rng.BufferedNormals` yields
  :meth:`RandomStream.normal` draws bit for bit;
* :meth:`GaussMarkovModel.update` moves a terminal the same fed by a buffer
  or by a plain stream, and as a reference copy of the per-step
  ``Vector``/``Point`` arithmetic it replaced;
* :meth:`Cell.inside_inscribed_circle` never claims a point that
  :meth:`CellularNetwork.serving_cell` maps to another cell;
* a FACS run asks ``accepts`` only for handoffs, and every other controller
  per call; the engine's DEBUG record accounts for every request.
"""

from __future__ import annotations

import logging
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import CONTROLLERS
from repro.cellular.calls import CallType
from repro.cellular.geometry import Point, Vector, normalize_angle
from repro.cellular.mobility import GaussMarkovModel, MobileTerminal
from repro.cellular.network import CellularNetwork
from repro.des.rng import _NORMALS_BLOCK, BufferedNormals, RandomStream
from repro.simulation import NetworkExperimentConfig, run_coupled_sharded_network_experiment
from repro.simulation.engine import NetworkSimulation

SEEDS = st.integers(0, 2**63 - 1)


def _bits(value: float) -> str:
    return float(value).hex()


# -- (a) buffered normals ----------------------------------------------------


@given(
    seed=SEEDS,
    stds=st.lists(
        st.sampled_from((0.0, 1.0, 10.0, 30.0, 5e-324)) | st.floats(0.0, 1e6),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=100, deadline=None)
def test_buffered_normals_equal_scalar_stream_draws(seed, stds):
    stream = RandomStream("scalar", seed)
    buffered = BufferedNormals(RandomStream("buffered", seed))
    # Past two refills of the buffer, cycling through the drawn stds.
    for index in range(2 * _NORMALS_BLOCK + 3):
        std = stds[index % len(stds)]
        assert _bits(buffered.normal(0.0, std)) == _bits(stream.normal(0.0, std))


def test_a_buffer_draws_nothing_until_read():
    stream = RandomStream("lazy", 7)
    BufferedNormals(stream)
    assert _bits(stream.normal(0.0, 1.0)) == _bits(RandomStream("lazy", 7).normal(0.0, 1.0))


def test_a_negative_std_is_rejected_like_the_stream():
    with pytest.raises(ValueError, match="non-negative"):
        BufferedNormals(RandomStream("bad", 1)).normal(0.0, -1.0)
    with pytest.raises(ValueError, match="non-negative"):
        RandomStream("bad", 1).normal(0.0, -1.0)


# -- (b) Gauss-Markov update -------------------------------------------------


class _ReferenceTerminal:
    """A terminal as the per-step arithmetic knew it: a ``Point`` and its id."""

    def __init__(self, x: float, y: float, speed: float, heading: float, terminal_id: int):
        self.position = Point(x, y)
        self.speed_kmh = speed
        self.heading_deg = normalize_angle(heading)
        self.terminal_id = terminal_id


class _ReferenceGaussMarkov:
    """``GaussMarkovModel.update`` as written with ``Vector``/``Point`` steps
    and a mean heading per terminal id."""

    def __init__(self, model: GaussMarkovModel):
        self._model = model
        self._mean_heading: dict[int, float] = {}

    def update(self, terminal: _ReferenceTerminal, duration_s: float, rng) -> None:
        model = self._model
        remaining = duration_s
        mean_heading = self._mean_heading.setdefault(terminal.terminal_id, terminal.heading_deg)
        sqrt_term = math.sqrt(max(1.0 - model.alpha**2, 0.0))
        while remaining > 1e-9:
            step = min(model.update_interval_s, remaining)
            velocity = Vector.from_polar(terminal.speed_kmh, terminal.heading_deg)
            terminal.position = terminal.position.translate(velocity.scale(step / 3600.0))
            new_speed = (
                model.alpha * terminal.speed_kmh
                + (1.0 - model.alpha) * model.mean_speed_kmh
                + sqrt_term * rng.normal(0.0, model.speed_std_kmh)
            )
            new_heading = (
                model.alpha * terminal.heading_deg
                + (1.0 - model.alpha) * mean_heading
                + sqrt_term * rng.normal(0.0, model.heading_std_deg)
            )
            terminal.speed_kmh = max(new_speed, 0.0)
            terminal.heading_deg = normalize_angle(new_heading)
            remaining -= step


models = st.builds(
    GaussMarkovModel,
    alpha=st.sampled_from((0.0, 0.85, 1.0)) | st.floats(0.0, 1.0),
    mean_speed_kmh=st.sampled_from((0.0, 30.0)) | st.floats(0.0, 120.0),
    speed_std_kmh=st.sampled_from((0.0, 10.0)) | st.floats(0.0, 50.0),
    heading_std_deg=st.sampled_from((0.0, 30.0)) | st.floats(0.0, 180.0),
    update_interval_s=st.sampled_from((10.0, 5.0)) | st.floats(1.0, 60.0),
)
terminals = st.lists(
    st.tuples(
        st.floats(-20.0, 20.0),
        st.floats(-20.0, 20.0),
        st.floats(0.0, 150.0),
        st.floats(-540.0, 540.0),
    ),
    min_size=1,
    max_size=4,
)
# Durations past one update interval take several steps in one update.
durations = st.lists(
    st.sampled_from((0.0, 1e-10, 10.0)) | st.floats(0.0, 200.0), min_size=1, max_size=12
)


@given(model=models, seed=SEEDS, states=terminals, steps=durations)
@settings(max_examples=200, deadline=None)
def test_gauss_markov_update_is_the_reference_arithmetic(model, seed, states, steps):
    buffered = [MobileTerminal(Point(x, y), speed, heading) for x, y, speed, heading in states]
    plain = [MobileTerminal(Point(x, y), speed, heading) for x, y, speed, heading in states]
    reference = [
        _ReferenceTerminal(x, y, speed, heading, index)
        for index, (x, y, speed, heading) in enumerate(states)
    ]
    normals = BufferedNormals(RandomStream("mobility", seed))
    stream = RandomStream("mobility", seed)
    reference_stream = RandomStream("mobility", seed)
    reference_model = _ReferenceGaussMarkov(model)
    # Terminals take turns on one stream, as the calls of a run do.
    for index, duration in enumerate(steps):
        slot = index % len(states)
        model.update(buffered[slot], duration, normals)
        model.update(plain[slot], duration, stream)
        reference_model.update(reference[slot], duration, reference_stream)
    for fast, slow, ref in zip(buffered, plain, reference):
        expected = tuple(
            _bits(v) for v in (ref.position.x, ref.position.y, ref.speed_kmh, ref.heading_deg)
        )
        for terminal in (fast, slow):
            got = (terminal.x, terminal.y, terminal.speed_kmh, terminal.heading_deg)
            assert tuple(_bits(v) for v in got) == expected
            mean = reference_model._mean_heading.get(ref.terminal_id)
            assert terminal.mean_heading_deg == mean


# -- (c) the inside-cell check -----------------------------------------------

#: Radial factors around the inscribed circle (1.0 is on it).
_RADIAL = (0.0, 0.5, 0.99, 1 - 1e-6, 1 - 2e-9, 1 - 1e-9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-9)
#: Directions from a cell centre: edge midpoints (0, 60, ...), vertices
#: (30, 90, ...) and a step either side of each.
_DIRECTIONS = tuple(
    base + offset for base in range(0, 360, 30) for offset in (-1e-7, 0.0, 1e-7, 7.5)
)


def _agrees(network: CellularNetwork, x: float, y: float) -> None:
    for cell in network.cells:
        if cell.inside_inscribed_circle(x, y):
            assert network.serving_cell(Point(x, y)) is cell


@pytest.mark.parametrize("rings", [0, 1, 2, 3])
@pytest.mark.parametrize("radius_km", [0.3, 1.0, 2.0, 3.0])
def test_inside_check_agrees_with_serving_cell_around_every_circle(rings, radius_km):
    network = CellularNetwork(rings=rings, cell_radius_km=radius_km)
    inscribed = radius_km * math.sqrt(3.0) / 2.0
    inside = 0
    for cell in network.cells:
        for degrees in _DIRECTIONS:
            radians = math.radians(degrees)
            for factor in _RADIAL:
                x = cell.center.x + inscribed * factor * math.cos(radians)
                y = cell.center.y + inscribed * factor * math.sin(radians)
                _agrees(network, x, y)
                if factor <= 1 - 2e-9:
                    assert cell.inside_inscribed_circle(x, y)
                    inside += 1
                if factor >= 1.0:
                    assert not cell.inside_inscribed_circle(x, y)
    assert inside


@pytest.mark.parametrize("rings", [0, 1, 2, 3])
@pytest.mark.parametrize("radius_km", [0.3, 1.0, 2.0, 3.0])
def test_inside_check_is_false_at_edges_and_vertices(rings, radius_km):
    network = CellularNetwork(rings=rings, cell_radius_km=radius_km)
    for cell in network.cells:
        for degrees in range(0, 360, 30):
            # Edge midpoints lie on the inscribed circle, vertices on the
            # circumscribed one.
            reach = radius_km if degrees % 60 == 30 else radius_km * math.sqrt(3.0) / 2.0
            for factor in (1 - 1e-12, 1.0, 1 + 1e-12):
                x = cell.center.x + reach * factor * math.cos(math.radians(degrees))
                y = cell.center.y + reach * factor * math.sin(math.radians(degrees))
                assert not cell.inside_inscribed_circle(x, y)
                _agrees(network, x, y)


@given(
    rings=st.integers(0, 3),
    radius_km=st.floats(0.3, 3.0),
    x=st.floats(-25.0, 25.0),
    y=st.floats(-25.0, 25.0),
)
@settings(max_examples=300, deadline=None)
def test_inside_check_agrees_with_serving_cell_anywhere(rings, radius_km, x, y):
    _agrees(CellularNetwork(rings=rings, cell_radius_km=radius_km), x, y)


# -- decision routing --------------------------------------------------------

#: perfbench's net-mobility regime: 37 cells, 0.03 calls/s/cell, 900 s.
NET_MOBILITY = NetworkExperimentConfig(rings=3, arrival_rate_per_cell_per_s=0.03, duration_s=900.0)


def _new_and_handoff_requests(output) -> tuple[int, int]:
    metrics = output.result.metrics
    return metrics.requested - metrics.handoff_requests, metrics.handoff_requests


class TestRouting:
    def test_facs_decides_new_calls_in_blocks_and_asks_only_handoffs(self, controller_asks):
        output = NetworkSimulation(NET_MOBILITY, CONTROLLERS.get("FACS")()).run()
        new_calls, handoffs = _new_and_handoff_requests(output)
        assert handoffs > 0
        assert sum(controller_asks.decide_columns) == new_calls
        # Each cell's arrivals of the whole run fit one block.
        assert len(controller_asks.decide_columns) == 37
        assert controller_asks.accepts == [CallType.HANDOFF] * handoffs

    def test_other_controllers_are_asked_per_call(self, controller_asks):
        output = NetworkSimulation(NET_MOBILITY, CONTROLLERS.get("CS")()).run()
        new_calls, handoffs = _new_and_handoff_requests(output)
        assert controller_asks.decide_columns == []
        assert controller_asks.accepts.count(CallType.NEW) == new_calls
        assert controller_asks.accepts.count(CallType.HANDOFF) == handoffs


# -- the decision-path record ------------------------------------------------

_PATHS = re.compile(
    r"(?P<blocks>\d+) FACS blocks of (?P<rows>\d+) rows, (?P<screened>\d+) screened, "
    r"(?P<flc1>\d+) exact FLC1 rows, (?P<flc2>\d+) exact FLC2 rows, "
    r"(?P<unfit>\d+) new calls that did not fit, (?P<asked>\d+) new calls asked per call, "
    r"(?P<handoffs>\d+) handoffs asked per call"
)


def _path_counts(caplog) -> list[dict[str, int]]:
    records = [r for r in caplog.records if r.name == "repro.simulation.engine"]
    assert all(r.levelno == logging.DEBUG for r in records)
    return [
        {key: int(value) for key, value in _PATHS.search(r.getMessage()).groupdict().items()}
        for r in records
    ]


def _totals(counts: list[dict[str, int]]) -> dict[str, int]:
    return {key: sum(count[key] for count in counts) for key in counts[0]}


@pytest.mark.parametrize("name", ["FACS", "CS"])
def test_the_path_record_accounts_for_every_request(caplog, name):
    config = NetworkExperimentConfig(rings=1, arrival_rate_per_cell_per_s=0.3, duration_s=300.0)
    with caplog.at_level(logging.DEBUG, logger="repro.simulation.engine"):
        output = NetworkSimulation(config, CONTROLLERS.get(name)()).run()
    counts = _path_counts(caplog)
    assert len(counts) == 1
    new_calls, handoffs = _new_and_handoff_requests(output)
    (count,) = counts
    assert count["screened"] + count["flc2"] + count["unfit"] + count["asked"] == new_calls
    assert count["handoffs"] == handoffs > 0
    if name == "FACS":
        assert count["rows"] == new_calls
        assert count["asked"] == 0
        # Overload: some new calls find no free bandwidth.
        assert count["unfit"] > 0
        assert count["flc1"] <= count["rows"]
    else:
        assert count["blocks"] == count["rows"] == count["unfit"] == 0


def test_each_shard_records_its_paths(caplog):
    config = NetworkExperimentConfig(rings=1, arrival_rate_per_cell_per_s=0.1, duration_s=300.0)
    with caplog.at_level(logging.DEBUG, logger="repro.simulation.engine"):
        output = run_coupled_sharded_network_experiment(config, CONTROLLERS.get("FACS")())
    counts = _path_counts(caplog)
    assert len(counts) == 7
    totals = _totals(counts)
    new_calls, handoffs = _new_and_handoff_requests(output)
    assert totals["screened"] + totals["flc2"] + totals["unfit"] == totals["rows"] == new_calls
    assert totals["handoffs"] == handoffs > 0


def test_the_path_record_leaves_the_output_alone(caplog):
    config = NetworkExperimentConfig(rings=1, duration_s=300.0)
    factory = CONTROLLERS.get("FACS")()
    quiet = NetworkSimulation(config, factory).run()
    with caplog.at_level(logging.DEBUG, logger="repro.simulation.engine"):
        logged = NetworkSimulation(config, factory).run()
    assert logged == quiet
    assert _path_counts(caplog)
