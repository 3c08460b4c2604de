"""Tests for bandwidth ledgers, base stations, cells and the hex network."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, strategies as st

from repro.cellular.cell import BandwidthLedger, BaseStation, Cell, InsufficientBandwidthError
from repro.cellular.calls import Call
from repro.cellular.geometry import HexCoordinate, Point
from repro.cellular.network import CellularNetwork, hex_cell_count
from repro.cellular.traffic import ServiceClass


def make_call(bandwidth: int, service: ServiceClass = ServiceClass.VOICE) -> Call:
    return Call(service=service, bandwidth_units=bandwidth)


class TestBandwidthLedger:
    def test_allocation_and_release(self):
        ledger = BandwidthLedger(capacity_bu=40)
        call = make_call(5)
        ledger.allocate(call)
        assert ledger.used_bu == 5
        assert ledger.free_bu == 35
        assert ledger.occupancy == pytest.approx(5 / 40)
        assert ledger.release(call) == 5
        assert ledger.used_bu == 0

    def test_real_time_split(self):
        ledger = BandwidthLedger(capacity_bu=40)
        voice = make_call(5, ServiceClass.VOICE)
        text = make_call(1, ServiceClass.TEXT)
        video = make_call(10, ServiceClass.VIDEO)
        for call in (voice, text, video):
            ledger.allocate(call)
        assert ledger.real_time_bu == 15
        assert ledger.non_real_time_bu == 1
        assert ledger.active_calls == 3

    def test_over_allocation_rejected(self):
        ledger = BandwidthLedger(capacity_bu=10)
        ledger.allocate(make_call(8))
        with pytest.raises(InsufficientBandwidthError):
            ledger.allocate(make_call(5))

    def test_duplicate_allocation_rejected(self):
        ledger = BandwidthLedger(capacity_bu=10)
        call = make_call(2)
        ledger.allocate(call)
        with pytest.raises(ValueError):
            ledger.allocate(call)

    def test_release_unknown_call_rejected(self):
        ledger = BandwidthLedger(capacity_bu=10)
        with pytest.raises(KeyError):
            ledger.release(make_call(1))

    def test_can_fit_validation(self):
        ledger = BandwidthLedger(capacity_bu=10)
        assert ledger.can_fit(10)
        assert not ledger.can_fit(11)
        with pytest.raises(ValueError):
            ledger.can_fit(0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BandwidthLedger(capacity_bu=0)

    @given(
        capacity=st.integers(1, 60),
        steps=st.lists(
            st.tuples(st.booleans(), st.integers(1, 12), st.sampled_from(list(ServiceClass))),
            max_size=60,
        ),
    )
    def test_running_total_equals_the_allocation_sums(self, capacity, steps):
        # Each step allocates a new call when it fits, or releases the
        # oldest one; every reader must agree with sums over the ledger.
        ledger = BandwidthLedger(capacity_bu=capacity)
        held: deque[Call] = deque()
        for allocate, bandwidth, service in steps:
            if allocate and ledger.can_fit(bandwidth):
                held.append(make_call(bandwidth, service))
                ledger.allocate(held[-1])
            elif held:
                call = held.popleft()
                assert ledger.release(call) == call.bandwidth_units
            used = sum(call.bandwidth_units for call in held)
            real_time = sum(call.bandwidth_units for call in held if call.is_real_time)
            assert ledger.used_bu == used
            assert ledger.free_bu == capacity - used
            assert ledger.occupancy == used / capacity
            assert ledger.real_time_bu == real_time
            assert ledger.non_real_time_bu == used - real_time
            assert ledger.active_calls == len(held)

    def test_allocation_for(self):
        ledger = BandwidthLedger(capacity_bu=10)
        call = make_call(3)
        assert ledger.allocation_for(call.call_id) == 0
        ledger.allocate(call)
        assert ledger.allocation_for(call.call_id) == 3


class TestBaseStationAndCell:
    def test_default_capacity_is_paper_value(self):
        assert BaseStation().capacity_bu == 40

    def test_station_passthroughs(self):
        station = BaseStation(capacity_bu=20)
        call = make_call(5)
        assert station.can_fit(5)
        station.allocate(call)
        assert station.used_bu == 5 and station.free_bu == 15
        assert station.occupancy == pytest.approx(0.25)
        station.release(call)
        assert station.used_bu == 0

    def test_cell_contains_its_center(self):
        cell = Cell(HexCoordinate(1, -1), radius_km=2.0)
        assert cell.contains(cell.center)

    def test_cell_does_not_contain_far_point(self):
        cell = Cell(HexCoordinate(0, 0), radius_km=2.0)
        assert not cell.contains(Point(100.0, 100.0))

    def test_cell_distance_to(self):
        cell = Cell(HexCoordinate(0, 0), radius_km=2.0)
        assert cell.distance_to(Point(3.0, 4.0)) == pytest.approx(5.0)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            Cell(HexCoordinate(0, 0), radius_km=0.0)


class TestCellularNetwork:
    def test_cell_counts_by_rings(self):
        assert CellularNetwork(rings=0).cell_count == 1
        assert CellularNetwork(rings=1).cell_count == 7
        assert CellularNetwork(rings=2).cell_count == 19

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CellularNetwork(rings=-1)
        with pytest.raises(ValueError):
            CellularNetwork(cell_radius_km=0.0)

    def test_center_cell_has_six_neighbors(self):
        network = CellularNetwork(rings=2)
        assert len(network.neighbors(network.center_cell.cell_id)) == 6

    def test_corner_cells_have_fewer_neighbors(self):
        network = CellularNetwork(rings=1)
        neighbor_counts = [len(network.neighbors(cell.cell_id)) for cell in network]
        assert min(neighbor_counts) == 3
        assert max(neighbor_counts) == 6

    def test_cell_lookup(self):
        network = CellularNetwork(rings=1)
        cell = network.cells[0]
        assert network.cell(cell.cell_id) is cell
        with pytest.raises(KeyError):
            network.cell(999)

    def test_cell_at_coordinate(self):
        network = CellularNetwork(rings=1)
        assert network.cell_at(HexCoordinate(0, 0)) is network.center_cell
        assert network.cell_at(HexCoordinate(5, 5)) is None

    def test_serving_cell_for_position(self):
        network = CellularNetwork(rings=2, cell_radius_km=2.0)
        for cell in network:
            assert network.serving_cell(cell.center) is cell

    def test_serving_cell_outside_coverage(self):
        network = CellularNetwork(rings=1, cell_radius_km=2.0)
        assert network.serving_cell(Point(1000.0, 1000.0)) is None

    def test_nearest_cell_always_returns(self):
        network = CellularNetwork(rings=1, cell_radius_km=2.0)
        assert network.nearest_cell(Point(1000.0, 1000.0)) is not None

    def test_neighbor_relation_is_symmetric(self):
        network = CellularNetwork(rings=2)
        for cell in network:
            for neighbor in network.neighbors(cell.cell_id):
                assert network.are_neighbors(neighbor.cell_id, cell.cell_id)

    def test_hop_distance(self):
        network = CellularNetwork(rings=2)
        center = network.center_cell.cell_id
        for neighbor in network.neighbors(center):
            assert network.hop_distance(center, neighbor.cell_id) == 1
        assert network.hop_distance(center, center) == 0

    def test_total_used_bu(self):
        network = CellularNetwork(rings=1)
        call = make_call(10)
        network.center_cell.base_station.allocate(call)
        assert network.total_used_bu() == 10

    def test_unknown_neighbor_lookup(self):
        network = CellularNetwork(rings=1)
        with pytest.raises(KeyError):
            network.neighbors(12345)
        with pytest.raises(KeyError):
            network.hop_distance(1, 12345)
        with pytest.raises(KeyError):
            network.hop_distance(12345, 1)
        assert not network.are_neighbors(1, 12345)
        assert not network.are_neighbors(12345, 1)

    @pytest.mark.parametrize("rings", [0, 1, 2, 3])
    def test_neighbor_lists_are_sorted_and_symmetric(self, rings):
        network = CellularNetwork(rings=rings)
        adjacency = {
            cell.cell_id: [n.cell_id for n in network.neighbors(cell.cell_id)]
            for cell in network
        }
        for cell_id, neighbor_ids in adjacency.items():
            assert neighbor_ids == sorted(neighbor_ids)
            assert cell_id not in neighbor_ids
            for other in neighbor_ids:
                assert cell_id in adjacency[other]
                assert network.are_neighbors(cell_id, other)

    @pytest.mark.parametrize("rings", [0, 1, 2, 3])
    def test_hop_distance_is_breadth_first_path_length(self, rings):
        network = CellularNetwork(rings=rings)
        for source in network:
            # Unweighted shortest paths over neighbors(): what a graph
            # library's shortest-path length returns for this layout.
            depth = {source.cell_id: 0}
            frontier = deque([source.cell_id])
            while frontier:
                current = frontier.popleft()
                for neighbor in network.neighbors(current):
                    if neighbor.cell_id not in depth:
                        depth[neighbor.cell_id] = depth[current] + 1
                        frontier.append(neighbor.cell_id)
            assert len(depth) == network.cell_count
            for target in network:
                hops = network.hop_distance(source.cell_id, target.cell_id)
                assert hops == depth[target.cell_id]
        cell_ids = [cell.cell_id for cell in network]
        diameter = max(network.hop_distance(a, b) for a in cell_ids for b in cell_ids)
        assert diameter == 2 * rings

    def test_iteration_and_len(self):
        network = CellularNetwork(rings=1)
        assert len(list(network)) == len(network) == 7


@pytest.mark.parametrize("rings,cells", [(0, 1), (1, 7), (2, 19)])
def test_cell_counts(rings, cells):
    assert hex_cell_count(rings) == cells
    assert CellularNetwork(rings=rings).cell_count == cells
