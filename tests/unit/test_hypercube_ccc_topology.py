"""Unit tests for hypercube and cube-connected-cycles topologies."""

import pytest
from oracle.graph import diameter

from repro.core.exceptions import TopologyError
from repro.topologies import CubeConnectedCyclesTopology, HypercubeTopology, bit_strings


class TestBitStrings:
    def test_count_and_width(self):
        strings = bit_strings(4)
        assert len(strings) == 16
        assert all(len(s) == 4 for s in strings)

    def test_order_is_numeric(self):
        assert bit_strings(2) == ["00", "01", "10", "11"]

    def test_zero_dimensions(self):
        assert bit_strings(0) == [""]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bit_strings(-1)


class TestHypercubeTopology:
    def test_node_and_edge_counts(self):
        # n = 2^d, #E = d * 2^(d-1) as stated in section 3.2.
        cube = HypercubeTopology(4)
        assert cube.node_count == 16
        assert len(cube.graph.edges) == 4 * 2**3

    def test_every_degree_is_d(self):
        cube = HypercubeTopology(5)
        assert all(cube.graph.degree(node) == 5 for node in cube.nodes())

    def test_neighbours_differ_in_one_bit(self):
        cube = HypercubeTopology(4)
        for neighbour in cube.graph.neighbours("0101"):
            differing = sum(a != b for a, b in zip("0101", neighbour))
            assert differing == 1

    def test_diameter_is_d(self):
        assert diameter(HypercubeTopology(4).graph) == 4

    def test_subcube_by_suffix(self, cube3):
        sub = cube3.subcube(fixed_suffix="11")
        assert sorted(sub) == ["011", "111"]

    def test_subcube_by_prefix(self, cube3):
        sub = cube3.subcube(fixed_prefix="0")
        assert sorted(sub) == ["000", "001", "010", "011"]

    def test_subcube_prefix_and_suffix(self, cube3):
        assert cube3.subcube(fixed_prefix="0", fixed_suffix="11") == ["011"]

    def test_subcube_invalid_inputs(self, cube3):
        with pytest.raises(ValueError):
            cube3.subcube(fixed_prefix="0000")
        with pytest.raises(ValueError):
            cube3.subcube(fixed_prefix="2")

    def test_expected_match_cost_balanced(self):
        cube = HypercubeTopology(6)
        # Balanced split: 2*sqrt(n) = 2*8 = 16.
        assert cube.expected_match_cost(3) == 16
        # Extreme splits: broadcast-like.
        assert cube.expected_match_cost(0) == 64 + 1
        assert cube.expected_match_cost(6) == 1 + 64

    def test_minimum_dimension(self):
        with pytest.raises(TopologyError):
            HypercubeTopology(0)


class TestCubeConnectedCycles:
    def test_node_count_d_times_2_pow_d(self):
        ccc = CubeConnectedCyclesTopology(3)
        assert ccc.node_count == 3 * 8

    def test_degree_at_most_three(self):
        ccc = CubeConnectedCyclesTopology(4)
        assert all(ccc.graph.degree(node) <= 3 for node in ccc.nodes())
        assert all(ccc.graph.degree(node) == 3 for node in ccc.nodes())

    def test_cycle_of_corner(self):
        ccc = CubeConnectedCyclesTopology(3)
        cycle = ccc.cycle_of("101")
        assert len(cycle) == 3
        assert all(corner == "101" for _, corner in cycle)

    def test_cycle_nodes_connected_in_ring(self):
        ccc = CubeConnectedCyclesTopology(4)
        cycle = ccc.cycle_of("0000")
        for index in range(4):
            assert ccc.graph.has_edge(cycle[index], cycle[(index + 1) % 4])

    def test_cube_edge_connects_matching_positions(self):
        ccc = CubeConnectedCyclesTopology(3)
        # Node (1, 000) connects across dimension 1 to (1, 010).
        assert ccc.graph.has_edge((1, "000"), (1, "010"))
        assert not ccc.graph.has_edge((1, "000"), (1, "001"))

    def test_corner_filters(self):
        ccc = CubeConnectedCyclesTopology(4)
        assert len(ccc.corners_with_suffix("01")) == 4
        assert len(ccc.corners_with_prefix("1")) == 8
        assert all(c.endswith("01") for c in ccc.corners_with_suffix("01"))

    def test_invalid_inputs(self):
        ccc = CubeConnectedCyclesTopology(3)
        with pytest.raises(ValueError):
            ccc.cycle_of("0102")
        with pytest.raises(ValueError):
            ccc.corners_with_suffix("00000")
        with pytest.raises(TopologyError):
            CubeConnectedCyclesTopology(1)

    def test_connected(self):
        assert CubeConnectedCyclesTopology(3).graph.is_connected()
