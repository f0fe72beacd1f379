"""Unit tests for projective-plane and hierarchical topologies."""

import pytest

from repro.core.exceptions import TopologyError
from repro.topologies import HierarchicalTopology, ProjectivePlaneTopology
from repro.topologies.projective_plane import incidence, projective_points


class TestProjectivePoints:
    def test_point_count_formula(self):
        for k in (2, 3, 5):
            assert len(projective_points(k)) == k * k + k + 1

    def test_points_are_normalised_and_unique(self):
        points = projective_points(3)
        assert len(set(points)) == len(points)
        for point in points:
            first_nonzero = next(v for v in point if v != 0)
            assert first_nonzero == 1

    def test_non_prime_rejected(self):
        with pytest.raises(TopologyError):
            projective_points(4)
        with pytest.raises(TopologyError):
            projective_points(6)

    def test_incidence_symmetric_in_arguments(self):
        # p on l iff l on p (self-duality of the representation).
        points = projective_points(3)
        p, l = points[2], points[7]
        assert incidence(p, l, 3) == incidence(l, p, 3)


class TestProjectivePlaneTopology:
    def test_axioms_order_2_3_5(self):
        for k in (2, 3, 5):
            ProjectivePlaneTopology(k).verify_axioms()

    def test_lines_per_point_and_points_per_line(self):
        plane = ProjectivePlaneTopology(3)
        for point in plane.points:
            assert len(plane.lines_through(point)) == 4
        for line in plane.lines:
            assert len(plane.points_on_line(line)) == 4

    def test_two_lines_share_exactly_one_point(self):
        plane = ProjectivePlaneTopology(2)
        lines = plane.lines
        common = plane.common_point(lines[0], lines[1])
        assert common in plane.points_on_line(lines[0])
        assert common in plane.points_on_line(lines[1])

    def test_common_point_same_line_rejected(self):
        plane = ProjectivePlaneTopology(2)
        with pytest.raises(ValueError):
            plane.common_point(plane.lines[0], plane.lines[0])

    def test_unknown_point_or_line_rejected(self):
        plane = ProjectivePlaneTopology(2)
        with pytest.raises(ValueError):
            plane.points_on_line((9, 9, 9))
        with pytest.raises(ValueError):
            plane.lines_through((9, 9, 9))

    def test_graph_is_connected(self):
        assert ProjectivePlaneTopology(3).graph.is_connected()

    def test_fano_plane_size(self):
        assert ProjectivePlaneTopology(2).node_count == 7


class TestHierarchicalTopology:
    def test_node_count_is_product_of_branching(self):
        topo = HierarchicalTopology([3, 4, 2])
        assert topo.node_count == 24
        assert topo.levels == 3

    def test_uniform_factory(self):
        topo = HierarchicalTopology.uniform(3, 3)
        assert topo.node_count == 27
        assert topo.levels == 3

    def test_level_members_level1_is_cluster(self):
        topo = HierarchicalTopology([3, 2])
        node = (1, 2)
        members = topo.level_members(node, 1)
        assert members == [(1, 0), (1, 1), (1, 2)]

    def test_level_members_top_level_are_gateways(self):
        topo = HierarchicalTopology([3, 2])
        members = topo.level_members((1, 2), 2)
        assert members == [(0, 0), (1, 0)]

    def test_entry_point_chain(self):
        topo = HierarchicalTopology([2, 2, 2])
        node = (1, 1, 1)
        assert topo.entry_point(node, 1) == (1, 1, 1)
        assert topo.entry_point(node, 2) == (1, 1, 0)
        assert topo.entry_point(node, 3) == (1, 0, 0)

    def test_cluster_prefix(self):
        topo = HierarchicalTopology([2, 2, 2])
        assert topo.cluster_prefix((1, 0, 1), 1) == (1, 0)
        assert topo.cluster_prefix((1, 0, 1), 3) == ()

    def test_cluster_members_fully_connected(self):
        topo = HierarchicalTopology([3, 2])
        members = topo.level_members((0, 0), 1)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                assert topo.graph.has_edge(u, v)

    def test_gateways_fully_connected_at_top(self):
        topo = HierarchicalTopology([2, 3])
        gateways = topo.level_members((0, 0), 2)
        for i, u in enumerate(gateways):
            for v in gateways[i + 1 :]:
                assert topo.graph.has_edge(u, v)

    def test_subtree_leaves(self):
        topo = HierarchicalTopology([2, 3])
        leaves = topo.subtree_leaves((1,))
        assert leaves == [(1, 0), (1, 1)]

    def test_graph_connected(self):
        assert HierarchicalTopology([2, 2, 3]).graph.is_connected()

    def test_invalid_branching(self):
        with pytest.raises(TopologyError):
            HierarchicalTopology([1, 2])
        with pytest.raises(TopologyError):
            HierarchicalTopology([])

    def test_unknown_node_rejected(self):
        topo = HierarchicalTopology([2, 2])
        with pytest.raises(ValueError):
            topo.cluster_prefix((9, 9), 1)
