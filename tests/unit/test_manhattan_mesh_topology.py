"""Unit tests for Manhattan grid / torus / d-dimensional mesh topologies."""

import pytest
from oracle.graph import diameter

from repro.core.exceptions import TopologyError
from repro.topologies import ManhattanTopology, MeshTopology


class TestManhattanGrid:
    def test_node_count(self):
        assert ManhattanTopology(3, 4).node_count == 12

    def test_corner_degrees(self):
        grid = ManhattanTopology(3, 3)
        assert grid.graph.degree((0, 0)) == 2
        assert grid.graph.degree((1, 1)) == 4
        assert grid.graph.degree((0, 1)) == 3

    def test_row_and_column_helpers(self):
        grid = ManhattanTopology(3, 4)
        assert grid.row_of((1, 2)) == [(1, c) for c in range(4)]
        assert grid.column_of((1, 2)) == [(r, 2) for r in range(3)]

    def test_square_factory(self):
        grid = ManhattanTopology.square(5)
        assert len(grid.row_of((0, 0))) == len(grid.column_of((0, 0))) == 5
        assert grid.node_count == 25

    def test_diameter(self):
        assert diameter(ManhattanTopology(3, 3).graph) == 4

    def test_torus_degrees(self):
        torus = ManhattanTopology(4, 4, wrap=True)
        assert all(torus.graph.degree(node) == 4 for node in torus.nodes())

    def test_torus_diameter_smaller_than_grid(self):
        grid = ManhattanTopology(5, 5)
        torus = ManhattanTopology(5, 5, wrap=True)
        assert diameter(torus.graph) < diameter(grid.graph)

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            ManhattanTopology(1, 1)

    def test_single_row_grid_is_path(self):
        line = ManhattanTopology(1, 6)
        assert line.node_count == 6
        assert diameter(line.graph) == 5


class TestMeshTopology:
    def test_node_count_product_of_sides(self):
        mesh = MeshTopology([2, 3, 4])
        assert mesh.node_count == 24
        assert mesh.dimensions == 3

    def test_interior_degree_is_2d(self):
        mesh = MeshTopology([5, 5, 5])
        assert mesh.graph.degree((2, 2, 2)) == 6

    def test_corner_degree_is_d(self):
        mesh = MeshTopology([3, 3, 3])
        assert mesh.graph.degree((0, 0, 0)) == 3

    def test_wrap_makes_degree_uniform(self):
        mesh = MeshTopology([4, 4, 4], wrap=True)
        assert all(mesh.graph.degree(node) == 6 for node in mesh.nodes())

    def test_slice_through_counts(self):
        mesh = MeshTopology([3, 4, 5])
        plane = mesh.slice_through((1, 1, 1), free_axes=[1, 2])
        assert len(plane) == 4 * 5
        line = mesh.slice_through((1, 1, 1), free_axes=[0])
        assert len(line) == 3
        assert (1, 1, 1) in plane and (1, 1, 1) in line

    def test_slice_invalid_axis(self):
        mesh = MeshTopology([3, 3])
        with pytest.raises(ValueError):
            mesh.slice_through((0, 0), free_axes=[5])

    def test_two_dimensional_mesh_matches_manhattan(self):
        mesh = MeshTopology([4, 4])
        manhattan = ManhattanTopology(4, 4)
        assert mesh.node_count == manhattan.node_count
        assert len(mesh.graph.edges) == len(manhattan.graph.edges)

    def test_invalid_sides(self):
        with pytest.raises(TopologyError):
            MeshTopology([])
        with pytest.raises(TopologyError):
            MeshTopology([1])
        with pytest.raises(TopologyError):
            MeshTopology([0, 3])
