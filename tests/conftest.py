"""Shared fixtures for the test suite."""

import random

import pytest

from repro.core.types import Port
from repro.network.graph import Graph
from repro.topologies import (
    CompleteTopology,
    HypercubeTopology,
    ManhattanTopology,
    RingTopology,
)


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return random.Random(12345)


@pytest.fixture
def port():
    """A generic service port."""
    return Port("test-service")


@pytest.fixture
def small_complete():
    """A 9-node complete topology (the size of the paper's examples)."""
    return CompleteTopology(9)


@pytest.fixture
def grid5():
    """A 5x5 Manhattan grid."""
    return ManhattanTopology.square(5)


@pytest.fixture
def cube3():
    """The binary 3-cube of Example 6."""
    return HypercubeTopology(3)


@pytest.fixture
def ring12():
    """A 12-node ring."""
    return RingTopology(12)


@pytest.fixture
def path_graph():
    """A 6-node path graph 0-1-2-3-4-5."""
    return Graph(nodes=range(6), edges=[(i, i + 1) for i in range(5)])
