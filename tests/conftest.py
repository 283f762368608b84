"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations


import pytest

from repro.graph import generators
from repro.analysis.verification import verify_dispersion, check_memory_bound


def topology_zoo():
    """(name, graph-factory, k) triples: trees of every shape the generators
    build, sparse and dense cyclic graphs, and one world with ``k < n``."""
    return [
        ("line", lambda: generators.line(24), 24),
        ("ring", lambda: generators.ring(20), 20),
        ("star", lambda: generators.star(22), 22),
        ("binary_tree", lambda: generators.binary_tree(4), 31),
        ("random_tree", lambda: generators.random_tree(30, seed=5), 30),
        ("caterpillar", lambda: generators.caterpillar(6, 3), 24),
        ("broom", lambda: generators.broom(8, 12), 20),
        ("spider", lambda: generators.spider(4, 5), 21),
        ("grid", lambda: generators.grid2d(5, 5), 25),
        ("hypercube", lambda: generators.hypercube(5), 32),
        ("erdos_renyi", lambda: generators.erdos_renyi(36, 0.14, seed=3), 36),
        ("complete", lambda: generators.complete(14), 14),
        ("lollipop", lambda: generators.lollipop(8, 10), 18),
        ("partial_k", lambda: generators.erdos_renyi(40, 0.12, seed=11), 25),
    ]


def assert_valid_result(graph, result, agents=None, memory_constant: float = 40.0):
    """Common success criteria: valid dispersion + memory within a constant·log."""
    assert result.dispersed, f"{result.algorithm} did not disperse"
    positions = list(result.positions.values())
    assert len(positions) == len(set(positions)), "two agents share a node"
    for node in positions:
        assert 0 <= node < graph.num_nodes
    if agents is not None:
        verify_dispersion(graph, list(agents))
        msg = check_memory_bound(
            list(agents), k=len(list(agents)), max_degree=graph.max_degree, constant=memory_constant
        )
        assert msg is None, msg


@pytest.fixture(scope="session")
def small_line():
    return generators.line(12)


@pytest.fixture(scope="session")
def small_tree():
    return generators.random_tree(20, seed=1)
