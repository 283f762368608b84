"""Unit and property tests for the anonymous port-labeled graph substrate."""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import generators
from repro.graph.port_graph import PortAssignment, PortLabeledGraph

from tests.port_graph_reference import rewire_via_rebuild


# --------------------------------------------------------------------- basics
class TestConstruction:
    def test_single_node(self):
        g = PortLabeledGraph([[]])
        assert g.num_nodes == 1
        assert g.num_edges == 0
        assert g.max_degree == 0

    def test_simple_triangle(self):
        g = PortLabeledGraph([[1, 2], [0, 2], [0, 1]])
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert g.max_degree == 2
        assert g.degree(0) == 2

    def test_ports_are_one_based(self):
        g = PortLabeledGraph([[1], [0]])
        assert g.neighbor(0, 1) == 1
        with pytest.raises(ValueError):
            g.neighbor(0, 0)
        with pytest.raises(ValueError):
            g.neighbor(0, 2)

    def test_reverse_port_round_trip(self):
        g = generators.grid2d(3, 4)
        for v in g.nodes():
            for p in g.ports(v):
                u = g.neighbor(v, p)
                q = g.reverse_port(v, p)
                assert g.neighbor(u, q) == v
                assert g.reverse_port(u, q) == p

    def test_port_to_inverse_of_neighbor(self):
        g = generators.random_tree(15, seed=3)
        for v in g.nodes():
            for p in g.ports(v):
                u = g.neighbor(v, p)
                assert g.port_to(v, u) == p

    def test_port_to_non_neighbor_raises(self):
        g = generators.line(4)
        with pytest.raises(ValueError):
            g.port_to(0, 3)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            PortLabeledGraph([[0, 1], [0]])

    def test_parallel_edge_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            PortLabeledGraph([[1, 1], [0, 0]])

    def test_asymmetric_edge_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            PortLabeledGraph([[1], []])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            PortLabeledGraph([[1], [0], [3], [2]])

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(ValueError):
            PortLabeledGraph([[5], [0]])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            PortLabeledGraph([])

    def test_neighbors_in_port_order(self):
        g = PortLabeledGraph([[2, 1], [0], [0]])
        assert g.neighbors(0) == [2, 1]
        assert g.neighbor(0, 1) == 2
        assert g.neighbor(0, 2) == 1

    def test_edges_iteration(self):
        g = generators.ring(5)
        edges = set(g.edges())
        assert len(edges) == 5
        assert all(u < v for u, v in edges)


class TestAssignments:
    def test_random_assignment_is_permutation(self):
        g = generators.star(20, assignment=PortAssignment.RANDOM, seed=7)
        g.validate()
        hub_neighbors = sorted(g.neighbors(0))
        assert hub_neighbors == list(range(1, 20))

    def test_random_assignment_seeded_reproducible(self):
        g1 = generators.erdos_renyi(20, 0.3, seed=2, assignment=PortAssignment.RANDOM)
        g2 = generators.erdos_renyi(20, 0.3, seed=2, assignment=PortAssignment.RANDOM)
        for v in g1.nodes():
            assert g1.neighbors(v) == g2.neighbors(v)

    def test_async_safe_constraint_holds(self):
        g = generators.erdos_renyi(30, 0.25, seed=4, assignment=PortAssignment.ASYNC_SAFE)
        g.validate()
        for v in g.nodes():
            for p in g.ports(v):
                u = g.neighbor(v, p)
                q = g.reverse_port(v, p)
                if p <= 2 and q <= 2:
                    # One endpoint must fall under the degree exception.
                    assert (p == 1 and g.degree(v) == 1) or (p == 2 and g.degree(v) == 2) or (
                        q == 1 and g.degree(u) == 1
                    ) or (q == 2 and g.degree(u) == 2)

    def test_async_safe_on_line_uses_exceptions(self):
        # Degree-1 and degree-2 nodes fall under the paper's explicit exceptions.
        g = generators.line(6, assignment=PortAssignment.ASYNC_SAFE, seed=0)
        g.validate()


class TestAnalysisHelpers:
    def test_bfs_distances_line(self):
        g = generators.line(6)
        assert g.bfs_distances(0) == [0, 1, 2, 3, 4, 5]

    def test_diameter(self):
        assert generators.line(7).diameter() == 6
        assert generators.ring(8).diameter() == 4
        assert generators.star(9).diameter() == 2
        assert generators.complete(5).diameter() == 1

    def test_is_tree(self):
        assert generators.random_tree(17, seed=0).is_tree()
        assert not generators.ring(5).is_tree()

    def test_validate_passes_on_zoo(self):
        for gen in (generators.line(9), generators.grid2d(3, 3), generators.hypercube(3)):
            gen.validate()


# --------------------------------------------------------------------- rewire
class TestRewire:
    """The incremental ``rewire`` (patching only renumbered rows) must be
    indistinguishable from the full-rebuild path it replaced --
    ``tests/port_graph_reference.py`` keeps that path as the oracle."""

    def test_remove_nonexistent_edge_message(self):
        g = generators.ring(5)
        with pytest.raises(ValueError, match="cannot remove nonexistent edge"):
            g.rewire(remove=(0, 2))

    def test_add_existing_edge_message(self):
        g = generators.ring(5)
        with pytest.raises(ValueError, match="cannot add existing edge"):
            g.rewire(add=(0, 1))

    def test_add_invalid_edge_message(self):
        g = generators.ring(5)
        with pytest.raises(ValueError, match="cannot add invalid edge"):
            g.rewire(add=(2, 2))
        with pytest.raises(ValueError, match="cannot add invalid edge"):
            g.rewire(add=(0, 9))

    def test_bridge_removal_without_replacement_disconnects(self):
        g = generators.line(4)
        with pytest.raises(ValueError, match="would disconnect the graph"):
            g.rewire(remove=(1, 2))

    def test_bridge_removal_with_cut_crossing_add_succeeds(self):
        g = generators.line(4)
        g.rewire(remove=(1, 2), add=(0, 3))
        g.validate()
        assert g.num_edges == 3
        assert 3 in g.neighbors(0)

    def test_readding_the_removed_pair_is_legal(self):
        g = generators.ring(6)
        before = sorted(g.neighbors(0))
        g.rewire(remove=(0, 1), add=(0, 1))
        g.validate()
        assert sorted(g.neighbors(0)) == before
        assert g.churn_count == 1

    def test_failed_rewire_leaves_the_graph_untouched(self):
        g = generators.grid2d(3, 3)
        before = [g.neighbors(v) for v in g.nodes()]
        with pytest.raises(ValueError):
            g.rewire(remove=(0, 8))
        assert [g.neighbors(v) for v in g.nodes()] == before
        assert g.churn_count == 0


def _rewire_observable(g):
    """Everything a rewire may change, in port order."""
    return {
        "neighbors": [g.neighbors(v) for v in g.nodes()],
        "reverse": [[g.reverse_port(v, p) for p in g.ports(v)] for v in g.nodes()],
        "degrees": [g.degree(v) for v in g.nodes()],
        "edges": g.num_edges,
        "churn": g.churn_count,
    }


def _try_rewire(method, remove, add):
    try:
        method(remove=remove, add=add)
        return ("ok", None)
    except ValueError as err:
        return ("ValueError", str(err))


# ----------------------------------------------------------------- properties
@st.composite
def random_connected_graph(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    extra = draw(st.integers(min_value=0, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    import random

    rng = random.Random(seed)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(extra):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return generators.from_edges(n, sorted(edges))


@settings(max_examples=60, deadline=None)
@given(random_connected_graph())
def test_property_reverse_ports_consistent(graph):
    graph.validate()
    for v in graph.nodes():
        assert sorted(graph.neighbors(v)) == sorted(
            graph.neighbor(v, p) for p in graph.ports(v)
        )


@settings(max_examples=40, deadline=None)
@given(random_connected_graph())
def test_property_handshake_lemma(graph):
    assert sum(graph.degree(v) for v in graph.nodes()) == 2 * graph.num_edges


@settings(max_examples=30, deadline=None)
@given(random_connected_graph(), st.integers(min_value=0, max_value=10_000))
def test_property_random_assignment_preserves_structure(graph, seed):
    adjacency = [graph.neighbors(v) for v in graph.nodes()]
    shuffled = PortLabeledGraph(adjacency, assignment=PortAssignment.RANDOM, seed=seed)
    shuffled.validate()
    assert shuffled.num_edges == graph.num_edges
    for v in graph.nodes():
        assert sorted(shuffled.neighbors(v)) == sorted(graph.neighbors(v))


@settings(max_examples=30, deadline=None)
@given(random_connected_graph(), st.integers(min_value=0, max_value=10_000))
def test_property_incremental_rewire_matches_rebuild_oracle(graph, seed):
    """Random churn sequences (legal rewirings, re-adds, bridge removals,
    invalid drawings) give byte-identical port tables *and* identical error
    text on the incremental path and the rebuild oracle."""
    import random

    rng = random.Random(seed)
    adjacency = [graph.neighbors(v) for v in graph.nodes()]
    fast = PortLabeledGraph([list(row) for row in adjacency])
    slow = PortLabeledGraph([list(row) for row in adjacency])
    for _ in range(8):
        removable = fast.removable_edges()
        missing = fast.missing_edges()
        edges = list(fast.edges())
        remove = add = None
        choice = rng.random()
        if choice < 0.3 and removable:
            remove = removable[rng.randrange(len(removable))]
            if rng.random() < 0.3:
                add = remove  # re-adding the removed pair is legal
            elif missing and rng.random() < 0.8:
                add = missing[rng.randrange(len(missing))]
        elif choice < 0.5 and missing:
            add = missing[rng.randrange(len(missing))]
        elif choice < 0.7:
            if rng.random() < 0.5:  # likely-nonexistent removal
                remove = (rng.randrange(fast.num_nodes), rng.randrange(fast.num_nodes))
            else:  # already-present addition
                add = edges[rng.randrange(len(edges))]
        else:  # arbitrary removal: bridges must fail identically
            remove = edges[rng.randrange(len(edges))]
            if missing and rng.random() < 0.5:
                add = missing[rng.randrange(len(missing))]
        assert _try_rewire(fast.rewire, remove, add) == _try_rewire(
            functools.partial(rewire_via_rebuild, slow), remove, add
        ), f"diverged on -{remove} +{add}"
        assert _rewire_observable(fast) == _rewire_observable(slow)
    fast.validate()
