"""Property-based tests for :mod:`repro.graph` (port bijection, handshake,
CSR-vs-dict accessor agreement) on arbitrary generated graphs.

Uses Hypothesis when installed; otherwise the same properties run over a
seeded random sweep of equal size, so the suite gives identical coverage in
minimal environments (the ``std-random`` fallback the roadmap asks for).
"""

from __future__ import annotations

import random

from repro.graph import generators
from repro.graph.port_graph import PortAssignment, PortLabeledGraph

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

CASES = 40


def arbitrary_cases(**ranges):
    """Drive a test from Hypothesis, or from a seeded sweep without it.

    ``ranges`` maps parameter name to an inclusive ``(low, high)`` int range.
    The decorated function must accept exactly those keyword parameters.
    """

    def decorate(fn):
        if HAVE_HYPOTHESIS:
            strategies = {
                name: st.integers(low, high) for name, (low, high) in ranges.items()
            }
            wrapped = given(**strategies)(fn)
            return settings(
                max_examples=CASES,
                deadline=None,
                suppress_health_check=[HealthCheck.too_slow],
            )(wrapped)

        def sweep():
            rng = random.Random(0xD15BE125E)
            for _ in range(CASES):
                fn(**{name: rng.randint(low, high) for name, (low, high) in ranges.items()})

        sweep.__name__ = fn.__name__
        sweep.__doc__ = fn.__doc__
        return sweep

    return decorate


def random_connected_graph(n: int, extra_percent: int, seed: int, assignment: PortAssignment):
    """Random connected simple graph: a random tree plus extra random edges."""
    rng = random.Random(seed)
    adjacency = [[] for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adjacency[v].append(u)
        adjacency[u].append(v)
    non_edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if v not in adjacency[u]
    ]
    rng.shuffle(non_edges)
    for u, v in non_edges[: len(non_edges) * extra_percent // 100]:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return PortLabeledGraph(adjacency, assignment=assignment, seed=seed)


def assert_port_contract(graph: PortLabeledGraph) -> None:
    """The full port-labeled-graph contract, checked accessor against accessor.

    * ports at every node are exactly ``1..deg`` (bijection),
    * degree handshake: ``sum(deg) == 2m``,
    * the accessors that read the flat CSR arrays (``neighbors``'s row
      slice, ``neighbor``/``reverse_port``/``move``) agree with each other
      and with the dict-based ``port_to``,
    * reverse ports are mutually consistent across each edge.
    """
    degree_sum = 0
    for v in range(graph.num_nodes):
        deg = graph.degree(v)
        degree_sum += deg
        assert list(graph.ports(v)) == list(range(1, deg + 1))
        neighbors = graph.neighbors(v)
        assert len(set(neighbors)) == deg and v not in neighbors  # simple graph
        for port in graph.ports(v):
            u = graph.neighbor(v, port)
            q = graph.reverse_port(v, port)
            assert neighbors[port - 1] == u
            assert graph.move(v, port) == (u, q)
            assert graph.port_to(v, u) == port  # dict accessor agrees with CSR
            assert graph.neighbor(u, q) == v and graph.reverse_port(u, q) == port
    assert degree_sum == 2 * graph.num_edges
    graph.validate()


# ------------------------------------------------------------------ properties
@arbitrary_cases(n=(2, 34), extra_percent=(0, 30), seed=(0, 2**32 - 1))
def test_arbitrary_graphs_satisfy_port_contract(n, extra_percent, seed):
    for assignment in (PortAssignment.ADJACENCY, PortAssignment.RANDOM):
        graph = random_connected_graph(n, extra_percent, seed, assignment)
        assert graph.num_nodes == n
        assert graph.num_edges >= n - 1  # connected
        assert_port_contract(graph)


@arbitrary_cases(choice=(0, 10), size=(2, 24), seed=(0, 2**32 - 1))
def test_generator_zoo_satisfies_port_contract(choice, size, seed):
    """Every generator family yields a graph honoring the port contract."""
    assignment = PortAssignment.RANDOM if seed % 2 else PortAssignment.ADJACENCY
    builders = [
        lambda: generators.line(size, assignment=assignment, seed=seed),
        lambda: generators.ring(size + 2, assignment=assignment, seed=seed),
        lambda: generators.star(size + 1, assignment=assignment, seed=seed),
        lambda: generators.complete(min(size + 1, 12), assignment=assignment, seed=seed),
        lambda: generators.binary_tree(min(size % 5 + 1, 4), assignment=assignment, seed=seed),
        lambda: generators.random_tree(size, seed=seed % 1000, assignment=assignment),
        lambda: generators.caterpillar(max(size // 3, 1), 2, assignment=assignment, seed=seed),
        lambda: generators.broom(max(size // 2, 1), max(size // 2, 1), assignment=assignment, seed=seed),
        lambda: generators.spider(max(size % 5, 1), max(size // 4, 1), assignment=assignment, seed=seed),
        lambda: generators.grid2d(size % 5 + 1, size % 7 + 1, assignment=assignment, seed=seed),
        lambda: generators.erdos_renyi(size, (seed % 35) / 100.0, seed=seed % 1000, assignment=assignment),
    ]
    graph = builders[choice]()
    assert_port_contract(graph)


@arbitrary_cases(n=(3, 24), extra_percent=(0, 40), seed=(0, 2**32 - 1))
def test_contract_survives_random_churn(n, extra_percent, seed):
    """Port bijection and CSR/dict agreement hold after every rewire event."""
    graph = random_connected_graph(n, extra_percent, seed, PortAssignment.RANDOM)
    rng = random.Random(seed ^ 0xC0FFEE)
    for _ in range(6):
        removable = graph.removable_edges()
        missing = graph.missing_edges()
        remove = rng.choice(sorted(removable)) if removable else None
        add = rng.choice(sorted(missing)) if missing else None
        if remove is None and add is None:
            break
        graph.rewire(remove=remove, add=add)
        assert_port_contract(graph)
    assert graph.churn_count > 0 or (not graph.removable_edges() and not graph.missing_edges())


@arbitrary_cases(n=(2, 24), seed=(0, 2**32 - 1))
def test_bfs_distances_match_edge_structure(n, seed):
    """Neighbors are exactly the nodes at distance-delta <= 1 from any source."""
    graph = random_connected_graph(n, 20, seed, PortAssignment.ADJACENCY)
    dist = graph.bfs_distances(0)
    assert dist[0] == 0 and all(d >= 0 for d in dist)  # connected
    for u, v in graph.edges():
        assert abs(dist[u] - dist[v]) <= 1
