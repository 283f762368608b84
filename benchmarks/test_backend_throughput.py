"""Churn throughput: the incremental ``rewire`` against the rebuild oracle.

Churn-heavy fault profiles rewire the world every few rounds, so the
incremental CSR patch in :meth:`PortLabeledGraph.rewire` is what keeps them
usable on large graphs.  This lock holds it far ahead of the full-rebuild
path it replaced (kept as the oracle in ``tests/port_graph_reference.py``).
The speed lock is a wall-clock assertion, so it carries the ``perf`` marker
(CI's perf job); the equal-work check beside it runs in tier-1.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.graph.port_graph import PortLabeledGraph
from repro.runner.scenario import ScenarioSpec, build_graph

from tests.port_graph_reference import rewire_via_rebuild

#: A ~2*10^4-node near-square grid: big enough that a rebuild's O(n + m)
#: Python work dwarfs the incremental path's row patching.
CHURN_WORLD = ScenarioSpec(family="grid2d", params={"rows": 141, "cols": 142}, k=1)


def _incremental_and_rebuild_legs():
    """Apply the same churn ops to the grid through the incremental
    ``rewire`` and through the rebuild oracle; checks both legs did every
    op and ended on the same port tables, and returns each leg's wall
    seconds and the op count."""
    graph = build_graph(CHURN_WORLD)
    oracle = PortLabeledGraph([graph.neighbors(v) for v in graph.nodes()])
    rng = random.Random(7)
    edges = list(graph.edges())
    # Remove+re-add the same pair: a full renumber of both endpoint rows (the
    # expensive case) while keeping the graph byte-identical across ops, so
    # both legs face the same work every iteration.
    ops = [edges[rng.randrange(len(edges))] for _ in range(12)]

    def leg(rewire) -> float:
        start = time.perf_counter()
        for edge in ops:
            rewire(remove=edge, add=edge)
        return time.perf_counter() - start

    incremental_s = leg(graph.rewire)
    rebuild_s = leg(lambda **churn: rewire_via_rebuild(oracle, **churn))
    assert graph.churn_count == oracle.churn_count == len(ops)
    assert all(graph.neighbors(v) == oracle.neighbors(v) for v in graph.nodes())
    return incremental_s, rebuild_s, len(ops)


def test_incremental_rewire_and_rebuild_oracle_do_the_same_churn():
    _incremental_and_rebuild_legs()


@pytest.mark.perf
def test_incremental_rewire_beats_rebuild_on_churn_heavy_world(record_rows):
    """Churn micro-benchmark: remove+re-add churn on the grid must run far
    faster through the incremental ``rewire`` (patch only renumbered rows)
    than through the full-rebuild oracle it replaced."""
    incremental_s, rebuild_s, op_count = _incremental_and_rebuild_legs()
    ratio = rebuild_s / incremental_s
    record_rows.append(
        ("backend-throughput", f"incremental rewire speedup = {ratio:.1f}x")
    )
    assert ratio >= 25.0, (
        f"incremental rewire only {ratio:.1f}x faster than the rebuild oracle "
        f"({incremental_s:.4f}s vs {rebuild_s:.4f}s over {op_count} churn ops)"
    )
