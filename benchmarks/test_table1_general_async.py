"""T1-ASYNC-general: Table 1, general (multi-root) ASYNC rows.

Paper claim: general initial configurations disperse in O(k log k) epochs with
O(log(k+Δ)) bits (Theorem 8.2).

Measured here: epochs versus k for ℓ ∈ {2, 3} start nodes under the
round-robin adversary, and the epochs/(k log k) drift.  As for the SYNC
general driver, the serialized group schedule makes the measurement a
conservative upper bound (see "Deviations from the paper" in the README).
"""

from __future__ import annotations

import math

import pytest

from benchmarks.conftest import report
from repro.analysis.tables import Table
from repro.core.general_async import general_async_dispersion
from repro.graph import generators
from repro.sim.adversary import RoundRobinAdversary

K_SWEEP = [16, 32, 48]


def run_sweep(graph_factory, parts):
    series = {}
    for k in K_SWEEP:
        graph = graph_factory(k)
        nodes = graph.num_nodes
        starts = [int(i * (nodes - 1) / max(1, parts - 1)) for i in range(parts)]
        base = k // parts
        placements = {s: base for s in starts}
        placements[starts[0]] += k - base * parts
        result = general_async_dispersion(
            graph, placements, adversary=RoundRobinAdversary()
        )
        assert result.dispersed
        series[k] = result.metrics.epochs
    return series


def test_table1_general_async_trees(record_rows):
    factory = lambda k: generators.random_tree(int(k * 1.2), seed=k)
    two = run_sweep(factory, 2)
    three = run_sweep(factory, 3)
    table = Table(
        "Table 1 / general ASYNC on random trees (epochs)",
        ["placement"] + [f"k={k}" for k in K_SWEEP],
    )
    table.add_row("ℓ=2 roots", *[two[k] for k in K_SWEEP])
    table.add_row("ℓ=3 roots", *[three[k] for k in K_SWEEP])
    report("T1-ASYNC-general (random trees)", [table.render()])
    record_rows.append(("T1-ASYNC-general", {"ℓ=2": two[max(K_SWEEP)], "ℓ=3": three[max(K_SWEEP)]}))
    norm = lambda k: k * (math.log2(k) + 1)
    assert (two[48] / norm(48)) / (two[16] / norm(16)) < 2.5


def test_table1_general_async_er(record_rows):
    factory = lambda k: generators.erdos_renyi(int(k * 1.3), min(0.9, 8.0 / k), seed=k)
    two = run_sweep(factory, 2)
    table = Table(
        "Table 1 / general ASYNC on sparse ER (epochs)",
        ["placement"] + [f"k={k}" for k in K_SWEEP],
    )
    table.add_row("ℓ=2 roots", *[two[k] for k in K_SWEEP])
    report("T1-ASYNC-general (ER)", [table.render()])
    record_rows.append(("T1-ASYNC-general-ER", {"ℓ=2": two[max(K_SWEEP)]}))


@pytest.mark.parametrize("k", [32])
def test_wallclock_general_async(benchmark, k):
    factory = lambda: generators.random_tree(int(k * 1.2), seed=k)
    result = benchmark.pedantic(
        lambda: general_async_dispersion(
            factory(), {0: k // 2, k - 1: k - k // 2}, adversary=RoundRobinAdversary()
        ),
        rounds=3,
        iterations=1,
    )
    assert result.dispersed
