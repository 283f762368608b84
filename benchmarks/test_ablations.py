"""A1–A3 ablations: three design choices of the paper, each varied.

* A1-subsumption — the KS size rule: total collapse-walk cost over any
  partition of the k agents is O(k) (paper §8, footnote 6).
* A2-seeker-fraction — the 1/3 seeker fraction of Section 4.2 (Q1): smaller
  pools need more probe iterations per call, larger pools leave fewer
  explorers; 1/3 keeps both within the paper's constants.
* A3-adversary — Theorem 7.1 is adversary-independent: epochs stay within the
  O(k log k) envelope under round-robin, random, and starvation adversaries.
"""

from __future__ import annotations

import math
import random

import pytest

from benchmarks.conftest import report
from repro.analysis.tables import Table
from repro.core.rooted_async import rooted_async_dispersion
from repro.core.rooted_sync import RootedSyncDispersion
from repro.core.subsumption import TreeInfo, decide_subsumption, total_subsumption_cost
from repro.graph import generators
from repro.sim.adversary import RandomAdversary, RoundRobinAdversary, StarvationAdversary


# ------------------------------------------------------------- A1 subsumption
def test_a1_subsumption_total_cost_linear(record_rows):
    """Collapsing ℓ disjoint trees costs Σ 4·|D_i| ≤ 4k regardless of ℓ."""
    rng = random.Random(0)
    rows = []
    for k in (30, 120, 480):
        for parts in (2, 5, 20):
            sizes = []
            remaining = k
            for i in range(parts - 1):
                take = max(1, rng.randint(1, max(1, remaining - (parts - 1 - i))))
                sizes.append(take)
                remaining -= take
            sizes.append(max(1, remaining))
            cost = total_subsumption_cost(sizes)
            rows.append((k, parts, cost))
            assert cost <= 4 * k + 4 * parts
    report(
        "A1-subsumption (collapse cost is O(k))",
        [f"k={k:4d} ℓ={parts:3d} total collapse cost={cost:5d} (bound 4k={4*k})" for k, parts, cost in rows],
    )
    record_rows.append(("A1-subsumption", {"samples": len(rows)}))


def test_a1_size_rule_keeps_winner_monotone(record_rows):
    """Simulated meeting sequence: the surviving tree's size never decreases."""
    initial_sizes = [3, 7, 2, 11, 5]
    trees = [TreeInfo(i, i, settled_count=s) for i, s in enumerate(initial_sizes)]
    current = trees[0]
    previous_size = current.settled_count
    for other in trees[1:]:
        outcome = decide_subsumption(current, other)
        loser = current if outcome.loser == current.treelabel else other
        winner = other if loser is current else current
        winner.settled_count += loser.settled_count
        current = winner
        # The surviving tree never shrinks across meetings ...
        assert current.settled_count >= previous_size
        previous_size = current.settled_count
    # ... and ends up owning every settled agent.
    assert current.settled_count == sum(initial_sizes)
    record_rows.append(("A1-winner-size", {"final": current.settled_count}))


# -------------------------------------------------------- A2 seeker fraction
@pytest.mark.parametrize("fraction", [0.25, 1.0 / 3.0, 0.5])
def test_a2_seeker_fraction(fraction, record_rows):
    k = 60
    driver = RootedSyncDispersion(
        generators.erdos_renyi(72, 0.12, seed=2), k, seeker_fraction=fraction
    )
    result = driver.run()
    assert result.dispersed
    calls = result.metrics.extra["sync_probe_calls"]
    iters = result.metrics.extra["sync_probe_iterations"]
    record_rows.append(
        (
            f"A2-seeker-fraction-{fraction:.2f}",
            {
                "rounds": result.metrics.rounds,
                "probe_iters_per_call": round(iters / calls, 2),
                "seeker_settled_during_dfs": result.metrics.extra.get("seeker_settled_during_dfs", 0),
            },
        )
    )
    # All fractions must still disperse; the probe cost per call stays bounded.
    assert iters / calls <= 6


# ------------------------------------------------------------- A3 adversaries
def test_a3_adversary_independence(record_rows):
    k = 36
    graph_factory = lambda: generators.erdos_renyi(44, 0.12, seed=9)
    adversaries = {
        "round-robin": RoundRobinAdversary(),
        "random": RandomAdversary(1),
        "starve-leader": StarvationAdversary("largest", 1, slowdown=6, seed=2),
        "starve-small-ids": StarvationAdversary("smallest", 4, slowdown=4, seed=3),
    }
    table = Table("A3: epochs under different adversaries (k=36, sparse ER)", ["adversary", "epochs"])
    envelope = 80 * k * (math.log2(k) + 1)
    results = {}
    for name, adversary in adversaries.items():
        result = rooted_async_dispersion(graph_factory(), k, adversary=adversary)
        assert result.dispersed
        assert result.metrics.epochs <= envelope
        results[name] = result.metrics.epochs
        table.add_row(name, result.metrics.epochs)
    report("A3-adversaries", [table.render()])
    record_rows.append(("A3-adversaries", results))


@pytest.mark.parametrize("fraction", [1.0 / 3.0])
def test_wallclock_seeker_fraction_run(benchmark, fraction):
    result = benchmark.pedantic(
        lambda: RootedSyncDispersion(
            generators.erdos_renyi(72, 0.12, seed=2), 60, seeker_fraction=fraction
        ).run(),
        rounds=2,
        iterations=1,
    )
    assert result.dispersed
