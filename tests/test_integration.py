"""Cross-algorithm integration tests: all algorithms on the same workloads.

These check the *relationships* the paper's Table 1 asserts, at test-sized
instances: everyone disperses, everyone respects the memory regime, and the
algorithms' time metrics sit in the expected order on the workloads where the
asymptotic separation already shows at small scale.
"""

from __future__ import annotations


import pytest

from repro.baselines.ks_opodis21 import ks_async_dispersion
from repro.baselines.naive_dfs import naive_sync_dispersion
from repro.baselines.sudo_disc24 import sudo_sync_dispersion
from repro.core.general_sync import general_sync_dispersion
from repro.core.rooted_async import rooted_async_dispersion
from repro.core.rooted_sync import rooted_sync_dispersion
from repro.graph import generators
from repro.sim.adversary import RoundRobinAdversary


SYNC_ALGORITHMS = [
    ("RootedSyncDisp", rooted_sync_dispersion),
    ("SudoStyle", sudo_sync_dispersion),
    ("NaiveSeqProbe", naive_sync_dispersion),
]


@pytest.mark.parametrize(
    "factory,k",
    [
        (lambda: generators.erdos_renyi(40, 0.15, seed=1), 40),
        (lambda: generators.random_tree(36, seed=2), 36),
        (lambda: generators.grid2d(6, 6), 36),
    ],
)
def test_all_sync_algorithms_agree_on_success(factory, k):
    for name, algo in SYNC_ALGORITHMS:
        graph = factory()
        result = algo(graph, k)
        assert result.dispersed, name
        assert len(set(result.positions.values())) == k
        assert result.metrics.peak_memory_log_units < 40, name


def test_full_occupancy_when_k_equals_n():
    graph = generators.random_tree(32, seed=5)
    for name, algo in SYNC_ALGORITHMS:
        result = algo(generators.random_tree(32, seed=5), 32)
        assert sorted(result.positions.values()) == list(range(32)), name


def test_ours_beats_edge_bound_baseline_on_dense_graphs():
    """Table 1 separation that is visible at small scale: O(k)·const vs O(m).

    On a complete-ish graph with k = n, the sequential-probe DFS pays ~2 rounds
    per edge (Θ(k²)) while our algorithm stays linear in k.
    """
    k = 48
    ours = rooted_sync_dispersion(generators.complete(k), k)
    naive = naive_sync_dispersion(generators.complete(k), k)
    assert ours.dispersed and naive.dispersed
    assert naive.metrics.rounds > ours.metrics.rounds


def test_async_ours_vs_ks_on_dense_graph():
    """ASYNC Table-1 separation: O(k log k) vs O(min{m, kΔ}) = Θ(k²) on K_k.

    The crossover sits between k = 24 and k = 28 on complete graphs under
    round-robin (epochs, ours vs KS: 607 vs 600 at k = 24, 740 vs 812 at
    k = 28); k = 32 is safely past it.
    """
    k = 32
    ours = rooted_async_dispersion(
        generators.complete(k), k, adversary=RoundRobinAdversary()
    )
    ks = ks_async_dispersion(generators.complete(k), k, adversary=RoundRobinAdversary())
    assert ours.dispersed and ks.dispersed
    assert ks.metrics.epochs > ours.metrics.epochs * 1.1


def test_sync_time_ratio_flat_for_ours_growing_for_naive():
    """rounds/k stays ~flat for ours while rounds/m stays ~flat for the naive DFS."""
    ratios_ours, ratios_naive = [], []
    for k in (16, 32, 64):
        graph = generators.complete(k)
        ours = rooted_sync_dispersion(graph, k)
        naive = naive_sync_dispersion(generators.complete(k), k)
        ratios_ours.append(ours.metrics.rounds / k)
        ratios_naive.append(naive.metrics.rounds / k)
    assert ratios_ours[-1] / ratios_ours[0] < 2.0        # ours: linear in k
    assert ratios_naive[-1] / ratios_naive[0] > 2.0      # naive: super-linear in k


def test_general_matches_rooted_when_single_root():
    graph = generators.random_tree(30, seed=7)
    rooted = rooted_sync_dispersion(generators.random_tree(30, seed=7), 30)
    general = general_sync_dispersion(graph, {0: 30})
    assert rooted.dispersed and general.dispersed
    assert sorted(rooted.positions.values()) == sorted(general.positions.values())


def test_results_expose_consistent_metadata():
    graph = generators.random_tree(20, seed=3)
    result = rooted_sync_dispersion(graph, 20)
    assert result.algorithm == "RootedSyncDisp"
    assert result.notes["k"] == 20
    assert result.time == result.metrics.rounds
    assert "dispersed=True" in result.summary()
