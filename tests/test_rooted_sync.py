"""End-to-end tests for the rooted SYNC algorithm (Theorem 6.1).

Each run uses strict mode, so every probe classification is verified against
ground truth: any failure of the oscillation-cover guarantee (Lemma 4) turns
into a test failure here rather than a silent mis-dispersion.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.oscillation import Oscillator
from repro.core.rooted_sync import RootedSyncDispersion, rooted_sync_dispersion, SMALL_K_THRESHOLD
from repro.graph import generators
from repro.graph.properties import is_valid_tree_rooted_at
from repro.runner.execute import run_scenario
from repro.runner.scenario import ScenarioSpec
from repro.sim.faults import parse_faults
from tests.conftest import assert_valid_result, topology_zoo


# A generous linear-constant bound used to catch accidental super-linear blowups;
# the scaling benchmarks measure the actual constant.
ROUNDS_PER_K = 120


@pytest.mark.parametrize("name,factory,k", topology_zoo())
def test_disperses_on_zoo(name, factory, k):
    graph = factory()
    driver = RootedSyncDispersion(graph, k)
    result = driver.run()
    assert_valid_result(graph, result, driver.agents.values())
    assert result.metrics.rounds <= ROUNDS_PER_K * k + 400


@pytest.mark.parametrize("name,factory,k", topology_zoo())
def test_builds_a_valid_dfs_tree(name, factory, k):
    graph = factory()
    driver = RootedSyncDispersion(graph, k)
    result = driver.run()
    if k < SMALL_K_THRESHOLD:
        pytest.skip("fallback path does not expose the paper's tree")
    members = [v for v in graph.nodes() if result.dfs_parent[v] is not None or v == 0]
    assert len(members) == k
    parent = [result.dfs_parent[v] for v in graph.nodes()]
    assert is_valid_tree_rooted_at(parent, 0, members)


def test_k_one_trivial():
    g = generators.line(5)
    result = rooted_sync_dispersion(g, 1)
    assert result.dispersed
    assert result.metrics.rounds == 0 or result.metrics.rounds <= 2


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_small_k_fallback(k):
    g = generators.random_tree(12, seed=k)
    result = rooted_sync_dispersion(g, k)
    assert result.dispersed
    assert "fallback" in result.algorithm


def test_k_smaller_than_n():
    g = generators.erdos_renyi(60, 0.1, seed=2)
    result = rooted_sync_dispersion(g, 25)
    assert result.dispersed
    assert len(set(result.positions.values())) == 25


def test_k_equals_n_line_lower_bound_instance():
    g = generators.line(40)
    result = rooted_sync_dispersion(g, 40)
    assert result.dispersed
    # All 40 nodes occupied.
    assert sorted(result.positions.values()) == list(range(40))


def test_start_node_other_than_zero():
    g = generators.random_tree(25, seed=9)
    result = rooted_sync_dispersion(g, 20, start_node=12)
    assert result.dispersed


def test_rejects_k_larger_than_n():
    with pytest.raises(ValueError):
        rooted_sync_dispersion(generators.line(5), 6)


def test_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        rooted_sync_dispersion(generators.line(5), 0)


def test_deterministic_given_same_inputs():
    g = generators.erdos_renyi(30, 0.15, seed=7)
    r1 = rooted_sync_dispersion(g, 30)
    r2 = rooted_sync_dispersion(generators.erdos_renyi(30, 0.15, seed=7), 30)
    assert r1.positions == r2.positions
    assert r1.metrics.rounds == r2.metrics.rounds


def test_wait_rounds_paper_value_works_on_zoo_sample():
    for name, factory, k in topology_zoo()[:6]:
        graph = factory()
        result = rooted_sync_dispersion(graph, k, wait_rounds=6)
        assert result.dispersed, name


def test_seeker_count_matches_paper():
    g = generators.random_tree(30, seed=4)
    result = RootedSyncDispersion(g, 30).run()
    assert result.notes["seekers"] == math.ceil(30 / 3)


def test_lemma7_empty_fraction_during_dfs():
    """At most ⌊2k/3⌋ agents settle during the DFS phase (Lemma 7)."""
    g = generators.random_tree(45, seed=6)
    driver = RootedSyncDispersion(g, 45)
    result = driver.run()
    settled_during_dfs = result.metrics.extra.get("settled_during_dfs", 0) + 1  # + root
    assert settled_during_dfs <= math.floor(2 * 45 / 3) + 1
    assert result.metrics.extra.get("settled_during_retraversal", 0) >= math.ceil(45 / 3) - 1
    # The seeker pool was never consumed to settle during the DFS.
    assert result.metrics.extra.get("seeker_settled_during_dfs", 0) == 0


def test_probe_calls_linear_in_k():
    """Sync_Probe is invoked at most ~2(k-1) times (one per forward/backtrack)."""
    g = generators.erdos_renyi(40, 0.2, seed=3)
    driver = RootedSyncDispersion(g, 40)
    result = driver.run()
    calls = result.metrics.extra["sync_probe_calls"]
    assert calls <= 2 * 40
    # O(1) iterations per call (Lemma 4): with ⌈k/3⌉ seekers, at most 3-4.
    assert result.metrics.extra["sync_probe_iterations"] <= 4 * calls


def test_forward_moves_exactly_k_minus_one():
    g = generators.random_tree(36, seed=8)
    driver = RootedSyncDispersion(g, 36)
    result = driver.run()
    assert result.metrics.extra["forward_moves"] == 35
    assert result.metrics.extra["backtrack_moves"] <= 35


def test_memory_independent_of_degree_growth():
    """Peak bits stay O(log(k+Δ)) even when Δ = k - 1 (star)."""
    small = RootedSyncDispersion(generators.star(16), 16)
    small.run()
    big = RootedSyncDispersion(generators.star(64), 64)
    big.run()
    unit_small = max(a.memory.peak_in_log_units() for a in small.agents.values())
    unit_big = max(a.memory.peak_in_log_units() for a in big.agents.values())
    # The normalized ratio must not grow with k (allow small slack for rounding).
    assert unit_big <= unit_small * 1.8 + 8


def test_rounds_scale_linearly_on_lines():
    times = {}
    for k in (16, 32, 64):
        result = rooted_sync_dispersion(generators.line(k), k)
        assert result.dispersed
        times[k] = result.metrics.rounds
    assert times[64] / times[16] < 6.5  # linear growth would give ~4


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=SMALL_K_THRESHOLD, max_value=42),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_random_trees_disperse(k, seed):
    graph = generators.random_tree(k, seed=seed)
    driver = RootedSyncDispersion(graph, k)
    result = driver.run()
    assert result.dispersed
    positions = sorted(result.positions.values())
    assert positions == list(range(k))


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=SMALL_K_THRESHOLD, max_value=36),
    st.floats(min_value=0.05, max_value=0.5),
    st.integers(min_value=0, max_value=5_000),
)
def test_property_random_graphs_disperse(k, p, seed):
    n = k + (seed % 7)
    graph = generators.erdos_renyi(n, p, seed=seed)
    driver = RootedSyncDispersion(graph, k, start_node=seed % n)
    result = driver.run()
    assert result.dispersed
    assert len(set(result.positions.values())) == k


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("profile", ["none", "freeze:0.3:20"])
@pytest.mark.parametrize("algorithm", ["rooted_sync", "general_sync"])
def test_no_oscillator_stays_on_a_settled_cover(monkeypatch, algorithm, profile, backend):
    """``tick`` asks for a home settler only where an oscillator stands on a
    node it covers.  After every tick, no oscillator may stand on a node it
    still covers while another agent is settled there."""
    seen = {"ticks": 0, "drops": 0, "stale": []}
    tick, drop_cover = RootedSyncDispersion.tick, Oscillator.drop_cover

    def checked_tick(self, moves):
        tick(self, moves)
        seen["ticks"] += 1
        kernel = self.engine.kernel
        # kernel.positions() lands the oscillators an unobserved run steps
        # lazily; agent.position may lag behind until then.
        positions = kernel.positions()
        for osc in self.oscillators.values():
            here = positions[osc.agent.agent_id]
            if here in osc.covered and kernel.has_home_settler(here, osc.agent.agent_id):
                seen["stale"].append((osc.agent.agent_id, here, kernel.now()))

    def counted_drop_cover(self, node):
        seen["drops"] += 1
        drop_cover(self, node)

    monkeypatch.setattr(RootedSyncDispersion, "tick", checked_tick)
    monkeypatch.setattr(Oscillator, "drop_cover", counted_drop_cover)
    split = algorithm == "general_sync"
    # A world on which both drivers survive the freeze profile to the end and
    # drop child and sibling covers alike, under faults too.
    spec = ScenarioSpec(
        family="binary_tree",
        params={"depth": 4},
        k=31,
        seed=5,
        placement="split" if split else "rooted",
        placement_parts=2 if split else 1,
        faults=parse_faults(profile),
        backend=backend,
    )
    record = run_scenario(algorithm, spec)
    assert record.status == "ok", record.error
    assert seen["stale"] == []
    assert seen["ticks"] > 0 and seen["drops"] > 0
