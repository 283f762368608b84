"""Tests for Algorithm 1 (Empty_Node_Selection) and the oscillation machinery.

These correspond to Lemmas 1–3 and Figures 1–4 of the paper.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.empty_nodes import keeps_settler_at_position, select_empty_nodes
from repro.core.oscillation import CoveredNode, Oscillator, build_trip, max_trip_length
from repro.graph import generators


def line_tree(k):
    """Path 0-1-...-(k-1) rooted at 0 as a children mapping."""
    children = {i: [i + 1] for i in range(k - 1)}
    children[k - 1] = []
    return children


def star_tree(k, root_is_center=True):
    if root_is_center:
        children = {0: list(range(1, k))}
        children.update({i: [] for i in range(1, k)})
        return children, 0
    # Root at a leaf: leaf -> center -> other leaves.
    children = {1: list(range(2, k)), 0: [1]}
    children.update({i: [] for i in range(2, k)})
    return children, 0


def random_tree_children(k, seed):
    rng = random.Random(seed)
    children = {0: []}
    for v in range(1, k):
        parent = rng.randrange(v)
        children.setdefault(parent, []).append(v)
        children.setdefault(v, [])
    return children


class TestKeepRule:
    def test_positions(self):
        kept = [x for x in range(1, 15) if keeps_settler_at_position(x)]
        assert kept == [1, 4, 7, 10, 13]


class TestSelection:
    def test_line_rooted_at_end(self):
        for k in range(3, 30):
            sel = select_empty_nodes(line_tree(k), 0)
            assert sel.size == k
            assert sel.lemma1_holds()
            # Even depths occupied, odd empty.
            assert all(sel.depth[v] % 2 == 0 for v in sel.occupied)

    def test_star_rooted_at_center(self):
        sel = select_empty_nodes(star_tree(16, True)[0], 0)
        assert sel.lemma1_holds()
        # Case B: children 4, 7, 10, 13 get settlers.
        assert len(sel.occupied) == 1 + 4

    def test_star_rooted_at_leaf(self):
        children, root = star_tree(16, False)
        sel = select_empty_nodes(children, root)
        assert sel.lemma1_holds()
        # Case A keeps one leaf per group of three.
        leaf_settlers = [v for v in sel.occupied if v >= 2]
        assert len(leaf_settlers) == math.ceil(14 / 3)

    def test_binary_tree(self):
        g = generators.binary_tree(4)
        children = {v: [] for v in g.nodes()}
        for v in g.nodes():
            for u in g.neighbors(v):
                if u > v:
                    children[v].append(u)
        sel = select_empty_nodes(children, 0)
        assert sel.lemma1_holds()
        assert len(sel.occupied) <= math.floor(2 * g.num_nodes / 3)

    def test_cover_capacity_bounds(self):
        for seed in range(20):
            children = random_tree_children(40, seed)
            sel = select_empty_nodes(children, 0)
            for coverer, covered in sel.cover_sets.items():
                assert coverer in sel.occupied
                assert len(covered) <= 3
                # Sibling covers are bounded by 2.
                parent = {c: p for p, cs in children.items() for c in cs}
                sibling_covered = [c for c in covered if parent.get(c) == parent.get(coverer)]
                assert len(sibling_covered) <= 2

    def test_every_empty_node_is_covered(self):
        for seed in range(20):
            children = random_tree_children(35, seed)
            sel = select_empty_nodes(children, 0)
            assert set(sel.cover) == sel.empty

    def test_cover_is_local(self):
        for seed in range(10):
            children = random_tree_children(30, seed)
            sel = select_empty_nodes(children, 0)
            parent = {c: p for p, cs in children.items() for c in cs}
            parent[0] = None
            assert sel.coverage_is_local(parent)

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError):
            select_empty_nodes({0: [1, 2], 1: [2], 2: []}, 0)

    def test_unreachable_node_rejected(self):
        with pytest.raises(ValueError):
            select_empty_nodes({0: [], 5: []}, 0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=3, max_value=120), st.integers(min_value=0, max_value=10_000))
    def test_property_lemma1(self, k, seed):
        """Lemma 1: at least ⌈k/3⌉ nodes of any k-node tree are left empty."""
        sel = select_empty_nodes(random_tree_children(k, seed), 0)
        assert len(sel.empty) >= math.ceil(k / 3)
        assert len(sel.occupied) + len(sel.empty) == k

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=3, max_value=100), st.integers(min_value=0, max_value=10_000))
    def test_property_trip_length_lemma2(self, k, seed):
        """Lemma 2: every cover group induces an oscillation trip of ≤ 6 rounds."""
        children = random_tree_children(k, seed)
        sel = select_empty_nodes(children, 0)
        parent = {c: p for p, cs in children.items() for c in cs}
        for coverer, covered in sel.cover_sets.items():
            entries = []
            for node in covered:
                if parent.get(node) == coverer:
                    entries.append(CoveredNode(node, (1,)))
                else:
                    entries.append(CoveredNode(node, (1, 2)))
            assert max_trip_length(entries) <= 6


class TestTripConstruction:
    def test_child_trip_lengths(self):
        assert max_trip_length([CoveredNode(1, (1,))]) == 2
        assert max_trip_length([CoveredNode(i, (i,)) for i in range(1, 4)]) == 6

    def test_sibling_trip_lengths(self):
        assert max_trip_length([CoveredNode(5, (1, 2))]) == 4
        assert max_trip_length([CoveredNode(5, (1, 2)), CoveredNode(6, (1, 3))]) == 6

    def test_empty_cover_no_trip(self):
        assert build_trip([]) == []


class TestOscillatorRuntime:
    def make_engine(self):
        from repro.agents.agent import Agent
        from repro.agents.memory import MemoryModel
        from repro.sim.sync_engine import SyncEngine

        g = generators.star(6)  # hub 0 with leaves 1..5
        model = MemoryModel(k=4, max_degree=5)
        settler = Agent(1, 0, model)
        settler.settle(0, None)
        other = Agent(2, 3, model)
        other.settle(3, None)
        eng = SyncEngine(g, [settler, other])
        return g, eng, settler, other

    def run_rounds(self, eng, osc, rounds):
        visited = []
        for _ in range(rounds):
            port = osc.plan_step()
            eng.step({osc.agent.agent_id: port} if port else {})
            visited.append(osc.agent.position)
            here = osc.agent.position
            if here in osc.covered and any(
                a.settled and a.home == here and a.agent_id != osc.agent.agent_id
                for a in eng.kernel.agents_at(here)
            ):
                osc.drop_cover(here)
        return visited

    def test_oscillator_visits_all_covered_nodes_every_trip(self):
        g, eng, settler, _ = self.make_engine()
        osc = Oscillator(settler, 0, g)
        osc.add_cover(1, (g.port_to(0, 1),))
        osc.add_cover(2, (g.port_to(0, 2),))
        visited = self.run_rounds(eng, osc, 12)
        assert visited.count(1) >= 2
        assert visited.count(2) >= 2
        assert osc.agent.position in (0, 1, 2)

    def test_oscillator_idle_without_cover(self):
        g, eng, settler, _ = self.make_engine()
        osc = Oscillator(settler, 0, g)
        assert osc.plan_step() is None
        assert not osc.is_active

    def test_oscillator_drops_cover_when_node_settled(self):
        g, eng, settler, other = self.make_engine()
        osc = Oscillator(settler, 0, g)
        osc.add_cover(3, (g.port_to(0, 3),))  # node 3 already hosts a settler
        self.run_rounds(eng, osc, 6)
        assert 3 not in osc.covered
        # With nothing left to cover it parks at home.
        self.run_rounds(eng, osc, 4)
        assert osc.agent.position == 0
        assert not osc.is_active

    def test_oscillator_stop(self):
        g, eng, settler, _ = self.make_engine()
        osc = Oscillator(settler, 0, g)
        osc.add_cover(1, (g.port_to(0, 1),))
        osc.stop()
        assert osc.plan_step() is None


class TestTripCache:
    """The cached full trip must equal one built from scratch after every
    change that can alter it: a cover added, a cover dropped, or a churn event
    that renumbers a port the trip crosses."""

    @staticmethod
    def make():
        from repro.agents.agent import Agent
        from repro.agents.memory import MemoryModel
        from repro.graph.port_graph import PortLabeledGraph

        # Ports follow list order: home 0 reaches child 1 through port 1 and
        # child 2 through port 2; child 1 reaches home through its port 2.
        graph = PortLabeledGraph([[1, 2, 3], [3, 0], [0, 3], [1, 2, 0]])
        model = MemoryModel(k=4, max_degree=graph.max_degree)
        osc = Oscillator(Agent(1, 0, model), 0, graph)
        return graph, model, osc

    @staticmethod
    def fresh_trip(osc, model):
        from repro.agents.agent import Agent

        twin = Oscillator(Agent(2, osc.home, model), osc.home, osc.graph)
        for cover in osc.covered.values():
            twin.add_cover(cover.node, cover.route_out)
        return twin._full_trip()

    @pytest.mark.parametrize("change", ["add_cover", "drop_cover", "rewire"])
    def test_next_trip_equals_a_fresh_one(self, change):
        graph, model, osc = self.make()
        osc.add_cover(1, (graph.port_to(0, 1),))
        if change != "add_cover":
            osc.add_cover(2, (graph.port_to(0, 2),))
        before = osc._full_trip()  # fills the cache
        if change == "add_cover":
            osc.add_cover(2, (graph.port_to(0, 2),))
        elif change == "drop_cover":
            osc.drop_cover(1)
        else:
            # Child 1 loses its first neighbor, so its port back home drops
            # from 2 to 1; the route out stays port 1.
            graph.rewire(remove=(1, 3), add=(1, 2))
            assert graph.port_to(1, 0) == 1
        after = osc._full_trip()
        assert after != before
        assert after == self.fresh_trip(osc, model)

    def test_unchanged_covers_reuse_the_trip(self):
        graph, _model, osc = self.make()
        osc.add_cover(1, (graph.port_to(0, 1),))
        assert osc._full_trip() is osc._full_trip()
