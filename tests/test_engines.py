"""Tests for the synchronous round engine and the asynchronous CCM scheduler."""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel
from repro.graph import generators
from repro.sim.adversary import RandomAdversary, RoundRobinAdversary, StarvationAdversary
from repro.sim.async_engine import AsyncEngine, Move, Stay, WaitUntil
from repro.sim.kernel import ExecutionKernel
from repro.sim.sync_engine import SyncEngine


def make_agents(n, node=0, k=None, delta=4):
    model = MemoryModel(k=k or n, max_degree=delta)
    return {i: Agent(i, node, model) for i in range(1, n + 1)}


class TestSyncEngine:
    def test_round_counts_steps(self):
        g = generators.line(5)
        agents = make_agents(2)
        eng = SyncEngine(g, agents.values())
        eng.step({1: 1})
        eng.step({})
        assert eng.round == 2
        assert eng.metrics.total_moves == 1

    def test_parallel_moves_are_simultaneous(self):
        g = generators.line(3)  # 0-1-2
        agents = make_agents(2, node=1)
        eng = SyncEngine(g, agents.values())
        # Both leave node 1 in the same round through different ports.
        ports = {1: g.port_to(1, 0), 2: g.port_to(1, 2)}
        eng.step(ports)
        assert agents[1].position == 0
        assert agents[2].position == 2
        assert agents[1].pin == g.port_to(0, 1)

    def test_swap_in_same_round_allowed(self):
        # SYNC agents never observe each other on edges; a swap is legal.
        g = generators.line(2)
        agents = make_agents(2)
        agents[2].arrive(1, 1)
        eng = SyncEngine(g, agents.values())
        eng.step({1: 1, 2: 1})
        assert agents[1].position == 1 and agents[2].position == 0

    def test_agents_at_and_settled_query(self):
        g = generators.line(4)
        agents = make_agents(3)
        eng = SyncEngine(g, agents.values())
        assert [a.agent_id for a in eng.kernel.agents_at(0)] == [1, 2, 3]
        agents[2].settle(0, None)
        assert eng.kernel.settled_agent_at(0).agent_id == 2
        assert eng.kernel.settled_agent_at(1) is None

    def test_invalid_port_raises(self):
        g = generators.line(3)
        agents = make_agents(1)
        eng = SyncEngine(g, agents.values())
        with pytest.raises(ValueError):
            eng.step({1: 5})

    def test_max_rounds_guard(self):
        g = generators.line(3)
        agents = make_agents(1)
        eng = SyncEngine(g, agents.values(), max_rounds=3)
        for _ in range(3):
            eng.step({})
        with pytest.raises(RuntimeError):
            eng.step({})

    def test_duplicate_agent_id_rejected(self):
        g = generators.line(3)
        model = MemoryModel(k=2, max_degree=2)
        with pytest.raises(ValueError):
            SyncEngine(g, [Agent(1, 0, model), Agent(1, 1, model)])

    def test_metrics_memory_fold(self):
        g = generators.line(3)
        agents = make_agents(2)
        eng = SyncEngine(g, agents.values())
        metrics = eng.finalize_metrics()
        assert metrics.peak_memory_bits > 0


class TestAsyncEngine:
    def test_round_robin_epoch_is_one_pass(self):
        g = generators.line(4)
        agents = make_agents(3)
        eng = AsyncEngine(g, agents.values(), adversary=RoundRobinAdversary())
        seen = {"count": 0}

        def prog():
            seen["count"] += 1
            yield Stay()

        eng.assign(1, prog())
        eng.run_until(lambda: seen["count"] >= 1)
        # One pass over 3 agents completes at most one epoch (plus the partial).
        assert eng.metrics.epochs <= 2

    def test_move_action_moves_one_edge(self):
        g = generators.line(4)  # at node 1 port 1 leads back to 0, port 2 leads to 2
        agents = make_agents(1)
        eng = AsyncEngine(g, agents.values(), adversary=RoundRobinAdversary(), max_activations=100)
        eng.assign(1, iter([Move(1), Move(2)]))
        eng.run_until(lambda: agents[1].position == 2)
        assert agents[1].position == 2
        assert eng.metrics.total_moves == 2

    def test_wait_until_blocks_until_predicate(self):
        g = generators.line(4)
        agents = make_agents(2)
        eng = AsyncEngine(g, agents.values(), adversary=RoundRobinAdversary())
        flag = {"go": False}

        def waiter():
            yield WaitUntil(lambda: flag["go"])
            yield Move(1)

        def setter():
            yield Stay()
            yield Stay()
            flag["go"] = True
            yield Stay()

        eng.assign(1, waiter())
        eng.assign(2, setter())
        eng.run_until(lambda: agents[1].position == 1)
        assert agents[1].position == 1

    def test_epoch_counting_matches_definition(self):
        g = generators.line(3)
        agents = make_agents(2)
        eng = AsyncEngine(g, agents.values(), adversary=RoundRobinAdversary())
        # 6 activations of 2 agents in round-robin = 3 full epochs.
        steps = {"n": 0}

        def prog():
            while True:
                steps["n"] += 1
                yield Stay()

        eng.assign(1, prog())
        eng.run_until(lambda: steps["n"] >= 3)
        assert eng.metrics.epochs >= 2

    def test_cancel_clears_program(self):
        g = generators.line(4)
        agents = make_agents(1)
        eng = AsyncEngine(g, agents.values(), adversary=RoundRobinAdversary())
        eng.assign(1, iter([Move(1), Move(1)]))
        eng.cancel(1)
        assert eng.is_idle(1)

    def test_max_activations_guard(self):
        g = generators.line(3)
        agents = make_agents(1)
        eng = AsyncEngine(g, agents.values(), max_activations=5)
        with pytest.raises(RuntimeError):
            eng.run_until(lambda: False)


class TestKernelFacadeParity:
    """Both engines expose the kernel's full observation surface identically."""

    def test_sync_engine_grew_settled_agents_at(self):
        g = generators.line(5)
        agents = make_agents(3, node=2)
        eng = SyncEngine(g, agents.values())
        assert eng.kernel.settled_agents_at(2) == []
        agents[1].settle(2, None)
        agents[3].settle(2, None)
        assert {a.agent_id for a in eng.kernel.settled_agents_at(2)} == {1, 3}

    def test_async_engine_grew_occupied(self):
        g = generators.line(5)
        agents = make_agents(2, node=3)
        eng = AsyncEngine(g, agents.values(), adversary=RoundRobinAdversary())
        assert eng.kernel.occupied(3) and not eng.kernel.occupied(0)

    def test_facades_share_one_kernel_state(self):
        """Facade attributes are views of the kernel's single world state."""
        g = generators.line(5)
        agents = make_agents(2)
        eng = SyncEngine(g, agents.values())
        assert eng.metrics is eng.kernel.metrics
        assert eng.agents is eng.kernel.agents
        assert eng.kernel.occupancy is eng.kernel.backend.occupancy
        eng.step({1: 1})
        assert eng.kernel.moves_per_agent == {1: 1}
        assert eng.kernel.now() == 1  # the SYNC fault clock is the round count

    def test_observation_surface_matches_across_engines(self):
        """Both facades answer queries through one surface, the kernel's."""
        queries = (
            "agents_at",
            "occupied",
            "settled_agent_at",
            "settled_agents_at",
            "fault_view",
            "positions",
        )
        for name in queries:
            assert callable(getattr(ExecutionKernel, name))
        for engine_cls in (SyncEngine, AsyncEngine):
            assert isinstance(engine_cls.kernel, property)
            assert callable(engine_cls.finalize_metrics)
            assert not any(hasattr(engine_cls, name) for name in queries)


class TestAdversaries:
    def test_random_adversary_reproducible(self):
        a1, a2 = RandomAdversary(3), RandomAdversary(3)
        a1.bind([1, 2, 3])
        a2.bind([1, 2, 3])
        assert [a1.next_agent() for _ in range(20)] == [a2.next_agent() for _ in range(20)]

    def test_round_robin_cycles(self):
        adv = RoundRobinAdversary()
        adv.bind([5, 6, 7])
        assert [adv.next_agent() for _ in range(6)] == [5, 6, 7, 5, 6, 7]

    def test_starvation_victims_rare(self):
        adv = StarvationAdversary("largest", num_victims=1, slowdown=4, seed=0)
        adv.bind(list(range(1, 11)))
        picks = [adv.next_agent() for _ in range(400)]
        assert picks.count(10) < 40
        assert picks.count(10) >= 1

    def test_starvation_explicit_victims(self):
        adv = StarvationAdversary([2], slowdown=3, seed=1)
        adv.bind([1, 2, 3])
        picks = [adv.next_agent() for _ in range(100)]
        assert 2 in picks
        assert picks.count(2) < picks.count(1)

    def test_starvation_bad_spec(self):
        with pytest.raises(ValueError):
            StarvationAdversary("weird").bind([1, 2])

    def test_starvation_bad_slowdown(self):
        with pytest.raises(ValueError):
            StarvationAdversary(slowdown=0)
