"""Randomized scattering baseline (not from the paper's Table 1).

Each unsettled agent performs an independent random walk; when it lands on a
node with no settled agent it settles there (smallest ID wins ties among
co-located unsettled agents).  This is the folklore randomized strategy the
dispersion literature contrasts deterministic algorithms against: it needs no
coordination and no extra memory, but its completion time is only probabilistic
(cover-time-like) and it may fail to finish within the round budget, which the
examples and benchmarks report honestly.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel
from repro.analysis.verification import is_dispersed
from repro.graph.port_graph import PortLabeledGraph
from repro.sim.result import DispersionResult
from repro.sim.sync_engine import SyncEngine

__all__ = ["random_walk_dispersion"]


def random_walk_dispersion(
    graph: PortLabeledGraph,
    k: int,
    start_node: int = 0,
    seed: int = 0,
    max_rounds: Optional[int] = None,
) -> DispersionResult:
    """Run the random-walk scattering heuristic from a rooted configuration.

    Returns a result whose ``dispersed`` flag may be ``False`` if the walk did
    not finish within ``max_rounds`` (default ``50 · n`` rounds).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > graph.num_nodes:
        raise ValueError(f"k={k} agents cannot disperse on n={graph.num_nodes} nodes")
    rng = random.Random(seed)
    model = MemoryModel(k=k, max_degree=graph.max_degree)
    agents: Dict[int, Agent] = {i: Agent(i, start_node, model) for i in range(1, k + 1)}
    if max_rounds is None:
        max_rounds = 50 * graph.num_nodes + 500
    engine = SyncEngine(graph, agents.values(), max_rounds=max_rounds + 10)

    def settle_pass() -> None:
        by_node: Dict[int, list] = {}
        for agent in agents.values():
            if not agent.settled:
                by_node.setdefault(agent.position, []).append(agent)
        for node, group in by_node.items():
            if engine.kernel.has_home_settler(node):
                continue
            winner = min(group, key=lambda a: a.agent_id)
            winner.settle(node, None)

    settle_pass()
    rounds = 0
    while rounds < max_rounds and not engine.kernel.all_settled():
        moves = {}
        for agent in agents.values():
            if not agent.settled:
                degree = graph.degree(agent.position)
                moves[agent.agent_id] = rng.randint(1, degree)
        engine.step(moves)
        rounds += 1
        settle_pass()

    metrics = engine.finalize_metrics()
    return DispersionResult(
        dispersed=is_dispersed(agents.values()),
        positions=engine.kernel.positions(),
        metrics=metrics,
        algorithm="RandomWalkScatter",
        notes={"k": k, "seed": seed, "round_budget": max_rounds},
    )
