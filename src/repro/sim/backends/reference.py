"""The oracle backend: the kernel's original per-agent Python loops.

This is the pre-backend :class:`~repro.sim.kernel.ExecutionKernel` state and
move mechanics, extracted verbatim: a dense per-node list of id sets for
occupancy, dict/attribute mutation per agent per move.  Every other backend
is differentially tested against this one (see
``tests/test_backend_differential.py``), so treat changes here as semantic
changes to the simulator itself -- they require a ``code_version`` bump for
every registered algorithm.

The driver-phase primitives (``settled_present`` / ``home_settler_at`` /
``has_home_settler`` / ``run_probe_round`` / ``run_scatter``) are inherited
unchanged from :class:`~repro.sim.backends.base.KernelBackend`: the generic
bodies there *are* this oracle's implementation (the original per-round
driver loops, extracted verbatim), exactly as the per-op tier below is the
original kernel loop.  The vectorized backend answers the settled queries
from an index and is pinned to the answers produced here.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

from repro.agents.agent import Agent
from repro.sim.backends.base import KernelBackend

__all__ = ["ReferenceBackend"]


class ReferenceBackend(KernelBackend):
    """Pure-Python world state; correct first, fast second."""

    name = "reference"

    def rebuild(self) -> None:
        kernel = self.kernel
        # Occupancy is a dense per-node list of id sets: node indices are the
        # kernel's hottest keys, so direct indexing beats dict hashing.
        self._occupancy: List[Set[int]] = [set() for _ in range(kernel.graph.num_nodes)]
        for agent in kernel.agents.values():
            self._occupancy[agent.position].add(agent.agent_id)

    @property
    def occupancy(self) -> List[Set[int]]:
        return self._occupancy

    # ---------------------------------------------------------------- movement
    def apply_move(self, agent: Agent, port: int) -> None:
        kernel = self.kernel
        dst, rev = kernel.graph.move(agent.position, port)
        self._occupancy[agent.position].discard(agent.agent_id)
        agent.arrive(dst, rev)
        self._occupancy[dst].add(agent.agent_id)
        kernel.metrics.total_moves += 1
        count = kernel.moves_per_agent.get(agent.agent_id, 0) + 1
        kernel.moves_per_agent[agent.agent_id] = count
        if count > kernel.metrics.max_moves_per_agent:
            kernel.metrics.max_moves_per_agent = count

    def apply_batch(self, moves: Mapping[int, Optional[int]]) -> None:
        kernel = self.kernel
        edge = kernel.graph.move
        occupancy = self._occupancy
        planned: List[tuple[Agent, int, int]] = []  # agent, dst, rev_port
        for agent_id, port in moves.items():
            if port is None:
                continue
            agent = kernel.agents[agent_id]
            dst, rev = edge(agent.position, port)
            planned.append((agent, dst, rev))
        for agent, _dst, _rev in planned:
            occupancy[agent.position].discard(agent.agent_id)
        moves_per_agent = kernel.moves_per_agent
        max_moves = kernel.metrics.max_moves_per_agent
        for agent, dst, rev in planned:
            agent.arrive(dst, rev)
            occupancy[dst].add(agent.agent_id)
            count = moves_per_agent.get(agent.agent_id, 0) + 1
            moves_per_agent[agent.agent_id] = count
            if count > max_moves:
                max_moves = count
        kernel.metrics.total_moves += len(planned)
        kernel.metrics.max_moves_per_agent = max_moves

    def apply_walk(self, agent: Agent, node: int, pin: int, moves: int) -> None:
        kernel = self.kernel
        self._occupancy[agent.position].discard(agent.agent_id)
        agent.arrive(node, pin)
        self._occupancy[node].add(agent.agent_id)
        kernel.metrics.total_moves += moves
        count = kernel.moves_per_agent.get(agent.agent_id, 0) + moves
        kernel.moves_per_agent[agent.agent_id] = count
        if count > kernel.metrics.max_moves_per_agent:
            kernel.metrics.max_moves_per_agent = count

    # ------------------------------------------------------------ observation
    def present_ids(self, node: int) -> List[int]:
        return sorted(self._occupancy[node])

    def occupied(self, node: int) -> bool:
        return bool(self._occupancy[node])

    def positions(self) -> Dict[int, int]:
        return {a.agent_id: a.position for a in self.kernel.agents.values()}
