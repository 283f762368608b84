"""Rooted SYNC dispersion in the style of Sudo et al. [DISC'24].

This is the ``O(k log k)``-round baseline that the paper's Theorem 6.1 improves
to ``O(k)``.  Every visited node keeps a settler (no empty nodes, no
oscillation); the DFS head finds a fresh neighbor by *doubling probes*:

* iteration 1: the unsettled agents at the head probe as many unchecked ports
  as they can in parallel (2 rounds: out and back);
* every prober that found a settled neighbor brings that settler back with it
  as a *helper*, so the number of probers doubles while no fresh node is found;
* after ``O(log min{k, δ_w})`` iterations either a fresh neighbor is known or
  all ports are exhausted; the recruited helpers then walk home in one parallel
  round (safe under synchrony) before the DFS advances.

Total: ``O(log k)`` rounds per DFS step, ``O(k log k)`` rounds overall,
``O(log(k+Δ))`` bits per agent -- matching row "[36] O(k log k)" of Table 1.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.agents.agent import Agent, AgentRole
from repro.agents.memory import FieldKind, MemoryModel
from repro.analysis.verification import is_dispersed
from repro.graph.port_graph import PortLabeledGraph
from repro.sim.result import DispersionResult
from repro.sim.sync_engine import SyncEngine

__all__ = ["SudoSyncDispersion", "sudo_sync_dispersion"]


class SudoSyncDispersion:
    """Doubling-probe rooted SYNC dispersion (DISC'24-style baseline)."""

    def __init__(
        self,
        graph: PortLabeledGraph,
        k: int,
        start_node: int = 0,
        max_rounds: Optional[int] = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > graph.num_nodes:
            raise ValueError(f"k={k} agents cannot disperse on n={graph.num_nodes} nodes")
        self.graph = graph
        self.k = k
        self.root = start_node
        self.memory_model = MemoryModel(k=k, max_degree=graph.max_degree)
        self.agents: Dict[int, Agent] = {
            i: Agent(i, start_node, self.memory_model) for i in range(1, k + 1)
        }
        self.leader = self.agents[k]
        self.leader.role = AgentRole.LEADER
        if max_rounds is None:
            import math

            max_rounds = 60 * (k + 2) * (int(math.log2(k + 2)) + 2) + 1000
        self.engine = SyncEngine(graph, self.agents.values(), max_rounds=max_rounds)
        self.metrics = self.engine.metrics
        self.visited: Set[int] = set()
        self.dfs_parent: List[Optional[int]] = [None] * graph.num_nodes

    # ------------------------------------------------------------------- run
    def run(self) -> DispersionResult:
        self._settle_smallest_at(self.root, None)
        self.visited.add(self.root)
        while not self.engine.kernel.all_settled():
            w = self.leader.position
            port = self._doubling_probe(w)
            if port is not None:
                self._forward(w, port)
            else:
                self._backtrack(w)
        metrics = self.engine.finalize_metrics()
        return DispersionResult(
            dispersed=is_dispersed(self.agents.values()),
            positions=self.engine.kernel.positions(),
            metrics=metrics,
            dfs_parent=list(self.dfs_parent),
            algorithm="SudoStyleSyncDisp",
            notes={"k": self.k},
        )

    # ----------------------------------------------------------------- probe
    def _doubling_probe(self, w: int) -> Optional[int]:
        """Find a fresh neighbor of ``w`` with doubling parallel probes.

        As in the original algorithm the scan restarts from port 1 on every
        call (``(next, checked) ← (⊥, 0)``): a port observed "empty" in an
        earlier call may not have been taken, so only re-probing keeps the
        classification sound.  Each call still costs only ``O(log min{k, δ_w})``
        iterations thanks to the doubling prober pool.
        """
        settler = self._settler_at(w)
        checked = 0
        degree = self.graph.degree(w)
        limit = min(self.k, degree)
        helpers: List[Tuple[Agent, int]] = []  # (settler helper, port of w it came from)
        found: Optional[int] = None
        self.metrics.bump("probe_calls")

        while checked < limit and found is None:
            probers: List[Agent] = [
                a for a in self.engine.kernel.agents_at(w) if not a.settled
            ] + [h for h, _ in helpers]
            batch = min(len(probers), limit - checked)
            assigned = []
            out_moves = {}
            for j in range(batch):
                port = checked + 1 + j
                agent = probers[j]
                assigned.append((agent, port, self.graph.neighbor(w, port)))
                out_moves[agent.agent_id] = port
            self.engine.step(out_moves)
            self.metrics.bump("probe_iterations")

            back_moves = {}
            recruits: List[Tuple[Agent, int]] = []
            for agent, port, target in assigned:
                back_moves[agent.agent_id] = self.graph.reverse_port(w, port)
                resident = self._settler_at(target)
                if resident is None:
                    found = port if found is None else min(found, port)
                else:
                    # Bring the settler back to w as an additional prober.
                    back_moves[resident.agent_id] = self.graph.reverse_port(w, port)
                    resident.memory.write("helper_return_port", port, FieldKind.PORT)
                    recruits.append((resident, port))
            self.engine.step(back_moves)
            helpers.extend(recruits)
            checked += batch

        if settler is not None:
            # Persistently charged even though the scan restarts per call (the
            # agent still stores the cursor between rounds within a call).
            settler.memory.write("checked", checked, FieldKind.COUNTER_DELTA)
        # Send every recruited helper home in one parallel round (SYNC-safe).
        if helpers:
            home_moves = {h.agent_id: port for h, port in helpers}
            self.engine.step(home_moves)
            for h, _ in helpers:
                h.memory.clear("helper_return_port")
        return found

    # ------------------------------------------------------------- DFS steps
    def _settler_at(self, node: int) -> Optional[Agent]:
        for agent in self.engine.kernel.agents_at(node):
            if agent.settled and agent.home == node:
                return agent
        return None

    def _settle_smallest_at(self, node: int, parent_port: Optional[int]) -> Agent:
        candidates = [a for a in self.engine.kernel.agents_at(node) if not a.settled]
        non_leader = [a for a in candidates if a is not self.leader]
        pool = non_leader if non_leader else candidates
        agent = min(pool, key=lambda a: a.agent_id)
        agent.settle(node, parent_port)
        agent.memory.write("checked", 0, FieldKind.COUNTER_DELTA)
        self.metrics.bump("settled")
        return agent

    def _forward(self, w: int, port: int) -> None:
        u = self.graph.neighbor(w, port)
        moves = {a.agent_id: port for a in self.engine.kernel.agents_at(w) if not a.settled}
        self.engine.step(moves)
        parent_port = self.graph.reverse_port(w, port)
        self.visited.add(u)
        self.dfs_parent[u] = w
        self._settle_smallest_at(u, parent_port)
        self.metrics.bump("forward_moves")

    def _backtrack(self, w: int) -> None:
        settler = self._settler_at(w)
        parent_port = settler.parent_port
        if parent_port is None:
            raise RuntimeError("cannot backtrack from the DFS root with agents unsettled")
        moves = {a.agent_id: parent_port for a in self.engine.kernel.agents_at(w) if not a.settled}
        self.engine.step(moves)
        self.metrics.bump("backtrack_moves")


def sudo_sync_dispersion(
    graph: PortLabeledGraph, k: int, start_node: int = 0, **kwargs
) -> DispersionResult:
    """Run the DISC'24-style doubling-probe baseline and return its result."""
    return SudoSyncDispersion(graph, k, start_node, **kwargs).run()
