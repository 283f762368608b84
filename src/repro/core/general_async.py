"""General (multi-root) ASYNC dispersion (paper Theorem 8.2).

The ASYNC counterpart of :mod:`repro.core.general_sync`: each start node hosts
one group that grows its DFS tree with the rooted ASYNC machinery
(:class:`~repro.core.rooted_async.RootedAsyncDispersion`, i.e. ``Async_Probe``
plus ``Guest_See_Off``), all on one shared asynchronous engine whose epoch
counter measures the whole execution.

Coordination follows the same serialized schedule as the SYNC driver (largest
group first, every root settled up front, blocked groups scatter their leftover
agents), with the scatter walks expressed as agent programs so their cost is
measured in real activations/epochs.  See DESIGN.md §3 for why the serialized
schedule is a conservative (upper-bound) rendering of the concurrent KS
execution whose collapse machinery lives in :mod:`repro.core.subsumption`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel
from repro.analysis.verification import is_dispersed
from repro.core.general_sync import _normalize_placements
from repro.core.rooted_async import RootedAsyncDispersion
from repro.core.rooted_sync import SMALL_K_THRESHOLD
from repro.graph.port_graph import PortLabeledGraph
from repro.sim.adversary import Scheduler
from repro.sim.async_engine import AsyncEngine, Move
from repro.sim.result import DispersionResult

__all__ = ["GeneralAsyncDispersion", "general_async_dispersion"]


class GeneralAsyncDispersion:
    """Driver for general initial configurations under ASYNC (Theorem 8.2)."""

    def __init__(
        self,
        graph: PortLabeledGraph,
        placements: Mapping[int, int],
        adversary: Optional[Scheduler] = None,
        strict: bool = True,
        max_activations: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.placements = _normalize_placements(graph, placements)
        self.k = sum(self.placements.values())
        self.strict = strict

        self.memory_model = MemoryModel(k=self.k, max_degree=graph.max_degree)
        self.agents: Dict[int, Agent] = {}
        self.groups: Dict[int, List[Agent]] = {}
        next_id = 1
        for node in sorted(self.placements):
            members = []
            for _ in range(self.placements[node]):
                agent = Agent(next_id, node, self.memory_model)
                self.agents[next_id] = agent
                members.append(agent)
                next_id += 1
            self.groups[node] = members
        if max_activations is None:
            import math

            log_k = int(math.log2(self.k + 2)) + 2
            max_activations = 800 * self.k * self.k * log_k + 40 * self.k * graph.num_nodes + 400_000
        self.engine = AsyncEngine(
            graph, self.agents.values(), adversary=adversary, max_activations=max_activations
        )
        self.metrics = self.engine.metrics
        self.all_visited: Set[int] = set()
        self.dfs_parent: List[Optional[int]] = [None] * graph.num_nodes

    # ------------------------------------------------------------------- run
    def run(self) -> DispersionResult:
        group_drivers: List[Tuple[int, List[Agent], Optional[RootedAsyncDispersion]]] = []
        for label, (node, members) in enumerate(
            sorted(self.groups.items(), key=lambda item: -len(item[1]))
        ):
            # A group whose every member is fault-blocked at time 0 cannot
            # settle its root no matter its size: it degrades to the scatter
            # path (thawed members recover later) instead of aborting the run.
            if len(members) >= SMALL_K_THRESHOLD and self._eligible_root_settler(members) is not None:
                driver = RootedAsyncDispersion(
                    self.graph,
                    k=len(members),
                    start_node=node,
                    treelabel=label,
                    strict=self.strict,
                    engine=self.engine,
                    agents={a.agent_id: a for a in members},
                    foreign_visited=self.all_visited,
                    probe_cap=self.k,
                )
                driver.settle_root()
            else:
                driver = None
                smallest = self._eligible_root_settler(members)
                if smallest is None:
                    # Every member of this tiny group is fault-blocked at time
                    # 0: nobody can execute a settle cycle, so the node stays
                    # unclaimed (thawed members are scattered later) -- same
                    # rule as the SYNC driver (v2 fault contract).
                    group_drivers.append((node, members, driver))
                    continue
                smallest.settle(node, None, treelabel=label)
            self.all_visited.add(node)
            group_drivers.append((node, members, driver))

        leftovers: List[Tuple[int, List[Agent]]] = []
        for node, members, driver in group_drivers:
            if driver is not None:
                remaining = driver.run_group()
                self.all_visited.update(driver.visited)
                for v, parent in enumerate(driver.dfs_parent):
                    if parent is not None:
                        self.dfs_parent[v] = parent
                self.metrics.bump("groups_grown")
            else:
                remaining = [a for a in members if not a.settled]
            if remaining:
                leftovers.append((node, remaining))

        for node, remaining in leftovers:
            self._scatter(remaining)

        metrics = self.engine.finalize_metrics()
        return DispersionResult(
            dispersed=is_dispersed(self.agents.values()),
            positions=self.engine.kernel.positions(),
            metrics=metrics,
            dfs_parent=list(self.dfs_parent),
            algorithm="GeneralAsyncDisp",
            notes={"k": self.k, "roots": len(self.placements)},
        )

    # --------------------------------------------------------------- scatter
    def _eligible_root_settler(self, members: Sequence[Agent]) -> Optional[Agent]:
        """Smallest group member whose settle cycle is not fault-blocked."""
        pool = [
            a
            for a in members
            if not a.settled and not self.engine.kernel.fault_view(a.agent_id).blocked_for_cycle
        ]
        return min(pool, key=lambda a: a.agent_id) if pool else None

    def _free_node(self, node: int) -> bool:
        return not self.engine.kernel.has_home_settler(node)

    def _path_to_nearest_free(self, start: int) -> Optional[List[int]]:
        if self._free_node(start):
            return []
        seen = {start}
        queue = deque([(start, [])])
        while queue:
            current, ports = queue.popleft()
            for port in self.graph.ports(current):
                nxt = self.graph.neighbor(current, port)
                if nxt in seen:
                    continue
                seen.add(nxt)
                path = ports + [port]
                if self._free_node(nxt):
                    return path
                queue.append((nxt, path))
        return None

    @staticmethod
    def _walk_program(ports: Sequence[int]):
        for port in ports:
            yield Move(port)

    def _scatter(self, agents: Sequence[Agent]) -> None:
        """Walk leftover agents to free nodes via agent programs (measured)."""
        group = [a for a in agents if not a.settled]
        while group:
            mobile = [
                a
                for a in group
                if not self.engine.kernel.fault_view(a.agent_id).blocked_for_cycle
            ]
            if not mobile:
                # Everybody left is crashed or frozen.  Frozen agents thaw, so
                # burn activations until one does; pure crash-stop leftovers
                # run into the max_activations cap and the faulty run is
                # reported as data (same rule as the SYNC driver).
                ids = tuple(a.agent_id for a in group)
                self.engine.run_until(
                    lambda ids=ids: any(
                        not self.engine.kernel.fault_view(i).blocked_for_cycle for i in ids
                    )
                )
                group = [a for a in group if not a.settled]
                continue
            head = mobile[0].position
            # Only agents standing at the head may follow this path -- a
            # straggler (frozen during an earlier walk, thawed elsewhere) would
            # otherwise execute a program relative to another node's ports.
            # It becomes the head of a later iteration instead.
            walkers = [a for a in mobile if a.position == head]
            path = self._path_to_nearest_free(head)
            if path is None:
                raise RuntimeError("no free node left although agents remain unsettled")
            target = head
            for port in path:
                target = self.graph.neighbor(target, port)
            for agent in walkers:
                self.engine.assign(agent.agent_id, self._walk_program(list(path)))
            ids = tuple(a.agent_id for a in walkers)
            self.engine.run_until(
                lambda ids=ids, t=target: all(self.agents[i].position == t for i in ids)
            )
            self.metrics.bump("scatter_walks")
            # The walkers are all at the target; one of them must also be able
            # to execute a settle cycle *now* (an agent can arrive and then
            # freeze), so wait out any freeze window before settling.
            eligible = [
                a
                for a in walkers
                if not self.engine.kernel.fault_view(a.agent_id).blocked_for_cycle
            ]
            if not eligible:
                ids = tuple(a.agent_id for a in walkers)
                self.engine.run_until(
                    lambda ids=ids: any(
                        not self.engine.kernel.fault_view(i).blocked_for_cycle for i in ids
                    )
                )
                eligible = [
                    a
                    for a in walkers
                    if not self.engine.kernel.fault_view(a.agent_id).blocked_for_cycle
                ]
            settler = min(eligible, key=lambda a: a.agent_id)
            settler.settle(target, None)
            self.all_visited.add(target)
            self.metrics.bump("scatter_settled")
            group = [a for a in group if not a.settled]


def general_async_dispersion(
    graph: PortLabeledGraph,
    placements: Mapping[int, int],
    adversary: Optional[Scheduler] = None,
    **kwargs,
) -> DispersionResult:
    """Convenience wrapper: run Theorem 8.2's driver and return the result."""
    return GeneralAsyncDispersion(graph, placements, adversary=adversary, **kwargs).run()
