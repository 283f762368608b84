"""General (multi-root) SYNC dispersion (paper Theorem 8.1).

Agents start on ``ℓ ≥ 2`` distinct nodes; each start node hosts one group that
grows its own DFS tree with the rooted machinery of
:class:`~repro.core.rooted_sync.RootedSyncDispersion` (seekers, empty nodes,
oscillation, Sync_Probe).  The driver here coordinates the groups on one shared
synchronous engine:

* every group's smallest-ID agent settles on its start node up front, so the
  probes of any other group physically detect those roots as occupied;
* groups are grown one after another, largest first (the measured rounds of
  this serialized schedule are an upper bound on the truly concurrent
  schedule, so the ``O(k)`` shape claim is checked conservatively; see
  "Deviations from the paper" in the README);
* a group whose entire frontier is occupied by other trees (possible only in
  multi-root runs) fills the empty nodes of the tree it has built and then
  *scatters* its leftover agents: the group walks, edge by edge, to the nearest
  node that holds no settler and settles one agent there, repeating until all
  are placed.  The size-based subsumption rule of the KS algorithm is provided
  in :mod:`repro.core.subsumption` and exercised separately (the serialized
  schedule never creates the large-meets-larger situation that requires a
  collapse walk).

Time is the shared engine's round counter over the whole execution; memory is
accounted per agent exactly as in the rooted algorithms.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel
from repro.analysis.verification import is_dispersed
from repro.core.rooted_sync import RootedSyncDispersion, SMALL_K_THRESHOLD
from repro.graph.port_graph import PortLabeledGraph
from repro.sim.result import DispersionResult
from repro.sim.sync_engine import SyncEngine

__all__ = ["GeneralSyncDispersion", "general_sync_dispersion"]


def _normalize_placements(
    graph: PortLabeledGraph, placements: Mapping[int, int]
) -> Dict[int, int]:
    total = 0
    normalized: Dict[int, int] = {}
    for node, count in placements.items():
        if not (0 <= node < graph.num_nodes):
            raise ValueError(f"placement node {node} is not in the graph")
        if count < 1:
            raise ValueError("every placement must contain at least one agent")
        normalized[node] = count
        total += count
    if total > graph.num_nodes:
        raise ValueError(f"k={total} agents cannot disperse on n={graph.num_nodes} nodes")
    if len(normalized) < 1:
        raise ValueError("need at least one start node")
    return normalized


class GeneralSyncDispersion:
    """Driver for general initial configurations under SYNC (Theorem 8.1).

    Parameters
    ----------
    graph:
        The anonymous port-labeled graph.
    placements:
        Mapping ``start node -> number of agents`` (``ℓ`` keys, total ``k``).
    wait_rounds, strict:
        Forwarded to the per-group rooted machinery.
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        placements: Mapping[int, int],
        wait_rounds: int = 8,
        strict: bool = True,
        max_rounds: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.placements = _normalize_placements(graph, placements)
        self.k = sum(self.placements.values())
        self.wait_rounds = wait_rounds
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
        if max_rounds is None:
            max_rounds = 600 * (self.k + 4) * max(1, wait_rounds) // 4 + 20 * graph.num_nodes + 4000
        self.engine = SyncEngine(graph, self.agents.values(), max_rounds=max_rounds)
        self.metrics = self.engine.metrics
        #: Nodes belonging to any finished / parked tree (shared ground truth
        #: handed to each group's strict-mode checks as ``foreign_visited``).
        self.all_visited: Set[int] = set()
        self.dfs_parent: List[Optional[int]] = [None] * graph.num_nodes

    # ------------------------------------------------------------------- run
    def run(self) -> DispersionResult:
        group_drivers: List[Tuple[int, List[Agent], Optional[RootedSyncDispersion]]] = []
        # Phase 0: every group settles its smallest agent on its root immediately
        # (a time-0 action in the paper), so other groups' probes see it.
        for node, members in sorted(
            self.groups.items(), key=lambda item: -len(item[1])
        ):
            # A group whose every member is fault-blocked at time 0 cannot
            # settle its root no matter its size: it degrades to the scatter
            # path (thawed members recover later) instead of aborting the run.
            if len(members) >= SMALL_K_THRESHOLD and self._eligible_root_settler(members) is not None:
                driver = RootedSyncDispersion(
                    self.graph,
                    k=len(members),
                    start_node=node,
                    wait_rounds=self.wait_rounds,
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
                    # unclaimed (thawed members are scattered later).
                    group_drivers.append((node, members, driver))
                    continue
                smallest.settle(node, None)
            self.all_visited.add(node)
            group_drivers.append((node, members, driver))

        # Phase 1: grow the trees, largest group first.
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

        # Phase 2: scatter any leftover agents (blocked groups, tiny groups).
        for node, remaining in leftovers:
            self._scatter(remaining)

        metrics = self.engine.finalize_metrics()
        return DispersionResult(
            dispersed=is_dispersed(self.agents.values()),
            positions=self.engine.kernel.positions(),
            metrics=metrics,
            dfs_parent=list(self.dfs_parent),
            algorithm="GeneralSyncDisp",
            notes={
                "k": self.k,
                "roots": len(self.placements),
                "wait_rounds": self.wait_rounds,
            },
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
        """A node is free when no settled agent calls it home."""
        return not self.engine.kernel.has_home_settler(node)

    def _path_to_nearest_free(self, start: int) -> Optional[List[int]]:
        """BFS (simulator-side pathfinding, see _scatter) to the closest free
        node; returns the list of ports to traverse, or ``None`` if no free node
        exists (impossible while unsettled agents remain, since ``k ≤ n``)."""
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

    def _scatter(self, agents: Sequence[Agent]) -> None:
        """Walk a leftover group to free nodes one at a time and settle them.

        Every move is a real engine round; only the route planning is
        simulator-assisted (a plain DFS over occupied nodes would find the same
        nodes within the same asymptotic budget).
        """
        group = [a for a in agents if not a.settled]
        while group:
            mobile = [
                a
                for a in group
                if not self.engine.kernel.fault_view(a.agent_id).blocked_for_cycle
            ]
            if not mobile:
                # Everybody left is crashed or frozen.  Frozen agents thaw, so
                # idle real rounds until one does; a group of pure crash-stop
                # agents runs into the engine's max_rounds cap instead (the
                # faulty run is then reported as data, not hung).
                self.engine.step({})
                group = [a for a in group if not a.settled]
                continue
            head = mobile[0].position
            # Only agents standing at the head may follow this path -- a
            # straggler (frozen during an earlier walk, thawed elsewhere) would
            # otherwise be driven through another node's ports.  It becomes
            # the head of a later iteration instead.
            walkers = [a for a in mobile if a.position == head]
            path = self._path_to_nearest_free(head)
            if path is None:
                raise RuntimeError("no free node left although agents remain unsettled")
            # One backend batch call walks the pack down the whole path.  A
            # walker whose move was fault-dropped is no longer on the path
            # head, so it falls out of the pack and is retried on a later
            # iteration (the ASYNC engine instead *defers* the dropped Move;
            # both converge).
            current = self.engine.step_path(
                [a.agent_id for a in walkers], head, path, counter="scatter_moves"
            )
            # An agent that froze mid-walk fell out of the pack; only agents
            # that actually completed the walk (and can execute a settle cycle
            # right now) are settlement candidates.  Stragglers are retried on
            # the next loop iteration.
            arrived = [
                a
                for a in walkers
                if a.position == current
                and not self.engine.kernel.fault_view(a.agent_id).blocked_for_cycle
            ]
            if arrived:
                settler = min(arrived, key=lambda a: a.agent_id)
                settler.settle(current, None)
                self.all_visited.add(current)
                self.metrics.bump("scatter_settled")
            group = [a for a in group if not a.settled]


def general_sync_dispersion(
    graph: PortLabeledGraph,
    placements: Mapping[int, int],
    **kwargs,
) -> DispersionResult:
    """Convenience wrapper: run Theorem 8.1's driver and return the result."""
    return GeneralSyncDispersion(graph, placements, **kwargs).run()
