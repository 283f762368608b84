"""Rooted ASYNC dispersion (paper Algorithm 8, Theorem 7.1).

``RootedAsyncDispersion`` disperses ``k ≤ n`` agents initially co-located on
one node in ``O(k log k)`` epochs with ``O(log(k + Δ))`` bits per agent under a
fully asynchronous scheduler.  It is the DFS skeleton of the classical
algorithms with two ASYNC-safe primitives:

* :func:`~repro.core.async_probe.async_probe` finds a fully unsettled neighbor
  of the DFS head in ``O(log k)`` epochs by doubling the prober pool with
  recruited settled helpers (Algorithm 3);
* :func:`~repro.core.async_probe.guest_see_off` returns every recruited helper
  to its home node *before* the DFS advances (Algorithm 4), so an "empty"
  observation at the next head cannot be an artifact of a helper still being in
  transit -- the subtle hazard of asynchrony described in Section 4.3.

Unlike the SYNC algorithm there are no empty tree nodes and no oscillation:
every visited node keeps a settler, and the DFS performs ``k - 1`` forward and
at most ``k - 1`` backtrack moves, each preceded by one probe/see-off pair.

The whole execution is driven by the adversarial activation scheduler of
:class:`~repro.sim.async_engine.AsyncEngine`; time is the engine's epoch count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.agents.agent import Agent, AgentRole
from repro.agents.memory import MemoryModel
from repro.analysis.verification import is_dispersed
from repro.core.async_probe import async_probe, guest_see_off
from repro.graph.port_graph import PortLabeledGraph
from repro.sim.adversary import Scheduler
from repro.sim.async_engine import AsyncEngine, Move, Stay, WaitUntil
from repro.sim.result import DispersionResult

__all__ = ["RootedAsyncDispersion", "rooted_async_dispersion"]


class RootedAsyncDispersion:
    """Driver for the rooted ASYNC dispersion algorithm (Theorem 7.1).

    Parameters
    ----------
    graph, k, start_node:
        The substrate, population size, and the common start node.
    adversary:
        Activation policy (defaults to a seeded random adversary); see
        :mod:`repro.sim.adversary`.
    treelabel:
        Label written into every settler of this DFS (0 for the rooted case;
        the general-configuration driver uses distinct labels per root).
    strict:
        Verify every "fully unsettled" report against simulator ground truth.
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        k: int,
        start_node: int = 0,
        adversary: Optional[Scheduler] = None,
        treelabel: int = 0,
        strict: bool = True,
        max_activations: Optional[int] = None,
        engine: Optional[AsyncEngine] = None,
        agents: Optional[Dict[int, Agent]] = None,
        foreign_visited: Optional[Set[int]] = None,
        probe_cap: Optional[int] = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > graph.num_nodes:
            raise ValueError(f"k={k} agents cannot disperse on n={graph.num_nodes} nodes")
        self.graph = graph
        self.k = k
        self.root = start_node
        self.treelabel = treelabel
        self.strict = strict
        if agents is not None:
            # Group mode: operate on a shared engine and an agent subset.
            if engine is None:
                raise ValueError("group mode requires an existing engine")
            self.agents = dict(agents)
            self.engine = engine
            self.memory_model = next(iter(self.agents.values())).memory.model
        else:
            self.memory_model = MemoryModel(k=k, max_degree=graph.max_degree)
            self.agents = {
                i: Agent(i, start_node, self.memory_model) for i in range(1, k + 1)
            }
            if max_activations is None:
                import math

                log_k = int(math.log2(k + 2)) + 2
                max_activations = 600 * k * k * log_k + 200_000
            self.engine = AsyncEngine(
                graph,
                self.agents.values(),
                adversary=adversary,
                max_activations=max_activations,
            )
        self.leader = max(self.agents.values(), key=lambda a: a.agent_id)
        self.leader.role = AgentRole.LEADER
        self.metrics = self.engine.metrics
        #: Cap on ports probed per Async_Probe call (k in the rooted case).
        self.probe_cap = probe_cap if probe_cap is not None else k
        self.visited: Set[int] = set()
        self.foreign_visited: Set[int] = foreign_visited if foreign_visited is not None else set()
        self.dfs_parent: List[Optional[int]] = [None] * graph.num_nodes
        #: Set when the leader's program has ended (used in group mode, where a
        #: blocked DFS ends its program with agents still unsettled).
        self.finished = False
        self.blocked = False
        #: Unsettled members of this group: counted when :meth:`run_group`
        #: starts, decremented by :meth:`_settle_smallest_at` (the only place
        #: a member settles while the group's DFS runs).
        self.unsettled_members = 0

    # ------------------------------------------------------------------- run
    def run(self) -> DispersionResult:
        """Execute the algorithm under the configured adversary."""
        self.engine.assign(self.leader.agent_id, self._leader_program())
        # Single-root mode: this driver's agents are the engine's whole
        # population, so the kernel's O(1) tally answers for them.
        self.engine.run_until(self.engine.kernel.all_settled)
        metrics = self.engine.finalize_metrics()
        return DispersionResult(
            dispersed=is_dispersed(self.agents.values()),
            positions=self.engine.kernel.positions(),
            metrics=metrics,
            dfs_parent=list(self.dfs_parent),
            algorithm="RootedAsyncDisp",
            notes={"k": self.k, "treelabel": self.treelabel},
        )

    def is_visited(self, node: int) -> bool:
        """Ground truth for strict checks: visited by this DFS or any other tree."""
        return node in self.visited or node in self.foreign_visited

    def settle_root(self) -> None:
        """Settle the smallest-ID group member at the root (time-0 action)."""
        self._settle_smallest_at(self.root, None)

    def run_group(self) -> List[Agent]:
        """Group-mode execution for the general-configuration driver.

        The caller has already settled this group's root.  Runs the leader
        program on the shared engine until the group has dispersed or its DFS
        is blocked by foreign trees; returns the still-unsettled group members.
        """
        self.engine.assign(self.leader.agent_id, self._leader_program(settle_root=False))
        self.unsettled_members = sum(1 for a in self.agents.values() if not a.settled)
        self.engine.run_until(lambda: self.finished or self.unsettled_members == 0)
        return [a for a in self.agents.values() if not a.settled]

    # --------------------------------------------------------------- helpers
    def settler_at(self, node: int) -> Optional[Agent]:
        """The settler whose home is ``node`` and who is currently there."""
        return self.engine.kernel.home_settler_at(node)

    def _settle_smallest_at(self, node: int, parent_port: Optional[int]) -> Agent:
        # ``agents_at`` is the fault-filtered Communicate query, so a crashed
        # or frozen agent can never be chosen to settle (v2 fault contract).
        candidates = [
            a
            for a in self.engine.kernel.agents_at(node)
            if not a.settled and a.agent_id in self.agents
        ]
        if not candidates:
            raise RuntimeError(
                f"no fault-eligible agent available to settle at node {node}"
            )
        non_leader = [a for a in candidates if a is not self.leader]
        pool = non_leader if non_leader else candidates
        agent = min(pool, key=lambda a: a.agent_id)
        agent.settle(node, parent_port, treelabel=self.treelabel)
        self.unsettled_members -= 1
        self.visited.add(node)
        self.metrics.bump("settled")
        return agent

    def _followers_at(self, node: int) -> List[Agent]:
        return [
            a
            for a in self.engine.kernel.agents_at(node)
            if not a.settled and a is not self.leader and a.agent_id in self.agents
        ]

    @staticmethod
    def _single_move(port: int):
        yield Move(port)

    def _group_move(self, w: int, port: int):
        """All unsettled agents at ``w`` cross ``port``; the leader waits for them."""
        followers = self._followers_at(w)
        target = self.graph.neighbor(w, port)
        for follower in followers:
            self.engine.assign(follower.agent_id, self._single_move(port))
        yield Move(port)
        follower_ids = tuple(f.agent_id for f in followers)
        yield WaitUntil(
            lambda ids=follower_ids, t=target: all(
                self.agents[i].position == t for i in ids
            )
        )

    # --------------------------------------------------------------- program
    def _leader_program(self, settle_root: bool = True):
        """Algorithm 8 from the leader's point of view."""
        if settle_root:
            self._settle_smallest_at(self.root, None)
            yield Stay()

        while not self.leader.settled:
            w = self.leader.position
            found, guests = yield from async_probe(self, w)
            yield from guest_see_off(self, w, guests)
            if found is not None:
                u = self.graph.neighbor(w, found)
                yield from self._group_move(w, found)
                parent_port = self.graph.reverse_port(w, found)
                self.dfs_parent[u] = w
                self._settle_smallest_at(u, parent_port)
                self.metrics.bump("forward_moves")
            else:
                settler = self.settler_at(w)
                if settler is None or settler.parent_port is None:
                    # Single-root executions can never reach this state; a group
                    # of a multi-root execution can, when its entire frontier is
                    # occupied by other trees.  The group driver scatters the
                    # leftover agents.
                    self.blocked = True
                    self.metrics.bump("group_blocked")
                    break
                yield from self._group_move(w, settler.parent_port)
                self.metrics.bump("backtrack_moves")
        self.finished = True


def rooted_async_dispersion(
    graph: PortLabeledGraph,
    k: int,
    start_node: int = 0,
    adversary: Optional[Scheduler] = None,
    **kwargs,
) -> DispersionResult:
    """Convenience wrapper: run Theorem 7.1's algorithm and return the result."""
    return RootedAsyncDispersion(graph, k, start_node, adversary=adversary, **kwargs).run()
