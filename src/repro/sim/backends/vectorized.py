"""The reference backend plus an incrementally maintained settled-agent index.

The paper's drivers work on a few co-located agents per round; the question
they ask the world most often is "is a settled agent here, or at home here?"
(Sync_Probe's met-check, the DFS head's ``α(w)`` lookup, the scatter drivers'
free-node test).  This backend inherits the reference backend's world state
and move mechanics unchanged and adds only an index that answers those
questions without scanning the node's occupants:

* ``_settled_count`` / ``_settled_idsum`` -- per-node count and id-sum of the
  settled *bodies* there.  Together they decide "is a settled agent other
  than X here" exactly: ids are unique, so count >= 2 always has another, and
  the count == 1 body is agent idsum.
* ``_home_ids`` -- home node -> ids of the agents settled there, for the
  home-settler queries.

The index is kept current by the ``Agent`` settle/unsettle observer hooks
(the backend observes its agents itself and forwards each event to the
kernel's settle tally) and by re-keying settled bodies (oscillators move
while settled) after every move.  It is not fault-filtered, so under a fault
injector every query defers to the reference scan -- the settled queries are
Communicate queries.

The index is plain Python lists: Sync_Probe checks at most
``min(ceil(k/3), deg)`` neighbours per iteration, so a probe round carries a
handful of nodes and every settled-body move is a scalar update -- traffic on
which array set-up costs more than it saves.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

from repro.agents.agent import Agent
from repro.sim.backends.base import KernelBackend
from repro.sim.backends.reference import ReferenceBackend

__all__ = ["VectorizedBackend"]


class VectorizedBackend(ReferenceBackend):
    """Reference world state plus the settled-agent index."""

    name = "vectorized"

    # ------------------------------------------------------------------ state
    def rebuild(self) -> None:
        super().rebuild()
        kernel = self.kernel
        n = kernel.graph.num_nodes
        self._settled_count: List[int] = [0] * n
        self._settled_idsum: List[int] = [0] * n
        self._home_ids: Dict[int, Set[int]] = {}
        for agent in kernel.agents.values():
            agent._observer = self
            if agent.settled:
                self._settled_count[agent.position] += 1
                self._settled_idsum[agent.position] += agent.agent_id
                self._home_ids.setdefault(agent.home, set()).add(agent.agent_id)

    # ------------------------------------------------- settled-index upkeep
    def notify_settle(self, agent: Agent) -> None:
        """Agent observer hook: ``agent`` just settled (position == home)."""
        self.kernel.tally.notify_settle(agent)
        node = agent.position
        self._settled_count[node] += 1
        self._settled_idsum[node] += agent.agent_id
        self._home_ids.setdefault(agent.home, set()).add(agent.agent_id)

    def notify_unsettle(self, agent: Agent) -> None:
        """Agent observer hook: ``agent`` is about to unsettle (state intact)."""
        self.kernel.tally.notify_unsettle(agent)
        node = agent.position
        self._settled_count[node] -= 1
        self._settled_idsum[node] -= agent.agent_id
        ids = self._home_ids.get(agent.home)
        if ids is not None:
            ids.discard(agent.agent_id)
            if not ids:
                del self._home_ids[agent.home]

    def _settled_body_moved(self, agent: Agent, src: int, dst: int) -> None:
        """Re-key the settled-presence index when a settled body crosses an
        edge (oscillators move while settled; their home entry is unchanged)."""
        self._settled_count[src] -= 1
        self._settled_idsum[src] -= agent.agent_id
        self._settled_count[dst] += 1
        self._settled_idsum[dst] += agent.agent_id

    # ---------------------------------------------------------------- movement
    # The reference moves land first; a failed move raises before mutating
    # anything, so the index is only re-keyed for moves that happened.

    def apply_move(self, agent: Agent, port: int) -> None:
        src = agent.position
        super().apply_move(agent, port)
        if agent.settled:
            self._settled_body_moved(agent, src, agent.position)

    def apply_batch(self, moves: Mapping[int, Optional[int]]) -> None:
        agents = self.kernel.agents
        settled_sources = []
        for agent_id, port in moves.items():
            agent = agents.get(agent_id)  # unknown ids raise in super(), in order
            if port is not None and agent is not None and agent.settled:
                settled_sources.append((agent, agent.position))
        super().apply_batch(moves)
        for agent, src in settled_sources:
            self._settled_body_moved(agent, src, agent.position)

    def apply_walk(self, agent: Agent, node: int, pin: int, moves: int) -> None:
        src = agent.position
        super().apply_walk(agent, node, pin, moves)
        if agent.settled:
            self._settled_body_moved(agent, src, node)

    # ------------------------------------------------- settled-agent queries
    # Deterministic primitives: index-answered only when no fault injector is
    # installed (fault filtering needs the injector's per-agent view, which is
    # exactly the generic path), byte-identical either way.

    def settled_present(self, node: int, exclude_id: Optional[int] = None) -> bool:
        if self.kernel.fault_injector is not None:
            return super().settled_present(node, exclude_id)
        count = self._settled_count[node]
        if count == 0:
            return False
        if count > 1 or exclude_id is None:
            return True
        return self._settled_idsum[node] != exclude_id

    def home_settler_at(self, node: int) -> Optional[Agent]:
        if self.kernel.fault_injector is not None:
            return super().home_settler_at(node)
        ids = self._home_ids.get(node)
        if not ids:
            return None
        agents = self.kernel.agents
        best: Optional[Agent] = None
        for agent_id in ids:
            agent = agents[agent_id]
            if agent.position == node and (best is None or agent_id < best.agent_id):
                best = agent
        return best

    def has_home_settler(self, node: int, exclude_id: Optional[int] = None) -> bool:
        if self.kernel.fault_injector is not None:
            return super().has_home_settler(node, exclude_id)
        ids = self._home_ids.get(node)
        if not ids:
            return False
        agents = self.kernel.agents
        for agent_id in ids:
            if agent_id != exclude_id and agents[agent_id].position == node:
                return True
        return False

    # The generic batch bodies, bound here by name: perfbench's tracer
    # (perfbench/tracer.py) wraps each backend's own run_probe_round and
    # run_scatter.  The probe round asks the indexed settled_present above
    # once per node; the re-keying apply_batch keeps the index current on
    # every scatter hop.
    run_probe_round = KernelBackend.run_probe_round
    run_scatter = KernelBackend.run_scatter
