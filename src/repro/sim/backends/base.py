"""The kernel-backend protocol: world state + move mechanics, swappable.

The :class:`~repro.sim.kernel.ExecutionKernel` owns the *semantics* of a run
(the fault clock, the v2 fault-visibility contract, metrics finalization); a
:class:`KernelBackend` owns the *representation* -- where per-node occupancy
lives, how a batch of moves lands, and how the drivers' settled-agent
questions are answered:

* :class:`~repro.sim.backends.reference.ReferenceBackend` -- the original
  per-agent Python loop, extracted unchanged.  It is the **oracle**: the
  differential suite pins every other backend to its observable behaviour.
* :class:`~repro.sim.backends.vectorized.VectorizedBackend` -- the reference
  state plus an incrementally maintained settled-agent index.

Every backend must be *exactly* interchangeable -- same mutations, same
metrics accounting, same error messages, same query answers -- so algorithm
drivers produce byte-identical records on any backend.  That holds for the
per-operation tier (``apply_move`` / ``apply_batch`` and the raw state
queries) and for the driver-phase primitives below: the settled-agent
queries (:meth:`settled_present` / :meth:`home_settler_at` /
:meth:`has_home_settler`), :meth:`run_probe_round`, and :meth:`run_scatter`.
Their generic bodies are the :mod:`repro.core` driver loops they replaced;
a backend may override them with a faster answer that is observably the
same (``tests/test_backend_differential.py`` pins the equivalence).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar, Dict, List, Mapping, Optional, Sequence, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agents.agent import Agent
    from repro.sim.kernel import ExecutionKernel
    from repro.sim.sync_engine import SyncEngine

__all__ = ["KernelBackend"]


class KernelBackend(ABC):
    """World-state representation behind one :class:`ExecutionKernel`.

    A backend instance is bound to exactly one kernel (:meth:`bind`); the
    kernel delegates all state mutation and raw observation to it, keeping
    fault filtering and metrics finalization to itself.
    """

    #: Registry name (``"reference"``, ``"vectorized"``, ...).
    name: ClassVar[str] = "abstract"

    def __init__(self) -> None:
        self.kernel: Optional["ExecutionKernel"] = None

    def bind(self, kernel: "ExecutionKernel") -> None:
        """Attach to ``kernel``, install its settle tally as every agent's
        settle/unsettle observer, and build state from its agent table.

        Installing replaces whatever observer a previously bound backend left
        on the agents, so an agent feeds only the kernel that bound it last;
        a backend that keeps its own index re-attaches itself in
        :meth:`rebuild` and forwards each event to ``kernel.tally``.
        """
        self.kernel = kernel
        for agent in kernel.agents.values():
            agent._observer = kernel.tally
        self.rebuild()

    # ------------------------------------------------------------------ state
    @abstractmethod
    def rebuild(self) -> None:
        """(Re)derive all backend state from ``self.kernel``'s agents/graph."""

    @property
    @abstractmethod
    def occupancy(self) -> List[Set[int]]:
        """Dense per-node sets of present agent ids.

        The *same live object* across calls: adversaries and tests hold a
        reference to it, so backends must update it in place.
        """

    # --------------------------------------------------------------- movement
    @abstractmethod
    def apply_move(self, agent: "Agent", port: int) -> None:
        """Cross one edge in a single-agent activation (the ASYNC primitive)."""

    @abstractmethod
    def apply_batch(self, moves: Mapping[int, Optional[int]]) -> None:
        """Apply one round's move batch simultaneously (the SYNC primitive)."""

    @abstractmethod
    def apply_walk(self, agent: "Agent", node: int, pin: int, moves: int) -> None:
        """Land ``agent`` at ``node`` (arrived through ``pin``) after ``moves``
        unobserved edge crossings, with the state and move accounting of
        ``moves`` single moves (the lazy oscillators' landing primitive)."""

    # ------------------------------------------------------------ observation
    @abstractmethod
    def present_ids(self, node: int) -> List[int]:
        """Sorted ids of every agent body at ``node`` (no fault filtering)."""

    @abstractmethod
    def occupied(self, node: int) -> bool:
        """True when at least one agent body is at ``node``."""

    @abstractmethod
    def positions(self) -> Dict[int, int]:
        """Snapshot of ``agent_id -> node``."""

    # ------------------------------------------------- settled-agent queries
    # Driver-phase primitives: overrides must be observably exact.  The
    # generic bodies below are the repro.core driver loops they replaced,
    # verbatim -- fault filtering rides kernel.agents_at (the v2 Communicate
    # query), and none of them count trace probes (the loops they replaced
    # never did; only settled_agent_at/settled_agents_at do).

    def settled_present(self, node: int, exclude_id: Optional[int] = None) -> bool:
        """True when a settled agent other than ``exclude_id`` communicates at
        ``node`` (Sync_Probe's "did my seeker meet anyone" question)."""
        for other in self.kernel.agents_at(node):
            if other.agent_id != exclude_id and other.settled:
                return True
        return False

    def home_settler_at(self, node: int) -> Optional["Agent"]:
        """The min-id communicating agent settled with ``home == node``."""
        for agent in self.kernel.agents_at(node):
            if agent.settled and agent.home == node:
                return agent
        return None

    def has_home_settler(self, node: int, exclude_id: Optional[int] = None) -> bool:
        """True when some communicating agent other than ``exclude_id`` is
        settled with ``home == node`` (the scatter "is this node free" test)."""
        for agent in self.kernel.agents_at(node):
            if agent.settled and agent.home == node and agent.agent_id != exclude_id:
                return True
        return False

    def run_probe_round(
        self, nodes: Sequence[int], exclude_ids: Sequence[int]
    ) -> List[bool]:
        """One probe round, batched: element ``i`` answers whether a settled
        agent other than ``exclude_ids[i]`` communicates at ``nodes[i]``."""
        return [
            self.settled_present(node, exclude)
            for node, exclude in zip(nodes, exclude_ids)
        ]

    # --------------------------------------------------------- phase driving
    def run_scatter(
        self,
        engine: "SyncEngine",
        walker_ids: Sequence[int],
        start: int,
        ports: Sequence[int],
        counter: Optional[str] = None,
    ) -> int:
        """Drive a scatter pack from ``start`` down the port path, one engine
        round per hop; returns the node at the end of the path.

        Each hop moves exactly the walkers still standing on the path head (a
        walker whose move was fault-dropped falls out of the pack, exactly as
        in the per-round driver loop this replaces), and bumps ``counter``
        when given.  Every hop is a real :meth:`SyncEngine.step`, so fault
        gates, invariant checks, and tracing all fire per round.
        """
        kernel = self.kernel
        agents = kernel.agents
        graph = kernel.graph
        walkers = [agents[a] for a in walker_ids]
        current = start
        for port in ports:
            moves = {a.agent_id: port for a in walkers if a.position == current}
            engine.step(moves)
            current = graph.neighbor(current, port)
            if counter is not None:
                kernel.metrics.bump(counter)
        return current
