"""Execution kernel shared by every simulation engine.

The paper's SYNC and ASYNC settings are two points on one scheduling
spectrum: both execute the same Communicate–Compute–Move cycle against the
same world state, they differ only in *who acts when* (every agent in
lockstep rounds vs. adversary-chosen single activations).  Everything that
is a property of the **world** rather than of the **schedule** therefore
lives here, in one :class:`ExecutionKernel` that both
:class:`~repro.sim.sync_engine.SyncEngine` and
:class:`~repro.sim.async_engine.AsyncEngine` are thin facades over:

* the agent table and the pluggable **state backend**
  (:mod:`repro.sim.backends`) holding the dense per-node occupancy and
  applying moves -- the per-agent reference loop, optionally with a
  settled-agent index, selected per scenario,
* move application (single activation moves and simultaneous SYNC batches)
  with the per-agent move accounting behind ``max_moves_per_agent``,
* the settle tally behind :meth:`ExecutionKernel.all_settled`, the O(1)
  answer every termination predicate asks,
* resolution of the fault injector / invariant checker / backend from
  explicit arguments or the ambient :mod:`repro.sim.instrumentation` context,
* the **fault clock** -- the tick fault queries are answered at: the
  executing activation's tick while program code runs inside one
  (``cycle_time``), else the engine's native counter (rounds or
  activations),
* the v2 fault-visibility observation queries (``agents_at``, ``occupied``,
  ``settled_agent_at``, ``settled_agents_at``, ``fault_view``,
  ``positions``, ``finalize_metrics``): a crashed/frozen agent's body stays
  physically present but it is invisible to co-located interaction -- it can
  neither settle, be settled or instructed, nor answer probes while blocked.

Scheduling policy -- what a "step" is, how time advances, which agent acts
next -- stays in the facades and in the pluggable schedulers of
:mod:`repro.sim.adversary`.  That split is what opens the synchrony
spectrum: a new scheduling discipline (semi-synchronous, bounded-delay)
composes with the kernel instead of re-implementing the world logic.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro.agents.agent import Agent
from repro.graph.port_graph import PortLabeledGraph
from repro.sim import instrumentation
from repro.sim.backends import KernelBackend, resolve_backend
from repro.sim.faults import AgentFaultView, FaultInjector
from repro.sim.invariants import InvariantChecker
from repro.sim.metrics import RunMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.trace import TraceRecorder

__all__ = ["ExecutionKernel", "SettleTally"]


class SettleTally:
    """The settled-flag bookkeeping every bound kernel keeps in O(1).

    ``unsettled`` is the number of the kernel's agents whose ``settled`` flag
    is down; ``events`` counts every settle and unsettle notification, so it
    moves whenever some settled flag may have changed.  The kernel answers
    "is everyone settled?" from the first (:meth:`ExecutionKernel.all_settled`)
    and the trace recorder skips unchanged ticks on the second.

    The tally references nothing: agents point at it (or at a backend that
    forwards to it), never the other way round, so binding a kernel adds no
    reference cycle through its agents.
    """

    __slots__ = ("unsettled", "events")

    def __init__(self, unsettled: int) -> None:
        self.unsettled = unsettled
        self.events = 0

    def notify_settle(self, agent: Agent) -> None:
        """Agent observer hook: ``agent`` just settled."""
        self.unsettled -= 1
        self.events += 1

    def notify_unsettle(self, agent: Agent) -> None:
        """Agent observer hook: ``agent`` is about to unsettle."""
        self.unsettled += 1
        self.events += 1


class ExecutionKernel:
    """World state, move mechanics, and fault-filtered observation queries.

    Parameters
    ----------
    graph:
        The anonymous port-labeled graph.
    agents:
        The agents, each already carrying its start position.
    time_attr:
        Which :class:`~repro.sim.metrics.RunMetrics` counter is the engine's
        native clock: ``"rounds"`` (SYNC) or ``"activations"`` (ASYNC).  The
        fault clock reads it whenever no activation is executing.
    fault_injector, invariant_checker:
        Optional fault model and run-time safety checks (see
        :mod:`repro.sim.faults` / :mod:`repro.sim.invariants`).  When
        omitted, both are resolved from the ambient instrumentation context
        (:mod:`repro.sim.instrumentation`), which is how the experiment
        runner instruments engines that algorithm drivers build internally.
    backend:
        World-state representation (:mod:`repro.sim.backends`): a registry
        name, an unbound :class:`~repro.sim.backends.KernelBackend`
        instance, or ``None`` to resolve from the ambient instrumentation
        context, falling back to the ``"reference"`` default.
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        agents: Iterable[Agent],
        time_attr: str = "rounds",
        fault_injector: Optional[FaultInjector] = None,
        invariant_checker: Optional[InvariantChecker] = None,
        backend: Union[None, str, KernelBackend] = None,
    ) -> None:
        if time_attr not in ("rounds", "activations"):
            raise ValueError(f"time_attr must be 'rounds' or 'activations', got {time_attr!r}")
        self.graph = graph
        self.agents: Dict[int, Agent] = {}
        for agent in agents:
            if agent.agent_id in self.agents:
                raise ValueError(f"duplicate agent id {agent.agent_id}")
            self.agents[agent.agent_id] = agent
        if not self.agents:
            raise ValueError("need at least one agent")
        self.metrics = RunMetrics()
        self.moves_per_agent: Dict[int, int] = {}
        self._count_activations = time_attr == "activations"
        #: While an activation is executing, the tick it runs at; fault queries
        #: made by program code must see *that* tick, not the already-advanced
        #: activation counter (``None`` between activations).
        self.cycle_time: Optional[int] = None
        config = instrumentation.current()
        if fault_injector is None and config is not None:
            fault_injector = config.make_injector(sorted(self.agents))
        if invariant_checker is None and config is not None:
            invariant_checker = config.make_checker(graph, self.agents)
        elif invariant_checker is not None:
            invariant_checker.attach(graph, self.agents)
        self.fault_injector = fault_injector
        self.invariant_checker = invariant_checker
        if backend is None and config is not None:
            backend = config.backend
        #: Unsettled-agent count and settle/unsettle event count, kept by the
        #: observer hook the backend installs on every agent at bind.
        self.tally = SettleTally(sum(1 for a in self.agents.values() if not a.settled))
        self.backend = resolve_backend(backend)
        self.backend.bind(self)
        # The recorder snapshots initial positions through the backend, so it
        # must resolve after the bind.  ``None`` is the tracing-off fast path:
        # every hook below is a single attribute check.
        self.trace: Optional["TraceRecorder"] = None
        if config is not None and config.trace:
            self.trace = config.make_recorder(self)

    @property
    def occupancy(self) -> List[Set[int]]:
        """The backend's live per-node id sets (stable object across calls)."""
        return self.backend.occupancy

    def all_settled(self) -> bool:
        """True when every agent is settled, in O(1): the settle tally the
        agents' settle/unsettle hook keeps, never a scan of the population.
        Termination predicates ask this once per activation or round."""
        return self.tally.unsettled == 0

    # -------------------------------------------------------------- the clock
    def now(self) -> int:
        """The tick fault queries are answered at (the fault clock)."""
        if self.cycle_time is not None:
            return self.cycle_time
        metrics = self.metrics
        return metrics.activations if self._count_activations else metrics.rounds

    # ---------------------------------------------------------------- movement
    def apply_move(self, agent: Agent, port: int) -> None:
        """Cross one edge in a single-agent activation (the ASYNC primitive)."""
        self.backend.apply_move(agent, port)

    def apply_batch(self, moves: Mapping[int, Optional[int]]) -> None:
        """Apply one round's move batch simultaneously (the SYNC primitive).

        ``moves`` maps agent id to exit port; ``None`` ports mean "stay put".
        All moves are validated against the *current* positions first, then
        every source is vacated and the batch lands at once, exactly as in the
        SYNC model (no agent observes another on an edge).
        """
        self.backend.apply_batch(moves)

    # ------------------------------------------------------------ observation
    def fault_view(self, agent_id: int) -> AgentFaultView:
        """The agent's :class:`AgentFaultView` at the current fault clock.

        The healthy view when no fault injector is installed; drivers gate
        their on-behalf-of actions (settling an agent, conscripting it into a
        group move) through this instead of reaching into the injector.
        """
        if self.fault_injector is None:
            return AgentFaultView(agent_id=agent_id)
        return self.fault_injector.view(agent_id, self.now())

    def agents_at(self, node: int) -> List[Agent]:
        """Agents at ``node`` that participate in communication right now.

        This is the Communicate-phase query of the v2 fault contract: a
        crashed/frozen agent's body remains on the node (see
        :meth:`positions` / :meth:`occupied`) but it executes no cycle, so it
        is invisible here -- it cannot answer probes, be settled, or be
        instructed while blocked.
        """
        present = self.backend.present_ids(node)
        injector = self.fault_injector
        if injector is None:
            return [self.agents[a] for a in present]
        now = self.now()
        return [self.agents[a] for a in present if not injector.is_blocked(a, now)]

    def occupied(self, node: int) -> bool:
        """True when at least one agent body is at ``node`` (physical query)."""
        return self.backend.occupied(node)

    def settled_agent_at(self, node: int) -> Optional[Agent]:
        """The settled agent at ``node`` that answers probes right now."""
        found: Optional[Agent] = None
        for agent in self.agents_at(node):
            if agent.settled and self.fault_view(agent.agent_id).answers_probes:
                found = agent
                break
        if self.trace is not None:
            self.trace.count_probe(found is not None)
        return found

    def settled_agents_at(self, node: int) -> List[Agent]:
        """All settled agents at ``node`` that answer probes right now."""
        found = [
            a
            for a in self.agents_at(node)
            if a.settled and self.fault_view(a.agent_id).answers_probes
        ]
        if self.trace is not None:
            self.trace.count_probe(bool(found))
        return found

    def settled_present(self, node: int, exclude_id: Optional[int] = None) -> bool:
        """True when a settled agent other than ``exclude_id`` communicates at
        ``node`` right now.

        Backend-delegated driver-phase query (deterministic batch tier): the
        answer is fault-filtered like :meth:`agents_at`, but -- matching the
        driver loops it replaced -- it does *not* count a trace probe (only
        :meth:`settled_agent_at` / :meth:`settled_agents_at` do).
        """
        return self.backend.settled_present(node, exclude_id)

    def home_settler_at(self, node: int) -> Optional[Agent]:
        """The min-id communicating agent settled with ``home == node``."""
        return self.backend.home_settler_at(node)

    def has_home_settler(self, node: int, exclude_id: Optional[int] = None) -> bool:
        """True when a communicating agent other than ``exclude_id`` is settled
        with ``home == node`` (the scatter drivers' "node is taken" test)."""
        return self.backend.has_home_settler(node, exclude_id)

    def run_probe_round(
        self, nodes: Sequence[int], exclude_ids: Sequence[int]
    ) -> List[bool]:
        """Batched :meth:`settled_present` over parallel sequences."""
        return self.backend.run_probe_round(nodes, exclude_ids)

    def positions(self) -> Dict[int, int]:
        """Snapshot of ``agent_id -> node``."""
        return self.backend.positions()

    def finalize_metrics(self) -> RunMetrics:
        """Fold per-agent memory peaks (and any fault/invariant counters) into
        the run metrics and return them."""
        self.metrics.record_memory(self.agents.values())
        if self.invariant_checker is not None:
            self.invariant_checker.finalize(self.now())
            for name, value in self.invariant_checker.metrics_extra().items():
                self.metrics.set_extra(name, value)
        if self.fault_injector is not None:
            for name, value in self.fault_injector.metrics_extra().items():
                self.metrics.set_extra(name, value)
        return self.metrics
