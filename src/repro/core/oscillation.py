"""Oscillating settlers (paper Section 5.2, Lemmas 2–3, Figures 2–4).

A settled agent whose group contains empty nodes *oscillates*: it repeatedly
performs a round-robin trip from its home node through its covered empty nodes
and back.  Two trip shapes exist:

* **child cover** (Case I): the settler at node ``w`` covers up to 3 empty
  children of ``w``; the trip is ``w – a – w – b – w – c – w`` (≤ 6 rounds),
* **sibling cover** (Case II): the settler at node ``w`` covers up to 2 empty
  siblings reachable through the common parent ``p``; the trip is
  ``w – p – a – p – b – p – w`` (≤ 6 rounds).

Because a waiting probe agent (Algorithm 2) stays at a probed node for more
rounds than one trip takes, it is guaranteed to meet the oscillator if the node
belongs to the DFS tree -- that is how "already visited" is detected without
node memory.

Three layers live here:

* *static* helpers (:func:`build_trip`, :func:`max_trip_length`) used by the
  Figure-2/3/4 analyses and by property tests of Lemma 2,
* the *runtime* :class:`Oscillator` state machine that the SYNC dispersion
  engine steps every round; it physically moves the settler, restarts its trip
  when its covered set changes, drops covered nodes once somebody settles on
  them, and returns home when it has nothing left to cover,
* :class:`LazyOscillators`, which on a run nothing watches tick by tick stops
  that round-by-round stepping: between cover changes an oscillator's
  position is a closed-form function of the round (Lemma 2), so each body is
  fast-forwarded (:meth:`Oscillator.advance`) and landed in the kernel only
  when something is about to observe it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.agents.agent import Agent, AgentRole
from repro.graph.port_graph import PortLabeledGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import ExecutionKernel

__all__ = ["CoveredNode", "LazyOscillators", "Oscillator", "build_trip", "max_trip_length"]


@dataclass(frozen=True)
class CoveredNode:
    """One empty node covered by an oscillating settler.

    ``route_out`` is the sequence of ports (starting from the oscillator's home
    node) leading to the covered node: one port for a child of the home node,
    two ports (home→parent, parent→sibling) for a sibling.  The return path uses
    the reverse ports, which the simulator provides on arrival (``pin``), so the
    oscillator itself only needs to remember ``route_out`` -- O(1) port fields.
    """

    node: int
    route_out: Tuple[int, ...]

    @property
    def is_sibling(self) -> bool:
        return len(self.route_out) == 2


def build_trip(covered: Sequence[CoveredNode]) -> List[int]:
    """Round lengths of a full oscillation trip over ``covered`` (Lemma 2).

    Returns the per-leg move counts; the total is the trip length in rounds.
    A child leg costs 2 rounds (out and back); sibling legs share the hop to the
    parent: the first sibling leg costs 3 (home→parent→sib→parent is 3 moves …
    we count home→parent, parent→sib, sib→parent), subsequent sibling legs 2,
    plus 1 final move parent→home.
    """
    if not covered:
        return []
    legs: List[int] = []
    siblings = [c for c in covered if c.is_sibling]
    children = [c for c in covered if not c.is_sibling]
    for _ in children:
        legs.append(2)
    if siblings:
        legs.append(1)  # home -> parent
        for _ in siblings:
            legs.append(2)  # parent -> sibling -> parent
        legs.append(1)  # parent -> home
    return legs


def max_trip_length(covered: Sequence[CoveredNode]) -> int:
    """Total rounds of one full trip (Lemma 2 asserts ≤ 6 for valid covers)."""
    return sum(build_trip(covered))


class Oscillator:
    """Runtime oscillation state machine for one settled agent.

    The SYNC engine calls :meth:`plan_step` once per round *before* executing
    the round to obtain the port (if any) this oscillator moves through.  After
    the round it calls :meth:`drop_cover` for a covered node the oscillator
    stands on once another agent has settled there; nothing can be dropped
    anywhere else, so the engine asks only on covered nodes.

    :meth:`plan_step` is the one definition of the trip order.  On a run that
    no fault injector, invariant checker or trace recorder watches, the engine
    steps an oscillator only while a drop is due and otherwise fast-forwards
    it on demand with :meth:`advance`, which replays :meth:`plan_step` and
    skips whole trips arithmetically (see :class:`LazyOscillators`).

    The oscillator's walk is driven entirely by a pre-planned list of ports from
    its home; it never needs more than O(1) port fields, which matches the
    memory accounting done by the caller.
    """

    def __init__(self, agent: Agent, home: int, graph: PortLabeledGraph) -> None:
        self.agent = agent
        self.home = home
        self.graph = graph
        #: Covered nodes in the order they were assigned (the trip order).
        self.covered: Dict[int, CoveredNode] = {}
        self._plan: Sequence[int] = ()  # ports of the current trip (never mutated)
        self._plan_pos: int = 0
        self._stopped = False
        # The full trip depends only on the cover set and the port numbering,
        # so it is built once per cover change or churn event (see _full_trip).
        self._trip: Optional[Tuple[int, ...]] = None
        self._trip_churn = 0
        #: Driver tick at which the body last landed in the kernel (kept by
        #: :class:`LazyOscillators`; unused while stepped every round).
        self.landed_at = 0
        agent.role = AgentRole.OSCILLATOR

    # ------------------------------------------------------------ assignment
    def add_cover(self, node: int, route_out: Sequence[int]) -> None:
        """Start covering ``node`` (reached from home via ``route_out`` ports)."""
        if node in self.covered:
            return
        self.covered[node] = CoveredNode(node=node, route_out=tuple(route_out))
        self._trip = None
        # The new node is picked up on the next trip; if the oscillator was
        # parked at home with nothing to do, restart immediately.
        if not self._plan and self.agent.position == self.home:
            self._plan = self._full_trip()
            self._plan_pos = 0

    def drop_cover(self, node: int) -> None:
        """Stop covering ``node`` (someone settled there)."""
        self.covered.pop(node, None)
        self._trip = None

    @property
    def is_active(self) -> bool:
        """True while the oscillator still has nodes to cover or is not home."""
        return bool(self.covered) or self.agent.position != self.home or bool(self._plan)

    # ---------------------------------------------------------------- moves
    def plan_step(self, position: Optional[int] = None) -> Optional[int]:
        """Port to move through this round, or ``None`` to stay put.

        ``position`` is where the body stands; it defaults to the agent's
        position, and :meth:`advance` passes the node its replay has reached.
        """
        if self._stopped:
            return None
        if position is None:
            position = self.agent.position
        if not self._plan:
            if position != self.home:
                # Finish walking home along the remainder of a cleared plan:
                # this only happens when covers were dropped mid-trip; the
                # remaining plan always ends at home, so rebuild a direct path.
                self._plan = self._path_home(position)
                self._plan_pos = 0
            elif self.covered:
                self._plan = self._full_trip()
                self._plan_pos = 0
            else:
                return None
        if self._plan_pos >= len(self._plan):
            self._plan = ()
            self._plan_pos = 0
            return self.plan_step(position)
        port = self._plan[self._plan_pos]
        self._plan_pos += 1
        if self._plan_pos >= len(self._plan):
            self._plan = ()
            self._plan_pos = 0
        return port

    def advance(
        self, rounds: int, position: int, pin: Optional[int]
    ) -> Tuple[int, Optional[int], int]:
        """Fast-forward ``rounds`` rounds in which every planned move happens.

        Starting from a body at ``position`` that arrived through ``pin``,
        returns ``(position, pin, moves)`` after that many :meth:`plan_step`
        rounds with each returned port crossed.  The rest of the current plan
        is replayed step by step; then the body is home, so whole trips are
        skipped arithmetically (each one ``len(trip)`` moves back to home) and
        only the remainder is replayed.  Only valid while nothing can change
        the cover set or drop a move, which :class:`LazyOscillators` ensures.
        """
        if self._stopped:
            return position, pin, 0
        move = self.graph.move
        moves = 0
        while rounds and (self._plan or position != self.home):
            position, pin = move(position, self.plan_step(position))
            moves += 1
            rounds -= 1
        if not rounds or not self.covered:
            return position, pin, moves
        trip = self._full_trip()
        whole, rounds = divmod(rounds, len(trip))
        if whole:
            moves += whole * len(trip)
            if not rounds:
                for port in trip:  # the pin of the arrival home
                    position, pin = move(position, port)
        for _ in range(rounds):
            position, pin = move(position, self.plan_step(position))
            moves += 1
        return position, pin, moves

    # --------------------------------------------------------------- helpers
    def _full_trip(self) -> Tuple[int, ...]:
        """Ports of one complete round-robin trip starting and ending at home.

        Cached per cover set: :meth:`add_cover` and :meth:`drop_cover` clear
        the cache, and a churn event (which may renumber the ports the trip
        resolves) invalidates it through ``graph.churn_count``.
        """
        churn = self.graph.churn_count
        if self._trip is None or self._trip_churn != churn:
            self._trip = self._build_trip()
            self._trip_churn = churn
        return self._trip

    def _build_trip(self) -> Tuple[int, ...]:
        """The trip of :meth:`_full_trip`, resolved against the current graph."""
        ports: List[int] = []
        children = [c for c in self.covered.values() if not c.is_sibling]
        siblings = [c for c in self.covered.values() if c.is_sibling]
        for c in children:
            out = c.route_out[0]
            back = self.graph.reverse_port(self.home, out)
            ports.extend([out, back])
        if siblings:
            to_parent = siblings[0].route_out[0]
            parent = self.graph.neighbor(self.home, to_parent)
            ports.append(to_parent)
            for c in siblings:
                out = c.route_out[1]
                back = self.graph.reverse_port(parent, out)
                ports.extend([out, back])
            ports.append(self.graph.reverse_port(self.home, to_parent))
        return tuple(ports)

    def _path_home(self, start: int) -> List[int]:
        """Shortest port path from ``start`` back home.

        The oscillator is always within 2 hops of home, so this is at most two
        ports; the BFS below is simulator-side convenience and bounded by the
        same 2 hops (it never explores further).
        """
        if start == self.home:
            return []
        # Direct neighbor?
        for port in self.graph.ports(start):
            if self.graph.neighbor(start, port) == self.home:
                return [port]
        # Two hops: via any common neighbor (the parent node of a sibling trip).
        for port in self.graph.ports(start):
            mid = self.graph.neighbor(start, port)
            for port2 in self.graph.ports(mid):
                if self.graph.neighbor(mid, port2) == self.home:
                    return [port, port2]
        raise AssertionError(
            f"oscillator for agent {self.agent.agent_id} strayed more than 2 hops from home"
        )

    def stop(self) -> None:
        """Permanently stop oscillating (used once dispersion is complete)."""
        self._stopped = True
        self.agent.role = AgentRole.SETTLER


class LazyOscillators:
    """One SYNC driver run's oscillators, stepped only when something looks.

    Between cover changes an oscillator repeats one fixed trip (Lemma 2), so
    its position is a closed-form function of the round.  When no fault
    injector, invariant checker or trace recorder watches the run
    (``kernel.observed`` is false), the driver therefore stops stepping every
    oscillator every round.  Each one remembers the driver tick its body last
    landed at (:attr:`Oscillator.landed_at`) and is brought up to date with
    :meth:`Oscillator.advance`, then landed in one kernel operation
    (``apply_walk``), only before something observes it:

    * a kernel query on a node it can stand on: the kernel calls
      :meth:`land_at` (it is registered at its home, its covered nodes, the
      parent of a sibling cover, and every node of a plan it is walking, and
      never unregistered while it lives), or :meth:`land_all` for a
      whole-world read;
    * a driver read of its position (:meth:`land_agent`), a cover change
      (:meth:`add_cover`), its removal (:meth:`before_unsettle`) or the end of
      the run (:meth:`close`).

    A drop check can fire only where a covered node has a home settler, so an
    oscillator stays lazy only while none of its covered nodes has one.  Each
    settle the driver makes reports its node (:meth:`settled_at`), and every
    oscillator covering that node is *eager* -- stepped by the driver each
    round with the drop check, as on an observed run -- until it has dropped
    it.  If the kernel's settle tally moves further than the driver's own
    settles and unsettles account for, every oscillator is eager for the
    rest of the run.

    The clock is the driver's tick count, not the engine's rounds: scatter
    rounds (``step_path``) do not step oscillators.
    """

    def __init__(self, kernel: "ExecutionKernel", oscillators: Mapping[int, Oscillator]) -> None:
        self.kernel = kernel
        self.oscillators = oscillators  # the driver's live table
        #: Driver ticks so far.
        self.ticks = 0
        #: The oscillators the driver steps this round, by agent id.
        self.eager: Dict[int, Oscillator] = {}
        # Eager oscillator id -> settled covered nodes it has still to drop;
        # an eager oscillator without an entry stays eager for good.
        self._due: Dict[int, Set[int]] = {}
        self._at: List[Tuple[Oscillator, ...]] = [()] * kernel.graph.num_nodes
        self._nodes: Dict[int, Set[int]] = {}
        self._events = kernel.tally.events
        self._all_eager = False
        kernel.lazy = self

    # ----------------------------------------------------------- landing
    def land(self, osc: Oscillator) -> None:
        """Bring ``osc`` up to the current tick and land its body once."""
        rounds = self.ticks - osc.landed_at
        if rounds:
            osc.landed_at = self.ticks
            agent = osc.agent
            node, pin, moves = osc.advance(rounds, agent.position, agent.pin)
            if moves:
                self.kernel.apply_walk(agent, node, pin, moves)

    def land_at(self, node: int) -> None:
        """Land every oscillator that can stand on ``node`` (kernel hook)."""
        ticks = self.ticks
        for osc in self._at[node]:
            if osc.landed_at != ticks:
                self.land(osc)

    def land_all(self) -> None:
        """Land every oscillator (kernel hook for whole-world reads)."""
        for osc in self.oscillators.values():
            self.land(osc)

    def land_agent(self, agent: Agent) -> None:
        """Land ``agent`` if it is an oscillator, before its position is read."""
        osc = self.oscillators.get(agent.agent_id)
        if osc is not None:
            self.land(osc)

    def close(self) -> None:
        """Land everything and detach: the driver steps every oscillator again."""
        self.land_all()
        self.kernel.lazy = None

    # ------------------------------------------------------ driver events
    def adopt(self, osc: Oscillator) -> None:
        """Track a new oscillator, whose body stands still until now."""
        osc.landed_at = self.ticks
        self._register(osc, osc.home)
        self._register_plan(osc)
        if self._all_eager:
            self.eager[osc.agent.agent_id] = osc

    def add_cover(self, osc: Oscillator, node: int, route_out: Sequence[int]) -> None:
        """:meth:`Oscillator.add_cover`, after landing; registers the new trip nodes."""
        self.land(osc)
        osc.add_cover(node, route_out)
        self._register(osc, node)
        if len(route_out) == 2:
            self._register(osc, osc.graph.neighbor(osc.home, route_out[0]))

    def settled_at(self, node: int) -> None:
        """The driver settled one agent at ``node``: every oscillator covering
        it is eager until it drops ``node``."""
        self._events += 1
        for osc in self._at[node]:
            if node in osc.covered:
                self._make_eager(osc, node)

    def before_unsettle(self, agent: Agent) -> None:
        """The driver is about to unsettle ``agent``; if it oscillates, land
        it and forget it (the driver removes it from its table)."""
        self._events += 1
        osc = self.oscillators.get(agent.agent_id)
        if osc is None:
            return
        self.land(osc)
        aid = agent.agent_id
        for node in self._nodes.pop(aid, ()):
            self._at[node] = tuple(o for o in self._at[node] if o is not osc)
        self.eager.pop(aid, None)
        self._due.pop(aid, None)

    # ------------------------------------------------------------- rounds
    def begin_tick(self, moves: Iterable[int]) -> Dict[int, Oscillator]:
        """The oscillators to step this round, given the controller's movers.

        Eager oscillators that have dropped every due node go lazy again.  A
        controller-moved oscillator is stepped this round, so the driver
        still refuses one that its trip moves too.
        """
        if not self._all_eager and self.kernel.tally.events != self._events:
            self._all_eager = True
            self._due.clear()
            for osc in self.oscillators.values():
                self._make_eager(osc, None)
        if self._due:
            for aid, due in list(self._due.items()):
                osc = self.eager[aid]
                due.intersection_update(osc.covered)
                if not due and (osc._plan or osc.agent.position == osc.home):
                    del self._due[aid]
                    del self.eager[aid]
                    self._register_plan(osc)
        oscillators = self.oscillators
        for aid in moves:
            osc = oscillators.get(aid)
            if osc is not None:
                self._make_eager(osc, None)
        return self.eager

    def end_tick(self) -> None:
        """The round ran: advance the clock; eager bodies are current."""
        self.ticks += 1
        for osc in self.eager.values():
            osc.landed_at = self.ticks

    # ------------------------------------------------------------ helpers
    def _make_eager(self, osc: Oscillator, due: Optional[int]) -> None:
        aid = osc.agent.agent_id
        if aid not in self.eager:
            self.land(osc)
            self.eager[aid] = osc
            if not self._all_eager:
                self._due[aid] = set()
        if due is not None and aid in self._due:
            self._due[aid].add(due)

    def _register(self, osc: Oscillator, node: int) -> None:
        nodes = self._nodes.setdefault(osc.agent.agent_id, set())
        if node not in nodes:
            nodes.add(node)
            self._at[node] += (osc,)

    def _register_plan(self, osc: Oscillator) -> None:
        """Register ``osc`` where it stands and along the rest of its plan."""
        node = osc.agent.position
        self._register(osc, node)
        for port in osc._plan[osc._plan_pos:]:
            node = osc.graph.neighbor(node, port)
            self._register(osc, node)
