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

Two layers live here:

* *static* helpers (:func:`build_trip`, :func:`max_trip_length`) used by the
  Figure-2/3/4 analyses and by property tests of Lemma 2,
* the *runtime* :class:`Oscillator` state machine that the SYNC dispersion
  engine steps every round; it physically moves the settler, restarts its trip
  when its covered set changes, drops covered nodes once somebody settles on
  them, and returns home when it has nothing left to cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.agents.agent import Agent, AgentRole
from repro.graph.port_graph import PortLabeledGraph

__all__ = ["CoveredNode", "Oscillator", "build_trip", "max_trip_length"]


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
    def plan_step(self) -> Optional[int]:
        """Port to move through this round, or ``None`` to stay put."""
        if self._stopped:
            return None
        if not self._plan:
            if self.agent.position != self.home:
                # Finish walking home along the remainder of a cleared plan:
                # this only happens when covers were dropped mid-trip; the
                # remaining plan always ends at home, so rebuild a direct path.
                self._plan = self._path_home()
                self._plan_pos = 0
            elif self.covered:
                self._plan = self._full_trip()
                self._plan_pos = 0
            else:
                return None
        if self._plan_pos >= len(self._plan):
            self._plan = ()
            self._plan_pos = 0
            return self.plan_step()
        port = self._plan[self._plan_pos]
        self._plan_pos += 1
        if self._plan_pos >= len(self._plan):
            self._plan = ()
            self._plan_pos = 0
        return port

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

    def _path_home(self) -> List[int]:
        """Shortest port path from the current position back home.

        The oscillator is always within 2 hops of home, so this is at most two
        ports; the BFS below is simulator-side convenience and bounded by the
        same 2 hops (it never explores further).
        """
        start = self.agent.position
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
