"""The anonymous, port-labeled graph substrate (paper Section 2, "Graph").

A :class:`PortLabeledGraph` is a simple, undirected, connected graph
``G = (V, E)`` in which

* nodes are anonymous -- agents may not read node identifiers (internally we use
  integers ``0..n-1`` purely as simulator bookkeeping),
* every node ``v`` labels its incident edges with distinct *port numbers*
  ``1, 2, ..., deg(v)``; the two endpoints of an edge label it independently, so
  ``p_v(u) != p_u(v)`` in general,
* nodes are memoryless: they cannot store information between rounds.

Agents therefore navigate exclusively by ports: "leave the current node through
port ``i``" and, on arrival, learn the incoming port (the paper's ``a.pin``).

The class is deliberately immutable from the *algorithms'* point of view:
agents cannot stash state on the graph, which enforces the memoryless-node
model.  The one sanctioned mutation path is :meth:`PortLabeledGraph.rewire`,
used exclusively by the simulator's fault layer (:mod:`repro.sim.faults`) to
model adversarial edge churn.
"""

from __future__ import annotations

import enum
import random
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["PortAssignment", "PortLabeledGraph"]


class PortAssignment(enum.Enum):
    """Policy used to assign port numbers at each node.

    Port numbers are adversarial in the model (the algorithm must work for every
    labeling), so exposing multiple policies lets tests and benchmarks exercise
    labelings other than the "natural" adjacency order.

    * ``ADJACENCY`` -- ports follow the order neighbors appear in the input
      adjacency structure (deterministic).
    * ``RANDOM`` -- ports are a uniformly random permutation per node (seeded).
    * ``ASYNC_SAFE`` -- the constraint of paper Section 8.2: for any edge
      ``(u, v)`` the two port labels cannot both lie in ``{1, 2}`` unless a
      degree exception applies (port 1 allowed when it is the node's only port;
      port 2 allowed when the node has exactly two ports).  Used by the ASYNC
      general-configuration algorithm.
    """

    ADJACENCY = "adjacency"
    RANDOM = "random"
    ASYNC_SAFE = "async_safe"


def _both_low(pu: int, pv: int, deg_u: int, deg_v: int) -> bool:
    """Return True if the pair of port labels violates the Section 8.2 rule."""

    def low_ok(port: int, deg: int) -> bool:
        if port == 1 and deg == 1:
            return True
        if port == 2 and deg == 2:
            return True
        return False

    if pu <= 2 and pv <= 2:
        # Permitted only if at least one endpoint falls under an exception.
        return not (low_ok(pu, deg_u) or low_ok(pv, deg_v))
    return False


class PortLabeledGraph:
    """A simple, undirected, connected, anonymous, port-labeled graph.

    Parameters
    ----------
    adjacency:
        ``adjacency[v]`` is the ordered sequence of neighbors of node ``v``
        (nodes are ``0..n-1``).  The graph must be simple (no self loops, no
        parallel edges), undirected (``u in adjacency[v]`` iff
        ``v in adjacency[u]``) and connected.
    assignment:
        Port assignment policy, see :class:`PortAssignment`.
    seed:
        Seed for the ``RANDOM`` / ``ASYNC_SAFE`` policies.

    Notes
    -----
    Ports are 1-based, matching the paper.  ``neighbor(v, i)`` implements the
    paper's ``N(v, i)`` and ``reverse_port(v, i)`` gives the port assigned to the
    same edge at the other endpoint (what an agent observes as its incoming port
    ``pin`` after crossing the edge).
    """

    __slots__ = (
        "_n",
        "_m",
        "_offsets",
        "_flat_neighbor",
        "_flat_reverse",
        "_neighbor_to_port",
        "_degrees",
        "_churn_count",
    )

    def __init__(
        self,
        adjacency: Sequence[Sequence[int]],
        assignment: PortAssignment = PortAssignment.ADJACENCY,
        seed: int | None = None,
    ) -> None:
        n = len(adjacency)
        if n == 0:
            raise ValueError("graph must have at least one node")
        self._n = n
        self._validate_simple_undirected(adjacency)

        if assignment is PortAssignment.ASYNC_SAFE:
            # The §8.2 constraint is not always reachable by a single greedy
            # repair pass (and is not satisfiable at all for some topologies,
            # e.g. K4); retry the randomized repair from a few different
            # starting permutations before giving up.
            order = None
            base = 0 if seed is None else seed
            for attempt in range(8):
                candidate = self._port_orders(adjacency, assignment, base + 1_000_003 * attempt)
                if self._async_safe_ok(candidate):
                    order = candidate
                    break
            if order is None:
                order = candidate  # let _enforce_async_safe report the offending edge
        else:
            order = self._port_orders(adjacency, assignment, seed)

        self._churn_count = 0
        self._install_orders(order)
        self._validate_connected()
        if assignment is PortAssignment.ASYNC_SAFE:
            self._enforce_async_safe()

    def _install_orders(self, order: Sequence[Sequence[int]]) -> None:
        """(Re)build every internal structure from per-node neighbor orders.

        Flat CSR-style arrays: ports at node v occupy the contiguous slots
        ``_offsets[v] .. _offsets[v+1]-1``, so the hot accessors (`neighbor`,
        `reverse_port`, `move`) are a single indexed load instead of a nested
        list/dict lookup per simulation step.
          ``_flat_neighbor[_offsets[v] + p - 1] = u``      (the paper's N(v, p))
          ``_flat_reverse[_offsets[v] + p - 1]  = p_u(v)``
        """
        n = self._n
        self._neighbor_to_port: List[Dict[int, int]] = [
            {u: p + 1 for p, u in enumerate(order[v])} for v in range(n)
        ]
        self._degrees = [len(order[v]) for v in range(n)]
        self._m = sum(self._degrees) // 2
        offsets = array("l", [0] * (n + 1))
        for v in range(n):
            offsets[v + 1] = offsets[v] + self._degrees[v]
        self._offsets = offsets
        self._flat_neighbor = array("l", (u for v in range(n) for u in order[v]))
        self._flat_reverse = array(
            "l", (self._neighbor_to_port[u][v] for v in range(n) for u in order[v])
        )

    # ------------------------------------------------------------------ build
    @staticmethod
    def _validate_simple_undirected(adjacency: Sequence[Sequence[int]]) -> None:
        n = len(adjacency)
        for v, nbrs in enumerate(adjacency):
            seen = set()
            for u in nbrs:
                if not (0 <= u < n):
                    raise ValueError(f"node {v} lists out-of-range neighbor {u}")
                if u == v:
                    raise ValueError(f"self loop at node {v}")
                if u in seen:
                    raise ValueError(f"parallel edge {v}-{u}")
                seen.add(u)
        for v, nbrs in enumerate(adjacency):
            for u in nbrs:
                if v not in adjacency[u]:
                    raise ValueError(f"edge {v}-{u} is not symmetric")

    @staticmethod
    def _port_orders(
        adjacency: Sequence[Sequence[int]],
        assignment: PortAssignment,
        seed: int | None,
    ) -> List[List[int]]:
        if assignment is PortAssignment.ADJACENCY:
            return [list(nbrs) for nbrs in adjacency]
        rng = random.Random(seed)
        orders = []
        for nbrs in adjacency:
            order = list(nbrs)
            rng.shuffle(order)
            orders.append(order)
        if assignment is PortAssignment.ASYNC_SAFE:
            orders = PortLabeledGraph._repair_async_safe(orders, rng)
        return orders

    @staticmethod
    def _repair_async_safe(orders: List[List[int]], rng: random.Random) -> List[List[int]]:
        """Greedily permute ports so no edge has both labels in {1, 2}.

        The constraint of Section 8.2 is satisfiable for every simple graph with
        maximum degree >= 3 by a simple local repair: whenever an edge (u, v) has
        both labels low, swap one endpoint's low port with one of its high ports
        that is not itself constrained.  Degree-1 and degree-2 nodes fall under
        the paper's explicit exceptions and never need repair.
        """
        n = len(orders)
        neighbor_to_port = [
            {u: p + 1 for p, u in enumerate(orders[v])} for v in range(n)
        ]

        def violates(v: int, u: int) -> bool:
            return _both_low(
                neighbor_to_port[v][u],
                neighbor_to_port[u][v],
                len(orders[v]),
                len(orders[u]),
            )

        changed = True
        rounds = 0
        while changed and rounds < 10 * n + 100:
            changed = False
            rounds += 1
            for v in range(n):
                deg = len(orders[v])
                if deg <= 1:
                    continue  # single port 1 is always permitted
                for u in list(orders[v]):
                    if not violates(v, u):
                        continue
                    # Find a swap target: another neighbor w of v such that
                    # moving u off its low port removes the violation without
                    # creating a new one for (v, w).  High ports are preferred
                    # (they can never violate); degree-2 nodes can only swap
                    # their two low ports, which works because port 2 at a
                    # degree-2 node falls under the paper's exception.
                    pu = neighbor_to_port[v][u]
                    candidates = sorted(
                        (w for w in orders[v] if w != u),
                        key=lambda w: -neighbor_to_port[v][w],
                    )
                    rng.shuffle(candidates[3:])
                    for w in candidates:
                        pw = neighbor_to_port[v][w]
                        # Swapping would put w on port pu.  Accept only if that
                        # does not create a violation for (v, w) ...
                        if _both_low(pu, neighbor_to_port[w][v], deg, len(orders[w])):
                            continue
                        # ... and u's new port pw does not itself violate.
                        if _both_low(pw, neighbor_to_port[u][v], deg, len(orders[u])):
                            continue
                        # Perform swap of ports pu <-> pw at node v.
                        orders[v][pu - 1], orders[v][pw - 1] = orders[v][pw - 1], orders[v][pu - 1]
                        neighbor_to_port[v][u], neighbor_to_port[v][w] = pw, pu
                        changed = True
                        break
        return orders

    @staticmethod
    def _async_safe_ok(orders: List[List[int]]) -> bool:
        """Check the §8.2 constraint on a candidate port assignment."""
        neighbor_to_port = [
            {u: p + 1 for p, u in enumerate(order)} for order in orders
        ]
        for v, order in enumerate(orders):
            for u in order:
                if _both_low(
                    neighbor_to_port[v][u],
                    neighbor_to_port[u][v],
                    len(orders[v]),
                    len(orders[u]),
                ):
                    return False
        return True

    def _enforce_async_safe(self) -> None:
        for v in range(self._n):
            for p in range(1, self.degree(v) + 1):
                u = self.neighbor(v, p)
                q = self.reverse_port(v, p)
                if _both_low(p, q, self.degree(v), self.degree(u)):
                    raise ValueError(
                        "ASYNC_SAFE port assignment could not be satisfied for "
                        f"edge {v}-{u} (ports {p}, {q}); the topology may be too "
                        "constrained (e.g. many degree-3 nodes in a dense core)."
                    )

    def _validate_connected(self) -> None:
        seen = [False] * self._n
        stack = [0]
        seen[0] = True
        count = 0
        while stack:
            v = stack.pop()
            count += 1
            for u in self._flat_neighbor[self._offsets[v] : self._offsets[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        if count != self._n:
            raise ValueError("graph must be connected")

    # ------------------------------------------------------------ navigation
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return self._m

    def degree(self, v: int) -> int:
        """Degree ``delta_v`` of node ``v``."""
        return self._degrees[v]

    @property
    def max_degree(self) -> int:
        """Maximum degree ``Delta`` of the graph."""
        return max(self._degrees)

    def neighbor(self, v: int, port: int) -> int:
        """The paper's ``N(v, port)``: node reached by leaving ``v`` via ``port``."""
        if not (1 <= port <= self._degrees[v]):
            raise ValueError(f"node {v} has no port {port} (degree {self._degrees[v]})")
        return self._flat_neighbor[self._offsets[v] + port - 1]

    def reverse_port(self, v: int, port: int) -> int:
        """Port of the same edge at the other endpoint, ``p_u(v)``.

        This is what an agent leaving ``v`` via ``port`` observes as its incoming
        port (``pin``) on arrival.
        """
        if not (1 <= port <= self._degrees[v]):
            raise ValueError(f"node {v} has no port {port} (degree {self._degrees[v]})")
        return self._flat_reverse[self._offsets[v] + port - 1]

    def move(self, v: int, port: int) -> Tuple[int, int]:
        """``(N(v, port), p_u(v))`` with a single bounds check.

        The engines' hot path: one edge crossing needs both the destination and
        the incoming port, so fetching them together halves the per-move
        accessor overhead.
        """
        if not (1 <= port <= self._degrees[v]):
            raise ValueError(f"node {v} has no port {port} (degree {self._degrees[v]})")
        i = self._offsets[v] + port - 1
        return self._flat_neighbor[i], self._flat_reverse[i]

    def port_to(self, v: int, u: int) -> int:
        """Port of ``v`` leading to neighbor ``u`` (simulator-side helper)."""
        try:
            return self._neighbor_to_port[v][u]
        except KeyError:
            raise ValueError(f"{u} is not a neighbor of {v}") from None

    def neighbors(self, v: int) -> List[int]:
        """Neighbors of ``v`` in port order (port 1 first)."""
        return self._flat_neighbor[self._offsets[v] : self._offsets[v + 1]].tolist()

    def ports(self, v: int) -> range:
        """Iterable of valid ports at ``v``: ``1..deg(v)``."""
        return range(1, self._degrees[v] + 1)

    def nodes(self) -> range:
        """All node indices (simulator bookkeeping only)."""
        return range(self._n)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges as ``(u, v)`` with ``u < v``."""
        for v in range(self._n):
            for u in self._flat_neighbor[self._offsets[v] : self._offsets[v + 1]]:
                if v < u:
                    yield (v, u)

    # ------------------------------------------------------ dynamic topology
    @property
    def churn_count(self) -> int:
        """Number of :meth:`rewire` events applied so far (0 for static runs).

        The invariant checker watches this counter to know when to re-verify
        the port bijection; algorithms must never read it (nodes are
        memoryless and agents cannot observe topology changes directly).
        """
        return self._churn_count

    def removable_edges(self) -> List[Tuple[int, int]]:
        """Edges ``(u, v)`` with ``u < v`` whose removal keeps the graph connected.

        Exactly the non-bridge edges (found with one Tarjan low-link pass, so
        O(n + m)); the fault injector draws churn removals from this list.
        """
        disc = [-1] * self._n
        low = [0] * self._n
        bridges = set()
        # Iterative Tarjan bridge finding over the CSR arrays.
        timer = 0
        for root in range(self._n):
            if disc[root] >= 0:
                continue
            stack: List[Tuple[int, int, int]] = [(root, -1, 0)]  # node, parent, next-port-index
            while stack:
                v, parent, i = stack.pop()
                if i == 0:
                    disc[v] = low[v] = timer
                    timer += 1
                begin, end = self._offsets[v], self._offsets[v + 1]
                advanced = False
                while begin + i < end:
                    u = self._flat_neighbor[begin + i]
                    i += 1
                    if disc[u] < 0:
                        stack.append((v, parent, i))
                        stack.append((u, v, 0))
                        advanced = True
                        break
                    if u != parent:
                        low[v] = min(low[v], disc[u])
                if not advanced:
                    if parent >= 0:
                        low[parent] = min(low[parent], low[v])
                        if low[v] > disc[parent]:
                            bridges.add((min(parent, v), max(parent, v)))
        return [edge for edge in self.edges() if edge not in bridges]

    def missing_edges(self) -> List[Tuple[int, int]]:
        """Non-adjacent node pairs ``(u, v)`` with ``u < v`` (churn insertions).

        O(n²); intended for the fault layer on test-scale graphs only.
        """
        out = []
        for v in range(self._n):
            nbrs = self._neighbor_to_port[v]
            for u in range(v + 1, self._n):
                if u not in nbrs:
                    out.append((v, u))
        return out

    def rewire(
        self,
        remove: Optional[Tuple[int, int]] = None,
        add: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Apply one churn event in place: drop ``remove``, insert ``add``.

        This is the *simulator's* fault layer mutating the world -- the one
        sanctioned exception to the graph's immutability (agents still cannot
        stash state on nodes).  Removing an edge shifts the higher ports at
        each endpoint down by one (ports stay ``1..deg``); an added edge takes
        the new highest port at both endpoints.  The rewired graph must remain
        simple and connected or ``ValueError`` is raised and nothing changes.
        ``ASYNC_SAFE`` assignments are *not* re-repaired: churn is adversarial,
        so a rewiring may legally break the Section 8.2 constraint.

        The update is incremental: only the rows of the (at most four) endpoint
        nodes are renumbered and the flat arrays are re-assembled from slices
        of the old ones, so a churn event costs O(n) C-speed copying instead of
        the full O(n + m) Python rebuild of :meth:`_install_orders` (kept as
        the differential oracle in ``tests/port_graph_reference.py``).
        """
        if remove is None and add is None:
            return
        n = self._n
        n2p = self._neighbor_to_port
        if remove is not None:
            u, v = remove
            if not (0 <= u < n and 0 <= v < n) or v not in n2p[u]:
                raise ValueError(f"cannot remove nonexistent edge {remove}")
        if add is not None:
            a, b = add
            # Re-adding the edge being removed this same event is legal (it
            # only renumbers its ports); any other existing edge is rejected.
            readded = remove is not None and {a, b} == {remove[0], remove[1]}
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError(f"cannot add invalid edge {add}")
            if not readded and b in n2p[a]:
                raise ValueError(f"cannot add existing edge {add}")
        if remove is not None and not self._connected_after(remove, add):
            raise ValueError(f"rewire -{remove} +{add} would disconnect the graph")

        # New neighbor rows for the affected endpoints only.  Removal shifts
        # the higher ports down; an added edge takes the new highest port.
        affected: Dict[int, List[int]] = {}

        def row(x: int) -> List[int]:
            if x not in affected:
                affected[x] = self.neighbors(x)
            return affected[x]

        if remove is not None:
            u, v = remove
            row(u).remove(v)
            row(v).remove(u)
        if add is not None:
            a, b = add
            row(a).append(b)
            row(b).append(a)
        new_maps = {
            x: {y: p + 1 for p, y in enumerate(nbrs)} for x, nbrs in affected.items()
        }

        def port_at(y: int, x: int) -> int:
            m = new_maps.get(y)
            return m[x] if m is not None else n2p[y][x]

        # Re-assemble the flat arrays: untouched spans are copied wholesale,
        # affected rows are spliced in renumbered.
        old_off = self._offsets
        old_nbr = self._flat_neighbor
        old_rev = self._flat_reverse
        marks = sorted(affected)
        new_nbr = array("l")
        new_rev = array("l")
        prev = 0
        for x in marks:
            start = old_off[x]
            new_nbr += old_nbr[prev:start]
            new_rev += old_rev[prev:start]
            nbrs = affected[x]
            new_nbr += array("l", nbrs)
            new_rev += array("l", [port_at(y, x) for y in nbrs])
            prev = old_off[x + 1]
        new_nbr += old_nbr[prev:]
        new_rev += old_rev[prev:]

        # Offsets shift only between the first and last affected node (and past
        # the last one when the edge count changes).
        new_off = array("l", old_off)
        delta = 0
        prev_mark = 0
        for x in marks:
            if delta:
                for i in range(prev_mark + 1, x + 1):
                    new_off[i] += delta
            delta += len(affected[x]) - self._degrees[x]
            prev_mark = x
        if delta:
            for i in range(prev_mark + 1, n + 1):
                new_off[i] += delta

        # An unaffected neighbor w of an affected node x stores p_x(w) in its
        # reverse row; patch the entries where that port was renumbered.
        for x in marks:
            old_map = n2p[x]
            for w, p_new in new_maps[x].items():
                if w in affected or old_map[w] == p_new:
                    continue
                new_rev[new_off[w] + n2p[w][x] - 1] = p_new

        for x, nbrs in affected.items():
            self._degrees[x] = len(nbrs)
            n2p[x] = new_maps[x]
        self._m += (0 if add is None else 1) - (0 if remove is None else 1)
        self._offsets = new_off
        self._flat_neighbor = new_nbr
        self._flat_reverse = new_rev
        self._churn_count += 1

    def _connected_after(
        self, remove: Tuple[int, int], add: Optional[Tuple[int, int]]
    ) -> bool:
        """Connectivity of the rewired graph, checked *before* mutating.

        Removing one edge from a connected graph leaves at most two
        components, so a BFS from one endpoint that avoids the removed edge
        either reaches the other endpoint early (still connected) or halts
        with exactly one side of the cut -- in which case the insertion
        reconnects iff it crosses that cut.
        """
        u, v = remove
        seen = bytearray(self._n)
        seen[u] = 1
        queue = [u]
        head = 0
        offsets = self._offsets
        flat = self._flat_neighbor
        while head < len(queue):
            x = queue[head]
            head += 1
            for y in flat[offsets[x] : offsets[x + 1]]:
                if x == u and y == v:
                    continue  # the edge being removed
                if y == v:
                    return True
                if not seen[y]:
                    seen[y] = 1
                    queue.append(y)
        if add is None:
            return False
        a, b = add
        return seen[a] != seen[b]

    # ------------------------------------------------------------- analysis
    def bfs_distances(self, source: int) -> List[int]:
        """Hop distances from ``source`` (used by analysis, not by agents)."""
        dist = [-1] * self._n
        dist[source] = 0
        queue = [source]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for u in self._flat_neighbor[self._offsets[v] : self._offsets[v + 1]]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return dist

    def diameter(self) -> int:
        """Exact diameter (O(n·m); intended for analysis on test-sized graphs)."""
        best = 0
        for v in range(self._n):
            best = max(best, max(self.bfs_distances(v)))
        return best

    def is_tree(self) -> bool:
        """True when the graph is a tree (connected with n-1 edges)."""
        return self._m == self._n - 1

    def to_networkx(self):  # pragma: no cover - thin convenience wrapper
        """Export to a :class:`networkx.Graph` (analysis/visualization only)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self.edges())
        return g

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PortLabeledGraph(n={self._n}, m={self._m}, "
            f"max_degree={self.max_degree})"
        )

    def validate(self) -> None:
        """Re-check structural invariants (used by property-based tests)."""
        for v in range(self._n):
            deg = self._degrees[v]
            if sorted(self._neighbor_to_port[v].values()) != list(range(1, deg + 1)):
                raise AssertionError(f"ports at node {v} are not 1..{deg}")
            for p in range(1, deg + 1):
                u = self.neighbor(v, p)
                q = self.reverse_port(v, p)
                if self.neighbor(u, q) != v:
                    raise AssertionError(
                        f"reverse port mismatch on edge {v}-{u}: {p}/{q}"
                    )
