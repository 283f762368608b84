"""Full-rebuild reference implementation of ``PortLabeledGraph.rewire``.

``rewire_via_rebuild`` is the churn rewiring as shipped before the
incremental CSR patch: it copies every node's neighbor order, edits the two
endpoint rows, checks connectivity with a full traversal, and rebuilds every
internal structure through ``_install_orders``.  It is deliberately O(n + m)
Python per churn event -- the property suite uses it as the oracle the
incremental path must match (port tables and error text), and the churn
micro-benchmark uses it as the baseline the incremental path must beat.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.graph.port_graph import PortLabeledGraph


def rewire_via_rebuild(
    graph: PortLabeledGraph,
    remove: Optional[Tuple[int, int]] = None,
    add: Optional[Tuple[int, int]] = None,
) -> None:
    """Apply one churn event to ``graph`` by rebuilding it from scratch."""
    if remove is None and add is None:
        return
    n = graph.num_nodes
    orders = [graph.neighbors(v) for v in range(n)]
    if remove is not None:
        u, v = remove
        if not (0 <= u < n and 0 <= v < n) or v not in orders[u]:
            raise ValueError(f"cannot remove nonexistent edge {remove}")
        orders[u].remove(v)
        orders[v].remove(u)
    if add is not None:
        a, b = add
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise ValueError(f"cannot add invalid edge {add}")
        if b in orders[a]:
            raise ValueError(f"cannot add existing edge {add}")
        orders[a].append(b)
        orders[b].append(a)
    if not _orders_connected(orders):
        raise ValueError(f"rewire -{remove} +{add} would disconnect the graph")
    graph._install_orders(orders)
    graph._churn_count += 1


def _orders_connected(orders: Sequence[Sequence[int]]) -> bool:
    """Whether the adjacency lists ``orders`` describe a connected graph."""
    n = len(orders)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 0
    while stack:
        v = stack.pop()
        count += 1
        for u in orders[v]:
            if not seen[u]:
                seen[u] = True
                stack.append(u)
    return count == n
