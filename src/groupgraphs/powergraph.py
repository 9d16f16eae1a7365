"""Power graphs of finite groups.

The directed power graph has an arc x -> y exactly when x != y and y is a
positive power of x; the undirected power graph joins distinct x, y when
either is a positive power of the other.
"""

from __future__ import annotations

import numpy as np

from .graphs import Digraph, SimpleGraph
from .groups import FiniteGroup


def directed_power_graph(group: FiniteGroup) -> Digraph:
    """Arcs x -> y for y != x a positive power of x.

    Powers are enumerated only up to the order of x (they cycle after
    that), so construction costs the sum of element orders rather than
    O(n^3); all elements advance together, and an element drops out once
    its next power is itself again.  Every x != e gets an arc to the
    identity.
    """
    table = group.table
    adj = np.zeros((group.order, group.order), dtype=bool)
    xs = np.arange(group.order)
    ys = table[xs, xs]
    while xs.size:
        live = ys != xs
        xs, ys = xs[live], ys[live]
        adj[xs, ys] = True
        ys = table[ys, xs]
    return Digraph.from_matrix(adj)


def undirected_power_graph(group: FiniteGroup) -> SimpleGraph:
    """Distinct x, y adjacent iff x is a power of y or y is a power of x.

    Built as the underlying undirected graph of the directed power graph,
    which is the same relation with orientation dropped.
    """
    return directed_power_graph(group).underlying_undirected()
