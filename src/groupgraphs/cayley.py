"""Cayley graphs from a group and a connection set.

The directed Cayley graph on a group has an arc (g, h) exactly when
g^-1 * h lies in the connection set; with an inverse-closed connection set
the undirected Cayley graph is the same relation with orientation dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ElementOutOfRange, IdentityInConnectionSet, NotInverseClosed, _integer
from .graphs import Digraph, SimpleGraph
from .groups import FiniteGroup
from .perms import Permutation


@dataclass(frozen=True)
class ConnectionSet:
    """A subset of a group's non-identity elements, by index.

    No generation or connectivity condition is imposed: the empty set is
    legal (it yields an arcless graph) and non-generating sets simply give
    disconnected Cayley graphs.  Inverse closure is a computed predicate,
    required only by the undirected construction.
    """

    order: int
    members: frozenset[int] = field(default_factory=frozenset)

    def __init__(self, order: int, members: Iterable[int] = ()):
        order = _integer(order, "connection set order {value!r} is not an integer")
        if order < 1:
            raise ValueError(f"connection set order {order} is below 1")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "members", frozenset(
            _integer(m, "connection set member {value!r} is not an integer") for m in members))
        for m in self.members:
            if not 0 <= m < self.order:
                raise ElementOutOfRange(
                    f"connection set member {m} not in [0, {self.order})"
                )

    def inverse_closure_violation(self, group: FiniteGroup) -> tuple[int, int] | None:
        """A member whose inverse is missing, with that inverse, or None."""
        for m in sorted(self.members):
            inv = group.inverse(m)
            if inv not in self.members:
                return m, inv
        return None

    def is_inverse_closed(self, group: FiniteGroup) -> bool:
        return self.inverse_closure_violation(group) is None

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


def _cayley_rows(group: FiniteGroup, connection: ConnectionSet) -> list[int]:
    """Bit-row g sets the bits of the products g * s over s in the connection set.

    The rows are OR-ed together as little-endian bytes, n x ceil(n/8) of
    them, so the cost is O(n * |connection|) and not O(n^2).  They are
    loop-free because the identity is not in the connection set.
    """
    if connection.order != group.order:
        raise ValueError(
            f"connection set is for order {connection.order}, group has order {group.order}"
        )
    if group.identity in connection.members:
        raise IdentityInConnectionSet(
            f"identity {group.identity} may not appear in a connection set"
        )
    n = group.order
    products = group.table[:, list(connection.members)]
    packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(packed, (np.arange(n)[:, None], products >> 3),
                     np.left_shift(1, products & 7).astype(np.uint8))
    return [int.from_bytes(row, "little") for row in packed]


def directed_cayley(group: FiniteGroup, connection: ConnectionSet) -> Digraph:
    """Arc (g, h) iff g^-1 * h is in the connection set.

    Every vertex has out-degree and in-degree equal to the size of the
    connection set.
    """
    return Digraph._unchecked(_cayley_rows(group, connection))


def undirected_cayley(group: FiniteGroup, connection: ConnectionSet) -> SimpleGraph:
    """The directed Cayley graph with orientation dropped.

    Requires an inverse-closed connection set, which makes the arc
    relation symmetric (g^-1 * h = s gives h^-1 * g = s^-1), so the
    directed rows are already the undirected ones; the result is regular
    of degree |connection|.
    """
    violation = connection.inverse_closure_violation(group)
    if violation is not None:
        raise NotInverseClosed(*violation)
    return SimpleGraph._unchecked(_cayley_rows(group, connection))


def left_translation(group: FiniteGroup, a: int) -> Permutation:
    """The permutation v -> a * v.

    Left translations preserve the arc relation of every Cayley graph on
    the group, because (a*g)^-1 * (a*h) = g^-1 * h; together they act
    transitively and freely on the vertices.
    """
    # every row of a group's table is a permutation
    return Permutation._unchecked(tuple(group.table[group._check_element(a)].tolist()))
