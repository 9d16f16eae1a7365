"""Power graphs of finite groups.

The directed power graph has an arc x -> y exactly when x != y and y is a
positive power of x; the undirected power graph joins distinct x, y when
either is a positive power of the other.

Both are built as bit-rows from the cyclic subgroups, each found once.
The positive powers of x are the members of <x>, and x is a power of y
exactly when y generates a cyclic subgroup that holds x.  So every
generator of a cyclic subgroup C has C's member mask as its directed row,
and the undirected row of x joins the members of <x> with the generators
of every cyclic subgroup that holds x.  Both graphs cost O(sum of |C|)
Python-int operations over the cyclic subgroups C, and no n x n array.
"""

from __future__ import annotations

import math

from .graphs import Digraph, SimpleGraph
from .groups import FiniteGroup


_Subgroups = list[tuple[list[int], int, list[int]]]


def _cyclic_subgroups(group: FiniteGroup) -> _Subgroups:
    """Each cyclic subgroup once: its powers x, x^2, ..., e, their mask, its generators.

    x is the smallest element that generates no subgroup found before.  The
    generators of <x> are the x^k with k prime to |x|, and every element
    generates exactly one cyclic subgroup, so the walks cover the group.
    """
    n, identity = group.order, group.identity
    # indexing a memoryview gives a Python int, faster than ndarray.item
    product = memoryview(group.table.reshape(-1))
    covered = [False] * n
    coprime: dict[int, list[int]] = {}     # m -> the k - 1 with gcd(k, m) = 1
    subgroups = []
    for x in range(n):
        if covered[x]:
            continue
        row, powers, members, p = x * n, [x], 1 << x, x
        while p != identity:
            p = product[row + p]            # x * x^k = x^(k+1)
            powers.append(p)
            members |= 1 << p
        m = len(powers)
        if m not in coprime:
            coprime[m] = [k - 1 for k in range(1, m + 1) if math.gcd(k, m) == 1]
        generators = [powers[i] for i in coprime[m]]
        for g in generators:
            covered[g] = True
        subgroups.append((powers, members, generators))
    return subgroups


def _directed_rows(order: int, subgroups: _Subgroups) -> list[int]:
    rows = [0] * order
    for _, members, generators in subgroups:
        for g in generators:
            rows[g] = members & ~(1 << g)
    return rows


def _undirected_rows(order: int, subgroups: _Subgroups) -> list[int]:
    rows = [0] * order
    for powers, members, generators in subgroups:
        joined = sum(1 << g for g in generators)
        for x in powers:
            rows[x] |= joined
        for g in generators:
            rows[g] |= members
    return [row & ~(1 << v) for v, row in enumerate(rows)]


def directed_power_graph(group: FiniteGroup) -> Digraph:
    """Arcs x -> y for y != x a positive power of x.

    The row of x is the member mask of <x> without x, shared by every
    generator of <x>; so every x != e has an arc to the identity.
    """
    return Digraph._unchecked(_directed_rows(group.order, _cyclic_subgroups(group)))


def undirected_power_graph(group: FiniteGroup) -> SimpleGraph:
    """Distinct x, y adjacent iff x is a power of y or y is a power of x.

    The row of x is the member mask of <x> joined with the generator mask
    of every cyclic subgroup that holds x, without x itself; the relation
    is symmetric by construction.
    """
    return SimpleGraph._unchecked(_undirected_rows(group.order, _cyclic_subgroups(group)))


def _power_graphs(group: FiniteGroup) -> tuple[Digraph, SimpleGraph]:
    """Both power graphs of `group` from one walk over its cyclic subgroups."""
    subgroups = _cyclic_subgroups(group)
    return (Digraph._unchecked(_directed_rows(group.order, subgroups)),
            SimpleGraph._unchecked(_undirected_rows(group.order, subgroups)))
