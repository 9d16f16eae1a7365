"""Shared fixtures and independent oracles for the test suite.

The oracle helpers here deliberately avoid the library's optimized code
paths: automorphisms are found by filtering all n! permutations, power
graph adjacency is recomputed from the definition with a double loop,
and group axioms are rechecked with plain triple loops.  Tests compare
the library's answers against these.
"""

from __future__ import annotations

import cmath
from itertools import permutations

import pytest

from groupgraphs.catalog import catalog
from groupgraphs.graphs import Digraph, SimpleGraph
from groupgraphs.groups import FiniteGroup


def petersen_graph() -> SimpleGraph:
    """The Petersen graph: outer 5-cycle, inner 5-cycle at step 2, spokes."""
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    return SimpleGraph.from_edges(10, edges)


def brute_force_automorphisms(graph: SimpleGraph | Digraph) -> list[tuple[int, ...]]:
    """All n! permutations filtered by adjacency preservation."""
    n, rows = graph.order, graph.rows
    found = []
    for p in permutations(range(n)):
        if all(
            ((rows[u] >> v) & 1) == ((rows[p[u]] >> p[v]) & 1)
            for u in range(n)
            for v in range(n)
        ):
            found.append(p)
    return found


def unfiltered_regular_subgroup(
    n: int, perms: list[tuple[int, ...]]
) -> list[tuple[int, ...]] | None:
    """The regular-subgroup search with every candidate kept.

    The library's kernel drops candidates that are not semiregular before
    it backtracks; this copy tries them all, so on any input list the two
    must return the same members.  Exponential on lists that are not
    closed under composition: keep its inputs small.
    """
    identity = tuple(range(n))
    if identity not in perms:
        return None

    cand: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for p in perms:
        cand[p[0]].append(p)
    if any(not c for c in cand):
        return None

    def close(sel, v, p):
        sel = list(sel)
        sel[v] = p
        queue = [p]
        head = 0
        while head < len(queue):
            q = queue[head]
            head += 1
            for r in sel:
                if r is None:
                    continue
                for t in (tuple(q[x] for x in r), tuple(r[x] for x in q)):
                    w = t[0]
                    existing = sel[w]
                    if existing is None:
                        sel[w] = t
                        queue.append(t)
                    elif existing != t:
                        return None
        return sel

    def extend(sel):
        for v in range(n):
            if sel[v] is None:
                for p in cand[v]:
                    nxt = close(sel, v, p)
                    if nxt is not None:
                        result = extend(nxt)
                        if result is not None:
                            return result
                return None
        return [p for p in sel if p is not None]

    start: list[tuple[int, ...] | None] = [None] * n
    start[0] = identity
    return extend(start)


def naive_power_adjacency(group: FiniteGroup, x: int, y: int) -> tuple[bool, bool]:
    """(x has arc to y, x adjacent to y) recomputed from the definition.

    Powers are taken by iterated multiplication over m = 1 .. 2n, well
    past the period of any element.
    """
    if x == y:
        return False, False
    n = group.order
    powers_x = set()
    powers_y = set()
    px = py = group.identity
    for _ in range(2 * n):
        px = group.mul(px, x)
        py = group.mul(py, y)
        powers_x.add(px)
        powers_y.add(py)
    arc = y in powers_x
    return arc, arc or x in powers_y


def check_group_axioms(table: list[list[int]]) -> None:
    """Assert closure, identity, inverses, and associativity by plain loops."""
    n = len(table)
    assert all(len(row) == n for row in table)
    assert all(0 <= table[a][b] < n for a in range(n) for b in range(n))
    identities = [
        e
        for e in range(n)
        if all(table[e][g] == g and table[g][e] == g for g in range(n))
    ]
    assert len(identities) == 1
    e = identities[0]
    for g in range(n):
        assert any(table[g][h] == e and table[h][g] == e for h in range(n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert table[table[a][b]][c] == table[a][table[b][c]]


def associativity_violations(table: list[list[int]]) -> set[tuple[int, int, int]]:
    """Every (a, b, c) with (a*b)*c != a*(b*c), by a plain triple loop."""
    n = len(table)
    return {(a, b, c) for a in range(n) for b in range(n) for c in range(n)
            if table[table[a][b]][c] != table[a][table[b][c]]}


def table_from_matrices(matrices: list[list[list[complex]]]) -> list[list[int]]:
    """Multiplication table of a faithful 2x2 matrix representation.

    Entry [i][j] is the index of the matrix equal (to rounding) to
    matrices[i] @ matrices[j], found by a plain scan over all elements.
    """
    def product(p, q):
        return [[sum(p[r][t] * q[t][c] for t in range(2)) for c in range(2)]
                for r in range(2)]

    def index_of(m):
        hits = [k for k, cand in enumerate(matrices)
                if all(abs(m[r][c] - cand[r][c]) < 1e-9 for r in range(2) for c in range(2))]
        assert len(hits) == 1
        return hits[0]

    return [[index_of(product(p, q)) for q in matrices] for p in matrices]


def dihedral_oracle(m: int) -> list[list[int]]:
    """D_m as plane isometries of the m-gon with vertices at angles 2*pi*x/m.

    Index i is the rotation x -> i + x, index m + i the reflection
    x -> i - x, and table[g][h] is the isometry "h, then g".
    """
    angles = [2 * cmath.pi * i / m for i in range(m)]
    rotations = [[[cmath.cos(t), -cmath.sin(t)], [cmath.sin(t), cmath.cos(t)]] for t in angles]
    # x -> i - x is the flip x -> -x, diag(1, -1), followed by rotation i
    reflections = [[[r[0][0], -r[0][1]], [r[1][0], -r[1][1]]] for r in rotations]
    return table_from_matrices(rotations + reflections)


def dicyclic_oracle(m: int) -> list[list[int]]:
    """Dic_m in SL(2, C): a = diag(z, 1/z) with z = exp(i*pi/m), b = [[0, -1], [1, 0]].

    These satisfy a^(2m) = 1, b^2 = a^m = -1 and b*a = a^-1*b; index i is
    a^i and index 2m + i is a^i*b.
    """
    z = cmath.exp(1j * cmath.pi / m)
    powers = [[[z ** i, 0], [0, z ** -i]] for i in range(2 * m)]
    times_b = [[[0, -p[0][0]], [p[1][1], 0]] for p in powers]
    return table_from_matrices(powers + times_b)


def permutation_oracle(perms: list[tuple[int, ...]]) -> list[list[int]]:
    """table[i][j] is the index of x -> perms[i][perms[j][x]]."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]


def sampled_connection_sets(group: FiniteGroup) -> list[tuple[int, ...]]:
    """The three standard samples: empty, smallest inverse pair, everything.

    The middle sample is the lexicographically smallest non-identity
    element together with its inverse (a single involution when the two
    coincide).  For the trivial group the samples collapse to the empty
    set alone.
    """
    non_identity = [g for g in range(group.order) if g != group.identity]
    sets: list[tuple[int, ...]] = [()]
    if non_identity:
        g = non_identity[0]
        inv = group.inverse(g)
        sets.append((g,) if inv == g else tuple(sorted((g, inv))))
        sets.append(tuple(non_identity))
    out: list[tuple[int, ...]] = []
    for members in sets:
        if members not in out:
            out.append(members)
    return out


@pytest.fixture(scope="session")
def full_catalog() -> list[FiniteGroup]:
    return catalog()
