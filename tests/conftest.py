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

import networkx as nx
import numpy as np
import pytest

from groupgraphs.catalog import catalog
from groupgraphs.graphs import Digraph, SimpleGraph
from groupgraphs.groups import FiniteGroup
from groupgraphs.symmetry import _Search, _vertices


def petersen_graph() -> SimpleGraph:
    """The Petersen graph: outer 5-cycle, inner 5-cycle at step 2, spokes."""
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    return SimpleGraph.from_edges(10, edges)


def relabel(graph, sigma):
    """The same graph with vertex v renamed sigma[v]."""
    n = graph.order
    matrix = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            matrix[sigma[u]][sigma[v]] = (graph.rows[u] >> v) & 1
    return type(graph).from_matrix(matrix)


def disjoint_union(*graphs):
    """The graphs side by side: graphs[i]'s vertices follow those of graphs[:i]."""
    n = sum(graph.order for graph in graphs)
    matrix = [[0] * n for _ in range(n)]
    offset = 0
    for graph in graphs:
        for u in range(graph.order):
            for v in range(graph.order):
                matrix[offset + u][offset + v] = (graph.rows[u] >> v) & 1
        offset += graph.order
    return type(graphs[0]).from_matrix(matrix)


def twin_blow_up(base, sizes, closed):
    """Base vertex a replaced by a class of sizes[a] twins, one after another.

    The members of a class relate to every other vertex as a did; they are
    joined to each other both ways when closed[a] (closed twins) and not at
    all otherwise (open twins).  Uniform sizes and types give the
    lexicographic product of base with K_s or its complement.
    """
    owner = [a for a, size in enumerate(sizes) for _ in range(size)]
    n = len(owner)
    return type(base).from_matrix(
        [[int(x != y and (closed[owner[x]] if owner[x] == owner[y]
                          else (base.rows[owner[x]] >> owner[y]) & 1))
          for y in range(n)] for x in range(n)])


def has_twins(graph) -> bool:
    """True iff swapping some two vertices is an automorphism, by definition."""
    n, rows = graph.order, graph.rows

    def arc(x, y):
        return (rows[x] >> y) & 1

    return any(arc(u, w) == arc(w, u)
               and all(arc(u, x) == arc(w, x) and arc(x, u) == arc(x, w)
                       for x in range(n) if x not in (u, w))
               for u in range(n) for w in range(u + 1, n))


def complement(graph):
    """Every ordered pair of distinct vertices joined exactly when it was not."""
    n = graph.order
    return type(graph).from_matrix(
        [[int(u != v and not (graph.rows[u] >> v) & 1) for v in range(n)] for u in range(n)])


def to_networkx(graph):
    """The same graph as a networkx Graph, or DiGraph for a Digraph."""
    reference = nx.DiGraph() if isinstance(graph, Digraph) else nx.Graph()
    reference.add_nodes_from(range(graph.order))
    reference.add_edges_from((u, v) for u, row in enumerate(graph.rows)
                             for v in range(graph.order) if (row >> v) & 1)
    return reference


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


def reference_search(search: _Search, target: int | None = None,
                     moving: bool = False) -> list[tuple[int, ...]]:
    """The automorphism search with a fresh mask list per try, on `search`'s tables.

    The plain forward-checked backtrack over `search.start`, `search.later`
    and `search.keep`: every try copies the whole mask list, and every
    vertex, the last one too, is placed by a recursive call.  It takes no
    tail: every leaf is reached one try at a time.  With `moving`, each
    vertex's own bit leaves its mask, as in `leaves`.  The library's kernel
    must return the same list, in the same order, and the same first leaf
    for every target.
    """
    n, later, keep = search.n, search.later, search.keep
    start = [m & ~(1 << u) for u, m in enumerate(search.start)] if moving else search.start[:]
    stop = target is not None
    if stop:
        start[0] &= 1 << target
    img = [0] * n
    found: list[tuple[int, ...]] = []

    def extend(k: int, cand: list[int]) -> bool:
        if k == n:
            found.append(tuple(img))
            return stop
        for v in _vertices(cand[k]):
            fits = keep[v]
            narrowed = cand[:]
            for u, code in later[k]:
                m = narrowed[u] = cand[u] & fits[code]
                if not m:
                    break
            else:
                img[k] = v
                if extend(k + 1, narrowed):
                    return True
        return False

    extend(0, start)
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


def digraph6_by_definition(graph: Digraph) -> str:
    """digraph6 written from its definition, one character per bit.

    '&', then chr(n + 63), then the n x n 0/1 matrix read row by row,
    zero-padded to a multiple of 6 and cut into groups of 6 bits, each
    group written as chr(value + 63).
    """
    n = graph.order
    bits = "".join(str((graph.rows[u] >> v) & 1) for u in range(n) for v in range(n))
    bits += "0" * (-len(bits) % 6)
    return "&" + chr(n + 63) + "".join(
        chr(int(bits[i:i + 6], 2) + 63) for i in range(0, len(bits), 6))


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


def naive_power_rows(group: FiniteGroup) -> tuple[list[int], list[int]]:
    """(directed, undirected) power graph bit-rows recomputed from the definition.

    The positive powers of x are taken by iterated multiplication over
    m = 1 .. n, at least the period of any element; y != x gets an arc
    from x when it is one of them, and an edge when either has an arc to
    the other.
    """
    n = group.order
    powers = []
    for x in range(n):
        p, found = group.identity, set()
        for _ in range(n):
            p = group.mul(p, x)
            found.add(p)
        powers.append(found)
    arc = [[y != x and y in powers[x] for y in range(n)] for x in range(n)]
    directed = [sum(1 << y for y in range(n) if arc[x][y]) for x in range(n)]
    undirected = [sum(1 << y for y in range(n) if arc[x][y] or arc[y][x]) for x in range(n)]
    return directed, undirected


def is_group_table(table: list[list[int]]) -> bool:
    """The group axioms by plain loops: closure, a two-sided identity,
    two-sided inverses, and associativity."""
    n = len(table)
    if any(len(row) != n or not all(0 <= x < n for x in row) for row in table):
        return False
    identities = [e for e in range(n)
                  if all(table[e][g] == g and table[g][e] == g for g in range(n))]
    if not identities:
        return False
    e = identities[0]
    return (all(any(table[g][h] == e and table[h][g] == e for h in range(n)) for g in range(n))
            and all(table[table[a][b]][c] == table[a][table[b][c]]
                    for a in range(n) for b in range(n) for c in range(n)))


def check_group_axioms(table: list[list[int]]) -> None:
    """Assert the group axioms by plain loops."""
    assert is_group_table(table)


# A 5x5 Latin square with identity 0 that is not a group table.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def loop130() -> np.ndarray:
    """LOOP5 x Z26, pair (i, j) indexed as 26*i + j: a loop of order 130."""
    z = np.add.outer(np.arange(26), np.arange(26)) % 26
    return (np.array(LOOP5)[:, None, :, None] * 26 + z[None, :, None, :]).reshape(130, 130)


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


def searchsorted_permutation_rows(perms: list[tuple[int, ...]], rows: range) -> np.ndarray:
    """Rows of the S_k/A_k table as the package once built them, one at a time.

    Entry [i, j] is the index of x -> perms[i][perms[j][x]] for i in `rows`.
    The base-k codes of lex-ordered perms are sorted, so searchsorted finds
    the index of each composed code.
    """
    arr = np.array(perms, dtype=np.int64).reshape(len(perms), -1)
    k = arr.shape[1]
    weights = k ** np.arange(k - 1, -1, -1, dtype=np.int64)
    codes = arr @ weights
    return np.array([np.searchsorted(codes, arr[i][arr] @ weights) for i in rows])


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
