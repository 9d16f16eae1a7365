"""Graph automorphism groups, vertex-transitivity, and Cayley recognition.

A graph is a Cayley graph of some group exactly when its automorphism
group contains a regular subgroup: one acting transitively with only the
identity fixing a vertex (Sabidussi, 1958).  Recognition therefore runs
cheap necessary conditions first (every Cayley graph is vertex-transitive,
every vertex-transitive graph has constant degrees) and only then the two
searches, on image tuples.  The members of the regular subgroup found are
the rows of the witness group's table, whose construction checks them.

Both searches live here, in pure Python: automorphism enumeration over
packed bit-rows of the arc relation, and regular-subgroup search over
image tuples.  Their output order is lexicographic and deterministic.
Each searches only for what its question needs.  The regular-subgroup
search tries only semiregular candidates (no fixed vertex, one cycle
length), because every non-identity member of a regular group is one.
The automorphism search (`_Search`) builds its tables once per graph and
answers vertex-transitivity without listing the group.

Both questions run one reduction first (`_reduce`).  The components of
Cay(H, S) are the cosets of <S>, each a copy of Cay(<S>, S), and t copies
of Cay(K, S) form Cay(K x Z_t, S x {0}); so a graph whose components are
copies of one is Cayley, or vertex-transitive, exactly when that component
is, and a graph with two non-isomorphic components is not even
vertex-transitive.  A graph and its complement have the same automorphisms
(the complement of Cay(H, S) is Cay(H, H - S - {e})), and at least one of
them is connected, so a connected graph with a disconnected complement is
replaced by its complement.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cayley import ConnectionSet, directed_cayley, left_translation, undirected_cayley
from .errors import SearchBoundExceeded
from .graphs import Digraph, SimpleGraph, _from_matrix, _to_matrix
from .groups import FiniteGroup, _product_table, _sum_table, cyclic
from .perms import Permutation

# Full automorphism enumeration is exponential in the worst case; these
# bounds keep the default entry points at desk scale.
DEFAULT_AUT_BOUND = 16
DEFAULT_CAYLEY_BOUND = 12

Graph = SimpleGraph | Digraph


class NotCayleyReason(enum.Enum):
    NOT_REGULAR_DEGREE = "NotRegularDegree"
    NOT_VERTEX_TRANSITIVE = "NotVertexTransitive"
    NO_REGULAR_SUBGROUP = "NoRegularSubgroup"


@dataclass(frozen=True)
class NotCayley:
    """Negative answer from is_cayley, with the earliest failing reason."""

    reason: NotCayleyReason

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class CayleyWitness:
    """A group, connection set, and vertex correspondence that rebuild a graph.

    vertex_map[v] is left_translation(group, v), the unique witness
    automorphism sending vertex 0 to v; the group multiplies by composing
    those automorphisms, so vertex indices double as element indices and
    reconstruct() reproduces the recognized graph arc-for-arc.
    """

    group: FiniteGroup
    connection: ConnectionSet
    vertex_map: tuple[Permutation, ...]
    directed: bool

    def __bool__(self) -> bool:
        return True

    def reconstruct(self) -> Graph:
        if self.directed:
            return directed_cayley(self.group, self.connection)
        return undirected_cayley(self.group, self.connection)

    def to_json_dict(self) -> dict:
        return {
            "cayley": True,
            "directed": self.directed,
            "group_order": self.group.order,
            "group_table": self.group.table.tolist(),
            "connection_set": sorted(self.connection.members),
            "vertex_map": [list(p.images) for p in self.vertex_map],
        }


def _degrees_constant(graph: Graph) -> bool:
    if isinstance(graph, Digraph):
        return graph.has_constant_in_out_degrees()
    return graph.is_regular()


def _uniform(graph: Graph) -> bool:
    """Complete or edgeless: Cayley for trivial reasons, no search needed."""
    return graph.is_complete() or not any(graph.rows)


def backend_name() -> str:
    """Name of the search implementation; there is one, in pure Python."""
    return "pure-python"


def automorphisms(graph: Graph, bound: int = DEFAULT_AUT_BOUND) -> list[Permutation]:
    """The full automorphism list, in lexicographic order of image arrays.

    Adjacency-preserving for undirected graphs, arc-preserving for
    digraphs.  The list always contains the identity and is closed under
    composition and inversion.
    """
    # each leaf of the search is a bijection: an image leaves every later mask
    return [Permutation._unchecked(p) for p in _Search(graph.rows, bound)()]


def is_vertex_transitive(graph: Graph, bound: int = DEFAULT_AUT_BOUND) -> bool:
    """True iff the automorphisms send vertex 0 to every vertex.

    Runs is_cayley's stages 1-4 (`_reduce`) and no more, building no group
    and listing no automorphism; the bound applies to each searched graph.
    """
    return not isinstance(_reduce(graph, bound), NotCayley)


def find_regular_subgroup(auts: list[Permutation], n: int) -> list[Permutation] | None:
    """A regular subgroup of the (complete) automorphism list, or None.

    Regular means: exactly one member sends 0 to each vertex, and the set
    is closed under composition.  Candidates are tried in lexicographic
    order of image arrays, so the result is deterministic; members are
    returned ordered by their image of 0.  Only semiregular candidates
    are tried: every non-identity member of a regular group fixes no
    vertex and has cycles of one length, so dropping the others never
    changes the result.  Every permutation must have degree n.  The members
    are checked as in is_cayley, then against the list (it may not be closed).
    """
    degrees = {p.degree for p in auts} - {n}
    if degrees:
        raise ValueError(f"permutations of degree {min(degrees)} given with n = {n}")
    images = sorted(p.images for p in auts)
    group = _regular_group(n, images)
    if group is None:
        return None
    members = [tuple(row) for row in group.table.tolist()]
    if not set(members) <= set(images):
        raise ValueError("kernel returned a permutation outside the input list; "
                         "was the automorphism list closed under composition?")
    return [Permutation._unchecked(p) for p in members]


def _regular_group(n: int, images: Sequence[tuple[int, ...]]) -> FiniteGroup | None:
    """The regular subgroup the kernel selects from lex-ordered `images`, or None.

    Member v is row v of the table.  Identity 0 says it sends 0 to v, and then
    the members are closed iff the table is associative, T[i, T[j, v]] ==
    T[T[i, j], v]; construction defers that check above order 128.
    """
    members = _search_regular_subgroup(n, images)
    if members is None:
        return None
    group = FiniteGroup(members)
    group.check_associativity()
    if group.identity != 0:
        raise ValueError("member v of a regular subgroup must send 0 to v")
    return group


def _witness(graph: Graph, group: FiniteGroup) -> CayleyWitness:
    """The witness of `group` acting on the vertices by left translation.

    The connection set is the out-neighbourhood of vertex 0.
    """
    n = graph.order
    row = graph.rows[0]
    connection = ConnectionSet(n, (v for v in range(n) if (row >> v) & 1))
    vertex_map = tuple(left_translation(group, v) for v in range(n))
    return CayleyWitness(group, connection, vertex_map, isinstance(graph, Digraph))


def is_cayley(graph: Graph, bound: int = DEFAULT_CAYLEY_BOUND) -> CayleyWitness | NotCayley:
    """Decide whether the graph is a Cayley graph of some group.

    Checks run cheapest-first and report the earliest failure; 1-4 are
    `_reduce`, which is_vertex_transitive shares:

    1. constant degrees (in and out separately for digraphs), else
       NotRegularDegree;
    2. complete/edgeless graphs accept immediately with a cyclic-group
       witness;
    3. a disconnected graph is decided on the component of vertex 0, once
       every other component is a copy of it, else NotVertexTransitive; a
       co-disconnected one by its complement, whose witness group it keeps;
    4. vertex-transitivity (`_Search.transitive`), else NotVertexTransitive;
    5. a regular subgroup of the automorphisms (`_regular_group`), else NoRegularSubgroup.

    `bound` limits each searched graph: the union of two components, or
    the connected, co-connected graph left.  The cheap paths decide graphs
    of any order.
    """
    verdict = _decide(graph, bound)
    return verdict if isinstance(verdict, NotCayley) else _witness(graph, verdict)


def _decide(graph: Graph, bound: int) -> FiniteGroup | NotCayley:
    """is_cayley's verdict: a group whose element v is vertex v, or the reason."""
    reduced = _reduce(graph, bound)
    if isinstance(reduced, NotCayley):
        return reduced
    left, search, maps = reduced
    group = cyclic(left.order) if search is None else _regular_group(left.order, search())
    if group is None:
        return NotCayley(NotCayleyReason.NO_REGULAR_SUBGROUP)
    for images in reversed(maps):
        # K x Z_t, element k * t + i is (k, i): relabelled, then built and checked once
        product = _product_table(group.table, _sum_table(len(images)))
        vertex = np.array(images).T.reshape(-1)
        table = np.empty_like(product)
        table[np.ix_(vertex, vertex)] = vertex[product]
        group = FiniteGroup(table)
    return group


# -- the reduction both questions share ----------------------------------------

def _reduce(graph: Graph, bound: int) -> tuple[Graph, _Search | None, list] | NotCayley:
    """is_cayley's stages 1-4: the graph left, its search and maps, or the reason.

    What is left is complete or edgeless, with no search, or connected and
    co-connected, with its search, which is transitive.  A disconnected
    graph becomes C_0, its component of vertex 0, once a targeted search on
    the union of C_0 and each C_i maps C_0 onto C_i by phi_i; that step
    appends images[i][k] = phi_i(c_k), c_k being C_0's k-th vertex, to maps.
    """
    if not _degrees_constant(graph):
        return NotCayley(NotCayleyReason.NOT_REGULAR_DEGREE)
    maps: list[list[list[int]]] = []
    while not _uniform(graph):
        components = _components(graph.rows)
        if len(components) > 1:
            order = components[0].bit_count()
            if any(c.bit_count() != order for c in components):
                return NotCayley(NotCayleyReason.NOT_VERTEX_TRANSITIVE)
            first = _vertices(components[0])
            images = [first]
            for component in components[1:]:
                union = first + _vertices(component)
                found = _Search(_induced(graph.rows, union), bound)(order)
                if not found:
                    return NotCayley(NotCayleyReason.NOT_VERTEX_TRANSITIVE)
                images.append([union[x] for x in found[0][:order]])
            maps.append(images)
            graph = type(graph)(_induced(graph.rows, first))
            continue
        full = (1 << graph.order) - 1
        complement = [full & ~(1 << v) & ~row for v, row in enumerate(graph.rows)]
        if len(_components(complement)) > 1:
            graph = type(graph)(complement)
            continue
        search = _Search(graph.rows, bound)
        if not search.transitive():
            return NotCayley(NotCayleyReason.NOT_VERTEX_TRANSITIVE)
        return graph, search, maps
    return graph, None, maps


def _components(rows: Sequence[int]) -> list[int]:
    """The weak components of a relation with constant in- and out-degrees.

    Masks of vertices, ordered by their lowest vertex.  Constant in- and
    out-degrees are equal (both sum to the arc count), and then no arc
    enters the set of vertices reachable from v, so that set is v's weak
    component: a search along the rows alone finds it.
    """
    components = []
    left = (1 << len(rows)) - 1
    while left:
        seen = frontier = left & -left
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = rows[low.bit_length() - 1] & ~seen
            seen |= new
            frontier |= new
        components.append(seen)
        left &= ~seen
    return components


def _vertices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _induced(rows: Sequence[int], vertices: list[int]) -> list[int]:
    """Bit-rows of the subgraph on `vertices`, vertices[j] renamed j."""
    return [sum(1 << j for j, u in enumerate(vertices) if (rows[v] >> u) & 1)
            for v in vertices]


# -- the search kernels -----------------------------------------------------

class _Search:
    """The automorphism search on one relation, its tables built once.

    Backtracks with one candidate mask per vertex, first its class of the
    degree partition (same out- and in-degree).  Trying k -> v narrows the
    mask of each later vertex u to the unused vertices whose arcs to and
    from v match u's arcs to and from k, so any v in cand[k] fits every
    earlier image.  A branch that empties a mask has no leaf below it and
    is never entered: the list and its order are the plain backtrack's.
    Building one is the only check of the search bound.
    """

    def __init__(self, rows: Sequence[int], bound: int):
        n = self.n = len(rows)
        if n > bound:
            raise SearchBoundExceeded(n, bound)
        cols = _from_matrix(_to_matrix(rows).T)  # bit u of cols[v] joins u to v
        keys = [(rows[v].bit_count(), cols[v].bit_count()) for v in range(n)]
        classes: dict[tuple[int, int], int] = {}
        for v, key in enumerate(keys):
            classes[key] = classes.get(key, 0) | 1 << v
        self.start = [classes[key] for key in keys]
        # later[k]: (u, 2 * [u -> k] + [k -> u]) for every u > k
        self.later = [[(u, 2 * (rows[u] >> k & 1) + (rows[k] >> u & 1)) for u in range(k + 1, n)]
                      for k in range(n)]
        # keep[v][code]: every w != v with 2 * [w -> v] + [v -> w] == code
        self.keep = [(~(c | r | 1 << v), r & ~c, c & ~r, c & r)
                     for v, (r, c) in enumerate(zip(rows, cols))]

    def __call__(self, target: int | None = None) -> list[tuple[int, ...]]:
        """All automorphisms in lexicographic order; with a `target`, vertex 0
        maps only to it and the search stops at the first leaf: the result is
        one automorphism 0 -> target, or none."""
        n, later, keep = self.n, self.later, self.keep
        start = self.start[:]
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

    def transitive(self) -> bool:
        """True iff some automorphism sends 0 to each vertex v: one targeted
        search per v not yet in the orbit of 0 under the automorphisms found
        so far (a union-find over their cycles)."""
        orbit = list(range(self.n))

        def root(x: int) -> int:
            while orbit[x] != x:
                orbit[x] = orbit[orbit[x]]
                x = orbit[x]
            return x

        for v in range(1, self.n):
            if root(v) == root(0):
                continue
            found = self(v)
            if not found:
                return False
            for x, y in enumerate(found[0]):
                orbit[root(x)] = root(y)
        return True


def _semiregular(p: tuple[int, ...]) -> bool:
    """True iff p fixes no vertex and all its cycles have one length."""
    seen = [False] * len(p)
    length = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        k = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            k += 1
        if k == 1 or (length and k != length):
            return False
        length = k
    return True


def _search_regular_subgroup(
    n: int, perms: Sequence[tuple[int, ...]]
) -> list[tuple[int, ...]] | None:
    """A subgroup of `perms` with exactly one member sending 0 to each vertex.

    `perms` must be a full automorphism list (closed under composition).
    Backtracks over the candidates for the lowest unresolved vertex, in the
    given order.  The candidates chosen so far generate the selection: a
    choice stands iff no two members of the group they generate send 0 to
    the same vertex.  Returns the members ordered by their image of 0, or
    None.
    """
    identity = tuple(range(n))
    if identity not in perms:
        return None

    cand: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for p in perms:
        cand[p[0]].append(p)
    if any(not c for c in cand):
        return None  # not even transitive
    # every selection the search can complete is a regular group, whose non-identity
    # members are semiregular: no other candidate can succeed (checked once, when tried)
    semiregular = functools.cache(_semiregular)

    def generate(sel: list[tuple[int, ...] | None],
                 gens: list[tuple[int, ...]]) -> list[tuple[int, ...] | None] | None:
        """<gens> by image of 0, grown from sel = <gens[:-1]> by right
        multiplication (sel's members need only the new generator); None
        if two members send 0 to the same vertex."""
        sel = list(sel)
        queue = [q for q in sel if q is not None]
        known = len(queue)
        for i, q in enumerate(queue):
            for g in gens[-1:] if i < known else gens:
                t = tuple([q[x] for x in g])
                existing = sel[t[0]]
                if existing is None:
                    sel[t[0]] = t
                    queue.append(t)
                elif existing != t:
                    return None
        return sel

    def extend(gens: list[tuple[int, ...]],
               sel: list[tuple[int, ...] | None]) -> list[tuple[int, ...]] | None:
        if None not in sel:
            return sel
        v = sel.index(None)
        for p in filter(semiregular, cand[v]):
            nxt = generate(sel, gens + [p])
            if nxt is not None:
                result = extend(gens + [p], nxt)
                if result is not None:
                    return result
        return None

    return extend([], [identity] + [None] * (n - 1))
