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
The automorphism search (`_Search`) builds its tables once per graph,
answers vertex-transitivity without listing the group, and yields its
leaves one at a time from one generator, `leaves`.  A full listing of a
graph with twins searches its twin quotient and expands each quotient
automorphism by itertools.permutations of the twin classes (`_lifted`), in
the same lex order; the search knows no twins.  The selection
(`_regular_group`) is one backtrack over per-vertex sources, the
candidates sending 0 to v in lex order.  `is_cayley` lists no group
either: its source for v is a targeted search 0 -> v that skips every leaf
with a fixed point, drawn lazily, only when the selection reaches v, which
gives the filtered candidates of the listing in the same lex order.  Each
drawn search stays suspended until the selection ends, holding n + 1 mask
lists of n ints (about 260 MB at C_1024); all are freed before `is_cayley`
returns.  The sources of `find_regular_subgroup` are its list's buckets by
image of 0, and it keeps every check a list needs to itself.  A listing
pauses the cyclic collector: it forms no reference cycle, so a collection
could free nothing.

Both questions run one reduction first (`_reduce`).  The components of
Cay(H, S) are the cosets of <S>, each a copy of Cay(<S>, S), and t copies
of Cay(K, S) form Cay(K x Z_t, S x {0}); so a graph whose components are
copies of one is Cayley, or vertex-transitive, exactly when that component
is, and a graph with two non-isomorphic components is not even
vertex-transitive.  A graph and its complement have the same automorphisms
(the complement of Cay(H, S) is Cay(H, H - S - {e})).  A graph of constant
degree d on n vertices is connected if 2d >= n - 1, and its complement is
if 2d <= n - 1; so one with 2d > n - 1 is replaced by its complement, and
no complement is searched for components.
"""

from __future__ import annotations

import enum
import gc
from dataclasses import dataclass
from itertools import chain, permutations
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .cayley import ConnectionSet, directed_cayley, undirected_cayley
from .errors import SearchBoundExceeded, _integer
from .graphs import Digraph, SimpleGraph
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


def backend_name() -> str:
    """Name of the search implementation; there is one, in pure Python."""
    return "pure-python"


def automorphisms(graph: Graph, bound: int = DEFAULT_AUT_BOUND) -> list[Permutation]:
    """The full automorphism list, in lexicographic order of image arrays.

    Adjacency-preserving for undirected graphs, arc-preserving for
    digraphs.  The list always contains the identity and is closed under
    composition and inversion.  A graph with twins is listed through its
    twin quotient (`_lifted`); the bound applies to the whole graph.  The
    cyclic collector is paused while the list is built: tuples of ints,
    their wrappers and the search's lists of ints form no cycle, so a
    collection could free nothing.
    """
    bound = _integer(bound, "search bound {value!r} is not an integer")
    n = graph.order
    if n > bound:
        raise SearchBoundExceeded(n, bound)  # before the pause
    classes = _twin_classes(graph.rows)
    enabled = gc.isenabled()
    gc.disable()
    try:
        if len(classes) == n:
            # each leaf of the search is a bijection: an image leaves every later mask
            return Permutation._unchecked_list(_Search(graph.rows, bound).leaves())
        return Permutation._unchecked_list(_lifted(graph.rows, classes, bound))
    finally:
        if enabled:
            gc.enable()


def is_vertex_transitive(graph: Graph, bound: int = DEFAULT_AUT_BOUND) -> bool:
    """True iff the automorphisms send vertex 0 to every vertex.

    Runs is_cayley's stages 1-4 (`_reduce`: the degree filter, the
    complement when 2d > n - 1, the component step, one search) and no
    more, building no group and listing no automorphism; the bound applies
    to each searched graph.
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
    changes the result.  n must be positive, and every permutation must have
    degree n.  The members are checked as in is_cayley, then against the list
    (it may not be closed).
    """
    if n < 1:
        raise ValueError(f"n = {n} given; a graph has at least one vertex")
    degrees = {p.degree for p in auts} - {n}
    if degrees:
        raise ValueError(f"permutations of degree {min(degrees)} given with n = {n}")
    images = sorted(p.images for p in auts)
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for p in images:
        buckets[p[0]].append(p)
    # the identity sorts first; with a bucket empty, a selection may complete outside the list
    if images[:1] != [tuple(range(n))] or not all(buckets):
        return None
    group = _regular_group(buckets)
    if group is None:
        return None
    members = Permutation._unchecked_list(map(tuple, group.table.tolist()))
    if not {p.images for p in members} <= set(images):
        raise ValueError("kernel returned a permutation outside the input list; "
                         "was the automorphism list closed under composition?")
    return members


def _regular_group(sources: Sequence[Iterable[tuple[int, ...]]]) -> FiniteGroup | None:
    """The regular subgroup `_select` finds over per-vertex sources, or None.

    sources[v] yields the candidates sending 0 to v in lex order.  Only the
    semiregular ones are drawn, one at a time when the selection reaches v,
    and kept for its later returns to v: every selection that completes is
    a regular group, whose non-identity members are semiregular.  Member v
    is row v of the table.  Identity 0 says it sends 0 to v, and then the
    members are closed iff the table is associative, T[i, T[j, v]] ==
    T[T[i, j], v], which construction checks.
    """
    n = len(sources)
    draws = [filter(_semiregular, source) for source in sources]
    drawn: list[list[tuple[int, ...]]] = [[] for _ in range(n)]

    def candidates(v: int) -> Iterator[tuple[int, ...]]:
        """Those drawn on earlier visits to v, then new draws.  The lowest open
        vertex rises with the depth, so no two of these run at once for one v."""
        yield from drawn[v]
        for p in draws[v]:
            drawn[v].append(p)
            yield p

    members = _select([], [tuple(range(n))] + [None] * (n - 1), candidates)
    if members is None:
        return None
    group = FiniteGroup(members)
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
    # row v of the table is v's left translation u -> v * u, a permutation in a group
    vertex_map = tuple(Permutation._unchecked_list(map(tuple, group.table.tolist())))
    return CayleyWitness(group, connection, vertex_map, isinstance(graph, Digraph))


def is_cayley(graph: Graph, bound: int = DEFAULT_CAYLEY_BOUND) -> CayleyWitness | NotCayley:
    """Decide whether the graph is a Cayley graph of some group.

    Checks run cheapest-first and report the earliest failure; 1-4 are
    `_reduce`, which is_vertex_transitive shares:

    1. constant degrees (in and out separately for digraphs), else
       NotRegularDegree;
    2. a graph of degree d on n vertices with 2d > n - 1 is replaced by its
       complement, which has the same automorphisms; an edgeless graph
       accepts with a cyclic-group witness;
    3. a disconnected graph is decided on the component of vertex 0, once
       every other component is a copy of it, else NotVertexTransitive;
    4. vertex-transitivity (`_Search.transitive`), else NotVertexTransitive;
    5. a regular subgroup of the automorphisms (`_regular_group`), else
       NoRegularSubgroup; its candidates for each vertex v are drawn lazily
       from the targeted search 0 -> v with no fixed point, and the group
       is never listed.

    `bound` limits each searched graph: the union of two components, or
    the connected graph left.  The cheap paths decide graphs of any order.
    """
    reduced = _reduce(graph, bound)
    if isinstance(reduced, NotCayley):
        return reduced
    order, search, maps = reduced
    group = (cyclic(order) if search is None
             else _regular_group([search.leaves(v, moving=True) for v in range(order)]))
    if group is None:
        return NotCayley(NotCayleyReason.NO_REGULAR_SUBGROUP)
    for images in reversed(maps):
        # K x Z_t, element k * t + i is (k, i), relabelled: a group by construction
        product = _product_table(group.table, _sum_table(len(images)))
        vertex = np.array(images).T.reshape(-1)
        table = np.empty_like(product)
        table[np.ix_(vertex, vertex)] = vertex[product]
        group = FiniteGroup._built(table)
    return _witness(graph, group)


# -- the reduction both questions share ----------------------------------------

def _reduce(graph: Graph, bound: int) -> tuple[int, _Search | None, list] | NotCayley:
    """is_cayley's stages 1-4: the order left, its search and maps, or the reason.

    Works on bit-rows of constant degree d on n vertices.  If 2d >= n - 1
    they are (weakly) connected: two vertices not joined have at least
    n - 1 neighbours between them among the other n - 2, so they share one.
    If 2d <= n - 1 the complement is connected by the same count.  So the
    rows become the complement's exactly when 2d > n - 1, and no complement
    is searched for components.  What is left is edgeless, with no search,
    or connected, with its search, which is transitive.  Disconnected rows
    become those of C_0, the component of vertex 0, once a targeted search
    on the union of C_0 and each C_i maps C_0 onto C_i by phi_i; that step
    appends images[i][k] = phi_i(c_k), c_k being C_0's k-th vertex, to maps.
    """
    bound = _integer(bound, "search bound {value!r} is not an integer")
    if not _degrees_constant(graph):
        return NotCayley(NotCayleyReason.NOT_REGULAR_DEGREE)
    rows: Sequence[int] = graph.rows
    maps: list[list[list[int]]] = []
    while True:
        n = len(rows)
        if 2 * rows[0].bit_count() > n - 1:
            full = (1 << n) - 1
            rows = [full & ~(1 << v) & ~row for v, row in enumerate(rows)]
        if not rows[0]:
            return n, None, maps
        components = _components(rows)
        if len(components) == 1:
            search = _Search(rows, bound)
            if not search.transitive():
                return NotCayley(NotCayleyReason.NOT_VERTEX_TRANSITIVE)
            return n, search, maps
        order = components[0].bit_count()
        if any(c.bit_count() != order for c in components):
            return NotCayley(NotCayleyReason.NOT_VERTEX_TRANSITIVE)
        first = _vertices(components[0])
        images = [first]
        for component in components[1:]:
            union = first + _vertices(component)
            found = next(_Search(_induced(rows, union), bound).leaves(order), None)
            if found is None:
                return NotCayley(NotCayleyReason.NOT_VERTEX_TRANSITIVE)
            images.append([union[x] for x in found[:order]])
        maps.append(images)
        rows = _induced(rows, first)


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


def _cols(rows: Sequence[int]) -> list[int]:
    """The relation's columns: bit u of cols[v] joins u to v."""
    cols = [0] * len(rows)
    for u, row in enumerate(rows):
        for v in _vertices(row):
            cols[v] |= 1 << u
    return cols


def _induced(rows: Sequence[int], vertices: list[int]) -> list[int]:
    """Bit-rows of the subgraph on `vertices`, vertices[j] renamed j."""
    bits = {u: 1 << j for j, u in enumerate(vertices)}  # u's bit in the subgraph
    mask = sum(1 << u for u in vertices)
    return [sum(map(bits.__getitem__, _vertices(rows[v] & mask))) for v in vertices]


# -- the twin quotient a listing searches ---------------------------------------

def _twin_classes(rows: Sequence[int]) -> list[list[int]]:
    """The twin classes of a relation, each in label order, by lowest vertex.

    Two vertices are twins when swapping them is an automorphism: the same
    arcs to and from every other vertex, and both arcs between them (closed
    twins) or neither (open).  Conjugating one swap by another makes this an
    equivalence, and a class of two or more is all open or all closed.
    """
    n = len(rows)
    found: dict[int, int] = {}  # twins as one key: row, then col, as one int
    for v, (row, col) in enumerate(zip(rows, _cols(rows))):
        bit = 1 << v
        key = row << n | col  # open twins share it
        found[key] = found.get(key, 0) | bit
        key |= bit << n | bit  # closed twins share it (no open key does: no loops)
        found[key] = found.get(key, 0) | bit
    twin = [1 << v for v in range(n)]  # twin[v]: the mask of v's class
    for mask in found.values():
        if mask & (mask - 1):
            for v in _vertices(mask):
                twin[v] = mask
    return [_vertices(mask) for v, mask in enumerate(twin) if mask & -mask == 1 << v]


def _lifted(rows: Sequence[int], classes: list[list[int]],
            bound: int) -> Iterable[tuple[int, ...]]:
    """The automorphisms of a relation with twin classes `classes`, in lex order.

    An automorphism sends twins to twins, so it permutes the classes, and
    between two classes the arcs are all present or all absent.  So the
    automorphisms are exactly the bijections sending each class C onto
    tau(C), one for each permutation of C's images, where tau is an
    automorphism of the quotient (the relation on the classes' lowest
    vertices) that keeps each class's size and kind.  One search lists the
    taus; each is expanded by itertools.permutations of its classes of two
    or more.  The lifts of one tau come in lex order when those classes do
    not interleave; lifts of two taus may, so then the list is sorted once.
    """
    reps = [c[0] for c in classes]
    # a class's size, and whether it is closed (a single vertex has no loop)
    kinds = [(len(c), rows[c[0]] >> c[-1] & 1) for c in classes]
    quotient = list(_Search(_induced(rows, reps), bound, kinds).leaves())
    singles = [q for q, c in enumerate(classes) if len(c) == 1]
    shared = [q for q, c in enumerate(classes) if len(c) > 1]
    joined = [v for q in shared for v in classes[q]]
    ordered = len(quotient) == 1 and joined == sorted(joined)
    if not ordered:
        # the largest class varies fastest: each head's lifts are then one sorted run
        shared.sort(key=lambda q: len(classes[q]))

    def lifts(tau: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        heads = [tuple([reps[tau[q]] for q in singles])]
        for q in shared[:-1]:
            heads = [head + p for head in heads for p in permutations(classes[tau[q]])]
        last: Iterable[tuple[int, ...]] = permutations(classes[tau[shared[-1]]])
        if len(heads) > 1:
            last = list(last)  # every head takes it; a single head takes it lazily
        return chain.from_iterable(map(head.__add__, last) for head in heads)

    leaves: Iterable[tuple[int, ...]] = chain.from_iterable(map(lifts, quotient))
    # a lift lists the singles' images, then each shared class's: one itemgetter
    # puts them into label order, unless that is already it
    placed = [reps[q] for q in singles] + [v for q in shared for v in classes[q]]
    if placed != sorted(placed):
        order = [0] * len(placed)
        for i, v in enumerate(placed):
            order[v] = i
        leaves = map(itemgetter(*order), leaves)
    return leaves if ordered else sorted(leaves)


# -- the search kernels -----------------------------------------------------

class _Search:
    """The automorphism search on one relation, its tables built once.

    Backtracks with one candidate mask per vertex, first its class of the
    degree partition (same out- and in-degree, and the same kind where the
    caller gives kinds, as `_lifted` does).  Trying k -> v narrows the mask
    of each later vertex u to the unused vertices whose arcs to and from v
    match u's arcs to and from k, so any v in cand[k] fits every earlier
    image.  A branch that empties a mask has no leaf below it and
    is never entered: the list and its order are the plain backtrack's.
    Each depth keeps one list of masks, which its tries overwrite, and the
    last vertex takes the one image left in its mask with no further try.
    One loop with a stack of untried images drives it, so building a search,
    the only check of its bound, is the only limit on its depth.  The loop
    is the generator `leaves`, the search's one entry: a listing is list()
    of it, a targeted search its first leaf, and a draw one more leaf of a
    suspended loop.
    """

    def __init__(self, rows: Sequence[int], bound: int, kinds: Sequence[Hashable] = ()):
        n = self.n = len(rows)
        if n > bound:
            raise SearchBoundExceeded(n, bound)
        cols = _cols(rows)
        keys = list(zip(map(int.bit_count, rows), map(int.bit_count, cols), kinds or [0] * n))
        classes: dict[tuple, int] = {}
        for v, key in enumerate(keys):
            classes[key] = classes.get(key, 0) | 1 << v
        self.start = [classes[key] for key in keys]
        # later[k]: (u, 2 * [u -> k] + [k -> u]) for every u > k
        self.later = [[(u, 2 * (rows[u] >> k & 1) + (rows[k] >> u & 1)) for u in range(k + 1, n)]
                      for k in range(n)]
        # keep[v][code]: every w != v with 2 * [w -> v] + [v -> w] == code
        self.keep = [(~(c | r | 1 << v), r & ~c, c & ~r, c & r)
                     for v, (r, c) in enumerate(zip(rows, cols))]

    def leaves(self, target: int | None = None,
               moving: bool = False) -> Iterator[tuple[int, ...]]:
        """The automorphisms, in lexicographic order, as the loop reaches them;
        with a `target`, only those sending 0 to it, and with `moving`, only
        those that fix no vertex (each vertex's own bit leaves its mask)."""
        n, keep = self.n, self.keep
        start = [m & ~(1 << u) for u, m in enumerate(self.start)] if moving else self.start[:]
        if target is not None:
            start[0] &= 1 << target
        # masks[k] holds the masks of vertices k.. at depth k; each try at depth
        # k overwrites those of k + 1.. in masks[k + 1], which only depth k + 1 reads
        masks = [start] + [[0] * n for _ in range(n)]
        frames = list(zip(masks, masks[1:], self.later))  # what depth k reads and writes
        img = [0] * n
        stack = [start[0]]  # the untried images of each unfinished depth
        while stack:
            left = stack.pop()
            k = len(stack)
            cand, narrowed, checks = frames[k]
            while left:
                low = left & -left
                left ^= low
                v = low.bit_length() - 1
                fits = keep[v]
                for u, code in checks:
                    m = narrowed[u] = cand[u] & fits[code]
                    if not m:
                        break
                else:
                    img[k] = v
                    if k < n - 2:
                        stack.append(left)
                        k += 1
                        cand, narrowed, checks = frames[k]
                        left = cand[k]
                        continue
                    if k == n - 2:
                        # the last mask has lost the n - 1 images before it, so it
                        # holds one image, and that one fits every earlier image
                        img[-1] = narrowed[-1].bit_length() - 1
                    yield tuple(img)

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
            found = next(self.leaves(v), None)
            if found is None:
                return False
            for x, y in enumerate(found):
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


def _generate(sel: list[tuple[int, ...] | None],
              gens: list[tuple[int, ...]]) -> list[tuple[int, ...] | None] | None:
    """<gens> by image of 0, grown from sel = <gens[:-1]> by right
    multiplication (sel's members need only the new generator); None if
    two members send 0 to the same vertex."""
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


def _select(gens: list[tuple[int, ...]], sel: list[tuple[int, ...] | None],
            candidates: Callable[[int], Iterable[tuple[int, ...]]]
            ) -> list[tuple[int, ...]] | None:
    """The members, by image of 0, of a group extending sel = <gens> with
    exactly one member sending 0 to each vertex, or None.  Backtracks over
    the candidates for the lowest open vertex; a choice stands iff no two
    members of the group the choices generate send 0 to the same vertex.
    Each choice at least doubles the selection: the depth is log2(n) at most."""
    if None not in sel:
        return sel
    v = sel.index(None)
    for p in candidates(v):
        nxt = _generate(sel, gens + [p])
        if nxt is not None:
            found = _select(gens + [p], nxt, candidates)
            if found is not None:
                return found
    return None
