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
leaves one at a time from one generator, `leaves`; in a full listing, once
the vertices left fall into twin classes, each onto a mask of twins, it
yields their images from itertools.permutations of each class, in the
same lex order.  The selection (`_regular_group`) is one backtrack
over per-vertex sources, the candidates sending 0 to v in lex order.
`is_cayley` lists no group either: its source for v is a targeted search
0 -> v that skips every leaf with a fixed point, drawn lazily, only when
the selection reaches v, which gives the filtered candidates of the
listing in the same lex order.  Each drawn search stays suspended until
the selection ends, holding n + 1 mask lists of n ints (about 260 MB at
C_1024); all are freed before `is_cayley` returns.  The sources of
`find_regular_subgroup` are its list's buckets by image of 0, and it keeps
every check a list needs to itself.  A listing pauses the cyclic collector: it forms no reference
cycle, so a collection could free nothing.

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
from itertools import permutations
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

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
    composition and inversion.  The cyclic collector is paused while it is
    built: tuples of ints, their wrappers and the search's lists of ints
    form no cycle, so a collection could free nothing.
    """
    bound = _integer(bound, "search bound {value!r} is not an integer")
    search = _Search(graph.rows, bound)  # checks the bound before the pause
    enabled = gc.isenabled()
    gc.disable()
    try:
        # each leaf of the search is a bijection: an image leaves every later mask
        return Permutation._unchecked_list(search.leaves())
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
    Each depth keeps one list of masks, which its tries overwrite, and the
    last vertex takes the one image left in its mask with no further try.
    One loop with a stack of untried images drives it, so building a search,
    the only check of its bound, is the only limit on its depth.  The loop
    is the generator `leaves`, the search's one entry: a listing is list()
    of it, a targeted search its first leaf, and a draw one more leaf of a
    suspended loop.

    A twin tail replaces a subtree of a full listing.  Two vertices are
    twins when swapping them is an automorphism (`_Twins`).  When a try at
    depth k leaves the vertices after k, put in groups by twin class, each
    with one mask M of its own size inside one twin class, every leaf below
    sends each group onto its mask.  Swapping two twins of one mask is an
    automorphism that fixes the images placed so far, so the bijections
    that do so are all leaves or none, and one of them, checked on
    representatives, decides which.
    With one group of two or more, the leaves are permutations(sorted(M))
    around the fixed images, in the backtrack's lex order; with more, whose
    labels may interleave, their product is placed and sorted, so only a
    subtree of at most 5040 leaves takes it.  Depths where prod |group|! is
    below 24 take none: shorter tails cost more than they save.  A targeted
    search or a draw takes none either; it wants few leaves.
    """

    def __init__(self, rows: Sequence[int], bound: int):
        n = self.n = len(rows)
        if n > bound:
            raise SearchBoundExceeded(n, bound)
        cols = [0] * n  # bit u of cols[v] joins u to v
        for u, row in enumerate(rows):
            for v in _vertices(row):
                cols[v] |= 1 << u
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
        self.rows, self.cols = rows, cols

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
        # tails[k]: the twin tail a try at depth k may take; only a full listing takes one
        tails = self._twin_tails() if target is None and not moving else [None] * n
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
                        tail = tails[k]
                        if tail is not None:
                            below = tail.leaves(k, img, narrowed)
                            if below is not None:
                                yield from below
                                continue
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

    def _twin_tails(self) -> list[_Twins | None]:
        """The graph's `_Twins` at each depth k whose tries may take a twin
        tail, else None: where the vertices after k, put in groups by twin
        class, have prod |group|! >= 24 (shorter tails cost more than they
        save), and at most 5040 if two or more groups have more than one
        vertex (their tails are sorted).  Built when a full listing starts:
        O(n) ints and one n-bit mask per twin class."""
        twins = _Twins(self)
        tails: list[_Twins | None] = [None] * self.n
        product = 1  # prod |group|! over the groups of the vertices after k
        shared = 0  # the groups of two or more
        for k in range(self.n - 2, -1, -1):
            size = twins.links[k + 1][1]  # vertex k + 1 joins a group of this size
            product *= size
            shared += size == 2
            if product >= 24 and (shared == 1 or product <= 5040):
                tails[k] = twins
        return tails


class _Twins:
    """The twin classes of a search's graph, and the tail they give a try.

    Two vertices are twins when swapping them is an automorphism: the same
    arcs to and from every other vertex, and both arcs between them (closed
    twins) or neither (open).  Conjugating one swap by another makes this an
    equivalence, and a class of two or more is all open or all closed.

    A try k -> v of a full listing ends in a tail when the vertices after k,
    in groups by twin class, each have one mask, of the group's own size.
    Each vertex goes into its mask and the sizes add up to the images left,
    so every leaf below sends each group onto its mask: it is the bijection
    bij sending each group in order onto its mask in order, after a
    permutation of each group.  Swapping two twins after k is an
    automorphism that fixes 0..k, so these are all leaves if bij is one,
    and none is if bij is not.  The masks hold their arcs to the placed
    images already, so bij is checked on every pair of vertices after k
    (keep never holds a vertex itself, so two groups with one mask fail,
    and a leaf sends twins to twins, so a mask across two twin classes
    fails).  A try builds the groups as it checks them: a listing holds no
    table per depth.
    """

    __slots__ = ("n", "twin", "links", "keep", "later")

    def __init__(self, search: _Search):
        n = self.n = search.n
        classes: dict[int, int] = {}  # twins as one key: row, then col, as one int
        for v, (row, col) in enumerate(zip(search.rows, search.cols)):
            bit = 1 << v
            key = row << n | col  # open twins share it
            classes[key] = classes.get(key, 0) | bit
            key |= bit << n | bit  # closed twins share it (no open key does: no loops)
            classes[key] = classes.get(key, 0) | bit
        twin = self.twin = [1 << v for v in range(n)]  # twin[v]: the mask of v's twin class
        for mask in classes.values():
            if mask & (mask - 1):
                for v in _vertices(mask):
                    twin[v] = mask
        # links[u]: the vertex of u's class before u (-1 if none), and how many of
        # its class are u or after it
        self.links = [((mask & ((1 << u) - 1)).bit_length() - 1, (mask >> u).bit_count())
                      for u, mask in enumerate(twin)]
        self.keep, self.later = search.keep, search.later

    def leaves(self, k: int, img: list[int],
               narrowed: list[int]) -> Iterable[tuple[int, ...]] | None:
        """The leaves below the try k -> img[k], in lex order, from its masks;
        None when the masks are not those of a tail."""
        links, n = self.links, self.n
        for u in range(k + 1, n):  # most tries fail here: it allocates nothing
            m = narrowed[u]
            before, size = links[u]
            if m != narrowed[before] if before > k else m.bit_count() != size:
                return None
        # each group by its first vertex; bij sends each in order onto its mask in order
        groups = {u: _vertices(self.twin[u] >> u << u) for u in range(k + 1, n) if links[u][0] <= k}
        bij = img[:k + 1] + [0] * (n - k - 1)
        for u, group in groups.items():
            for w, x in zip(group, _vertices(narrowed[u])):
                bij[w] = x
        keep, later = self.keep, self.later
        if not all(keep[bij[u]][code] >> bij[w] & 1
                   for u in range(k + 1, n) for w, code in later[u]):
            return ()  # bij is no leaf, so no bijection onto the masks is one
        singles = [u for u, group in groups.items() if len(group) == 1]
        shared = [u for u, group in groups.items() if len(group) > 1]
        prefix = tuple(bij[:k + 1] + [bij[u] for u in singles])
        # a leaf is the prefix, the singles' images and each shared group's images, in
        # that order, placed into label order by one itemgetter unless that is already it
        placed = [*range(k + 1), *singles, *(w for u in shared for w in groups[u])]
        getter = None
        if any(u > w for u, w in zip(placed, placed[1:])):
            order = [0] * n
            for i, w in enumerate(placed):
                order[w] = i
            getter = itemgetter(*order)
        if len(shared) == 1:
            below: Iterable[tuple[int, ...]] = map(prefix.__add__,
                                                   permutations(_vertices(narrowed[shared[0]])))
            return below if getter is None else map(getter, below)
        below = [prefix]
        for u in shared:
            orders = list(permutations(_vertices(narrowed[u])))
            below = [leaf + p for leaf in below for p in orders]
        return below if getter is None else sorted(map(getter, below))


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
