"""Graph automorphism groups, vertex-transitivity, and Cayley recognition.

A graph is a Cayley graph of some group exactly when its automorphism
group contains a regular subgroup: one acting transitively with only the
identity fixing a vertex (Sabidussi, 1958).  Recognition therefore runs
cheap necessary conditions first (every Cayley graph is vertex-transitive,
every vertex-transitive graph has constant degrees) and only then the
public stages: `automorphisms` and `find_regular_subgroup` on that list.

Both searches live here, in pure Python: automorphism enumeration over
packed bit-rows of the arc relation, and regular-subgroup search over
image tuples.  Their output order is lexicographic and deterministic.
Each searches only for what its question needs.  The regular-subgroup
search tries only semiregular candidates (no fixed vertex, one cycle
length), because every non-identity member of a regular group is one.
Vertex-transitivity looks for one automorphism 0 -> v per target v and
never lists the group.
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
from .groups import FiniteGroup, cyclic
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
    if graph.order > bound:
        raise SearchBoundExceeded(graph.order, bound)
    # each leaf of the search is a bijection: its `used` mask forbids repeats
    return [Permutation._unchecked(p) for p in _search_automorphisms(graph.order, graph.rows)]


def is_vertex_transitive(graph: Graph, bound: int = DEFAULT_AUT_BOUND) -> bool:
    """True iff the automorphisms send vertex 0 to every vertex.

    Non-constant degrees reject without any search (a vertex-transitive
    graph is regular); complete and edgeless graphs accept likewise.
    Otherwise the automorphism search runs once per target v, with 0
    pinned to v, and stops at the first automorphism it finds: the full
    group is never listed.
    """
    if not _degrees_constant(graph):
        return False
    if _uniform(graph):
        return True
    if graph.order > bound:
        raise SearchBoundExceeded(graph.order, bound)
    return all(_search_automorphisms(graph.order, graph.rows, v) for v in range(1, graph.order))


def find_regular_subgroup(auts: list[Permutation], n: int) -> list[Permutation] | None:
    """A regular subgroup of the (complete) automorphism list, or None.

    Regular means: exactly one member sends 0 to each vertex, and the set
    is closed under composition.  Candidates are tried in lexicographic
    order of image arrays, so the result is deterministic; members are
    returned ordered by their image of 0.  Only semiregular candidates
    are tried: every non-identity member of a regular group fixes no
    vertex and has cycles of one length, so dropping the others never
    changes the result.  The result is checked against the full list.
    """
    images = sorted(p.images for p in auts)
    members = _search_regular_subgroup(n, images)
    if members is None:
        return None
    _check_regular(members, set(images), n)
    return [Permutation._unchecked(p) for p in members]


def _check_regular(members: list[tuple[int, ...]], aut_images: set, n: int) -> None:
    # guards against a non-closed input list being handed to the kernel
    if len(members) != n:
        raise ValueError("regular subgroup candidate has wrong size")
    for i, p in enumerate(members):
        if p not in aut_images:
            raise ValueError("kernel returned a permutation outside the input list; "
                             "was the automorphism list closed under composition?")
        if p[0] != i:
            raise ValueError("regular subgroup candidate misses a vertex")
    # members[i] sends 0 to i, so the set is closed iff members[i] * members[j]
    # is members[i][j]: the table T is associative, T[i, T[j, v]] == T[T[i, j], v]
    t = np.array(members)
    if not np.array_equal(t[:, t], t[t]):
        raise ValueError("regular subgroup candidate is not closed")


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

    Checks run cheapest-first and report the earliest failure:

    1. constant degrees (in and out separately for digraphs), else
       NotRegularDegree;
    2. complete/edgeless graphs accept immediately with a cyclic-group
       witness;
    3. `automorphisms`, whose images of vertex 0 must cover every
       vertex, else NotVertexTransitive;
    4. `find_regular_subgroup` on that list, else NoRegularSubgroup.

    Only steps 3-4 are subject to `bound`; graphs of any order can still
    be decided by the cheap paths.
    """
    if not _degrees_constant(graph):
        return NotCayley(NotCayleyReason.NOT_REGULAR_DEGREE)
    if _uniform(graph):
        return _witness(graph, cyclic(graph.order))
    n = graph.order
    auts = automorphisms(graph, bound)
    if len({p.images[0] for p in auts}) != n:
        return NotCayley(NotCayleyReason.NOT_VERTEX_TRANSITIVE)
    members = find_regular_subgroup(auts, n)
    if members is None:
        return NotCayley(NotCayleyReason.NO_REGULAR_SUBGROUP)
    # sigma_g . sigma_h = sigma_{g*h} turns the image arrays into the table
    return _witness(graph, FiniteGroup([p.images for p in members]))


# -- the search kernels -----------------------------------------------------

def _search_automorphisms(
    n: int, rows: Sequence[int], target: int | None = None
) -> list[tuple[int, ...]]:
    """All permutations preserving the relation, in lexicographic order.

    Backtracks over a degree-partition: vertex u may map only to vertices
    with the same (out-degree, in-degree) pair.  At level k, `used` is the
    image set of 0..k-1, so v is a valid image of k iff rows[v] & used and
    cols[v] & used are the images of k's earlier out- and in-neighbours:
    two whole-row comparisons per candidate.
    With a `target`, vertex 0 may map only to it and the search stops at
    the first leaf: the result is one automorphism 0 -> target, or none.
    """
    cols = _from_matrix(_to_matrix(rows).T)  # bit u of cols[v] joins u to v
    keys = [(rows[v].bit_count(), cols[v].bit_count()) for v in range(n)]
    classes: dict[tuple[int, int], int] = {}
    for v, key in enumerate(keys):
        classes[key] = classes.get(key, 0) | 1 << v
    cand = [classes[key] for key in keys]
    if target is not None:
        cand[0] &= 1 << target
    stop = target is not None

    img = [0] * n
    found: list[tuple[int, ...]] = []

    def image(mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << img[low.bit_length() - 1]
            mask ^= low
        return out

    def extend(k: int, used: int) -> bool:
        if k == n:
            found.append(tuple(img))
            return stop
        earlier = (1 << k) - 1
        out_image = image(rows[k] & earlier)
        in_image = image(cols[k] & earlier)
        avail = cand[k] & ~used
        while avail:
            low = avail & -avail
            avail ^= low
            v = low.bit_length() - 1
            if rows[v] & used == out_image and cols[v] & used == in_image:
                img[k] = v
                if extend(k + 1, used | low):
                    return True
        return False

    extend(0, 0)
    return found


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([p[x] for x in q])


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
                t = _compose(q, g)
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
        for p in cand[v]:
            if not semiregular(p):
                continue
            nxt = generate(sel, gens + [p])
            if nxt is not None:
                result = extend(gens + [p], nxt)
                if result is not None:
                    return result
        return None

    start: list[tuple[int, ...] | None] = [None] * n
    start[0] = identity
    return extend([], start)
