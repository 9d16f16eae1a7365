"""The automorphism search against oracles that reach past brute force.

`test_automorphism_search_matches_brute_force` filters all n! permutations
and so stops at order 6.  Here the whole list from `automorphisms` is
compared with networkx's VF2 matcher (every graph on at most 7 vertices,
and relabelled Cayley graphs and named graphs up to order 16), its order
and orbit of 0 with sympy's Schreier-Sims, and the verdicts on generalized
Petersen graphs with the theorems that classify them.
"""

from __future__ import annotations

import random
from itertools import combinations, islice, permutations

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import DiGraphMatcher, GraphMatcher
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup

from groupgraphs import cayley, symmetry
from groupgraphs.catalog import catalog
from groupgraphs.cayley import ConnectionSet
from groupgraphs.graphs import Digraph, SimpleGraph
from tests.conftest import complement, disjoint_union, petersen_graph, relabel, to_networkx


def matcher_automorphisms(graph) -> list[tuple[int, ...]]:
    """Every automorphism as an image tuple, from networkx's VF2 matcher, sorted."""
    reference = to_networkx(graph)
    matcher = (DiGraphMatcher if reference.is_directed() else GraphMatcher)(reference, reference)
    return sorted(tuple(m[v] for v in range(graph.order)) for m in matcher.isomorphisms_iter())


# -- every graph on at most 7 vertices ------------------------------------------

# vertex-transitive graphs on 1..7 vertices, up to isomorphism (OEIS A006799)
VERTEX_TRANSITIVE_COUNTS = [1, 2, 2, 4, 3, 8, 4]


def assert_degree_rule(graph) -> None:
    """Constant degree d on n vertices: connected if 2d >= n - 1, co-connected
    if 2d <= n - 1 (weakly, for digraphs), checked with networkx."""
    n, d = graph.order, graph.rows[0].bit_count()
    if 2 * d >= n - 1:
        assert nx.is_connected(to_networkx(graph).to_undirected())
    if 2 * d <= n - 1:
        assert nx.is_connected(to_networkx(complement(graph)).to_undirected())


def same_verdict(first, second) -> bool:
    """Both Cayley with one witness group table, or both not, for one reason."""
    if first and second:
        return (first.group.table == second.group.table).all()
    return not first and not second and first.reason is second.reason


def test_census_of_all_graphs_on_at_most_seven_vertices() -> None:
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    with pytest.raises(ValueError):        # the atlas opens with the graph on no vertices
        SimpleGraph.from_edges(atlas[0].number_of_nodes(), [])
    counts = [0] * 7
    for reference in atlas[1:]:
        n = reference.number_of_nodes()
        graph = SimpleGraph.from_edges(n, reference.edges())
        images = [p.images for p in symmetry.automorphisms(graph)]
        if graph.is_complete() or not any(graph.rows):
            # all of S_n: listed directly, as VF2 spends most of the census on K7 and its complement
            assert images == list(permutations(range(n)))
        else:
            assert images == matcher_automorphisms(graph)
        transitive = len({p[0] for p in images}) == n
        assert symmetry.is_vertex_transitive(graph) == transitive
        verdict = symmetry.is_cayley(graph)
        assert same_verdict(verdict, symmetry.is_cayley(complement(graph)))
        if graph.is_regular():
            assert_degree_rule(graph)
        if transitive:
            counts[n - 1] += 1
            assert verdict and verdict.reconstruct() == graph
    assert counts == VERTEX_TRANSITIVE_COUNTS


def test_degree_rule_on_cayley_digraphs_and_their_disjoint_unions() -> None:
    for group in catalog(8):
        others = [g for g in range(group.order) if g != group.identity]
        for size in range(len(others) + 1):
            for members in combinations(others, size):
                graph = cayley.directed_cayley(group, ConnectionSet(group.order, members))
                assert_degree_rule(graph)
                assert_degree_rule(disjoint_union(graph, graph))


# -- relabelled Cayley graphs and named graphs up to order 16 -------------------

def random_cayley_graph(group, directed: bool, rng: random.Random):
    """A connected Cayley graph or digraph of `group` on 2-3 random elements.

    Undirected ones keep degree at most 4: denser graphs on 12 vertices
    include K6,6, whose 10^6 automorphisms would take VF2 minutes.
    """
    others = [g for g in range(group.order) if g != group.identity]
    while True:
        members = set(rng.sample(others, rng.randint(2, 3)))
        if directed:
            graph = cayley.directed_cayley(group, ConnectionSet(group.order, members))
            if nx.is_weakly_connected(to_networkx(graph)):
                return graph
            continue
        members |= {group.inverse(m) for m in members}
        graph = cayley.undirected_cayley(group, ConnectionSet(group.order, members))
        if len(members) <= 4 and nx.is_connected(to_networkx(graph)):
            return graph


def tietze_graph() -> SimpleGraph:
    """Petersen with vertex 0 replaced by a triangle: cubic, 12 automorphisms."""
    petersen = petersen_graph()
    edges = [(u - 1, v - 1) for u in range(1, 10) for v in range(u + 1, 10)
             if (petersen.rows[u] >> v) & 1]
    edges += [(9, 10), (10, 11), (9, 11), (9, 0), (10, 3), (11, 4)]   # 0's neighbours 1, 4, 5
    return SimpleGraph.from_edges(12, edges)


def hypercube(d: int) -> SimpleGraph:
    n = 1 << d
    return SimpleGraph.from_edges(n, [(u, u | 1 << i) for u in range(n) for i in range(d)
                                      if not u >> i & 1])


def named_graphs() -> dict[str, SimpleGraph]:
    return {"Petersen": petersen_graph(),
            "Frucht": SimpleGraph.from_edges(12, nx.frucht_graph().edges()),
            "Tietze": tietze_graph(),
            "Q4": hypercube(4)}


def oracle_cases():
    rng = random.Random(16)
    cases = []
    for group in catalog():
        if group.order >= 8:
            for directed in (False, True):
                cases.append((f"{group.name}{' directed' if directed else ''}",
                               random_cayley_graph(group, directed, rng)))
    relabelled = []
    for name, graph in cases + list(named_graphs().items()):
        sigma = list(range(graph.order))
        rng.shuffle(sigma)
        relabelled.append(pytest.param(relabel(graph, sigma), id=name))
    return relabelled


def test_named_graphs_have_their_known_group_orders() -> None:
    orders = {name: len(symmetry.automorphisms(graph)) for name, graph in named_graphs().items()}
    assert orders == {"Petersen": 120, "Frucht": 1, "Tietze": 12, "Q4": 384}


@pytest.mark.parametrize("graph", oracle_cases())
def test_automorphisms_match_networkx_and_sympy(graph) -> None:
    n = graph.order
    images = [p.images for p in symmetry.automorphisms(graph)]
    assert images == matcher_automorphisms(graph)
    group = PermutationGroup([SympyPermutation(list(p)) for p in images])
    assert group.order() == len(images)
    assert group.orbit(0) == {p[0] for p in images}
    search = symmetry._Search(graph.rows, n)
    for v in range(n):
        first = [p for p in images if p[0] == v][:1]
        assert list(islice(search.leaves(v), 1)) == first


# -- generalized Petersen graphs ---------------------------------------------------

def generalized_petersen(n: int, k: int) -> SimpleGraph:
    """GP(n, k): outer cycle u_i ~ u_{i+1}, spokes u_i ~ v_i, inner v_i ~ v_{i+k}."""
    return SimpleGraph.from_edges(2 * n, [(i, (i + 1) % n) for i in range(n)]
                                  + [(i, n + i) for i in range(n)]
                                  + [(n + i, n + (i + k) % n) for i in range(n)])


# Frucht, Graver & Watkins (1971): |Aut GP(n, k)| is 4n if k^2 = +-1 (mod n) and
# 2n otherwise, but for these pairs in reach; GP(n, k) is vertex-transitive iff
# k^2 = +-1 (mod n) or (n, k) = (10, 2).  Nedela & Skoviera (1995): it is a Cayley
# graph iff k^2 = 1 (mod n).
EXCEPTIONAL_GROUP_ORDERS = {(8, 3): 96, (10, 2): 120, (10, 3): 240, (12, 5): 144}
PETERSEN_PAIRS = [(n, k) for n in range(7, 14) for k in range(1, (n + 1) // 2)] + [(20, 3)]


@pytest.mark.parametrize("n, k", PETERSEN_PAIRS, ids=[f"GP({n},{k})" for n, k in PETERSEN_PAIRS])
def test_generalized_petersen_graphs_follow_the_classification(n, k, monkeypatch) -> None:
    graph = generalized_petersen(n, k)
    square = k * k % n
    rotary = square in (1, n - 1)
    transitive = rotary or (n, k) == (10, 2)
    order = len(symmetry.automorphisms(graph, bound=40))
    assert order == EXCEPTIONAL_GROUP_ORDERS.get((n, k), 4 * n if rotary else 2 * n)
    assert symmetry.is_vertex_transitive(graph, bound=40) == transitive
    searches = []
    leaves = symmetry._Search.leaves

    def counting(self, target=None, moving=False):
        searches.append((target, moving))
        return leaves(self, target, moving)

    monkeypatch.setattr(symmetry._Search, "leaves", counting)
    assert bool(symmetry.is_cayley(graph, bound=40)) == (square == 1)
    # is_cayley never lists the group, and a graph that is not vertex-transitive
    # is rejected before any candidate for a regular subgroup is drawn
    assert [target for target, _ in searches].count(None) == 0
    assert any(moving for _, moving in searches) == transitive
