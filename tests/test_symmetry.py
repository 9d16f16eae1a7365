"""Automorphism search, vertex-transitivity, and Cayley recognition."""

from __future__ import annotations

import gc
import hashlib
import math
import random
import sys
from itertools import combinations, islice, permutations

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import groupgraphs
from groupgraphs import cayley, graphs, groups, powergraph, symmetry
from groupgraphs.catalog import catalog
from groupgraphs.cayley import ConnectionSet
from groupgraphs.errors import GroupGraphsError, SearchBoundExceeded
from groupgraphs.graphs import Digraph, SimpleGraph
from groupgraphs.perms import Permutation
from groupgraphs.symmetry import NotCayleyReason
from tests.conftest import (
    brute_force_automorphisms,
    complement,
    disjoint_union,
    loop130,
    petersen_graph,
    reference_search,
    relabel,
    to_networkx,
    unfiltered_regular_subgroup,
)


def cycle_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_k4_has_24_automorphisms() -> None:
    auts = symmetry.automorphisms(SimpleGraph.complete(4))
    assert len(auts) == 24


def test_c4_has_8_automorphisms() -> None:
    auts = symmetry.automorphisms(cycle_graph(4))
    assert len(auts) == 8


def test_c70_automorphisms_need_rows_wider_than_64_bits() -> None:
    auts = symmetry.automorphisms(cycle_graph(70), bound=70)
    assert len(auts) == 140  # dihedral symmetries of C_70


def test_search_reports_pure_python() -> None:
    assert groupgraphs.backend_name() == "pure-python"


def test_pg_s3_has_12_automorphisms() -> None:
    pg = powergraph.undirected_power_graph(groups.symmetric(3))
    auts = symmetry.automorphisms(pg)
    assert len(auts) == 12
    assert len(auts) >= 4


def test_dpg_z4_has_2_automorphisms() -> None:
    dpg = powergraph.directed_power_graph(groups.cyclic(4))
    auts = symmetry.automorphisms(dpg)
    assert [p.images for p in auts] == [(0, 1, 2, 3), (0, 3, 2, 1)]


def test_automorphisms_match_brute_force_on_small_graphs() -> None:
    cases = [
        cycle_graph(5),
        cycle_graph(6),
        powergraph.undirected_power_graph(groups.symmetric(3)),
        powergraph.directed_power_graph(groups.cyclic(6)),
        SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4)]),
        Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)]),
    ]
    for graph in cases:
        expected = brute_force_automorphisms(graph)
        assert [p.images for p in symmetry.automorphisms(graph)] == expected


def test_automorphism_output_is_a_group() -> None:
    for graph in (
        cycle_graph(6),
        petersen_graph(),
        powergraph.undirected_power_graph(groups.dihedral(4)),
    ):
        auts = symmetry.automorphisms(graph)
        as_set = {p.images for p in auts}
        assert Permutation.identity(graph.order).images in as_set
        for p in auts:
            assert p.inverse().images in as_set
        for p, q in zip(auts[:20], reversed(auts[-20:])):
            assert (p * q).images in as_set


def test_automorphisms_bound() -> None:
    path = SimpleGraph.from_edges(17, [(i, i + 1) for i in range(16)])
    with pytest.raises(SearchBoundExceeded) as raised:
        symmetry.automorphisms(path)
    assert (raised.value.order, raised.value.bound) == (17, 16)
    assert len(symmetry.automorphisms(path, bound=17)) == 2


@pytest.mark.parametrize("bound", ["16", None, 16.5, True])
@pytest.mark.parametrize("entry", [symmetry.automorphisms, symmetry.is_vertex_transitive,
                                   symmetry.is_cayley])
def test_search_bound_must_be_an_integer(entry, bound) -> None:
    # C4 is searched; a path fails the degree filter and K4 becomes edgeless, unsearched
    path = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    for graph in (cycle_graph(4), path, SimpleGraph.complete(4)):
        with pytest.raises(ValueError) as raised:
            entry(graph, bound=bound)
        assert str(raised.value) == f"search bound {bound!r} is not an integer"
    assert entry(cycle_graph(4), bound=np.int64(4))


def test_search_deeper_than_the_recursion_limit_answers() -> None:
    # the kernel is one loop, so only the bound limits a search's depth: here
    # the recursion limit allows 50 frames more than the test already holds
    c300 = cycle_graph(300)
    directed = Digraph.from_arcs(100, [(i, (i + 1) % 100) for i in range(100)])
    limit = sys.getrecursionlimit()
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    sys.setrecursionlimit(depth + 50)
    try:
        transitive = symmetry.is_vertex_transitive(c300, bound=300)
        found = list(islice(symmetry._Search(c300.rows, 300).leaves(150), 1))
        auts = symmetry.automorphisms(directed, bound=100)
    finally:
        sys.setrecursionlimit(limit)
    assert transitive
    assert [p[:2] for p in found] in ([(150, 149)], [(150, 151)])
    assert [p.images for p in auts] == [tuple((x + r) % 100 for x in range(100))
                                        for r in range(100)]


def test_vertex_transitivity_bound() -> None:
    with pytest.raises(SearchBoundExceeded) as raised:
        symmetry.is_vertex_transitive(cycle_graph(17))
    assert (raised.value.order, raised.value.bound) == (17, 16)
    assert symmetry.is_vertex_transitive(cycle_graph(17), bound=17)


def test_vertex_transitive_examples() -> None:
    assert symmetry.is_vertex_transitive(SimpleGraph.complete(7))
    assert symmetry.is_vertex_transitive(cycle_graph(6))
    assert symmetry.is_vertex_transitive(petersen_graph())
    pg_z6 = powergraph.undirected_power_graph(groups.cyclic(6))
    assert not symmetry.is_vertex_transitive(pg_z6)
    dpg_z4 = powergraph.directed_power_graph(groups.cyclic(4))
    assert not symmetry.is_vertex_transitive(dpg_z4)


def test_regular_but_not_vertex_transitive() -> None:
    # Disjoint C_3 + C_4: 2-regular, but no automorphism maps across components.
    graph = SimpleGraph.from_edges(
        7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
    )
    assert graph.is_regular()
    assert not symmetry.is_vertex_transitive(graph)
    verdict = symmetry.is_cayley(graph)
    assert not verdict
    assert verdict.reason is NotCayleyReason.NOT_VERTEX_TRANSITIVE


def test_is_cayley_k4() -> None:
    witness = symmetry.is_cayley(SimpleGraph.complete(4))
    assert witness
    assert witness.group.order == 4
    assert sorted(witness.connection) == [1, 2, 3]
    assert witness.reconstruct() == SimpleGraph.complete(4)


def test_is_cayley_rejects_pg_s3_on_degrees() -> None:
    pg = powergraph.undirected_power_graph(groups.symmetric(3))
    verdict = symmetry.is_cayley(pg)
    assert not verdict
    assert verdict.reason is NotCayleyReason.NOT_REGULAR_DEGREE


def test_is_cayley_rejects_dpg_z4_on_degrees() -> None:
    dpg = powergraph.directed_power_graph(groups.cyclic(4))
    verdict = symmetry.is_cayley(dpg)
    assert not verdict
    assert verdict.reason is NotCayleyReason.NOT_REGULAR_DEGREE


def test_is_cayley_rejects_constant_out_but_varying_in_degree() -> None:
    # every out-degree is 1; in-degrees are 2, 1, 0
    d = Digraph.from_arcs(3, [(0, 1), (1, 0), (2, 0)])
    assert not d.has_constant_in_out_degrees()
    verdict = symmetry.is_cayley(d)
    assert not verdict
    assert verdict.reason is NotCayleyReason.NOT_REGULAR_DEGREE


def test_petersen_is_vertex_transitive_but_not_cayley() -> None:
    pet = petersen_graph()
    assert len(symmetry.automorphisms(pet)) == 120
    assert symmetry.is_vertex_transitive(pet)
    verdict = symmetry.is_cayley(pet)
    assert not verdict
    assert verdict.reason is NotCayleyReason.NO_REGULAR_SUBGROUP


def test_c5_rotations_are_the_unique_regular_subgroup() -> None:
    c5 = cycle_graph(5)
    auts = symmetry.automorphisms(c5)
    assert len(auts) == 10
    found = symmetry.find_regular_subgroup(auts, 5)
    assert found is not None
    rotations = {tuple((v + k) % 5 for v in range(5)) for k in range(5)}
    assert {p.images for p in found} == rotations

    # Independent oracle: check every 5-element subset containing the
    # identity for regularity; only the rotation subgroup qualifies.
    images = [p.images for p in auts]
    identity = tuple(range(5))
    regular_subsets = []
    for rest in combinations([p for p in images if p != identity], 4):
        subset = (identity, *rest)
        if {p[0] for p in subset} != set(range(5)):
            continue
        lookup = set(subset)
        if all(
            tuple(p[q[v]] for v in range(5)) in lookup for p in subset for q in subset
        ):
            regular_subsets.append(frozenset(subset))
    assert regular_subsets == [frozenset(rotations)]


def test_find_regular_subgroup_requires_identity() -> None:
    shift = Permutation((1, 2, 3, 0))
    assert symmetry.find_regular_subgroup([shift], 4) is None


def test_find_regular_subgroup_finds_nothing_where_a_vertex_has_no_candidate() -> None:
    # a selection from rotations 0, 1, 3 and 4 of C5 would complete through 1 + 1 = 2,
    # which the list lacks; K1,3 sends 0 to no leaf
    rotations = [Permutation([(v + k) % 5 for v in range(5)]) for k in (0, 1, 3, 4)]
    assert symmetry.find_regular_subgroup(rotations, 5) is None
    assert symmetry.find_regular_subgroup(symmetry.automorphisms(complete_bipartite(1, 3)),
                                          4) is None


def test_find_regular_subgroup_rejects_a_list_that_is_not_closed() -> None:
    auts = symmetry.automorphisms(cycle_graph(4))
    assert len(auts) == 8
    # both regular subgroups of C4's automorphism group contain the half-turn,
    # and the kernel's closure step rebuilds it from the list without it
    partial = [p for p in auts if p.images != (2, 3, 0, 1)]
    with pytest.raises(ValueError, match="outside the input list"):
        symmetry.find_regular_subgroup(partial, 4)


def test_find_regular_subgroup_rejects_a_degree_other_than_n() -> None:
    auts = symmetry.automorphisms(cycle_graph(5))
    for n in (3, 7):
        with pytest.raises(ValueError, match=f"degree 5 .* n = {n}"):
            symmetry.find_regular_subgroup(auts, n)
    with pytest.raises(ValueError, match="degree 2 .* n = 5"):
        symmetry.find_regular_subgroup(auts + [Permutation([1, 0])], 5)


@pytest.mark.parametrize("n", [3, 130])
def test_each_defect_of_the_kernels_selection_is_caught(n, monkeypatch) -> None:
    rotations = [tuple((v + k) % n for v in range(n)) for k in range(n)]
    defects = {
        "too few members": rotations[:-1],
        # a group again, with identity 1: only the image-of-0 order is wrong
        "out of image-of-0 order": rotations[-1:] + rotations[:-1],
        # at order 130 the rows of a loop (identity 0, Latin): Light's test
        # on generators catches them at construction
        "not closed": ([(0, 1, 2), (1, 2, 0), (2, 1, 0)] if n == 3
                       else [tuple(row) for row in loop130().tolist()]),
    }
    graph = circulant(n, (1,), directed=True)       # a directed cycle
    for members in defects.values():
        # the input is the rotations, which pass every guard; only the selection is wrong
        monkeypatch.setattr(symmetry, "_select", lambda *_: members)
        with pytest.raises((ValueError, GroupGraphsError)):
            symmetry.find_regular_subgroup([Permutation(p) for p in rotations], n)
        with pytest.raises((ValueError, GroupGraphsError)):
            symmetry.is_cayley(graph, bound=n)
    monkeypatch.setattr(symmetry, "_select", lambda *_: rotations)
    assert symmetry.is_cayley(graph, bound=n).reconstruct() == graph


def test_perfect_matching_in_natural_labelling_is_cayley() -> None:
    matching = SimpleGraph.from_edges(12, [(2 * i, 2 * i + 1) for i in range(6)])
    witness = symmetry.is_cayley(matching)
    assert witness
    assert witness.reconstruct() == matching
    # is_cayley decides it on one component; the whole-graph stages still work:
    # 46,080 automorphisms, of which 10,851 are semiregular candidates
    auts = symmetry.automorphisms(matching)
    assert len(auts) == 46080
    assert symmetry.find_regular_subgroup(auts, 12) is not None


def test_complete_graph_fast_path_avoids_enumeration() -> None:
    # K_13 has 13! automorphisms; only the fast path makes this feasible.
    witness = symmetry.is_cayley(SimpleGraph.complete(13))
    assert witness
    assert witness.group.order == 13
    assert witness.reconstruct() == SimpleGraph.complete(13)


def test_edgeless_fast_path() -> None:
    witness = symmetry.is_cayley(SimpleGraph.edgeless(6))
    assert witness
    assert len(witness.connection) == 0
    assert witness.reconstruct() == SimpleGraph.edgeless(6)


def disjoint_cliques(t: int, k: int) -> SimpleGraph:
    return SimpleGraph.from_edges(t * k, [(i * k + a, i * k + b) for i in range(t)
                                          for a in range(k) for b in range(a + 1, k)])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_disjoint_cliques_and_complements_are_decided_on_one_component(k) -> None:
    # 7K2 took about 42 s with the whole-graph search; 8K2 did not finish
    for t in range(2, 64 // k + 1):
        for graph in (disjoint_cliques(t, k), complement(disjoint_cliques(t, k))):
            witness = symmetry.is_cayley(graph)
            assert witness
            assert witness.group.order == t * k
            assert witness.reconstruct() == graph
            assert symmetry.is_vertex_transitive(graph)


def test_lifted_witness_group_is_the_component_group_times_z_t() -> None:
    witness = symmetry.is_cayley(relabel(disjoint_cliques(3, 2), (0, 3, 1, 4, 2, 5)))
    assert witness
    assert witness.group.is_cyclic()      # Z2 x Z3; the whole-graph search found S3
    assert witness.group.identity == 0


@pytest.mark.parametrize("graph", [complement(disjoint_cliques(4, 2)), disjoint_cliques(3, 3)],
                         ids=["co-4K2", "3K3"])
def test_witness_is_built_once_per_decision(graph, monkeypatch) -> None:
    built = []
    witness = symmetry._witness

    def counting(*args):
        built.append(args[1].order)
        return witness(*args)

    monkeypatch.setattr(symmetry, "_witness", counting)
    assert symmetry.is_cayley(graph).reconstruct() == graph
    assert built == [graph.order]


def test_lifted_witness_groups_of_disjoint_cliques_are_pinned() -> None:
    # sha256 over the witness group tables (little-endian int64) of the
    # inputs of the test above, in its order; recorded while the lift still
    # built cyclic(t) and the product group
    digest = hashlib.sha256()
    for k in (2, 3, 4):
        for t in range(2, 64 // k + 1):
            for graph in (disjoint_cliques(t, k), complement(disjoint_cliques(t, k))):
                digest.update(symmetry.is_cayley(graph).group.table.astype("<i8").tobytes())
    assert digest.hexdigest() == (
        "583085db14f8a8401848f551e2d6904020d7c3b62f5e1fbc34e553c5639d1dbb")


def test_lifted_witness_groups_pass_the_checks() -> None:
    # the lift builds K x Z_t relabelled, and skips the checks a table from outside gets
    lifted = [disjoint_union(cycle_graph(4), cycle_graph(4)), complement(disjoint_cliques(2, 3)),
              relabel(disjoint_cliques(3, 2), (0, 3, 1, 4, 2, 5))]
    lifted += [build(disjoint_cliques(t, k)) for k in (2, 3, 4) for t in range(2, 64 // k + 1)
               for build in (lambda graph: graph, complement)]
    for graph in lifted:
        group = symmetry.is_cayley(graph).group
        checked = groups.FiniteGroup(group.table)
        assert checked == group
        assert (checked.identity, checked._inverses) == (group.identity, group._inverses)


@pytest.mark.parametrize("graph, groups_built, perms_built", [
    (disjoint_cliques(3, 3), 2, 9),      # K3's cyclic group and the lift
    (cycle_graph(5), 1, 5),              # the witness group and its translations
    (petersen_graph(), 0, 0),
    (SimpleGraph.complete(7), 1, 7),     # cyclic(7) and its translations
], ids=["3K3", "C5", "Petersen", "K7"])
def test_is_cayley_builds_only_what_it_returns(graph, groups_built, perms_built,
                                               monkeypatch) -> None:
    built = {"groups": 0, "perms": 0, "graphs": 0}
    group_init, perm_init, unchecked = (groups.FiniteGroup.__init__, Permutation.__init__,
                                        Permutation._unchecked)
    unchecked_list = Permutation._unchecked_list
    built_group = groups.FiniteGroup._built
    graph_init = graphs._BitRows.__init__

    def counting_group_init(self, *args, **kwargs):
        built["groups"] += 1
        group_init(self, *args, **kwargs)

    def counting_built_group(cls, *args, **kwargs):     # the constructors' tables
        built["groups"] += 1
        return built_group(*args, **kwargs)

    def counting_perm_init(self, images):
        built["perms"] += 1
        perm_init(self, images)

    def counting_unchecked(cls, images):
        built["perms"] += 1
        return unchecked(images)

    def counting_unchecked_list(cls, leaves):
        out = unchecked_list(leaves)
        built["perms"] += len(out)
        return out

    def counting_graph_init(self, rows):    # SimpleGraph's and Digraph's
        built["graphs"] += 1
        graph_init(self, rows)

    monkeypatch.setattr(groups.FiniteGroup, "__init__", counting_group_init)
    monkeypatch.setattr(groups.FiniteGroup, "_built", classmethod(counting_built_group))
    monkeypatch.setattr(Permutation, "__init__", counting_perm_init)
    monkeypatch.setattr(Permutation, "_unchecked", classmethod(counting_unchecked))
    monkeypatch.setattr(Permutation, "_unchecked_list", classmethod(counting_unchecked_list))
    monkeypatch.setattr(graphs._BitRows, "__init__", counting_graph_init)
    assert symmetry.is_vertex_transitive(graph)
    assert built == {"groups": 0, "perms": 0, "graphs": 0}
    symmetry.is_cayley(graph)
    assert built == {"groups": groups_built, "perms": perms_built, "graphs": 0}


def test_bound_applies_to_the_union_of_two_components(monkeypatch) -> None:
    with pytest.raises(SearchBoundExceeded) as raised:
        symmetry.is_cayley(disjoint_union(cycle_graph(7), cycle_graph(7)))
    assert raised.value.order == 14
    assert raised.value.bound == 12
    witness = symmetry.is_cayley(disjoint_union(cycle_graph(7), cycle_graph(7)), bound=14)
    assert witness
    assert witness.reconstruct() == disjoint_union(cycle_graph(7), cycle_graph(7))
    with pytest.raises(SearchBoundExceeded) as raised:
        symmetry.is_vertex_transitive(disjoint_union(cycle_graph(9), cycle_graph(9)))
    assert (raised.value.order, raised.value.bound) == (18, 16)
    assert symmetry.is_vertex_transitive(disjoint_union(cycle_graph(9), cycle_graph(9)), bound=18)

    def no_search(*args, **kwargs):
        raise AssertionError("components of two orders reached the search")

    # components of two orders need no search at all
    monkeypatch.setattr(symmetry, "_Search", no_search)
    unequal = disjoint_union(cycle_graph(13), cycle_graph(14))
    assert symmetry.is_cayley(unequal).reason is NotCayleyReason.NOT_VERTEX_TRANSITIVE
    assert not symmetry.is_vertex_transitive(unequal)


def test_is_cayley_bound() -> None:
    with pytest.raises(SearchBoundExceeded) as raised:
        symmetry.is_cayley(cycle_graph(13))
    assert (raised.value.order, raised.value.bound) == (13, 12)
    witness = symmetry.is_cayley(cycle_graph(13), bound=13)
    assert witness
    assert witness.reconstruct() == cycle_graph(13)


def test_directed_witness_round_trip() -> None:
    z5 = groups.cyclic(5)
    directed_cycle = cayley.directed_cayley(z5, ConnectionSet(5, (1,)))
    witness = symmetry.is_cayley(directed_cycle)
    assert witness
    assert witness.directed
    assert witness.reconstruct() == directed_cycle


def test_witness_vertex_map_semantics() -> None:
    witness = symmetry.is_cayley(cycle_graph(6))
    assert witness
    for v, sigma in enumerate(witness.vertex_map):
        assert sigma(0) == v
    table = witness.group.table
    vm = witness.vertex_map
    for g in range(6):
        for h in range(6):
            assert (vm[g] * vm[h]).images == vm[int(table[g, h])].images


def test_witness_json_dict_shape() -> None:
    witness = symmetry.is_cayley(cycle_graph(4))
    assert witness
    payload = witness.to_json_dict()
    assert payload["cayley"] is True
    assert payload["directed"] is False
    assert payload["group_order"] == 4
    assert len(payload["group_table"]) == 4
    assert payload["connection_set"] == sorted(witness.connection)
    assert len(payload["vertex_map"]) == 4


def test_cayley_graphs_of_catalog_groups_are_recognized(full_catalog) -> None:
    for group in full_catalog:
        if group.order > 12:
            continue
        non_identity = [g for g in range(group.order) if g != group.identity]
        involutions = [g for g in non_identity if group.inverse(g) == g]
        members: tuple[int, ...]
        if involutions:
            members = (involutions[0],)
        elif non_identity:
            g = non_identity[0]
            members = tuple(sorted({g, group.inverse(g)}))
        else:
            members = ()
        graph = cayley.undirected_cayley(group, ConnectionSet(group.order, members))
        witness = symmetry.is_cayley(graph)
        assert witness, group.name
        assert witness.reconstruct() == graph


# -- relabelling invariance ---------------------------------------------------

SMALL_GROUPS = catalog(10)


@st.composite
def cayley_graphs(draw, max_order=8, directed=None):
    group = draw(st.sampled_from([g for g in SMALL_GROUPS if g.order <= max_order]))
    chosen = draw(st.lists(st.booleans(), min_size=group.order, max_size=group.order))
    members = {g for g, keep in enumerate(chosen) if keep} - {group.identity}
    if directed is None:
        directed = draw(st.booleans())
    if directed:
        return cayley.directed_cayley(group, ConnectionSet(group.order, members))
    members |= {group.inverse(m) for m in members}
    return cayley.undirected_cayley(group, ConnectionSet(group.order, members))


@st.composite
def disjoint_unions(draw):
    """Two Cayley graphs side by side: regular, and often not vertex-transitive."""
    directed = draw(st.booleans())
    return disjoint_union(draw(cayley_graphs(4, directed)), draw(cayley_graphs(4, directed)))


@st.composite
def random_graphs(draw, max_order=8):
    n = draw(st.integers(1, max_order))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    arcs = [pair for pair, keep in zip(pairs, chosen) if keep]
    return Digraph.from_arcs(n, arcs) if directed else SimpleGraph.from_edges(n, arcs)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(random_graphs(6))
def test_automorphism_search_matches_brute_force(graph) -> None:
    expected = brute_force_automorphisms(graph)
    assert [p.images for p in symmetry.automorphisms(graph)] == expected
    search = symmetry._Search(graph.rows, graph.order)
    for v in range(graph.order):
        first = [p for p in expected if p[0] == v][:1]
        assert list(islice(search.leaves(v), 1)) == first


def assert_search_matches_reference(graph) -> list[tuple[int, ...]]:
    """The search's listing, once its list and first leaves match the reference's."""
    search = symmetry._Search(graph.rows, graph.order)
    listing = list(search.leaves())
    assert listing == reference_search(search)
    for v in range(graph.order):
        assert list(islice(search.leaves(v), 1)) == reference_search(search, v)
    return listing


SMALLEST_RELATIONS = [SimpleGraph([0]), Digraph([0]), SimpleGraph([0, 0]), SimpleGraph([2, 1]),
                      Digraph([0, 0]), Digraph([2, 0]), Digraph([0, 1]), Digraph([2, 1])]


@pytest.mark.parametrize("graph", SMALLEST_RELATIONS, ids=repr)
def test_search_of_one_or_two_vertices_matches_the_reference_kernel(graph) -> None:
    # the last vertex is placed inline at depth n - 2, and depth 0 has no later vertex when n = 1
    assert assert_search_matches_reference(graph) == brute_force_automorphisms(graph)


def degree_class_bound(graph) -> int:
    """prod |class|! over the (out, in)-degree classes: at least |Aut|."""
    n = graph.order
    keys = [(graph.rows[v].bit_count(), sum(row >> v & 1 for row in graph.rows)) for v in range(n)]
    return math.prod(math.factorial(keys.count(key)) for key in set(keys))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(random_graphs(10))
def test_automorphism_search_matches_the_reference_kernel(graph) -> None:
    # the reference copies n masks per node: keep the listings short
    assume(degree_class_bound(graph) <= 5000)
    assert_search_matches_reference(graph)


def complete_bipartite(a: int, b: int) -> SimpleGraph:
    return SimpleGraph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def cliques(t: int, m: int) -> SimpleGraph:
    return disjoint_union(*[SimpleGraph.complete(m)] * t)


def shuffled(graph):
    n = graph.order
    return relabel(graph, random.Random(n).sample(range(n), n))


# the enumerate benchmark's families, where most nodes of the search lead to a leaf
ENUMERATE_FAMILIES = {
    "K8": (SimpleGraph.complete(8), 40320),
    "K1,8": (complete_bipartite(1, 8), 40320),
    "K5,5": (complete_bipartite(5, 5), 28800),
    "5K2": (cliques(5, 2), 3840),
    "co-5K2": (complement(cliques(5, 2)), 3840),
    "3K3": (cliques(3, 3), 1296),
    "K3,6": (complete_bipartite(3, 6), 4320),
    "Q4": (cayley.undirected_cayley(groups.parse_group_spec("Z2xZ2xZ2xZ2"),
                                    ConnectionSet(16, (1, 2, 4, 8))), 384),
    "Petersen": (petersen_graph(), 120),
    "C16": (cycle_graph(16), 32),
    "Cay(Q8,{1,2,3})": (cayley.undirected_cayley(groups.parse_group_spec("Q8"),
                                                 ConnectionSet(8, (1, 2, 3))), 1152),
}


@pytest.mark.parametrize("name", ENUMERATE_FAMILIES)
def test_enumerate_families_match_the_reference_kernel(name) -> None:
    graph, count = ENUMERATE_FAMILIES[name]
    assert len(assert_search_matches_reference(shuffled(graph))) == count


def star(n: int, centre: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n + 1, [(centre, v) for v in range(n + 1) if v != centre])


def tournament_tail() -> Digraph:
    """K3 on 0..2, then a transitive tournament on 3..6: codes 1 and 2 at the end."""
    return Digraph.from_arcs(7, [(u, v) for u in range(3) for v in range(3) if u != v]
                             + [(u, v) for u in range(3, 7) for v in range(u + 1, 7)])


def rotational_tournament_tail() -> Digraph:
    """A source 0 -> 1..5 and the rotational tournament i -> i + 1, i + 2 (mod 5)
    on 1..5: below 0 -> 0 the five masks are one M of size 5, but joined by
    codes 1 and 2, so most bijections onto M are not automorphisms."""
    return Digraph.from_arcs(6, [(0, v) for v in range(1, 6)]
                             + [(1 + i, 1 + (i + d) % 5) for i in range(5) for d in (1, 2)])


# the cases a tail can take (every unplaced vertex with one mask, joined by one
# symmetric code), and near misses: codes 1 and 2, or a centre placed late
TAIL_CASES = {
    **{f"K{n}": SimpleGraph.complete(n) for n in range(4, 9)},
    **{f"edgeless{n}": SimpleGraph([0] * n) for n in range(4, 9)},
    **{f"K1,6 centre {c}": star(6, c) for c in range(7)},
    "pendant, K6": SimpleGraph.from_edges(7, [(0, 1)] + list(combinations(range(1, 7), 2))),
    "K6, pendant": SimpleGraph.from_edges(7, [(5, 6)] + list(combinations(range(6), 2))),
    "2K4 relabelled": shuffled(cliques(2, 4)),
    "K4,4 relabelled": shuffled(complete_bipartite(4, 4)),
    "K4,4": complete_bipartite(4, 4),
    "complete digraph": Digraph.from_arcs(6, [(u, v) for u in range(6) for v in range(6) if u != v]),
    "tournament tail": tournament_tail(),
    "rotational tournament tail": rotational_tournament_tail(),
}


@pytest.mark.parametrize("name", TAIL_CASES)
def test_tails_match_the_reference_kernel(name) -> None:
    graph = TAIL_CASES[name]
    assert_search_matches_reference(graph)
    search = symmetry._Search(graph.rows, graph.order)
    moving = reference_search(search, moving=True)
    for v in range(graph.order):
        assert list(search.leaves(v, moving=True)) == [p for p in moving if p[0] == v]


def test_tails_are_taken_only_on_symmetric_codes(monkeypatch) -> None:
    tails = []

    def counting(images):
        tails.append(len(images))
        return permutations(images)

    monkeypatch.setattr(symmetry, "permutations", counting)
    assert len(symmetry.automorphisms(SimpleGraph.complete(8))) == 40320
    # depth 0 takes no tail; each of its 8 tries leaves a tail of 7 vertices
    assert tails == [7] * 8
    tails.clear()
    for graph in (tournament_tail(), rotational_tournament_tail()):
        search = symmetry._Search(graph.rows, graph.order)
        assert search.tail_from == graph.order
        assert len(list(search.leaves())) == len(brute_force_automorphisms(graph))
    assert tails == []


def test_vertex_transitivity_skips_targets_already_reached(monkeypatch) -> None:
    graph = circulant(64, (1, 5, 9, 55, 59, 63))
    built, searches = [], []
    init, leaves = symmetry._Search.__init__, symmetry._Search.leaves

    def counting_init(self, rows, bound):
        built.append(len(rows))
        init(self, rows, bound)

    def counting(self, target=None, moving=False):
        searches.append(target)
        return leaves(self, target, moving)

    monkeypatch.setattr(symmetry._Search, "__init__", counting_init)
    monkeypatch.setattr(symmetry._Search, "leaves", counting)
    assert symmetry.is_vertex_transitive(graph, bound=64)
    # the reflections x -> 1 - x and x -> 2 - x, found for targets 1 and 2,
    # generate every rotation, so 61 searches are skipped
    assert searches == [1, 2]
    assert built == [64]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(random_graphs(6))
def test_vertex_transitivity_matches_brute_force(graph) -> None:
    images_of_0 = {p[0] for p in brute_force_automorphisms(graph)}
    assert symmetry.is_vertex_transitive(graph) == (len(images_of_0) == graph.order)


def assert_relabelling_invariant(graph, sigma) -> None:
    image = relabel(graph, sigma)
    verdict, image_verdict = symmetry.is_cayley(graph), symmetry.is_cayley(image)
    assert bool(verdict) == bool(image_verdict)
    if verdict:
        assert verdict.reconstruct() == graph
        assert image_verdict.reconstruct() == image
    else:
        assert verdict.reason is image_verdict.reason
    transitive = symmetry.is_vertex_transitive(graph)
    assert transitive == symmetry.is_vertex_transitive(image)
    if graph.is_complete() or not any(graph.rows):
        # every relabelling fixes these, and their n! automorphisms are slow to list
        assert image == graph
    else:
        auts = symmetry.automorphisms(graph)
        assert len(auts) == len(symmetry.automorphisms(image))
        assert transitive == (len({p.images[0] for p in auts}) == graph.order)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.one_of(cayley_graphs(), disjoint_unions(), random_graphs()).flatmap(
    lambda g: st.tuples(st.just(g), st.permutations(range(g.order)))))
def test_relabelling_never_changes_a_verdict(case) -> None:
    graph, sigma = case
    assert_relabelling_invariant(graph, sigma)


# -- disconnected and co-disconnected graphs ------------------------------------

def circulant(n: int, steps, directed: bool = False):
    build = cayley.directed_cayley if directed else cayley.undirected_cayley
    return build(groups.cyclic(n), ConnectionSet(n, steps))


# connected components of one order and one degree that are not isomorphic
UNEQUAL_COMPONENTS = [
    (circulant(6, (1, 3, 5)), circulant(6, (2, 3, 4))),                       # K3,3, prism
    (cayley.undirected_cayley(groups.parse_group_spec("Z2xZ2xZ2"), ConnectionSet(8, (1, 2, 4))),
     circulant(8, (1, 4, 7))),                                                 # Q3, Moebius ladder
    (circulant(7, (2, 3, 4, 5)), complement(disjoint_union(cycle_graph(3), cycle_graph(4)))),
    (circulant(8, (1, 4, 7)),                                                  # two K4 - e, joined
     SimpleGraph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 5), (4, 6),
                                (4, 7), (5, 6), (5, 7), (2, 6), (3, 7)])),
    (circulant(4, (1, 2), directed=True), circulant(4, (1, 3), directed=True)),
]


def unreduced_verdict(graph):
    """is_cayley's answer from the whole automorphism list, with no reduction."""
    n = graph.order
    if graph.is_complete() or not any(graph.rows):
        return True, None   # the uniform fast path; K_n has n! automorphisms to list
    auts = symmetry.automorphisms(graph, bound=n)
    if len({p.images[0] for p in auts}) != n:
        return False, NotCayleyReason.NOT_VERTEX_TRANSITIVE
    if symmetry.find_regular_subgroup(auts, n) is None:
        return False, NotCayleyReason.NO_REGULAR_SUBGROUP
    return True, None


@st.composite
def copies(draw):
    """t = 2-4 relabelled copies of one Cayley graph or digraph, shuffled, or the complement."""
    t = draw(st.integers(2, 4))
    base = draw(cayley_graphs(10 // t))
    union = disjoint_union(*(relabel(base, draw(st.permutations(range(base.order))))
                             for _ in range(t)))
    if draw(st.booleans()):
        union = complement(union)
    return relabel(union, draw(st.permutations(range(union.order))))


@st.composite
def unequal_unions(draw):
    """Two components from UNEQUAL_COMPONENTS in either order, shuffled, or the complement."""
    parts = draw(st.sampled_from(UNEQUAL_COMPONENTS))
    union = disjoint_union(*(parts if draw(st.booleans()) else reversed(parts)))
    if draw(st.booleans()):
        union = complement(union)
    return relabel(union, draw(st.permutations(range(union.order))))


def test_unequal_components_are_connected_and_not_isomorphic() -> None:
    for a, b in UNEQUAL_COMPONENTS:
        g, h = to_networkx(a), to_networkx(b)
        assert g.number_of_nodes() == h.number_of_nodes()
        assert len({d for _, d in g.degree()} | {d for _, d in h.degree()}) == 1
        assert nx.is_weakly_connected(g) if g.is_directed() else nx.is_connected(g)
        assert nx.is_weakly_connected(h) if h.is_directed() else nx.is_connected(h)
        assert not nx.is_isomorphic(g, h)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.one_of(copies(), unequal_unions()))
def test_disconnected_verdicts_match_the_unreduced_pipeline(graph) -> None:
    verdict = symmetry.is_cayley(graph, bound=graph.order)
    expected = unreduced_verdict(graph)
    assert (bool(verdict), None if verdict else verdict.reason) == expected
    if verdict:
        assert verdict.reconstruct() == graph
    transitive = expected[1] is not NotCayleyReason.NOT_VERTEX_TRANSITIVE
    assert symmetry.is_vertex_transitive(graph, bound=graph.order) == transitive


@pytest.mark.parametrize("sigma", [
    (9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
    (5, 6, 7, 8, 9, 0, 1, 2, 3, 4),
    (3, 7, 0, 9, 1, 5, 8, 2, 6, 4),
])
def test_petersen_relabelled_has_no_regular_subgroup(sigma) -> None:
    pet = petersen_graph()
    assert symmetry.is_cayley(relabel(pet, sigma)).reason is NotCayleyReason.NO_REGULAR_SUBGROUP
    assert_relabelling_invariant(pet, sigma)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(cayley_graphs(10, directed=False), st.data())
def test_semiregular_filter_never_changes_the_kernel_result(graph, data) -> None:
    assume(not graph.is_complete() and any(graph.rows))
    images = sorted(p.images for p in symmetry.automorphisms(graph))
    # the unfiltered search is exponential on lists that are not closed
    assume(len(images) <= 5000)
    n = graph.order
    drop = data.draw(st.integers(0, len(images) - 1))
    for perms in (images, images[:drop] + images[drop + 1:]):
        expected = unfiltered_regular_subgroup(n, perms)
        if expected is None or set(expected) <= set(perms):
            found = symmetry.find_regular_subgroup(Permutation._unchecked_list(perms), n)
            assert (None if found is None else [p.images for p in found]) == expected
            continue
        # completed through products the list lacks: the same selection, then rejected
        buckets = [[p for p in perms if p[0] == v] for v in range(n)]
        assert symmetry._regular_group(buckets).table.tolist() == [list(p) for p in expected]
        with pytest.raises(ValueError, match="outside the input list"):
            symmetry.find_regular_subgroup(Permutation._unchecked_list(perms), n)


# -- candidates drawn lazily from targeted searches --------------------------------

@st.composite
def relabelled_cayley_graphs(draw):
    graph = draw(cayley_graphs(9))
    return relabel(graph, draw(st.permutations(range(graph.order))))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.one_of(relabelled_cayley_graphs(), random_graphs(9)))
def test_lazy_draws_are_the_moving_buckets_of_the_listing(graph) -> None:
    # the listing of K9 has 9! leaves
    assume(degree_class_bound(graph) <= 5000)
    n = graph.order
    search = symmetry._Search(graph.rows, n)
    listing = list(search.leaves())
    assert listing == sorted(listing)
    for v in range(n):
        moving = [p for p in listing if p[0] == v and all(p[x] != x for x in range(n))]
        assert list(search.leaves(v, moving=True)) == moving
    drawn = symmetry._regular_group([search.leaves(v, moving=True) for v in range(n)])
    listed = symmetry.find_regular_subgroup(Permutation._unchecked_list(listing), n)
    assert (None if drawn is None else drawn.table.tolist()) == (
        None if listed is None else [list(p.images) for p in listed])


def hypercube(d: int) -> SimpleGraph:
    group = groups.parse_group_spec("x".join(["Z2"] * d))
    return cayley.undirected_cayley(group, ConnectionSet(2 ** d, [1 << i for i in range(d)]))


FIRST_SUBGROUP_CASES = {
    "Q4": (hypercube(4), 16),
    "Q5": (hypercube(5), 32),
    "C16": (cycle_graph(16), 16),
    "Cay(Z12,{1,5,7,11})": (circulant(12, (1, 5, 7, 11)), 12),
    "6K2": (SimpleGraph.from_edges(12, [(2 * i, 2 * i + 1) for i in range(6)]), 12),
}


@pytest.mark.parametrize("name", FIRST_SUBGROUP_CASES)
def test_lazy_draws_select_the_listings_first_subgroup(name) -> None:
    graph, bound = FIRST_SUBGROUP_CASES[name]
    n = graph.order
    listed = [list(p.images) for p in
              symmetry.find_regular_subgroup(symmetry.automorphisms(graph, bound), n)]
    search = symmetry._Search(graph.rows, bound)
    drawn = symmetry._regular_group([search.leaves(v, moving=True) for v in range(n)])
    assert drawn.table.tolist() == listed
    if len(symmetry._components(graph.rows)) == 1:
        # stage 5 searches the graph itself; 6K2 is decided on one K2 and lifted
        assert symmetry.is_cayley(graph, bound).group.table.tolist() == listed


# -- the collector: paused for a listing, nothing left for it after a decision ----

@pytest.fixture
def collector():
    """Restores the cyclic collector's state, whatever the test leaves it in."""
    enabled = gc.isenabled()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
        else:
            gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_listing_restores_the_collector_as_it_found_it(enabled, collector) -> None:
    (gc.enable if enabled else gc.disable)()
    assert len(symmetry.automorphisms(SimpleGraph.complete(6))) == 720
    assert gc.isenabled() is enabled


def test_listing_that_raises_restores_the_collector(monkeypatch, collector) -> None:
    paused = []

    def failing_leaves(self, target=None, moving=False):
        for images in islice(permutations(range(self.n)), 3):
            paused.append(gc.isenabled())
            yield images
        raise RuntimeError("search failed")

    monkeypatch.setattr(symmetry._Search, "leaves", failing_leaves)
    gc.enable()
    with pytest.raises(RuntimeError, match="search failed"):
        symmetry.automorphisms(SimpleGraph.complete(5))
    assert paused == [False] * 3
    assert gc.isenabled()


def test_bound_exceeded_leaves_the_collector_untouched(monkeypatch) -> None:
    calls = []
    for name in ("isenabled", "disable", "enable"):
        monkeypatch.setattr(symmetry.gc, name, lambda name=name: calls.append(name))
    with pytest.raises(SearchBoundExceeded):
        symmetry.automorphisms(cycle_graph(17))
    assert calls == []


@pytest.mark.parametrize("graph, bound", [(SimpleGraph.complete(8), 8),
                                          (complete_bipartite(5, 5), 10),
                                          (cycle_graph(16), 16)], ids=["K8", "K5,5", "C16"])
def test_listing_wraps_each_leaf_of_the_search(graph, bound) -> None:
    listing = symmetry.automorphisms(graph, bound)
    expected = [Permutation._unchecked(p) for p in symmetry._Search(graph.rows, bound).leaves()]
    assert listing == expected
    assert {type(p) for p in listing} == {Permutation}


def test_decisions_leave_no_cycle_for_the_collector(collector) -> None:
    # the drawn searches, their filters and caches are freed when is_cayley returns
    graph = circulant(10, (1, 3, 7, 9))
    gc.collect()
    gc.disable()
    assert symmetry.is_cayley(graph)
    assert gc.collect() == 0
    verdict = symmetry.is_cayley(petersen_graph())
    assert verdict.reason is NotCayleyReason.NO_REGULAR_SUBGROUP
    assert gc.collect() == 0
    assert symmetry.find_regular_subgroup(symmetry.automorphisms(graph), 10) is not None
    assert gc.collect() == 0
