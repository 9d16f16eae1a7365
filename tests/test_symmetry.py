"""Automorphism search, vertex-transitivity, and Cayley recognition."""

from __future__ import annotations

import hashlib
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import groupgraphs
from groupgraphs import cayley, groups, powergraph, symmetry
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
        # at order 130 the rows of a loop (identity 0, Latin): construction
        # defers associativity, so only the explicit check can catch them
        "not closed": ([(0, 1, 2), (1, 2, 0), (2, 1, 0)] if n == 3
                       else [tuple(row) for row in loop130().tolist()]),
    }
    graph = circulant(n, (1,), directed=True)       # a directed cycle
    for members in defects.values():
        monkeypatch.setattr(symmetry, "_search_regular_subgroup", lambda *_: members)
        with pytest.raises((ValueError, GroupGraphsError)):
            symmetry.find_regular_subgroup([Permutation(p) for p in members], n)
        with pytest.raises((ValueError, GroupGraphsError)):
            symmetry.is_cayley(graph, bound=n)
    monkeypatch.setattr(symmetry, "_search_regular_subgroup", lambda *_: rotations)
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


@pytest.mark.parametrize("graph, groups_built, perms_built", [
    (disjoint_cliques(3, 3), 2, 9),      # K3's cyclic group and the lift
    (cycle_graph(5), 1, 5),              # the witness group and its translations
    (petersen_graph(), 0, 0),
    (SimpleGraph.complete(7), 1, 7),     # cyclic(7) and its translations
], ids=["3K3", "C5", "Petersen", "K7"])
def test_is_cayley_builds_only_what_it_returns(graph, groups_built, perms_built,
                                               monkeypatch) -> None:
    built = {"groups": 0, "perms": 0}
    group_init, perm_init, unchecked = (groups.FiniteGroup.__init__, Permutation.__init__,
                                        Permutation._unchecked)

    def counting_group_init(self, *args, **kwargs):
        built["groups"] += 1
        group_init(self, *args, **kwargs)

    def counting_perm_init(self, images):
        built["perms"] += 1
        perm_init(self, images)

    def counting_unchecked(cls, images):
        built["perms"] += 1
        return unchecked(images)

    monkeypatch.setattr(groups.FiniteGroup, "__init__", counting_group_init)
    monkeypatch.setattr(Permutation, "__init__", counting_perm_init)
    monkeypatch.setattr(Permutation, "_unchecked", classmethod(counting_unchecked))
    assert symmetry.is_vertex_transitive(graph)
    assert built == {"groups": 0, "perms": 0}
    symmetry.is_cayley(graph)
    assert built == {"groups": groups_built, "perms": perms_built}


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
        assert search(v) == first


def test_vertex_transitivity_skips_targets_already_reached(monkeypatch) -> None:
    graph = circulant(64, (1, 5, 9, 55, 59, 63))
    built, searches = [], []
    init, search = symmetry._Search.__init__, symmetry._Search.__call__

    def counting_init(self, rows, bound):
        built.append(len(rows))
        init(self, rows, bound)

    def counting(self, target=None):
        searches.append(target)
        return search(self, target)

    monkeypatch.setattr(symmetry._Search, "__init__", counting_init)
    monkeypatch.setattr(symmetry._Search, "__call__", counting)
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
    assert symmetry._search_regular_subgroup(n, images) == unfiltered_regular_subgroup(n, images)
    drop = data.draw(st.integers(0, len(images) - 1))
    partial = images[:drop] + images[drop + 1:]
    assert symmetry._search_regular_subgroup(n, partial) == unfiltered_regular_subgroup(n, partial)
