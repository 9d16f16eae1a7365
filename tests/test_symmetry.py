"""Automorphism search, vertex-transitivity, and Cayley recognition."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupgraphs
from groupgraphs import cayley, groups, powergraph, symmetry
from groupgraphs.catalog import catalog
from groupgraphs.cayley import ConnectionSet
from groupgraphs.errors import SearchBoundExceeded
from groupgraphs.graphs import Digraph, SimpleGraph
from groupgraphs.perms import Permutation
from groupgraphs.symmetry import NotCayleyReason
from tests.conftest import brute_force_automorphisms, petersen_graph


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
    with pytest.raises(SearchBoundExceeded):
        symmetry.automorphisms(path)
    assert len(symmetry.automorphisms(path, bound=17)) == 2


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


def test_check_regular_rejects_each_defect() -> None:
    rotations = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    with pytest.raises(ValueError, match="wrong size"):
        symmetry._check_regular(rotations[:2], set(rotations), 3)
    with pytest.raises(ValueError, match="misses a vertex"):
        symmetry._check_regular(rotations[::-1], set(rotations), 3)
    not_closed = [(0, 1, 2), (1, 2, 0), (2, 1, 0)]
    with pytest.raises(ValueError, match="not closed"):
        symmetry._check_regular(not_closed, set(not_closed), 3)
    symmetry._check_regular(rotations, set(rotations), 3)


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


def test_is_cayley_bound() -> None:
    with pytest.raises(SearchBoundExceeded):
        symmetry.is_cayley(cycle_graph(13))
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

SMALL_GROUPS = catalog(8)


def relabel(graph, sigma):
    """The same graph with vertex v renamed sigma[v]."""
    n = graph.order
    matrix = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            matrix[sigma[u]][sigma[v]] = (graph.rows[u] >> v) & 1
    return type(graph).from_matrix(matrix)


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
    parts = [draw(cayley_graphs(4, directed)), draw(cayley_graphs(4, directed))]
    n = sum(part.order for part in parts)
    matrix = [[0] * n for _ in range(n)]
    offset = 0
    for part in parts:
        for u in range(part.order):
            for v in range(part.order):
                matrix[offset + u][offset + v] = (part.rows[u] >> v) & 1
        offset += part.order
    return type(parts[0]).from_matrix(matrix)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 8))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    arcs = [pair for pair, keep in zip(pairs, chosen) if keep]
    return Digraph.from_arcs(n, arcs) if directed else SimpleGraph.from_edges(n, arcs)


def assert_relabelling_invariant(graph, sigma) -> None:
    image = relabel(graph, sigma)
    verdict, image_verdict = symmetry.is_cayley(graph), symmetry.is_cayley(image)
    assert bool(verdict) == bool(image_verdict)
    if verdict:
        assert verdict.reconstruct() == graph
        assert image_verdict.reconstruct() == image
    else:
        assert verdict.reason is image_verdict.reason
    assert symmetry.is_vertex_transitive(graph) == symmetry.is_vertex_transitive(image)
    if graph.is_complete() or not any(graph.rows):
        # every relabelling fixes these, and their n! automorphisms are slow to list
        assert image == graph
    else:
        assert len(symmetry.automorphisms(graph)) == len(symmetry.automorphisms(image))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.one_of(cayley_graphs(), disjoint_unions(), random_graphs()).flatmap(
    lambda g: st.tuples(st.just(g), st.permutations(range(g.order)))))
def test_relabelling_never_changes_a_verdict(case) -> None:
    graph, sigma = case
    assert_relabelling_invariant(graph, sigma)


@pytest.mark.parametrize("sigma", [
    (9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
    (5, 6, 7, 8, 9, 0, 1, 2, 3, 4),
    (3, 7, 0, 9, 1, 5, 8, 2, 6, 4),
])
def test_petersen_relabelled_has_no_regular_subgroup(sigma) -> None:
    pet = petersen_graph()
    assert symmetry.is_cayley(relabel(pet, sigma)).reason is NotCayleyReason.NO_REGULAR_SUBGROUP
    assert_relabelling_invariant(pet, sigma)
