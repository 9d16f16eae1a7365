"""Directed and undirected power graph construction."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from groupgraphs import groups, powergraph
from groupgraphs.catalog import CATALOG_SPECS
from tests.conftest import naive_power_adjacency, naive_power_rows

_ORDERS = {spec: groups.parse_group_spec(spec).order for spec in CATALOG_SPECS}
# the catalog, and its direct products of two nontrivial factors up to order 64
RELABEL_SPECS = [*CATALOG_SPECS, *(f"{a}x{b}" for a in CATALOG_SPECS[1:] for b in CATALOG_SPECS[1:]
                                   if _ORDERS[a] * _ORDERS[b] <= 64)]


def test_trivial_group_power_graphs() -> None:
    z1 = groups.cyclic(1)
    dpg = powergraph.directed_power_graph(z1)
    assert dpg.order == 1
    assert dpg.arc_count() == 0
    pg = powergraph.undirected_power_graph(z1)
    assert pg.order == 1
    assert pg.edge_count() == 0


def test_dpg_z4_arcs() -> None:
    dpg = powergraph.directed_power_graph(groups.cyclic(4))
    expected = {(1, 0), (1, 2), (1, 3), (3, 0), (3, 1), (3, 2), (2, 0)}
    assert set(dpg.arcs()) == expected
    assert dpg.arc_count() == 7
    assert dpg.in_degree(0) == 3
    assert dpg.out_degree(0) == 0


def test_identity_degrees(full_catalog) -> None:
    for group in full_catalog:
        n, e = group.order, group.identity
        dpg = powergraph.directed_power_graph(group)
        assert dpg.out_degree(e) == 0
        assert dpg.in_degree(e) == n - 1
        pg = powergraph.undirected_power_graph(group)
        assert pg.degree(e) == n - 1


def test_pg_z8_is_complete() -> None:
    pg = powergraph.undirected_power_graph(groups.cyclic(8))
    assert pg.is_complete()
    assert pg.edge_count() == 28
    assert pg.degree_sequence() == [7] * 8


def test_pg_degree_sequences() -> None:
    z6 = powergraph.undirected_power_graph(groups.cyclic(6))
    assert z6.degree_sequence() == [5, 5, 5, 4, 4, 3]
    s3 = powergraph.undirected_power_graph(groups.symmetric(3))
    assert s3.degree_sequence() == [5, 2, 2, 1, 1, 1]


def test_cyclic_generators_adjacent_to_all() -> None:
    group = groups.cyclic(12)
    pg = powergraph.undirected_power_graph(group)
    for g in range(12):
        if group.element_order(g) == 12:
            assert pg.degree(g) == 11


def test_matches_definitional_oracle(full_catalog) -> None:
    for group in full_catalog:
        dpg = powergraph.directed_power_graph(group)
        pg = powergraph.undirected_power_graph(group)
        for x in range(group.order):
            for y in range(group.order):
                arc, adj = naive_power_adjacency(group, x, y)
                assert dpg.has_arc(x, y) == arc, (group.name, x, y)
                assert pg.has_edge(x, y) == adj, (group.name, x, y)


def test_undirected_is_underlying_of_directed(full_catalog) -> None:
    for group in full_catalog:
        dpg = powergraph.directed_power_graph(group)
        pg = powergraph.undirected_power_graph(group)
        assert dpg.underlying_undirected() == pg


def test_arc_relation_transitive_within_cyclic_subgroup(full_catalog) -> None:
    for group in full_catalog:
        dpg = powergraph.directed_power_graph(group)
        n = group.order
        for x in range(n):
            for y in range(n):
                if not dpg.has_arc(x, y):
                    continue
                for z in range(n):
                    if dpg.has_arc(y, z) and z != x:
                        assert dpg.has_arc(x, z), (group.name, x, y, z)


def test_monotone_consistency(full_catalog) -> None:
    for group in full_catalog:
        dpg = powergraph.directed_power_graph(group)
        pg = powergraph.undirected_power_graph(group)
        for x in range(group.order):
            for y in range(group.order):
                assert pg.has_edge(x, y) == (dpg.has_arc(x, y) or dpg.has_arc(y, x))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data())
def test_relabelled_tables_match_the_definition(data) -> None:
    group = groups.parse_group_spec(data.draw(st.sampled_from(RELABEL_SPECS)))
    # element a becomes sigma[a], so the identity need not be 0
    sigma = np.array(data.draw(st.permutations(range(group.order))))
    table = np.empty_like(group.table)
    table[np.ix_(sigma, sigma)] = sigma[group.table]
    relabelled = groups.FiniteGroup(table)
    directed, undirected = naive_power_rows(relabelled)
    assert powergraph.directed_power_graph(relabelled).rows == tuple(directed)
    assert powergraph.undirected_power_graph(relabelled).rows == tuple(undirected)
    both = powergraph._power_graphs(relabelled)
    assert [graph.rows for graph in both] == [tuple(directed), tuple(undirected)]
