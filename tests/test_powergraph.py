"""Directed and undirected power graph construction."""

from __future__ import annotations

from groupgraphs import groups, powergraph
from tests.conftest import naive_power_adjacency


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
