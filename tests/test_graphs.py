"""SimpleGraph / Digraph predicates and graph6 / digraph6 serialization."""

from __future__ import annotations

import json

import pytest

from groupgraphs import graphs, groups, powergraph
from groupgraphs.errors import MalformedEncoding, UnsupportedOrder, VertexOutOfRange
from groupgraphs.graphs import Digraph, SimpleGraph


def test_complete_graph_degrees() -> None:
    k4 = SimpleGraph.complete(4)
    assert all(k4.degree(v) == 3 for v in range(4))
    assert k4.is_complete()
    assert k4.degree_sequence() == [3, 3, 3, 3]
    assert k4.edge_count() == 6


def test_edgeless_graph_degrees() -> None:
    empty = SimpleGraph.edgeless(5)
    assert all(empty.degree(v) == 0 for v in range(5))
    assert empty.is_edgeless()
    assert not empty.is_complete()


def test_k1_is_complete() -> None:
    assert SimpleGraph.complete(1).is_complete()
    assert SimpleGraph.complete(8).is_complete()


def test_vertex_out_of_range() -> None:
    k4 = SimpleGraph.complete(4)
    with pytest.raises(VertexOutOfRange):
        k4.degree(4)
    with pytest.raises(VertexOutOfRange):
        k4.has_edge(0, -1)


def test_from_edges_rejects_loops_and_bad_vertices() -> None:
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(1, 1)])
    with pytest.raises(VertexOutOfRange):
        SimpleGraph.from_edges(3, [(0, 3)])


def test_cycle_is_regular() -> None:
    c5 = SimpleGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert c5.is_regular()
    assert c5.degree_sequence() == [2, 2, 2, 2, 2]


def test_power_graph_s3_is_not_regular() -> None:
    pg = powergraph.undirected_power_graph(groups.symmetric(3))
    assert not pg.is_regular()
    assert pg.degree_sequence() == [5, 2, 2, 1, 1, 1]


def test_handshake_identities() -> None:
    pg = powergraph.undirected_power_graph(groups.cyclic(12))
    assert sum(pg.degree(v) for v in range(12)) == 2 * pg.edge_count()
    dpg = powergraph.directed_power_graph(groups.dihedral(4))
    total_in = sum(dpg.in_degree(v) for v in range(8))
    total_out = sum(dpg.out_degree(v) for v in range(8))
    assert total_in == total_out == dpg.arc_count()


def test_digraph_degrees_of_dpg_z4() -> None:
    dpg = powergraph.directed_power_graph(groups.cyclic(4))
    assert dpg.in_degree(0) == 3
    assert dpg.out_degree(0) == 0
    assert not dpg.has_constant_in_out_degrees()


def test_is_complete_iff_constant_degree_n_minus_one() -> None:
    for graph in (
        SimpleGraph.complete(6),
        SimpleGraph.edgeless(4),
        powergraph.undirected_power_graph(groups.cyclic(6)),
        powergraph.undirected_power_graph(groups.cyclic(8)),
    ):
        expected = graph.degree_sequence() == [graph.order - 1] * graph.order
        assert graph.is_complete() == expected


def test_underlying_undirected_symmetrizes() -> None:
    d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    und = d.underlying_undirected()
    assert und.has_edge(0, 1) and und.has_edge(1, 0)
    assert und.has_edge(1, 2)
    assert not und.has_edge(0, 2)


def test_graph6_frozen_values() -> None:
    assert graphs.to_graph6(SimpleGraph.complete(2)) == "A_"
    assert graphs.to_graph6(SimpleGraph.complete(4)) == "C~"


def test_graph6_round_trip_on_catalog_power_graphs() -> None:
    for n in (1, 2, 5, 6, 8, 12, 15):
        graph = powergraph.undirected_power_graph(groups.cyclic(n))
        assert graphs.from_graph6(graphs.to_graph6(graph)) == graph


def test_digraph6_round_trip() -> None:
    for group in (groups.cyclic(4), groups.symmetric(3), groups.quaternion()):
        digraph = powergraph.directed_power_graph(group)
        assert graphs.from_digraph6(graphs.to_digraph6(digraph)) == digraph


def test_digraph6_frozen_value_for_dpg_z4() -> None:
    dpg = powergraph.directed_power_graph(groups.cyclic(4))
    assert graphs.to_digraph6(dpg) == "&CAww"


def test_format_headers_are_accepted() -> None:
    assert graphs.from_graph6(">>graph6<<C~") == SimpleGraph.complete(4)
    encoded = graphs.to_digraph6(Digraph.from_arcs(2, [(0, 1)]))
    assert graphs.from_digraph6(">>digraph6<<" + encoded).has_arc(0, 1)


def test_malformed_graph6_rejected() -> None:
    with pytest.raises(MalformedEncoding):
        graphs.from_graph6("")
    with pytest.raises(MalformedEncoding):
        graphs.from_graph6("C~~")  # trailing bytes
    with pytest.raises(MalformedEncoding):
        graphs.from_graph6("C")  # truncated body
    with pytest.raises(MalformedEncoding):
        graphs.from_graph6("A\x19")  # byte below the printable range
    with pytest.raises(MalformedEncoding):
        graphs.from_graph6("A~")  # nonzero padding bits for n=2
    with pytest.raises(MalformedEncoding, match="not positive"):
        graphs.from_graph6("?")  # order 0
    with pytest.raises(MalformedEncoding, match="digraph6"):
        graphs.from_graph6("&A_")


def test_malformed_digraph6_rejected() -> None:
    with pytest.raises(MalformedEncoding):
        graphs.from_digraph6("CAww")  # missing '&' prefix
    with pytest.raises(MalformedEncoding):
        graphs.from_digraph6("&CAw")  # truncated body
    with pytest.raises(MalformedEncoding, match="empty after prefix"):
        graphs.from_digraph6("&")
    with pytest.raises(MalformedEncoding, match="self-loop at vertex 0"):
        graphs.from_digraph6("&A_")


def test_rows_constructor_rejects_bad_rows() -> None:
    with pytest.raises(ValueError, match="order must be positive"):
        SimpleGraph([])
    with pytest.raises(ValueError, match="self-loop at vertex 0"):
        SimpleGraph([1, 0])
    with pytest.raises(VertexOutOfRange):
        SimpleGraph([4, 0])  # bit 2 in a two-vertex graph


def test_graph6_order_bound() -> None:
    with pytest.raises(UnsupportedOrder):
        graphs.to_graph6(SimpleGraph.edgeless(63))
    with pytest.raises(UnsupportedOrder):
        graphs.from_graph6("~")  # the long-form header of orders above 62
    big = SimpleGraph.edgeless(62)
    assert graphs.from_graph6(graphs.to_graph6(big)) == big


def test_self_loop_rejected_by_digraph() -> None:
    with pytest.raises(ValueError):
        Digraph.from_arcs(2, [(0, 0)])


def test_to_dot_directed_and_undirected() -> None:
    und = SimpleGraph.from_edges(2, [(0, 1)])
    dot = graphs.to_dot(und, labels=("a", "b"))
    assert dot.startswith("graph {")
    assert "0 -- 1;" in dot
    assert 'label="a"' in dot
    d = Digraph.from_arcs(2, [(1, 0)])
    ddot = graphs.to_dot(d)
    assert ddot.startswith("digraph {")
    assert "1 -> 0;" in ddot
    with pytest.raises(ValueError, match="one label per vertex"):
        graphs.to_dot(SimpleGraph.complete(3), ["a"])


@pytest.mark.parametrize("graph", [
    SimpleGraph.edgeless(1),
    SimpleGraph.from_edges(4, [(0, 3), (1, 2), (2, 3)]),
    powergraph.undirected_power_graph(groups.dihedral(6)),
    Digraph.from_arcs(3, [(2, 0)]),
    powergraph.directed_power_graph(groups.dicyclic(3)),
], ids=["K1", "path", "pg_D6", "one_arc", "dpg_Dic3"])
def test_json_and_table_writers_match_reference_formatting(graph) -> None:
    n, directed = graph.order, isinstance(graph, Digraph)
    adjacent = graph.has_arc if directed else graph.has_edge
    pairs = [[u, v] for u in range(n) for v in range(n)
             if (directed or u < v) and adjacent(u, v)]
    expected = {"order": n, "directed": directed, ("arcs" if directed else "edges"): pairs}
    assert graphs.to_json(graph) == json.dumps(expected)
    rows = [" ".join(str(int(adjacent(u, v))) for v in range(n)) for u in range(n)]
    assert graphs.to_table(graph) == "\n".join([str(n), *rows])


def test_from_matrix_round_trip_and_shape_check() -> None:
    pg = powergraph.undirected_power_graph(groups.symmetric(3))
    matrix = [[int(pg.has_edge(u, v)) for v in range(6)] for u in range(6)]
    assert SimpleGraph.from_matrix(matrix) == pg
    dpg = powergraph.directed_power_graph(groups.cyclic(4))
    assert Digraph.from_matrix([[int(dpg.has_arc(u, v)) for v in range(4)]
                                for u in range(4)]) == dpg
    with pytest.raises(ValueError, match="square"):
        SimpleGraph.from_matrix([[0, 1, 0], [1, 0, 0]])


def test_asymmetric_rows_report_the_first_pair() -> None:
    # 4 -> 1 and 2 -> 3 lack their reverses; (1, 4) comes first lexicographically
    rows = [0, 0, 1 << 3, 0, 1 << 1]
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at pair \(1, 4\)$"):
        SimpleGraph(rows)
    with pytest.raises(ValueError, match=r"at pair \(0, 1\)$"):
        SimpleGraph([1 << 1, 0])


def test_graph_and_digraph_with_equal_rows_differ() -> None:
    rows = [0b110, 0b101, 0b011]
    graph, digraph = SimpleGraph(rows), Digraph(rows)
    assert graph != digraph and digraph != graph
    assert hash(graph) != hash(digraph)
    assert graph == SimpleGraph.complete(3)
    assert hash(graph) == hash(SimpleGraph.complete(3))
    assert {graph, digraph, Digraph(rows)} == {graph, digraph}


def test_pair_constructors_name_their_pairs() -> None:
    with pytest.raises(VertexOutOfRange, match=r"^edge \(0, 3\) not inside \[0, 3\)$"):
        SimpleGraph.from_edges(3, [(0, 3)])
    with pytest.raises(VertexOutOfRange, match=r"^arc \(0, 3\) not inside \[0, 3\)$"):
        Digraph.from_arcs(3, [(0, 3)])
    # an edge sets both bits, an arc one
    assert SimpleGraph.from_edges(3, [(0, 2)]).rows == (0b100, 0, 0b001)
    assert Digraph.from_arcs(3, [(0, 2)]).rows == (0b100, 0, 0)


def test_graph_instances_have_no_dict() -> None:
    for graph in (SimpleGraph.complete(3), Digraph([0b10, 0])):
        assert not hasattr(graph, "__dict__")
        with pytest.raises(AttributeError):
            graph.label = "x"
