"""SimpleGraph / Digraph predicates and graph6 / digraph6 serialization."""

from __future__ import annotations

import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupgraphs import graphs, groups, powergraph
from groupgraphs.errors import MalformedEncoding, UnsupportedOrder, VertexOutOfRange
from groupgraphs.graphs import Digraph, SimpleGraph
from tests.conftest import digraph6_by_definition


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


@pytest.mark.parametrize("build, message", [
    (lambda: SimpleGraph.from_edges(3, [(0, 1.0)]), "vertex 1.0 is not an integer"),
    (lambda: SimpleGraph.from_edges(3, [(0, "1")]), "vertex '1' is not an integer"),
    (lambda: SimpleGraph.from_edges(2.0, [(0, 1)]), "graph order 2.0 is not an integer"),
    (lambda: SimpleGraph([2, True, 0]), "row 1 is True, not an integer"),
    (lambda: Digraph.from_arcs(3, [(0, True)]), "vertex True is not an integer"),
    # an order below 1 is named as given, by every constructor that takes one
    (lambda: SimpleGraph.from_edges(-3, []), "graph order must be positive, got -3"),
    (lambda: SimpleGraph.from_edges(-3, [(0, 1)]), "graph order must be positive, got -3"),
    (lambda: Digraph.from_arcs(0, [(0, 1)]), "graph order must be positive, got 0"),
    (lambda: SimpleGraph.edgeless(-3), "graph order must be positive, got -3"),
    (lambda: SimpleGraph.complete(-3), "graph order must be positive, got -3"),
    (lambda: SimpleGraph.complete(2.0), "graph order 2.0 is not an integer"),
    # vertex queries pass the same check: no float, string or bool
    (lambda: SimpleGraph.complete(4).has_edge(0, 1.5), "vertex 1.5 is not an integer"),
    (lambda: SimpleGraph.complete(4).has_edge(0, True), "vertex True is not an integer"),
    (lambda: SimpleGraph.complete(4).neighbors("1"), "vertex '1' is not an integer"),
    (lambda: SimpleGraph.complete(4).degree(True), "vertex True is not an integer"),
    (lambda: Digraph.from_arcs(3, [(0, 1)]).in_degree(1.5), "vertex 1.5 is not an integer"),
    (lambda: Digraph.from_arcs(3, [(0, 1)]).has_arc(False, 1), "vertex False is not an integer"),
])
def test_graph_entry_points_reject_what_is_not_an_integer(build, message) -> None:
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


def test_from_edges_takes_numpy_integers() -> None:
    graph = Digraph.from_arcs(np.int64(3), [(np.uint8(0), np.int32(2))])
    assert graph == Digraph.from_arcs(3, [(0, 2)])
    assert type(graph.rows[0]) is int


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


MALFORMED = [
    # encoders
    ("to_graph6", SimpleGraph.edgeless(63), UnsupportedOrder, "graph6 supports n <= 62, got 63"),
    ("to_digraph6", Digraph([0] * 63), UnsupportedOrder, "digraph6 supports n <= 62, got 63"),
    # graph6: prefix, header, length, byte range, padding
    ("from_graph6", "", MalformedEncoding, "graph6: empty string"),
    ("from_graph6", ">>graph6<<", MalformedEncoding, "graph6: empty string"),
    ("from_graph6", "&A_", MalformedEncoding,
     "graph6: '&' marks a digraph6 line; use from_digraph6"),
    ("from_graph6", "~", UnsupportedOrder,
     "graph6: multi-byte order headers (n > 62) are not supported"),
    ("from_graph6", "\x7f", UnsupportedOrder,
     "graph6: multi-byte order headers (n > 62) are not supported"),
    ("from_graph6", "?", MalformedEncoding, "graph6: declared order 0 is not positive"),
    ("from_graph6", "0", MalformedEncoding, "graph6: declared order -15 is not positive"),
    ("from_graph6", "C", MalformedEncoding,
     "graph6: expected 1 data bytes for the declared order, got 0"),
    ("from_graph6", "C~~", MalformedEncoding,
     "graph6: expected 1 data bytes for the declared order, got 2"),
    ("from_graph6", "A\x19\x19", MalformedEncoding,
     "graph6: expected 1 data bytes for the declared order, got 2"),
    ("from_graph6", "A\x19", MalformedEncoding,
     "graph6: byte '\\x19' outside the printable range"),
    ("from_graph6", "A\x7f", MalformedEncoding,
     "graph6: byte '\\x7f' outside the printable range"),
    ("from_graph6", "A~", MalformedEncoding, "graph6: nonzero padding bits"),
    ("from_graph6", "B~", MalformedEncoding, "graph6: nonzero padding bits"),
    # digraph6: the same, then self-loops, the first in row order
    ("from_digraph6", "", MalformedEncoding, "digraph6: missing '&' prefix"),
    ("from_digraph6", "CAww", MalformedEncoding, "digraph6: missing '&' prefix"),
    ("from_digraph6", ">>digraph6<<", MalformedEncoding, "digraph6: missing '&' prefix"),
    ("from_digraph6", "&", MalformedEncoding, "digraph6: empty after prefix"),
    ("from_digraph6", ">>digraph6<<&", MalformedEncoding, "digraph6: empty after prefix"),
    ("from_digraph6", "&~", UnsupportedOrder,
     "digraph6: multi-byte order headers (n > 62) are not supported"),
    ("from_digraph6", "&?", MalformedEncoding, "digraph6: declared order 0 is not positive"),
    ("from_digraph6", "&&", MalformedEncoding, "digraph6: declared order -25 is not positive"),
    ("from_digraph6", "&CAw", MalformedEncoding,
     "digraph6: expected 3 data bytes for the declared order, got 2"),
    ("from_digraph6", "&B\x19", MalformedEncoding,
     "digraph6: expected 2 data bytes for the declared order, got 1"),
    ("from_digraph6", "&A\x19", MalformedEncoding,
     "digraph6: byte '\\x19' outside the printable range"),
    ("from_digraph6", "&B~\x7f", MalformedEncoding,
     "digraph6: byte '\\x7f' outside the printable range"),
    ("from_digraph6", "&B\x7f~", MalformedEncoding,
     "digraph6: byte '\\x7f' outside the printable range"),
    ("from_digraph6", "&A~", MalformedEncoding, "digraph6: nonzero padding bits"),
    ("from_digraph6", "&B~~", MalformedEncoding, "digraph6: nonzero padding bits"),
    ("from_digraph6", "&A_", MalformedEncoding, "digraph6: self-loop at vertex 0"),
    ("from_digraph6", "&B_G", MalformedEncoding, "digraph6: self-loop at vertex 0"),
    ("from_digraph6", "&BAG", MalformedEncoding, "digraph6: self-loop at vertex 1"),
    ("from_digraph6", "&B?G", MalformedEncoding, "digraph6: self-loop at vertex 2"),
]


@pytest.mark.parametrize("function, argument, error, message", MALFORMED)
def test_codec_messages_are_pinned(function, argument, error, message) -> None:
    with pytest.raises(error) as info:
        getattr(graphs, function)(argument)
    assert type(info.value) is error
    assert str(info.value) == message


@st.composite
def loop_free_rows(draw) -> list[int]:
    """Random bit-rows without loops: mostly n <= 16, sometimes up to 62."""
    n = draw(st.one_of(st.integers(1, 16), st.sampled_from((31, 47, 61, 62))))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return [row & ~(1 << v) for v, row in enumerate(rows)]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(loop_free_rows())
def test_graph6_matches_networkx_and_round_trips(rows) -> None:
    graph = Digraph(rows).underlying_undirected()
    reference = nx.Graph()
    reference.add_nodes_from(range(graph.order))
    reference.add_edges_from(graph.edges())
    encoded = graphs.to_graph6(graph)
    assert encoded == nx.to_graph6_bytes(reference, header=False).decode("ascii").strip()
    assert graphs.from_graph6(encoded) == graph


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(loop_free_rows())
def test_digraph6_matches_definition_and_round_trips(rows) -> None:
    digraph = Digraph(rows)
    encoded = graphs.to_digraph6(digraph)
    assert encoded == digraph6_by_definition(digraph)
    assert graphs.from_digraph6(encoded) == digraph


def test_rows_constructor_rejects_bad_rows() -> None:
    with pytest.raises(ValueError, match="order must be positive"):
        SimpleGraph([])
    with pytest.raises(ValueError, match="self-loop at vertex 0"):
        SimpleGraph([1, 0])
    with pytest.raises(VertexOutOfRange):
        SimpleGraph([4, 0])  # bit 2 in a two-vertex graph
    with pytest.raises(ValueError, match="row 0 is 2.9, not an integer"):
        SimpleGraph([2.9, 1.2])
    with pytest.raises(ValueError, match="row 1"):
        Digraph([0, "1"])
    assert SimpleGraph([np.int64(2), np.uint8(1)]) == SimpleGraph.complete(2)


def test_graph6_order_bound() -> None:
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


def test_checked_constructors_still_reject_asymmetric_data() -> None:
    # the package's own builders skip this check; data from outside may not
    message = r"^adjacency not symmetric at pair \(0, 2\)$"
    with pytest.raises(ValueError, match=message):
        SimpleGraph([1 << 2, 0, 0])
    with pytest.raises(ValueError, match=message):
        SimpleGraph.from_matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    # an edge list names each pair once and sets both of its bits
    assert SimpleGraph.from_edges(3, [(0, 2)]).rows == (1 << 2, 0, 1)
    with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
        SimpleGraph.from_edges(3, [(1, 1)])


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
