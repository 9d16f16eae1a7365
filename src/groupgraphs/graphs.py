"""Loop-free graphs and digraphs on vertex indices 0..n-1.

Adjacency is stored as packed bit-rows (one Python int per vertex) so the
automorphism search kernels can test adjacency with shifts and masks.
``SimpleGraph`` and ``Digraph`` share one private base, ``_BitRows``, for
row validation, construction, queries, equality and hashing; a subclass
adds only the symmetry check or its own queries, and names the shared
methods in its own words (edge or arc).
Whole-graph work (symmetrising, listing pairs, writing large outputs)
goes through an n x n boolean matrix instead, built from the rows and
packed back by the one pair of converters below.  The package's own
builders (the graph6 decoder, the power and Cayley graphs, ``complete``,
``edgeless``, and ``from_edges``/``from_arcs`` once each pair is checked)
hand in rows that are valid by construction through ``_unchecked``, which
skips the checks; ``SimpleGraph(rows)`` and ``Digraph(rows)`` keep them all.
Serialization covers the standard graph6/digraph6 formats for n <= 62
(one codec: they differ only in a prefix and a pair order), DOT output
for human inspection, and JSON and 0/1 table text at any order.  The
DOT, JSON and table text comes
in chunks, about one per matrix row (``dot_chunks``, ``json_chunks``,
``table_chunks``), so a large graph can be written without holding its
whole text; ``to_dot``, ``to_json`` and ``to_table`` join the same chunks.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import MalformedEncoding, UnsupportedOrder, VertexOutOfRange, _integer

GRAPH6_MAX_ORDER = 62


def _to_matrix(rows: Sequence[int]) -> np.ndarray:
    """Bit-rows -> (n, n) bool matrix; bit v of rows[u] is entry [u, v]."""
    order = len(rows)
    width = (order + 7) // 8
    data = b"".join(row.to_bytes(width, "little") for row in rows)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(order, width)
    return np.unpackbits(packed, axis=1, count=order, bitorder="little").view(bool)


def _from_matrix(matrix) -> list[int]:
    """Square matrix (nonzero = adjacent) -> bit-rows; inverse of _to_matrix."""
    adj = np.asarray(matrix, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got shape {adj.shape}")
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed]


class _BitRows:
    """The validated bit-rows of one loop-free relation on 0..n-1.

    Bit v of rows[u] joins u to v.  Subclasses declare no slots of their
    own, set ``_directed`` and ``_pair``, and publish the private methods
    below under their own names.
    """

    __slots__ = ("order", "rows")
    _directed: bool
    _pair: str

    def __init__(self, rows: Sequence[int]):
        order = _order(len(rows))
        full = (1 << order) - 1
        out = []
        for v, row in enumerate(rows):
            row = _integer(row, "row {v} is {value!r}, not an integer", v=v)
            if row & ~full:
                raise VertexOutOfRange(f"row {v} has bits set outside [0, {order})")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            out.append(row)
        self.rows = tuple(out)
        self.order = order

    @classmethod
    def _unchecked(cls, rows: Sequence[int]):
        """The graph on rows built valid here: ints in range, no loop and,
        for a SimpleGraph, symmetric.  No check is run."""
        graph = cls.__new__(cls)
        graph.rows = tuple(rows)
        graph.order = len(graph.rows)
        return graph

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[int]]):
        """From a square matrix whose nonzero entry [u, v] joins u to v."""
        return cls(_from_matrix(matrix))

    def _check_vertex(self, v: int) -> int:
        v = _integer(v, "vertex {value!r} is not an integer")
        if not 0 <= v < self.order:
            raise VertexOutOfRange(f"vertex {v} not in [0, {self.order})")
        return v

    def _joined(self, u: int, v: int) -> bool:
        return bool((self.rows[self._check_vertex(u)] >> self._check_vertex(v)) & 1)

    def _row_degree(self, v: int) -> int:
        return self.rows[self._check_vertex(v)].bit_count()

    def _pair_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // (1 if self._directed else 2)

    def _pair_matrix(self) -> np.ndarray:
        """Bool adjacency with one True per pair: the upper triangle unless directed."""
        adj = _to_matrix(self.rows)
        return adj if self._directed else np.triu(adj, 1)

    def _pairs(self) -> list[tuple[int, int]]:
        us, vs = np.nonzero(self._pair_matrix())
        return list(zip(us.tolist(), vs.tolist()))

    def _is_empty(self) -> bool:
        return not any(self.rows)

    def is_complete(self) -> bool:
        """True iff every ordered pair of distinct vertices is joined."""
        full = (1 << self.order) - 1
        return all(self.rows[v] == full & ~(1 << v) for v in range(self.order))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.rows))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.order} {self._pair}s={self._pair_count()}>"


def _order(order: int) -> int:
    """`order` as a positive plain int, else a ValueError naming the value given."""
    order = _integer(order, "graph order {value!r} is not an integer")
    if order < 1:
        raise ValueError(f"graph order must be positive, got {order}")
    return order


def _from_pairs(cls, order: int, pairs: Iterable[tuple[int, int]]):
    """``from_edges``/``from_arcs``: an undirected pair sets both bits."""
    order = _order(order)
    rows = [0] * order
    for u, v in pairs:
        u, v = (_integer(x, "vertex {value!r} is not an integer") for x in (u, v))
        if not (0 <= u < order and 0 <= v < order):
            raise VertexOutOfRange(f"{cls._pair} ({u}, {v}) not inside [0, {order})")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        if not cls._directed:
            rows[v] |= 1 << u
    return cls._unchecked(rows)


class SimpleGraph(_BitRows):
    """An undirected loop-free graph; adjacency rows are symmetric bitmasks."""

    __slots__ = ()
    _directed = False
    _pair = "edge"

    def __init__(self, rows: Sequence[int]):
        super().__init__(rows)
        adj = _to_matrix(self.rows)
        if not np.array_equal(adj, adj.T):
            # the mismatches are symmetric, so the first in row-major order has u < v
            u, v = np.argwhere(adj != adj.T)[0].tolist()
            raise ValueError(f"adjacency not symmetric at pair ({u}, {v})")

    from_edges = classmethod(_from_pairs)
    has_edge = _BitRows._joined
    degree = _BitRows._row_degree
    edge_count = _BitRows._pair_count
    edges = _BitRows._pairs
    is_edgeless = _BitRows._is_empty

    @classmethod
    def complete(cls, order: int) -> SimpleGraph:
        order = _order(order)
        full = (1 << order) - 1
        return cls._unchecked([full & ~(1 << v) for v in range(order)])

    @classmethod
    def edgeless(cls, order: int) -> SimpleGraph:
        return cls._unchecked([0] * _order(order))

    def neighbors(self, v: int) -> list[int]:
        row = self.rows[self._check_vertex(v)]
        return [u for u in range(self.order) if (row >> u) & 1]

    def degree_sequence(self) -> list[int]:
        """Degrees as a descending list."""
        return sorted((r.bit_count() for r in self.rows), reverse=True)

    def is_regular(self) -> bool:
        degrees = {r.bit_count() for r in self.rows}
        return len(degrees) == 1


class Digraph(_BitRows):
    """A loop-free directed graph; rows[v] is the bitmask of out-neighbors."""

    __slots__ = ()
    _directed = True
    _pair = "arc"

    from_arcs = classmethod(_from_pairs)
    has_arc = _BitRows._joined
    out_degree = _BitRows._row_degree
    arc_count = _BitRows._pair_count
    arcs = _BitRows._pairs
    is_arcless = _BitRows._is_empty

    def in_degree(self, v: int) -> int:
        v = self._check_vertex(v)
        return sum((r >> v) & 1 for r in self.rows)

    def has_constant_in_out_degrees(self) -> bool:
        """True iff all in-degrees agree and all out-degrees agree."""
        outs = {r.bit_count() for r in self.rows}
        if len(outs) != 1:
            return False
        ins = np.count_nonzero(_to_matrix(self.rows), axis=0)
        return bool((ins == ins[0]).all())

    def underlying_undirected(self) -> SimpleGraph:
        """Forget orientation: u and v become adjacent iff either arc exists."""
        adj = _to_matrix(self.rows)
        return SimpleGraph._unchecked(_from_matrix(adj | adj.T))


# -- graph6 / digraph6 ------------------------------------------------------
#
# One codec for both formats.  A line is an optional '&' (digraph6), the
# byte n+63, then the relation's bits in the pair order of `_bit_pairs`
# (graph6: u < v column by column, (0,1), (0,2), (1,2), (0,3), ...;
# digraph6: every (u, v) row by row), 6 to a byte with the first bit most
# significant, each byte offset by 63, zero-padded to a byte boundary.

@functools.cache
def _bit_pairs(n: int, directed: bool) -> tuple[tuple[int, int], ...]:
    """The pairs whose bits a graph6 (digraph6 if directed) line lists, in order."""
    if directed:
        return tuple((u, v) for u in range(n) for v in range(n))
    return tuple((u, v) for v in range(1, n) for u in range(v))


def _encode(graph: SimpleGraph | Digraph, directed: bool) -> str:
    name = "digraph6" if directed else "graph6"
    n = graph.order
    if n > GRAPH6_MAX_ORDER:
        raise UnsupportedOrder(f"{name} supports n <= {GRAPH6_MAX_ORDER}, got {n}")
    bits = "".join("01"[graph.rows[u] >> v & 1] for u, v in _bit_pairs(n, directed))
    bits += "0" * (-len(bits) % 6)
    data = "".join(chr(int(bits[i:i + 6], 2) + 63) for i in range(0, len(bits), 6))
    return ("&" if directed else "") + chr(n + 63) + data


def _decode(text: str, directed: bool) -> SimpleGraph | Digraph:
    name = "digraph6" if directed else "graph6"
    s = text.strip().removeprefix(f">>{name}<<")
    if directed:
        if not s.startswith("&"):
            raise MalformedEncoding("digraph6: missing '&' prefix")
        s = s[1:]
        if not s:
            raise MalformedEncoding("digraph6: empty after prefix")
    elif not s:
        raise MalformedEncoding("graph6: empty string")
    elif s.startswith("&"):
        raise MalformedEncoding("graph6: '&' marks a digraph6 line; use from_digraph6")
    n = ord(s[0]) - 63
    if n > GRAPH6_MAX_ORDER:
        raise UnsupportedOrder(
            f"{name}: multi-byte order headers (n > {GRAPH6_MAX_ORDER}) are not supported"
        )
    if n < 1:
        raise MalformedEncoding(f"{name}: declared order {n} is not positive")
    pairs = _bit_pairs(n, directed)
    data = s[1:]
    need = (len(pairs) + 5) // 6
    if len(data) != need:
        raise MalformedEncoding(
            f"{name}: expected {need} data bytes for the declared order, got {len(data)}"
        )
    value = 0
    for ch in data:
        byte = ord(ch) - 63
        if not 0 <= byte < 64:
            raise MalformedEncoding(f"{name}: byte {ch!r} outside the printable range")
        value = value << 6 | byte
    bits = format(value, f"0{6 * need}b")
    if "1" in bits[len(pairs):]:
        raise MalformedEncoding(f"{name}: nonzero padding bits")
    rows = [0] * n
    i = bits.find("1")
    while i >= 0:
        u, v = pairs[i]
        if u == v:
            raise MalformedEncoding(f"{name}: self-loop at vertex {u}")
        rows[u] |= 1 << v
        if not directed:
            rows[v] |= 1 << u
        i = bits.find("1", i + 1)
    # every bit is inside [0, n), loops are rejected above, and an edge sets both bits
    return (Digraph if directed else SimpleGraph)._unchecked(rows)


def to_graph6(graph: SimpleGraph) -> str:
    return _encode(graph, directed=False)


def from_graph6(text: str) -> SimpleGraph:
    return _decode(text, directed=False)


def to_digraph6(graph: Digraph) -> str:
    return _encode(graph, directed=True)


def from_digraph6(text: str) -> Digraph:
    return _decode(text, directed=True)


def _pair_text(graph: SimpleGraph | Digraph, head: str, tail: str, sep: str) -> Iterator[str]:
    """The arcs (edges u < v for graphs) as text, one string per source vertex u.

    Pair (u, v) is written head.format(u) + tail.format(v), and the pairs
    of one u are joined by sep in ascending v; a vertex without pairs
    yields nothing.  Whole matrix rows are formatted at once, so no tuple
    or string is made per pair.
    """
    adj = graph._pair_matrix()
    tails = np.array([tail.format(v) for v in range(graph.order)], dtype=object)
    for u, row in enumerate(adj):
        picked = tails[row].tolist()
        if picked:
            start = head.format(u)
            yield start + (sep + start).join(picked)


def dot_chunks(graph: SimpleGraph | Digraph,
               labels: Sequence[str] | None = None) -> Iterator[str]:
    """The text of to_dot in pieces: the vertex lines, then one piece per source vertex."""
    directed = isinstance(graph, Digraph)
    if labels is not None and len(labels) != graph.order:
        raise ValueError("need one label per vertex")
    yield "digraph {" if directed else "graph {"
    yield "".join(f'\n  {v} [label="{labels[v] if labels is not None else v}"];'
                  for v in range(graph.order))
    arrow = "->" if directed else "--"
    for text in _pair_text(graph, f"  {{}} {arrow} ", "{};", "\n"):
        yield "\n" + text
    yield "\n}\n"


def to_dot(graph: SimpleGraph | Digraph, labels: Sequence[str] | None = None) -> str:
    """DOT text with caller-supplied vertex labels, for human inspection."""
    return "".join(dot_chunks(graph, labels))


def json_chunks(graph: SimpleGraph | Digraph) -> Iterator[str]:
    """The text of to_json in pieces: the header, one piece per source vertex, the close."""
    key, flag = ("arcs", "true") if isinstance(graph, Digraph) else ("edges", "false")
    yield f'{{"order": {graph.order}, "directed": {flag}, "{key}": ['
    sep = ""
    for text in _pair_text(graph, "[{}, ", "{}]", ", "):
        yield sep + text
        sep = ", "
    yield "]}"


def to_json(graph: SimpleGraph | Digraph) -> str:
    """One JSON object: order, orientation, and the sorted arc or edge pairs.

    The text equals ``json.dumps`` of ``{"order": n, "directed": d,
    "arcs"|"edges": [[u, v], ...]}`` byte for byte, without building that
    list.
    """
    return "".join(json_chunks(graph))


def table_chunks(graph: SimpleGraph | Digraph) -> Iterator[str]:
    """The text of to_table in pieces: the line with n, then one piece per matrix row."""
    n = graph.order
    text = np.full((n, 2 * n), ord(" "), dtype=np.uint8)
    text[:, 0::2] = _to_matrix(graph.rows).view(np.uint8) + ord("0")
    text[:, -1] = ord("\n")
    yield f"{n}\n"
    for row in text[:-1]:
        yield row.tobytes().decode("ascii")
    yield text[-1, :-1].tobytes().decode("ascii")


def to_table(graph: SimpleGraph | Digraph) -> str:
    """Adjacency-matrix text: a line with n, then n lines of space-separated 0/1.

    There is no newline after the last row.
    """
    return "".join(table_chunks(graph))
