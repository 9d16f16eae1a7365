"""Loop-free graphs and digraphs on vertex indices 0..n-1.

Adjacency is stored as packed bit-rows (one Python int per vertex) so the
automorphism search kernels can test adjacency with shifts and masks.
``SimpleGraph`` and ``Digraph`` share one private base, ``_BitRows``, for
row validation, construction, queries, equality and hashing; a subclass
adds only the symmetry check or its own queries, and names the shared
methods in its own words (edge or arc).
Whole-graph work (symmetrising, listing pairs, writing large outputs)
goes through an n x n boolean matrix instead, built from the rows and
packed back by the one pair of converters below, and constructors
elsewhere hand in such a matrix.  Serialization covers the standard
graph6/digraph6 formats for n <= 62, DOT output for human inspection, and
JSON and 0/1 table text at any order.  The DOT, JSON and table text comes
in chunks, about one per matrix row (``dot_chunks``, ``json_chunks``,
``table_chunks``), so a large graph can be written without holding its
whole text; ``to_dot``, ``to_json`` and ``to_table`` join the same chunks.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import MalformedEncoding, UnsupportedOrder, VertexOutOfRange

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
        order = len(rows)
        if order < 1:
            raise ValueError(f"graph order must be positive, got {order}")
        full = (1 << order) - 1
        out = []
        for v, row in enumerate(rows):
            try:
                row = operator.index(row)
            except TypeError:
                raise ValueError(f"row {v} is {row!r}, not an integer") from None
            if row & ~full:
                raise VertexOutOfRange(f"row {v} has bits set outside [0, {order})")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            out.append(row)
        self.rows = tuple(out)
        self.order = order

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[int]]):
        """From a square matrix whose nonzero entry [u, v] joins u to v."""
        return cls(_from_matrix(matrix))

    def _check_vertex(self, v: int) -> int:
        if not 0 <= v < self.order:
            raise VertexOutOfRange(f"vertex {v} not in [0, {self.order})")
        return v

    def _joined(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.rows[u] >> v) & 1)

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


def _from_pairs(cls, order: int, pairs: Iterable[tuple[int, int]]):
    """``from_edges``/``from_arcs``: an undirected pair sets both bits."""
    rows = [0] * order
    for u, v in pairs:
        if not (0 <= u < order and 0 <= v < order):
            raise VertexOutOfRange(f"{cls._pair} ({u}, {v}) not inside [0, {order})")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        if not cls._directed:
            rows[v] |= 1 << u
    return cls(rows)


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
        full = (1 << order) - 1
        return cls([full & ~(1 << v) for v in range(order)])

    @classmethod
    def edgeless(cls, order: int) -> SimpleGraph:
        return cls([0] * order)

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
        self._check_vertex(v)
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
        return SimpleGraph(_from_matrix(adj | adj.T))


# -- graph6 / digraph6 ------------------------------------------------------
#
# graph6:   byte n+63, then the upper triangle read column by column
#           (pairs (0,1), (0,2), (1,2), (0,3), ...) packed 6 bits per byte,
#           each byte offset by 63; zero padding to a byte boundary.
# digraph6: '&', byte n+63, then the full n*n matrix row by row, packed the
#           same way.

def _pack_bits(bits: list[int]) -> str:
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i: i + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return "".join(chars)


def _unpack_bits(data: str, expected: int, context: str) -> list[int]:
    need = (expected + 5) // 6
    if len(data) != need:
        raise MalformedEncoding(
            f"{context}: expected {need} data bytes for the declared order, got {len(data)}"
        )
    bits: list[int] = []
    for ch in data:
        value = ord(ch) - 63
        if not 0 <= value < 64:
            raise MalformedEncoding(f"{context}: byte {ch!r} outside the printable range")
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[expected:]):
        raise MalformedEncoding(f"{context}: nonzero padding bits")
    return bits[:expected]


def _header_order(ch: str, context: str) -> int:
    n = ord(ch) - 63
    if n > GRAPH6_MAX_ORDER:
        raise UnsupportedOrder(
            f"{context}: multi-byte order headers (n > {GRAPH6_MAX_ORDER}) are not supported"
        )
    if n < 1:
        raise MalformedEncoding(f"{context}: declared order {n} is not positive")
    return n


def to_graph6(graph: SimpleGraph) -> str:
    if graph.order > GRAPH6_MAX_ORDER:
        raise UnsupportedOrder(f"graph6 supports n <= {GRAPH6_MAX_ORDER}, got {graph.order}")
    bits = [(graph.rows[u] >> v) & 1
            for v in range(1, graph.order) for u in range(v)]
    return chr(graph.order + 63) + _pack_bits(bits)


def from_graph6(text: str) -> SimpleGraph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise MalformedEncoding("graph6: empty string")
    if s.startswith("&"):
        raise MalformedEncoding("graph6: '&' marks a digraph6 line; use from_digraph6")
    n = _header_order(s[0], "graph6")
    bits = _unpack_bits(s[1:], n * (n - 1) // 2, "graph6")
    rows = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return SimpleGraph(rows)


def to_digraph6(graph: Digraph) -> str:
    if graph.order > GRAPH6_MAX_ORDER:
        raise UnsupportedOrder(f"digraph6 supports n <= {GRAPH6_MAX_ORDER}, got {graph.order}")
    bits = [(graph.rows[u] >> v) & 1
            for u in range(graph.order) for v in range(graph.order)]
    return "&" + chr(graph.order + 63) + _pack_bits(bits)


def from_digraph6(text: str) -> Digraph:
    s = text.strip()
    if s.startswith(">>digraph6<<"):
        s = s[len(">>digraph6<<"):]
    if not s.startswith("&"):
        raise MalformedEncoding("digraph6: missing '&' prefix")
    s = s[1:]
    if not s:
        raise MalformedEncoding("digraph6: empty after prefix")
    n = _header_order(s[0], "digraph6")
    bits = _unpack_bits(s[1:], n * n, "digraph6")
    rows = [0] * n
    i = 0
    for u in range(n):
        for v in range(n):
            if bits[i]:
                if u == v:
                    raise MalformedEncoding(f"digraph6: self-loop at vertex {u}")
                rows[u] |= 1 << v
            i += 1
    return Digraph(rows)


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
