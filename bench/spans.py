"""Spans and counters for the traced run, recorded from outside the package.

``Probes`` replaces public functions and methods of the ``groupgraphs``
modules with wrappers that open a span around each call, and restores
them afterwards; the package itself is not modified.  A function bound
into several modules (``from .x import y``) is replaced everywhere it is
bound.  A call made while a span of the same layer is already open (for
example ``direct_product`` inside ``parse_group_spec``) opens no new span,
so each layer's time is counted once; its counters still run.

``is_cayley`` is replaced by a replay of its stages through public calls
(degree and uniform checks, ``automorphisms``, ``find_regular_subgroup``)
so that each stage gets its own span.  The replay returns the same
verdict and the same witness.

Spans stay in memory as (name, start, end, parent) and are reduced to
per-name self time when the run ends: a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

# the package re-exports functions under some module names (``catalog``)
_catalog, cayley, cli, graphs, groups, powergraph, symmetry, verify = (
    importlib.import_module(f"groupgraphs.{name}")
    for name in ("catalog", "cayley", "cli", "graphs", "groups", "powergraph", "symmetry", "verify"))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self.stack.pop()

    def inside(self, layer: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0].split(".")[0] == layer

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out


def _count_table_entries(tracer, args, result):
    tracer.counts["groups.table_entries"] += args[0].order ** 2


def _count_arcs(tracer, args, result):
    tracer.counts["powergraph.arcs"] += result.arc_count()


def _count_automorphisms(tracer, args, result):
    tracer.counts["symmetry.aut_found"] += len(result)


# (span name, owner, attribute, counter run after each call)
FUNCTION_PROBES = [
    ("graphs.decode", graphs, "from_graph6", None),
    ("graphs.decode", graphs, "from_digraph6", None),
    ("graphs.encode", graphs, "to_graph6", None),
    ("graphs.encode", graphs, "to_digraph6", None),
    ("graphs.encode", graphs, "to_dot", None),
    ("graphs.encode", cli, "_render_graph", None),
    ("graphs.encode", verify, "format_jsonl", None),
    ("graphs.encode", verify, "format_table", None),
    ("groups.construct", cli, "parse_group_spec", None),
    *(("groups.construct", groups, name, None)
      for name in ("cyclic", "dihedral", "dicyclic", "symmetric", "alternating",
                   "quaternion", "direct_product")),
    ("catalog.build", _catalog, "catalog", None),
    ("verify.theorem", verify, "verify_theorem", None),
    ("powergraph.directed", powergraph, "directed_power_graph", _count_arcs),
    ("cayley.construct", cayley, "directed_cayley", None),
    ("cayley.construct", cayley, "undirected_cayley", None),
    ("symmetry.aut_search", symmetry, "automorphisms", _count_automorphisms),
    ("symmetry.vt", symmetry, "is_vertex_transitive", None),
    ("symmetry.regular_subgroup", symmetry, "find_regular_subgroup", None),
]

METHOD_PROBES = [
    ("graphs.underlying_undirected", graphs.Digraph, "underlying_undirected", None),
    ("groups.construct", groups.FiniteGroup, "__init__", _count_table_entries),
    ("cayley.reconstruct", symmetry.CayleyWitness, "reconstruct", None),
]


def _wrap(tracer: Tracer, name: str, fn, after):
    layer = name.split(".")[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.inside(layer):
            result = fn(*args, **kwargs)
        else:
            with tracer.span(name):
                result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def staged_is_cayley(tracer: Tracer, original):
    """is_cayley's stages, each through a public call inside its own span."""

    def is_cayley(graph, bound: int = symmetry.DEFAULT_CAYLEY_BOUND):
        tracer.counts["symmetry.decisions"] += 1
        directed = isinstance(graph, graphs.Digraph)
        with tracer.span("symmetry.filter"):
            constant = graph.has_constant_in_out_degrees() if directed else graph.is_regular()
            empty = graph.is_arcless() if directed else graph.is_edgeless()
            if not constant or graph.is_complete() or empty:
                tracer.counts["symmetry.filter_decided"] += 1
                return original(graph, bound)   # settled without search
        tracer.counts["symmetry.search_reached"] += 1
        n = graph.order
        auts = symmetry.automorphisms(graph, bound)
        with tracer.span("symmetry.vt"):
            transitive = len({p(0) for p in auts}) == n
        if not transitive:
            return symmetry.NotCayley(symmetry.NotCayleyReason.NOT_VERTEX_TRANSITIVE)
        members = symmetry.find_regular_subgroup(auts, n)
        if members is None:
            return symmetry.NotCayley(symmetry.NotCayleyReason.NO_REGULAR_SUBGROUP)
        tracer.counts["symmetry.search_cayley"] += 1
        # vertex indices double as element indices: members[v] sends 0 to v
        group = groups.FiniteGroup([list(p.images) for p in members])
        row = graph.rows[0]
        connection = cayley.ConnectionSet(n, (v for v in range(n) if (row >> v) & 1))
        return symmetry.CayleyWitness(group, connection, tuple(members), directed)

    return is_cayley


class Probes:
    """Install the wrappers on enter, restore every original on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._restore: list[tuple[object, str, object]] = []

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "groupgraphs" and not name.startswith("groupgraphs."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def __enter__(self) -> Probes:
        for name, owner, attr, after in FUNCTION_PROBES:
            original = getattr(owner, attr)
            self._replace_everywhere(original, _wrap(self.tracer, name, original, after))
        for name, cls, attr, after in METHOD_PROBES:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, _wrap(self.tracer, name, original, after))
        original = symmetry.is_cayley
        self._replace_everywhere(original, staged_is_cayley(self.tracer, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


TIMED_LAYERS = ["graphs.decode", "graphs.encode", "graphs.underlying_undirected",
                "groups.construct", "catalog.build", "verify.theorem", "powergraph.directed",
                "cayley.construct", "cayley.reconstruct", "symmetry.filter",
                "symmetry.aut_search", "symmetry.regular_subgroup", "symmetry.vt"]
COUNTS = {"graphs.bytes_out": "bytes", "groups.table_entries": "count",
          "powergraph.arcs": "count", "symmetry.aut_found": "count"}


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer self time, exact counts and the two search ratios, each with its unit."""
    selfs = tracer.self_times()
    out = {f"{name}_s": (selfs.get(name, 0.0), "s") for name in TIMED_LAYERS}
    out.update({name: (tracer.counts[name], unit) for name, unit in COUNTS.items()})
    c = tracer.counts
    out["symmetry.filter_decided_share"] = (
        _share(c["symmetry.filter_decided"], c["symmetry.decisions"]), "ratio")
    out["symmetry.search_useful_ratio"] = (
        _share(c["symmetry.search_cayley"], c["symmetry.search_reached"]), "ratio")
    return out
