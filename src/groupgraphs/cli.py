"""Command-line interface.

Subcommands:

* ``power``     build the (directed) power graph of a named group
* ``cayley``    build a Cayley graph from a group and a connection set
* ``aut``       list the automorphisms of one or more graphs
* ``is-cayley`` decide Cayley-representability, optionally emitting witnesses
* ``verify``    run the theorem verification over the built-in catalog

``--group`` takes a spec such as ``Z2xZ6``; ``groups.parse_group_spec``
holds the grammar.  ``power`` and ``cayley`` write the graph text as it is
encoded, one chunk at a time, so a large graph's text is never held whole.
Graph input files are newline-delimited graph6/digraph6; directed encodings
are recognised by the ``&`` prefix or the ``>>digraph6<<`` header.

Exit status: 0 when every requested check is consistent, 1 when a
verification or decision reports an inconsistency, 2 on usage or data
errors.  groupgraphs itself consults no environment variable; argparse's
message lookup through ``gettext`` reads LANGUAGE, LC_ALL, LC_MESSAGES and
LANG each time a parser is built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, TextIO

from . import graphs, powergraph, symmetry
from . import cayley as cayley_mod
from . import verify as verify_mod
from .errors import GroupGraphsError
from .graphs import Digraph, SimpleGraph
from .groups import FiniteGroup, parse_group_spec


def _parse_connection_members(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    stripped = text.strip()
    if not stripped:
        return ()
    try:
        return tuple(int(tok) for tok in stripped.split(","))
    except ValueError:
        raise ValueError(f"bad connection set {text!r}: expected comma-separated integers") from None


# -- graph input / output ---------------------------------------------------


def _decode_graph_line(line: str) -> SimpleGraph | Digraph:
    stripped = line.strip()
    if stripped.startswith(">>digraph6<<") or (
        not stripped.startswith(">>graph6<<") and stripped.startswith("&")
    ):
        return graphs.from_digraph6(stripped)
    return graphs.from_graph6(stripped)


def _read_graphs(path: str) -> list[SimpleGraph | Digraph]:
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(path, "r", encoding="ascii") as handle:
            lines = handle.read().splitlines()
    out = [_decode_graph_line(line) for line in lines if line.strip()]
    if not out:
        raise ValueError(f"no graphs found in {path!r}")
    return out


def _render_graph(graph: SimpleGraph | Digraph, fmt: str,
                  labels: tuple[str, ...] | None, path: str | None) -> None:
    """Encode the graph in `fmt` and write it to `path`, one chunk at a time."""
    if fmt == "graph6":
        encode = graphs.to_digraph6 if isinstance(graph, Digraph) else graphs.to_graph6
        chunks: Iterable[str] = [encode(graph)]
    elif fmt == "dot":
        chunks = graphs.dot_chunks(graph, labels)
    elif fmt == "json":
        chunks = graphs.json_chunks(graph)
    else:
        chunks = graphs.table_chunks(graph)
    _write_output(chunks, path)


def _write_chunks(chunks: Iterable[str], handle: TextIO) -> None:
    last = ""
    for chunk in chunks:
        handle.write(chunk)
        last = chunk or last
    if not last.endswith("\n"):
        handle.write("\n")


def _write_output(chunks: Iterable[str], path: str | None) -> None:
    """Write the chunks in order to `path` (stdout for None or "-"), then a
    newline unless the text already ends with one."""
    if path is None or path == "-":
        try:
            _write_chunks(chunks, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # a reader that stopped early is no error; the flush at exit goes to os.devnull
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
    else:
        with open(path, "w", encoding="utf-8") as handle:
            _write_chunks(chunks, handle)


def _group_graph(group: FiniteGroup, members: tuple[int, ...] | None,
                 directed: bool) -> SimpleGraph | Digraph:
    """The power graph of `group`, or its Cayley graph when `members` is given."""
    if members is None:
        if directed:
            return powergraph.directed_power_graph(group)
        return powergraph.undirected_power_graph(group)
    conn = cayley_mod.ConnectionSet(group.order, members)
    if directed:
        return cayley_mod.directed_cayley(group, conn)
    return cayley_mod.undirected_cayley(group, conn)


def _input_graphs(args: argparse.Namespace,
                  parser: argparse.ArgumentParser) -> list[SimpleGraph | Digraph]:
    """Resolve the graph source for ``aut`` and ``is-cayley``."""
    if (args.infile is None) == (args.group is None):
        parser.error("exactly one of --in and --group is required")
    if args.infile is not None:
        if args.set is not None or args.directed:
            parser.error("--set and --directed apply to --group, not --in")
        return _read_graphs(args.infile)
    group = parse_group_spec(args.group)
    return [_group_graph(group, _parse_connection_members(args.set), args.directed)]


def _indented_json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, with each list of integers written by one join.

    Covers what witnesses hold: dicts with string keys, lists, integers,
    booleans and None.  `pad` is the newline and indent of the enclosing
    level.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + ",".join(f"{inner}{json.dumps(key)}: {_indented_json(item, inner)}"
                              for key, item in value.items()) + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:     # not bool, whose text differs
            return "[" + inner + ("," + inner).join(map(str, value)) + pad + "]"
        return "[" + ",".join(inner + _indented_json(item, inner) for item in value) + pad + "]"
    return json.dumps(value)


# -- subcommands ------------------------------------------------------------


def _cmd_build(args: argparse.Namespace) -> int:
    """``power`` and ``cayley``: one graph of the group, in the chosen format."""
    group = parse_group_spec(args.group)
    graph = _group_graph(group, _parse_connection_members(args.set), args.directed)
    _render_graph(graph, args.format, group.element_names, args.out)
    return 0


def _cmd_aut(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    out_lines = []
    for index, graph in enumerate(_input_graphs(args, parser)):
        perms = symmetry.automorphisms(graph, bound=args.bound)
        if args.format == "json":
            out_lines.append(json.dumps({
                "index": index,
                "order": graph.order,
                "count": len(perms),
                "automorphisms": [list(p.images) for p in perms],
            }))
        else:
            out_lines.append(f"graph {index}: order {graph.order}, {len(perms)} automorphisms")
            out_lines.extend(" ".join(str(v) for v in p.images) for p in perms)
    _write_output(["\n".join(out_lines)], args.out)
    return 0


def _cmd_is_cayley(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    out_lines = []
    witnesses = []
    for index, graph in enumerate(_input_graphs(args, parser)):
        result = symmetry.is_cayley(graph, bound=args.bound)
        if args.witness is not None:
            witnesses.append(result.to_json_dict() if result else None)
        if result and args.format == "json":
            out_lines.append(json.dumps({
                "index": index, "order": graph.order, "cayley": True,
                "connection_set": sorted(result.connection),
            }))
        elif result:
            conn = ",".join(str(c) for c in result.connection)
            out_lines.append(f"graph {index}: cayley (order {graph.order}, connection {{{conn}}})")
        elif args.format == "json":
            out_lines.append(json.dumps({
                "index": index, "order": graph.order, "cayley": False,
                "reason": result.reason.value,
            }))
        else:
            out_lines.append(f"graph {index}: not cayley ({result.reason.value})")
    _write_output(["\n".join(out_lines)], args.out)
    if args.witness is not None:
        with open(args.witness, "w", encoding="utf-8") as handle:
            handle.write(_indented_json(witnesses))
            handle.write("\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    rows = verify_mod.verify_theorem(max_order=args.max_order)
    if args.format == "json":
        text = verify_mod.format_jsonl(rows)
    else:
        text = verify_mod.format_table(rows)
    _write_output([text], args.out)
    return 0 if all(row.consistent for row in rows) else 1


# -- parser -----------------------------------------------------------------


def _add_graph_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["graph6", "dot", "json", "table"],
                     default="graph6", help="output format (default graph6)")
    sub.add_argument("--out", metavar="FILE", default=None,
                     help="write output to FILE instead of stdout")


def _add_graph_source_args(sub: argparse.ArgumentParser, default_bound: int) -> None:
    sub.add_argument("--in", dest="infile", metavar="FILE", default=None,
                     help="newline-delimited graph6/digraph6 input ('-' for stdin)")
    sub.add_argument("--group", metavar="SPEC", default=None,
                     help="use a constructed graph of this group instead of --in")
    sub.add_argument("--set", metavar="LIST", default=None,
                     help="with --group: connection set indices, e.g. '1,3' "
                          "(builds a Cayley graph; omit for the power graph)")
    sub.add_argument("--directed", action="store_true",
                     help="with --group: build the directed variant")
    sub.add_argument("--bound", type=int, default=default_bound, metavar="N",
                     help=f"largest vertex count searched (default {default_bound})")
    sub.add_argument("--format", choices=["json", "table"], default="table",
                     help="output format (default table)")
    sub.add_argument("--out", metavar="FILE", default=None,
                     help="write output to FILE instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Help and usage wrap at 78 columns, argparse's width without COLUMNS
    or a terminal, which it would otherwise read; subparsers are _Parsers."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78),
                         **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="groupgraphs",
        description="Power graphs, Cayley graphs, and Cayley-representability "
                    "of finite groups.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    power = subs.add_parser("power", help="power graph of a group")
    power.add_argument("--group", metavar="SPEC", required=True,
                       help="group spec, e.g. Z8, D4, Q8, Z2xZ6")
    power.add_argument("--directed", action="store_true",
                       help="directed power graph instead of undirected")
    power.set_defaults(set=None)
    _add_graph_output_args(power)

    cay = subs.add_parser("cayley", help="Cayley graph of a group")
    cay.add_argument("--group", metavar="SPEC", required=True,
                     help="group spec, e.g. Z8, D4, Q8, Z2xZ6")
    cay.add_argument("--set", metavar="LIST", required=True,
                     help="comma-separated connection set indices, e.g. '1,5'")
    cay.add_argument("--directed", action="store_true",
                     help="directed Cayley graph (connection set need not be "
                          "inverse-closed)")
    _add_graph_output_args(cay)

    aut = subs.add_parser("aut", help="automorphisms of graphs")
    _add_graph_source_args(aut, symmetry.DEFAULT_AUT_BOUND)

    isc = subs.add_parser("is-cayley", help="decide Cayley-representability")
    _add_graph_source_args(isc, symmetry.DEFAULT_CAYLEY_BOUND)
    isc.add_argument("--witness", metavar="FILE", default=None,
                     help="write a JSON array of witnesses (null where not Cayley)")

    ver = subs.add_parser("verify", help="verify the theorem over the catalog")
    ver.add_argument("--max-order", type=int, default=15, metavar="K",
                     help="largest group order to include (1..15, default 15)")
    ver.add_argument("--format", choices=["table", "json"], default="table",
                     help="aligned table or JSON lines (default table)")
    ver.add_argument("--out", metavar="FILE", default=None,
                     help="write output to FILE instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("power", "cayley"):
            return _cmd_build(args)
        if args.command == "aut":
            return _cmd_aut(args, parser)
        if args.command == "is-cayley":
            return _cmd_is_cayley(args, parser)
        return _cmd_verify(args)
    except (GroupGraphsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
