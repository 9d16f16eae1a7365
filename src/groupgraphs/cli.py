"""Command-line interface.

Subcommands:

* ``power``     build the (directed) power graph of a named group
* ``cayley``    build a Cayley graph from a group and a connection set
* ``aut``       list the automorphisms of one or more graphs
* ``is-cayley`` decide Cayley-representability, optionally emitting witnesses
* ``verify``    run the theorem verification over the built-in catalog

``--group`` takes a spec such as ``Z2xZ6``; ``groups.parse_group_spec``
holds the grammar.  Every subcommand writes as it goes, one chunk at a
time: a graph's text as it is encoded, each graph's answer (and witness)
once it is decided.  ``--in`` files are newline-delimited graph6/digraph6,
read one line at a time, so an error on a line follows the answers to the
lines before it.  Directed encodings start with ``&`` or ``>>digraph6<<``.

Exit status: 0 when every requested check is consistent, 1 when a
verification or decision reports an inconsistency, 2 on usage or data
errors.  groupgraphs itself consults no environment variable; argparse's
message lookup through ``gettext`` reads LANGUAGE, LC_ALL, LC_MESSAGES and
LANG each time a parser is built.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterable, Iterator

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


def _read_graphs(lines: Iterable[str], path: str) -> Iterator[SimpleGraph | Digraph]:
    """The graphs of `lines`, one per non-blank line, each decoded as it is drawn."""
    found = False
    for line in filter(None, map(str.strip, lines)):
        found = True
        directed = line.startswith(("&", ">>digraph6<<"))
        yield (graphs.from_digraph6 if directed else graphs.from_graph6)(line)
    if not found:
        raise ValueError(f"no graphs found in {path!r}")


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


def _write_output(chunks: Iterable[str], path: str | None) -> None:
    """Write the chunks in order to `path` (stdout for None or "-"), then a
    newline unless the text already ends with one."""
    with (contextlib.nullcontext(sys.stdout) if path is None or path == "-"
          else open(path, "w", encoding="utf-8")) as handle:
        try:
            last = ""
            try:
                for chunk in chunks:
                    handle.write(chunk)
                    last = chunk or last
                if not last.endswith("\n"):
                    handle.write("\n")
            finally:   # so that an error met making a chunk is reported after the text before it
                handle.flush()
        except BrokenPipeError as exc:
            # a reader that stopped early is no error; what is left to flush goes to os.devnull
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), handle.fileno())
            if exc.__context__ is not None and not isinstance(exc.__context__, BrokenPipeError):
                raise exc.__context__   # the error that the flush was for


def _group_graph(group: FiniteGroup, members: tuple[int, ...] | None,
                 directed: bool) -> SimpleGraph | Digraph:
    """The power graph of `group`, or its Cayley graph when `members` is given."""
    if members is None:
        return (powergraph.directed_power_graph if directed
                else powergraph.undirected_power_graph)(group)
    build = cayley_mod.directed_cayley if directed else cayley_mod.undirected_cayley
    return build(group, cayley_mod.ConnectionSet(group.order, members))


@contextlib.contextmanager
def _input_graphs(args: argparse.Namespace,
                  parser: argparse.ArgumentParser) -> Iterator[Iterable[SimpleGraph | Digraph]]:
    """The graphs for ``aut`` and ``is-cayley``.  An --in file is opened on
    entry, before any output file, and read inside the block as it is drawn."""
    if (args.infile is None) == (args.group is None):
        parser.error("exactly one of --in and --group is required")
    if args.infile is None:
        group = parse_group_spec(args.group)
        yield [_group_graph(group, _parse_connection_members(args.set), args.directed)]
    elif args.set is not None or args.directed:
        parser.error("--set and --directed apply to --group, not --in")
    else:
        with (contextlib.nullcontext(sys.stdin) if args.infile == "-"
              else open(args.infile, "r", encoding="ascii")) as handle:
            yield _read_graphs(handle, args.infile)


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


def _aut_answers(source: Iterable[SimpleGraph | Digraph],
                 args: argparse.Namespace) -> Iterator[str]:
    """Each graph's automorphisms, listed whole first (the header carries the count),
    then written 1024 lines at a time: a line per write made K9's 25% slower."""
    for index, graph in enumerate(source):
        perms = symmetry.automorphisms(graph, bound=args.bound)
        if args.format == "json":
            yield json.dumps({"index": index, "order": graph.order, "count": len(perms),
                              "automorphisms": [p.images for p in perms]}) + "\n"
        else:
            yield f"graph {index}: order {graph.order}, {len(perms)} automorphisms\n"
            for start in range(0, len(perms), 1024):
                yield "".join(" ".join(map(str, p.images)) + "\n"
                              for p in perms[start:start + 1024])


def _is_cayley_answers(source: Iterable[SimpleGraph | Digraph],
                       args: argparse.Namespace) -> Iterator[str]:
    """One line per graph.  The --witness file, opened on the first draw, gets
    each witness (null where not Cayley) as it is found: in all, the bytes of
    ``_indented_json(witnesses) + "\\n"``."""
    with (contextlib.nullcontext() if args.witness is None
          else open(args.witness, "w", encoding="utf-8")) as witness:
        sep = "["
        for index, graph in enumerate(source):
            result = symmetry.is_cayley(graph, bound=args.bound)
            if witness is not None:
                witness.write(sep + "\n  " + _indented_json(
                    result.to_json_dict() if result else None, "\n  "))
                sep = ","
            if args.format == "json":
                key, value = (("connection_set", sorted(result.connection)) if result
                              else ("reason", result.reason.value))
                yield json.dumps({"index": index, "order": graph.order,
                                  "cayley": bool(result), key: value}) + "\n"
            elif result:
                conn = ",".join(map(str, result.connection))
                yield f"graph {index}: cayley (order {graph.order}, connection {{{conn}}})\n"
            else:
                yield f"graph {index}: not cayley ({result.reason.value})\n"
        if witness is not None:
            witness.write("\n]\n")


def _cmd_answer(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``aut`` and ``is-cayley``: each graph's answer is written once it is found."""
    with _input_graphs(args, parser) as source:
        answers = (_aut_answers if args.command == "aut" else _is_cayley_answers)(source, args)
        _write_output(answers, args.out)
        for _ in answers:   # past a reader that stopped early, so --witness is whole
            pass
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    rows = verify_mod.verify_theorem(max_order=args.max_order)
    text = (verify_mod.format_jsonl if args.format == "json" else verify_mod.format_table)(rows)
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
        if args.command in ("aut", "is-cayley"):
            return _cmd_answer(args, parser)
        return _cmd_verify(args)
    except (GroupGraphsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
