"""Command-line interface.

Subcommands:

* ``power``     build the (directed) power graph of a named group
* ``cayley``    build a Cayley graph from a group and a connection set
* ``aut``       list the automorphisms of one or more graphs
* ``is-cayley`` decide Cayley-representability, optionally emitting witnesses
* ``verify``    run the theorem verification over the built-in catalog

Groups are named by a small grammar: ``Zn`` (cyclic), ``Dn`` (dihedral,
order 2n), ``Sn`` (symmetric), ``An`` (alternating), ``Q8``, ``Dicn``
(dicyclic, order 4n), and products such as ``Z2xZ6``.  Graph input files
are newline-delimited graph6/digraph6; directed encodings are recognised
by the ``&`` prefix or the ``>>digraph6<<`` header.

Exit status: 0 when every requested check is consistent, 1 when a
verification or decision reports an inconsistency, 2 on usage or data
errors.  No environment variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Callable

from . import graphs, groups, powergraph, symmetry
from . import cayley as cayley_mod
from . import verify as verify_mod
from .errors import GroupGraphsError
from .graphs import Digraph, SimpleGraph
from .groups import FiniteGroup

#: Largest group the CLI will construct from a ``--group`` spec.
MAX_CLI_GROUP_ORDER = 4096

_ATOM_RE = re.compile(r"(Dic|Z|D|S|A)([0-9]+)")


def _parse_atom(token: str) -> tuple[int, Callable[[], FiniteGroup]]:
    """One factor's order and its constructor, checked but not yet called."""
    if token == "Q8":
        return 8, groups.quaternion
    match = _ATOM_RE.fullmatch(token)
    if match is None:
        raise ValueError(
            f"bad group spec {token!r}: expected Zn, Dn, Sn, An, Q8, or Dicn"
        )
    kind, num = match.group(1), int(match.group(2))
    if kind in ("S", "A"):
        # k! grows with k and 8!/2 is already over the limit, so cap k first
        order = math.factorial(min(num, 8)) // (2 if kind == "A" else 1)
    else:
        order = {"Z": 1, "D": 2, "Dic": 4}[kind] * num
    if order > MAX_CLI_GROUP_ORDER:
        raise ValueError(
            f"group spec {token!r} exceeds the CLI order limit of {MAX_CLI_GROUP_ORDER}"
        )
    build = {"Z": groups.cyclic, "D": groups.dihedral, "S": groups.symmetric,
             "A": groups.alternating, "Dic": groups.dicyclic}[kind]
    return order, lambda: build(num)


def parse_group_spec(spec: str) -> FiniteGroup:
    """Build a group from a spec like ``Z6``, ``D4``, or ``Z2xZ2xZ3``.

    Products fold left, so ``AxBxC`` means ``(AxB)xC``.  The group is named
    by its constructors, so the name is the spec's canonical spelling
    (``Z06`` gives ``Z6``).  Every order is checked against the CLI limit
    before any group is built.
    """
    parts = spec.split("x")
    if any(part == "" for part in parts):
        raise ValueError(f"bad group spec {spec!r}: empty factor")
    order, builders = 1, []
    for part in parts:
        factor, build = _parse_atom(part)
        order *= factor
        if order > MAX_CLI_GROUP_ORDER:
            raise ValueError(
                f"group spec {spec!r} exceeds the CLI order limit of {MAX_CLI_GROUP_ORDER}"
            )
        builders.append(build)
    group = builders[0]()
    for build in builders[1:]:
        group = groups.direct_product(group, build())
    return group


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
                  labels: tuple[str, ...] | None = None) -> str:
    if fmt == "graph6":
        if isinstance(graph, Digraph):
            return graphs.to_digraph6(graph)
        return graphs.to_graph6(graph)
    if fmt == "dot":
        return graphs.to_dot(graph, labels)
    if fmt == "json":
        return graphs.to_json(graph)
    return graphs.to_table(graph)


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")


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
        return _read_graphs(args.infile)
    group = parse_group_spec(args.group)
    return [_group_graph(group, _parse_connection_members(args.set), args.directed)]


# -- subcommands ------------------------------------------------------------


def _cmd_build(args: argparse.Namespace) -> int:
    """``power`` and ``cayley``: one graph of the group, in the chosen format."""
    group = parse_group_spec(args.group)
    graph = _group_graph(group, _parse_connection_members(args.set), args.directed)
    _write_output(_render_graph(graph, args.format, group.element_names), args.out)
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
    _write_output("\n".join(out_lines), args.out)
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
    _write_output("\n".join(out_lines), args.out)
    if args.witness is not None:
        with open(args.witness, "w", encoding="utf-8") as handle:
            json.dump(witnesses, handle, indent=2)
            handle.write("\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    rows = verify_mod.verify_theorem(max_order=args.max_order)
    if args.format == "json":
        text = verify_mod.format_jsonl(rows)
    else:
        text = verify_mod.format_table(rows)
    _write_output(text, args.out)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
