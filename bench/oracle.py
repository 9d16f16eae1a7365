"""Answer checks, run on every item outside the timed region.

Each check returns None when the answer is right and a one-line reason
when it is wrong.  The expected answers come from ``gen`` (known by
construction) or are rebuilt here with numpy from the definitions; no
check relies on the package's own search or construction code, except
``witness.reconstruct() == graph``, which is the package's documented
contract for a witness.
"""

from __future__ import annotations

import json

import numpy as np

import gen


def check_decoded(item: gen.Item, graph) -> str | None:
    if tuple(graph.rows) != item.expect["rows"]:
        return "decoded graph differs from the generated one"
    return None


def check_recognize(item: gen.Item, graph, result) -> str | None:
    expect = item.expect
    if bool(result) != expect["cayley"]:
        return f"verdict {bool(result)}, expected {expect['cayley']}"
    if not result:
        if result.reason.value != expect["reason"]:
            return f"reason {result.reason.value}, expected {expect['reason']}"
        return None
    if result.reconstruct() != graph:
        return "witness does not rebuild the graph"
    return None


def check_enumerate(item: gen.Item, graph, auts, vt: bool) -> str | None:
    """|Aut| and vertex-transitivity known by construction; every listed map checked."""
    expect = item.expect
    if len(auts) != expect["aut_count"]:
        return f"{len(auts)} automorphisms, expected {expect['aut_count']}"
    if vt != expect["vt"]:
        return f"vertex-transitive {vt}, expected {expect['vt']}"
    images = np.array([p.images for p in auts], dtype=np.int64)
    if not np.array_equal(images[0], np.arange(graph.order)):
        return "first automorphism is not the identity"
    if len(auts) > 1 and not all(auts[i].images < auts[i + 1].images for i in range(len(auts) - 1)):
        return "automorphism list is not strictly increasing"
    adj = np.array([[(row >> v) & 1 for v in range(graph.order)] for row in graph.rows], dtype=bool)
    if not (adj[images[:, :, None], images[:, None, :]] == adj).all():
        return "a listed permutation does not preserve adjacency"
    return None


# -- CLI outputs ----------------------------------------------------------------


def _matches(text: str, pieces) -> bool:
    """Compare text against a stream of expected pieces without building it whole."""
    pos = 0
    for piece in pieces:
        if text[pos:pos + len(piece)] != piece:
            return False
        pos += len(piece)
    return pos == len(text)


def _pairs(adj: np.ndarray, directed: bool):
    """Per row u, the sorted targets v of the listed pairs (u, v)."""
    for u in range(len(adj)):
        row = adj[u] if directed else adj[u, u + 1:]
        yield u, (np.flatnonzero(row) + (0 if directed else u + 1)).tolist()


def _json_pieces(adj: np.ndarray, directed: bool):
    key = "arcs" if directed else "edges"
    yield f'{{"order": {len(adj)}, "directed": {"true" if directed else "false"}, "{key}": ['
    first = True
    for u, vs in _pairs(adj, directed):
        if vs:
            yield ("" if first else ", ") + ", ".join(f"[{u}, {v}]" for v in vs)
            first = False
    yield "]}\n"


def _table_pieces(adj: np.ndarray):
    yield f"{len(adj)}"
    for row in adj.astype(np.uint8).tolist():
        yield "\n" + " ".join(map(str, row))
    yield "\n"


def _check_dot(text: str, adj: np.ndarray, directed: bool) -> bool:
    lines = text.split("\n")
    n = len(adj)
    if lines[0] != ("digraph {" if directed else "graph {") or lines[-2:] != ["}", ""]:
        return False
    if any(not lines[1 + v].startswith(f'  {v} [label="') for v in range(n)):
        return False
    arrow = "->" if directed else "--"
    edges = [f"  {u} {arrow} {v};" for u, vs in _pairs(adj, directed) for v in vs]
    return lines[1 + n:-2] == edges


def expected_graph(expect: dict) -> np.ndarray:
    table = gen.spec_table(expect["spec"])
    if expect["kind"] == "cayley":
        adj = gen.cayley_adjacency(table, expect["members"])
    else:
        adj = gen.power_adjacency(table)
    return adj if expect["directed"] else adj | adj.T


def _check_graph_output(expect: dict, out: str) -> str | None:
    adj = expected_graph(expect)
    fmt, directed = expect["format"], expect["directed"]
    if fmt == "json":
        ok = _matches(out, _json_pieces(adj, directed))
    elif fmt == "table":
        ok = _matches(out, _table_pieces(adj))
    else:
        ok = _check_dot(out, adj, directed)
    return None if ok else f"{fmt} output differs from the graph rebuilt from the definition"


def _check_is_cayley_output(expect: dict, out: str) -> str | None:
    n = len(gen.spec_table(expect["spec"]))
    cayley = not expect["directed"] and gen.is_cyclic_prime_power(expect["spec"])
    if expect["format"] == "json":
        got = json.loads(out)
        want = {"index": 0, "order": n, "cayley": cayley}
        want.update({"connection_set": list(range(1, n))} if cayley else {"reason": "NotRegularDegree"})
        return None if got == want else f"is-cayley answered {got}, expected {want}"
    if cayley:
        want = f"graph 0: cayley (order {n}, connection {{{','.join(map(str, range(1, n)))}}})\n"
    else:
        want = "graph 0: not cayley (NotRegularDegree)\n"
    return None if out == want else f"is-cayley answered {out.strip()!r}"


def theorem_rows() -> list[dict]:
    """The verification table the paper's theorem predicts for the catalog."""
    rows = []
    for name, spec in gen.CATALOG:
        order = len(gen.spec_table(spec))
        cyclic_p = gen.is_cyclic_prime_power(spec)
        rows.append({"name": name, "order": order, "cyclic_p_group": cyclic_p,
                     "pg_complete": cyclic_p, "pg_vertex_transitive": cyclic_p,
                     "pg_cayley": cyclic_p, "dpg_cayley": order == 1, "consistent": True})
    return rows


def _check_verify_output(expect: dict, out: str) -> str | None:
    want = theorem_rows()
    if expect["format"] == "json":
        got = [json.loads(line) for line in out.splitlines()]
    else:
        cells = [line.split() for line in out.splitlines()[2:2 + len(want)]]
        keys = list(want[0])
        got = [{k: (c == "yes" if k not in ("name", "order") else c) for k, c in zip(keys, row)}
               for row in cells]
        for row in got:
            row["order"] = int(row["order"])
    return None if got == want else "verify rows disagree with the theorem's classification"


def check_cli(item: gen.Item, code: int, out: str, err: str) -> str | None:
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    expect = item.expect
    if expect["kind"] in ("power", "cayley"):
        return _check_graph_output(expect, out)
    if expect["kind"] == "is-cayley":
        return _check_is_cayley_output(expect, out)
    return _check_verify_output(expect, out)
