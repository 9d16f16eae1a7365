"""Seeded, stratified inputs for the three workloads.

Everything here is independent of the ``groupgraphs`` package: group
tables are rebuilt with numpy from their textbook definitions (using the
same element indexing the package documents), graphs are numpy boolean
adjacency matrices, and graph6/digraph6 text is encoded by this module's
own packer.  The program under test only ever sees the generated text or
CLI argv; the expected answer of every item is fixed here, by
construction.

Each workload is an endless stream of *blocks*.  A block has a fixed
number of items per stratum, so the share of heavy cases is the same on
every seed; the seed only picks labellings, connection sets, output
formats and the order of items inside the block.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

# -- groups -------------------------------------------------------------------


def cyclic_table(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def dihedral_table(m: int) -> np.ndarray:
    """D_m of order 2m: index i is x -> a + eps*x with a = i % m, eps = -1 iff i >= m."""
    i = np.arange(2 * m)
    a, flip = i % m, i >= m
    shift = np.where(flip[:, None], a[:, None] - a[None, :], a[:, None] + a[None, :]) % m
    return shift + m * (flip[:, None] ^ flip[None, :])


def dicyclic_table(m: int) -> np.ndarray:
    """Dic_m of order 4m: a^i at index i, a^i*b at index 2m + i."""
    two_m = 2 * m
    i = np.arange(4 * m)
    e, b = i % two_m, i >= two_m
    ei, ej = e[:, None], e[None, :]
    bi, bj = b[:, None], b[None, :]
    k = np.where(~bi, ei + ej, np.where(~bj, ei - ej, ei - ej + m)) % two_m
    bk = np.where(~bi, bj, ~bj)
    return k + two_m * bk


def _perm_group_table(perms: list[tuple[int, ...]]) -> np.ndarray:
    """table[i, j] = index of p_i o p_j, i.e. x -> p_i[p_j[x]]; perms in lex order."""
    arr = np.array(perms, dtype=np.int64)
    k = arr.shape[1]
    weights = k ** np.arange(k - 1, -1, -1)
    composed = arr[np.arange(len(arr))[:, None, None], arr[None, :, :]]
    return np.searchsorted(arr @ weights, composed @ weights)


def symmetric_table(k: int) -> np.ndarray:
    return _perm_group_table(list(permutations(range(k))))


def alternating_table(k: int) -> np.ndarray:
    def even(p):
        return sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k)) % 2 == 0
    return _perm_group_table([p for p in permutations(range(k)) if even(p)])


def product_table(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    ng, nh = len(g), len(h)
    return (g[:, None, :, None] * nh + h[None, :, None, :]).reshape(ng * nh, ng * nh)


def _atom_table(token: str) -> np.ndarray:
    if token == "Q8":
        return dicyclic_table(2)
    for prefix, build in (("Dic", dicyclic_table), ("Z", cyclic_table), ("D", dihedral_table),
                          ("S", symmetric_table), ("A", alternating_table)):
        if token.startswith(prefix) and token[len(prefix):].isdigit():
            return build(int(token[len(prefix):]))
    raise ValueError(f"unknown group atom {token!r}")


@functools.lru_cache(maxsize=None)
def spec_table(spec: str) -> np.ndarray:
    """Table for a CLI group spec such as ``Z2xZ256``; products fold left."""
    parts = spec.split("x")
    table = _atom_table(parts[0])
    for part in parts[1:]:
        table = product_table(table, _atom_table(part))
    return table


def identity_of(table: np.ndarray) -> int:
    return int(np.flatnonzero((table == np.arange(len(table))).all(axis=1))[0])


def inverses_of(table: np.ndarray) -> np.ndarray:
    return np.argmax(table == identity_of(table), axis=1)


def is_cyclic_prime_power(spec: str) -> bool:
    """The theorem's side condition, for the specs used here (Zn only are cyclic p-groups)."""
    if not (spec.startswith("Z") and spec[1:].isdigit()):
        return False
    n = int(spec[1:])
    if n == 1:
        return True
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


#: The package's built-in catalog, in its order: (name, spec used to build the table).
CATALOG = [
    ("Z1", "Z1"), ("Z2", "Z2"), ("Z3", "Z3"), ("Z4", "Z4"), ("Z2xZ2", "Z2xZ2"),
    ("Z5", "Z5"), ("Z6", "Z6"), ("S3", "S3"), ("Z7", "Z7"), ("Z8", "Z8"),
    ("Z2xZ4", "Z2xZ4"), ("Z2xZ2xZ2", "Z2xZ2xZ2"), ("D4", "D4"), ("Q8", "Q8"),
    ("Z9", "Z9"), ("Z3xZ3", "Z3xZ3"), ("Z10", "Z10"), ("D5", "D5"), ("Z11", "Z11"),
    ("Z12", "Z12"), ("Z2xZ6", "Z2xZ6"), ("D6", "D6"), ("A4", "A4"), ("Dic3", "Dic3"),
    ("Z13", "Z13"), ("Z14", "Z14"), ("D7", "D7"), ("Z15", "Z15"),
]

# -- graphs -------------------------------------------------------------------


def power_adjacency(table: np.ndarray) -> np.ndarray:
    """Directed power graph: arc x -> y iff y != x is a positive power of x."""
    n = len(table)
    xs = np.arange(n)
    adj = np.zeros((n, n), dtype=bool)
    y = xs.copy()
    for _ in range(n):
        y = table[y, xs]
        adj[xs, y] = True
    adj[xs, xs] = False
    return adj


def cayley_adjacency(table: np.ndarray, members) -> np.ndarray:
    """Directed Cayley graph: arc g -> g*c for every c in the connection set."""
    n = len(table)
    adj = np.zeros((n, n), dtype=bool)
    for c in members:
        adj[np.arange(n), table[:, c]] = True
    return adj


def complement(adj: np.ndarray) -> np.ndarray:
    out = ~adj
    np.fill_diagonal(out, False)
    return out


def disjoint_cliques(t: int, k: int) -> np.ndarray:
    return np.kron(np.eye(t, dtype=bool), complement(np.zeros((k, k), dtype=bool)))


def complete_bipartite(m: int, k: int) -> np.ndarray:
    adj = np.zeros((m + k, m + k), dtype=bool)
    adj[:m, m:] = adj[m:, :m] = True
    return adj


def from_edges(n: int, edges) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return adj


def cycle(n: int) -> np.ndarray:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> np.ndarray:
    return from_edges(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def frucht() -> np.ndarray:
    """Frucht graph (LCF [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2]): cubic, trivial automorphism group."""
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    return from_edges(12, [(i, (i + 1) % 12) for i in range(12)]
                      + [(i, (i + lcf[i]) % 12) for i in range(12)])


def tietze() -> np.ndarray:
    """Tietze graph: Petersen with vertex 0 replaced by a triangle; cubic, not vertex-transitive."""
    keep = [v for v in range(1, 10)]
    index = {v: i for i, v in enumerate(keep)}
    p = petersen()
    edges = [(index[u], index[v]) for u in keep for v in keep if u < v and p[u, v]]
    triangle = [9, 10, 11]
    edges += [(9, 10), (10, 11), (9, 11)]
    edges += [(t, index[v]) for t, v in zip(triangle, np.flatnonzero(p[0]))]
    return from_edges(12, edges)


def hypercube(d: int) -> np.ndarray:
    n = 1 << d
    return from_edges(n, [(u, u ^ (1 << i)) for u in range(n) for i in range(d) if u < u ^ (1 << i)])


def star(k: int) -> np.ndarray:
    return complete_bipartite(1, k)


def relabel(adj: np.ndarray, rng: random.Random) -> np.ndarray:
    """The same graph with vertex u renamed perm[u], for a seeded random perm."""
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    inv = np.argsort(perm)
    return adj[np.ix_(inv, inv)]


def weakly_connected(adj: np.ndarray) -> bool:
    sym = adj | adj.T
    seen = np.zeros(len(adj), dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = sym[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def is_regular(adj: np.ndarray) -> bool:
    """Constant out-degrees and constant in-degrees (plain regularity when symmetric)."""
    out, inn = adj.sum(axis=1), adj.sum(axis=0)
    return bool((out == out[0]).all() and (inn == inn[0]).all())


# -- graph6 / digraph6 ---------------------------------------------------------


def _pack(bits: np.ndarray) -> str:
    bits = np.concatenate([bits.astype(np.uint8), np.zeros(-len(bits) % 6, dtype=np.uint8)])
    values = bits.reshape(-1, 6) @ (1 << np.arange(5, -1, -1))
    return "".join(chr(int(v) + 63) for v in values)


def encode(adj: np.ndarray, directed: bool) -> str:
    """graph6 (upper triangle, column by column) or digraph6 (full matrix, row by row)."""
    n = len(adj)
    if directed:
        return "&" + chr(n + 63) + _pack(adj.reshape(-1))
    cols = [adj[:v, v] for v in range(1, n)]
    return chr(n + 63) + _pack(np.concatenate(cols) if cols else np.zeros(0, dtype=bool))


def rows_of(adj: np.ndarray) -> tuple[int, ...]:
    """Packed bit-rows (bit v of row u set iff arc u -> v), the package's representation."""
    weights = [1 << v for v in range(len(adj))]
    return tuple(sum(w for w, bit in zip(weights, row) if bit) for row in adj.tolist())


# -- items --------------------------------------------------------------------


@dataclass
class Item:
    """One unit of work and the answer known for it by construction."""

    stratum: str
    payload: str | list[str]       # graph6/digraph6 text, or CLI argv
    expect: dict = field(default_factory=dict)


def _rng(seed: int, block: int) -> random.Random:
    return random.Random(f"{seed}/{block}")


def _random_connection_set(table: np.ndarray, directed: bool, rng: random.Random) -> list[int]:
    n = len(table)
    e = identity_of(table)
    inv = inverses_of(table)
    while True:
        if directed:
            members = [x for x in range(n) if x != e and rng.random() < 0.35]
        else:
            chosen = set()
            for x in range(n):
                if x != e and x <= inv[x] and rng.random() < 0.3:
                    chosen.update((x, int(inv[x])))
            members = sorted(chosen)
        if members:
            return members


def _graph_item(stratum: str, adj: np.ndarray, directed: bool, **expect) -> Item:
    return Item(stratum, encode(adj, directed), dict(expect, rows=rows_of(adj), directed=directed))


def has_twins(adj: np.ndarray) -> bool:
    """Two vertices with the same in- and out-neighbourhoods, open or closed."""
    n = len(adj)
    for rel in (adj, adj | np.eye(n, dtype=bool)):
        keys = np.concatenate([rel, rel.T], axis=1)
        if len(np.unique(keys, axis=0)) < n:
            return True
    return False


# Random Cayley graphs are redrawn when one draw would decide a run alone.
# From order 10 on, the graph and its complement must be connected: without
# the rule order 10 draws 2K5 or K5,5 (|Aut| = 28800, about 10 s per
# is_cayley call).  Directed ones must also be twin-free: twins multiply the
# automorphism group (a directed 3-cycle with every vertex blown up to four,
# a Cayley digraph of Z2xZ6, has |Aut| = 41472).  Undirected Cayley graphs of
# Q8 always have twins, so that rule cannot apply to them.
CONNECTED_FROM_ORDER = 10


def _cayley_item(name: str, spec: str, directed: bool, rng: random.Random) -> Item:
    table = spec_table(spec)
    n = len(table)
    while True:
        adj = cayley_adjacency(table, _random_connection_set(table, directed, rng))
        if directed and has_twins(adj):
            continue
        if n < CONNECTED_FROM_ORDER or (weakly_connected(adj) and weakly_connected(complement(adj))):
            break
    stratum = "cayley_directed" if directed else "cayley_undirected"
    return _graph_item(stratum, relabel(adj, rng), directed, cayley=True, reason=None, group=name)


HIGH_AUT = [(3, 2), (4, 2), (5, 2), (2, 3), (3, 3)]


def recognize_block(seed: int, block: int) -> list[Item]:
    """One block of the recognize workload: graph6/digraph6 lines with n <= 12."""
    rng = _rng(seed, block)
    items: list[Item] = []
    groups = [(name, spec) for name, spec in CATALOG if 6 <= len(spec_table(spec)) <= 12]
    for name, spec in groups:
        items.append(_cayley_item(name, spec, False, rng))
        items.append(_cayley_item(name, spec, True, rng))
    for t, k in HIGH_AUT:
        base = disjoint_cliques(t, k)
        for adj in (base, complement(base)):
            items.append(_graph_item("high_aut", relabel(adj, rng), False, cayley=True, reason=None))
    for adj in (petersen(), complement(petersen())):
        items.append(_graph_item("petersen", relabel(adj, rng), False,
                                 cayley=False, reason="NoRegularSubgroup"))
    for adj in (frucht(), tietze()):
        items.append(_graph_item("regular_not_vt", relabel(adj, rng), False,
                                 cayley=False, reason="NotVertexTransitive"))
    for directed in (False, True):
        for _ in range(6):
            n = rng.randint(6, 12)
            while True:
                adj = np.array([[rng.random() < 0.5 for _ in range(n)] for _ in range(n)])
                np.fill_diagonal(adj, False)
                if not directed:
                    adj = np.triu(adj, 1)
                    adj = adj | adj.T
                if not is_regular(adj):
                    break
            items.append(_graph_item("nonregular", adj, directed,
                                     cayley=False, reason="NotRegularDegree"))
    small = [(name, spec) for name, spec in CATALOG if 2 <= len(spec_table(spec)) <= 12]
    for directed in (False, True):
        for name, spec in rng.sample(small, 6):
            adj = power_adjacency(spec_table(spec))
            if not directed:
                adj = adj | adj.T
            cayley = not directed and is_cyclic_prime_power(spec)
            items.append(_graph_item("power_directed" if directed else "power_undirected",
                                     relabel(adj, rng), directed, cayley=cayley,
                                     reason=None if cayley else "NotRegularDegree", group=name))
    rng.shuffle(items)
    return items


def _bench_kernel_cases() -> list[tuple[str, np.ndarray, bool, int, bool]]:
    """The eight cases of benchmarks/bench_kernels.py, labelled as there.

    (name, adjacency, directed, |Aut|, vertex-transitive)
    """
    def undirected_power(spec):
        adj = power_adjacency(spec_table(spec))
        return adj | adj.T

    q8 = spec_table("Q8")
    return [
        ("K8", complement(np.zeros((8, 8), dtype=bool)), False, 40320, True),
        ("Petersen", petersen(), False, 120, True),
        ("K1,8", star(8), False, 40320, False),
        ("pg(Z12)", undirected_power("Z12"), False, 960, False),
        ("pg(D6)", undirected_power("D6"), False, 2880, False),
        ("dpg(Q8)", power_adjacency(q8), True, 48, False),
        ("C16", cycle(16), False, 32, True),
        ("Cay(Q8,{1,2,3})", cayley_adjacency(q8, (1, 2, 3)), False, 1152, True),
    ]


def _relabelled_enumerate_cases() -> list[tuple[str, np.ndarray, bool, int, bool]]:
    """The relabelled stratum of enumerate.

    The small graphs at the end are cheap; they put the median latency
    inside the cluster of 10-20 ms items instead of at its edge, where it
    would flip between clusters from run to run.
    """
    def undirected_power(spec):
        adj = power_adjacency(spec_table(spec))
        return adj | adj.T

    q8 = spec_table("Q8")
    return [
        ("K8", complement(np.zeros((8, 8), dtype=bool)), False, 40320, True),
        ("K1,8", star(8), False, 40320, False),
        ("K5,5", complete_bipartite(5, 5), False, 28800, True),
        ("5K2", disjoint_cliques(5, 2), False, 3840, True),
        ("co-5K2", complement(disjoint_cliques(5, 2)), False, 3840, True),
        ("3K3", disjoint_cliques(3, 3), False, 1296, True),
        ("co-3K3", complement(disjoint_cliques(3, 3)), False, 1296, True),
        ("K4,4", complete_bipartite(4, 4), False, 1152, True),
        ("2K4", disjoint_cliques(2, 4), False, 1152, True),
        ("K3,6", complete_bipartite(3, 6), False, 4320, False),
        ("K2,6", complete_bipartite(2, 6), False, 1440, False),
        ("Q4", hypercube(4), False, 384, True),
        ("Petersen", petersen(), False, 120, True),
        ("co-Petersen", complement(petersen()), False, 120, True),
        ("Frucht", frucht(), False, 1, False),
        ("Tietze", tietze(), False, 12, False),
        ("pg(Z12)", undirected_power("Z12"), False, 960, False),
        ("pg(D6)", undirected_power("D6"), False, 2880, False),
        ("pg(A4)", undirected_power("A4"), False, 2304, False),
        ("pg(Dic3)", undirected_power("Dic3"), False, 192, False),
        ("pg(Z2xZ6)", undirected_power("Z2xZ6"), False, 96, False),
        ("K3,3", complete_bipartite(3, 3), False, 72, True),
        ("K2,2,2", complement(disjoint_cliques(3, 2)), False, 48, True),
        ("Q3", hypercube(3), False, 48, True),
        ("dpg(Q8)", power_adjacency(q8), True, 48, False),
        ("Cay(Q8,{1,2,3})", cayley_adjacency(q8, (1, 2, 3)), False, 1152, True),
    ]


def enumerate_block(seed: int, block: int) -> list[Item]:
    """One block of the enumerate workload: n <= 16, |Aut| <= 40320."""
    rng = _rng(seed, block)
    items = [_graph_item("bench_kernels", adj, directed, aut_count=count, vt=vt, name=name)
             for name, adj, directed, count, vt in _bench_kernel_cases()]
    items += [_graph_item("relabelled", relabel(adj, rng), directed,
                          aut_count=count, vt=vt, name=name)
              for name, adj, directed, count, vt in _relabelled_enumerate_cases()]
    rng.shuffle(items)
    return items


# -- CLI items ----------------------------------------------------------------

SMALL_SPECS = ["A5", "Z60", "Z2xZ30", "S5", "Z120", "D60", "Dic30", "D64", "Z128", "Dic32",
               "Z2xZ64"]
MID_SPECS = ["A6", "S6", "D256", "Dic128", "Z2xZ256", "Z512"]
CAYLEY_SPECS = ["Z120", "D64", "Dic32", "A5", "A6", "Z2xZ256", "D256", "Dic128", "Z1024"]
IS_CAYLEY_SPECS = ["A6", "S5", "Z2xZ256", "Dic128"]
FORMATS = ["json", "table", "dot"]


def _power_item(stratum: str, spec: str, directed: bool, fmt: str) -> Item:
    argv = ["power", "--group", spec, "--format", fmt] + (["--directed"] if directed else [])
    return Item(stratum, argv, {"kind": "power", "spec": spec, "directed": directed, "format": fmt})


def _cli_cayley_item(spec: str, directed: bool, fmt: str, rng: random.Random) -> Item:
    table = spec_table(spec)
    e, inv = identity_of(table), inverses_of(table)
    size = rng.randint(2, 6)
    chosen: set[int] = set()
    while len(chosen) < size:
        x = rng.randrange(len(table))
        if x != e:
            chosen.update((x,) if directed else (x, int(inv[x])))
    members = sorted(chosen)
    argv = ["cayley", "--group", spec, "--set", ",".join(map(str, members)), "--format", fmt]
    argv += ["--directed"] if directed else []
    return Item("cayley", argv, {"kind": "cayley", "spec": spec, "directed": directed,
                                 "format": fmt, "members": members})


def cli_fixed_items() -> list[Item]:
    """Run once per run, before the blocks: the two largest constructions."""
    return [_power_item("power_large", "Z2048", False, "json"),
            _power_item("power_large", "Z1024", True, "json")]


def cli_block(seed: int, block: int) -> list[Item]:
    """One block of the cli_construct workload: argv lists for groupgraphs.cli.main.

    Every block runs every spec.  Output format and orientation rotate with
    the block index, the same on every seed, because they change an item's
    cost several-fold; the seed picks connection sets and the item order.
    """
    rng = _rng(seed, block)

    def variant(i: int) -> tuple[bool, str]:
        return (i + block) % 2 == 1, FORMATS[(i + block) % 3]

    items = [_power_item("power_small", spec, *variant(i)) for i, spec in enumerate(SMALL_SPECS)]
    items += [_power_item("power_mid", spec, *variant(i)) for i, spec in enumerate(MID_SPECS)]
    items += [_cli_cayley_item(spec, *variant(i), rng) for i, spec in enumerate(CAYLEY_SPECS)]
    for i, spec in enumerate(IS_CAYLEY_SPECS):
        directed, fmt = (i + block) % 2 == 1, ("json", "table")[(i + block // 2) % 2]
        argv = ["is-cayley", "--group", spec, "--format", fmt] + (["--directed"] if directed else [])
        items.append(Item("is_cayley", argv, {"kind": "is-cayley", "spec": spec,
                                              "directed": directed, "format": fmt}))
    for fmt in ("json", "json", "table"):
        items.append(Item("verify", ["verify", "--format", fmt], {"kind": "verify", "format": fmt}))
    rng.shuffle(items)
    return items


BLOCKS = {"recognize": recognize_block, "enumerate": enumerate_block, "cli_construct": cli_block}


def composition(items: list[Item]) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in items:
        out[item.stratum] = out.get(item.stratum, 0) + 1
    return dict(sorted(out.items()))
