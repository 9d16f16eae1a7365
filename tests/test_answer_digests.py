"""The same answers as recorded: one digest per graph, over a fixed corpus.

Each digest covers what the search and the recognition answer for a graph:
its automorphism listing in order (for the recognize blocks, whose groups
reach 11!, its first 2000 leaves), the first leaf of `leaves(v)` for each
v, the first 2000 leaves of each `leaves(v, moving=True)`, is_cayley's
verdict with its reason or its group table and connection set, and
is_vertex_transitive's verdict.  Every search is bounded by the graph's
order.  A change that moves a digest on purpose names it, and says why,
where the change is recorded.

The corpus: the enumerate and recognize benchmark blocks of seeds 1 and 2,
the Petersen graph and its complement, GP(n, k) for n <= 13, lexicographic
products C5 and C6 by K2 and its complement, K3,3,3, and seeded twin blow-ups, every vertex of a
random twin-free graph or digraph on 2-5 vertices replaced by an
open or closed class of 1-3 twins.
"""

from __future__ import annotations

import hashlib
import random
from functools import cache
from itertools import islice

import pytest

from bench import gen
from groupgraphs import symmetry
from groupgraphs.graphs import Digraph, SimpleGraph
from tests.conftest import complement, has_twins, petersen_graph, relabel, twin_blow_up
from tests.test_search_oracles import generalized_petersen

DRAWS = 2000


def answers(graph, listing: int | None = None) -> str:
    """Every answer pinned for one graph, as text; `listing` caps the listing."""
    n = graph.order
    search = symmetry._Search(graph.rows, n)
    if listing is None:
        leaves = [p.images for p in symmetry.automorphisms(graph, bound=n)]
    else:
        leaves = list(islice(search.leaves(), listing))
    verdict = symmetry.is_cayley(graph, bound=n)
    cayley = ((verdict.group.table.tolist(), sorted(verdict.connection.members), verdict.directed)
              if verdict else verdict.reason.value)
    return "\n".join(map(repr, [
        leaves,
        [next(search.leaves(v), None) for v in range(n)],
        [list(islice(search.leaves(v, moving=True), DRAWS)) for v in range(n)],
        cayley,
        symmetry.is_vertex_transitive(graph, bound=n),
    ]))


def digest(graph, listing: int | None = None) -> str:
    return hashlib.sha256(answers(graph, listing).encode()).hexdigest()[:12]


def item_graph(item: gen.Item):
    return (Digraph if item.expect["directed"] else SimpleGraph)(list(item.expect["rows"]))


def cycle(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def twin_blow_ups(count: int, seed: int) -> list:
    """Random relabelled twin blow-ups, undirected and directed in turn.

    A base with twins is drawn again, so the blown-up classes are exactly
    the twin classes, and |Aut| is at most |Aut(base)| * 6^5.
    """
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        directed = len(cases) % 2 == 1
        m = rng.randint(2, 5)
        pairs = [(u, v) for u in range(m) for v in range(m) if u != v and (directed or u < v)]
        arcs = [pair for pair in pairs if rng.random() < 0.5]
        base = Digraph.from_arcs(m, arcs) if directed else SimpleGraph.from_edges(m, arcs)
        if has_twins(base):
            continue
        graph = twin_blow_up(base, [rng.randint(1, 3) for _ in range(m)],
                             [rng.random() < 0.5 for _ in range(m)])
        cases.append(relabel(graph, rng.sample(range(graph.order), graph.order)))
    return cases


def lexicographic_products() -> dict[str, SimpleGraph]:
    """C5 and C6 with each vertex made a pair of twins, open or closed, and K3,3,3."""
    products = {f"{name}[{'K' if closed else 'co-K'}2]": twin_blow_up(base, [2] * m, [closed] * m)
                for name, base, m in [("C5", cycle(5), 5), ("C6", cycle(6), 6)]
                for closed in (False, True)}
    products["K3,3,3"] = twin_blow_up(SimpleGraph.complete(3), [3] * 3, [False] * 3)
    return products


@cache
def families() -> dict[str, list[tuple[str, object, int | None]]]:
    """Family name -> (case name, graph, listing cap) in a fixed order."""
    rng = random.Random(26)
    out = {}
    for seed in (1, 2):
        out[f"enumerate seed {seed}"] = [
            (f"{i} {item.expect['name']}", item_graph(item), None)
            for i, item in enumerate(gen.enumerate_block(seed, 0))]
        out[f"recognize seed {seed}"] = [
            (f"{i} {item.stratum}", item_graph(item), DRAWS)
            for i, item in enumerate(gen.recognize_block(seed, 0))]
    petersen = [petersen_graph(), complement(petersen_graph())]
    out["petersen"] = [(name, graph, None) for name, graph in zip(
        ["Petersen", "co-Petersen", "Petersen relabelled", "co-Petersen relabelled"],
        petersen + [relabel(graph, rng.sample(range(10), 10)) for graph in petersen])]
    out["generalized petersen"] = [(f"GP({n},{k})", generalized_petersen(n, k), None)
                                   for n in range(3, 14) for k in range(1, (n + 1) // 2)]
    products = lexicographic_products()
    out["lexicographic"] = [(name, graph, None) for name, graph in products.items()] + [
        (f"{name} relabelled", relabel(graph, rng.sample(range(graph.order), graph.order)), None)
        for name, graph in products.items()]
    out["twin blow-ups"] = [(f"{i} {'directed' if isinstance(graph, Digraph) else 'undirected'}"
                             f" n={graph.order}", graph, None)
                            for i, graph in enumerate(twin_blow_ups(100, 48))]
    return out


# the digests of each family's cases in order, recorded before the twin-class tails
DIGESTS = {
    "enumerate seed 1": """
        078a1ab52d74 bfc62105846b ccca56753a72 2b5227d4d0c3 e909331058c7 4070a33f052a
        ebb45a7ccc83 b5cf31cd1131 c093e00b709d 4a1832087ce7 71bdd61af7d4 34b1725c7482
        5a2cb5d45a7d d64a42d11ef6 be4f4630610b 399da0bcf917 3c2ad0a8c2fc 448bc456245c
        f8099eb6b4d3 3261e44ef4ed 846346aa053d 71bdd61af7d4 6d29bc721f83 f3e1875738a0
        794269c4d703 d77f66efacc1 cea04547b176 3232581af5c4 f708669163a9 e176702d72dc
        d7d691d2bad5 976ab063be73 cfd46f8c6fee 248c88f27611
    """,
    "recognize seed 1": """
        eafb21890a24 84d7623fb8e1 de56d5c84fda 468401db1eb0 2f91a3229c54 77b3fd8fb632
        f8b74d2b83a8 cdc6011875ab fe9a8b062db2 3232581af5c4 4b956c078e81 f40938b9c394
        717d189dddf2 94f448ac18f6 32b31b08a8a0 c9cd3f98f89e fce806d18cbc 0e94945931de
        397b9bbb841e 9273586144e7 87f25099bf4c b7e04efac593 db4bd8da6fb8 e7693c0ded6c
        fc0c09d0b189 208ca8918fa4 788f42cec0c8 2515254a916c 1adea2cdb08a 431729af2759
        701a97b94df7 dad48ca3ad06 56a6c06ec4bb a85c9e355e1c 095586d59777 e5ba2d8a362a
        c834f7413a35 431729af2759 5962ee402849 ff626b263b9f 525f33dedaf3 550839919b95
        f5028c3bf45c 0ef0d9a9c566 208ca8918fa4 748f7be57a96 ff626b263b9f 84d7623fb8e1
        fec114a6ffd0 b2901b18580e 979dbb004488 543f114142d3 e6507ef66744 39dad9a20e50
        4d26399e30c4 13d10c40879b a543fbdd35d6 644bb990b608 95180f7d0d8d 0337e22aff14
        e06904109523 3981bc59fba4 758092ade85f 025a403dcb71 84d7623fb8e1 1edce5071a15
        0d8b88eb29c3 d3802943f219 27a424515d5e 5ca474267bdc c37d94422807 3b902e12d1ce
        208ca8918fa4 e2d04b01512f
    """,
    "enumerate seed 2": """
        e909331058c7 d62647b69af7 e176702d72dc 71bdd61af7d4 3232581af5c4 dd89920521ed
        34993f137814 6d29bc721f83 2cc2455a7853 39e252a2f71c 5a2cb5d45a7d f8fd6b0987dd
        b152681c7ed4 063136ae65de 855d29ecc3b1 d9d9a4bbfb1e 71bdd61af7d4 afe6b1e52572
        71158cb3272f 9d6108bdc0b6 2b5227d4d0c3 4e126914ce24 a8765ab448fc 498959ae0d32
        523450cc196e 98498359d078 40b0b78dcd2b b472d8c2424d cfd46f8c6fee b817893715e7
        47ec38f225e7 f51962a93ab9 448bc456245c 846346aa053d
    """,
    "recognize seed 2": """
        dcc31d379909 b13927be5e88 b6c2f63d8259 4d7de1eb9ea5 3232581af5c4 efed9794edf1
        d62ba56c6b4e e438e9416829 3bedc8352b90 e746091676aa cae9f2ca1eaf 0c28d6ed6fa5
        68a8f0531d64 e96b5cfdf1ab a59d8ed47a4f fabb8eb42527 62881e11abbc 99dd69d74fbc
        0aca858f3f7f 08cf2a7acf3b 4f0d2995b0b0 dbffe14a5eea 84d7623fb8e1 099615293c6c
        0f538869f1a9 181247224946 cdeb10fc0787 37729b3ef4ec 07148d9850f8 ff626b263b9f
        ff626b263b9f 72bb02cc270e 54669e2d1333 9fe305bcf70d 79c788d1b44c 31b83404727c
        998b84d40043 891e74d39ac1 0597a4672b4c b2bee9862f59 a503913dfcdc b7dd16058139
        64c97f3efdc1 84d7623fb8e1 0a7623863a5d 74d15a1e0f93 ca6276a84ac0 500aed8b86b8
        9137015769ff b14ffd085bf0 addd28ca931f 3650a2a0ea16 3bbf67dde193 45d1cd431b5e
        ff626b263b9f f2eb89dec10c d053e263d60d a205c728f20f 05581f4e7ac3 a84ad3d08f9f
        3db8bc03afe2 f2af9e63f345 063136ae65de 23f7ae8fb2cc e30c2fedd667 38319451531b
        23f7ae8fb2cc 84d7623fb8e1 c97a92db385e 23f7ae8fb2cc b0498158541d 90142ad05684
        4a3d8e68e09a cdc6011875ab
    """,
    "petersen": """
        e176702d72dc e176702d72dc b0cdf983e80e 5d30f2f54723
    """,
    "generalized petersen": """
        1bba51752762 f0b997ad5f68 de9a5e325c55 e176702d72dc 8890b7f97edc 620e1d893673
        6779956b040d 22d33fb84034 22d33fb84034 528ff495de42 f3206e6f3280 943aef433671
        34f310c433d1 afb16e24bede afb16e24bede afb16e24bede 2d3417c238c3 4e748bbec530
        9146cca292bf 14de9b1ec6a2 93db1b86d1dc 7e1b4b4cd098 7e1b4b4cd098 7e1b4b4cd098
        7e1b4b4cd098 9d6c6908a445 3951b27460c9 3951b27460c9 3951b27460c9 322dc42abf9a
        d272d333d95f 512ed22c98ab 512ed22c98ab 512ed22c98ab 60a0b1f1530d 512ed22c98ab
    """,
    "lexicographic": """
        676f1d032699 a6e8a6a71a7c 7b3aa7cf57ea d248dd1dc0c3 28108f7f7b36 71b5ae62502f
        cf86074bc29f 760df7d793cb e70004c5b12e 3213f9521e81
    """,
    "twin blow-ups": """
        96e8dced2e3b a4344400b793 fb4b155a1c42 d22d2bdac13c 827588fffbdd dbf70729fb4b
        587202c0ea80 775a3fdddab1 bf7d1d1e682f 59f6355a1e3c 4832d8dc37c4 cf9c58b7caa5
        206301d9dfd2 58686d51d51b 7df3b6828e94 d30de387c0fa de3fbdcebda7 de43bed60db6
        53b35692114a 57b99e95dbf2 bafc404881ba 8889e659e2b7 27c57cf9e87d 3ac9f7fb5926
        d631f68c2155 62881e11abbc 4182b6aac94e 545d45fde20e f9e3dce78c87 505b1b641a9e
        df2425d377c8 861d915746ec bc12e89ecc82 31bb9dac8879 474c83449e4a d2282d965cc1
        05b92fa1c9c9 f739eaad3d61 24b9150f33da 2a6ec758320b d439ee1bc12a fc5052eff3c6
        820b73ba5b8a 0d8b88eb29c3 4bdd87596415 31bb9dac8879 c7e9dd4c656d 0beb0ded98b0
        6320b730fe66 bb6b16f1f344 398c15b14eff 61c3390227af 01860f4411a0 57169f652b9a
        381fc8055bda af2f07c1e2f2 268fe26ca5cc 28ca445febd8 d7d29d2d68ab 765db5e8aeee
        3757899fb5d0 5409c8027fc8 10487ae063bf 99dd69d74fbc 1d18ea9f0cd2 bc9024a04b70
        c2fb901dab8d 72ca9af67a31 a88b9469ffc0 8fbf5388fa3e fb65301404ad 72ca9af67a31
        a898ec61ac63 84dbd3cd0b99 a278aa866623 ede61bc55908 16edd5a1801d 7cf242902a9d
        8ff8409cba22 9f22c5306e21 93f9fa81b854 791f95ecf995 23b4e422dbbf a3de10b1dde5
        1481b357103e 6d0a56af5566 49246ef43c40 c9ee7fb77621 60f87ba2f597 39eb61ed7add
        f0febcd8e004 820b73ba5b8a 68f9fbc883b2 b277c59a87bb 91ff56be3cbe cf67de1fd960
        d8d604f918ae a0b2c21b6d33 0498412bc9f2 6f5cf4dc5d07
    """,
}


@pytest.mark.parametrize("family", list(DIGESTS))
def test_answers_match_their_recorded_digests(family) -> None:
    cases = families()[family]
    expected = DIGESTS[family].split()
    assert len(cases) == len(expected)
    for (name, graph, listing), recorded in zip(cases, expected):
        assert digest(graph, listing) == recorded, f"{family}: the answers to {name} moved"
