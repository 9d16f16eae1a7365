"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a ``[A#] PASS``/``[A#] FAIL`` line with its wall-clock
time directly to the terminal (bypassing pytest capture).  All
assertions are exact — no tolerances anywhere.  Timings are printed for
inspection but never asserted.

Criteria:

* A1 completeness: undirected power graph complete <=> cyclic p-group.
* A2 undirected theorem: power graph Cayley <=> cyclic p-group, with
  fast rejects alone deciding every non-cyclic-p-group case of order > 12.
* A3 directed theorem: directed power graphs of nontrivial groups have
  the identity-degree signature and are never Cayley graphs.
* A4 translations: left translations of sampled Cayley graphs preserve
  arcs and act transitively and freely.
* A5 sharpness: the Petersen graph is vertex-transitive yet not Cayley,
  confirmed by an independent order-10-subgroup oracle.
* A6 oracle equivalence: pruned automorphism search equals the n!-filter
  on every corpus graph with at most 7 vertices.
* A7 witness round-trip: every successful recognition reconstructs its
  input graph bit-exactly.
* A8 serialization: graph6/digraph6 round-trip identity on the corpus,
  with the frozen encodings of K_2 and K_4.
* A9 catalog validity: all 28 groups satisfy the group axioms, per-order
  counts match, and same-order entries are pairwise distinguished.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import combinations_with_replacement

from groupgraphs import cayley, graphs, powergraph, symmetry
from groupgraphs.catalog import catalog
from groupgraphs.cayley import ConnectionSet
from groupgraphs.graphs import Digraph, SimpleGraph
from groupgraphs.symmetry import NotCayleyReason
from tests.conftest import (
    brute_force_automorphisms,
    check_group_axioms,
    petersen_graph,
    sampled_connection_sets,
)


def _run(capsys, label: str, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"\n[{label}] FAIL ({elapsed:.2f} s)")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"\n[{label}] PASS ({elapsed:.2f} s)")


def _corpus_small() -> list[SimpleGraph | Digraph]:
    """All power graphs and sampled Cayley graphs on at most 7 vertices."""
    out: list[SimpleGraph | Digraph] = []
    for group in catalog(7):
        out.append(powergraph.directed_power_graph(group))
        out.append(powergraph.undirected_power_graph(group))
        for members in sampled_connection_sets(group):
            conn = ConnectionSet(group.order, members)
            out.append(cayley.directed_cayley(group, conn))
            out.append(cayley.undirected_cayley(group, conn))
    return out


def _corpus_full() -> list[SimpleGraph | Digraph]:
    """The small corpus plus both power graphs of every catalog group."""
    out = _corpus_small()
    for group in catalog():
        out.append(powergraph.directed_power_graph(group))
        out.append(powergraph.undirected_power_graph(group))
    return out


def test_a1_completeness_criterion(capsys) -> None:
    def body() -> None:
        entries = catalog()
        assert len(entries) == 28
        for group in entries:
            pg = powergraph.undirected_power_graph(group)
            assert pg.is_complete() == group.is_cyclic_p_group(), group.name

    _run(capsys, "A1", body)


def test_a2_undirected_power_graph_cayley_iff_cyclic_p_group(capsys) -> None:
    def body() -> None:
        for group in catalog():
            pg = powergraph.undirected_power_graph(group)
            expected = group.is_cyclic_p_group()
            verdict = symmetry.is_cayley(pg)
            assert bool(verdict) == expected, group.name
            if group.order > 12 and not expected:
                # Orders 13..15 exceed the search bound, so the fast
                # degree reject must have decided these by itself.
                assert verdict.reason is NotCayleyReason.NOT_REGULAR_DEGREE, group.name

    _run(capsys, "A2", body)


def test_a3_directed_power_graph_never_cayley(capsys) -> None:
    def body() -> None:
        for group in catalog():
            if group.order < 2:
                continue
            dpg = powergraph.directed_power_graph(group)
            e = group.identity
            assert dpg.out_degree(e) == 0, group.name
            assert dpg.in_degree(e) == group.order - 1, group.name
            assert not dpg.has_constant_in_out_degrees(), group.name
            verdict = symmetry.is_cayley(dpg)
            assert not verdict, group.name
            assert verdict.reason is NotCayleyReason.NOT_REGULAR_DEGREE, group.name

    _run(capsys, "A3", body)


def test_a4_left_translations_act_regularly(capsys) -> None:
    def body() -> None:
        for group in catalog():
            n = group.order
            translations = [cayley.left_translation(group, a) for a in range(n)]
            for members in sampled_connection_sets(group):
                graph = cayley.directed_cayley(group, ConnectionSet(n, members))
                for sigma in translations:
                    for g in range(n):
                        for h in range(n):
                            assert graph.has_arc(g, h) == graph.has_arc(
                                sigma(g), sigma(h)
                            ), (group.name, members)
            assert {sigma(0) for sigma in translations} == set(range(n)), group.name
            for a, sigma in enumerate(translations):
                if any(sigma(v) == v for v in range(n)):
                    assert a == group.identity, group.name
            assert translations[group.identity].is_identity(), group.name

    _run(capsys, "A4", body)


def _order_10_subgroups(images: list[tuple[int, ...]]) -> list[frozenset]:
    """Every order-10 subgroup of the given closed permutation list.

    Groups of order 10 are generated by at most two elements, so closing
    every generator pair (with early abort past 10 elements) finds them
    all.
    """
    identity = tuple(range(10))

    def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(p[v] for v in q)

    found: set[frozenset] = set()
    for p, q in combinations_with_replacement(images, 2):
        elems = {identity, p, q}
        queue = list(elems)
        alive = True
        while queue and alive:
            a = queue.pop()
            for b in list(elems):
                for c in (compose(a, b), compose(b, a)):
                    if c not in elems:
                        elems.add(c)
                        queue.append(c)
                        if len(elems) > 10:
                            alive = False
                            break
                if not alive:
                    break
        if alive and len(elems) == 10:
            found.add(frozenset(elems))
    return sorted(found, key=sorted)


def test_a5_petersen_vertex_transitive_but_not_cayley(capsys) -> None:
    def body() -> None:
        pet = petersen_graph()
        auts = symmetry.automorphisms(pet)
        assert len(auts) == 120
        assert symmetry.is_vertex_transitive(pet)
        verdict = symmetry.is_cayley(pet)
        assert not verdict
        assert verdict.reason is NotCayleyReason.NO_REGULAR_SUBGROUP

        # Independent oracle: enumerate all order-10 subgroups of the
        # automorphism group and confirm none acts regularly.
        images = [p.images for p in auts]
        subgroups = _order_10_subgroups(images)
        assert subgroups, "oracle found no order-10 subgroups at all"
        for subgroup in subgroups:
            images_of_zero = {p[0] for p in subgroup}
            assert images_of_zero != set(range(10)), "oracle found a regular subgroup"

    _run(capsys, "A5", body)


def test_a6_pruned_search_equals_brute_force(capsys) -> None:
    def body() -> None:
        corpus = [g for g in _corpus_small() if g.order <= 7]
        assert len(corpus) >= 18
        for graph in corpus:
            pruned = [p.images for p in symmetry.automorphisms(graph)]
            brute = brute_force_automorphisms(graph)
            assert set(pruned) == set(brute)
            assert len(pruned) == len(brute)

    _run(capsys, "A6", body)


def test_a7_witness_round_trip(capsys) -> None:
    def body() -> None:
        recognized = 0
        for graph in _corpus_small():
            verdict = symmetry.is_cayley(graph)
            if verdict:
                recognized += 1
                assert verdict.reconstruct() == graph
        for group in catalog():
            if not group.is_cyclic_p_group():
                continue
            pg = powergraph.undirected_power_graph(group)
            witness = symmetry.is_cayley(pg)
            assert witness, group.name
            recognized += 1
            assert witness.reconstruct() == pg, group.name
        assert recognized > 30

    _run(capsys, "A7", body)


def test_a8_serialization_round_trip(capsys) -> None:
    def body() -> None:
        assert graphs.to_graph6(SimpleGraph.complete(2)) == "A_"
        assert graphs.to_graph6(SimpleGraph.complete(4)) == "C~"
        for graph in _corpus_full():
            if isinstance(graph, Digraph):
                assert graphs.from_digraph6(graphs.to_digraph6(graph)) == graph
            else:
                assert graphs.from_graph6(graphs.to_graph6(graph)) == graph

    _run(capsys, "A8", body)


def test_a9_catalog_groups_are_valid_and_distinct(capsys) -> None:
    def body() -> None:
        entries = catalog()
        assert len(entries) == 28
        for group in entries:
            check_group_axioms([list(row) for row in group.table])
        counts = Counter(group.order for group in entries)
        assert [counts[n] for n in range(1, 16)] == [
            1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1,
        ]
        invariants: dict[int, list] = {}
        for group in entries:
            key = (
                group.is_abelian(),
                tuple(sorted(group.element_order(g) for g in range(group.order))),
            )
            invariants.setdefault(group.order, []).append(key)
        for order, keys in invariants.items():
            assert len(set(keys)) == len(keys), order

    _run(capsys, "A9", body)
