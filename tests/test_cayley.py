"""Cayley graph construction, connection sets, and left translations."""

from __future__ import annotations

import pytest

from groupgraphs import cayley, graphs, groups
from groupgraphs.cayley import ConnectionSet
from groupgraphs.errors import (
    ElementOutOfRange,
    IdentityInConnectionSet,
    NotInverseClosed,
)
from tests.conftest import sampled_connection_sets


def test_connection_set_validation() -> None:
    conn = ConnectionSet(6, (1, 5))
    assert len(conn) == 2
    assert list(conn) == [1, 5]
    with pytest.raises(ElementOutOfRange):
        ConnectionSet(6, (6,))
    with pytest.raises(ElementOutOfRange):
        ConnectionSet(6, (-1,))


@pytest.mark.parametrize("order, members, bad", [
    (4.9, [1], "order 4.9"), (4, [1.7], "member 1.7"), (4, [True], "member True"),
    (True, [], "order True"), ("4", [], "order '4'"),
])
def test_connection_set_rejects_what_is_not_an_integer(order, members, bad) -> None:
    with pytest.raises(ValueError, match=f"connection set {bad} is not an integer"):
        ConnectionSet(order, members)


@pytest.mark.parametrize("order", [0, -3])
def test_connection_set_rejects_an_order_below_1(order) -> None:
    with pytest.raises(ValueError, match=f"connection set order {order} is below 1"):
        ConnectionSet(order)


def test_identity_rejected_at_construction() -> None:
    group = groups.cyclic(5)
    with pytest.raises(IdentityInConnectionSet):
        cayley.directed_cayley(group, ConnectionSet(5, (0, 1)))


def test_connection_set_of_another_order_rejected() -> None:
    with pytest.raises(ValueError):
        cayley.directed_cayley(groups.cyclic(3), ConnectionSet(4, [1]))


def test_inverse_closure_predicate() -> None:
    z6 = groups.cyclic(6)
    assert ConnectionSet(6, (1, 5)).is_inverse_closed(z6)
    assert not ConnectionSet(6, (1,)).is_inverse_closed(z6)
    assert ConnectionSet(6, (3,)).is_inverse_closed(z6)  # involution


def test_directed_cycle() -> None:
    z5 = groups.cyclic(5)
    d = cayley.directed_cayley(z5, ConnectionSet(5, (1,)))
    assert set(d.arcs()) == {(i, (i + 1) % 5) for i in range(5)}
    assert all(d.out_degree(v) == 1 and d.in_degree(v) == 1 for v in range(5))


def test_empty_connection_set_gives_arcless_graph() -> None:
    q8 = groups.quaternion()
    d = cayley.directed_cayley(q8, ConnectionSet(8, ()))
    assert d.arc_count() == 0
    und = cayley.undirected_cayley(q8, ConnectionSet(8, ()))
    assert und.is_edgeless()


def test_s3_single_transposition_gives_perfect_matching() -> None:
    s3 = groups.symmetric(3)
    transpositions = [g for g in range(6) if s3.element_order(g) == 2]
    t = transpositions[0]
    d = cayley.directed_cayley(s3, ConnectionSet(6, (t,)))
    arcs = set(d.arcs())
    assert len(arcs) == 6
    for g in range(6):
        h = s3.mul(g, t)
        assert (g, h) in arcs and (h, g) in arcs


def test_z4_pair_gives_four_cycle() -> None:
    z4 = groups.cyclic(4)
    und = cayley.undirected_cayley(z4, ConnectionSet(4, (1, 3)))
    assert und == graphs.SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_all_non_identity_gives_complete_graph() -> None:
    for n in (2, 5, 7):
        group = groups.cyclic(n)
        und = cayley.undirected_cayley(group, ConnectionSet(n, tuple(range(1, n))))
        assert und.is_complete()


def test_z6_subgroup_connection_set_gives_two_triangles() -> None:
    z6 = groups.cyclic(6)
    und = cayley.undirected_cayley(z6, ConnectionSet(6, (2, 4)))
    triangles = {frozenset({0, 2, 4}), frozenset({1, 3, 5})}
    components = set()
    for start in range(6):
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in und.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        components.add(frozenset(seen))
    assert components == triangles


def test_undirected_requires_inverse_closed() -> None:
    z5 = groups.cyclic(5)
    with pytest.raises(NotInverseClosed) as info:
        cayley.undirected_cayley(z5, ConnectionSet(5, (1,)))
    assert info.value.element == 1
    assert info.value.inverse == 4


def test_regularity_of_cayley_graphs(full_catalog) -> None:
    for group in full_catalog:
        for members in sampled_connection_sets(group):
            conn = ConnectionSet(group.order, members)
            d = cayley.directed_cayley(group, conn)
            assert all(d.out_degree(v) == len(members) for v in range(group.order))
            assert all(d.in_degree(v) == len(members) for v in range(group.order))
            und = cayley.undirected_cayley(group, conn)
            assert und.is_regular()
            assert und == d.underlying_undirected()


def test_matches_definitional_oracle() -> None:
    for group in (groups.dihedral(4), groups.cyclic(9), groups.quaternion()):
        n = group.order
        members = sampled_connection_sets(group)[-1]
        conn = ConnectionSet(n, members)
        d = cayley.directed_cayley(group, conn)
        for g in range(n):
            for h in range(n):
                expected = g != h and group.mul(group.inverse(g), h) in set(members)
                assert d.has_arc(g, h) == expected


def test_left_translation_identity_and_shift() -> None:
    z4 = groups.cyclic(4)
    assert cayley.left_translation(z4, z4.identity).is_identity()
    shift = cayley.left_translation(z4, 1)
    assert shift.images == (1, 2, 3, 0)
    with pytest.raises(ElementOutOfRange):
        cayley.left_translation(z4, 4)
    for element in (1.5, "1"):
        with pytest.raises(ValueError) as raised:
            cayley.left_translation(z4, element)
        assert str(raised.value) == f"element {element!r} is not an integer"


def test_left_translation_preserves_s3_transposition_arcs() -> None:
    s3 = groups.symmetric(3)
    t = next(g for g in range(6) if s3.element_order(g) == 2)
    d = cayley.directed_cayley(s3, ConnectionSet(6, (t,)))
    for a in range(6):
        sigma = cayley.left_translation(s3, a)
        for g in range(6):
            for h in range(6):
                assert d.has_arc(g, h) == d.has_arc(sigma(g), sigma(h))


def test_left_translations_act_regularly(full_catalog) -> None:
    for group in full_catalog:
        translations = [cayley.left_translation(group, a) for a in group.elements()]
        images_of_zero = {sigma(0) for sigma in translations}
        assert images_of_zero == set(range(group.order))
        for a, sigma in enumerate(translations):
            if any(sigma(v) == v for v in range(group.order)):
                assert a == group.identity
