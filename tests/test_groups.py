"""Finite group construction, validation, and classification."""

from __future__ import annotations

import hashlib
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupgraphs import groups
from groupgraphs.catalog import catalog
from groupgraphs.errors import (
    ElementOutOfRange,
    InvalidOrder,
    NoIdentity,
    NotAssociative,
    NotClosed,
    NotInvertible,
)
from groupgraphs.groups import parse_group_spec
from tests.conftest import (
    associativity_violations,
    check_group_axioms,
    dicyclic_oracle,
    dihedral_oracle,
    permutation_oracle,
)


def test_from_table_z2() -> None:
    group = groups.from_table([[0, 1], [1, 0]])
    assert group.order == 2
    assert group.identity == 0


def test_from_table_rejects_repeated_row_entry() -> None:
    with pytest.raises(NotInvertible):
        groups.from_table([[0, 1], [1, 1]])


def test_from_table_rejects_out_of_range_entry() -> None:
    with pytest.raises(NotClosed) as info:
        groups.from_table([[0, 1], [1, 2]])
    assert info.value.entry == 2


@pytest.mark.parametrize("table, cell", [
    ([[0, 1.7], [1, 0]], (0, 1, 1.7)),
    ([["0", "1"], ["1", "0"]], (0, 0, "0")),
    ([[True, False], [False, True]], (0, 0, True)),
    ([[0, 2**70], [1, 0]], (0, 1, 2**70)),
])
def test_from_table_rejects_entries_that_are_not_integers(table, cell) -> None:
    with pytest.raises(NotClosed) as info:
        groups.from_table(table)
    assert (info.value.row, info.value.col, info.value.entry) == cell


def test_from_table_accepts_numpy_integer_tables() -> None:
    group = groups.from_table(np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert group.table.dtype == np.int16
    assert group.mul(1, 1) == 0


def test_from_table_rejects_missing_identity() -> None:
    # x*y = -(x+y) mod 3: every row/column is a permutation, but no
    # element is two-sided neutral.
    with pytest.raises(NoIdentity):
        groups.from_table([[0, 2, 1], [2, 1, 0], [1, 0, 2]])


def test_from_table_rejects_bad_shapes_and_columns() -> None:
    with pytest.raises(InvalidOrder):
        groups.from_table([[0, 1]])
    with pytest.raises(InvalidOrder):
        groups.FiniteGroup([[0]], element_names=["a", "b"])
    # rows are permutations, column 1 repeats 2
    with pytest.raises(NotInvertible) as info:
        groups.from_table([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    assert (info.value.axis, info.value.index) == ("column", 1)


@pytest.mark.parametrize("text", ["", "2 0 x 1 0", "0", "2 0 1 1"])
def test_from_table_text_rejects_malformed_text(text: str) -> None:
    with pytest.raises(InvalidOrder):
        groups.from_table_text(text)


def test_from_table_s3_composition() -> None:
    perms = [tuple(p) for p in permutations(range(3))]
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[x] for x in q)] for q in perms]
        for p in perms
    ]
    group = groups.from_table(table)
    assert group.order == 6
    assert group.identity == index[(0, 1, 2)]


# A 5x5 Latin square with identity 0 that is not a group table.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_from_table_rejects_non_associative_latin_square() -> None:
    table = LOOP5
    with pytest.raises(NotAssociative) as info:
        groups.from_table(table)
    a, b, c = info.value.triple
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_deferred_check_rejects_order_130_loop() -> None:
    # LOOP5 x Z26, pair (i, j) indexed as 26*i + j: a loop of order 130, so
    # construction defers the check and Light's test runs on generators
    loop, z = np.array(LOOP5), groups.cyclic(26).table
    table = (loop[:, None, :, None] * 26 + z[None, :, None, :]).reshape(130, 130)
    group = groups.from_table(table)
    assert group.order > groups.EAGER_ASSOCIATIVITY_BOUND
    with pytest.raises(NotAssociative) as info:
        group.check_associativity()
    a, s, c = info.value.triple
    assert table[table[a, s], c] != table[a, table[s, c]]


SMALL_GROUPS = [(group.table.tolist(), group.identity) for group in catalog(8)]


@st.composite
def loops(draw) -> tuple[list[list[int]], int]:
    """An identity-bearing Latin square of order <= 8 and its identity.

    A catalog group table, after up to two row-cycle switches that keep
    the identity (usually no longer associative), relabelled at random.
    A switch exchanges rows a and b on a cycle of columns that holds the
    same entries in both rows, so rows and columns stay permutations.
    """
    rows, e = draw(st.sampled_from(SMALL_GROUPS))
    table = [list(row) for row in rows]
    n = len(table)
    others = [x for x in range(n) if x != e]
    for _ in range(draw(st.integers(0, 2)) if n >= 3 else 0):
        a, b = draw(st.permutations(others))[:2]
        column = draw(st.sampled_from(others))
        cycle = [column]
        while (column := table[b].index(table[a][column])) != cycle[0]:
            cycle.append(column)
        if e not in cycle:
            for x in cycle:
                table[a][x], table[b][x] = table[b][x], table[a][x]
    sigma = draw(st.permutations(range(n)))
    relabelled = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            relabelled[sigma[x]][sigma[y]] = sigma[table[x][y]]
    return relabelled, sigma[e]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(loops())
def test_light_test_on_generators_matches_brute_force(loop) -> None:
    table, identity = loop
    t = np.array(table, dtype=np.int16)
    violation = groups._light_violation(t, groups._generators(t, identity))
    violations = associativity_violations(table)
    assert (violation is None) == (not violations)
    assert violation is None or violation in violations


def test_cyclic_examples() -> None:
    assert groups.cyclic(1).order == 1
    z4 = groups.cyclic(4)
    assert z4.mul(1, 3) == 0
    with pytest.raises(InvalidOrder):
        groups.cyclic(0)


def test_symmetric_3_is_non_abelian() -> None:
    s3 = groups.symmetric(3)
    assert s3.order == 6
    assert not s3.is_abelian()
    assert any(
        s3.mul(a, b) != s3.mul(b, a) for a in range(6) for b in range(6)
    )


def test_direct_product_z2_z3_is_cyclic() -> None:
    group = groups.direct_product(groups.cyclic(2), groups.cyclic(3))
    assert group.order == 6
    assert group.is_abelian()
    assert group.is_cyclic()
    assert any(group.element_order(g) == 6 for g in range(6))


def test_quaternion_has_one_involution() -> None:
    q8 = groups.quaternion()
    assert q8.order == 8
    involutions = [g for g in range(8) if q8.element_order(g) == 2]
    assert len(involutions) == 1


def test_constructor_parameter_bounds() -> None:
    with pytest.raises(InvalidOrder):
        groups.dihedral(1)
    with pytest.raises(InvalidOrder):
        groups.symmetric(0)
    with pytest.raises(InvalidOrder):
        groups.alternating(2)
    with pytest.raises(InvalidOrder):
        groups.dicyclic(1)


def test_power_examples() -> None:
    z6 = groups.cyclic(6)
    assert z6.power(2, 3) == 0
    assert z6.power(4, 0) == z6.identity
    s3 = groups.symmetric(3)
    three_cycles = [g for g in range(6) if s3.element_order(g) == 3]
    assert len(three_cycles) == 2
    a, b = three_cycles
    assert s3.power(a, 2) == b
    assert s3.power(b, 2) == a
    with pytest.raises(ElementOutOfRange):
        z6.power(6, 1)
    with pytest.raises(ValueError, match="non-negative"):
        z6.power(1, -1)


def test_power_matches_iterated_multiplication() -> None:
    for group in (groups.cyclic(7), groups.dihedral(4), groups.quaternion()):
        n = group.order
        for g in range(n):
            acc = group.identity
            for m in range(2 * n + 1):
                assert group.power(g, m) == acc
                acc = group.mul(acc, g)


def test_element_order_examples() -> None:
    z8 = groups.cyclic(8)
    assert z8.element_order(z8.identity) == 1
    assert z8.element_order(2) == 4
    s3 = groups.symmetric(3)
    transpositions = [g for g in range(6) if s3.element_order(g) == 2]
    assert len(transpositions) == 3
    with pytest.raises(ElementOutOfRange):
        s3.element_order(-1)


def test_cyclic_subgroup_examples() -> None:
    z6 = groups.cyclic(6)
    assert z6.cyclic_subgroup(2) == {0, 2, 4}
    assert z6.cyclic_subgroup(z6.identity) == {z6.identity}
    z8 = groups.cyclic(8)
    assert z8.cyclic_subgroup(3) == set(range(8))
    assert len(z6.cyclic_subgroup(5)) == z6.element_order(5)


def test_lagrange_on_small_groups() -> None:
    for group in (
        groups.cyclic(12),
        groups.dihedral(6),
        groups.symmetric(3),
        groups.alternating(4),
        groups.dicyclic(3),
    ):
        for g in range(group.order):
            assert group.order % group.element_order(g) == 0


def test_classification_examples() -> None:
    z8 = groups.cyclic(8)
    assert z8.is_cyclic() and z8.is_p_group() and z8.is_cyclic_p_group()
    assert z8.p_group_prime() == 2
    z6 = groups.cyclic(6)
    assert z6.is_cyclic() and not z6.is_p_group()
    q8 = groups.quaternion()
    assert q8.is_p_group() and not q8.is_cyclic()
    assert max(q8.element_order(g) for g in range(8)) == 4
    assert not groups.direct_product(groups.cyclic(2), groups.cyclic(2)).is_cyclic()


def test_trivial_group_is_cyclic_p_group() -> None:
    assert groups.cyclic(1).is_cyclic_p_group()


def test_cyclic_prime_powers_are_cyclic_p_groups() -> None:
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            if p**k <= 27:
                assert groups.cyclic(p**k).is_cyclic_p_group()


def test_constructor_outputs_satisfy_axioms() -> None:
    for group in (
        groups.cyclic(24),
        groups.dihedral(8),
        groups.symmetric(4),
        groups.alternating(4),
        groups.dicyclic(4),
        groups.quaternion(),
        groups.direct_product(groups.cyclic(4), groups.cyclic(5)),
    ):
        assert group.order <= 24
        check_group_axioms([list(row) for row in group.table])


def test_table_text_round_trip() -> None:
    for group in (groups.cyclic(5), groups.quaternion(), groups.symmetric(3)):
        text = group.table_text()
        lines = text.splitlines()
        assert lines[0] == str(group.order)
        assert len(lines) == group.order + 1
        restored = groups.from_table_text(text)
        assert restored == group


def test_deferred_associativity_above_bound() -> None:
    group = groups.cyclic(130)
    assert group.order > groups.EAGER_ASSOCIATIVITY_BOUND
    group.check_associativity()
    groups.cyclic(1024).check_associativity()


# sha256 of each table as little-endian int64, recorded from the int64
# constructors: the narrow ones must compute the same products
LARGE_TABLE_DIGESTS = {
    "Z2048": "aa21f3e0f82173205f83135559f210d061514814d60e735807064ec7dd0ace44",
    "D1024": "0185a11617d2adbd304a9e7d0397ffdde501dca3fddd94e8d5be5605d5cdd682",
    "Dic512": "8b7f295f9492d6ee209e7e928f2e25bbebdd4dc281a1d118d0accf6b48e5746a",
    "A6": "8cbe6b8a6c56438b340d5445cfc818e5210bfc390f9891a9f39b04866a599e68",
    "Z2xZ1024": "bc0bd4e89b3c9552e7d42ca1c31b5766af32e64c8faad4525c52970c26444f0a",
    "S5xZ2": "64ca08b0e348c2307a3c8b10aca8b6a610e7acb19f4a090f04f763607745ab32",
}


def test_large_tables_are_narrow_and_unchanged() -> None:
    assert groups._index_dtype(32767) is np.int16
    assert groups._index_dtype(32768) is np.int32
    for spec, digest in LARGE_TABLE_DIGESTS.items():
        table = parse_group_spec(spec).table
        assert table.dtype == np.int16
        assert hashlib.sha256(table.astype("<i8").tobytes()).hexdigest() == digest, spec


def test_parse_z2048_traced_peak() -> None:
    # measured 21.3 MB; the int64 table and its copies peaked at 68 MB
    tracemalloc.start()
    try:
        parse_group_spec("Z2048")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_dihedral_relations() -> None:
    d4 = groups.dihedral(4)
    assert d4.order == 8
    assert not d4.is_abelian()
    rotation, reflection = 1, 4
    assert d4.element_order(rotation) == 4
    assert d4.element_order(reflection) == 2
    # s * r = r^-1 * s
    assert d4.mul(reflection, rotation) == d4.mul(d4.inverse(rotation), reflection)


@pytest.mark.parametrize("m", range(2, 11))
def test_dihedral_and_dicyclic_match_matrix_oracles(m: int) -> None:
    assert groups.dihedral(m).table.tolist() == dihedral_oracle(m)
    assert groups.dicyclic(m).table.tolist() == dicyclic_oracle(m)


@pytest.mark.parametrize("build, k, even_only", [
    (groups.symmetric, 4, False),
    (groups.alternating, 5, True),
])
def test_permutation_groups_match_composition_oracle(build, k: int, even_only: bool) -> None:
    perms = [p for p in permutations(range(k))
             if not even_only
             or sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k)) % 2 == 0]
    group = build(k)
    assert group.element_names == tuple("(" + " ".join(map(str, p)) + ")" for p in perms)
    assert group.table.tolist() == permutation_oracle(perms)
