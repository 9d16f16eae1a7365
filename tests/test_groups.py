"""Finite group construction, validation, and classification."""

from __future__ import annotations

import hashlib
import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupgraphs import groups
from groupgraphs.catalog import CATALOG_SPECS, catalog
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
    LOOP5,
    associativity_violations,
    check_group_axioms,
    dicyclic_oracle,
    dihedral_oracle,
    is_group_table,
    loop130,
    permutation_oracle,
    searchsorted_permutation_rows,
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
    # every row holds the identity, column 1 repeats 2: not associative
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(NotAssociative) as info:
        groups.from_table(table)
    a, b, c = info.value.triple
    assert table[table[a][b]][c] != table[a][table[b][c]]


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


def test_from_table_rejects_non_associative_latin_square() -> None:
    table = LOOP5
    with pytest.raises(NotAssociative) as info:
        groups.from_table(table)
    a, b, c = info.value.triple
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_deferred_check_rejects_order_130_loop() -> None:
    # a loop of order 130: construction runs Light's test on generators
    table = loop130()
    with pytest.raises(NotAssociative) as info:
        groups.from_table(table)
    a, s, c = info.value.triple
    assert table[table[a, s], c] != table[a, table[s, c]]


def test_light_test_reaches_the_third_generator() -> None:
    # LOOP5 x Z2 x Z2, (l, i, j) indexed as 4*l + 2*i + j: the greedy
    # generators 1 and 2 pass, and the third, 4, fails
    z2 = np.array([[0, 1], [1, 0]])
    table = groups._product_table(groups._product_table(np.array(LOOP5), z2), z2)
    with pytest.raises(NotAssociative) as info:
        groups.from_table(table)
    a, s, c = info.value.triple
    assert (s, table[table[a, s], c] != table[a, table[s, c]]) == (4, True)


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
    violation = groups._greedy_light_violation(t, identity)
    violations = associativity_violations(table)
    assert (violation is None) == (not violations)
    assert violation is None or violation in violations


def check_like_the_axioms(table: list[list[int]]) -> bool:
    """Assert that FiniteGroup accepts `table` iff the plain-loop axioms
    hold, with their inverses, and that a rejection names a real fault."""
    n = len(table)
    try:
        group = groups.from_table(table)
    except NoIdentity:
        assert not any(all(table[e][g] == g == table[g][e] for g in range(n)) for e in range(n))
    except NotInvertible as exc:
        e = next(e for e in range(n) if all(table[e][g] == g == table[g][e] for g in range(n)))
        assert e not in table[exc.index]
    except NotAssociative as exc:
        a, b, c = exc.triple
        assert table[table[a][b]][c] != table[a][table[b][c]]
    else:
        assert is_group_table(table)
        e = group.identity
        assert all(table[g][group.inverse(g)] == e == table[group.inverse(g)][g] for g in range(n))
        return True
    assert not is_group_table(table)
    return False


@pytest.mark.parametrize("n", [1, 2, 3])
def test_checks_match_the_axioms_on_every_small_table(n: int) -> None:
    # every closed table with identity 0; Z_n is the only group among them
    accepted = 0
    for cells in product(range(n), repeat=(n - 1) ** 2):
        table = [list(range(n))] + [[r, *cells[(r - 1) * (n - 1):r * (n - 1)]]
                                    for r in range(1, n)]
        accepted += check_like_the_axioms(table)
    assert accepted == 1


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_checks_match_the_axioms_on_overwritten_tables(small, data) -> None:
    # a cell off the identity's row and column, overwritten with another
    # element, leaves an identity but not a Latin square
    table = [list(row) for row in small[0]]
    n = len(table)
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b, x in data.draw(st.lists(cells, min_size=1, max_size=3)):
        table[a][b] = x
    check_like_the_axioms(table)


def test_cyclic_examples() -> None:
    assert groups.cyclic(1).order == 1
    z4 = groups.cyclic(4)
    assert z4.mul(1, 3) == 0
    with pytest.raises(InvalidOrder):
        groups.cyclic(0)


def test_repr_names_the_group_and_its_order() -> None:
    assert repr(groups.cyclic(4)) == "<Z4 of order 4>"
    assert repr(groups.FiniteGroup([[0]])) == "<FiniteGroup of order 1>"


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


@pytest.mark.parametrize("build, message", [
    (lambda: groups.cyclic(2.5), "cyclic group order 2.5 is not an integer"),
    (lambda: groups.cyclic(True), "cyclic group order True is not an integer"),
    (lambda: groups.dihedral(3.0), "dihedral parameter 3.0 is not an integer"),
    (lambda: groups.dicyclic(2.5), "dicyclic parameter 2.5 is not an integer"),
    (lambda: groups.symmetric(3.5), "symmetric group parameter 3.5 is not an integer"),
    (lambda: groups.alternating(4.0), "alternating group parameter 4.0 is not an integer"),
    (lambda: groups.dihedral("3"), "dihedral parameter '3' is not an integer"),
    # the range messages are unchanged
    (lambda: groups.cyclic(0), "cyclic group order must be >= 1, got 0"),
    (lambda: groups.dihedral(1), "dihedral parameter must be >= 2, got 1"),
    (lambda: groups.dicyclic(1), "dicyclic parameter must be >= 2, got 1"),
    (lambda: groups.symmetric(0), "symmetric group parameter must be >= 1, got 0"),
    (lambda: groups.alternating(2), "alternating group parameter must be >= 3, got 2"),
])
def test_constructors_take_only_integers(build, message) -> None:
    with pytest.raises((ValueError, InvalidOrder)) as raised:
        build()
    assert str(raised.value) == message


def test_constructors_take_numpy_integers() -> None:
    assert groups.cyclic(np.int64(5)).name == "Z5"
    assert groups.dihedral(np.uint8(3)).order == 6


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
    with pytest.raises(ValueError) as raised:
        z6.power(1, 2.5)
    assert str(raised.value) == "exponent 2.5 is not an integer"


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
    # element indices pass the package's one integer check: no float, string or bool
    z6 = groups.cyclic(6)
    calls = [(lambda: z6.mul(1.7, 2), "element 1.7 is not an integer"),
             (lambda: z6.inverse("1"), "element '1' is not an integer"),
             (lambda: z6.inverse(True), "element True is not an integer"),
             (lambda: z6.element_order(2.0), "element 2.0 is not an integer")]
    for call, message in calls:
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message
    assert z6.mul(np.int64(1), 2) == 3


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
    # order 1 is no prime power p**k with k >= 1; trial division would never end
    assert groups.cyclic(1).p_group_prime() is None


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
    groups.cyclic(130).check_associativity()
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
    "S6": "9ef680a36806ba180032064852147913056ccd89be166c8016944890731a6941",
}


def test_large_tables_are_narrow_and_unchanged() -> None:
    assert groups._index_dtype(32767) is np.int16
    assert groups._index_dtype(32768) is np.int32
    for spec, digest in LARGE_TABLE_DIGESTS.items():
        table = parse_group_spec(spec).table
        assert table.dtype == np.int16
        assert hashlib.sha256(table.astype("<i8").tobytes()).hexdigest() == digest, spec


def test_built_tables_pass_the_checks() -> None:
    # the constructors skip the closure check and Light's test
    for spec in (*CATALOG_SPECS, *LARGE_TABLE_DIGESTS):
        built = parse_group_spec(spec)
        checked = groups.FiniteGroup(built.table)
        assert checked == built, spec
        assert (checked.identity, checked._inverses) == (built.identity, built._inverses), spec


def test_parse_z2048_traced_peak() -> None:
    # measured 21.3 MB; the int64 table and its copies peaked at 68 MB
    tracemalloc.start()
    try:
        parse_group_spec("Z2048")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_light_test_stops_at_the_first_failing_generator() -> None:
    # identity 0, x*x = 0 and x*y = x otherwise: closed, every row holds the
    # identity, and every other element would join a greedy generating set
    n = 1024
    table = np.repeat(np.arange(n)[:, None], n, axis=1)
    table[0] = np.arange(n)
    np.fill_diagonal(table, 0)
    tracemalloc.start()
    try:
        with pytest.raises(NotAssociative) as info:
            groups.from_table(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    a, s, c = info.value.triple
    assert (s, table[table[a, s], c] != table[a, table[s, c]]) == (1, True)
    # measured 7.5 MB: the table's own copy, then 5.5 MB for one generator's test
    assert peak < 16e6


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


@pytest.mark.parametrize("build, k", [(groups.symmetric, k) for k in range(1, 8)]
                         + [(groups.alternating, k) for k in range(3, 8)])
def test_permutation_tables_match_the_row_by_row_builder(build, k: int) -> None:
    perms = [p for p in permutations(range(k))
             if build is groups.symmetric
             or sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k)) % 2 == 0]
    group = build(k)
    assert group.element_names == tuple("(" + " ".join(map(str, p)) + ")" for p in perms)
    # every row up to k = 6; at k = 7 every 16th row, which meets every row block
    rows = range(0, len(perms), 1 if k < 7 else 16)
    assert np.array_equal(group.table[rows], searchsorted_permutation_rows(perms, rows))
