"""The built-in catalog of groups of order at most 15."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from groupgraphs.catalog import GROUP_COUNTS, catalog, catalog_entry
from tests.conftest import check_group_axioms


def test_catalog_has_28_entries(full_catalog) -> None:
    assert len(full_catalog) == 28


def test_per_order_counts(full_catalog) -> None:
    counts = Counter(group.order for group in full_catalog)
    assert dict(counts) == GROUP_COUNTS
    assert [GROUP_COUNTS[n] for n in range(1, 16)] == [
        1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1,
    ]


def test_names_unique_and_orders_match(full_catalog) -> None:
    names = [group.name for group in full_catalog]
    assert len(set(names)) == len(names)


def test_catalog_is_sorted_by_order(full_catalog) -> None:
    orders = [group.order for group in full_catalog]
    assert orders == sorted(orders)


def test_all_entries_satisfy_group_axioms(full_catalog) -> None:
    for group in full_catalog:
        check_group_axioms([list(row) for row in group.table])


def test_same_order_entries_are_pairwise_distinguished(full_catalog) -> None:
    def invariant(group):
        orders = sorted(group.element_order(g) for g in range(group.order))
        return (group.is_abelian(), tuple(orders))

    by_order: dict[int, list] = {}
    for group in full_catalog:
        by_order.setdefault(group.order, []).append(invariant(group))
    for order, invariants in by_order.items():
        assert len(set(invariants)) == len(invariants), order


def test_catalog_names_orders_and_tables_are_pinned(full_catalog) -> None:
    # sha256 over every group's name, order and int64 table bytes, in
    # catalog order; recorded while the catalog still called constructors
    digest = hashlib.sha256()
    for group in full_catalog:
        digest.update(f"{group.name} {group.order}\n".encode())
        digest.update(group.table.astype("<i8").tobytes())
    assert digest.hexdigest() == (
        "55f2575feed25fcfb4bccf89130e29f1c2fee11ed09f63a81919297e7919b70b")


def test_max_order_filter() -> None:
    assert len(catalog(1)) == 1
    assert len(catalog(8)) == 14
    assert [e.name for e in catalog(4)] == ["Z1", "Z2", "Z3", "Z4", "Z2xZ2"]
    assert [e.name for e in catalog()] == [
        "Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "S3", "Z7", "Z8", "Z2xZ4",
        "Z2xZ2xZ2", "D4", "Q8", "Z9", "Z3xZ3", "Z10", "D5", "Z11", "Z12", "Z2xZ6",
        "D6", "A4", "Dic3", "Z13", "Z14", "D7", "Z15",
    ]
    with pytest.raises(ValueError):
        catalog(0)
    with pytest.raises(ValueError):
        catalog(16)


def test_catalog_entry_lookup() -> None:
    group = catalog_entry("Q8")
    assert group.order == 8
    assert not group.is_abelian()
    with pytest.raises(KeyError):
        catalog_entry("Z16")


def test_expected_structural_properties() -> None:
    assert catalog_entry("A4").is_p_group() is False
    assert catalog_entry("Z8").is_cyclic_p_group()
    assert catalog_entry("Z3xZ3").is_p_group()
    assert not catalog_entry("Z3xZ3").is_cyclic()
    assert not catalog_entry("D6").is_abelian()
    assert catalog_entry("Z15").is_cyclic()
    assert not catalog_entry("Z15").is_p_group()
