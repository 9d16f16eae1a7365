"""Theorem verification rows, table rendering, and JSON lines output."""

from __future__ import annotations

import json

import pytest

from groupgraphs import symmetry, verify
from groupgraphs.groups import parse_group_spec
from groupgraphs.catalog import catalog, catalog_entry


def test_all_rows_consistent() -> None:
    rows = verify.verify_theorem()
    assert len(rows) == 28
    assert all(row.consistent for row in rows)


def test_z8_row() -> None:
    row = verify.verify_group(catalog_entry("Z8"))
    assert row.cyclic_p_group
    assert row.pg_complete
    assert row.pg_vertex_transitive
    assert row.pg_cayley
    assert not row.dpg_cayley
    assert row.consistent


def test_z6_row() -> None:
    row = verify.verify_group(catalog_entry("Z6"))
    assert not row.cyclic_p_group
    assert not row.pg_complete
    assert not row.pg_vertex_transitive
    assert not row.pg_cayley
    assert not row.dpg_cayley
    assert row.consistent


def test_trivial_group_row_is_exempt_from_directed_claim() -> None:
    row = verify.verify_group(catalog_entry("Z1"))
    assert row.cyclic_p_group
    assert row.pg_cayley
    assert row.dpg_cayley  # K_1 is the Cayley graph of the trivial group
    assert row.consistent


def test_z15_is_cyclic_but_not_p_group() -> None:
    row = verify.verify_group(catalog_entry("Z15"))
    assert not row.cyclic_p_group
    assert not row.pg_complete
    assert not row.pg_cayley
    assert row.consistent


def test_group_outside_the_catalog_gets_a_row() -> None:
    for spec, cyclic_p in (("Z16", True), ("Z2xZ8", False), ("D8", False)):
        row = verify.verify_group(parse_group_spec(spec))
        assert (row.name, row.order) == (spec, 16)
        assert row.cyclic_p_group == row.pg_complete == row.pg_cayley == cyclic_p
        assert not row.dpg_cayley
        assert row.consistent


def test_max_order_restriction() -> None:
    rows = verify.verify_theorem(max_order=6)
    assert [row.name for row in rows] == ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "S3"]
    with pytest.raises(ValueError):
        verify.verify_theorem(max_order=0)


def test_format_table_layout() -> None:
    rows = verify.verify_theorem(max_order=4)
    text = verify.format_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == [
        "group", "order", "cyclic-p", "pg-complete", "pg-vt",
        "pg-cayley", "dpg-cayley", "consistent",
    ]
    assert len([ln for ln in lines if ln and not ln.startswith(("group", "-", "note"))]) == 5
    assert "order-1 group is exempt" in text


def test_exemption_note_only_with_trivial_group() -> None:
    rows = [r for r in verify.verify_theorem(max_order=6) if r.order >= 2]
    assert "order-1" not in verify.format_table(rows)


def test_format_jsonl_round_trips() -> None:
    rows = verify.verify_theorem(max_order=8)
    text = verify.format_jsonl(rows)
    parsed = [json.loads(line) for line in text.splitlines()]
    assert len(parsed) == 14
    assert parsed[0] == {
        "name": "Z1",
        "order": 1,
        "cyclic_p_group": True,
        "pg_complete": True,
        "pg_vertex_transitive": True,
        "pg_cayley": True,
        "dpg_cayley": True,
        "consistent": True,
    }
    names = [obj["name"] for obj in parsed]
    assert names == [e.name for e in catalog(8)]


def test_jsonl_is_deterministic() -> None:
    first = verify.format_jsonl(verify.verify_theorem(max_order=10))
    second = verify.format_jsonl(verify.verify_theorem(max_order=10))
    assert first == second


def test_no_decision_reaches_the_search(monkeypatch) -> None:
    def no_search(*args, **kwargs):
        raise AssertionError("verify reached the automorphism search")

    monkeypatch.setattr(symmetry, "_search_automorphisms", no_search)
    rows = verify.verify_theorem()
    assert len(rows) == 28
    assert all(row.consistent for row in rows)
