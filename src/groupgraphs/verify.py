"""Exhaustive verification of the power-graph / Cayley-graph theorem.

For every group ``G`` in the built-in catalog this module checks, by
direct computation on the graphs themselves, that

* the undirected power graph of ``G`` is a Cayley graph exactly when
  ``G`` is a cyclic group of prime-power order (equivalently, exactly
  when the power graph is complete), and
* the directed power graph of ``G`` is never a Cayley graph when ``G``
  has order at least 2.  (The trivial group is exempt: its directed
  power graph is the one-vertex arcless digraph, which is the Cayley
  graph of the trivial group with the empty connection set.)

Each group yields one :class:`VerificationRow`; a row is *consistent*
when the computed facts line up with the claims above.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .catalog import MAX_CATALOG_ORDER, catalog
from .groups import FiniteGroup
from .powergraph import directed_power_graph
from .symmetry import is_cayley, is_vertex_transitive


@dataclass(frozen=True)
class VerificationRow:
    """Computed facts about one catalog group and its power graphs."""

    name: str
    order: int
    cyclic_p_group: bool
    pg_complete: bool
    pg_vertex_transitive: bool
    pg_cayley: bool
    dpg_cayley: bool
    consistent: bool


def _row_consistent(
    order: int,
    cyclic_p_group: bool,
    pg_complete: bool,
    pg_cayley: bool,
    dpg_cayley: bool,
) -> bool:
    undirected_ok = cyclic_p_group == pg_complete == pg_cayley
    directed_ok = order == 1 or not dpg_cayley
    return undirected_ok and directed_ok


def verify_group(group: FiniteGroup) -> VerificationRow:
    """Compute the verification row for one group, named by ``group.name``.

    The identity is joined to every element, so the degree filter or the
    complete fast path settles every decision here without a search.
    """
    dpg = directed_power_graph(group)
    pg = dpg.underlying_undirected()
    cyclic_p = group.is_cyclic_p_group()
    pg_complete = pg.is_complete()
    pg_vt = is_vertex_transitive(pg)
    pg_cay = bool(is_cayley(pg))
    dpg_cay = bool(is_cayley(dpg))
    return VerificationRow(
        name=group.name,
        order=group.order,
        cyclic_p_group=cyclic_p,
        pg_complete=pg_complete,
        pg_vertex_transitive=pg_vt,
        pg_cayley=pg_cay,
        dpg_cayley=dpg_cay,
        consistent=_row_consistent(group.order, cyclic_p, pg_complete, pg_cay, dpg_cay),
    )


def verify_theorem(max_order: int = MAX_CATALOG_ORDER) -> list[VerificationRow]:
    """Verify the theorem over all catalog groups of order <= ``max_order``.

    One row per group, in catalog order; ``consistent`` is false on a row
    that contradicts the theorem, and the CLI then exits with status 1.
    """
    return [verify_group(group) for group in catalog(max_order)]


_COLUMNS = (
    ("name", "group"),
    ("order", "order"),
    ("cyclic_p_group", "cyclic-p"),
    ("pg_complete", "pg-complete"),
    ("pg_vertex_transitive", "pg-vt"),
    ("pg_cayley", "pg-cayley"),
    ("dpg_cayley", "dpg-cayley"),
    ("consistent", "consistent"),
)


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def format_table(rows: list[VerificationRow]) -> str:
    """Render rows as an aligned plain-text table."""
    header = [label for _, label in _COLUMNS]
    body = [[_cell(getattr(row, field)) for field, _ in _COLUMNS] for row in rows]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
        for i in range(len(header))
    ]

    def fmt(line: list[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()

    out = [fmt(header), fmt(["-" * w for w in widths])]
    out.extend(fmt(line) for line in body)
    if any(row.order == 1 for row in rows):
        out.append("")
        out.append(
            "note: the order-1 group is exempt from the directed claim; its "
            "directed power graph (one vertex, no arcs) is trivially a Cayley graph."
        )
    return "\n".join(out)


def format_jsonl(rows: list[VerificationRow]) -> str:
    """Render rows as JSON Lines, one object per row, keys in field order."""
    return "\n".join(json.dumps(asdict(row)) for row in rows)
