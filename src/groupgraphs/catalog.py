"""Built-in catalog of all finite groups of order at most 15.

Up to isomorphism there are 28 groups of order <= 15.  Orders 1-7, 9-11,
and 13-15 contain only cyclic groups, direct products of cyclic groups,
and dihedral groups; order 8 adds the quaternion group and order 12 adds
the alternating group ``A4`` and the dicyclic group ``Dic3``.

The catalog is deterministic: entries are sorted by order, and within an
order they appear in a fixed conventional sequence (cyclic first, then
abelian products, then the non-abelian groups).
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    FiniteGroup,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    quaternion,
    symmetric,
)

#: Number of groups of each order 1..15, up to isomorphism.
GROUP_COUNTS: dict[int, int] = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
    9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1,
}

MAX_CATALOG_ORDER = 15


@dataclass(frozen=True)
class CatalogEntry:
    """A named group from the built-in catalog."""

    name: str
    order: int
    group: FiniteGroup

    def __post_init__(self) -> None:
        if self.group.order != self.order:
            raise ValueError(
                f"catalog entry {self.name!r} declares order {self.order} "
                f"but its table has order {self.group.order}"
            )


def catalog(max_order: int = MAX_CATALOG_ORDER) -> list[CatalogEntry]:
    """Return all groups of order <= ``max_order`` (up to isomorphism).

    ``max_order`` must lie in ``1..15``.  Each entry is named by the name
    its constructor gave the group, e.g. ``Z2xZ4`` or ``Dic3``.
    """
    if not 1 <= max_order <= MAX_CATALOG_ORDER:
        raise ValueError(
            f"max_order must be between 1 and {MAX_CATALOG_ORDER}, got {max_order}"
        )
    groups = [
        cyclic(1),
        cyclic(2),
        cyclic(3),
        cyclic(4),
        direct_product(cyclic(2), cyclic(2)),
        cyclic(5),
        cyclic(6),
        symmetric(3),
        cyclic(7),
        cyclic(8),
        direct_product(cyclic(2), cyclic(4)),
        direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2))),
        dihedral(4),
        quaternion(),
        cyclic(9),
        direct_product(cyclic(3), cyclic(3)),
        cyclic(10),
        dihedral(5),
        cyclic(11),
        cyclic(12),
        direct_product(cyclic(2), cyclic(6)),
        dihedral(6),
        alternating(4),
        dicyclic(3),
        cyclic(13),
        cyclic(14),
        dihedral(7),
        cyclic(15),
    ]
    return [CatalogEntry(name=g.name, order=g.order, group=g)
            for g in groups if g.order <= max_order]


def catalog_entry(name: str) -> CatalogEntry:
    """Look up a catalog entry by its exact name."""
    for entry in catalog():
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog group named {name!r}")
