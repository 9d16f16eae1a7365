"""Built-in catalog of all finite groups of order at most 15.

Up to isomorphism there are 28 groups of order <= 15.  Orders 1-7, 9-11,
and 13-15 contain only cyclic groups, direct products of cyclic groups,
and dihedral groups; order 8 adds the quaternion group and order 12 adds
the alternating group ``A4`` and the dicyclic group ``Dic3``.

The catalog is a list of specs read by ``groups.parse_group_spec``, sorted
by order, and within an order in a fixed conventional sequence (cyclic
first, then abelian products, then the non-abelian groups).
"""

from __future__ import annotations

from .errors import _integer
from .groups import FiniteGroup, parse_group_spec

#: Number of groups of each order 1..15, up to isomorphism.
GROUP_COUNTS: dict[int, int] = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
    9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1,
}

MAX_CATALOG_ORDER = 15

#: The catalog's groups as specs, in catalog order.
CATALOG_SPECS: tuple[str, ...] = (
    "Z1", "Z2", "Z3", "Z4", "Z2xZ2",
    "Z5", "Z6", "S3", "Z7", "Z8",
    "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8", "Z9",
    "Z3xZ3", "Z10", "D5", "Z11", "Z12",
    "Z2xZ6", "D6", "A4", "Dic3", "Z13",
    "Z14", "D7", "Z15",
)


def catalog(max_order: int = MAX_CATALOG_ORDER) -> list[FiniteGroup]:
    """Return all groups of order <= ``max_order`` (up to isomorphism).

    ``max_order`` must lie in ``1..15``.  Each group is built from its spec
    and named by its constructors, e.g. ``Z2xZ4`` or ``Dic3``.
    """
    max_order = _integer(max_order, "max_order {value!r} is not an integer")
    if not 1 <= max_order <= MAX_CATALOG_ORDER:
        raise ValueError(
            f"max_order must be between 1 and {MAX_CATALOG_ORDER}, got {max_order}"
        )
    return [g for g in map(parse_group_spec, CATALOG_SPECS) if g.order <= max_order]


def catalog_entry(name: str) -> FiniteGroup:
    """The catalog group with exactly this name (each name is its spec)."""
    if name not in CATALOG_SPECS:
        raise KeyError(f"no catalog group named {name!r}")
    return parse_group_spec(name)
