"""Exception types, and the integer check of outside input, shared across the package."""

import operator


def _integer(value, message: str, **names) -> int:
    """`value` as a plain int, else ValueError(message.format(value=value, **names))."""
    try:
        if isinstance(value, bool):    # operator.index takes bools
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(message.format(value=value, **names)) from None


class GroupGraphsError(Exception):
    """Base class for all errors raised by this package."""


# -- multiplication table validation ----------------------------------------

class InvalidOrder(GroupGraphsError):
    """A constructor parameter is outside its allowed range."""


class NotClosed(GroupGraphsError):
    """A table entry is not an element index in [0, n)."""

    def __init__(self, row: int, col: int, entry: object):
        super().__init__(f"table[{row}][{col}] = {entry!r} is not an index in [0, n)")
        self.row = row
        self.col = col
        self.entry = entry


class NoIdentity(GroupGraphsError):
    """No element acts as a two-sided identity."""


class NotInvertible(GroupGraphsError):
    """A row of the table lacks the identity: its element has no right inverse."""

    def __init__(self, index: int):
        super().__init__(f"row {index} of the table does not hold the identity")
        self.index = index


class NotAssociative(GroupGraphsError):
    """The table violates associativity; carries one violating triple."""

    def __init__(self, triple: tuple[int, int, int]):
        a, b, c = triple
        super().__init__(f"(a*b)*c != a*(b*c) for (a, b, c) = ({a}, {b}, {c})")
        self.triple = triple


class ElementOutOfRange(GroupGraphsError):
    """An element index is outside [0, n)."""


# -- graphs -----------------------------------------------------------------

class VertexOutOfRange(GroupGraphsError):
    """A vertex index is outside [0, n)."""


class MalformedEncoding(GroupGraphsError):
    """A graph6/digraph6 string does not match the format."""


class UnsupportedOrder(GroupGraphsError):
    """Graph order is outside the supported serialization range (1..62)."""


# -- Cayley graphs ----------------------------------------------------------

class IdentityInConnectionSet(GroupGraphsError):
    """The connection set contains the group identity."""


class NotInverseClosed(GroupGraphsError):
    """The connection set is not closed under inverses; names a violator."""

    def __init__(self, element: int, inverse: int):
        super().__init__(
            f"connection set contains {element} but not its inverse {inverse}"
        )
        self.element = element
        self.inverse = inverse


# -- symmetry search --------------------------------------------------------

class SearchBoundExceeded(GroupGraphsError):
    """The graph to search has more vertices than the caller's bound allows."""

    def __init__(self, order: int, bound: int):
        super().__init__(f"graph order {order} exceeds the search bound {bound}")
        self.order = order
        self.bound = bound

