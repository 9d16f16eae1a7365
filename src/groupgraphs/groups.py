"""Finite groups as validated multiplication tables over indices 0..n-1.

Every group lives in one uniform representation: a dense n x n table with
``table[g][h]`` the index of the product g*h, stored as int16 (int32 above
order 32767), the narrowest signed type that holds every index.  Named
presentations (permutations, rotation/reflection words, ...) exist only
inside the constructors and as display labels; the constructors compute in
a type wide enough for their intermediate values, because int16 arithmetic
wraps around silently.

Associativity is checked by Light's test (Clifford & Preston, *The
Algebraic Theory of Semigroups* I, 1961, section 1.2) on a generating set,
which is exact and costs O(|S| n^2) instead of O(n^3).

Groups are named by specs such as ``Z2xZ2xZ3``, read by :func:`parse_group_spec`
for both the CLI's ``--group`` and the built-in catalog.
"""

from __future__ import annotations

import math
import re
from itertools import permutations as _iter_permutations
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ElementOutOfRange,
    InvalidOrder,
    NoIdentity,
    NotAssociative,
    NotClosed,
    NotInvertible,
)

# Above this order the associativity check is deferred until
# check_associativity() is called explicitly.
EAGER_ASSOCIATIVITY_BOUND = 128

# Up to this order check_associativity() takes every element as a generator,
# which is the plain n^3 comparison.  Above it, finding a small generating set
# costs less than the comparisons it saves: at order 20, 25-28 us against
# 43 us (2-vCPU VM, Python 3.11, numpy 2.4).
ALL_GENERATORS_ORDER = 16


def _index_dtype(n: int) -> type[np.signedinteger]:
    """The narrowest signed integer type holding every index in [0, n)."""
    return np.int16 if n < 1 << 15 else np.int32


def _check_closed(t: np.ndarray) -> None:
    """Raise NotClosed at the first entry that is not an integer in [0, n)."""
    n = t.shape[0]
    if t.dtype.kind not in "iu":
        for (r, c), x in np.ndenumerate(t):
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x < n:
                raise NotClosed(r, c, x)
    elif t.min() < 0 or t.max() >= n:
        r, c = np.argwhere((t < 0) | (t >= n))[0].tolist()
        raise NotClosed(r, c, int(t[r, c]))


def _generators(t: np.ndarray, identity: int) -> np.ndarray:
    """A generating set of the Latin square t with a two-sided identity e.

    Greedy: the smallest element not yet reached is added, until every
    element is reached from e by right multiplications with members of
    the set.  Each element is then a product (((e*s1)*s2)*...) of members,
    found with t's product alone (no inverses or element orders), so the
    set generates t even when t is not associative.
    """
    n = t.shape[0]
    reached = [False] * n
    reached[identity] = True
    members = [identity]
    gens: list[int] = []
    columns: list[list[int]] = []     # columns[i][x] = x * gens[i]
    for g in range(n):
        if reached[g]:
            continue
        gens.append(g)
        columns.append(t[:, g].tolist())
        stack = list(members)
        while stack:
            x = stack.pop()
            for column in columns:
                y = column[x]
                if not reached[y]:
                    reached[y] = True
                    members.append(y)
                    stack.append(y)
    return np.array(gens, dtype=np.intp)


def _light_violation(t: np.ndarray, gens: np.ndarray | slice) -> tuple[int, int, int] | None:
    """The first (a, s, c) with s in gens and (a*s)*c != a*(s*c), or None.

    `gens` indexes the elements; ``slice(None)`` takes all of them.
    """
    left = t[t[:, gens]]      # left[a, i, c] = (a * s_i) * c
    right = t[:, t[gens]]     # right[a, i, c] = a * (s_i * c)
    if np.array_equal(left, right):
        return None
    a, i, c = np.argwhere(left != right)[0]
    return int(a), int(np.arange(len(t))[gens][i]), int(c)


class FiniteGroup:
    """A finite group of order n on element indices 0..n-1.

    Instances are immutable after construction and safe for concurrent
    reads; every operation is a pure function of the inputs.
    """

    __slots__ = ("order", "identity", "name", "element_names",
                 "_table", "_inverses", "_assoc_checked")

    def __init__(self, table, name: str | None = None,
                 element_names: Sequence[str] | None = None):
        arr = np.asarray(table)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise InvalidOrder(f"table must be square and non-empty, got shape {arr.shape}")
        # any other table (floats, bools, strings, ints past 64 bits) is
        # checked entry by entry as the caller wrote it
        _check_closed(arr if arr.dtype.kind in "iu" else np.array(table, dtype=object))
        n = int(arr.shape[0])
        # every entry is in [0, n), so the narrowing is exact; this copy is
        # the group's own, whatever the caller does with its table later
        arr = arr.astype(_index_dtype(n))
        self.order = n
        self._table = arr
        self.name = name
        if element_names is not None:
            if len(element_names) != n:
                raise InvalidOrder("element_names must have one entry per element")
            self.element_names = tuple(str(s) for s in element_names)
        else:
            self.element_names = tuple(str(i) for i in range(n))

        self.identity = self._find_identity()
        self._check_latin_square()
        self._inverses = self._compute_inverses()
        self._assoc_checked = False
        if n <= EAGER_ASSOCIATIVITY_BOUND:
            self.check_associativity()
        arr.setflags(write=False)

    # -- validation ---------------------------------------------------------

    def _find_identity(self) -> int:
        n = self.order
        idx = np.arange(n)
        for e in range(n):
            if np.array_equal(self._table[e], idx) and np.array_equal(self._table[:, e], idx):
                return e
        raise NoIdentity(f"no two-sided identity in table of order {n}")

    def _check_latin_square(self) -> None:
        # entries are in range (closure), so a line of n entries is a
        # permutation iff it hits every value
        n = self.order
        idx = np.arange(n)
        hit = np.zeros((n, n), dtype=bool)
        hit[idx[:, None], self._table] = True      # hit[row, value]
        row_ok = hit.all(axis=1)
        if not row_ok.all():
            raise NotInvertible("row", int(np.argmin(row_ok)))
        hit[:] = False
        hit[self._table, idx] = True               # hit[value, column]
        col_ok = hit.all(axis=0)
        if not col_ok.all():
            raise NotInvertible("column", int(np.argmin(col_ok)))

    def check_associativity(self) -> None:
        """Check (a*s)*c == a*(s*c) for all a, c and each s of a generating set.

        This is Light's test, and it is exact: the elements s that pass are
        closed under products, so when a generating set passes, every
        element does.  Up to order ``ALL_GENERATORS_ORDER`` the set is the
        whole group, the plain n^3 comparison; above it, a greedy set from
        `_generators`.  A failure raises NotAssociative with one violating
        triple (a, s, c).  Runs automatically at construction for order
        <= 128, on demand above; cached after the first success.
        """
        if self._assoc_checked:
            return
        t = self._table
        gens = (slice(None) if self.order <= ALL_GENERATORS_ORDER
                else _generators(t, self.identity))
        violation = _light_violation(t, gens)
        if violation is not None:
            raise NotAssociative(violation)
        self._assoc_checked = True

    # -- element arithmetic -------------------------------------------------

    @property
    def table(self) -> np.ndarray:
        """The (read-only) multiplication table."""
        return self._table

    def _check_element(self, g: int) -> int:
        g = int(g)
        if not 0 <= g < self.order:
            raise ElementOutOfRange(f"element {g} not in [0, {self.order})")
        return g

    def mul(self, a: int, b: int) -> int:
        return int(self._table[self._check_element(a), self._check_element(b)])

    def inverse(self, g: int) -> int:
        return self._inverses[self._check_element(g)]

    def _compute_inverses(self) -> tuple[int, ...]:
        # each row holds the identity exactly once (Latin square), in row order
        return tuple(np.nonzero(self._table == self.identity)[1].tolist())

    def power(self, g: int, m: int) -> int:
        """g**m by binary exponentiation; g**0 is the identity."""
        g = self._check_element(g)
        if m < 0:
            raise ValueError("exponent must be non-negative")
        result = self.identity
        base = g
        while m:
            if m & 1:
                result = int(self._table[result, base])
            base = int(self._table[base, base])
            m >>= 1
        return result

    def element_order(self, g: int) -> int:
        """Smallest m >= 1 with g**m equal to the identity: the size of <g>."""
        return len(self.cyclic_subgroup(g))

    def cyclic_subgroup(self, g: int) -> set[int]:
        """The set of positive powers of g (always contains the identity)."""
        g = self._check_element(g)
        powers = {g}
        x = g
        while x != self.identity:
            x = int(self._table[x, g])
            powers.add(x)
        return powers

    def elements(self) -> range:
        return range(self.order)

    # -- classification -----------------------------------------------------

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self._table, self._table.T))

    def is_cyclic(self) -> bool:
        """True iff some element generates the whole group."""
        return any(self.element_order(g) == self.order for g in range(self.order))

    def p_group_prime(self) -> int | None:
        """The prime p with order p**k (k >= 1), or None.

        Trial division is exact here; by Lagrange it agrees with
        element-order inspection.  The trivial group returns None but still
        counts as a p-group (see is_p_group).
        """
        n = self.order
        if n == 1:
            return None
        p = 2
        while p * p <= n:
            if n % p == 0:
                break
            p += 1
        else:
            p = n
        while n % p == 0:
            n //= p
        return p if n == 1 else None

    def is_p_group(self) -> bool:
        """True iff the order is a prime power p**k; the trivial group counts."""
        return self.order == 1 or self.p_group_prime() is not None

    def is_cyclic_p_group(self) -> bool:
        return self.is_p_group() and self.is_cyclic()

    # -- serialization ------------------------------------------------------

    def table_text(self) -> str:
        """Multiplication-table text: first line n, then n rows of n indices."""
        lines = [str(self.order)]
        for row in self._table:
            lines.append(" ".join(str(int(x)) for x in row))
        return "\n".join(lines) + "\n"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FiniteGroup)
                and self.order == other.order
                and np.array_equal(self._table, other._table))

    def __hash__(self) -> int:
        return hash(self._table.tobytes())

    def __repr__(self) -> str:
        label = self.name or "FiniteGroup"
        return f"<{label} of order {self.order}>"


# -- construction from raw tables -------------------------------------------

def from_table(table: Iterable[Iterable[int]], name: str | None = None) -> FiniteGroup:
    """Validate an n x n index table and return the group it defines."""
    return FiniteGroup(table, name=name)


def from_table_text(text: str, name: str | None = None) -> FiniteGroup:
    """Parse the table text format written by FiniteGroup.table_text."""
    tokens = text.split()
    if not tokens:
        raise InvalidOrder("empty table text")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise InvalidOrder(f"non-integer token in table text: {exc}") from None
    n = values[0]
    if n <= 0:
        raise InvalidOrder(f"declared order must be positive, got {n}")
    if len(values) != 1 + n * n:
        raise InvalidOrder(
            f"expected {n * n} table entries for order {n}, got {len(values) - 1}"
        )
    rows = [values[1 + i * n: 1 + (i + 1) * n] for i in range(n)]
    return FiniteGroup(rows, name=name)


# -- catalog constructors ---------------------------------------------------

def cyclic(n: int) -> FiniteGroup:
    """The cyclic group Z_n with table[a][b] = (a + b) mod n."""
    if n < 1:
        raise InvalidOrder(f"cyclic group order must be >= 1, got {n}")
    idx = np.arange(n, dtype=_index_dtype(2 * n))   # sums reach 2n - 2
    table = np.add.outer(idx, idx)
    np.subtract(table, n, out=table, where=table >= n)
    return FiniteGroup(table, name=f"Z{n}")


def dihedral(m: int) -> FiniteGroup:
    """The dihedral group D_m of the m-gon, order 2m.

    Indices 0..m-1 are the rotations r^i, indices m..2m-1 the reflections
    s*r^i; an element acts on the m-gon as x -> a + eps*x with eps = +-1.
    """
    if m < 2:
        raise InvalidOrder(f"dihedral parameter must be >= 2, got {m}")

    idx = np.arange(2 * m, dtype=_index_dtype(2 * m))
    a, ea = (idx % m)[:, None], (idx // m)[:, None]
    b, eb = idx % m, idx // m
    # x -> b + t*x, then x -> a + s*x, is x -> (a + s*b) + s*t*x  (s, t = +-1)
    table = np.where(ea, a - b, a + b) % m + m * (ea ^ eb)
    names = [f"r{i}" for i in range(m)] + [f"sr{i}" for i in range(m)]
    return FiniteGroup(table, name=f"D{m}", element_names=names)


def _perm_table(perms: list[tuple[int, ...]]) -> np.ndarray:
    """table[i, j] = index of perms[i] o perms[j]; perms must be in lex order.

    A permutation's base-k code orders like the permutation itself, so the
    codes of lex-ordered perms are sorted and searchsorted maps a composed
    code back to its index.  One row is composed at a time, which keeps the
    working memory at O(n * k) beside the n x n table.
    """
    arr = np.array(perms, dtype=np.int64).reshape(len(perms), -1)
    k = arr.shape[1]
    weights = k ** np.arange(k - 1, -1, -1, dtype=np.int64)
    codes = arr @ weights
    table = np.empty((len(perms), len(perms)), dtype=_index_dtype(len(perms)))
    for i, p in enumerate(arr):
        table[i] = np.searchsorted(codes, p[arr] @ weights)
    return table


def _perm_name(p: tuple[int, ...]) -> str:
    return "(" + " ".join(str(x) for x in p) + ")"


def symmetric(k: int) -> FiniteGroup:
    """The symmetric group S_k, order k!, elements ordered lexicographically.

    Elements are image tuples p; the product of p and q is x -> p[q[x]].
    """
    if k < 1:
        raise InvalidOrder(f"symmetric group parameter must be >= 1, got {k}")
    perms = [tuple(p) for p in _iter_permutations(range(k))]
    return FiniteGroup(_perm_table(perms), name=f"S{k}",
                       element_names=[_perm_name(p) for p in perms])


def alternating(k: int) -> FiniteGroup:
    """The alternating group A_k, order k!/2, even permutations in lex order.

    Products compose as in symmetric(): p times q is x -> p[q[x]].
    """
    if k < 3:
        raise InvalidOrder(f"alternating group parameter must be >= 3, got {k}")
    perms = [tuple(p) for p in _iter_permutations(range(k)) if _is_even(p)]
    return FiniteGroup(_perm_table(perms), name=f"A{k}",
                       element_names=[_perm_name(p) for p in perms])


def _is_even(p: Sequence[int]) -> bool:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inversions % 2 == 0


def dicyclic(m: int) -> FiniteGroup:
    """The dicyclic group Dic_m of order 4m.

    Presentation a^(2m) = 1, b^2 = a^m, b*a = a^-1*b; indices 0..2m-1 are
    a^i, indices 2m..4m-1 are a^i*b.
    """
    if m < 2:
        raise InvalidOrder(f"dicyclic parameter must be >= 2, got {m}")
    two_m = 2 * m
    idx = np.arange(4 * m, dtype=_index_dtype(4 * m))
    i, bi = (idx % two_m)[:, None], (idx // two_m)[:, None]
    j, bj = idx % two_m, idx // two_m
    # a^i * a^j b^bj = a^(i+j) b^bj; a^i b * a^j b^bj = a^(i-j) b^(1+bj), b^2 = a^m
    table = np.where(bi, i - j + m * bj, i + j) % two_m + two_m * (bi ^ bj)
    names = [f"a{i}" for i in range(two_m)] + [f"a{i}b" for i in range(two_m)]
    return FiniteGroup(table, name=f"Dic{m}", element_names=names)


def quaternion() -> FiniteGroup:
    """The quaternion group Q_8 (the m = 2 dicyclic group)."""
    group = dicyclic(2)
    return FiniteGroup(group.table, name="Q8", element_names=group.element_names)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """The direct product, pair (i, j) indexed as i*|H| + j."""
    nh = h.order
    dtype = _index_dtype(g.order * nh)
    gt, ht = g.table.astype(dtype, copy=False), h.table.astype(dtype, copy=False)
    table = (gt[:, None, :, None] * nh + ht[None, :, None, :]).reshape(
        g.order * nh, g.order * nh
    )
    gname = g.name or "G"
    hname = h.name or "H"
    names = [f"({g.element_names[i]},{h.element_names[j]})"
             for i in range(g.order) for j in range(nh)]
    return FiniteGroup(table, name=f"{gname}x{hname}", element_names=names)


# -- group specs --------------------------------------------------------------

#: Largest group a spec may name.
MAX_CLI_GROUP_ORDER = 4096

_ATOM_RE = re.compile(r"(Dic|Z|D|S|A)([0-9]+)")


def _parse_atom(token: str) -> tuple[int, Callable[[], FiniteGroup]]:
    """One factor's order and its constructor, checked but not yet called."""
    if token == "Q8":
        return 8, quaternion
    match = _ATOM_RE.fullmatch(token)
    if match is None:
        raise ValueError(
            f"bad group spec {token!r}: expected Zn, Dn, Sn, An, Q8, or Dicn"
        )
    kind, num = match.group(1), int(match.group(2))
    if kind in ("S", "A"):
        # k! grows with k and 8!/2 is already over the limit, so cap k first
        order = math.factorial(min(num, 8)) // (2 if kind == "A" else 1)
    else:
        order = {"Z": 1, "D": 2, "Dic": 4}[kind] * num
    if order > MAX_CLI_GROUP_ORDER:
        raise ValueError(
            f"group spec {token!r} exceeds the CLI order limit of {MAX_CLI_GROUP_ORDER}"
        )
    # looked up per call, so a constructor replaced on this module is used
    build = {"Z": cyclic, "D": dihedral, "S": symmetric,
             "A": alternating, "Dic": dicyclic}[kind]
    return order, lambda: build(num)


def parse_group_spec(spec: str) -> FiniteGroup:
    """Build a group from a spec like ``Z6``, ``D4``, or ``Z2xZ2xZ3``.

    Atoms are ``Zn`` (cyclic), ``Dn`` (dihedral, order 2n), ``Sn``
    (symmetric), ``An`` (alternating), ``Q8`` and ``Dicn`` (dicyclic, order
    4n); ``x`` joins factors.  Products fold left, so ``AxBxC`` means
    ``(AxB)xC``.  The group is named by its constructors, so the name is the
    spec's canonical spelling (``Z06`` gives ``Z6``).  Every order is
    checked against ``MAX_CLI_GROUP_ORDER`` before any group is built.
    """
    parts = spec.split("x")
    if any(part == "" for part in parts):
        raise ValueError(f"bad group spec {spec!r}: empty factor")
    order, builders = 1, []
    for part in parts:
        factor, build = _parse_atom(part)
        order *= factor
        if order > MAX_CLI_GROUP_ORDER:
            raise ValueError(
                f"group spec {spec!r} exceeds the CLI order limit of {MAX_CLI_GROUP_ORDER}"
            )
        builders.append(build)
    group = builders[0]()
    for build in builders[1:]:
        group = direct_product(group, build())
    return group
