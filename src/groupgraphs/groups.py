"""Finite groups as validated multiplication tables over indices 0..n-1.

Every group lives in one uniform representation: a dense n x n table with
``table[g][h]`` the index of the product g*h, stored as int16 (int32 above
order 32767), the narrowest signed type that holds every index.  Named
presentations (permutations, rotation/reflection words, ...) exist only
inside the constructors and as display labels; the constructors compute in
a type wide enough for their intermediate values, because int16 arithmetic
wraps around silently.

Associativity is checked by Light's test (Clifford & Preston, *The
Algebraic Theory of Semigroups* I, 1961, section 1.2) on a generating set
of at most log2(n) elements (every element up to order 16), which is exact
and costs O(n^2 log n) instead of O(n^3).

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
    _integer,
)

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


def _light_violation(t: np.ndarray, gens: np.ndarray | slice) -> tuple[int, int, int] | None:
    """The first (a, s, c) with s in gens and (a*s)*c != a*(s*c), or None.

    `gens` indexes the elements; ``slice(None)`` takes all of them.
    """
    left = t[t[:, gens]]                  # left[a, i, c] = (a * s_i) * c
    # np.take gathers the columns about ten times faster than t[:, t[gens]]
    right = np.take(t, t[gens], axis=1)   # right[a, i, c] = a * (s_i * c)
    if np.array_equal(left, right):
        return None
    a, i, c = np.argwhere(left != right)[0]
    return int(a), int(np.arange(len(t))[gens][i]), int(c)


def _greedy_light_violation(t: np.ndarray, identity: int) -> tuple[int, int, int] | None:
    """Light's test on greedy generators of t, each tested before it is added.

    Each is the smallest element not yet reached from the identity by right
    multiplications with those before it.  If every row holds the identity,
    the reached set R is a subgroup while they pass, and R*s is as large as R
    and disjoint from it for a passing s: at most floor(log2 n) + 1 are tested.
    """
    reached = [x == identity for x in range(len(t))]
    members = [identity]
    columns: list[list[int]] = []     # columns[i][x] = x * (generator i)
    for g in range(len(t)):
        if reached[g]:
            continue
        violation = _light_violation(t, slice(g, g + 1))
        if violation is not None:
            return violation
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
    return None


class FiniteGroup:
    """A finite group of order n on element indices 0..n-1.

    ``FiniteGroup(table)`` checks closure (NotClosed), a two-sided identity
    (NoIdentity), the identity in every row (NotInvertible) and Light's test
    (NotAssociative) at every order, since a finite monoid in which every
    element has a right inverse is a group.  The constructors' tables go
    through `_built`.  Instances are immutable after construction and safe
    for concurrent reads; every operation is a pure function of the inputs.
    """

    __slots__ = ("order", "identity", "name", "element_names", "_table", "_inverses")

    def __init__(self, table, name: str | None = None,
                 element_names: Sequence[str] | None = None):
        arr = np.asarray(table)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise InvalidOrder(f"table must be square and non-empty, got shape {arr.shape}")
        # any other table (floats, bools, strings, ints past 64 bits) is
        # checked entry by entry as the caller wrote it
        _check_closed(arr if arr.dtype.kind in "iu" else np.array(table, dtype=object))
        # every entry is in [0, n), so the narrowing is exact; this copy is
        # the group's own, whatever the caller does with its table later
        self._setup(arr.astype(_index_dtype(len(arr))), name, element_names)
        self.check_associativity()

    @classmethod
    def _built(cls, table: np.ndarray, name: str | None = None,
               element_names: Sequence[str] | None = None) -> FiniteGroup:
        """A group on a table built as one here: no closure check, Light's test or __init__."""
        group = cls.__new__(cls)
        group._setup(table.astype(_index_dtype(len(table)), copy=False), name, element_names)
        return group

    def _setup(self, table: np.ndarray, name: str | None,
               element_names: Sequence[str] | None) -> None:
        n = self.order = len(table)
        self._table = table
        self.name = name
        self.element_names = tuple(map(str, range(n) if element_names is None else element_names))
        if len(self.element_names) != n:
            raise InvalidOrder("element_names must have one entry per element")
        self.identity = self._find_identity()
        self._inverses = self._compute_inverses()
        table.setflags(write=False)

    # -- validation ---------------------------------------------------------

    def _find_identity(self) -> int:
        n = self.order
        idx = np.arange(n)
        for e in range(n):
            if np.array_equal(self._table[e], idx) and np.array_equal(self._table[:, e], idx):
                return e
        raise NoIdentity(f"no two-sided identity in table of order {n}")

    def _compute_inverses(self) -> tuple[int, ...]:
        # each row's first identity: a right inverse, and the only inverse in a group
        inverses = np.argmax(self._table == self.identity, axis=1)
        missing = np.flatnonzero(self._table[np.arange(self.order), inverses] != self.identity)
        if len(missing):
            raise NotInvertible(int(missing[0]))
        return tuple(inverses.tolist())

    def check_associativity(self) -> None:
        """Check (a*s)*c == a*(s*c) for all a, c and each s of a generating set.

        This is Light's test, and it is exact: the elements s that pass are
        closed under products, so when a generating set passes, every
        element does.  Up to order ``ALL_GENERATORS_ORDER`` the set is the
        whole group, the plain n^3 comparison; above it, a greedy set from
        `_greedy_light_violation`, which tests at most floor(log2 n) + 1
        elements in O(n^2) memory.  A failure raises NotAssociative with one
        violating triple (a, s, c).  ``FiniteGroup(table)`` runs it, and so
        does each call.
        """
        t = self._table
        violation = (_light_violation(t, slice(None)) if self.order <= ALL_GENERATORS_ORDER
                     else _greedy_light_violation(t, self.identity))
        if violation is not None:
            raise NotAssociative(violation)

    # -- element arithmetic -------------------------------------------------

    @property
    def table(self) -> np.ndarray:
        """The (read-only) multiplication table."""
        return self._table

    def _check_element(self, g: int) -> int:
        g = _integer(g, "element {value!r} is not an integer")
        if not 0 <= g < self.order:
            raise ElementOutOfRange(f"element {g} not in [0, {self.order})")
        return g

    def mul(self, a: int, b: int) -> int:
        return int(self._table[self._check_element(a), self._check_element(b)])

    def inverse(self, g: int) -> int:
        return self._inverses[self._check_element(g)]

    def power(self, g: int, m: int) -> int:
        """g**m by binary exponentiation; g**0 is the identity."""
        g = self._check_element(g)
        m = _integer(m, "exponent {value!r} is not an integer")
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
    """Check an n x n index table as a group table and return the group."""
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

def _sum_table(k: int) -> np.ndarray:
    """table[i, j] = (i + j) mod k, in a type that also holds indices below 2k."""
    idx = np.arange(k, dtype=_index_dtype(2 * k))   # sums reach 2k - 2
    table = np.add.outer(idx, idx)
    np.subtract(table, k, out=table, where=table >= k)
    return table


def cyclic(n: int) -> FiniteGroup:
    """The cyclic group Z_n with table[a][b] = (a + b) mod n."""
    n = _integer(n, "cyclic group order {value!r} is not an integer")
    if n < 1:
        raise InvalidOrder(f"cyclic group order must be >= 1, got {n}")
    return FiniteGroup._built(_sum_table(n), name=f"Z{n}")


def _index2_extension(k: int, twist: int, name: str, labels: tuple[str, str]) -> FiniteGroup:
    """The group of order 2k made of a cyclic <a> of order k and its coset <a>b.

    Relations b*a = a^-1*b and b^2 = a^twist; index i is a^i, index k+i is
    a^i*b, and `labels` name the two kinds.  With A[i, j] = i+j and S[i, j]
    = i-j = A[i, -j] (mod k) the table is [[A, A+k], [S+k, S+twist]].
    """
    a, j = _sum_table(k), np.arange(k)
    table = np.block([[a, a + k], [a[:, -j % k] + k, a[:, (twist - j) % k]]])
    names = [label.format(i) for label in labels for i in range(k)]
    return FiniteGroup._built(table, name=name, element_names=names)


def dihedral(m: int) -> FiniteGroup:
    """The dihedral group D_m of the m-gon, order 2m: r^m = s^2 = 1, s*r = r^-1*s.

    `_index2_extension` with twist 0, the recipe Dic_m and Q8 share.  Index
    i is the rotation r^i, x -> i + x; index m+i the reflection r^i*s,
    x -> i - x, labelled sr<i>.
    """
    m = _integer(m, "dihedral parameter {value!r} is not an integer")
    if m < 2:
        raise InvalidOrder(f"dihedral parameter must be >= 2, got {m}")
    return _index2_extension(m, 0, f"D{m}", ("r{}", "sr{}"))


def dicyclic(m: int) -> FiniteGroup:
    """The dicyclic group Dic_m of order 4m.

    Presentation a^(2m) = 1, b^2 = a^m, b*a = a^-1*b: D_m's recipe
    (`_index2_extension`) on a cyclic group of order 2m, with twist m.
    Indices 0..2m-1 are a^i, indices 2m..4m-1 are a^i*b.
    """
    m = _integer(m, "dicyclic parameter {value!r} is not an integer")
    if m < 2:
        raise InvalidOrder(f"dicyclic parameter must be >= 2, got {m}")
    return _index2_extension(2 * m, m, f"Dic{m}", ("a{}", "a{}b"))


def quaternion() -> FiniteGroup:
    """The quaternion group Q_8, which is Dic_2 under another name."""
    return _index2_extension(4, 2, "Q8", ("a{}", "a{}b"))


def _permutation_group(perms: np.ndarray, name: str) -> FiniteGroup:
    """The group of lex-ordered image tuples, the rows of `perms`, under x -> p[q[x]].

    table[i, j] is the index of perms[i] o perms[j].  A permutation p of
    0..k-1 has the base-k code sum_x p[x] * k^(k-1-x), and the code of p o q
    is sum_y p[y] * W[y, q], where W[y, q] = k^(k-1-q^-1(y)).  So the codes
    of a block of rows against every column are one product perms[block] @
    W, exact in float64 below 2^53, and a dense array of k^k entries maps
    each code back to its index.  Working memory beside the n x n table is
    that array, smaller than the table once k >= 5, and O(block * n) for
    blocks of about 2^16 entries.
    """
    n, k = perms.shape
    weights = k ** np.arange(k - 1, -1, -1, dtype=np.int64)
    # argsort inverts each permutation: W[y, j] is the weight of perms[j]^-1(y)
    w = weights[np.argsort(perms, axis=1)].T.astype(np.float64)
    index = np.zeros(k ** k, dtype=_index_dtype(n))
    index[perms @ weights] = np.arange(n)
    left = perms.astype(np.float64)
    table = np.empty((n, n), dtype=index.dtype)
    block = max(1, (1 << 16) // n)
    for start in range(0, n, block):
        codes = left[start:start + block] @ w
        table[start:start + block] = index[codes.astype(np.int64)]
    names = ["(" + " ".join(map(str, p)) + ")" for p in perms.tolist()]
    return FiniteGroup._built(table, name=name, element_names=names)


def _lex_permutations(k: int) -> np.ndarray:
    """Every permutation of 0..k-1 as a row of image indices, in lex order."""
    return np.array(list(_iter_permutations(range(k))), dtype=np.int64).reshape(-1, k)


def symmetric(k: int) -> FiniteGroup:
    """The symmetric group S_k, order k!, elements ordered lexicographically.

    Elements are image tuples p; the product of p and q is x -> p[q[x]].
    """
    k = _integer(k, "symmetric group parameter {value!r} is not an integer")
    if k < 1:
        raise InvalidOrder(f"symmetric group parameter must be >= 1, got {k}")
    return _permutation_group(_lex_permutations(k), f"S{k}")


def alternating(k: int) -> FiniteGroup:
    """The alternating group A_k, order k!/2, even permutations in lex order.

    Products compose as in symmetric(): p times q is x -> p[q[x]].  A
    permutation is even when it has an even number of inversions, pairs
    i < j with p[i] > p[j], counted for every permutation in one comparison.
    """
    k = _integer(k, "alternating group parameter {value!r} is not an integer")
    if k < 3:
        raise InvalidOrder(f"alternating group parameter must be >= 3, got {k}")
    perms = _lex_permutations(k)
    i, j = np.triu_indices(k, 1)
    inversions = np.count_nonzero(perms[:, i] > perms[:, j], axis=1)
    return _permutation_group(perms[inversions % 2 == 0], f"A{k}")


def _product_table(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The direct product of two group tables, pair (i, j) indexed as i*|H| + j."""
    n, nh = len(g) * len(h), len(h)
    dtype = _index_dtype(n)
    g, h = g.astype(dtype, copy=False), h.astype(dtype, copy=False)
    return (g[:, None, :, None] * nh + h[None, :, None, :]).reshape(n, n)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """The direct product, pair (i, j) indexed as i*|H| + j."""
    table = _product_table(g.table, h.table)
    nh = h.order
    gname = g.name or "G"
    hname = h.name or "H"
    names = [f"({g.element_names[i]},{h.element_names[j]})"
             for i in range(g.order) for j in range(nh)]
    return FiniteGroup._built(table, name=f"{gname}x{hname}", element_names=names)


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
