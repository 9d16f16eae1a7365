"""Permutations on 0..n-1, the element type of graph automorphism groups."""

from __future__ import annotations

from typing import Iterable

from .errors import _integer


class Permutation:
    """A bijection of 0..n-1 stored as its image array.

    ``p * q`` composes left-to-right through function application:
    ``(p * q)(v) == p(q(v))``.

    Outside input is checked here and stored as plain ints, so numpy
    integers come out JSON-writable; permutations the package derives
    (products, search results, group table rows) skip it via ``_unchecked``.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        given = tuple(images)
        images = tuple(_integer(x, "permutation images are not integers: {given!r}", given=given)
                       for x in given)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self.images = images

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> Permutation:
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def _unchecked_list(cls, leaves: Iterable[tuple[int, ...]]) -> list[Permutation]:
        """``_unchecked`` of each tuple, in one loop: one object per tuple."""
        new, out = object.__new__, []
        for images in leaves:
            p = new(cls)
            p.images = images
            out.append(p)
        return out

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls._unchecked(tuple(range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v]

    def __mul__(self, other: Permutation) -> Permutation:
        if self.degree != other.degree:
            raise ValueError("cannot compose permutations of different degrees")
        return Permutation._unchecked(tuple(map(self.images.__getitem__, other.images)))

    def inverse(self) -> Permutation:
        inv = [0] * len(self.images)
        for v, w in enumerate(self.images):
            inv[w] = v
        return Permutation._unchecked(tuple(inv))

    def is_identity(self) -> bool:
        return all(w == v for v, w in enumerate(self.images))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: Permutation) -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"
