"""Permutation validation at the package boundary and derived permutations."""

from __future__ import annotations

import json

import numpy as np
import pytest

from groupgraphs.perms import Permutation


@pytest.mark.parametrize("images", [(0, 0), (1, 2)])
def test_outside_images_that_are_not_a_permutation_raise(images) -> None:
    with pytest.raises(ValueError):
        Permutation(images)


@pytest.mark.parametrize("images", [[0.0, 1.0], [True, False], ["0", "1"], [0, None]])
def test_outside_images_that_are_not_integers_raise(images) -> None:
    with pytest.raises(ValueError, match="not integers"):
        Permutation(images)


def test_outside_images_are_stored_as_plain_ints() -> None:
    p = Permutation(np.array([2, 0, 1]))
    assert type(p.images) is tuple
    assert all(type(x) is int for x in p.images)
    assert json.dumps(p.images) == "[2, 0, 1]"
    assert p == Permutation((2, 0, 1))


def test_derived_permutations_equal_checked_ones() -> None:
    p = Permutation((2, 0, 3, 1))
    q = Permutation((1, 3, 0, 2))
    product = p * q
    assert product == Permutation(p(q(v)) for v in range(4))
    assert hash(product) == hash(Permutation(product.images))
    inverse = p.inverse()
    assert inverse == Permutation((1, 3, 0, 2))
    assert (p * inverse).is_identity()
    assert Permutation.identity(4) == Permutation(range(4))
    assert Permutation.identity(0) == Permutation(())
    for derived in (product, inverse, Permutation.identity(4)):
        assert type(derived.images) is tuple
        assert all(type(x) is int for x in derived.images)


def test_composition_still_checks_degrees() -> None:
    with pytest.raises(ValueError):
        Permutation((1, 0)) * Permutation((0, 2, 1))


def test_permutations_sort_by_images_and_repr_as_a_list() -> None:
    p, q = Permutation((1, 0)), Permutation((0, 1))
    assert sorted([p, q]) == [q, p]
    assert repr(p) == "Permutation([1, 0])"
