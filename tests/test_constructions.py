"""Group builders: the Frobenius group as the affine group at d = 1,
its least unit of order m, and the affine maps x -> A*x + b."""

import numpy as np
import pytest

from permrel.constructions import (
    _affine_permutation,
    affine_group,
    decode_vector,
    encode_vector,
    frobenius_group,
)
from permrel.errors import CapExceeded
from permrel.numtheory import element_of_order, is_prime


def _order_by_powers(a, l):
    order, x = 1, a % l
    while x != 1:
        x = x * a % l
        order += 1
    return order


@pytest.mark.parametrize("l", [l for l in range(2, 60) if is_prime(l)])
def test_element_of_order_is_the_least_unit_of_that_order(l):
    for m in range(1, l):
        least = next((a for a in range(1, l) if _order_by_powers(a, l) == m), None)
        assert element_of_order(m, l) == least, (m, l)
        assert (least is None) == bool((l - 1) % m)


FROBENIUS_CASES = [(2, 1), (3, 2), (5, 4), (7, 1), (7, 3), (7, 6), (13, 4), (19, 18)]


@pytest.mark.parametrize("l,m", FROBENIUS_CASES)
def test_frobenius_group_is_the_affine_group_of_its_unit(l, m):
    group = frobenius_group(l, m)
    a = element_of_order(m, l)
    units = {pow(a, i, l) for i in range(m)}
    maps = sorted(tuple((u * x + b) % l for x in range(l)) for u in units for b in range(l))
    assert [p.images for p in group.elements] == maps
    expected = [tuple((x + 1) % l for x in range(l))]
    if m > 1:
        expected.append(tuple(a * x % l for x in range(l)))
    assert [p.images for p in group.generators] == expected
    assert group is affine_group(l, 1, [[[a]]] if m > 1 else [])[0]
    assert group is frobenius_group(l, m)


AFFINE_MAPS = [
    (2, [[0, 1], [1, 1]], [1, 0]),
    (3, [[0, 2], [1, 0]], [2, 1]),
    (5, [[3]], [4]),
    (7, [[1]], [1]),
    (2, [[0, 0, 1], [1, 0, 0], [0, 1, 1]], [0, 1, 1]),
    (3, [[2, 0, 0], [0, 1, 0], [1, 0, 1]], [0, 0, 2]),
    (5, [[2, 0], [1, 3]], [0, 0]),
]


@pytest.mark.parametrize("l,matrix,shift", AFFINE_MAPS)
def test_affine_permutation_moves_each_point_by_its_vector(l, matrix, shift):
    d = len(matrix)
    perm = _affine_permutation(np.array(matrix), np.array(shift), l)
    for point in range(l ** d):
        vec = decode_vector(point, l, d)
        moved = [sum(matrix[i][j] * vec[j] for j in range(d)) + shift[i] for i in range(d)]
        assert perm.images[point] == encode_vector(moved, l)


def test_cached_frobenius_group_honours_the_element_cap():
    assert frobenius_group(7, 6).order == 42
    with pytest.raises(CapExceeded, match="^group closure exceeded the element cap of 5$"):
        frobenius_group(7, 6, element_cap=5)
    assert frobenius_group(7, 6, element_cap=42) is frobenius_group(7, 6)


def test_cached_affine_group_honours_the_element_cap():
    mats = [[[0, 2], [1, 0]]]
    group, _, _ = affine_group(3, 2, mats)
    for _ in range(2):
        with pytest.raises(CapExceeded, match="^group closure exceeded the element cap of 5$"):
            affine_group(3, 2, mats, element_cap=5)
    assert affine_group(3, 2, mats, element_cap=36)[0] is group
