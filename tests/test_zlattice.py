"""Exact integer matrix normal forms, kernels, and quotient invariants.

Property tests check Smith invariants against an independent
determinantal-divisor oracle (gcd of k x k minors, cofactor expansion),
the sparse echelon against the dense one it replaced, and the
triangular-block kernel against two Hermite passes.
"""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permrel.errors import InternalCheckError
from permrel.zlattice import (
    IntMatrix,
    hnf,
    hstack,
    lattice_contains,
    quotient_invariants,
    snf,
    triangular_kernel,
)

from oracles import hnf_by_dense_echelon, kernel_basis_by_two_hnfs, snf_by_dense_echelon


def minor_det(data, row_idx, col_idx):
    # independent cofactor-expansion determinant, pure ints
    rows = [[data[i][j] for j in col_idx] for i in row_idx]
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * minor_det(
            sub, range(n - 1), range(n - 1)
        )
    return total


def determinant(m):
    return minor_det(m.data, range(m.rows), range(m.cols))


def determinantal_divisors(m):
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ri in combinations(range(m.rows), k):
            for ci in combinations(range(m.cols), k):
                g = math.gcd(g, minor_det(m.data, ri, ci))
        out.append(g)
    return out


def rational_rank(m):
    rows = [[Fraction(v) for v in row] for row in m.data]
    rank = 0
    for col in range(m.cols):
        piv = next((r for r in range(rank, m.rows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(m.rows):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


small_matrix = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)

# up to 6 x 6, half of the entries zero, so the sparse columns vary in support
sparse_matrix = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@st.composite
def triangular_led(draw):
    """(M, pivots, d): the columns ``pivots`` of M, placed at random,
    form an upper triangular block with nonzero diagonal, and d is the
    product of the diagonal's absolute values, so d * A^-1 is integral."""
    r = draw(st.integers(1, 4))
    k = r + draw(st.integers(0, 4))
    pivots = draw(st.permutations(range(k)))[:r]
    entry = st.integers(-9, 9)
    data = [[draw(entry) for _ in range(k)] for _ in range(r)]
    modulus = 1
    for i, p in enumerate(pivots):
        data[i][p] = draw(entry.filter(bool))
        modulus *= abs(data[i][p])
        for below in range(i + 1, r):
            data[below][p] = 0
    return IntMatrix(data), pivots, modulus


def test_hnf_worked_example():
    h, t = hnf(IntMatrix([[2, 4], [6, 8]]))
    assert h.data == [[2, 0], [2, 4]]
    assert abs(determinant(t)) == 1


def test_snf_diagonal_folding():
    assert snf(IntMatrix([[2, 0], [0, 3]])).invariant_factors == (1, 6)


def test_snf_worked_example():
    assert snf(IntMatrix([[2, 4], [6, 8]])).invariant_factors == (2, 4)


def test_snf_certificate_matrices():
    m = IntMatrix([[4, 6, 2], [2, 0, 8]])
    dec = snf(m)
    assert dec.u.mul(m).mul(dec.v).data == dec.d.data


def test_kernel_of_ones_row():
    basis = triangular_kernel(IntMatrix([[1, 1, 1]]), [0], 1)
    assert basis.cols == 2
    for col in basis.columns():
        assert sum(col) == 0


def test_kernel_cyclic_rows_matrix():
    # the 3 x 4 marks rows of the cyclic classes of a group of order 6
    m = IntMatrix([[6, 3, 2, 1], [0, 1, 0, 1], [0, 0, 2, 1]])
    basis = triangular_kernel(m, [0, 1, 2], 6)
    assert basis.columns() == [[1, -2, -1, 2]]


def test_triangular_kernel_rejects_a_small_modulus():
    # 1 * A^-1 B = 1/2 is not integral; the back-substitution says so
    # before the M x = 0 certificate could
    with pytest.raises(InternalCheckError, match="not integral"):
        triangular_kernel(IntMatrix([[2, 1]]), [0], 1)


def test_triangular_kernel_rejects_bad_pivots_or_modulus():
    m = IntMatrix([[1, 1, 1], [0, 1, 1]])
    for pivots, modulus in (([0], 1), ([0, 0], 1), ([0, 1], 0)):
        with pytest.raises(ValueError):
            triangular_kernel(m, pivots, modulus)


def test_triangular_kernel_rejects_a_block_that_is_not_triangular():
    with pytest.raises(InternalCheckError, match="not upper triangular"):
        triangular_kernel(IntMatrix([[1, 0, 1], [1, 1, 1]]), [0, 1], 1)


def test_quotient_invariants_diagonal():
    ambient = IntMatrix.identity(2)
    sub = IntMatrix([[2, 0], [0, 3]])
    assert quotient_invariants(ambient, sub) == (0, (6,))


def test_quotient_invariants_free_part():
    ambient = IntMatrix.identity(3)
    sub = IntMatrix.from_columns([[2, 0, 0]], rows=3)
    assert quotient_invariants(ambient, sub) == (2, (2,))


def test_quotient_requires_containment():
    ambient = IntMatrix.from_columns([[2, 0], [0, 1]])
    sub = IntMatrix.from_columns([[1, 0]], rows=2)
    with pytest.raises(InternalCheckError):
        quotient_invariants(ambient, sub)


def test_lattice_contains():
    basis = IntMatrix.from_columns([[2, 0], [1, 3]])
    assert lattice_contains(basis, [3, 3])
    assert not lattice_contains(basis, [1, 0])


def test_hstack():
    a = IntMatrix([[1], [2]])
    b = IntMatrix([[3], [4]])
    assert hstack(a, b).data == [[1, 3], [2, 4]]


def test_empty_kernel():
    basis = triangular_kernel(IntMatrix.identity(3), [0, 1, 2], 1)
    assert basis.cols == 0
    assert basis.rows == 3


@given(small_matrix)
@settings(max_examples=120, deadline=None)
def test_snf_matches_determinantal_divisors(data):
    m = IntMatrix(data)
    factors = snf(m).invariant_factors
    divisors = determinantal_divisors(m)
    rank = next((k for k, d in enumerate(divisors) if d == 0), len(divisors))
    assert len([f for f in factors if f]) == rank
    acc = 1
    for k in range(rank):
        acc *= factors[k]
        assert acc == divisors[k]  # d_1 ... d_k = gcd of k x k minors


@given(small_matrix)
@settings(max_examples=120, deadline=None)
def test_snf_transforms_are_unimodular(data):
    m = IntMatrix(data)
    dec = snf(m)
    assert abs(determinant(dec.u)) == 1
    assert abs(determinant(dec.v)) == 1
    assert dec.u.mul(m).mul(dec.v) == dec.d


@given(small_matrix)
@settings(max_examples=120, deadline=None)
def test_hnf_preserves_column_lattice(data):
    m = IntMatrix(data)
    h, t = hnf(m)
    assert abs(determinant(t)) == 1
    for col in h.columns():
        assert lattice_contains(m, col)
    for col in m.columns():
        assert lattice_contains(h, col)


@given(sparse_matrix)
@settings(max_examples=150, deadline=None)
def test_hnf_matches_dense_echelon(data):
    m = IntMatrix(data)
    assert hnf(m) == hnf_by_dense_echelon(m)


@given(sparse_matrix)
@settings(max_examples=150, deadline=None)
def test_snf_matches_dense_echelon(data):
    m = IntMatrix(data)
    dec = snf(m)
    assert (dec.u, dec.d, dec.v) == snf_by_dense_echelon(m)


@given(triangular_led())
@settings(max_examples=120, deadline=None)
def test_kernel_rank_and_membership(case):
    m, pivots, modulus = case
    basis = triangular_kernel(m, pivots, modulus)
    assert basis.cols == m.cols - rational_rank(m)
    for col in basis.columns():
        image = m.mul(IntMatrix.from_columns([col]))
        assert image.is_zero()


@given(triangular_led())
@settings(max_examples=120, deadline=None)
def test_kernel_matches_two_hnfs(case):
    m, pivots, modulus = case
    assert triangular_kernel(m, pivots, modulus) == kernel_basis_by_two_hnfs(m)


@given(triangular_led())
@settings(max_examples=80, deadline=None)
def test_kernel_saturation(case):
    # any rational kernel vector scaled to integers must lie in the basis span
    m, pivots, modulus = case
    basis = triangular_kernel(m, pivots, modulus)
    for col in basis.columns():
        doubled = [2 * v for v in col]
        assert lattice_contains(basis, doubled)
        if any(v % 2 for v in col):
            continue
        halved = [v // 2 for v in col]
        image = m.mul(IntMatrix.from_columns([halved]))
        if image.is_zero():
            assert lattice_contains(basis, halved)
