"""Exact integer matrix normal forms, kernels, and quotient invariants.

Property tests check Smith invariants against an independent
determinantal-divisor oracle (gcd of k x k minors, cofactor expansion),
the sparse echelon and solve against the dense ones they replaced, and
the kernel, by either route, against two Hermite passes.  The Smith
certificate is fed corrupted copies of correct data, one piece at a
time.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permrel import zlattice
from permrel.errors import InternalCheckError
from permrel.zlattice import (
    IntMatrix,
    hnf,
    kernel_basis,
    quotient_invariants,
    snf,
)

from oracles import (
    basis_matrix,
    echelon_solve,
    hnf_by_dense_echelon,
    kernel_basis_by_two_hnfs,
    lattice_contains,
    mat_mul,
    quotient_invariants_by_hnf,
    rank_modulo_by_elimination,
    snf_by_dense_echelon,
    unit_kernel_by_gauss_jordan,
    unit_kernel_by_lists,
    unit_rows,
)


def identity(n):
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


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
    """A matrix M with a square upper triangular block of nonzero
    diagonal on columns placed at random, as the marks at the
    hypo-elementary classes have."""
    r = draw(st.integers(1, 4))
    k = r + draw(st.integers(0, 4))
    pivots = draw(st.permutations(range(k)))[:r]
    entry = st.integers(-9, 9)
    data = [[draw(entry) for _ in range(k)] for _ in range(r)]
    for i, p in enumerate(pivots):
        data[i][p] = draw(entry.filter(bool))
        for below in range(i + 1, r):
            data[below][p] = 0
    return IntMatrix(data)


@st.composite
def any_shape(draw):
    """An r x k matrix with r and k from 0 to 4, each row past the first
    an integer combination of the rows above it half of the time, so
    zero rows, zero columns and rank deficiency are all common."""
    r, k = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    data = []
    for _ in range(r):
        if data and draw(st.booleans()):
            coeffs = [draw(st.integers(-2, 2)) for _ in data]
            data.append([sum(c * row[t] for c, row in zip(coeffs, data)) for t in range(k)])
        else:
            data.append([draw(st.integers(-9, 9)) for _ in range(k)])
    return IntMatrix(data, cols=k)


kernel_input = st.one_of(triangular_led(), any_shape(), small_matrix.map(IntMatrix))


def _block(m):
    """The IntMatrix M as the int64 array ``kernel_basis`` takes."""
    return np.array(m.data, dtype=np.int64).reshape(m.rows, m.cols)


def _kernel_or_raises(m):
    """``kernel_basis`` of M's block when M's rows are independent, and
    otherwise None, after checking that the call raises."""
    if rational_rank(m) == m.rows:
        return kernel_basis(_block(m))
    with pytest.raises(InternalCheckError, match="kernel rank"):
        kernel_basis(_block(m))
    return None


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
    assert mat_mul(mat_mul(dec.u, m), dec.v).data == dec.d.data


# rank 2 with invariant factors (1, 6): D = diag(1, 6, 0)
_SMITH_M = IntMatrix([[2, 0, 2], [0, 3, 3], [2, 3, 5]])


def _smith_data(m):
    """``_check_smith``'s arguments for ``snf(m)``: M's and V's sparse
    columns, and D's and U's sparse rows."""
    dec = snf(m)
    d, u = ([{j: x for j, x in enumerate(row) if x} for row in a.data] for a in (dec.d, dec.u))
    return zlattice._sparse_columns(m), d, u, zlattice._sparse_columns(dec.v)


def _bump(vectors, i, j, delta):
    vectors[i][j] = vectors[i].get(j, 0) + delta
    if not vectors[i][j]:
        del vectors[i][j]


def _swap_diagonal(d, u, v, a, b):
    # P U M V P = P D P: the product still holds, with D's entries a and
    # b traded
    u[a], u[b] = u[b], u[a]
    v[a], v[b] = v[b], v[a]
    da, db = d[a].get(a), d[b].get(b)
    d[a], d[b] = ({a: db} if db else {}), ({b: da} if da else {})


def _add_row_1_to_row_0(d, u, v):
    # E U M V = E D: the product still holds, and D gains entry (0, 1)
    zlattice._addmul(u[0], -1, u[1])
    zlattice._addmul(d[0], -1, d[1])


def _negate_row_0(d, u, v):
    u[0] = {t: -x for t, x in u[0].items()}
    d[0] = {0: -d[0][0]}


_SMITH_MUTANTS = {
    "u_entry_plus_1": (lambda d, u, v: _bump(u, 0, 0, 1), "certificate failed"),
    "u_entry_minus_1": (lambda d, u, v: _bump(u, 0, 0, -1), "certificate failed"),
    "v_entry_plus_1": (lambda d, u, v: _bump(v, 0, 0, 1), "certificate failed"),
    "v_entry_minus_1": (lambda d, u, v: _bump(v, 0, 0, -1), "certificate failed"),
    "off_diagonal": (_add_row_1_to_row_0, "not diagonal"),
    "zero_first": (lambda d, u, v: _swap_diagonal(d, u, v, 1, 2), "zero precedes"),
    "negative": (_negate_row_0, "negative"),
    "chain_broken": (lambda d, u, v: _swap_diagonal(d, u, v, 0, 1), "divisibility"),
}


@pytest.mark.parametrize(
    "mutate, message", list(_SMITH_MUTANTS.values()), ids=list(_SMITH_MUTANTS)
)
def test_check_smith_rejects_each_mutant(mutate, message):
    assert snf(_SMITH_M).invariant_factors == (1, 6)
    m_cols, d, u, v = _smith_data(_SMITH_M)
    zlattice._check_smith(m_cols, d, u, v)
    mutate(d, u, v)
    with pytest.raises(InternalCheckError, match=message):
        zlattice._check_smith(m_cols, d, u, v)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1), (3, 2)])
def test_columns_match_column_by_column(rows, cols):
    m = IntMatrix([[(-1) ** j * (3 * i + j) for j in range(cols)] for i in range(rows)],
                  cols=cols)
    columns = m.columns()
    assert columns == [[row[j] for row in m.data] for j in range(m.cols)]
    assert len(columns) == cols and all(len(c) == rows for c in columns)
    assert all(type(c) is list for c in columns)


@given(st.integers(0, 4).flatmap(
    lambda k: st.lists(st.lists(st.integers(-9, 9), min_size=k, max_size=k), max_size=4)
))
@settings(max_examples=60, deadline=None)
def test_columns_match_column_by_column_on_random_matrices(data):
    m = IntMatrix(data)
    assert m.columns() == [[row[j] for row in m.data] for j in range(m.cols)]


def test_kernel_of_ones_row():
    basis = kernel_basis(np.array([[1, 1, 1]], dtype=np.int64))
    assert basis.cols == 2
    for col in basis.columns():
        assert sum(col) == 0


def test_kernel_cyclic_rows_matrix():
    # the 3 x 4 marks rows of the cyclic classes of a group of order 6
    m = np.array([[6, 3, 2, 1], [0, 1, 0, 1], [0, 0, 2, 1]], dtype=np.int64)
    basis = kernel_basis(m)
    assert basis.columns() == [[1, -2, -1, 2]]


def test_kernel_certificate_rejects_a_pivot_column(monkeypatch):
    # an echelon that reports one pivot too few hands a column of T with
    # M T_j != 0 to the kernel; the M x = 0 check rejects it
    monkeypatch.setattr(zlattice, "_unit_kernel", lambda m: None)
    echelon = zlattice._echelon
    calls = []

    def short(cols, rows):
        calls.append(cols)
        rank = echelon(cols, rows)
        return rank - 1 if len(calls) == 1 else rank

    monkeypatch.setattr(zlattice, "_echelon", short)
    with pytest.raises(InternalCheckError, match="fails M x = 0"):
        kernel_basis(np.array([[1, 1, 1]], dtype=np.int64))


def test_quotient_invariants_diagonal():
    ambient = identity(2)
    sub = IntMatrix([[2, 0], [0, 3]])
    assert quotient_invariants(ambient, sub) == (0, (6,))


def test_quotient_invariants_free_part():
    ambient = identity(3)
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


def test_empty_kernel():
    basis = kernel_basis(np.eye(3, dtype=np.int64))
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
    assert mat_mul(mat_mul(dec.u, m), dec.v) == dec.d


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


@given(kernel_input)
@settings(max_examples=150, deadline=None)
def test_kernel_rank_and_membership(m):
    # independent rows give k - r columns; dependent rows raise
    basis = _kernel_or_raises(m)
    if basis is None:
        return
    assert basis.rows == m.cols
    assert basis.cols == m.cols - m.rows
    for col in basis.columns():
        image = mat_mul(m, IntMatrix.from_columns([col]))
        assert not any(map(any, image.data))


@given(kernel_input)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_two_hnfs(m):
    basis = _kernel_or_raises(m)
    assert basis is None or basis == kernel_basis_by_two_hnfs(m)


@given(kernel_input)
@settings(max_examples=100, deadline=None)
def test_kernel_saturation(m):
    # any rational kernel vector scaled to integers must lie in the basis span
    basis = _kernel_or_raises(m)
    if basis is None:
        return
    for col in basis.columns():
        doubled = [2 * v for v in col]
        assert lattice_contains(basis, doubled)
        if any(v % 2 for v in col):
            continue
        halved = [v // 2 for v in col]
        image = mat_mul(m, IntMatrix.from_columns([halved]))
        if not any(map(any, image.data)):
            assert lattice_contains(basis, halved)


def _count_echelon_route(monkeypatch):
    # the modular route gives up, with None, exactly when the echelon
    # route is taken
    calls = []
    original = zlattice._unit_kernel

    def counting(m):
        basis = original(m)
        if basis is None:
            calls.append(m)
        return basis

    monkeypatch.setattr(zlattice, "_unit_kernel", counting)
    return calls


def test_kernel_with_a_non_unit_pivot_takes_the_lattice_route(monkeypatch):
    # x_0 + 2 x_2 = 0: the Hermite basis has the pivot 2 at coordinate 0,
    # so the modular route gives up and the echelon route answers
    m = IntMatrix([[1, 0, 2]])
    calls = _count_echelon_route(monkeypatch)
    basis = kernel_basis(_block(m))
    assert len(calls) == 1
    assert basis.columns() == [[2, 0, -1], [0, 1, 0]]
    assert basis == kernel_basis_by_two_hnfs(m)


def test_kernel_certificate_rejects_a_wrapped_residue(monkeypatch):
    # W = M_N^-1 M_P = 5 is read as -1 modulo 3; the exact product
    # M_N W = M_P rejects it, and the echelon route answers
    m = np.array([[5, 1]], dtype=np.int64)
    calls = _count_echelon_route(monkeypatch)
    assert kernel_basis(m).columns() == [[1, -5]]
    assert calls == []
    monkeypatch.setattr(zlattice, "_PRIME", 3)
    assert kernel_basis(m).columns() == [[1, -5]]
    assert len(calls) == 1


@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(1, 12).flatmap(
        lambda n: st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n), max_size=14)
    ),
)
@settings(max_examples=200, deadline=None)
def test_rank_reaches_the_rank_modulo_a_prime(ell, data):
    # fed one block, or one row at a time into the same pivots, the
    # echelon reaches the rank exactly and never one more
    rank = rank_modulo_by_elimination(data, ell)
    rows = np.array(data, dtype=np.int64).reshape(len(data), len(data[0]) if data else 1)
    assert zlattice._rank_reaches(ell, rows, {}, rank + 1) is False
    if rank:
        assert zlattice._rank_reaches(ell, rows, {}, rank) is True
        pivots = {}
        reached = [
            zlattice._rank_reaches(ell, rows[i:i + 1], pivots, rank) for i in range(len(data))
        ]
        assert reached.count(True) == 1 and len(pivots) == rank


def test_unit_rows():
    # the oracle that reads P off a basis, against which the array
    # route's P is checked
    assert unit_rows(IntMatrix([[1, 0], [5, 0], [0, 1], [3, -2]])) == [0, 2]
    assert unit_rows(IntMatrix([[0], [0]])) is None
    assert unit_rows(IntMatrix([[2, 0], [0, 1]])) is None  # a pivot is not 1
    assert unit_rows(IntMatrix([[1, 0], [0, 1], [1, 1]])) == [0, 1]
    assert unit_rows(IntMatrix([[1, 1], [0, 1]])) is None  # not the identity there
    assert unit_rows(IntMatrix([[], []])) == []


def _array_route(m):
    # _unit_kernel's UnitBasis as an IntMatrix, or None; P must be the
    # rows on which that basis is the identity, and N the others; the
    # record's rows, columns and single rows are those of the list build
    unit = zlattice._unit_kernel(_block(m))
    if unit is None:
        return None
    basis = basis_matrix(unit, m.cols)
    assert unit.free.tolist() == unit_rows(basis)
    assert sorted(unit.free.tolist() + unit.pivots.tolist()) == list(range(m.cols))
    assert unit.w.dtype == np.int64 and np.all(np.abs(unit.w) <= zlattice._PRIME // 2)
    assert (unit.rows, unit.cols, unit.data, unit.columns()) == (
        basis.rows, basis.cols, basis.data, basis.columns())
    assert [unit.row(i) for i in range(unit.rows)] == basis.data
    assert unit == basis and basis == unit
    return basis


def assert_array_route_matches_lists(m):
    basis = _array_route(m)
    assert basis == unit_kernel_by_lists(m, zlattice._PRIME)
    if basis is not None:
        assert basis == kernel_basis_by_two_hnfs(m)


@given(kernel_input)
@settings(max_examples=200, deadline=None)
def test_array_route_matches_the_list_route(m):
    assert_array_route_matches_lists(m)


@given(kernel_input, st.sampled_from((2, 3, 5, 7)), st.sampled_from((1, 2**16)))
@settings(max_examples=120, deadline=None)
def test_array_route_matches_the_list_route_modulo_a_small_prime(m, prime, entries):
    # small primes wrap residues, which the exact check must reject in
    # whichever column block of its products they fall
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zlattice, "_PRIME", prime)
        patch.setattr(zlattice, "_CHECK_ENTRIES", entries)
        assert_array_route_matches_lists(m)


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("over", [0, 1])
def test_array_route_at_the_int64_guard(rows, over):
    # entries e with e r Q just below 2^63 take the modular route, and
    # one more gives up on both routes; the echelon route still answers.
    # M = e [u | v | I] has the unit basis with W = -[u | v]
    top = (2**63 - 1) // (rows * zlattice._PRIME) + over
    m = IntMatrix([[top, (-1) ** i * top] + [top * (i == j) for j in range(rows)]
                   for i in range(rows)])
    assert_array_route_matches_lists(m)
    assert (_array_route(m) is None) == bool(over)
    assert kernel_basis(_block(m)) == kernel_basis_by_two_hnfs(m)


def test_kernel_of_a_matrix_with_no_rows():
    assert kernel_basis(np.zeros((0, 3), dtype=np.int64)) == identity(3)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_kernel_of_a_matrix_with_no_columns(rows):
    # rows over no columns are zero, hence dependent: both routes find
    # no pivot, and the rank check raises
    m = np.zeros((rows, 0), dtype=np.int64)
    assert zlattice._unit_kernel(m) is None
    with pytest.raises(InternalCheckError, match="kernel rank 0 differs"):
        kernel_basis(m)


def test_rank_deficient_kernel_takes_the_echelon_route(monkeypatch):
    # the second row is twice the first: the modular route finds one
    # pivot for two rows and gives up, and the echelon route finds two
    # kernel columns where independent rows would give one
    m = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.int64)
    calls = _count_echelon_route(monkeypatch)
    with pytest.raises(InternalCheckError, match="kernel rank 2 differs from 3 columns less 2"):
        kernel_basis(m)
    assert len(calls) == 1


@given(kernel_input, st.sampled_from((2, 3, 5, 7)))
@settings(max_examples=120, deadline=None)
def test_kernel_matches_two_hnfs_modulo_a_small_prime(m, prime):
    # small primes lose rank and wrap residues; the certificate catches both
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zlattice, "_PRIME", prime)
        basis = _kernel_or_raises(m)
        assert basis is None or basis == kernel_basis_by_two_hnfs(m)


@given(kernel_input)
@settings(max_examples=150, deadline=None)
def test_lattice_route_alone_matches_two_hnfs(m):
    # with the modular route off, the echelon route answers every shape
    # with independent rows, and raises on the others
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zlattice, "_unit_kernel", lambda m: None)
        basis = _kernel_or_raises(m)
        assert basis is None or basis == kernel_basis_by_two_hnfs(m)


@st.composite
def echelon_matrix(draw):
    """A column echelon matrix, not Hermite-reduced: pivots of either
    sign on strictly increasing rows, anything below them, and zero
    columns at the end."""
    n = draw(st.integers(1, 5))
    pivot_rows = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    cols = []
    for prow in pivot_rows:
        col = [0] * n
        col[prow] = draw(st.integers(-6, 6).filter(bool))
        for i in range(prow + 1, n):
            col[i] = draw(st.integers(-9, 9))
        cols.append(col)
    cols += [[0] * n] * draw(st.integers(0, 2))
    return IntMatrix.from_columns(cols, rows=n)


def _sub_of(ambient, coeffs):
    """Integer combinations of the ambient columns, one per row of coeffs."""
    cols = [
        [sum(c * a for c, a in zip(row, ambient.data[i])) for i in range(ambient.rows)]
        for row in coeffs
    ]
    return IntMatrix.from_columns(cols, rows=ambient.rows)


_coeff_rows = st.lists(st.lists(st.integers(-4, 4), min_size=6, max_size=6), max_size=4)


@given(echelon_matrix(), _coeff_rows)
@settings(max_examples=150, deadline=None)
def test_quotient_invariants_take_an_echelon_ambient_as_it_is(ambient, coeffs):
    sub = _sub_of(ambient, coeffs)
    expected = quotient_invariants_by_hnf(ambient, sub)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zlattice, "hnf", None)  # never reached
        assert quotient_invariants(ambient, sub) == expected


def _invariants_or_not_contained(invariants, ambient, sub):
    try:
        return invariants(ambient, sub)
    except InternalCheckError:
        return "not contained"


@given(small_matrix, _coeff_rows, st.data())
@settings(max_examples=150, deadline=None)
def test_quotient_invariants_match_the_hermite_path(data, coeffs, draw):
    # the ambient is mostly not in echelon shape, so its Hermite form is
    # taken; the extra column is mostly not in its lattice
    ambient = IntMatrix(data)
    sub = _sub_of(ambient, coeffs)
    assert quotient_invariants(ambient, sub) == quotient_invariants_by_hnf(ambient, sub)
    extra = draw.draw(st.lists(st.integers(-9, 9), min_size=ambient.rows, max_size=ambient.rows))
    wider = IntMatrix.from_columns(sub.columns() + [extra], rows=ambient.rows)
    assert _invariants_or_not_contained(
        quotient_invariants, ambient, wider
    ) == _invariants_or_not_contained(quotient_invariants_by_hnf, ambient, wider)
    basis, pivots = zlattice._echelon_basis(ambient)
    dense = [zlattice._dense(b, ambient.rows) for b in basis]
    for col in wider.columns():
        y = zlattice._solve(basis, pivots, {i: v for i, v in enumerate(col) if v})
        assert (y if y is None else zlattice._dense(y, len(basis))) == echelon_solve(
            dense, pivots, col
        )


@st.composite
def unit_kernel_blocks(draw):
    """r x k int64 blocks, r <= k: small entries, a unit upper triangle on
    the last r columns (so a unit basis exists), a repeated or zero row
    (rank deficient), or entries at the overflow guard max |M| r Q < 2^63,
    exactly at it or one past it."""
    r = draw(st.integers(1, 5))
    k = draw(st.integers(r, 9))
    at_guard = (2**63 - 1) // (r * zlattice._PRIME)
    small = st.integers(-3, 3)
    mat = np.array(draw(st.lists(st.lists(small, min_size=k, max_size=k),
                                 min_size=r, max_size=r)), dtype=np.int64)
    kind = draw(st.sampled_from(("random", "unit", "deficient", "guard", "past guard")))
    if kind == "unit":
        right = np.triu(mat[:, k - r:], 1)
        right[np.arange(r), np.arange(r)] = draw(st.sampled_from((1, -1)))
        mat[:, k - r:] = right
    elif kind == "deficient" and r > 1:
        mat[-1] = mat[0] if draw(st.booleans()) else 0
    elif kind in ("guard", "past guard"):
        mat = np.sign(mat) * (at_guard + (kind == "past guard"))
    return mat


@given(unit_kernel_blocks())
@settings(max_examples=300, deadline=None)
def test_unit_kernel_record_matches_gauss_jordan(mat):
    # the r x r record of row operations gives the Gauss-Jordan
    # elimination's answer: None for both, or (P, N, W) row for row
    got, want = zlattice._unit_kernel(mat), unit_kernel_by_gauss_jordan(mat)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.rows == mat.shape[1]
        for a, b in zip((got.free, got.pivots, got.w), want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_unit_kernel_at_the_overflow_guard():
    # max |M| r Q just below 2^63 still gives the unit basis, and one more
    # falls to the echelon route; |M| * (1 0 1; 0 1 1) has the kernel
    # (1, 1, -1), so its rows on N = (2, 1) are -1 and 1
    r, q = 2, zlattice._PRIME
    at_guard = (2**63 - 1) // (r * q)
    shape = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64)
    basis = zlattice._unit_kernel(at_guard * shape)
    assert basis.free.tolist() == [0] and basis.pivots.tolist() == [2, 1]
    assert basis.w.tolist() == [[-1], [1]] and basis.data == [[1], [1], [-1]]
    assert zlattice._unit_kernel((at_guard + 1) * shape) is None
