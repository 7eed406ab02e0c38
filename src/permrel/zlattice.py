"""Exact integer matrices: Hermite and Smith normal forms, kernels,
lattice membership, and quotient invariants.

All arithmetic uses Python integers, so entries may grow without
overflow.  numpy is deliberately not used here: the intermediate
entries of normal-form computations routinely exceed 64 bits even for
small inputs.  Every normal form is certified before it is returned;
a failed certificate raises InternalCheckError rather than letting a
wrong lattice leak into callers.

Conventions.  Matrices act on column vectors.  A lattice is given by a
matrix whose columns generate it.  Hermite form is the column-style
one: for a matrix M there is a unimodular T with H = M * T, where the
nonzero columns of H are in echelon shape with positive pivots, the
pivot rows strictly increase left to right, entries to the left of a
pivot in its row are reduced into [0, pivot), and zero columns are
trailed at the right end.
"""

import operator
from dataclasses import dataclass

from .errors import InternalCheckError


def _as_int(value):
    return operator.index(value)


class IntMatrix:
    """A rectangular matrix of Python integers, stored as rows."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        rows = [[_as_int(v) for v in row] for row in data]
        if rows:
            width = len(rows[0])
            for row in rows:
                if len(row) != width:
                    raise ValueError("ragged rows in IntMatrix")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
        else:
            width = 0 if cols is None else cols
        self.rows = len(rows)
        self.cols = width
        self.data = rows

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns, rows=None):
        """Build from an iterable of column vectors (all the same length)."""
        columns = [list(c) for c in columns]
        if columns:
            height = len(columns[0])
            for c in columns:
                if len(c) != height:
                    raise ValueError("ragged columns")
        else:
            if rows is None:
                raise ValueError("rows is required for a matrix with no columns")
            height = rows
        if rows is not None and rows != height:
            raise ValueError("rows does not match column height")
        return cls([[c[i] for c in columns] for i in range(height)], cols=len(columns))

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        return IntMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return IntMatrix(
            _mat_mul_data(self.data, other.data, self.rows, self.cols, other.cols),
            cols=other.cols,
        )

    def is_zero(self):
        return all(v == 0 for row in self.data for v in row)

    def copy(self):
        return IntMatrix([row[:] for row in self.data], cols=self.cols)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return "IntMatrix(%r)" % (self.data,) if self.rows else (
            "IntMatrix([], cols=%d)" % self.cols
        )


def _mat_mul_data(p, q, m, k, n):
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        pi = p[i]
        oi = out[i]
        for t in range(k):
            v = pi[t]
            if v:
                qt = q[t]
                for j in range(n):
                    oi[j] += v * qt[j]
    return out


def _col_swap(a, i, j):
    if i != j:
        for row in a:
            row[i], row[j] = row[j], row[i]


def _col_negate(a, j):
    for row in a:
        row[j] = -row[j]


def _col_addmul(a, dst, src, q):
    # column dst += q * column src
    if q:
        for row in a:
            row[dst] += q * row[src]


def _row_swap(a, i, j):
    if i != j:
        a[i], a[j] = a[j], a[i]


def _row_negate(a, i):
    a[i] = [-v for v in a[i]]


def _row_addmul(a, dst, src, q):
    if q:
        ad, asrc = a[dst], a[src]
        for j in range(len(ad)):
            ad[j] += q * asrc[j]


def hnf(m):
    """Column-style Hermite normal form.

    Returns (H, T) with T unimodular, H = M * T, and H in the column
    echelon shape described in the module docstring.  The identity
    H == M * T is re-verified before returning.
    """
    a = [row[:] for row in m.data]
    t = [[1 if i == j else 0 for j in range(m.cols)] for i in range(m.cols)]
    ncols = m.cols
    r = 0
    for i in range(m.rows):
        if r == ncols:
            break
        while True:
            nz = [j for j in range(r, ncols) if a[i][j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: (abs(a[i][j]), j))
            _col_swap(a, r, j0)
            _col_swap(t, r, j0)
            if a[i][r] < 0:
                _col_negate(a, r)
                _col_negate(t, r)
            piv = a[i][r]
            clean = True
            for j in range(r + 1, ncols):
                q = a[i][j] // piv
                _col_addmul(a, j, r, -q)
                _col_addmul(t, j, r, -q)
                if a[i][j] != 0:
                    clean = False
            if clean:
                # entries above the pivot are zero already, so reducing
                # earlier pivot columns against this one cannot disturb
                # previously fixed rows
                for j in range(r):
                    q = a[i][j] // piv
                    _col_addmul(a, j, r, -q)
                    _col_addmul(t, j, r, -q)
                r += 1
                break
    h = IntMatrix(a, cols=ncols)
    tm = IntMatrix(t, cols=ncols)
    if m.mul(tm) != h:
        raise InternalCheckError("hermite form certificate failed")
    return h, tm


@dataclass(frozen=True)
class SmithDecomposition:
    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    invariant_factors: tuple


def snf(m):
    """Smith normal form with transforms.

    Returns SmithDecomposition(U, D, V, factors) with U, V unimodular,
    U * M * V = D diagonal, each diagonal entry nonnegative and dividing
    the next.  The product identity, the divisibility chain and the
    off-diagonal zeros are all re-verified before returning.
    """
    a = [row[:] for row in m.data]
    nrows, ncols = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    t = 0
    while t < nrows and t < ncols:
        # locate a pivot of minimal absolute value in the trailing block
        piv_i = piv_j = -1
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                val = abs(a[i][j])
                if val and (best is None or val < best):
                    best = val
                    piv_i, piv_j = i, j
        if best is None:
            break
        _row_swap(a, t, piv_i)
        _row_swap(u, t, piv_i)
        _col_swap(a, t, piv_j)
        _col_swap(v, t, piv_j)
        if a[t][t] < 0:
            _row_negate(a, t)
            _row_negate(u, t)
        piv = a[t][t]
        dirty = False
        for i in range(t + 1, nrows):
            q = a[i][t] // piv
            _row_addmul(a, i, t, -q)
            _row_addmul(u, i, t, -q)
            if a[i][t] != 0:
                dirty = True
        for j in range(t + 1, ncols):
            q = a[t][j] // piv
            _col_addmul(a, j, t, -q)
            _col_addmul(v, j, t, -q)
            if a[t][j] != 0:
                dirty = True
        if dirty:
            continue
        # force divisibility: fold a bad row in and restart this pivot
        bad = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % piv:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            _row_addmul(a, t, bad, 1)
            _row_addmul(u, t, bad, 1)
            continue
        t += 1
    d = IntMatrix(a, cols=ncols)
    um = IntMatrix(u, cols=nrows)
    vm = IntMatrix(v, cols=ncols)
    factors = []
    for k in range(min(nrows, ncols)):
        if d.data[k][k]:
            factors.append(d.data[k][k])
    _check_smith(m, um, d, vm, factors)
    return SmithDecomposition(um, d, vm, tuple(factors))


def _check_smith(m, u, d, v, factors):
    if u.mul(m).mul(v) != d:
        raise InternalCheckError("smith form certificate failed")
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j and d.data[i][j]:
                raise InternalCheckError("smith form is not diagonal")
    seen_zero = False
    prev = None
    for k in range(min(d.rows, d.cols)):
        val = d.data[k][k]
        if val == 0:
            seen_zero = True
            continue
        if seen_zero:
            raise InternalCheckError("zero precedes a nonzero invariant factor")
        if val < 0:
            raise InternalCheckError("negative invariant factor")
        if prev is not None and val % prev:
            raise InternalCheckError("invariant factor divisibility chain broken")
        prev = val
    if list(factors) != [d.data[k][k] for k in range(min(d.rows, d.cols)) if d.data[k][k]]:
        raise InternalCheckError("invariant factor list mismatch")


def kernel_basis(m):
    """Basis of the integer kernel {x : M x = 0}, as matrix columns.

    The kernel of an integer matrix is saturated (the quotient by it is
    torsion free), so the basis returned here generates every integer
    solution, not merely a finite-index sublattice.  The basis itself is
    Hermite reduced for determinism.
    """
    h, t = hnf(m)
    rank = 0
    for j in range(h.cols):
        if any(h.data[i][j] for i in range(h.rows)):
            rank += 1
    kernel_cols = [t.column(j) for j in range(rank, t.cols)]
    if not kernel_cols:
        return IntMatrix.zeros(m.cols, 0)
    normalized, _ = hnf(IntMatrix.from_columns(kernel_cols, rows=m.cols))
    for j in range(normalized.cols):
        col = normalized.column(j)
        prod = [
            sum(m.data[i][k] * col[k] for k in range(m.cols)) for i in range(m.rows)
        ]
        if any(prod):
            raise InternalCheckError("kernel basis column fails M x = 0")
    return normalized


def _echelon_solve(h_cols, pivot_rows, vector):
    """Solve H y = vector for integer y, where H is a column echelon
    matrix given by columns with strictly increasing pivot rows.

    Returns the coefficient list, or None when no integer solution
    exists.
    """
    residual = list(vector)
    coeffs = [0] * len(h_cols)
    for idx, (col, prow) in enumerate(zip(h_cols, pivot_rows)):
        q, r = divmod(residual[prow], col[prow])
        if r:
            return None
        coeffs[idx] = q
        if q:
            for i in range(len(residual)):
                residual[i] -= q * col[i]
    if any(residual):
        return None
    return coeffs


def _echelon_data(m):
    h, _ = hnf(m)
    cols = []
    pivot_rows = []
    for j in range(h.cols):
        col = h.column(j)
        nz = [i for i, val in enumerate(col) if val]
        if not nz:
            break
        cols.append(col)
        pivot_rows.append(nz[0])
    return cols, pivot_rows


def lattice_contains(basis, vector):
    """True when ``vector`` lies in the lattice generated by the columns
    of ``basis``."""
    vec = [_as_int(v) for v in vector]
    if len(vec) != basis.rows:
        raise ValueError("vector length does not match lattice dimension")
    cols, pivot_rows = _echelon_data(basis)
    return _echelon_solve(cols, pivot_rows, vec) is not None


def quotient_invariants(ambient, sub):
    """Invariants of the quotient of one lattice by a sublattice.

    ``ambient`` and ``sub`` are matrices whose columns generate the two
    lattices; the sublattice must be contained in the ambient one, or
    InternalCheckError is raised.  Returns (free_rank, torsion) where
    torsion is a tuple of invariant factors > 1 in divisibility order.
    """
    if ambient.rows != sub.rows:
        raise ValueError("lattices live in different ambient dimensions")
    cols, pivot_rows = _echelon_data(ambient)
    rank = len(cols)
    coord_columns = []
    for j in range(sub.cols):
        coeffs = _echelon_solve(cols, pivot_rows, sub.column(j))
        if coeffs is None:
            raise InternalCheckError("sublattice is not contained in the ambient lattice")
        coord_columns.append(coeffs)
    if not coord_columns:
        return rank, ()
    coords = IntMatrix.from_columns(coord_columns, rows=rank)
    dec = snf(coords)
    sub_rank = len(dec.invariant_factors)
    torsion = tuple(f for f in dec.invariant_factors if f > 1)
    return rank - sub_rank, torsion


def hstack(left, right):
    """Concatenate two matrices with equal row counts side by side."""
    if left.rows != right.rows:
        raise ValueError("row count mismatch in hstack")
    data = [left.data[i] + right.data[i] for i in range(left.rows)]
    return IntMatrix(data, cols=left.cols + right.cols)
