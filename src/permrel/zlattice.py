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

One routine, ``_echelon``, brings a list of columns into that shape on
chosen coordinates.  A transform rides along as trailing coordinates:
each column of M carries its identity column below it, so every column
operation on M is also applied to T (H. Cohen, *A Course in
Computational Algebraic Number Theory*, section 2.4).  ``hnf`` splits
the result into H and T; ``kernel_basis`` echelons the part of T past
the rank once more; ``snf`` alternates a column pass, with V below A,
and a row pass, with U beside A, until A is diagonal (R. Kannan and
A. Bachem, SIAM J. Comput. 8, 1979).
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


def _unit(j, n):
    return [0] * j + [1] + [0] * (n - 1 - j)


def _with_identity(m):
    """M's columns, each with the matching identity column below it."""
    return [col + _unit(j, m.cols) for j, col in enumerate(m.columns())]


def _echelon(cols, rows):
    """Put the columns ``cols`` into column-Hermite shape on the
    coordinates ``rows``, in place, and return the rank.

    Each operation acts on whole columns, so coordinates outside
    ``rows`` (a transform stacked below) ride along.
    """
    ncols = len(cols)
    r = 0
    for i in rows:
        if r == ncols:
            break
        while True:
            nz = [j for j in range(r, ncols) if cols[j][i]]
            if not nz:
                break
            j0 = min(nz, key=lambda j: (abs(cols[j][i]), j))
            cols[r], cols[j0] = cols[j0], cols[r]
            if cols[r][i] < 0:
                cols[r] = [-x for x in cols[r]]
            pc = cols[r]
            piv = pc[i]
            clean = True
            for j in range(r + 1, ncols):
                q = cols[j][i] // piv
                if q:
                    cols[j] = [x - q * y for x, y in zip(cols[j], pc)]
                if cols[j][i]:
                    clean = False
            if clean:
                # entries above the pivot are zero already, so reducing
                # earlier pivot columns against this one cannot disturb
                # previously fixed rows
                for j in range(r):
                    q = cols[j][i] // piv
                    if q:
                        cols[j] = [x - q * y for x, y in zip(cols[j], pc)]
                r += 1
                break
    return r


def hnf(m):
    """Column-style Hermite normal form.

    Returns (H, T) with T unimodular, H = M * T, and H in the column
    echelon shape described in the module docstring.  The identity
    H == M * T is re-verified before returning.
    """
    cols = _with_identity(m)
    _echelon(cols, range(m.rows))
    h = IntMatrix.from_columns([c[:m.rows] for c in cols], rows=m.rows)
    t = IntMatrix.from_columns([c[m.rows:] for c in cols], rows=m.cols)
    if _mat_mul_data(m.data, t.data, m.rows, m.cols, m.cols) != h.data:
        raise InternalCheckError("hermite form certificate failed")
    return h, t


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
    nrows, ncols = m.rows, m.cols
    cols = _with_identity(m)  # columns of A over V
    u = [_unit(i, nrows) for i in range(nrows)]
    while True:
        _echelon(cols, range(nrows))
        v = [c[nrows:] for c in cols]
        rows = [[c[i] for c in cols] + u[i] for i in range(nrows)]  # A beside U
        _echelon(rows, range(ncols))
        if not any(row[j] for i, row in enumerate(rows) for j in range(ncols) if j != i):
            # A is diagonal; fold a row whose entry the previous one
            # does not divide into that one, and resume the passes
            bad = next(
                (t for t in range(min(nrows, ncols) - 1)
                 if rows[t][t] and rows[t + 1][t + 1] % rows[t][t]),
                None,
            )
            if bad is None:
                break
            rows[bad] = [x + y for x, y in zip(rows[bad], rows[bad + 1])]
        cols = [[row[j] for row in rows] + v[j] for j in range(ncols)]
        u = [row[ncols:] for row in rows]
    d = IntMatrix([row[:ncols] for row in rows], cols=ncols)
    um = IntMatrix([row[ncols:] for row in rows], cols=nrows)
    vm = IntMatrix.from_columns(v, rows=ncols)
    factors = [rows[k][k] for k in range(min(nrows, ncols)) if rows[k][k]]
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
    cols = _with_identity(m)
    rank = _echelon(cols, range(m.rows))
    # the columns past the rank vanish on M's rows; their transform
    # parts are a basis of the kernel
    kernel = [c[m.rows:] for c in cols[rank:]]
    _echelon(kernel, range(m.cols))
    basis = IntMatrix.from_columns(kernel, rows=m.cols)
    if any(map(any, _mat_mul_data(m.data, basis.data, m.rows, m.cols, basis.cols))):
        raise InternalCheckError("kernel basis column fails M x = 0")
    return basis


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
