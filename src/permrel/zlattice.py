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
chosen coordinates.  Inside this module a column is sparse, a dict
{coordinate: nonzero int}, so a column update touches only the support
of the pivot column; ``IntMatrix`` stays dense at the public boundary.
A transform rides along as trailing coordinates: each column of M
carries its identity column below it, so every column operation on M
is also applied to T (H. Cohen, *A Course in Computational Algebraic
Number Theory*, section 2.4).  ``hnf`` splits the result into H and T;
``snf`` alternates a column pass, with V below A, and a row pass, with
U beside A, until A is diagonal (R. Kannan and A. Bachem, SIAM J.
Comput. 8, 1979).

``triangular_kernel`` finds {x : M x = 0} when M has a square upper
triangular block A with nonzero diagonal, and B is M on the other
columns.  A kernel vector is fixed by its part y outside A, through
x_A = -A^-1 B y, so the kernel is the lift of the lattice
L = {y : C y = 0 mod d} with C = d A^-1 B, for any d that makes C
integral.  L contains d Z^N, so it is found by one echelon of C modulo
d beside the columns d e_i (P. Domich, R. Kannan and L. Trotter, Math.
Oper. Res. 12, 1987).  For the marks of a group G at its
hypo-elementary classes, d = |G| serves: A^-1 is a block of the inverse
table of marks, whose denominators divide |G| (D. Gluck, Illinois J.
Math. 25, 1981; T. Yoshida, J. Algebra 80, 1983).
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

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return IntMatrix(
            _mat_mul_data(self.data, other.data, self.rows, self.cols, other.cols),
            cols=other.cols,
        )

    def is_zero(self):
        return all(v == 0 for row in self.data for v in row)

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


def _dense(col, n):
    return [col.get(i, 0) for i in range(n)]


def _from_sparse(cols, n):
    """The IntMatrix with n rows and the sparse columns ``cols``.  Their
    entries were computed here from checked ints, so they are not
    checked again."""
    out = IntMatrix.__new__(IntMatrix)
    out.rows, out.cols = n, len(cols)
    out.data = [[c.get(i, 0) for c in cols] for i in range(n)]
    return out


def _sparse_columns(m):
    """M's columns as {row: nonzero entry} dicts."""
    return [{i: v for i, v in enumerate(col) if v} for col in m.columns()]


def _with_identity(m):
    """M's sparse columns, column j with the identity entry at m.rows + j."""
    cols = _sparse_columns(m)
    for j, col in enumerate(cols):
        col[m.rows + j] = 1
    return cols


def _split(col, n):
    """A sparse column cut at coordinate n: the part below n, and the
    part from n on, shifted down by n."""
    return (
        {i: v for i, v in col.items() if i < n},
        {i - n: v for i, v in col.items() if i >= n},
    )


def _beside(vectors, tails):
    """Read the first len(tails) coordinates of ``vectors`` across:
    entry j of the i-th result is coordinate i of vectors[j], followed
    from coordinate len(vectors) on by tails[i]."""
    out = [{len(vectors) + t: x for t, x in tail.items()} for tail in tails]
    for j, vec in enumerate(vectors):
        for i, x in vec.items():
            if i < len(tails):
                out[i][j] = x
    return out


def _apply(m_cols, x):
    """M x for sparse x, with M given by its sparse columns, as a sparse
    column."""
    out = {}
    for j, v in x.items():
        for i, a in m_cols[j].items():
            out[i] = out.get(i, 0) + a * v
    return {i: v for i, v in out.items() if v}


def _addmul(col, q, pivot_col):
    """col -= q * pivot_col, in place, on the support of pivot_col."""
    for i, v in pivot_col.items():
        x = col.get(i, 0) - q * v
        if x:
            col[i] = x
        else:
            del col[i]


def _echelon(cols, rows):
    """Put the sparse columns ``cols`` into column-Hermite shape on the
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
            nz = [j for j in range(r, ncols) if i in cols[j]]
            if not nz:
                break
            j0 = min(nz, key=lambda j: (abs(cols[j][i]), j))
            cols[r], cols[j0] = cols[j0], cols[r]
            pc = cols[r]
            if pc[i] < 0:
                for t in pc:
                    pc[t] = -pc[t]
            piv = pc[i]
            clean = True
            for j in range(r + 1, ncols):
                col = cols[j]
                if i in col:
                    q = col[i] // piv
                    if q:
                        _addmul(col, q, pc)
                    if i in col:
                        clean = False
            if clean:
                # entries above the pivot are zero already, so reducing
                # earlier pivot columns against this one cannot disturb
                # previously fixed rows
                for j in range(r):
                    q = cols[j].get(i, 0) // piv
                    if q:
                        _addmul(cols[j], q, pc)
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
    parts = [_split(c, m.rows) for c in cols]
    m_cols = _sparse_columns(m)
    if any(_apply(m_cols, t) != h for h, t in parts):
        raise InternalCheckError("hermite form certificate failed")
    h = _from_sparse([h for h, _ in parts], m.rows)
    t = _from_sparse([t for _, t in parts], m.cols)
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
    u = [{i: 1} for i in range(nrows)]
    while True:
        _echelon(cols, range(nrows))
        v = [_split(c, nrows)[1] for c in cols]
        rows = _beside(cols, u)  # A beside U
        _echelon(rows, range(ncols))
        if not any(j < ncols and j != i for i, row in enumerate(rows) for j in row):
            # A is diagonal; fold a row whose entry the previous one
            # does not divide into that one, and resume the passes
            bad = next(
                (t for t in range(min(nrows, ncols) - 1)
                 if rows[t].get(t) and rows[t + 1].get(t + 1, 0) % rows[t][t]),
                None,
            )
            if bad is None:
                break
            _addmul(rows[bad], -1, rows[bad + 1])
        u = [_split(row, ncols)[1] for row in rows]
        cols = _beside(rows, v)
    parts = [_split(row, ncols) for row in rows]
    d = IntMatrix([_dense(a, ncols) for a, _ in parts], cols=ncols)
    um = IntMatrix([_dense(w, nrows) for _, w in parts], cols=nrows)
    vm = _from_sparse(v, ncols)
    factors = [rows[k][k] for k in range(min(nrows, ncols)) if rows[k].get(k)]
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


def triangular_kernel(m, pivots, modulus):
    """Basis of the integer kernel {x : M x = 0}, as Hermite-reduced
    matrix columns.

    The columns ``pivots`` of M, one per row and taken in row order,
    must form an upper triangular block A with nonzero diagonal, and
    ``modulus`` must be a positive d with d * A^-1 B integral, where B
    is M on the remaining columns; the module docstring gives the
    method.  A block that is not triangular, or a remainder in the
    back-substitution for d * A^-1 B, raises InternalCheckError, as
    does a basis column that fails M x = 0.
    """
    r, k = m.rows, m.cols
    modulus = _as_int(modulus)
    if len(set(pivots)) != r or modulus < 1:
        raise ValueError("need one distinct pivot column per row and a positive modulus")
    a = [[row[p] for p in pivots] for row in m.data]
    if any(not a[i][i] or any(a[i][:i]) for i in range(r)):
        raise InternalCheckError("pivot block is not upper triangular")
    rest = sorted(set(range(k)) - set(pivots))
    if not rest:
        return IntMatrix.from_columns([], rows=k)
    # C = d A^-1 B by back-substitution in A, one sparse column at a time
    upper = [[(j, a[i][j]) for j in range(i + 1, r) if a[i][j]] for i in range(r)]
    c_cols = []
    for n in rest:
        z = {}
        for i in reversed(range(r)):
            x = modulus * m.data[i][n] - sum(v * z[j] for j, v in upper[i] if j in z)
            q, rem = divmod(x, a[i][i])
            if rem:
                raise InternalCheckError("modulus * A^-1 B is not integral")
            if q:
                z[i] = q
        c_cols.append(z)
    # L: the columns (C mod d over y) beside d e_i, echeloned on C's rows;
    # the columns past the rank vanish there, and their y parts span L
    cols = []
    for n, z in enumerate(c_cols):
        col = {i: v % modulus for i, v in z.items() if v % modulus}
        col[r + n] = 1
        cols.append(col)
    cols += [{i: modulus} for i in range(r)]
    rank = _echelon(cols, range(r))
    # lift each y of L to x with x_A = -C y / d; a floor here would be
    # caught by the M x = 0 check below
    kernel = []
    for col in cols[rank:]:
        y = {n - r: v for n, v in col.items()}
        x = {rest[n]: v for n, v in y.items()}
        for i, v in _apply(c_cols, y).items():
            x[pivots[i]] = -v // modulus
        kernel.append(x)
    _echelon(kernel, range(k))
    m_cols = _sparse_columns(m)
    if any(_apply(m_cols, x) for x in kernel):
        raise InternalCheckError("kernel basis column fails M x = 0")
    return _from_sparse(kernel, k)


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
