"""Exact integer matrices: Hermite and Smith normal forms, kernels,
lattice membership, and quotient invariants.

All arithmetic is exact.  Python integers carry it, since the entries
of normal-form computations routinely exceed 64 bits even for small
inputs.  numpy serves only eliminations modulo a prime: the kernel's,
whose answer is then proved over the integers, and the ranks modulo a
prime that the certificate in ``relations`` reads.  Every normal form
is certified before it is returned; a failed certificate raises
InternalCheckError rather than letting a wrong lattice leak into
callers.

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
of the pivot column.  The certificates are checked on these columns,
and an ``IntMatrix`` is built only for a value a public function
returns.  A transform rides along as trailing coordinates: each column
of M carries its identity column below it, so every column operation on
M is also applied to T (H. Cohen, *A Course in Computational Algebraic
Number Theory*, section 2.4).  ``hnf`` splits the result into H and T;
``snf`` alternates a column pass, with V below A, and a row pass, with
U beside A, until A is diagonal (R. Kannan and A. Bachem, SIAM J.
Comput. 8, 1979).

``kernel_basis`` finds {x : M x = 0}.  It first reads the Hermite
basis off one elimination modulo a prime (its docstring gives the
argument), and otherwise off the same echelon ``hnf`` runs: the columns
of T past the rank of H.  The elimination, ``_unit_kernel``, takes an
int64 array and returns the basis as (P, N, W): the identity on the
coordinates P, and the rows W, each entry at most Q/2, on the pivot
coordinates N.  ``relations`` passes its int64 marks blocks to
``_block_kernel``, which solves each distinct block once per memo the
caller keeps and returns that triple as it is; an ``IntMatrix`` is
built only for a value a public function returns.
"""

import operator
from dataclasses import dataclass

import numpy as np

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

    def columns(self):
        if not self.rows:
            return [[] for _ in range(self.cols)]
        return [list(col) for col in zip(*self.data)]

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


def _dense(col, n):
    return [col.get(i, 0) for i in range(n)]


def _from_rows(data, cols):
    """The IntMatrix with the rows ``data``, each ``cols`` long.  Their
    entries are ints permrel computed itself, so they are not checked
    again."""
    out = IntMatrix.__new__(IntMatrix)
    out.rows, out.cols, out.data = len(data), cols, data
    return out


def _from_sparse(cols, n):
    """The IntMatrix with n rows and the sparse columns ``cols``: zero
    rows, with each column's nonzeros written in."""
    data = [[0] * len(cols) for _ in range(n)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            data[i][j] = v
    return _from_rows(data, len(cols))


def _sparse_columns(m):
    """M's columns as {row: nonzero entry} dicts."""
    return [{i: v for i, v in enumerate(col) if v} for col in m.columns()]


def _with_identity(m_cols, n):
    """Copies of the sparse columns ``m_cols`` of an n-row M, column j
    with the identity entry at n + j."""
    return [{**col, n + j: 1} for j, col in enumerate(m_cols)]


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
            # move the pivot column to r and keep the others in order;
            # a swap would scramble them, which on the deduplicated
            # imprimitive columns of C2^5 quadrupled the column updates
            cols.insert(r, cols.pop(j0))
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
    m_cols = _sparse_columns(m)
    cols = _with_identity(m_cols, m.rows)
    _echelon(cols, range(m.rows))
    parts = [_split(c, m.rows) for c in cols]
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
    m_cols = _sparse_columns(m)
    cols = _with_identity(m_cols, nrows)  # columns of A over V
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
    d, u = [a for a, _ in parts], [w for _, w in parts]
    _check_smith(m_cols, d, u, v)
    factors = tuple(d[k][k] for k in range(min(nrows, ncols)) if d[k].get(k))
    return SmithDecomposition(
        _from_rows([_dense(w, nrows) for w in u], nrows),
        _from_rows([_dense(a, ncols) for a in d], ncols),
        _from_sparse(v, ncols),
        factors,
    )


def _check_smith(m_cols, d, u, v):
    """Prove U M V = D, with D diagonal and its nonzero entries a
    positive divisibility chain ahead of its zeros.  M and V are given
    by their sparse columns, D and U by their sparse rows."""
    if any(j != i for i, row in enumerate(d) for j in row):
        raise InternalCheckError("smith form is not diagonal")
    u_cols = _beside(u, [{} for _ in u])
    for j, col in enumerate(v):
        diag = {j: d[j][j]} if j < len(d) and j in d[j] else {}
        if _apply(u_cols, _apply(m_cols, col)) != diag:
            raise InternalCheckError("smith form certificate failed")
    prev = 1
    for k in range(min(len(d), len(v))):
        val = d[k].get(k, 0)
        if not val:
            prev = 0
        elif not prev:
            raise InternalCheckError("zero precedes a nonzero invariant factor")
        elif val < 0:
            raise InternalCheckError("negative invariant factor")
        elif val % prev:
            raise InternalCheckError("invariant factor divisibility chain broken")
        else:
            prev = val


def kernel_basis(m):
    """Basis of the integer kernel {x : M x = 0}, as Hermite-reduced
    matrix columns.

    First, a Gauss-Jordan elimination of M modulo the prime Q, kept as
    the r x r record of its row operations, takes pivot columns N from
    the right.  Each other coordinate p gives the
    column e_p - W_p, with W = M_N^-1 M_P mod Q in residues of least
    absolute value; W_p is zero on each n in N below p, whose row had no
    pivot, hence a zero residue, when p was passed over.  The columns
    are accepted when there are r = M.rows pivots and M_P = M_N W
    exactly.  Then det M_N is nonzero, so rank M = r, and the columns,
    integral kernel vectors equal to the identity on P, span every
    integral kernel vector (x minus the sum of x_p (e_p - W_p) is a
    kernel vector supported on N, hence 0).  So they are the unique
    Hermite basis, with unit pivots.  A rank below r, a non-unit pivot
    (W is not integral), an entry of W past Q/2 or a prime that divides
    det M_N fails that test.  Then the basis is the columns of T past
    the rank of H = M * T, which span the kernel as T is unimodular,
    brought into Hermite shape, each checked against M x = 0.
    """
    mat = _int64(m)
    unit = None if mat is None else _unit_kernel(mat)
    return _echelon_kernel(m) if unit is None else _basis_matrix(unit, m.cols)


def _echelon_kernel(m):
    """``kernel_basis``'s basis read off the transform of the echelon
    ``hnf`` runs."""
    m_cols = _sparse_columns(m)
    cols = _with_identity(m_cols, m.rows)
    rank = _echelon(cols, range(m.rows))
    kernel = [_split(col, m.rows)[1] for col in cols[rank:]]
    _echelon(kernel, range(m.cols))
    if any(_apply(m_cols, x) for x in kernel):
        raise InternalCheckError("kernel basis column fails M x = 0")
    return _from_sparse(kernel, m.cols)


# Q: below 2^31, so a product of two residues fits in int64, and so does
# each entry of M_N W while r * Q * max |M| does
_PRIME = 2**31 - 1


def _unit_kernel(mat):
    """``kernel_basis``'s unit-pivot basis of the int64 array M by
    elimination modulo Q, or None.  The basis is returned as (P, N, W):
    it is the identity on the coordinates P, and on N[i], the pivot of
    row i of M, it is the row W[i], with |W| <= Q/2.

    The elimination keeps only the r x r record A of its row operations
    modulo Q, so the reduced M is A M modulo Q: each column, right to
    left, is one product A M[:, n], a pivot updates A alone, and W is
    read off A M_P.  Each product, and M_N W, fits in int64 while
    max |M| * r * Q does."""
    r, k = mat.shape
    q = _PRIME
    if mat.size and max(int(mat.max()), -int(mat.min())) * r * q >= 2**63:
        return None
    ops = np.eye(r, dtype=np.int64)
    free = list(range(r))  # rows without a pivot, in order
    pivot_cols = [None] * r
    for n in range(k - 1, -1, -1):
        if not free:
            break
        x = (ops @ mat[:, n] % q).tolist()
        s = next((i for i in free if x[i]), None)
        if s is None:
            continue
        # row s is scaled to 1 at n, and x[i] times it leaves row i
        inv = pow(x[s], q - 2, q)  # Q is prime
        x[s] -= 1
        ops -= np.multiply.outer([v * inv % q for v in x], ops[s])
        ops %= q
        free.remove(s)
        pivot_cols[s] = n
    if free:
        return None
    rest = np.delete(np.arange(k), pivot_cols)
    neg = -(ops @ mat[:, rest]) % q  # -W, lifted below
    neg[neg > q // 2] -= q
    if (mat[:, rest] + mat[:, pivot_cols] @ neg).any():  # M_P + M_N (-W) must vanish
        return None
    return rest, np.array(pivot_cols, dtype=np.intp), neg


def _block_kernel(block, solved):
    """The kernel of the int64 array ``block``, whose rows are
    independent, solved once per memo ``solved`` (keyed by the block's
    shape and bytes): (P, N, W) from ``_unit_kernel``, which proves the
    rank itself with a pivot in every row, or else the IntMatrix of
    ``_echelon_kernel``, whose rank is checked."""
    key = block.shape, block.tobytes()
    if key not in solved:
        solved[key] = _unit_kernel(block)
        if solved[key] is None:
            r, k = block.shape
            solved[key] = basis = _echelon_kernel(_from_rows(block.tolist(), k))
            if basis.cols != k - r:
                raise InternalCheckError(
                    "kernel rank %d differs from %d columns less %d rows" % (basis.cols, k, r)
                )
    return solved[key]


def _basis_matrix(found, k):
    """The k-row IntMatrix of a basis from ``_block_kernel``."""
    if isinstance(found, IntMatrix):
        return found
    rest, pivot_cols, neg = found
    data = [None] * k
    for j, p in enumerate(rest.tolist()):
        data[p] = [0] * len(rest)
        data[p][j] = 1
    for n, row in zip(pivot_cols.tolist(), neg.tolist()):
        data[n] = row
    return _from_rows(data, len(rest))


def _int64(matrix):
    """``matrix`` as an int64 array, or None when an entry does not fit."""
    data = matrix.data
    if matrix.rows and matrix.cols:
        if max(max(map(max, data)), -min(map(min, data))) >= 2**63:
            return None
    return np.array(data, dtype=np.int64).reshape(matrix.rows, matrix.cols)


def _rank_reaches(ell, rows, pivots, target):
    """Add the rows of the int64 array ``rows``, modulo the prime ell, to
    the echelon basis ``pivots`` (leading coordinate -> row) until it has
    ``target`` rows; whether it has.  Modulo 2 a row is one Python int,
    its bits the coordinates, so adding rows is XOR and the highest set
    bit, which ``bit_length`` reads without a pass over the row, leads."""
    if ell == 2:
        get = pivots.get
        for packed in np.packbits(rows % 2, axis=1):
            v = int.from_bytes(packed.tobytes(), "big")
            while (pivot := get(v.bit_length())) is not None:
                v ^= pivot
            if v:
                pivots[v.bit_length()] = v
                if len(pivots) == target:
                    return True
        return False
    for v in (rows % ell).tolist():
        for i in range(len(v)):
            if not v[i]:
                continue
            if i not in pivots:
                inverse = pow(v[i], -1, ell)
                pivots[i] = [a * inverse % ell for a in v]
                if len(pivots) == target:
                    return True
                break
            c = v[i]
            v = [(a - c * b) % ell for a, b in zip(v, pivots[i])]
    return False


def _echelon_basis(m):
    """A basis of M's column lattice in echelon shape, as sparse columns,
    with the pivot row of each: M's own nonzero columns when they come
    first and their pivot rows strictly increase, and otherwise those of
    M's Hermite form."""
    cols = _sparse_columns(m)
    n = sum(1 for col in cols if col)
    pivots = [min(col) for col in cols[:n] if col]
    if len(pivots) == n and all(a < b for a, b in zip(pivots, pivots[1:])):
        return cols[:n], pivots
    return _echelon_basis(hnf(m)[0])


def _solve(basis, pivots, col):
    """The sparse y with sum y_j basis[j] = col, for ``_echelon_basis``'s
    basis and pivots, or None when no integer y exists.  ``col`` is
    reduced in place; a remainder left at a pivot row stays there, as
    the later columns are zero on it."""
    y = {}
    for j, (b, p) in enumerate(zip(basis, pivots)):
        q = col.get(p, 0) // b[p]
        if q:
            _addmul(col, q, b)
            y[j] = q
    return None if col else y


def quotient_invariants(ambient, sub):
    """Invariants of the quotient of one lattice by a sublattice.

    ``ambient`` and ``sub`` are matrices whose columns generate the two
    lattices; the sublattice must be contained in the ambient one, or
    InternalCheckError is raised.  An ambient matrix in column echelon
    shape, such as a kernel basis, is used as it is; any other is put in
    Hermite form first.  Returns (free_rank, torsion), where torsion is
    a tuple of invariant factors > 1 in divisibility order.
    """
    if ambient.rows != sub.rows:
        raise ValueError("lattices live in different ambient dimensions")
    basis, pivots = _echelon_basis(ambient)
    coords = [_solve(basis, pivots, col) for col in _sparse_columns(sub)]
    if None in coords:
        raise InternalCheckError("sublattice is not contained in the ambient lattice")
    if not coords:
        return len(basis), ()
    factors = snf(_from_sparse(coords, len(basis))).invariant_factors
    return len(basis) - len(factors), tuple(f for f in factors if f > 1)
