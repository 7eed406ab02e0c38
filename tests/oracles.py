"""Reference helpers shared by several test modules."""

from collections import deque

import numpy as np
from hypothesis import strategies as st

from permrel import _kernels
from permrel.constructions import decode_vector, encode_vector
from permrel.perm import Permutation, generate
from permrel.relations import brauer_kernel
from permrel.subgroups import (
    Subgroup,
    SubgroupClass,
    SubgroupClassTable,
    enumerate_classes,
    normal_subgroups,
    quotient,
    subgroup_as_group,
)
from permrel.zlattice import IntMatrix, hnf


@st.composite
def permutation_groups(draw, max_degree=5):
    """A group generated by one to three random permutations."""
    degree = draw(st.integers(1, max_degree))
    perms = st.permutations(range(degree)).map(Permutation)
    return generate(degree, draw(st.lists(perms, min_size=1, max_size=3)))


def _closure_by_products(mult, seeds):
    """Subgroup generated by ``seeds``: add every product of two members
    until nothing new appears."""
    member = np.zeros(mult.shape[0], dtype=bool)
    member[0] = True
    member[seeds] = True
    while True:
        members = np.flatnonzero(member)
        products = mult[np.ix_(members, members)]
        fresh = products[~member[products]]
        if fresh.size == 0:
            return members.astype(np.int32)
        member[fresh] = True


def enumerate_classes_by_every_extension(group):
    """Subgroup classes with no shortcuts: every class representative H
    is extended by every g outside H, closing all of H plus g.  The
    table is built like ``enumerate_classes`` builds it (classes sorted
    by order and indices, orbit-least representatives), but not cached."""
    mult = group.mult
    inv = group.inv
    n = group.order
    sub_to_class = {}
    records = []  # (indices, normalizer_indices, class_size)
    queue = deque()

    def register(indices):
        if indices.tobytes() in sub_to_class:
            return
        norm = _kernels.normalizer_members(mult, inv, indices)
        orbit = [
            (group.conjugate_indices(t, indices), t)
            for t in _kernels.coset_reps(mult, norm)
        ]
        canon, t0 = min(orbit, key=lambda pair: pair[0].tolist())
        for conj, _ in orbit:
            sub_to_class[conj.tobytes()] = len(records)
        records.append((canon, group.conjugate_indices(t0, norm), len(orbit)))
        if canon.size < n:
            queue.append(canon)

    for g in range(n):
        register(_closure_by_products(mult, np.asarray([g], dtype=np.int32)))
    while queue:
        base = queue.popleft()
        for g in np.setdiff1d(np.arange(n, dtype=np.int32), base):
            register(_closure_by_products(mult, np.append(base, g)))

    order = sorted(range(len(records)), key=lambda i: (records[i][0].size,
                                                       records[i][0].tolist()))
    position = {old: new for new, old in enumerate(order)}
    classes = [
        SubgroupClass(
            representative=Subgroup(group, records[i][0]),
            order=int(records[i][0].size),
            class_size=records[i][2],
            normalizer=Subgroup(group, records[i][1]),
        )
        for i in order
    ]
    return SubgroupClassTable(
        group, classes, {key: position[cid] for key, cid in sub_to_class.items()}
    )


def matrix_of_stabilizer_element(group, perm_index, l, d):
    """Extract the linear matrix of an origin-fixing affine element.

    Column j of the result is the image of the j-th standard basis
    point under the permutation.
    """
    perm = group.elements[perm_index]
    cols = []
    for axis in range(d):
        basis = [0] * d
        basis[axis] = 1
        image = perm.images[encode_vector(basis, l)]
        cols.append(decode_vector(image, l, d))
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def _subquotient_class_map(group, table, h, h_group, n_sub):
    """For the subquotient H/N of G: the quotient group, and the map
    sending each of its subgroup classes to the G-class of the
    preimage in G."""
    parent = (
        h.indices if h_group is not group else np.arange(group.order, dtype=np.int32)
    )
    if n_sub.order == 1:
        q_group = h_group
        preimage = lambda sub: sub  # noqa: E731
    else:
        quot = quotient(h_group, n_sub)
        q_group = quot.group
        preimage = quot.preimage
    class_map = [
        table.class_index_of(
            Subgroup(group, parent[preimage(cls.representative).indices])
        )
        for cls in enumerate_classes(q_group).classes
    ]
    return q_group, class_map


def imprimitive_lattice_by_sweep(group, characteristic):
    """The imprimitive lattice from every proper subquotient H/N, with H
    running over the class representatives and N over the normal
    subgroups of H: each kernel column of H/N is moved class by class to
    the G-class of its preimage, and the stacked columns are
    Hermite-reduced with zero columns dropped."""
    table = enumerate_classes(group)
    k = len(table.classes)
    columns = []
    for cls in table.classes:
        h = cls.representative
        h_group = subgroup_as_group(h)
        for n_sub in normal_subgroups(h_group):
            if h.order == group.order and n_sub.order == 1:
                continue  # the subquotient G/1 is G itself, not proper
            if n_sub.order == h.order:
                continue  # trivial quotient has a zero kernel
            q_group, class_map = _subquotient_class_map(group, table, h, h_group, n_sub)
            for col in brauer_kernel(q_group, characteristic).basis.columns():
                out = [0] * k
                for idx, coeff in enumerate(col):
                    if coeff:
                        out[class_map[idx]] += coeff
                columns.append(out)
    columns.sort()
    reduced, _ = hnf(IntMatrix.from_columns(columns, rows=k))
    kept = [reduced.column(j) for j in range(reduced.cols) if any(reduced.column(j))]
    return IntMatrix.from_columns(kept, rows=k)


def kernel_basis_by_two_hnfs(m):
    """The integer kernel of M in two Hermite passes: the columns of T
    past the rank of H = M * T, then the Hermite form of those."""
    h, t = hnf(m)
    rank = sum(1 for col in h.columns() if any(col))
    kernel = t.columns()[rank:]
    if not kernel:
        return IntMatrix.from_columns([], rows=m.cols)
    return hnf(IntMatrix.from_columns(kernel, rows=m.cols))[0]


def echelon_dense(cols, rows):
    """Column-Hermite shape of dense list columns on the coordinates
    ``rows``, in place; returns the rank.  Every update rewrites the
    whole column, zeros included."""
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
                for j in range(r):
                    q = cols[j][i] // piv
                    if q:
                        cols[j] = [x - q * y for x, y in zip(cols[j], pc)]
                r += 1
                break
    return r


def _dense_with_identity(m):
    return [col + [int(i == j) for i in range(m.cols)] for j, col in enumerate(m.columns())]


def hnf_by_dense_echelon(m):
    """(H, T) of ``hnf``, with the transform stacked below M and every
    column kept dense."""
    cols = _dense_with_identity(m)
    echelon_dense(cols, range(m.rows))
    return (
        IntMatrix.from_columns([c[:m.rows] for c in cols], rows=m.rows),
        IntMatrix.from_columns([c[m.rows:] for c in cols], rows=m.cols),
    )


def snf_by_dense_echelon(m):
    """(U, D, V) of ``snf``: a column pass with V below A, then a row
    pass with U beside A, until A is diagonal, folding row t + 1 into
    row t where d_t does not divide d_{t+1}; every column kept dense."""
    nrows, ncols = m.rows, m.cols
    cols = _dense_with_identity(m)
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    while True:
        echelon_dense(cols, range(nrows))
        v = [c[nrows:] for c in cols]
        rows = [[c[i] for c in cols] + u[i] for i in range(nrows)]
        echelon_dense(rows, range(ncols))
        if not any(row[j] for i, row in enumerate(rows) for j in range(ncols) if j != i):
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
    return (
        IntMatrix([row[ncols:] for row in rows], cols=nrows),
        IntMatrix([row[:ncols] for row in rows], cols=ncols),
        IntMatrix.from_columns(v, rows=ncols),
    )
