"""The Burnside ring of a finite group in its mark coordinates.

Elements are integer vectors over the subgroup-class basis [G/H].  The
table of marks is one record per group, whose columns are counted from
containments in the class table when a reader first asks for them: the
mark of K on G/H is |N_G(H):H| times the number of conjugates of H that
contain K (G. Pfeiffer, "The subgroups of M24, or how to compute the
table of marks of a finite group", Exp. Math. 6, 1997).  Each column is
checked against three structural facts when it is counted: it is zero
above the diagonal in the class order, its diagonal entry at H is
#N_G(H)/#H, and the trivial class's column is the index [G:H].
"""

import numpy as np

from . import _kernels as kernels
from .errors import InputError, InternalCheckError
from .subgroups import Subgroup, enumerate_classes

# a table with at most this many (class, row) containments is counted
# whole at its first request, as one count costs less than several
_WHOLE_ENTRIES = 2**16


class BurnsideElement:
    """An element of the Burnside ring in the [G/H] basis."""

    __slots__ = ("table", "coeffs")

    def __init__(self, table, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != len(table.classes):
            raise InputError("coefficient count does not match class count")
        self.table = table
        self.coeffs = coeffs

    @classmethod
    def zero(cls, table):
        return cls(table, (0,) * len(table.classes))

    @classmethod
    def basis(cls, table, class_index):
        coeffs = [0] * len(table.classes)
        coeffs[class_index] = 1
        return cls(table, coeffs)

    def _check_same(self, other):
        if self.table is not other.table:
            raise InputError("elements belong to different Burnside rings")

    def __add__(self, other):
        self._check_same(other)
        return BurnsideElement(
            self.table, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._check_same(other)
        return BurnsideElement(
            self.table, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return BurnsideElement(self.table, tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar):
        scalar = int(scalar)
        return BurnsideElement(self.table, tuple(scalar * a for a in self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return self.table is other.table and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.table), self.coeffs))

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append("%+d*[%d]" % (c, i))
        return "BurnsideElement(%s)" % (" ".join(parts) or "0")


def fixed_points(group, h, k):
    """Number of fixed points of K acting on the coset space G/H."""
    if h.ambient is not group or k.ambient is not group:
        raise InputError("fixed_points requires subgroups of the given group")
    return int(
        kernels.count_fixed(
            group.mult, group.inv, h.mask, h.transversal, k.generator_indices
        )
    )


class MarksTable:
    """A table of marks, entry [i, j] the mark of class j on [G/H_i],
    each column counted by ``count_marks`` when first asked for and kept.

    Row t of ``rows`` of the class table ``table`` (all by default) is in
    class ``class_of[t]``, and ``tests[j]`` generates K_j; ``weights`` and
    ``index`` are as for ``count_marks``.  ``array`` is the whole table
    as one int64 array, and ``m`` the same entries as lists of ints."""

    __slots__ = ("table", "_rows", "_first", "_tests", "_weights", "_index", "_store",
                 "_slot", "_whole", "_m")

    def __init__(self, table, tests, weights, index, rows=None, class_of=None):
        if rows is None:
            class_of = table.class_of
        else:
            by_class = np.argsort(class_of, kind="stable")
            rows, class_of = rows[by_class], class_of[by_class]
        self.table, self._rows, self._tests = table, rows, tests
        self._first = np.searchsorted(class_of, np.arange(len(weights)))  # each class's rows
        self._weights, self._index = weights, index
        self._store = np.zeros((len(weights), 0), dtype=np.int64)  # counted columns
        self._slot = np.full(len(weights), -1)  # each column's place in the store, or -1
        self._whole = len(weights) * len(class_of) <= _WHOLE_ENTRIES
        self._m = None

    @property
    def counted(self):
        """How many columns have been counted."""
        return self._store.shape[1]

    def columns(self, cols):
        """The columns ``cols``, as one k x len(cols) int64 array."""
        cols = np.asarray(cols, dtype=np.intp)
        self._count(cols[self._slot[cols] < 0])
        return self._store[:, self._slot[cols]]

    @property
    def array(self):
        self._count(np.flatnonzero(self._slot < 0))
        return self._store

    def _count(self, new):
        """Count the columns ``new``, none counted yet, or every column of
        a small table, in one pass, and put the store in class order once
        it holds every column."""
        if new.size:
            new = np.flatnonzero(self._slot < 0) if self._whole else kernels.sorted_unique(new)
            tests = [self._tests[j] for j in new.tolist()]
            found = count_marks(self.table.containing(tests, self._rows), self._first,
                                self._weights, self._index, new)
            self._slot[new] = np.arange(self.counted, self.counted + new.size)
            self._store = np.concatenate((self._store, found), axis=1)
            if self.counted == len(self._slot):
                self._store, self._slot = self._store[:, self._slot], np.arange(self.counted)

    @property
    def m(self):
        if self._m is None:
            self._m = self.array.tolist()
        return self._m


def marks_table(group, table=None):
    """The table of marks of ``group``, cached on it, as a ``MarksTable``
    whose columns are counted on demand.

    K lies in a conjugate gHg^-1 exactly when K fixes the coset gH, and
    the |N_G(H):H| cosets gnH with n in N_G(H) give the same conjugate,
    so the mark of K on G/H is |N_G(H):H| times the number of
    conjugates of H that contain K (Pfeiffer, 1997).  ``count_marks``
    counts those from the table's rows that hold each K's generators,
    which suffices.
    """
    if table is None:
        table = enumerate_classes(group)
    elif table.group is not group:
        raise InputError("marks_table was given the class table of another group")
    cached = group._memo.get("marks")
    if cached is not None:
        return cached
    classes = table.classes
    orders = np.asarray([c.order for c in classes], dtype=np.int64)
    weights = np.asarray([c.normalizer.order for c in classes], dtype=np.int64) // orders
    result = MarksTable(table, [c.generators for c in classes], weights, group.order // orders)
    group._memo["marks"] = result
    return result


def count_marks(above, first, weights, index, cols):
    """The columns ``cols`` of a table of marks, counted from subgroup
    containments.

    Row t of the bool matrix ``above`` is a subgroup, the rows of class
    i from ``first[i]`` on, true at column c when it contains K_cols[c];
    ``weights[i]`` is |N(H_i):H_i| and ``index[i]`` the index of H_i.
    The mark of K_j on H_i is the weight times the number of class-i
    rows containing K_j.  Column j must be zero above the diagonal, with
    ``weights[j]`` on it, and the trivial class's column must be
    ``index``; otherwise InternalCheckError is raised.
    """
    m = weights[:, None] * np.add.reduceat(above, first, axis=0, dtype=np.int64)
    if (m[:, cols == 0] != index[:, None]).any():
        raise InternalCheckError("mark on the trivial class must be the index")
    if (m[cols, np.arange(len(cols))] != weights[cols]).any():
        raise InternalCheckError("diagonal mark disagrees with the normalizer")
    if ((m != 0) & (np.arange(len(weights))[:, None] < cols)).any():
        raise InternalCheckError("table of marks is not lower triangular")
    return m


def mark_vector(x, cols=None):
    """The marks of a Burnside element at the classes ``cols``, all of
    them by default, one integer per class."""
    marks = marks_table(x.table.group, x.table)
    block = marks.array if cols is None else marks.columns(cols)
    terms = [(i, c) for i, c in enumerate(x.coeffs) if c]
    rows = block[[i for i, _ in terms]].tolist()  # only the rows it needs
    return [sum(c * row[j] for (_, c), row in zip(terms, rows)) for j in range(block.shape[1])]


def _from_marks(table, marks):
    """The element of ``table``'s Burnside ring with the given marks.

    The table of marks is lower triangular with nonzero diagonal, so
    the coefficients solve a triangular system by back substitution.  A
    remainder means no integral element has these marks, and raises
    InternalCheckError.
    """
    m = marks_table(table.group, table).m
    k = len(marks)
    coeffs = [0] * k
    for j in range(k - 1, -1, -1):
        acc = marks[j] - sum(coeffs[i] * m[i][j] for i in range(j + 1, k) if coeffs[i])
        coeffs[j], rem = divmod(acc, m[j][j])
        if rem:
            raise InternalCheckError("marks of no Burnside element")
    return BurnsideElement(table, coeffs)


def multiply(a, b):
    """Product in the Burnside ring: marks are multiplicative."""
    a._check_same(b)
    return _from_marks(a.table, [x * y for x, y in zip(mark_vector(a), mark_vector(b))])


def _induction_map(table_h, table_g):
    """G-class of each H-class, built once per pair of tables and
    cached on ``table_h``."""
    maps = table_h._class_maps
    if table_g not in maps:
        g_group = table_g.group
        parent = g_group._indices_of(table_h.group.images)
        maps[table_g] = [
            table_g.class_index_of(
                Subgroup(g_group, parent[cls.representative.indices])
            )
            for cls in table_h.classes
        ]
    return maps[table_g]


def induct(table_h, table_g, x):
    """Induction of Burnside elements along H <= G.

    H must act on the same points as G with every element belonging to
    G; induction sends the basis element [H/U] to [G/U].
    """
    if x.table is not table_h:
        raise InputError("element does not belong to the source table")
    class_map = _induction_map(table_h, table_g)
    out = [0] * len(table_g.classes)
    for i, c in enumerate(x.coeffs):
        if c:
            out[class_map[i]] += c
    return BurnsideElement(table_g, out)


def restrict(table_g, table_h, x):
    """Restriction of Burnside elements along H <= G.

    The mark of Res x at K <= H is the mark of x at K, that is at K's
    G-class; H acts on the same points as G, as for ``induct``.
    """
    if x.table is not table_g:
        raise InputError("element does not belong to the source table")
    marks = mark_vector(x)
    return _from_marks(table_h, [marks[c] for c in _induction_map(table_h, table_g)])


def inflate(table_quotient, table_g, x, quotient_map):
    """Inflation of Burnside elements along a quotient map G -> G/N.

    ``quotient_map`` is the Quotient record produced by
    ``subgroups.quotient``; the basis element at a class U-bar of the
    quotient is sent to the class of its full preimage in G.
    """
    if x.table is not table_quotient:
        raise InputError("element does not belong to the source table")
    out = [0] * len(table_g.classes)
    for i, c in enumerate(x.coeffs):
        if c:
            rep = table_quotient.classes[i].representative
            pre = quotient_map.preimage(rep)
            out[table_g.class_index_of(pre)] += c
    return BurnsideElement(table_g, out)


def element_from_subgroups(table, pairs):
    """Build an element from (Subgroup, coefficient) pairs."""
    coeffs = [0] * len(table.classes)
    for sub, c in pairs:
        coeffs[table.class_index_of(sub)] += int(c)
    return BurnsideElement(table, coeffs)
