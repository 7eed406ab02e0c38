"""The Burnside ring of a finite group in its mark coordinates.

Elements are integer vectors over the subgroup-class basis [G/H].  The
table of marks is built once per group by counting containments in the
class table: the mark of K on G/H is |N_G(H):H| times the number of
conjugates of H that contain K (G. Pfeiffer, "The subgroups of M24, or
how to compute the table of marks of a finite group", Exp. Math. 6,
1997).  It is checked against three structural facts on construction:
it is lower triangular in the class order, its diagonal entry at H is
#N_G(H)/#H, and its first column is the index [G:H].
"""

import numpy as np

from . import _kernels as kernels
from .errors import InputError, InternalCheckError
from .subgroups import Subgroup, enumerate_classes


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
    """Table of marks: entry [i][j] is the mark of class j on [G/H_i].

    ``array`` holds it as one int64 array; ``m``, the same entries as
    lists of ints, is built when first read."""

    __slots__ = ("table", "array", "_m")

    def __init__(self, table, array):
        self.table = table
        self.array = array
        self._m = None

    @property
    def m(self):
        if self._m is None:
            self._m = self.array.tolist()
        return self._m


def marks_table(group, table=None):
    """The table of marks of ``group``, cached on it.

    K lies in a conjugate gHg^-1 exactly when K fixes the coset gH, and
    the |N_G(H):H| cosets gnH with n in N_G(H) give the same conjugate,
    so the mark of K on G/H is |N_G(H):H| times the number of
    conjugates of H that contain K (Pfeiffer, 1997).  ``count_marks``
    counts those for every class at once from the table's rows that hold
    each K's generators, which suffices.
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
    m = count_marks(
        table.containing([c.generators for c in classes]),
        table.class_of,
        weights,
        group.order // orders,
    )
    result = MarksTable(table, m)
    group._memo["marks"] = result
    return result


def count_marks(above, class_of, weights, index):
    """A table of marks counted from subgroup containments.

    Row r of the bool matrix ``above`` is a subgroup in the class
    ``class_of[r]``, true at column j when it contains K_j;
    ``weights[i]`` is |N(H_i):H_i| and ``index[i]`` the index of H_i.
    The mark of K_j on H_i is the weight times the number of class-i
    rows containing K_j.  The table must be lower triangular with
    diagonal ``weights`` and first column ``index``; otherwise
    InternalCheckError is raised.
    """
    k = len(weights)
    m = np.zeros((k, k), dtype=np.int64)
    for j in range(k):
        m[:, j] = weights * np.bincount(class_of[above[:, j]], minlength=k)
    if (m[:, 0] != index).any():
        raise InternalCheckError("mark on the trivial class must be the index")
    if (np.diagonal(m) != weights).any():
        raise InternalCheckError("diagonal mark disagrees with the normalizer")
    if np.triu(m != 0, 1).any():
        raise InternalCheckError("table of marks is not lower triangular")
    return m


def mark_vector(x):
    """All marks of a Burnside element, one integer per subgroup class."""
    marks = marks_table(x.table.group, x.table)
    terms = [(i, c) for i, c in enumerate(x.coeffs) if c]
    rows = marks.array[[i for i, _ in terms]].tolist()  # only the rows it needs
    return [sum(c * row[j] for (_, c), row in zip(terms, rows)) for j in range(len(x.coeffs))]


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
