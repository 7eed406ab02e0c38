"""Reference helpers shared by several test modules."""

import numpy as np
from hypothesis import strategies as st

from permrel.constructions import decode_vector, encode_vector
from permrel.perm import Permutation, generate
from permrel.relations import brauer_kernel
from permrel.subgroups import (
    Subgroup,
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
