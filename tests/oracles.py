"""Reference helpers shared by several test modules."""

from permrel.constructions import decode_vector, encode_vector


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
