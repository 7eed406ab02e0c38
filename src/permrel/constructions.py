"""Builders for the permutation groups used throughout the package:
cyclic, dihedral, symmetric, alternating, quaternion, affine
semidirect products over a prime field, and direct products.

Every affine group is built by ``affine_group``, from the maps
x -> A*x + b of (Z/l)^d.  The Frobenius group C_l x| C_m is its d = 1
case, with one 1 x 1 matrix of order m.
"""

import numpy as np

from .errors import CapExceeded, InputError
from .numtheory import element_of_order, is_prime
from .perm import DEFAULT_ELEMENT_CAP, Permutation, from_cycles, generate
from .subgroups import Subgroup
from .zlattice import _rank_reaches


def cyclic_group(n, element_cap=DEFAULT_ELEMENT_CAP):
    if n < 1:
        raise InputError("cyclic group order must be positive")
    if n == 1:
        return generate(1, [], element_cap=element_cap)
    gen = from_cycles(n, [tuple(range(n))])
    return generate(n, [gen], element_cap=element_cap)


def dihedral_group(order, element_cap=DEFAULT_ELEMENT_CAP):
    """Dihedral group of the given order (order = 2m, m >= 2)."""
    if order < 4 or order % 2:
        raise InputError("dihedral order must be an even integer >= 4")
    m = order // 2
    if m == 2:
        # negation is trivial mod 2; fall back to a faithful degree-4 copy
        return direct_product(
            [cyclic_group(2), cyclic_group(2)], element_cap=element_cap
        )
    rotation = from_cycles(m, [tuple(range(m))])
    reflection = Permutation([(-i) % m for i in range(m)])
    group = generate(m, [rotation, reflection], element_cap=element_cap)
    if group.order != order:
        raise InputError("dihedral construction produced a wrong order")
    return group


def symmetric_group(n, element_cap=DEFAULT_ELEMENT_CAP):
    if n < 1:
        raise InputError("symmetric group degree must be positive")
    if n == 1:
        return generate(1, [], element_cap=element_cap)
    gens = [from_cycles(n, [(0, 1)]), from_cycles(n, [tuple(range(n))])]
    return generate(n, gens, element_cap=element_cap)


def alternating_group(n, element_cap=DEFAULT_ELEMENT_CAP):
    if n < 3:
        raise InputError("alternating group needs degree >= 3")
    gens = [from_cycles(n, [(0, 1, 2)])]
    if n > 3:
        if n % 2:
            gens.append(from_cycles(n, [tuple(range(n))]))
        else:
            gens.append(from_cycles(n, [tuple(range(1, n))]))
    return generate(n, gens, element_cap=element_cap)


def quaternion_group(element_cap=DEFAULT_ELEMENT_CAP):
    """The quaternion group of order 8, acting on itself by right
    translation (unit indices: 1, -1, i, -i, j, -j, k, -k)."""
    i = Permutation([2, 3, 1, 0, 7, 6, 4, 5])
    j = Permutation([4, 5, 6, 7, 1, 0, 3, 2])
    return generate(8, [i, j], element_cap=element_cap)


def frobenius_group(l, m, element_cap=DEFAULT_ELEMENT_CAP):
    """The group of maps x -> a*x + b on Z/l with a in the order-m
    subgroup of the units; faithful of order l*m.

    This is ``affine_group`` at d = 1, generated by x -> x + 1 and
    x -> a*x for the least unit a of order m.  (Z/l)* is cyclic, so it
    has one subgroup of each order and any other such unit gives the
    same group.
    """
    if not is_prime(l):
        raise InputError("l must be prime, got %d" % l)
    if m < 1 or (l - 1) % m:
        raise InputError("m must divide l - 1 for a faithful action")
    matrices = [[[element_of_order(m, l)]]] if m > 1 else []
    return affine_group(l, 1, matrices, element_cap)[0]


def encode_vector(vec, l):
    out = 0
    for coord in reversed(vec):
        out = out * l + (coord % l)
    return out


def decode_vector(point, l, d):
    out = []
    for _ in range(d):
        out.append(point % l)
        point //= l
    return tuple(out)


def _affine_permutation(matrix, shift, l):
    """The permutation x -> matrix*x + shift of (Z/l)^d, on points
    numbered as by ``encode_vector``."""
    powers = l ** np.arange(len(matrix))
    vectors = np.arange(l ** len(matrix))[:, None] // powers % l
    return Permutation((vectors @ np.transpose(matrix) + shift) % l @ powers)


def _is_square(matrix, d):
    """Whether ``matrix`` is d lists of d integers, none a bool (JSON's
    true and false)."""
    return (
        isinstance(matrix, (list, tuple))
        and len(matrix) == d
        and all(
            isinstance(row, (list, tuple))
            and len(row) == d
            and all(isinstance(v, int) and not isinstance(v, bool) for v in row)
            for row in matrix
        )
    )


_AFFINE_CACHE = {}


def affine_group(l, d, matrices, element_cap=DEFAULT_ELEMENT_CAP):
    """The affine group (C_l)^d x| D on l^d points, where D is generated
    by the given d x d matrices over Z/l.

    Returns (group, module, stabilizer): the translation subgroup and
    the stabilizer of the origin (the linear parts).  Identical
    parameters return the identical group object, so elements built
    over it in separate calls live in one Burnside ring; a cached group
    larger than ``element_cap`` raises CapExceeded, as building it would.
    """
    if not is_prime(l):
        raise InputError("l must be prime, got %d" % l)
    if d < 1:
        raise InputError("rank d must be at least 1")
    if not all(_is_square(matrix, d) for matrix in matrices):
        raise InputError("matrices must be %d x %d, of integers" % (d, d))
    residues = tuple(tuple(tuple(v % l for v in row) for row in m) for m in matrices)
    cache_key = (l, d, residues)
    cached = _AFFINE_CACHE.get(cache_key)
    if cached is not None:
        if cached[0].order > element_cap:
            raise CapExceeded("group closure exceeded the element cap of %d" % element_cap)
        return cached
    for matrix, rows in zip(matrices, residues):
        if not _rank_reaches(l, np.array(rows, dtype=np.int64), {}, d):
            raise InputError("matrix %r is singular modulo %d" % ([list(r) for r in matrix], l))
    eye = np.eye(d, dtype=np.int64)
    gens = [_affine_permutation(eye, shift, l) for shift in eye]
    gens.extend(_affine_permutation(m, 0, l) for m in residues)
    group = generate(l ** d, gens, element_cap=element_cap)

    # W is generated by the d unit translations
    module = Subgroup.generated(group, [group.index(gen) for gen in gens[:d]])
    stabilizer = Subgroup(group, np.flatnonzero(group.images[:, 0] == 0))
    if module.order != l ** d:
        raise InputError("translation subgroup has unexpected order")
    if module.order * stabilizer.order != group.order:
        raise InputError("affine group does not split over the origin stabilizer")
    result = (group, module, stabilizer)
    _AFFINE_CACHE[cache_key] = result
    return result


def direct_product(groups, element_cap=DEFAULT_ELEMENT_CAP):
    """Direct product acting on the disjoint union of the factors' points."""
    if not groups:
        raise InputError("direct product needs at least one factor")
    degree = sum(g.degree for g in groups)
    gens = []
    offset = 0
    for g in groups:
        for gen in g.generators:
            images = list(range(degree))
            for i, v in enumerate(gen.images):
                images[offset + i] = offset + v
            gens.append(Permutation(images))
        offset += g.degree
    expected = 1
    for g in groups:
        expected *= g.order
    product = generate(degree, gens, element_cap=element_cap)
    if product.order != expected:
        raise InputError("direct product closure produced a wrong order")
    return product

