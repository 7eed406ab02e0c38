"""Hot group-theory kernels, vectorised with numpy.

All kernels operate on a multiplication table ``mult`` of shape
(n, n) with int32 entries, where index 0 is the identity, plus the
inverse table ``inv``.  Subgroups are sorted int32 index arrays.
"""

import numpy as np

from .errors import InternalCheckError


def sorted_unique(values):
    """The distinct entries of ``values``, sorted.

    ``np.unique``, ``np.intersect1d`` and the sort path of ``np.isin``
    import ``numpy.ma`` on first use (to ask whether the input is
    masked), a cost of milliseconds that this sort does not pay.
    """
    flat = np.sort(np.asarray(values).ravel())
    keep = np.ones(flat.size, dtype=bool)
    keep[1:] = flat[1:] != flat[:-1]
    return flat[keep]


def value_mask(values, keep):
    """Mask of the entries v of the non-negative int array ``values``
    with ``keep(v)`` true; ``keep`` sees each distinct value once."""
    chosen = np.zeros(int(values.max()) + 1, dtype=bool)
    chosen[[v for v in sorted_unique(values).tolist() if keep(v)]] = True
    return chosen[values]


def power_orders(mult, mask):
    """For each element g, the least k >= 1 with g^k in ``mask``: the
    order of g when ``mask`` holds the identity alone, and the order of
    gN in G/N when it is a normal N.  Only the powers of the elements
    not yet resolved are stepped."""
    orders = np.zeros(len(mult), dtype=np.int64)
    todo = np.arange(len(mult))
    power, k = todo, 1  # power[t] is todo[t]^k
    while todo.size:
        hit = mask[power]
        orders[todo[hit]] = k
        todo, power = todo[~hit], power[~hit]
        power, k = mult[power, todo], k + 1
    return orders


def closure(mult, seeds, base=None, left=None):
    """The subgroup K = <H, seeds> for the subgroup H = ``base`` (the
    identity alone by default), as a sorted int32 index array.

    The search grows a set X inside K by whole left cosets zH, one gather
    each (Dimino's coset growth; Butler, *Fundamental Algorithms for
    Permutation Groups*, 1991).  X H = X, so X is K once X s lies in X
    for each seed s: each round multiplies only the newest cosets by the
    seeds, and a product z outside X adds zH.  ``left``, a subgroup L of
    K, makes X a union of double cosets LzH, from LH on; as L X = X, the
    rounds still multiply only the cosets zH.  Past n/2 elements K is G,
    by Lagrange.  A result whose size does not divide n (a base or left
    that is no subgroup) raises InternalCheckError.  Indices are intp,
    which numpy gathers and scatters fastest.
    """
    n = mult.shape[0]
    gens = np.asarray(seeds, dtype=np.intp)
    base = np.zeros(1, dtype=np.intp) if base is None else np.asarray(base, dtype=np.intp)
    member = np.zeros(n, dtype=bool)
    member[base if left is None else mult[left[:, None], base].astype(np.intp)] = True
    size, cosets = np.count_nonzero(member), base
    while 2 * size <= n:
        reached = np.zeros(n, dtype=bool)
        reached[mult[cosets[:, None], gens].astype(np.intp)] = True
        fresh = (reached > member).nonzero()[0]  # reached, and not a member yet
        if not fresh.size:
            if n % size:
                raise InternalCheckError("a closure of %d elements in a group of order %d"
                                         % (size, n))
            return member.nonzero()[0].astype(np.int32)
        if base.size > 1:
            fresh = mult[fresh[:, None], base].astype(np.intp)  # row i: the coset z_i H
        member[fresh if left is None else mult[left[:, None, None], fresh].astype(np.intp)] = True
        cosets, size = fresh.ravel(), np.count_nonzero(member)
    return np.arange(n, dtype=np.int32)


def normalizer_members(mult, inv, members, gens):
    """Indices g with g * H * g^-1 == H, for H given by ``members`` and
    generated by ``gens``: g normalises H iff it conjugates every
    generator into H, one n x |gens| block."""
    n = mult.shape[0]
    member_mask = np.zeros(n, dtype=bool)
    member_mask[members] = True
    g = np.arange(n, dtype=np.int32)
    conj = mult[mult[g[:, None], gens], inv[:, None]]
    return g[member_mask[conj].all(axis=1)]


def count_fixed(mult, inv, member_mask, transversal, kgens):
    """Number of cosets t*H (t in ``transversal``) with t^-1 K t <= H,
    where K is generated by ``kgens``."""
    if kgens.size == 0:
        return int(transversal.size)
    conj = mult[mult[inv[transversal][:, None], kgens], transversal[:, None]]
    return int(member_mask[conj].all(axis=1).sum())


# bytes of the int32 products in one block of ``coset_reps``
_COSET_BLOCK_BYTES = 2**22


def coset_reps(mult, members):
    """Left coset representatives of H, identity coset first: the g least
    in g H.  They are read off ascending blocks of rows g of about 4 |G:H|
    rows (or 2^16 products g H, below which a block's fixed cost outweighs
    its gather), each of at most ``_COSET_BLOCK_BYTES`` of products, until
    |G:H| are found, usually in the first block, as cosets spread over G."""
    n, size = mult.shape[0], len(members)
    step = max(1, min(_COSET_BLOCK_BYTES // (4 * size), max(4 * n, 2**16) // size))
    reps, count = [], 0
    for start in range(0, n, step):
        least = mult[start:start + step, members].min(axis=1)
        rows = np.arange(start, start + len(least), dtype=np.int32)
        reps.append(rows[least == rows])
        count += len(reps[-1])
        if count * size >= n:
            break
    return np.concatenate(reps)
