"""Subgroup enumeration up to conjugacy, quotients, and related maps.

The enumeration starts from the trivial subgroup and extends each class
representative H by one element at a time; the table records every
subgroup (keyed by its sorted index array) with its conjugacy class.
H carries the generators it was closed from, conjugated with it onto
the orbit-least member of its class, and <H, g> is closed from those
plus g.  Most g are never tried:

- only zuppos, the elements of prime-power order, extend H (Neubüser's
  cyclic extension method; Holt, Eick and O'Brien, *Handbook of
  Computational Group Theory*, 2005);
- one g per double coset HgH, as <H, g> = <H, hgh'>;
- no g in a registered K >= H of prime index, as then <H, g> = K.

Every K > 1 is still reached, by induction on |K|: a maximal subgroup
of K is conjugate, say by t, to a queued H, which is maximal in
K' = tKt^-1.  K' is generated by its zuppos (each element is a product
of powers of itself of prime-power order), so some zuppo z of K' lies
outside H and <H, z> = K'; the skips pass z over only when <H, z> is
already registered.  Registering K' registers its class, K included.

The closure of <H, g> grows by whole cosets of H, not by elements: from
<g>H it adds double cosets <g> z H, and since their right products by H
and left ones by g stay inside, each round multiplies only the cosets zH
added last, by the powers of g (Dimino's algorithm; ``_kernels.closure``).

A class is registered from the member K an extension closed, with the
generators it was closed from: N_G(K) is read off them, the class is
K's conjugates by a transversal of N_G(K), taken in one gather and one
row sort, and its representative, the least of them, takes the
generators along, conjugated by the same element.  A normal K is a
class of one; in an abelian G, found by one commutation test of its
generators, every K is, and no normalizer is computed.

The masks of the registered subgroups are kept packed, eight elements to
a byte, in one block per order with each class's rows in key order, and
copied once into the table, which never unpacks them whole: it answers
which rows hold given elements, which lie inside a subgroup, and what
chosen rows hold.  The table is canonical: classes sorted,
representatives orbit-least, and ``sub_to_class`` and the packed rows in
(class position, key) order, whatever the order of discovery.
"""

import math
from collections import deque
from typing import NamedTuple

import numpy as np

from . import _kernels as kernels
from .errors import CapExceeded, InputError, InternalCheckError
from .numtheory import prime_factors
from .perm import Group, Permutation, generate

# enumeration stops with CapExceeded past this many subgroups
SUBGROUP_CAP = 5000

# the bit of each of the eight positions in a byte, high bit first as
# np.packbits packs them
_BIT = (128 >> np.arange(8)).astype(np.uint8)
_IDENTITY = np.zeros(1, dtype=np.int32)
# bools gathered at once by ``SubgroupClassTable.containing``
_GATHER_BYTES = 2**22


def _bits(packed, elements, rows=None):
    """The bits of the element indices ``elements`` in the rows ``rows``
    (all by default) of the packed uint8 matrix ``packed``, as bools."""
    block = packed if rows is None else packed[rows]
    return (block[:, elements >> 3] & _BIT[elements & 7]) != 0


class Subgroup:
    """A subgroup of a fixed ambient Group, stored as sorted indices."""

    __slots__ = ("ambient", "indices", "_mask", "_gens", "_transversal")

    def __init__(self, ambient, indices):
        arr = kernels.sorted_unique(np.asarray(indices, dtype=np.int32))
        if arr.size == 0 or arr[0] != 0:
            raise InputError("a subgroup must contain the identity (index 0)")
        if ambient.order % arr.size:
            raise InputError("index set size does not divide the group order")
        self.ambient = ambient
        self.indices = arr
        self._mask = None
        self._gens = None
        self._transversal = None

    @classmethod
    def _closed(cls, ambient, indices):
        """The subgroup with the sorted int32 ``indices`` that a closure, a
        normalizer or a conjugate of either returned, taken as it is:
        ``closure`` already checked that the size divides |G|."""
        sub = cls.__new__(cls)
        sub.ambient, sub.indices = ambient, indices
        sub._mask = sub._gens = sub._transversal = None
        return sub

    @classmethod
    def generated(cls, ambient, indices):
        """Close an index set into a subgroup."""
        closed = kernels.closure(ambient.mult, np.asarray(indices, dtype=np.int32))
        return cls(ambient, closed)

    @classmethod
    def full(cls, ambient):
        return cls(ambient, np.arange(ambient.order, dtype=np.int32))

    @classmethod
    def trivial(cls, ambient):
        return cls(ambient, np.zeros(1, dtype=np.int32))

    @property
    def order(self):
        return int(self.indices.size)

    @property
    def key(self):
        return self.indices.tobytes()

    @property
    def mask(self):
        if self._mask is None:
            mask = np.zeros(self.ambient.order, dtype=bool)
            mask[self.indices] = True
            self._mask = mask
        return self._mask

    @property
    def transversal(self):
        """Left coset representatives of the subgroup, identity first."""
        if self._transversal is None:
            self._transversal = kernels.coset_reps(self.ambient.mult, self.indices)
        return self._transversal

    @property
    def generator_indices(self):
        """A small generating set, found greedily along the index order;
        each step closes <C, g> by cosets of the subgroup C the steps
        before generated."""
        if self._gens is None:
            mult = self.ambient.mult
            covered = np.zeros(1, dtype=np.int32)
            gens = []
            for idx in self.indices:
                if idx not in covered:
                    gens.append(int(idx))
                    covered = kernels.closure(mult, [idx], covered)
                    if covered.size == self.indices.size:
                        break
            self._gens = np.asarray(gens, dtype=np.int32)
        return self._gens

    def generators(self):
        return self.ambient._perms(self.generator_indices)

    def contains_subgroup(self, other):
        return bool(self.mask[other.indices].all())

    def is_trivial(self):
        return self.order == 1

    def is_full(self):
        return self.order == self.ambient.order

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.ambient is other.ambient and self.key == other.key

    def __hash__(self):
        return hash((id(self.ambient), self.key))

    def __repr__(self):
        return "Subgroup(order=%d of %r)" % (self.order, self.ambient)


class SubgroupClass(NamedTuple):
    """A conjugacy class of subgroups.  ``generators``, an int32 index
    array, generates the representative; unlike its canonical
    ``generator_indices``, it depends on the order of discovery."""

    representative: Subgroup
    order: int
    class_size: int
    normalizer: Subgroup
    generators: np.ndarray


class SubgroupClassTable:
    """All subgroups of a group, organized by conjugacy class.

    ``classes`` is sorted by (order, representative index tuple); the
    representative of each class is its lexicographically least member.
    ``sub_to_class`` maps the key of every individual subgroup to its
    class position, in (class position, key) order; row r of
    ``packed_members`` is the element mask of its r-th subgroup, packed
    eight elements to a byte as by ``np.packbits``, and read only here.
    """

    def __init__(self, group, classes, sub_to_class, packed_members):
        self.group = group
        self.classes = classes
        self.sub_to_class = sub_to_class
        self.packed_members = packed_members
        self.class_of = np.fromiter(sub_to_class.values(), dtype=np.intp)  # of each row
        self._over = {}  # normal subgroup key -> the classes over it
        self._class_maps = {}  # supergroup table -> its class of each of ours

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def class_index_of(self, subgroup):
        if subgroup.ambient is not self.group:
            raise InputError("subgroup belongs to a different group")
        try:
            return self.sub_to_class[subgroup.key]
        except KeyError:
            raise InternalCheckError("subgroup missing from the class table")

    def containing(self, tests, rows=None):
        """One bool column per index array in ``tests``: which of the rows
        ``rows`` (all by default) hold all of it.  The tests are gathered
        in chunks of at most ``_GATHER_BYTES`` of bits, or one test, each
        from the rows unpacked once; each test is led by the identity, so
        none is empty."""
        height = len(self.class_of) if rows is None else len(rows)
        width = max(1, _GATHER_BYTES // max(1, height))  # gathered columns per chunk
        chunks, used = [[]], 0
        for j, test in enumerate(tests):
            if chunks[-1] and used + len(test) + 1 > width:
                chunks.append([])
                used = 0
            chunks[-1].append(j)
            used += len(test) + 1
        parts = []
        for chunk in chunks:
            cols = np.concatenate([part for j in chunk for part in (_IDENTITY, tests[j])])
            on = kernels.sorted_unique(cols)
            bits = _bits(self.packed_members, on, rows)[:, np.searchsorted(on, cols)]
            starts = np.cumsum([0] + [len(tests[j]) + 1 for j in chunk[:-1]])
            parts.append(np.logical_and.reduceat(bits, starts, axis=1))
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def inside(self, sub):
        """Ascending positions of the rows of the subgroups inside the
        subgroup ``sub``: those with no bit outside its packed mask."""
        outside = ~np.packbits(sub.mask)
        return np.flatnonzero(~(self.packed_members & outside).any(axis=1))

    def unpacked(self, rows, on=None):
        """The element masks of the rows ``rows``, one bool row each, on
        every element of G or only on the sorted element indices ``on``."""
        if on is None:
            bits = np.unpackbits(self.packed_members[rows], axis=1, count=self.group.order)
            return bits.view(bool)
        return _bits(self.packed_members, on, rows)

    def classes_over(self, normal):
        """Positions of the classes whose members contain the normal N,
        which lies in every member of a class or in none; kept per N."""
        if normal.key not in self._over:
            first = np.searchsorted(self.class_of, np.arange(len(self.classes)))
            bits = _bits(self.packed_members, normal.indices, first)
            self._over[normal.key] = np.flatnonzero(bits.all(axis=1))
        return self._over[normal.key]

    def maximal_classes(self):
        """Positions of the classes of maximal subgroups.

        Walking down by order, a proper subgroup is maximal exactly when
        no member of a larger maximal class, all already found, holds its
        generators.  The last class is the group itself.
        """
        above = self.containing([c.generators for c in self.classes])
        maximal = np.zeros(len(self.classes), dtype=bool)
        for i in range(len(self.classes) - 2, -1, -1):
            maximal[i] = not above[maximal[self.class_of], i].any()
        return tuple(np.flatnonzero(maximal).tolist())


def conjugation_orbits(table, sub, gens):
    """The orbits of the subgroup S = ``sub`` of G, generated by the
    element indices ``gens``, on the subgroups of G inside S, by
    conjugation.

    Returns (rows, label): ``rows`` the positions in the table of the
    subgroups inside S, ascending, and ``label[i]`` the least i' with
    rows[i'] in the orbit of rows[i].  Conjugation by each generator
    permutes those rows: their bits on S's elements are gathered along
    the conjugation, packed on G's again, and looked up among the rows'
    packed bytes; labels merge along these permutations until stable.
    """
    group = table.group
    mult = group.mult
    rows = table.inside(sub)
    void = np.dtype((np.void, table.packed_members.shape[1]))
    keys = table.packed_members[rows].view(void).ravel()
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    inside = table.unpacked(rows, sub.indices)
    image = np.zeros((len(rows), group.order), dtype=bool)
    images = []
    for g in gens:
        conj = mult[mult[group.inv[g]], g]  # conj[y] = g^-1 y g
        # the rows of gUg^-1, on S's elements and then on G's
        image[:, sub.indices] = inside[:, np.searchsorted(sub.indices, conj[sub.indices])]
        image_keys = np.packbits(image, axis=1).view(void).ravel()
        pos = np.minimum(np.searchsorted(sorted_keys, image_keys), len(keys) - 1)
        if (sorted_keys[pos] != image_keys).any():
            raise InternalCheckError("a conjugate left the subgroups of S")
        images.append(by_key[pos])
    label = np.arange(len(rows))
    while True:
        merged = label.copy()
        for image in images:
            merged = np.minimum(merged, merged[image])
            merged[image] = np.minimum(merged[image], merged)
        merged = merged[merged]
        if (merged == label).all():
            return rows, label
        label = merged


def _generators_commute(group, gens):
    block = group.mult[np.ix_(gens, gens)]
    return bool((block == block.T).all())


def is_abelian(group):
    return _generators_commute(group, [group.index(g) for g in group.generators])


def enumerate_classes(group):
    """Enumerate all subgroups of ``group`` up to conjugacy.

    Raises CapExceeded when the total subgroup count passes
    ``SUBGROUP_CAP``.  The result is cached on the group.
    """
    cached = group._memo.get("class_table")
    if cached is not None:
        return cached
    mult = group.mult
    inv = group.inv
    n = group.order
    primes = prime_factors(n)
    orders = group.element_orders
    zuppos = kernels.value_mask(orders, lambda o: len(prime_factors(o)) == 1)
    # in an abelian G every subgroup is normal: G is each one's normalizer
    abelian, everything = is_abelian(group), np.arange(n, dtype=np.int32)

    sub_to_class = {}
    records = []  # (indices, normalizer_indices, member keys, generators, first row)
    queue = deque()  # (representative, generators of it)
    cyclic = {}  # each g tried -> its powers 1, g, g^2, ... and those g^k, k prime to |g|
    # the packed masks of the registered subgroups of each order: the
    # first used[order] rows of blocks[order], each class's rows in key order
    width = (n + 7) // 8
    blocks = {}
    used = {}
    total = 0

    def register(indices, gens):
        nonlocal total
        key = indices.tobytes()
        if key in sub_to_class:
            return
        norm = everything if abelian else kernels.normalizer_members(mult, inv, indices, gens)
        if norm.size == n:  # H is normal: its class is {H}
            orbit = indices[None]
            # a copy: the caller overwrites its seeds for the next extension
            canon, canon_norm, canon_gens = indices, norm, np.sort(gens)
        else:
            # H conjugated by each representative t, one row tHt^-1 each
            reps = kernels.coset_reps(mult, norm)
            orbit = np.sort(mult[mult[reps[:, None], indices], inv[reps][:, None]], axis=1)
            # the stored normalizer and the generators must belong to the
            # stored representative, so conjugate them by the same element
            least = np.lexsort(orbit.T[::-1])[0]
            canon, t0 = orbit[least].copy(), reps[least]
            canon_norm = group.conjugate_indices(t0, norm)
            canon_gens = group.conjugate_indices(t0, gens)
        keys = [row.tobytes() for row in orbit]
        if len(set(keys)) < len(keys):
            raise InternalCheckError("normalizer transversal repeated a conjugate")
        if len(keys) * norm.size != n:
            raise InternalCheckError("orbit size violates orbit-stabilizer counting")
        if total + len(keys) > SUBGROUP_CAP:
            raise CapExceeded(
                "subgroup enumeration exceeded the cap of %d" % SUBGROUP_CAP
            )
        inside = np.zeros(n, dtype=bool)
        inside[canon] = True
        if not inside[canon_gens].all():
            raise InternalCheckError("generators left the class representative")
        by_key = sorted(range(len(keys)), key=keys.__getitem__)
        keys = [keys[i] for i in by_key]
        sub_to_class.update(dict.fromkeys(keys, len(records)))
        rows = np.zeros((len(keys), n), dtype=bool)
        rows[np.arange(len(keys))[:, None], orbit[by_key]] = True
        size = indices.size
        first = used.get(size, 0)
        block = blocks.get(size)
        if block is None or first + len(keys) > len(block):  # grow geometrically
            grown = np.zeros((2 * (first + len(keys)), width), dtype=np.uint8)
            if first:
                grown[:first] = block[:first]
            blocks[size] = block = grown
        block[first:first + len(keys)] = np.packbits(rows, axis=1)
        used[size] = first + len(keys)
        total += len(keys)
        records.append((canon, canon_norm, keys, canon_gens, first))
        if canon.size < n:
            queue.append((canon, canon_gens))

    # extending the trivial group gives the cyclic subgroups
    register(np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32))
    while queue:
        base, gens = queue.popleft()
        done = ~zuppos
        done[base] = True
        # every g in a registered K of prime index over H gives <H, g> = K;
        # only the bits of H's generators are read to find those K
        for p in primes:
            over = blocks.get(base.size * p)
            if over is not None:
                over = over[:used[base.size * p]]
                over = over[_bits(over, gens).all(axis=1)]
                done |= np.unpackbits(np.bitwise_or.reduce(over), count=n).view(bool)
        # the last seed is each g in turn; neither closure nor register keeps seeds
        seeds = np.append(gens, np.int32(0))
        rows = base.astype(np.intp)
        for g in np.flatnonzero(~done):
            if done[g]:
                continue
            # <H, g> = <H, hgh'>: one extension per double coset HgH (the
            # |H| x |H| block is at most a quarter of the mult table)
            done[mult[mult[rows, g][:, None], rows].astype(np.intp)] = True
            if g not in cyclic:
                powers = [0, int(g)]
                for _ in range(orders[g] - 2):
                    powers.append(int(mult[powers[-1], g]))
                # <H, g^k> = <H, g> for each k prime to the order of g
                coprime = [p for k, p in enumerate(powers) if math.gcd(k, len(powers)) == 1]
                cyclic[g] = np.array(powers, dtype=np.intp), np.array(coprime, dtype=np.intp)
            powers, coprime = cyclic[g]
            done[coprime] = True
            seeds[-1] = g
            # the search grows by double cosets <g> z H from <g>H; multiplying
            # by every power of g, not by g alone, takes fewer rounds
            closed = kernels.closure(mult, powers[1:], rows, powers)
            if closed.size // base.size in primes:
                done[closed] = True
            register(closed, seeds)

    records.sort(key=lambda record: (record[0].size, record[0].tolist()))
    classes = []
    # rows in (class, key) order, whatever order they were found in
    packed = np.empty((total, width), dtype=np.uint8)
    sub_to_class = {}
    full = Subgroup.full(group)  # shared by G's class and every normal subgroup's
    for pos, (indices, norm, keys, gens, first) in enumerate(records):
        classes.append(
            SubgroupClass(
                representative=full if indices.size == n else Subgroup._closed(group, indices),
                order=int(indices.size),
                class_size=len(keys),
                normalizer=full if norm.size == n else Subgroup._closed(group, norm),
                generators=gens,
            )
        )
        row = len(sub_to_class)
        packed[row:row + len(keys)] = blocks[indices.size][first:first + len(keys)]
        sub_to_class.update(dict.fromkeys(keys, pos))
    if len(sub_to_class) != total:
        raise InternalCheckError("class sizes disagree with the subgroup key map")
    table = SubgroupClassTable(group, classes, sub_to_class, packed)
    group._memo["class_table"] = table
    return table


def is_normal(group, subgroup):
    # conjugation by generators suffices to test normality
    return all(group.conjugate_indices(group.index(g), subgroup.indices).tobytes() == subgroup.key
               for g in group.generators)


def normal_subgroups(group):
    table = enumerate_classes(group)
    return [c.representative for c in table.classes if c.class_size == 1]


def minimal_normal_subgroups(group):
    """The minimal normal subgroups of ``group``, by order: the nontrivial
    normal N containing none found before.  A minimal normal M meets N in
    M or 1, so one nonidentity element of M tells whether N contains M."""
    cached = group._memo.get("minimal_normal")
    if cached is None:
        cached = []
        witness = np.zeros(group.order, dtype=bool)  # one element of each kept M
        for sub in normal_subgroups(group):
            if not sub.is_trivial() and not witness[sub.indices].any():
                cached.append(sub)
                witness[sub.indices[1]] = True
        group._memo["minimal_normal"] = cached
    return cached


def is_minimal_normal(group, normal):
    """True when no nontrivial normal subgroup of ``group`` lies strictly
    inside the normal subgroup ``normal``."""
    return not any(
        sub.order < normal.order and normal.contains_subgroup(sub)
        for sub in minimal_normal_subgroups(group)
    )


class Quotient(NamedTuple):
    group: Group
    project: object
    preimage: object


def quotient(group, normal):
    """Quotient by a normal subgroup, acting on its left cosets.

    Returns Quotient(group, project, preimage): ``project`` maps an
    element of the parent to its image permutation, and ``preimage``
    maps a Subgroup of the quotient back to the full Subgroup of the
    parent containing ``normal``.
    """
    cached = group._memo.get(("quotient", normal.key))
    if cached is not None:
        return cached
    if not is_normal(group, normal):
        raise InputError("quotient requires a normal subgroup")
    mult = group.mult
    n = group.order
    reps = normal.transversal
    coset_of = np.empty(n, dtype=np.int32)
    for c, r in enumerate(reps):
        coset_of[mult[r, normal.indices]] = c
    degree = int(reps.size)
    images = coset_of[mult[:, reps]]  # row g: the coset of g r, for each rep r
    gen_perms = [Permutation(images[group.index(g)]) for g in group.generators]
    q = generate(degree, gen_perms, element_cap=max(degree, 1))
    if q.order * normal.order != n:
        raise InternalCheckError("quotient order does not match index")
    q_index_of = q._indices_of(images)

    def project(perm):  # one row, so the memo does not keep ``images``
        return Permutation(coset_of[mult[group.index(perm), reps]])

    def preimage(subgroup_of_q):
        if subgroup_of_q.ambient is not q:
            raise InputError("preimage expects a subgroup of the quotient group")
        qmask = np.zeros(q.order, dtype=bool)
        qmask[subgroup_of_q.indices] = True
        members = np.flatnonzero(qmask[q_index_of]).astype(np.int32)
        return Subgroup(group, members)

    result = Quotient(q, project, preimage)
    group._memo[("quotient", normal.key)] = result
    return result


def subgroup_as_group(subgroup):
    """View a Subgroup as a standalone Group on the same points.

    The element order of the new group matches the subgroup's index
    order, and the parent indices are remembered so class data can be
    transported back.
    """
    ambient = subgroup.ambient
    if subgroup.is_full():
        return ambient
    cached = ambient._memo.get(("as_group", subgroup.key))
    if cached is not None:
        return cached
    grp = Group(ambient.degree, subgroup.generators(), ambient.images[subgroup.indices])
    grp._memo["parent_indices"] = subgroup.indices
    ambient._memo[("as_group", subgroup.key)] = grp
    return grp


def centralizer_indices(group, target_indices, within=None):
    """Indices of elements commuting with every element of ``target_indices``,
    optionally restricted to the subgroup ``within``: one |pool| x |targets|
    block of products each way."""
    mult = group.mult
    pool = within.indices if within is not None else np.arange(
        group.order, dtype=np.int32
    )
    targets = np.asarray(target_indices, dtype=np.int32)
    commute = mult[np.ix_(pool, targets)] == mult[np.ix_(targets, pool)].T
    return pool[commute.all(axis=1)].astype(np.int32)
