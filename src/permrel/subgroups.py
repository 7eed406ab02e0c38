"""Subgroup enumeration up to conjugacy, quotients, and related maps.

The enumeration starts from the trivial subgroup and repeatedly
extends each known class representative by one extra generator (the
trivial subgroup's extensions are the cyclic subgroups); the resulting
table records every subgroup of the group (keyed by its sorted index
array) together with its conjugacy class.

Each representative H travels with a small generating set: the seeds
that produced it, conjugated along with it onto the orbit-least
member of its class.  H is extended by one g per double coset HgH
only, since <H, g> = <H, hgh'>, and <H, g> is closed from those
generators plus g rather than from all of H plus g.  Neither shortcut
changes which subgroups are reached, and the table is canonical
(classes sorted, representatives orbit-least), so its content does
not depend on the order of discovery.
"""

from collections import deque
from typing import NamedTuple

import numpy as np

from . import _kernels as kernels
from .errors import CapExceeded, InputError, InternalCheckError
from .perm import Group, Permutation, generate

# enumeration stops with CapExceeded past this many subgroups
SUBGROUP_CAP = 5000


class Subgroup:
    """A subgroup of a fixed ambient Group, stored as sorted indices."""

    __slots__ = ("ambient", "indices", "_mask", "_gens", "_transversal")

    def __init__(self, ambient, indices):
        arr = np.unique(np.asarray(indices, dtype=np.int32))
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
        """A small generating set, found greedily along the index order."""
        if self._gens is None:
            mult = self.ambient.mult
            covered = np.zeros(1, dtype=np.int32)
            gens = []
            for idx in self.indices:
                if idx not in covered:
                    gens.append(int(idx))
                    covered = kernels.closure(mult, np.asarray(gens, dtype=np.int32))
                    if covered.size == self.indices.size:
                        break
            self._gens = np.asarray(gens, dtype=np.int32)
        return self._gens

    def perms(self):
        return tuple(self.ambient.elements[i] for i in self.indices)

    def generators(self):
        return tuple(self.ambient.elements[i] for i in self.generator_indices)

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
    representative: Subgroup
    order: int
    class_size: int
    normalizer: Subgroup


class SubgroupClassTable:
    """All subgroups of a group, organized by conjugacy class.

    ``classes`` is sorted by (order, representative index tuple); the
    representative of each class is its lexicographically least member.
    ``sub_to_class`` maps the key of every individual subgroup to its
    class position; ``members`` and ``class_of`` index the subgroups by
    their position in it.
    """

    def __init__(self, group, classes, sub_to_class):
        self.group = group
        self.classes = classes
        self.sub_to_class = sub_to_class
        self._members = None
        self._class_of = None
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

    @property
    def members(self):
        """Subgroup-by-element membership matrix, built once: row r is the
        element mask of the r-th subgroup of ``sub_to_class``."""
        if self._members is None:
            members = np.zeros((len(self.sub_to_class), self.group.order), dtype=bool)
            for row, key in enumerate(self.sub_to_class):
                members[row, np.frombuffer(key, dtype=np.int32)] = True
            self._members = members
        return self._members

    @property
    def class_of(self):
        """Class position of each row of ``members``, built once."""
        if self._class_of is None:
            self._class_of = np.fromiter(self.sub_to_class.values(), dtype=np.intp)
        return self._class_of

    def maximal_classes(self):
        """Positions of the classes of maximal subgroups.

        Walking down by order, a proper subgroup is maximal exactly when
        no member of a larger maximal class, all of which are already
        found, contains it.  The last class is the group itself.
        """
        maximal = np.zeros(len(self.classes), dtype=bool)
        for i in range(len(self.classes) - 2, -1, -1):
            rows = self.members[maximal[self.class_of]]
            if not rows[:, self.classes[i].representative.indices].all(axis=1).any():
                maximal[i] = True
        return tuple(np.flatnonzero(maximal).tolist())


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

    sub_to_class = {}
    records = []  # (indices, normalizer_indices, class_size)
    queue = deque()  # (representative, generators of it)
    total = 0

    def register(indices, gens):
        nonlocal total
        key = indices.tobytes()
        if key in sub_to_class:
            return
        norm = kernels.normalizer_members(mult, inv, indices)
        reps = kernels.coset_reps(mult, norm)
        orbit = []
        seen = set()
        for t in reps:
            conj = group.conjugate_indices(t, indices)
            ckey = conj.tobytes()
            if ckey in seen:
                raise InternalCheckError("normalizer transversal repeated a conjugate")
            seen.add(ckey)
            orbit.append((conj, t))
        if len(orbit) * norm.size != n:
            raise InternalCheckError("orbit size violates orbit-stabilizer counting")
        # the stored normalizer and the generators must belong to the
        # stored representative, so conjugate them by the same element
        canon, t0 = min(orbit, key=lambda pair: pair[0].tolist())
        canon_norm = group.conjugate_indices(t0, norm)
        cid = len(records)
        for conj, _ in orbit:
            sub_to_class[conj.tobytes()] = cid
        records.append((canon, canon_norm, len(orbit)))
        total += len(orbit)
        if total > SUBGROUP_CAP:
            raise CapExceeded(
                "subgroup enumeration exceeded the cap of %d" % SUBGROUP_CAP
            )
        if canon.size < n:
            canon_gens = group.conjugate_indices(t0, gens)
            if not np.isin(canon_gens, canon).all():
                raise InternalCheckError("generators left the class representative")
            queue.append((canon, canon_gens))

    # extending the trivial group gives the cyclic subgroups
    register(np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32))
    while queue:
        base, gens = queue.popleft()
        # <H, g> = <H, hgh'>: one extension per double coset HgH (the
        # |H| x |H| block is at most a quarter of the mult table)
        done = np.zeros(n, dtype=bool)
        done[base] = True
        for g in range(n):
            if done[g]:
                continue
            done[mult[np.ix_(mult[base, g], base)]] = True
            seeds = np.append(gens, np.int32(g))
            register(kernels.closure(mult, seeds), seeds)

    order_perm = sorted(
        range(len(records)), key=lambda i: (records[i][0].size, records[i][0].tolist())
    )
    remap = {old: new for new, old in enumerate(order_perm)}
    classes = []
    for old in order_perm:
        indices, norm, size = records[old]
        classes.append(
            SubgroupClass(
                representative=Subgroup(group, indices),
                order=int(indices.size),
                class_size=size,
                normalizer=Subgroup(group, norm),
            )
        )
    sub_to_class = {key: remap[cid] for key, cid in sub_to_class.items()}
    if sum(c.class_size for c in classes) != len(sub_to_class):
        raise InternalCheckError("class sizes disagree with the subgroup key map")
    table = SubgroupClassTable(group, classes, sub_to_class)
    group._memo["class_table"] = table
    return table


def is_normal(group, subgroup):
    # conjugation by generators suffices to test normality
    for g in group.generators:
        gi = group.index(g)
        conj = group.conjugate_indices(gi, subgroup.indices)
        if conj.tobytes() != subgroup.key:
            return False
    return True


def normal_subgroups(group):
    table = enumerate_classes(group)
    return [c.representative for c in table.classes if c.class_size == 1]


def is_minimal_normal(group, normal):
    """True when no nontrivial normal subgroup of ``group`` lies strictly
    inside the normal subgroup ``normal``."""
    return not any(
        not sub.is_trivial()
        and sub.order < normal.order
        and normal.contains_subgroup(sub)
        for sub in normal_subgroups(group)
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

    def images_of(g_index):
        return coset_of[mult[g_index, reps]]

    gen_perms = []
    for g in group.generators:
        gen_perms.append(Permutation(images_of(group.index(g))))
    q = generate(degree, gen_perms, element_cap=max(degree, 1))
    if q.order * normal.order != n:
        raise InternalCheckError("quotient order does not match index")

    q_index_of = np.empty(n, dtype=np.int32)
    for gi in range(n):
        q_index_of[gi] = q._index[tuple(int(v) for v in images_of(gi))]

    def project(perm):
        return Permutation(images_of(group.index(perm)))

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
    perms = subgroup.perms()
    gens = subgroup.generators()
    grp = Group(ambient.degree, gens, perms)
    grp._memo["parent_indices"] = subgroup.indices
    ambient._memo[("as_group", subgroup.key)] = grp
    return grp


def centralizer_indices(group, target_indices, within=None):
    """Indices of elements commuting with every element of ``target_indices``,
    optionally restricted to the subgroup ``within``."""
    mult = group.mult
    pool = within.indices if within is not None else np.arange(
        group.order, dtype=np.int32
    )
    out = []
    for g in pool:
        if all(mult[g, t] == mult[t, g] for t in target_indices):
            out.append(int(g))
    return np.asarray(out, dtype=np.int32)
