"""Reference helpers shared by several test modules."""

import itertools
import random
from collections import deque

import numpy as np
from hypothesis import strategies as st

from permrel import _kernels
from permrel.burnside import (
    BurnsideElement,
    element_from_subgroups,
    fixed_points,
    induct,
    inflate,
    marks_table,
)
from permrel.classify import (
    DressDecomposition,
    DressSection,
    GroupClassReport,
    MainCaseMatch,
    _elementary_abelian_prime,
    _quasi_elementary_witness,
    dress_primes,
    frattini_subgroup,
    is_abelian,
    is_cyclic,
    is_p_hypo_elementary,
    is_pq_dress,
    is_q_quasi_elementary,
    is_soluble,
    orders_modulo,
    p_core,
    q_residual,
    two_factor_decomposition,
)
from permrel.constructions import affine_group, decode_vector, encode_vector
from permrel.errors import InputError, InternalCheckError
from permrel.numtheory import p_part, prime_factors, prime_to_p_part, xgcd
from permrel.perm import Permutation, generate
from permrel.presets import CORPUS_NAMES
from permrel.relations import (
    Prediction,
    _hypo_mask,
    _maximal_views,
    _own_hypo_mask,
    _validate_theta_characteristic,
    brauer_kernel,
    effective_prime,
    verify_relation,
)
from permrel.subgroups import (
    Subgroup,
    SubgroupClass,
    SubgroupClassTable,
    enumerate_classes,
    is_minimal_normal,
    minimal_normal_subgroups,
    normal_subgroups,
    quotient,
    subgroup_as_group,
)
from permrel.zlattice import IntMatrix, _as_int, hnf, kernel_basis, quotient_invariants, snf


@st.composite
def permutation_groups(draw, max_degree=5):
    """A group generated by one to three random permutations."""
    degree = draw(st.integers(1, max_degree))
    perms = st.permutations(range(degree)).map(Permutation)
    return generate(degree, draw(st.lists(perms, min_size=1, max_size=3)))


def relabelled(group, seed):
    """The same group on its points renamed by a permutation drawn from
    ``seed``, so that its elements come in another order."""
    sigma = list(range(group.degree))
    random.Random(seed).shuffle(sigma)
    gens = []
    for perm in group.generators:
        images = [0] * group.degree
        for point, image in enumerate(perm.images):
            images[sigma[point]] = sigma[image]
        gens.append(Permutation(images))
    return generate(group.degree, gens)


def elements_by_closure(degree, generators):
    """The sorted image tuples of the group the generators generate,
    closed one composition at a time on tuples."""
    elements = {tuple(range(degree))}
    frontier = list(elements)
    while frontier:
        fresh = []
        for images in frontier:
            for gen in generators:
                prod = tuple(gen.images[v] for v in images)
                if prod not in elements:
                    elements.add(prod)
                    fresh.append(prod)
        frontier = fresh
    return sorted(elements)


def mult_rows_by_lookup(group, rows):
    """The rows ``rows`` of ``group.mult``, each looked up by image: row i
    composes elements[i] with every element at once and binary-searches
    the products among the sorted element images."""
    images = group.images
    table = np.empty((len(rows), group.order), dtype=np.int32)
    for t, i in enumerate(rows):
        table[t] = group._indices_of(images[i][images])
    return table


def inverses_by_lookup(group):
    return np.array([group.index(p.inverse()) for p in group.elements], dtype=np.int32)


def element_orders_by_permutation(group):
    return np.array([p.order() for p in group.elements], dtype=np.int64)


def marks_table_by_fixed_points(group, table):
    """The table of marks entry by entry: the fixed points of each class
    representative K on each coset space G/H, zero where |K| > |H|."""
    return [
        [
            fixed_points(group, h.representative, k.representative)
            if k.order <= h.order
            else 0
            for k in table.classes
        ]
        for h in table.classes
    ]


def subgroups_of(table):
    """Every subgroup in ``table``, decoded from its key map and sorted
    by order, then index set."""
    subs = [
        Subgroup(table.group, np.frombuffer(key, dtype=np.int32))
        for key in table.sub_to_class
    ]
    return sorted(subs, key=lambda s: (s.order, s.indices.tolist()))


def class_orbit_by_conjugation(table, class_index):
    """Every subgroup in a class, sorted: the representative conjugated
    by each element of its normalizer's transversal.  Raises
    InternalCheckError when the representative is not the least member."""
    cls = table.classes[class_index]
    rep = cls.representative
    orbit = {}
    for t in cls.normalizer.transversal:
        conj = table.group.conjugate_indices(t, rep.indices)
        orbit.setdefault(conj.tobytes(), Subgroup(table.group, conj))
    out = sorted(orbit.values(), key=lambda s: s.indices.tolist())
    if out[0].key != rep.key:
        raise InternalCheckError("class representative is not orbit-least")
    return out


def subgroup_is_p_hypo_elementary(subgroup, p):
    """Hypo-elementarity for a subgroup, without building its quotient.

    A group is p-hypo-elementary exactly when its Sylow p-subgroup is
    normal (unique) and a complement element exists, i.e. some element
    has order equal to the prime-to-p part of the group order.  The
    Sylow subgroups are counted by a scan of every subgroup of the
    ambient group.
    """
    group = subgroup.ambient
    table = enumerate_classes(group)
    order = subgroup.order
    sylow_order = p_part(order, p)
    if sylow_order > 1:
        count = 0
        for sub in subgroups_of(table):
            if sub.order == sylow_order and subgroup.contains_subgroup(sub):
                count += 1
                if count > 1:
                    return False
        if count != 1:
            raise InternalCheckError("no Sylow subgroup found inside a subgroup")
    coprime_part = prime_to_p_part(order, p)
    orders = group.element_orders[subgroup.indices]
    return bool((orders == coprime_part).any())


def closure_by_products(mult, seeds):
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


def closure_by_bfs(mult, seeds, start=None):
    """Subgroup K generated by ``seeds``, breadth-first from ``start``, a
    sorted index array inside K holding the identity (the identity alone
    by default): each round multiplies the elements found in the round
    before by every seed.  Past n/2 elements K is G, by Lagrange."""
    n = mult.shape[0]
    gens = np.asarray(seeds, dtype=np.int32)
    frontier = np.zeros(1, dtype=np.int32) if start is None else start
    member = np.zeros(n, dtype=bool)
    member[frontier] = True
    size = frontier.size
    while frontier.size and gens.size:
        if 2 * size > n:
            return np.arange(n, dtype=np.int32)
        reached = np.zeros(n, dtype=bool)
        reached[mult[frontier[:, None], gens]] = True
        fresh = reached > member
        member |= fresh
        frontier = fresh.nonzero()[0]
        size += frontier.size
    if n % size:
        raise InternalCheckError("a closure of %d elements in a group of order %d"
                                 % (size, n))
    return member.nonzero()[0].astype(np.int32)


def coset_reps_by_full_scan(mult, members):
    """Left coset representatives of H, identity coset first, from a
    scan over every element of G."""
    n = mult.shape[0]
    visited = np.zeros(n, dtype=bool)
    reps = []
    for g in range(n):
        if not visited[g]:
            reps.append(g)
            visited[mult[g, members]] = True
    return np.asarray(reps, dtype=np.int32)


def members_by_keys(sub_to_class, n):
    """The subgroup-by-element bool matrix of a group of order ``n``: row r
    the mask of the r-th key of ``sub_to_class``, read off the key."""
    members = np.zeros((len(sub_to_class), n), dtype=bool)
    for row, key in enumerate(sub_to_class):
        members[row, np.frombuffer(key, dtype=np.int32)] = True
    return members


def maximal_classes_by_members(table, members):
    """The maximal classes by the walk down the orders on the bool matrix
    ``members``: a class is maximal when no member of a larger maximal
    class holds all of its representative."""
    maximal = np.zeros(len(table.classes), dtype=bool)
    for i in range(len(table.classes) - 2, -1, -1):
        rows = members[maximal[table.class_of]]
        if not rows[:, table.classes[i].representative.indices].all(axis=1).any():
            maximal[i] = True
    return tuple(np.flatnonzero(maximal).tolist())


def conjugation_orbits_by_members(table, members, sub, gens):
    """``conjugation_orbits`` on the bool matrix ``members``: the rows
    inside ``sub``, and each labelled by the least row of its orbit, found
    by following the conjugations by ``gens`` from it, row by row."""
    group = table.group
    mult = group.mult
    rows = np.flatnonzero(~members[:, ~sub.mask].any(axis=1))
    inside = members[rows]
    position = {row.tobytes(): i for i, row in enumerate(inside)}
    conjs = [mult[mult[group.inv[g]], g] for g in gens]  # y -> g^-1 y g
    label = [-1] * len(rows)
    for start in range(len(rows)):
        if label[start] < 0:
            label[start], frontier = start, [start]
            while frontier:
                i = frontier.pop()
                for conj in conjs:
                    j = position[inside[i][conj].tobytes()]
                    if label[j] < 0:
                        label[j] = start
                        frontier.append(j)
    return rows, np.asarray(label)


def marks_by_members(table, members):
    """The table of marks counted on the bool matrix ``members``: the mark
    of K_j on G/H_i is |N(H_i):H_i| times the class-i rows holding all
    of K_j's representative."""
    k = len(table.classes)
    m = np.zeros((k, k), dtype=np.int64)
    for j, cls in enumerate(table.classes):
        above = table.class_of[members[:, cls.representative.indices].all(axis=1)]
        for i, c in enumerate(table.classes):
            m[i, j] = c.normalizer.order // c.order * int((above == i).sum())
    return m


def frattini_by_members(table, members):
    """The meet of the rows of the maximal classes of the bool matrix."""
    maximal = list(maximal_classes_by_members(table, members))
    rows = members[np.isin(table.class_of, maximal)]
    return np.flatnonzero(rows.all(axis=0)).tolist()


def least_hall_subgroup_by_members(table, members, sub, p):
    """The least index list among the rows of the bool matrix inside
    ``sub`` with |sub|_p' elements."""
    rows = members[~members[:, ~sub.mask].any(axis=1)]
    rows = rows[rows.sum(axis=1) == prime_to_p_part(sub.order, p)]
    return min(np.flatnonzero(row).tolist() for row in rows)


def hypo_mask_by_members(table, members, normal, p, over):
    """``_hypo_mask`` on the first row of the bool matrix of each class in
    ``over``: |U/N| counted from the row, and the p-elements and the
    element of order |U/N|_p' found among its bits."""
    orders, n = orders_modulo(table.group, normal), normal.order
    mask = []
    for j in over:
        row = members[np.searchsorted(table.class_of, j)]
        size = int(row.sum()) // n
        sylow = p_part(size, p)
        p_count = sum(p_part(int(o), p) == o for o in orders[row])
        mask.append(p_count == n * sylow and bool((orders[row] == size // sylow).any()))
    return np.array(mask, dtype=bool)


def enumerate_classes_by_every_extension(group):
    """Subgroup classes with no shortcuts: every class representative H
    is extended by every g outside H, closing all of H plus g.  The
    table is built like ``enumerate_classes`` builds it (classes sorted
    by order and indices, orbit-least representatives), but not cached;
    each class carries all of its representative as its generators, and
    the packed rows follow ``sub_to_class`` in discovery order."""
    mult = group.mult
    inv = group.inv
    n = group.order
    sub_to_class = {}
    records = []  # (indices, normalizer_indices, class_size)
    queue = deque()

    def register(indices):
        if indices.tobytes() in sub_to_class:
            return
        norm = _kernels.normalizer_members(mult, inv, indices, indices)
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
        register(closure_by_products(mult, np.asarray([g], dtype=np.int32)))
    while queue:
        base = queue.popleft()
        for g in np.setdiff1d(np.arange(n, dtype=np.int32), base):
            register(closure_by_products(mult, np.append(base, g)))

    order = sorted(range(len(records)), key=lambda i: (records[i][0].size,
                                                       records[i][0].tolist()))
    position = {old: new for new, old in enumerate(order)}
    classes = [
        SubgroupClass(
            representative=Subgroup(group, records[i][0]),
            order=int(records[i][0].size),
            class_size=records[i][2],
            normalizer=Subgroup(group, records[i][1]),
            generators=records[i][0],
        )
        for i in order
    ]
    sub_to_class = {key: position[cid] for key, cid in sub_to_class.items()}
    return SubgroupClassTable(group, classes, sub_to_class,
                              np.packbits(members_by_keys(sub_to_class, n), axis=1))


def enumerate_classes_by_transversals(group):
    """``enumerate_classes`` with every class registered the slow way: H
    conjugated by each element of a transversal of N_G(H) with
    ``conjugate_indices``, a normal H included, and the representative the
    least conjugate.  The extensions, their order and the skips are those
    of ``enumerate_classes``, so the two tables must be equal, the
    generators each class carries included; the subgroups of each order
    are kept as plain masks, and each closure starts from the identity."""
    mult, inv, n = group.mult, group.inv, group.order
    primes = prime_factors(n)
    not_zuppo = np.array([len(prime_factors(int(o))) != 1 for o in group.element_orders])
    sub_to_class = {}
    masks = {}  # order -> the masks of the registered subgroups of that order
    records = []  # (representative, normalizer, member keys, generators)
    queue = deque()

    def register(indices, gens):
        if indices.tobytes() in sub_to_class:
            return
        norm = _kernels.normalizer_members(mult, inv, indices, gens)
        orbit = [(group.conjugate_indices(t, indices), t)
                 for t in coset_reps_by_full_scan(mult, norm)]
        canon, t0 = min(orbit, key=lambda pair: pair[0].tolist())
        for conj, _ in orbit:
            sub_to_class[conj.tobytes()] = len(records)
            mask = np.zeros(n, dtype=bool)
            mask[conj] = True
            masks.setdefault(conj.size, []).append(mask)
        gens = group.conjugate_indices(t0, gens)
        keys = sorted(conj.tobytes() for conj, _ in orbit)
        records.append((canon, group.conjugate_indices(t0, norm), keys, gens))
        if canon.size < n:
            queue.append((canon, gens))

    register(np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32))
    while queue:
        base, gens = queue.popleft()
        done = not_zuppo.copy()
        done[base] = True
        for p in primes:
            for mask in masks.get(base.size * p, ()):
                if mask[base].all():
                    done |= mask
        for g in range(n):
            if done[g]:
                continue
            done[mult[mult[base, g][:, None], base]] = True
            seeds = np.append(gens, np.int32(g))
            closed = closure_by_products(mult, seeds)
            if closed.size // base.size in primes:
                done[closed] = True
            register(closed, seeds)

    records.sort(key=lambda record: (record[0].size, record[0].tolist()))
    classes, sub_to_class = [], {}
    for pos, (indices, norm, keys, gens) in enumerate(records):
        classes.append(SubgroupClass(
            representative=Subgroup(group, indices),
            order=int(indices.size),
            class_size=len(keys),
            normalizer=Subgroup(group, norm),
            generators=gens,
        ))
        sub_to_class.update(dict.fromkeys(keys, pos))
    return SubgroupClassTable(group, classes, sub_to_class,
                              np.packbits(members_by_keys(sub_to_class, n), axis=1))


def translation_module_by_points(group, l, d):
    """The elements of an affine group on (Z/l)^d that move every point
    by the same vector, found by testing each element on each point."""
    found = []
    for idx, perm in enumerate(group.elements):
        vec = decode_vector(perm.images[0], l, d)
        if all(
            perm.images[point]
            == encode_vector(tuple(a + b for a, b in zip(decode_vector(point, l, d), vec)), l)
            for point in range(group.degree)
        ):
            found.append(idx)
    return Subgroup(group, np.asarray(found, dtype=np.int32))


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


def hypo_mask_by_loop(table, normal, p, over):
    """``relations._hypo_mask``, unmemoised, one class representative at
    a time: U/N is p-hypo-elementary when U holds |N| |U/N|_p elements u
    with o(uN) a power of p, and one with o(uN) = |U/N|_p'."""
    group = table.group
    orders, n = orders_modulo(group, normal), normal.order
    mask = []
    for j in over:
        u = table.classes[j].representative.indices
        size = u.size // n
        sylow = p_part(size, p)
        p_count = sum(p_part(int(o), p) == o for o in orders[u])
        mask.append(p_count == n * sylow and bool((orders[u] == size // sylow).any()))
    return np.array(mask, dtype=bool)


def classes_containing_by_loop(table, normal):
    """Positions of the classes of ``table`` whose representative
    contains the subgroup ``normal``, one class at a time."""
    return [
        j for j, c in enumerate(table.classes) if c.representative.contains_subgroup(normal)
    ]


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
    kept = [col for col in reduced.columns() if any(col)]
    return IntMatrix.from_columns(kept, rows=k)


def imprimitive_lattice_by_subquotient_groups(group, characteristic):
    """The imprimitive lattice from the maximal subgroups and the
    quotients by minimal normal subgroups, each built as a group of its
    own with its own class table, marks and kernel, and moved to G by
    ``induct`` or ``inflate``; the stacked columns are Hermite-reduced
    with zero columns dropped."""
    table = enumerate_classes(group)
    k = len(table.classes)
    columns = []
    for i in table.maximal_classes():
        sub_group = subgroup_as_group(table.classes[i].representative)
        sub_table = enumerate_classes(sub_group)
        for x in brauer_kernel(sub_group, characteristic).elements(sub_table):
            columns.append(list(induct(sub_table, table, x).coeffs))
    for normal in normal_subgroups(group):
        if normal.is_trivial() or not is_minimal_normal(group, normal):
            continue
        quot = quotient(group, normal)
        q_table = enumerate_classes(quot.group)
        for x in brauer_kernel(quot.group, characteristic).elements(q_table):
            columns.append(list(inflate(q_table, table, x, quot).coeffs))
    columns.sort()
    reduced, _ = hnf(IntMatrix.from_columns(columns, rows=k))
    kept = [col for col in reduced.columns() if any(col)]
    return IntMatrix.from_columns(kept, rows=k)


def imprimitive_lattice_by_hnf(group, characteristic):
    """The imprimitive lattice by the exact route alone: the kernel of
    every maximal view and of every G/N, N minimal normal, moved to G's
    classes, and the Hermite form of all those columns with the zero
    columns dropped.  Each kernel is ``kernel_basis`` of its marks rows,
    read as lists, with no memo shared between them."""
    p = effective_prime(group, characteristic)
    table = enumerate_classes(group)
    k = len(table.classes)
    hypo = _own_hypo_mask(table, p)
    marks = marks_table(group, table).m
    kernels = []
    for normal in minimal_normal_subgroups(group):
        over = table.classes_over(normal).tolist()
        at = np.flatnonzero(_hypo_mask(table, normal, p, over)).tolist()
        rows = [[marks[a][over[c]] for a in over] for c in at]
        kernels.append((kernel_basis(IntMatrix(rows, cols=len(over))), over))
    for class_map, view_marks in _maximal_views(table):
        positions = np.flatnonzero(hypo[class_map]).tolist()
        rows = view_marks.columns(positions).T.tolist()
        kernels.append((kernel_basis(IntMatrix(rows, cols=len(class_map))), class_map))
    columns = []
    for basis, class_map in kernels:
        for col in basis.columns():
            out = [0] * k
            for idx, coeff in enumerate(col):
                out[class_map[idx]] += coeff
            columns.append(out)
    columns.sort()
    reduced, _ = hnf(IntMatrix.from_columns(columns, rows=k))
    kept = [col for col in reduced.columns() if any(col)]
    return IntMatrix.from_columns(kept, rows=k)


def prim_invariants_by_snf(group, characteristic):
    """(free rank, torsion) of K/L from the Smith form of
    ``imprimitive_lattice_by_hnf`` in the kernel."""
    kernel = brauer_kernel(group, characteristic).basis
    return quotient_invariants(kernel, imprimitive_lattice_by_hnf(group, characteristic))


def generates_quotient_by_snf(group, characteristic, element):
    """Whether L + Zx is the kernel, from the Smith form of the columns
    of ``imprimitive_lattice_by_hnf`` and x in the kernel."""
    kernel = brauer_kernel(group, characteristic).basis
    imprim = imprimitive_lattice_by_hnf(group, characteristic)
    stacked = IntMatrix.from_columns(imprim.columns() + [list(element.coeffs)], rows=kernel.rows)
    return quotient_invariants(kernel, stacked) == (0, ())


def extract_generator_by_columns(table, kernel):
    """``prim``'s generator from whole columns: the least of the Hermite
    basis columns with a unit last coordinate, each times that unit, or
    else the extended-gcd combination of all columns, built column by
    column; None when the last coordinates are not coprime."""
    basis = kernel.basis
    if basis.cols == 0:
        return None
    last = basis.rows - 1
    cols = basis.columns()
    candidates = [
        col if col[last] == 1 else [-v for v in col]
        for col in cols
        if abs(col[last]) == 1
    ]
    if candidates:
        return BurnsideElement(table, min(candidates))
    g = 0
    combo = [0] * basis.rows
    for col in cols:
        coeff = col[last]
        if coeff == 0:
            continue
        new_g, x, y = xgcd(g, coeff)
        combo = [x * a + y * b for a, b in zip(combo, col)]
        g = new_g
        if g == 1:
            break
    if g != 1:
        return None
    if combo[last] == -1:
        combo = [-v for v in combo]
    if combo[last] != 1:
        raise InternalCheckError("generator extraction lost the unit coefficient")
    return BurnsideElement(table, combo)


def rank_modulo_by_elimination(rows, ell):
    """The rank of the integer ``rows`` modulo the prime ell, by row
    reduction on lists of residues."""
    rows = [[v % ell for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], ell - 2, ell)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col] * inverse
                rows[i] = [(a - c * b) % ell for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def kernel_basis_by_two_hnfs(m):
    """The integer kernel of M in two Hermite passes: the columns of T
    past the rank of H = M * T, then the Hermite form of those."""
    h, t = hnf(m)
    rank = sum(1 for col in h.columns() if any(col))
    kernel = t.columns()[rank:]
    if not kernel:
        return IntMatrix.from_columns([], rows=m.cols)
    return hnf(IntMatrix.from_columns(kernel, rows=m.cols))[0]


def unit_kernel_by_gauss_jordan(mat, prime=2**31 - 1):
    """``zlattice._unit_kernel`` as it was before it kept a record of its
    row operations: the Gauss-Jordan elimination of the int64 array M
    modulo ``prime`` rewrites the whole r x k residue block at each pivot.
    (P, N, W), or None."""
    r, k = mat.shape
    q = prime
    if mat.size and max(int(mat.max()), -int(mat.min())) * r * q >= 2**63:
        return None
    red = mat % q
    free = list(range(r))  # rows without a pivot, in order
    pivot_cols = [None] * r
    for n in range(k - 1, -1, -1):
        if not free:
            break
        x = red[:, n].tolist()
        s = next((i for i in free if x[i]), None)
        if s is None:
            continue
        inv = pow(x[s], q - 2, q)
        x[s] -= 1
        red -= np.multiply.outer([v * inv % q for v in x], red[s])
        red %= q
        free.remove(s)
        pivot_cols[s] = n
    if free:
        return None
    rest = np.delete(np.arange(k), pivot_cols)
    neg = (q - red[:, rest]) % q
    neg[neg > q // 2] -= q
    check = mat[:, rest]
    for n, row in zip(pivot_cols, neg):
        check += np.multiply.outer(mat[:, n], row)
    if check.any():
        return None
    return rest, np.array(pivot_cols, dtype=np.intp), neg


def unit_kernel_by_lists(m, prime=2**31 - 1):
    """The unit-pivot Hermite kernel basis of the IntMatrix M, or None:
    ``unit_kernel_by_gauss_jordan`` of M, with the basis returned as an
    IntMatrix built from lists."""
    r, k = m.rows, m.cols
    if r and k and max(max(map(max, m.data)), -min(map(min, m.data))) * r * prime >= 2**63:
        return None
    found = unit_kernel_by_gauss_jordan(np.array(m.data, dtype=np.int64).reshape(r, k), prime)
    if found is None:
        return None
    rest, pivot_cols, neg = found[0].tolist(), found[1].tolist(), found[2]
    data = [None] * k
    for j, p in enumerate(rest):
        data[p] = [0] * len(rest)
        data[p][j] = 1
    for n, row in zip(pivot_cols, neg.tolist()):
        data[n] = row
    return IntMatrix(data, cols=len(rest))


def unit_rows(basis):
    """The rows P on which the Hermite basis ``basis`` is the identity,
    each column's first nonzero one, or None when they are not."""
    rows = []
    for i, row in enumerate(basis.data):
        j = len(rows)
        if j < basis.cols and row[j]:
            if row[j] != 1 or row.count(0) != basis.cols - 1:
                return None
            rows.append(i)
    return rows if len(rows) == basis.cols else None


def mat_mul(a, b):
    """The dense product A * B of two IntMatrix values."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in matrix product")
    cols = b.columns()
    return IntMatrix(
        [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.data],
        cols=b.cols,
    )


def echelon_solve(h_cols, pivot_rows, vector):
    """Solve H y = vector for integer y, where H is a column echelon
    matrix given by dense columns with strictly increasing pivot rows.

    Returns the coefficient list, or None when no integer solution
    exists.
    """
    residual = list(vector)
    coeffs = [0] * len(h_cols)
    for idx, (col, prow) in enumerate(zip(h_cols, pivot_rows)):
        q, r = divmod(residual[prow], col[prow])
        if r:
            return None
        coeffs[idx] = q
        if q:
            for i in range(len(residual)):
                residual[i] -= q * col[i]
    if any(residual):
        return None
    return coeffs


def hermite_echelon(m):
    """The nonzero columns of M's Hermite form, dense, with their pivot
    rows."""
    cols = [c for c in hnf(m)[0].columns() if any(c)]
    return cols, [next(i for i, v in enumerate(c) if v) for c in cols]


def quotient_invariants_by_hnf(ambient, sub):
    """The invariants of the quotient of the column lattice of ``ambient``
    by that of ``sub``, with the ambient lattice always put in Hermite
    form before the sub columns are solved in it."""
    cols, pivot_rows = hermite_echelon(ambient)
    coords = [echelon_solve(cols, pivot_rows, c) for c in sub.columns()]
    if any(c is None for c in coords):
        raise InternalCheckError("sublattice is not contained in the ambient lattice")
    if not coords:
        return len(cols), ()
    factors = snf(IntMatrix.from_columns(coords, rows=len(cols))).invariant_factors
    return len(cols) - len(factors), tuple(f for f in factors if f > 1)


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
            cols.insert(r, cols.pop(j0))
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


def _gf_mat_inverse(matrix, l):
    d = len(matrix)
    aug = [
        [matrix[i][j] % l for j in range(d)] + [1 if i == j else 0 for j in range(d)]
        for i in range(d)
    ]
    rank = 0
    for col in range(d):
        piv = None
        for row in range(rank, d):
            if aug[row][col] % l:
                piv = row
                break
        if piv is None:
            raise InputError("matrix is singular modulo %d" % l)
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = pow(aug[rank][col], l - 2, l)
        aug[rank] = [(v * inv) % l for v in aug[rank]]
        for row in range(d):
            if row != rank and aug[row][col]:
                factor = aug[row][col]
                aug[row] = [
                    (x - factor * y) % l for x, y in zip(aug[row], aug[rank])
                ]
        rank += 1
    return [row[d:] for row in aug]


def _normalize_functional(vec, l):
    nz = next((i for i, v in enumerate(vec) if v % l), None)
    if nz is None:
        raise InternalCheckError("zero functional in orbit walk")
    inv = pow(vec[nz], l - 2, l)
    return tuple(v * inv % l for v in vec)


def _functional_orbits(l, d, matrices):
    """Least member of each orbit of the projective functionals on
    (F_l)^d (first nonzero coordinate 1) under the dual action of the
    matrix group generated by ``matrices``."""
    inverses = [_gf_mat_inverse(m, l) for m in matrices]
    all_reps = [
        vec for vec in itertools.product(range(l), repeat=d)
        if any(vec) and next(v for v in vec if v) == 1
    ]
    seen = set()
    orbits = []
    for start in all_reps:
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        frontier = [start]
        while frontier:
            fresh = []
            for phi in frontier:
                for minv in inverses:
                    image = tuple(
                        sum(phi[i] * minv[i][j] for i in range(d)) % l
                        for j in range(d)
                    )
                    image = _normalize_functional(image, l)
                    if image not in seen:
                        seen.add(image)
                        orbit.append(image)
                        fresh.append(image)
            frontier = fresh
        orbits.append(min(orbit))
    return orbits


def theta_highdim_by_functional_orbits(l, matrices, characteristic):
    """``theta_highdim`` with its hyperplanes found by walking the
    projective functionals of (F_l)^d under the dual action of D: one
    hyperplane ker(phi) per orbit, with N_D(U) from a fresh normalizer
    computation."""
    matrices = [list(map(list, m)) for m in matrices]
    d = len(matrices[0]) if matrices else 2
    if d < 2:
        raise InputError("the high rank relation needs rank d >= 2")
    _validate_theta_characteristic(l, characteristic)
    group, module, stabilizer = affine_group(l, d, matrices)
    p = effective_prime(group, characteristic)
    if not is_p_hypo_elementary(subgroup_as_group(stabilizer), p):
        if not dress_primes(subgroup_as_group(stabilizer), p):
            raise InputError("the stabilizer is not a Dress group for any prime")
    if not is_minimal_normal(group, module):
        if two_factor_decomposition(group, module, stabilizer, l) is None:
            raise InputError(
                "the module is neither irreducible nor a product of two lines"
            )
    table = enumerate_classes(group)
    mult = group.mult
    pairs = [(Subgroup.full(group), 1), (stabilizer, -1)]
    for phi in _functional_orbits(l, d, matrices):
        members = [0]
        for idx in module.indices:
            if idx == 0:
                continue
            vec = decode_vector(group.elements[idx].images[0], l, d)
            if sum(a * b for a, b in zip(phi, vec)) % l == 0:
                members.append(int(idx))
        hyperplane = Subgroup(group, np.asarray(sorted(members), dtype=np.int32))
        if hyperplane.order * l != module.order:
            raise InternalCheckError("hyperplane has wrong index in the module")
        norm = _kernels.normalizer_members(
            mult, group.inv, hyperplane.indices, hyperplane.indices
        )
        norm_in_stab = np.intersect1d(norm, stabilizer.indices).astype(np.int32)
        un = np.unique(
            mult[np.ix_(hyperplane.indices, norm_in_stab)].ravel()
        ).astype(np.int32)
        wn = np.unique(
            mult[np.ix_(module.indices, norm_in_stab)].ravel()
        ).astype(np.int32)
        if len(un) != hyperplane.order * len(norm_in_stab):
            raise InternalCheckError("hyperplane product set is not split")
        if len(wn) != module.order * len(norm_in_stab):
            raise InternalCheckError("module product set is not split")
        pairs.append((Subgroup(group, un), 1))
        pairs.append((Subgroup(group, wn), -1))
    element = element_from_subgroups(table, pairs)
    if not verify_relation(group, characteristic, element):
        raise InternalCheckError("constructed relation has nonzero hypo marks")
    return element


def lattice_contains(basis, vector):
    """True when ``vector`` lies in the lattice generated by the columns
    of ``basis``."""
    vec = [_as_int(v) for v in vector]
    if len(vec) != basis.rows:
        raise ValueError("vector length does not match lattice dimension")
    return echelon_solve(*hermite_echelon(basis), vec) is not None


# the prediction ladder's differential cases: the corpus, and larger
# groups with many normal subgroups
LADDER_NAMES = CORPUS_NAMES + ("S4xC2", "D8xS3", "D8xD8", "C2xC2xC2xC2xC2")


def centralizer_indices_by_loop(group, target_indices, within=None):
    """Elements of ``within`` (default the group) commuting with every
    target, tested one element and one target at a time."""
    mult = group.mult
    pool = within.indices if within is not None else range(group.order)
    out = [g for g in pool if all(mult[g, t] == mult[t, g] for t in target_indices)]
    return np.asarray(out, dtype=np.int32)


def p_core_by_sylow_intersection(group, p):
    """The largest normal p-subgroup as the meet of the Sylow p-subgroups:
    the rows of the class table's Sylow class, intersected."""
    if group.order % p:
        return Subgroup.trivial(group)
    table = enumerate_classes(group)
    (sylow,) = [i for i, c in enumerate(table.classes) if c.order == p_part(group.order, p)]
    rows = table.unpacked(np.flatnonzero(table.class_of == sylow))
    return Subgroup(group, np.flatnonzero(rows.all(axis=0)))


def _modulo_core_group(group, p):
    """G/O_p(G) built by ``quotient``, G itself when the core is trivial,
    None when it is G."""
    core = p_core_by_sylow_intersection(group, p)
    if core.is_full():
        return None
    return group if core.is_trivial() else quotient(group, core).group


def is_p_hypo_elementary_by_quotient_group(group, p):
    """True when G/O_p(G), built as a group, is cyclic."""
    quot = _modulo_core_group(group, p)
    return quot is None or is_cyclic(quot)


def is_pq_dress_by_quotient_group(group, p, q):
    """True when G/O_p(G), built as a group, is q-quasi-elementary."""
    quot = _modulo_core_group(group, p)
    return quot is None or is_q_quasi_elementary(quot, q)


def dress_primes_by_quotient_group(group, p):
    """The primes q with G (p,q)-Dress, for G not p-hypo-elementary."""
    core = p_core_by_sylow_intersection(group, p)
    return [
        q for q in prime_factors(group.order // core.order)
        if is_pq_dress_by_quotient_group(group, p, q)
    ]


def _quotient_trichotomy_by_quotient_groups(group, p):
    non_hypo_primes = set()
    for n_sub in normal_subgroups(group):
        if n_sub.is_trivial():
            continue
        q_group = quotient(group, n_sub).group
        if is_p_hypo_elementary_by_quotient_group(q_group, p):
            continue
        found = dress_primes_by_quotient_group(q_group, p)
        if not found:
            return Prediction(source="Thm2.9c", free_rank=0, torsion=())
        non_hypo_primes.add(found[0])
    if not non_hypo_primes:
        return Prediction(source="Thm2.9a", free_rank=1, torsion=())
    if len(non_hypo_primes) == 1:
        return Prediction(source="Thm2.9b", free_rank=0, torsion=(non_hypo_primes.pop(),))
    return Prediction(source="Thm2.9c", free_rank=0, torsion=())


def vector_semidirect_by_complement_group(group, p):
    """``vector_semidirect_match`` with one centralizer per candidate
    complement class, and the complement's questions asked of it built
    by ``subgroup_as_group``; not memoised."""
    table = enumerate_classes(group)
    for w in normal_subgroups(group):
        if w.is_trivial():
            continue
        l = _elementary_abelian_prime(group, w, w.generator_indices)
        if l is None or l == p:
            continue
        complement = None
        for cls in table.classes:
            rep = cls.representative
            if cls.order * w.order != group.order or (rep.mask & w.mask).sum() != 1:
                continue
            if centralizer_indices_by_loop(group, w.generator_indices, within=rep).size == 1:
                complement = rep
                break
        if complement is None:
            continue
        d_group = subgroup_as_group(complement)
        d_hypo = is_p_hypo_elementary_by_quotient_group(d_group, p)
        qs = None
        if not d_hypo:
            found = dress_primes_by_quotient_group(d_group, p)
            if not found:
                continue
            qs = found[0]
        witness = {
            "l": l,
            "rank": next(d for d in range(w.order) if l ** d == w.order),
            "module_order": w.order,
            "complement_order": complement.order,
            "complement_is_hypo": d_hypo,
            "q": qs,
            "shape": None,
            "_module": w,
            "_complement": complement,
        }
        if is_minimal_normal(group, w):
            witness["shape"] = "irreducible"
            return witness
        split = two_factor_decomposition(group, w, complement, l)
        if split is not None:
            q2, factor_orders = split
            if qs is not None and q2 is not None and q2 != qs:
                continue
            witness["shape"] = "two_factor"
            witness["factor_orders"] = factor_orders
            if witness["q"] is None:
                witness["q"] = q2
            return witness
    return None


def _nonabelian_socle_by_quotient_groups(group, p):
    out = []
    for m in normal_subgroups(group):
        if m.is_trivial() or not is_minimal_normal(group, m):
            continue
        mult = group.mult
        if all(mult[a, b] == mult[b, a] for a in m.indices for b in m.indices):
            continue  # abelian
        if centralizer_indices_by_loop(group, m.generator_indices).size != 1:
            continue
        q_group = quotient(group, m).group
        d_hypo = is_p_hypo_elementary_by_quotient_group(q_group, p)
        q = None
        if not d_hypo:
            found = dress_primes_by_quotient_group(q_group, p)
            if not found:
                continue
            q = found[0]
        out.append(MainCaseMatch(tag="NonabelianSerre", witness={
            "socle_order": m.order,
            "quotient_order": group.order // m.order,
            "quotient_is_hypo": d_hypo,
            "q": q,
        }))
    return out


def predict_prim_by_quotient_groups(group, characteristic):
    """``predict_prim`` with every quotient and complement built as a
    group of its own."""
    p = effective_prime(group, characteristic)
    if is_p_hypo_elementary_by_quotient_group(group, p):
        return Prediction(source="Hypo", free_rank=0, torsion=())
    qs = dress_primes_by_quotient_group(group, p)
    if not qs:
        return _quotient_trichotomy_by_quotient_groups(group, p)
    if qs[0] != p and not p_core_by_sylow_intersection(group, p).is_trivial():
        return Prediction(source="Thm3.2", free_rank=0, torsion=())
    witness = vector_semidirect_by_complement_group(group, p)
    if witness is None:
        return Prediction(source="NotCovered")
    if witness["complement_is_hypo"]:
        return Prediction(source="ThmMainB", free_rank=1, torsion=())
    return Prediction(source="ThmMainB", free_rank=0, torsion=(witness["q"],))


def main_case_classify_by_groups(group, p):
    """``main_case_classify`` with every quotient and complement built as
    a group of its own (the quasi-elementary case builds none)."""
    matches = list(_quasi_elementary_witness(group, p))
    vs = vector_semidirect_by_complement_group(group, p)
    if vs is not None:
        witness = {k: v for k, v in vs.items() if not k.startswith("_")}
        matches.append(MainCaseMatch(tag="VectorSemidirect", witness=witness))
    matches.extend(_nonabelian_socle_by_quotient_groups(group, p))
    if is_pq_dress_by_quotient_group(group, p, p):
        core = p_core_by_sylow_intersection(group, p)
        matches.append(MainCaseMatch(tag="PPDress", witness={"core_order": core.order}))
    return matches


def classify_group_by_groups(group):
    """``classify_group`` with the p-cores from the Sylow subgroups and
    the hypo and Dress tests on quotients built as groups."""
    n = group.order
    primes = prime_factors(n) if n > 1 else []
    return GroupClassReport(
        order=n,
        cyclic=is_cyclic(group),
        abelian=is_abelian(group),
        soluble=is_soluble(group),
        p_core_orders={p: p_core_by_sylow_intersection(group, p).order for p in primes},
        q_residual_orders={q: q_residual(group, q).order for q in primes},
        frattini_order=frattini_subgroup(group).order,
        hypo_elementary_primes=tuple(
            p for p in primes if is_p_hypo_elementary_by_quotient_group(group, p)
        ),
        quasi_elementary_primes=tuple(q for q in primes if is_q_quasi_elementary(group, q)),
        dress_pairs=tuple(
            (p, q) for p in primes for q in primes if is_pq_dress_by_quotient_group(group, p, q)
        ),
    )


def _lift_subgroup(group, member_group, subgroup):
    """Transport a subgroup of a subgroup-as-group back to the parent."""
    if member_group is group:
        return subgroup
    parent = member_group._memo["parent_indices"]
    return Subgroup(group, parent[subgroup.indices])


def _hall_by_keys(group, p):
    """The Hall p'-subgroup of ``group`` with the least index list, read
    off its own class table's key map."""
    target = prime_to_p_part(group.order, p)
    candidates = [np.frombuffer(key, dtype=np.int32) for key in enumerate_classes(group).sub_to_class]
    candidates = [idx.tolist() for idx in candidates if idx.size == target]
    if not candidates:
        raise InternalCheckError("soluble group is missing a Hall complement")
    return Subgroup(group, min(candidates))


def _check_fusion(group, ng, hall_in_g, hall_group, hall_table):
    """Two subgroups of the Hall complement that are conjugate under the
    full normalizer must already be conjugate inside the complement."""
    by_key = {}
    for key, idx in hall_table.sub_to_class.items():
        member = Subgroup(hall_group, np.frombuffer(key, dtype=np.int32))
        by_key[_lift_subgroup(group, hall_group, member).key] = idx
    for key, cls_idx in list(by_key.items()):
        indices = np.frombuffer(key, dtype=np.int32)
        for g in ng.indices:
            conj = group.conjugate_indices(g, indices)
            other = by_key.get(conj.tobytes())
            if other is not None and other != cls_idx:
                raise InternalCheckError("normalizer fused two complement classes")


def dress_decomposition_by_subgroup_groups(group, p, q):
    """``dress_decomposition`` with each normalizer N_G(U) and its Hall
    p'-subgroup built as groups of their own, whose subgroup classes are
    enumerated from scratch."""
    if q == p:
        raise InputError("dress_decomposition requires q different from p")
    if not is_soluble(group):
        raise InputError("dress_decomposition requires a soluble group")
    if not is_pq_dress(group, p, q):
        raise InputError("group is not (p,q)-Dress for the given pair")
    table = enumerate_classes(group)
    core = p_core(group, p)
    mult = group.mult
    core_classes = [c for c in table.classes if core.contains_subgroup(c.representative)]
    sections = []
    pair_to_class = {}
    hit = {}
    for sec_idx, ccls in enumerate(core_classes):
        u = ccls.representative
        ng = ccls.normalizer
        ng_group = subgroup_as_group(ng)
        hall_in_g = _lift_subgroup(group, ng_group, _hall_by_keys(ng_group, p))
        hall_group = subgroup_as_group(hall_in_g)
        hall_table = enumerate_classes(hall_group)
        _check_fusion(group, ng, hall_in_g, hall_group, hall_table)
        reps = []
        for v_idx, vcls in enumerate(hall_table.classes):
            v_in_g = _lift_subgroup(group, hall_group, vcls.representative)
            product = _kernels.sorted_unique(
                mult[np.ix_(u.indices, v_in_g.indices)]
            ).astype(np.int32)
            if product.size != u.order * v_in_g.order:
                raise InternalCheckError("core times complement part is not direct")
            if product.tobytes() not in table.sub_to_class:
                raise InternalCheckError("product set is not a known subgroup")
            g_class = table.sub_to_class[product.tobytes()]
            pair_to_class[(sec_idx, v_idx)] = g_class
            if g_class in hit:
                raise InternalCheckError("two product pairs landed in one subgroup class")
            hit[g_class] = (sec_idx, v_idx)
            reps.append(v_in_g)
        sections.append(DressSection(
            core_subgroup=u, hall_complement=hall_in_g, complement_classes=tuple(reps),
        ))
    if len(hit) != len(table.classes):
        raise InternalCheckError(
            "product pairs covered %d of %d subgroup classes" % (len(hit), len(table.classes))
        )
    return DressDecomposition(
        p=p, q=q, core=core, sections=tuple(sections), pair_to_class=pair_to_class
    )
