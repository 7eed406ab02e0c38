"""Group-class predicates and structural classification.

The predicates here (cyclic, soluble, hypo-elementary, quasi-elementary,
Dress) reduce to characteristic subgroups read off G's class table: the
p-core is the largest normal p-subgroup, the q-residual the intersection
of the normal subgroups of q-power index, and the Frattini subgroup the
intersection of the maximal subgroups.

A question about a quotient G/N is asked of G; no quotient is built as a
group.  The normal subgroups of G/N are the M/N for the normal M >= N of
G (the classes of size 1), so the preimage of the p-core of G/N is the
largest such M with |M:N| a power of p, and the preimage of the
q-residual of G/N is the intersection of those M of q-power index in G.
A section R/M of normal subgroups is cyclic exactly when some r in R has
order |R:M| modulo M.  The predicates on G are the case N = 1.

``main_case_classify`` matches a group against the structural shapes
that force a nonzero primitive quotient; it returns every matching
shape with a witness, and an empty list means no shape matched.  In the
shape G = W x| D with W abelian, C_G(W) = W C_D(W), so D acts faithfully
exactly when C_G(W) = W; and D is isomorphic to G/W, so the questions
about D are asked of G/W.

Every answer kept on a group is kept in ``Group.cached``, the one cache:
``main_case_classify`` and ``vector_semidirect_match`` per lattice prime
(``_lattice_prime``), as the ``relations`` module docstring shows that
every prime not dividing |G| gives the same answers.  The public
functions that take a prime p (and q) reject one that is not.

``dress_decomposition`` builds no subgroup as a group either: the
subgroup classes of a subgroup S of G are its orbits on G's subgroups
inside S, each represented by its least index list and sorted by
(order, indices), as ``enumerate_classes`` sorts G's.
"""

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from . import _kernels as kernels
from .errors import InputError, InternalCheckError
from .numtheory import (
    is_prime,
    is_prime_power,
    p_part,
    prime_factors,
    prime_to_p_part,
    smallest_prime_not_dividing,
)
from .subgroups import (
    Subgroup,
    _generators_commute,
    centralizer_indices,
    conjugation_orbits,
    enumerate_classes,
    is_abelian,
    is_minimal_normal,
    minimal_normal_subgroups,
    normal_subgroups,
)


def effective_prime(group, characteristic):
    """The prime actually used for hypo-elementarity tests.

    Characteristic 0 maps to the smallest prime not dividing the group
    order; any such prime selects exactly the cyclic subquotients, so
    the resulting lattices agree with the characteristic-0 ones.
    """
    if characteristic == 0:
        return smallest_prime_not_dividing(group.order)
    if not is_prime(characteristic):
        raise InputError("characteristic must be 0 or a prime number")
    return characteristic


def _lattice_prime(group, characteristic):
    """The key under which the answers for ``group`` at this characteristic
    are memoised: the prime when it divides the order, else 0, as every
    prime not dividing the order gives the same answers (``relations``
    module docstring)."""
    p = effective_prime(group, characteristic)
    return p if group.order % p == 0 else 0


def _require_primes(*primes):
    """The guard of the public functions that take primes p (and q): a p
    that is not prime would divide by 0 or, as 1, never leave ``p_part``."""
    if not all(map(is_prime, primes)):
        raise InputError("p and q must be prime numbers")


def subgroup_is_cyclic(subgroup):
    orders = subgroup.ambient.element_orders
    return int(orders[subgroup.indices].max()) == subgroup.order


def is_cyclic(group):
    return subgroup_is_cyclic(Subgroup.full(group))


def derived_subgroup(subgroup):
    """Commutator subgroup of a Subgroup, inside the same ambient group."""
    group = subgroup.ambient
    mult = group.mult
    inv = group.inv
    idx = subgroup.indices
    a = np.repeat(idx, idx.size)
    b = np.tile(idx, idx.size)
    commutators = mult[mult[inv[a], inv[b]], mult[a, b]]
    return Subgroup(group, kernels.closure(mult, kernels.sorted_unique(commutators)))


def is_soluble(group):
    def build():
        current = Subgroup.full(group)
        while True:
            nxt = derived_subgroup(current)
            if nxt.order == current.order:
                return current.is_trivial()
            current = nxt

    return group.cached("soluble", build)


def sylow_subgroup(group, p):
    """The representative Sylow p-subgroup (the whole class is conjugate)."""
    target = p_part(group.order, p)
    hits = [c for c in enumerate_classes(group).classes if c.order == target]
    if len(hits) != 1:
        raise InternalCheckError("Sylow subgroups fell into %d classes" % len(hits))
    return hits[0].representative


def orders_modulo(group, normal):
    """The order of gN in G/N for every element g, memoised per N."""
    if normal.is_trivial():
        return group.element_orders
    return group.cached(("orders_modulo", normal.key),
                        lambda: kernels.power_orders(group.mult, normal.mask))


def quotient_p_core(group, normal, p):
    """The preimage of the p-core of G/N: the largest normal M >= N with
    |M:N| a power of p, which contains every other one."""
    if (group.order // normal.order) % p:
        return normal  # read off no table: G/N has no nontrivial p-subgroup
    return group.cached(("p_core", normal.key, p), lambda: max(
        (m for m in normal_subgroups(group, normal) if is_prime_power(m.order // normal.order, p)),
        key=lambda m: m.order,
    ))


def quotient_q_residual(group, normal, q):
    """The preimage of the q-residual of G/N: the intersection of the
    normal M >= N of q-power index in G."""
    def build():
        n = group.order
        mask = np.ones(n, dtype=bool)
        for sub in normal_subgroups(group, normal):
            if is_prime_power(n // sub.order, q):
                mask &= sub.mask
        result = Subgroup(group, np.flatnonzero(mask))
        # the intersection has q-power index iff some member attains it
        if not is_prime_power(n // result.order, q):
            raise InternalCheckError("q-residual does not have q-power index")
        return result

    return group.cached(("q_residual", normal.key, q), build)


def quotient_is_p_hypo_elementary(group, normal, p):
    """True when G/N modulo its p-core, G/O for O its preimage, is cyclic."""
    core = quotient_p_core(group, normal, p)
    return bool((orders_modulo(group, core) == group.order // core.order).any())


def quotient_is_pq_dress(group, normal, p, q):
    """True when G/N modulo its p-core, G/O for O its preimage, is
    q-quasi-elementary: the q-residual R/O of G/O is cyclic."""
    core = quotient_p_core(group, normal, p)
    residual = quotient_q_residual(group, core, q)
    orders = orders_modulo(group, core)[residual.indices]
    return bool((orders == residual.order // core.order).any())


def quotient_dress(group, normal, p):
    """(hypo, q) for G/N: whether it is p-hypo-elementary and, when it is
    not, the one prime q for which it is (p,q)-Dress, or None.

    G/N modulo its p-core is then noncyclic, and a noncyclic group is
    q-quasi-elementary for at most one prime.  A hypo-elementary G/N is
    Dress for every q, and its q is None.
    """
    if quotient_is_p_hypo_elementary(group, normal, p):
        return True, None
    core = quotient_p_core(group, normal, p)
    found = [
        q for q in prime_factors(group.order // core.order)
        if quotient_is_pq_dress(group, normal, p, q)
    ]
    if len(found) > 1:
        raise InternalCheckError(
            "a noncyclic quotient cannot be quasi-elementary for two primes"
        )
    return False, (found[0] if found else None)


def p_core(group, p):
    """Largest normal p-subgroup."""
    _require_primes(p)
    return quotient_p_core(group, Subgroup.trivial(group), p)


def q_residual(group, q):
    """Smallest normal subgroup of q-power index (intersection of them all)."""
    _require_primes(q)
    return quotient_q_residual(group, Subgroup.trivial(group), q)


def frattini_subgroup(group):
    """Intersection of the maximal subgroups."""
    def build():
        table = enumerate_classes(group)
        maximal = np.zeros(len(table.classes), dtype=bool)
        maximal[list(table.maximal_classes())] = True
        rows = table.unpacked(np.flatnonzero(maximal[table.class_of]))
        return Subgroup(group, np.flatnonzero(rows.all(axis=0)))

    return group.cached("frattini", build)


def hall_p_complement(group, p):
    """A Hall p'-subgroup of a soluble group, canonically chosen.

    Among all subgroups whose order is the prime-to-p part of the group
    order, the one with the lexicographically least index set is
    returned, so repeated runs pick the same complement.
    """
    if not is_soluble(group):
        raise InputError("Hall complements are only computed for soluble groups")
    return _least_hall_subgroup(enumerate_classes(group), Subgroup.full(group), p)


def _least_hall_subgroup(table, sub, p):
    """The subgroup of G inside ``sub`` of order |sub|_p' whose index
    list is lexicographically least, read off the class table ``table``."""
    rows = table.inside(sub)
    orders = np.array([table.classes[i].order for i in table.class_of[rows].tolist()])
    rows = rows[orders == prime_to_p_part(sub.order, p)]
    if not len(rows):
        raise InternalCheckError("soluble group is missing a Hall complement")
    bits = table.unpacked(rows, sub.indices)
    return Subgroup(table.group, min(sub.indices[np.flatnonzero(row)].tolist() for row in bits))


def is_p_hypo_elementary(group, p):
    """True when the quotient by the p-core is cyclic."""
    _require_primes(p)
    return quotient_is_p_hypo_elementary(group, Subgroup.trivial(group), p)


def is_q_quasi_elementary(group, q):
    """True when the q-residual is cyclic (normal cyclic with q-power index)."""
    return subgroup_is_cyclic(q_residual(group, q))


def is_pq_dress(group, p, q):
    """True when the quotient by the p-core is q-quasi-elementary."""
    _require_primes(p, q)
    return quotient_is_pq_dress(group, Subgroup.trivial(group), p, q)


def dress_primes(group, p):
    """The primes q for which a non-hypo-elementary group is (p,q)-Dress,
    at most one: ``quotient_dress`` with N = 1."""
    _require_primes(p)
    hypo, q = quotient_dress(group, Subgroup.trivial(group), p)
    if hypo:
        raise InputError("dress_primes is only meaningful for non-hypo groups")
    return [] if q is None else [q]


@dataclass
class GroupClassReport:
    order: int
    cyclic: bool
    abelian: bool
    soluble: bool
    p_core_orders: dict
    q_residual_orders: dict
    frattini_order: int
    hypo_elementary_primes: tuple
    quasi_elementary_primes: tuple
    dress_pairs: tuple


def classify_group(group):
    n = group.order
    primes = prime_factors(n) if n > 1 else []
    hypo = tuple(p for p in primes if is_p_hypo_elementary(group, p))
    quasi = tuple(q for q in primes if is_q_quasi_elementary(group, q))
    dress = tuple(
        (p, q) for p in primes for q in primes if is_pq_dress(group, p, q)
    )
    return GroupClassReport(
        order=n,
        cyclic=is_cyclic(group),
        abelian=is_abelian(group),
        soluble=is_soluble(group),
        p_core_orders={p: p_core(group, p).order for p in primes},
        q_residual_orders={q: q_residual(group, q).order for q in primes},
        frattini_order=frattini_subgroup(group).order,
        hypo_elementary_primes=hypo,
        quasi_elementary_primes=quasi,
        dress_pairs=dress,
    )


@dataclass
class DressSection:
    core_subgroup: Subgroup  # U, a subgroup of the p-core up to conjugacy
    hall_complement: Subgroup  # the chosen p'-Hall subgroup of N_G(U)
    complement_classes: tuple  # representatives of its subgroup classes


@dataclass
class DressDecomposition:
    p: int
    q: int
    core: Subgroup
    sections: tuple
    pair_to_class: dict  # (section index, complement class index) -> G class


def dress_decomposition(group, p, q):
    """Coordinates for subgroup classes of a soluble (p,q)-Dress group.

    Every subgroup is conjugate to a product U * V with U a subgroup of
    the p-core (up to conjugacy) and V a subgroup class of H, the least
    Hall p'-subgroup of N_G(U) among G's subgroups.  The product
    assignment is verified to hit every subgroup class exactly once, and
    no N_G(U)-orbit to hold two H-classes.
    """
    _require_primes(p, q)
    if q == p:
        raise InputError("dress_decomposition requires q different from p")
    if not is_soluble(group):
        raise InputError("dress_decomposition requires a soluble group")
    if not is_pq_dress(group, p, q):
        raise InputError("group is not (p,q)-Dress for the given pair")
    table = enumerate_classes(group)
    core = p_core(group, p)
    sections = []
    pair_to_class = {}
    for cls in table.classes:
        u, ng = cls.representative, cls.normalizer
        if not core.contains_subgroup(u):
            continue
        hall = _least_hall_subgroup(table, ng, p)
        rows, label = conjugation_orbits(table, hall, hall.generator_indices)
        roots = kernels.sorted_unique(label)
        ng_rows, ng_label = conjugation_orbits(table, ng, ng.generator_indices)
        fused = ng_label[np.searchsorted(ng_rows, rows[roots])]  # each H-class's N_G(U)-orbit
        if kernels.sorted_unique(fused).size < roots.size:
            raise InternalCheckError("normalizer fused two complement classes")
        least = [min(hall.indices[np.flatnonzero(row)].tolist()
                     for row in table.unpacked(rows[label == r], hall.indices)) for r in roots]
        reps = [Subgroup(group, v) for v in sorted(least, key=lambda v: (len(v), v))]
        for v_idx, v in enumerate(reps):
            product = kernels.sorted_unique(group.mult[np.ix_(u.indices, v.indices)])
            if product.size != u.order * v.order:
                raise InternalCheckError("core times complement part is not direct")
            g_class = table.sub_to_class.get(product.tobytes())
            if g_class is None:
                raise InternalCheckError("product set is not a known subgroup")
            pair_to_class[(len(sections), v_idx)] = g_class
        sections.append(DressSection(u, hall, tuple(reps)))
    hit = set(pair_to_class.values())
    if len(hit) < len(pair_to_class):
        raise InternalCheckError("two product pairs landed in one subgroup class")
    if len(hit) != len(table.classes):
        raise InternalCheckError(
            "product pairs covered %d of %d subgroup classes" % (len(hit), len(table.classes))
        )
    return DressDecomposition(p, q, core, tuple(sections), pair_to_class)


@dataclass
class MainCaseMatch:
    tag: str
    witness: dict = field(default_factory=dict)


def _quasi_elementary_witness(group, p):
    """Case: quasi-elementary of order coprime to p, with a degeneracy.

    The degeneracy is that the cyclic part is not of prime order, or
    that the Sylow part does not act faithfully on it.
    """
    n = group.order
    if n % p == 0:
        return []
    rows = []
    for q in prime_factors(n):
        if not is_q_quasi_elementary(group, q):
            continue
        c = q_residual(group, q)
        sylow = sylow_subgroup(group, q)
        # c is cyclic: one element of order |c| generates it
        gen = c.indices[group.element_orders[c.indices] == c.order][:1]
        faithful = centralizer_indices(group, gen, within=sylow).size == 1
        c_prime = is_prime(c.order)
        if not c_prime or not faithful:
            rows.append((q, c.order, sylow.order, c_prime, faithful))
    if n == 1:
        # the trivial group is quasi-elementary with trivial cyclic part
        rows.append((None, 1, 1, False, True))
    keys = ("q", "cyclic_part_order", "sylow_part_order", "cyclic_part_prime",
            "action_faithful")
    return [MainCaseMatch(tag="QuasiElementary", witness=dict(zip(keys, row))) for row in rows]


def _elementary_abelian_prime(group, subgroup, gens):
    """The prime l when the subgroup, generated by ``gens``, is
    elementary abelian, else None."""
    if subgroup.order == 1:
        return None
    factors = prime_factors(subgroup.order)
    if len(factors) != 1:
        return None
    l = factors[0]
    orders = group.element_orders[subgroup.indices]
    if not bool(((orders == 1) | (orders == l)).all()):
        return None
    if not _generators_commute(group, gens):
        return None
    return l


def two_factor_decomposition(group, w, d_sub, l):
    """Try to split W x| D as a direct product of two prime-degree factors.

    Looks for two distinct invariant lines L1, L2 spanning W such that
    D is exactly the product of the pointwise stabilizers of each line,
    with both factors of prime-power order for one common prime q (or
    trivial).  Returns (q, factor_orders) or None.
    """
    if w.order != l * l:
        return None
    lines = [
        nsub for nsub in normal_subgroups(group)
        if nsub.order == l and w.contains_subgroup(nsub)
    ]
    for l1, l2 in permutations(lines, 2):
        p1 = centralizer_indices(group, l2.indices, within=d_sub)
        p2 = centralizer_indices(group, l1.indices, within=d_sub)
        if p1.size * p2.size != d_sub.order:
            continue
        qs = set(prime_factors(int(p1.size))) | set(prime_factors(int(p2.size)))
        if len(qs) > 1:
            continue
        q = qs.pop() if qs else None
        if not all(subgroup_is_cyclic(Subgroup(group, part)) for part in (p1, p2)):
            continue
        return q, (int(p1.size), int(p2.size))
    return None


def vector_semidirect_match(group, p):
    """Match G = W x| D with W elementary abelian away from p, D faithful
    and Dress, and the action irreducible or split into two lines.

    W runs over the normal subgroups; faithfulness is one centralizer per
    W, and D's questions are asked of G/W (module docstring).  Returns a
    witness dict or None, memoised per group and lattice prime; callers
    must not mutate the dict.
    """
    return group.cached(("vector_semidirect", _lattice_prime(group, p)),
                        lambda: _vector_semidirect_witness(group, p))


def _vector_semidirect_witness(group, p):
    table = enumerate_classes(group)
    for cls in table.classes:
        w = cls.representative
        if cls.class_size != 1 or w.is_trivial():
            continue  # W = G is allowed: the complement is then trivial
        l = _elementary_abelian_prime(group, w, cls.generators)
        if l is None or l == p:
            continue
        # W is abelian, so C_G(W) = W C_D(W) for every complement D: D
        # acts faithfully exactly when C_G(W) = W
        if centralizer_indices(group, cls.generators).size != w.order:
            continue
        comp_order = group.order // w.order
        complement = next(
            (c.representative for c in table.classes
             if c.order == comp_order
             and np.count_nonzero(w.mask[c.representative.indices]) == 1),
            None,
        )
        if complement is None:
            continue
        # D is isomorphic to G/W, so its questions are asked of G/W
        d_hypo, q = quotient_dress(group, w, p)
        if not d_hypo and q is None:
            continue
        witness = {
            "l": l,
            "rank": round(math.log(w.order, l)),  # |W| = l^rank
            "module_order": w.order,
            "complement_order": complement.order,
            "complement_is_hypo": d_hypo,
            "q": q,
            "shape": None,
            "_module": w,
            "_complement": complement,
        }
        # irreducible means W is a minimal normal subgroup
        if is_minimal_normal(group, w):
            witness["shape"] = "irreducible"
            return witness
        split = two_factor_decomposition(group, w, complement, l)
        if split is not None:
            q2, factor_orders = split
            if q is not None and q2 is not None and q2 != q:
                continue
            witness["shape"] = "two_factor"
            witness["factor_orders"] = factor_orders
            if witness["q"] is None:
                witness["q"] = q2
            return witness
    return None


def _nonabelian_socle_witness(group, p):
    """Case: a nonabelian minimal normal subgroup with trivial centralizer
    and a Dress quotient."""
    out = []
    table = enumerate_classes(group)
    for m in minimal_normal_subgroups(group):
        cls = table.classes[table.class_index_of(m)]
        if _generators_commute(group, cls.generators):
            continue
        if centralizer_indices(group, cls.generators).size != 1:
            continue
        d_hypo, q = quotient_dress(group, m, p)
        if not d_hypo and q is None:
            continue
        out.append(
            MainCaseMatch(
                tag="NonabelianSerre",
                witness={
                    "socle_order": m.order,
                    "quotient_order": group.order // m.order,
                    "quotient_is_hypo": d_hypo,
                    "q": q,
                },
            )
        )
    return out


def main_case_classify(group, p):
    """All structural shapes of the classification matched by this group.

    Returned tags: QuasiElementary, VectorSemidirect, NonabelianSerre,
    PPDress.  An empty list means no shape matched.  The list is memoised
    per group and lattice prime; callers must not mutate it.
    """
    _require_primes(p)
    return group.cached(("main_case", _lattice_prime(group, p)), lambda: _main_cases(group, p))


def _main_cases(group, p):
    matches = []
    matches.extend(_quasi_elementary_witness(group, p))
    vs = vector_semidirect_match(group, p)
    if vs is not None:
        witness = {k: v for k, v in vs.items() if not k.startswith("_")}
        matches.append(MainCaseMatch(tag="VectorSemidirect", witness=witness))
    matches.extend(_nonabelian_socle_witness(group, p))
    if is_pq_dress(group, p, p):
        matches.append(
            MainCaseMatch(
                tag="PPDress",
                witness={"core_order": p_core(group, p).order},
            )
        )
    return matches
