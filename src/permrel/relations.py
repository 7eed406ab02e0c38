"""Kernels of mark homomorphisms, their imprimitive sublattices, the
primitive quotient, structural predictions, and explicit generators.

Characteristic convention: a characteristic of 0 is handled through a
surrogate prime, the smallest prime not dividing the group order.  A
subquotient is hypo-elementary for such a prime exactly when it is
cyclic, so every lattice computed at the surrogate coincides with the
characteristic-0 one while letting all code paths take a single prime
argument.  Every prime not dividing the group order selects the cyclic
subquotients, as 0 does, so G's hypo-elementary classes, the kernel, the
imprimitive lattice with K/L's invariants, and ``prim``'s report are
kept in ``Group.cached``, the one cache, per lattice prime: the
characteristic when it divides the order, and 0 otherwise; the kernel
and the report are stamped with the characteristic asked for.  So are
``predict_prim``, ``main_case_classify`` and
``vector_semidirect_match``: p reaches ``classify`` only through
``quotient_p_core``, which returns N when p does not divide |G:N|, and
through comparisons with primes that divide |G|: p = l for the prime l
of a module W, p dividing |G| for the quasi-elementary case, and |G:M| a
power of p for the q-residual at q = p, which holds only at M = G.  Each
comes out the same for every p not dividing |G|, so every such p gives
the answers of any other.

The imprimitive lattice is spanned by Ind_H^G Inf_{H/N}^H of the kernel
of every proper subquotient H/N.  Induction and inflation are
transitive, and each maps a kernel into a kernel, since conjugates and
quotients of hypo-elementary groups stay hypo-elementary.  A proper H
lies in a conjugate of some maximal subgroup M, and Ind_H^G = Ind_M^G
Ind_H^M with Ind_H^M Inf_{H/N}^H landing in the kernel of M; for H = G a
nontrivial N contains a minimal normal N0, and Inf_{G/N}^G factors
through the kernel of G/N0.  So induction from the maximal subgroups
and inflation from G/N0 for minimal normal N0 span the whole lattice.

These subquotients are read off G's class table and marks; none is
built as a group.  The subgroups of G/N0 are the U/N0 with N0 <= U,
conjugate exactly when the U are conjugate in G, and N0 acts trivially
on G/U, so the marks of G/N0 are G's marks on the classes whose members
contain N0, and inflation sends each such class to itself.  The
subgroup classes of a maximal M are the M-orbits on G's subgroups
inside M.  The orbit of H has |M:N_M(H)| members, so the mark of K on
M/H is |N_M(H):H| = |M| / (|orbit| |H|) times the number of members of
the orbit that contain K, and induction sends an M-class to the G-class
of its members.  Being hypo-elementary is a property of the subgroup,
so an M-class is hypo-elementary exactly when its G-class is.  None of
this depends on the characteristic: each maximal view's class map and
table of marks are kept once per group, and a lattice prime only picks
the hypo-elementary positions from G's.  Every table of marks, G's and
each view's, counts a column only when a kernel, the certificate or
``verify_relation`` first reads it, and those read only the
hypo-elementary columns.

G is the view G/1 of ``brauer_kernel``, and ``quotient_kernel`` serves
every other G/N.  The int64 block of G/N is G's marks at the classes
over N, in the hypo-elementary rows only, and none when every class is
hypo-elementary; those come from one mask per (N, lattice prime), of
which only G's is kept.  A kernel stays ``_unit_kernel``'s ``UnitBasis``
record (P, N, W), which the certificate reads as it is; so do
``brauer_kernel``'s basis and, at free rank 0, the lattice L = K, and
their dense k x rank rows are built only when a caller reads them.  One
lattice computation solves each distinct block once, while each view and
quotient moves its own columns and passes its own M x = 0 check; G's
block, of a shape no other has, is solved with no memo.

One test serves every U/N, with o(u) the order of uN: U/N is
p-hypo-elementary exactly when its Sylow p-subgroup is normal, that is
holds all its p-elements, and some element has order |U/N|_p'.  In U
that reads #{u : o(u) a power of p} = |N| |U/N|_p and some o(u) =
|U/N|_p'.  A prime not dividing |U/N| selects the cyclic U/N, as the
subquotient's own effective prime would, so G's serves them all.

The primitive quotient K/L, for K the kernel of rank r and L the
imprimitive lattice, is read off a local certificate; x_G denotes the
coefficient of x at [G/G], which is its mark at G.  If G is
hypo-elementary, so is every subquotient, and K = L = 0.  Otherwise:

Lemma.  For every x in K, |G| x = x_G w modulo L, where w is in K and
has mark |G| at G and 0 at every other class.  Proof: for H <= G,
z_H = sum over U <= H of |U| mu(U, H) [H/U] has mark |H| at H and 0 at
every other subgroup of H (Gluck, Illinois J. Math. 25, 1981; Yoshida,
J. Algebra 80, 1983).  Take w = z_G, in K as G is not hypo-elementary.
For a proper H that is not hypo-elementary, z_H lies in the kernel of
H, so Ind_H^G z_H lies in L; its mark is |N_G(H)| on the class of H and
0 elsewhere.  Marks separate the elements of Q (x) B(G), and x in K has
mark 0 at every hypo-elementary class, so |G| x is the sum of x_G w and
of the |G| / |N_G(H)| phi_H(x) Ind_H^G z_H over the classes of proper H
that are not hypo-elementary, each an integer multiple of an element of
L (Dress, Math. Z. 110, 1969; tom Dieck, LNM 766, 1979).

Consequences.  Let t be the gcd of y_G over L, or any multiple of it.
Induced generators have y_G = 0, so only the inflated ones count.
- If t = 0, L lies in {x_G = 0} while w_G = |G|, so K/L has free rank
  1, and an x of finite order modulo L has x_G = 0, so |G| x is in L.
  Otherwise some y in L has y_G = t, so t w is in L and |G| t kills
  K/L.  Either way each torsion prime divides |G| t, or |G| if t = 0.
- If K's Hermite basis is the identity on r coordinates P, restriction
  to P maps K onto Z^r, so K/L (x) F_l has dimension r - rank_l(L|P),
  which exceeds the free rank f exactly when K/L has l-torsion.
- With no torsion, L = K when f = 0.  When f = 1, L lies in K0 = K and
  {x_G = 0}; K/K0 is Z, so K0/L, a subgroup of K/L = Z with quotient Z,
  is 0 and L = K0.  K's basis B has unit pivots on P, so B y has its
  first nonzero coordinate, y_j, at the j-th coordinate of P for the
  first j with y_j != 0: B carries the Hermite basis of ker(g), g being
  B's row at G, to that of K0.
A prime that shows torsion, or a kernel without a unit basis, takes the
exact route: the Hermite form of every generator (``hnf``) and the
Smith form of K/L (``quotient_invariants``).
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels as kernels
from .burnside import (
    BurnsideElement,
    MarksTable,
    element_from_subgroups,
    mark_vector,
    marks_table,
)
from .classify import (
    _lattice_prime,
    effective_prime,
    orders_modulo,
    p_core,
    quotient_dress,
    two_factor_decomposition,
    vector_semidirect_match,
)
from .constructions import (
    affine_group,
    frobenius_group,
)
from .errors import InputError, InternalCheckError
from .numtheory import (
    is_prime,
    p_part,
    prime_factors,
    xgcd,
)
from .subgroups import (
    Subgroup,
    conjugation_orbits,
    enumerate_classes,
    is_minimal_normal,
    minimal_normal_subgroups,
    normal_subgroups,
)
from .zlattice import (
    _CHECK_ENTRIES,
    _PRIME,
    IntMatrix,
    UnitBasis,
    _from_rows,
    _rank_reaches,
    hnf,
    kernel_basis,
    quotient_invariants,
)


@dataclass
class KernelBasis:
    group: object
    characteristic: int
    basis: UnitBasis | IntMatrix  # columns are kernel elements over the class basis
    hypo_classes: tuple  # class indices whose marks are constrained to zero

    @property
    def rank(self):
        return self.basis.cols

    def elements(self, table):
        return [BurnsideElement(table, col) for col in self.basis.columns()]


def _hypo_mask(table, normal, p, over):
    """Mask over the classes ``over`` over the normal N (from
    ``table.classes_over``) of those with U/N p-hypo-elementary, by the
    module docstring's test on each class's first member."""
    group = table.group
    orders, n = orders_modulo(group, normal), normal.order
    p_elements = kernels.value_mask(orders, lambda o: p_part(o, p) == o)
    rows = table.unpacked(np.searchsorted(table.class_of, over))
    sizes = np.array([table.classes[i].order // n for i in over], dtype=np.int64)  # |U/N|
    sylow = np.array([p_part(size, p) for size in sizes.tolist()], dtype=np.int64)
    return ((np.count_nonzero(rows & p_elements, axis=1) == n * sylow)
            & (rows & (orders == (sizes // sylow)[:, None])).any(axis=1))


def _own_hypo_mask(group, characteristic):
    """``_hypo_mask`` of G itself, G/1, over all of G's classes, kept per
    lattice prime."""
    def build():
        table = enumerate_classes(group)
        p = effective_prime(group, characteristic)
        return _hypo_mask(table, table.classes[0].representative, p, range(len(table.classes)))

    return group.cached(("hypo", _lattice_prime(group, characteristic)), build)


def hypo_class_indices(group, characteristic):
    """Positions of the p-hypo-elementary classes: ``_own_hypo_mask``'s."""
    return tuple(np.flatnonzero(_own_hypo_mask(group, characteristic)).tolist())


def _kernel_of(marks, hypo, over, solved):
    """``kernel_basis`` of the table of marks ``marks`` at the classes
    ``over``, transposed, in the rows of the hypo mask ``hypo``: the only
    columns it asks ``marks`` for.  Those rows are independent, as
    ``count_marks`` proved each column zero above a positive diagonal.
    With every class hypo-elementary the kernel is zero, and no column
    is read.  ``over`` increases, so when it holds every row of
    ``marks`` the columns are the block as they come."""
    k = len(over)
    if hypo.all():
        return UnitBasis(k, np.arange(0), np.arange(k), np.zeros((k, 0), dtype=np.int64))
    block = marks.columns(over[hypo])
    return kernel_basis((block[over] if k < len(block) else block).T, solved)


def quotient_kernel(table, normal, p, solved):
    """The kernel of G/N at the prime p for the normal N, read off G's
    class table ``table`` and marks, and the positions ``over`` of G's
    classes that contain N.  Class i of G/N holds U/N for the U in G's
    class over[i], and its marks are G's."""
    over = table.classes_over(normal)
    hypo = _hypo_mask(table, normal, p, over)
    return _kernel_of(marks_table(table.group, table), hypo, over, solved), over


def brauer_kernel(group, characteristic):
    """Lattice of Burnside elements whose marks vanish on every
    hypo-elementary class.

    The marks at the hypo-elementary classes R of the [G/H] with H in R
    form an upper triangular block with diagonal |N_G(H):H|, so the
    kernel, from ``kernel_basis``, has rank the number of
    non-hypo-elementary classes; a mismatch raises InternalCheckError.
    It is zero without any echelon when every class is
    hypo-elementary.
    """
    def build():
        hypo = _own_hypo_mask(group, characteristic)
        found = _kernel_of(marks_table(group), hypo, np.arange(len(hypo)), None)
        return KernelBasis(group, characteristic, found, hypo_class_indices(group, characteristic))

    key = ("brauer_kernel", _lattice_prime(group, characteristic))
    return replace(group.cached(key, build), characteristic=characteristic)


def _check_group(group, element):
    if element.table.group is not group:
        raise InputError("element belongs to the Burnside ring of another group")


def verify_relation(group, characteristic, element):
    """True when the element's marks vanish on every hypo-elementary class."""
    _check_group(group, element)
    return not any(mark_vector(element, hypo_class_indices(group, characteristic)))


def maximal_view(table, cls):
    """The representative M of the class ``cls`` as a view of G's class
    table ``table``: the G-class of each M-class, as an int32 array, the
    table of marks of M, a ``MarksTable`` counted on G's rows inside M,
    and the index array of each M-class representative.

    The M-classes are the M-orbits on G's subgroups inside M, merged
    along ``cls.generators``; each has the order of its G-class.  The
    classes are sorted by order, so the hypo-elementary block of the
    marks stays upper triangular.
    """
    sub = cls.representative
    rows, label = conjugation_orbits(table, sub, cls.generators)
    roots, orbit_of = np.unique(label, return_inverse=True)
    sizes = np.bincount(orbit_of)
    class_map = table.class_of[rows[roots]]
    orders = np.array([table.classes[i].order for i in class_map.tolist()], dtype=np.int64)
    ranked = np.argsort(orders, kind="stable")
    position = np.empty_like(ranked)
    position[ranked] = np.arange(ranked.size)
    sizes, orders, roots = sizes[ranked], orders[ranked], roots[ranked]
    weights, rem = np.divmod(sub.order, sizes * orders)
    if rem.any():
        raise InternalCheckError("an M-orbit does not divide |M| by its order")
    reps = [sub.indices[np.flatnonzero(row)] for row in table.unpacked(rows[roots], sub.indices)]
    marks = MarksTable(table, reps, weights, sub.order // orders, rows, position[orbit_of])
    return class_map[ranked].astype(np.int32), marks, reps


def _maximal_views(table):
    """(class_map, marks) of the view of each maximal class, kept once
    per group, each table of marks holding the columns read so far."""
    return table.group.cached("maximal_views", lambda: [
        maximal_view(table, table.classes[i])[:2] for i in table.maximal_classes()
    ])


def _view_kernels(table, hypo, solved):
    """(kernel, class_map) of each maximal view, for G's hypo-elementary
    mask ``hypo``."""
    for class_map, marks in _maximal_views(table):
        yield _kernel_of(marks, hypo[class_map], np.arange(len(class_map)), solved), class_map


def _certified_lattice(table, kernel, hypo, quotients, views, seen):
    """(free rank, torsion, Hermite basis of L) by the certificate of the
    module docstring, or None when a prime shows torsion or the certificate
    does not apply, as to a kernel K that is not a ``UnitBasis``.  It
    takes the generators from the kernels of ``quotients`` until t != 0,
    then from those of ``views``, then from the other quotients, and
    stops once every rank is complete; each kernel it takes goes to
    ``seen``."""
    group = table.group
    k, r = kernel.rows, kernel.cols
    if r == 0:
        return 0, (), kernel
    if not isinstance(kernel, UnitBasis):
        return None
    slot = np.full(k, r)  # each class's position in P, or r
    slot[kernel.free] = np.arange(r)
    marks = marks_table(group, table).columns(np.flatnonzero(hypo))

    def generators(found, class_map):
        # the columns moved to G, checked to satisfy M x = 0, restricted
        # to P, one per row; marks are at most |G| and |W| at most Q/2
        seen.append((found, class_map))
        if not isinstance(found, UnitBasis) or len(class_map) * group.order * _PRIME >= 2**63:
            return None
        at_p, at_n, w = class_map[found.free], class_map[found.pivots], found.w
        step = max(1, _CHECK_ENTRIES // (w.size or 1))  # hypo columns per product
        for h in range(0, marks.shape[1], step):
            product = (marks[at_n, h:h + step, None] * w[:, None, :]).sum(axis=0)
            if (product + marks[at_p, h:h + step].T).any():
                raise InternalCheckError("an imprimitive generator is not in the kernel")
        moved = np.zeros((r + 1, w.shape[1]), dtype=np.int64)
        np.add.at(moved, slot[at_n], w)
        moved[slot[at_p], np.arange(w.shape[1])] += 1
        return moved[:r].T

    first, t = [], 0
    for found, over in quotients:
        first.append(generators(found, over))
        if first[-1] is None:
            return None
        t = math.gcd(t, *found.row(len(over) - 1))  # at G, over's last
        if t:
            break
    free_rank = 0 if t else 1
    target = r - free_rank
    rest = itertools.starmap(generators, itertools.chain(views, quotients))
    blocks = itertools.chain(first, rest)
    pivots = {ell: {} for ell in prime_factors(group.order * (t or 1))}
    primes = list(pivots) if target else []
    while primes:
        rows = next(blocks, None)
        if rows is None:
            return None
        primes = [ell for ell in primes if not _rank_reaches(ell, rows, pivots[ell], target)]
    if not free_rank:
        return 0, (), kernel
    # K's basis times H, the Hermite basis of ker(g): H's row j at P[j],
    # and W[i] H at N[i]
    h = kernel_basis(np.array([kernel.row(k - 1)], dtype=np.int64))
    data = [None] * k
    for p, row in zip(kernel.free.tolist(), h.data):
        data[p] = row
    sparse = [[(j, c) for j, c in enumerate(col) if c] for col in h.columns()]
    for n, w in zip(kernel.pivots.tolist(), kernel.w.tolist()):
        data[n] = [sum(w[j] * c for j, c in col) for col in sparse]
    return 1, (), _from_rows(data, r - 1)


def _lattice_by_hnf(k, kernels):
    """The Hermite basis of the columns of ``kernels``, moved to G's k
    classes by their class maps."""
    columns = []
    for found, class_map in kernels:
        for col in found.columns():
            out = [0] * k
            for t, c in enumerate(col):
                if c:
                    out[class_map[t]] += c
            columns.append(tuple(out))
    # the HNF is canonical, so duplicate and zero columns only cost time
    columns = sorted(set(columns) - {(0,) * k})
    stacked = _from_rows([[c[i] for c in columns] for i in range(k)], len(columns))
    reduced, _ = hnf(stacked)
    rank = sum(any(col) for col in zip(*reduced.data))  # zero columns trail
    return _from_rows([row[:rank] for row in reduced.data], rank)


def imprimitive_lattice(group, characteristic):
    """Lattice spanned by all induced-inflated kernels of proper
    subquotients, as a Hermite-reduced column matrix over the class
    basis of the group.

    Only the maximal subgroups and the quotients by minimal normal
    subgroups are visited, each as a view of the group's own class
    table and marks; the module docstring says why that suffices, and
    how the certificate finds the lattice.
    """
    return _imprimitive(group, characteristic)[2]


def _imprimitive(group, characteristic):
    """(free rank, torsion, L), kept per lattice prime: the certificate's
    invariants of K/L, or, after the exact route, those of
    ``quotient_invariants``."""
    def build():
        p = effective_prime(group, characteristic)
        table = enumerate_classes(group)
        kernel = brauer_kernel(group, characteristic).basis
        hypo = _own_hypo_mask(group, characteristic)
        solved = {}
        quotients = (quotient_kernel(table, n, p, solved) for n in minimal_normal_subgroups(group))
        views, seen = _view_kernels(table, hypo, solved), []
        certified = _certified_lattice(table, kernel, hypo, quotients, views, seen)
        if certified is None:
            lattice = _lattice_by_hnf(len(table.classes), itertools.chain(seen, views, quotients))
            certified = *quotient_invariants(kernel, lattice), lattice
        return certified

    return group.cached(("imprimitive", _lattice_prime(group, characteristic)), build)


@dataclass
class Prediction:
    # Hypo, Thm2.9a, Thm2.9b, Thm2.9c, Thm3.2, ThmMainB or NotCovered
    source: str
    free_rank: int = None
    torsion: tuple = None

    @property
    def covered(self):
        return self.source != "NotCovered"


def predict_prim(group, characteristic):
    """Structure of the primitive quotient predicted from group shape.

    The prediction ladder, in order: hypo-elementary groups have a zero
    kernel; groups that are Dress for no prime fall under the proper
    quotient trichotomy; Dress groups with nontrivial p-core and q != p
    have trivial primitive quotient; groups of the faithful module
    semidirect shape get Z or Z/q depending on the complement; anything
    else is NotCovered.  Every rung reads G's class table; no quotient
    or complement is built as a group.  The prediction is memoised per
    lattice prime.
    """
    return group.cached(("prediction", _lattice_prime(group, characteristic)),
                        lambda: _predict(group, effective_prime(group, characteristic)))


def _predict(group, p):
    hypo, q = quotient_dress(group, Subgroup.trivial(group), p)
    if hypo:
        return Prediction(source="Hypo", free_rank=0, torsion=())
    if q is None:
        return _quotient_trichotomy(group, p)
    if q != p and not p_core(group, p).is_trivial():
        return Prediction(source="Thm3.2", free_rank=0, torsion=())
    witness = vector_semidirect_match(group, p)
    if witness is not None:
        if witness["complement_is_hypo"]:
            return Prediction(source="ThmMainB", free_rank=1, torsion=())
        return Prediction(
            source="ThmMainB", free_rank=0, torsion=(witness["q"],)
        )
    return Prediction(source="NotCovered")


def _quotient_trichotomy(group, p):
    """Prediction for groups that are (p,q)-Dress for no prime q, read
    off the proper quotients G/N, each asked of G's normal subgroups over
    N: all hypo gives Z; a unique prime q with every quotient (p,q)-Dress
    and at least one non-hypo gives Z/q; anything else gives zero."""
    non_hypo_primes = set()
    for n_sub in normal_subgroups(group):
        if n_sub.order == 1:
            continue
        hypo, q = quotient_dress(group, n_sub, p)
        if hypo:
            continue
        if q is None:
            return Prediction(source="Thm2.9c", free_rank=0, torsion=())
        non_hypo_primes.add(q)
    if not non_hypo_primes:
        return Prediction(source="Thm2.9a", free_rank=1, torsion=())
    if len(non_hypo_primes) == 1:
        q = non_hypo_primes.pop()
        return Prediction(source="Thm2.9b", free_rank=0, torsion=(q,))
    return Prediction(source="Thm2.9c", free_rank=0, torsion=())


@dataclass
class PrimReport:
    group: object
    characteristic: int
    kernel: KernelBasis
    imprimitive: UnitBasis | IntMatrix  # K's own UnitBasis when L = K
    free_rank: int
    torsion: tuple
    generator: object  # BurnsideElement or None
    prediction: Prediction


def _extract_generator(table, kernel):
    """A kernel element with coefficient +1 at the class of the whole
    group, when one exists.

    Preference order: the Hermite basis column whose last coordinate is
    a unit and whose entry list, times that unit, is lexicographically
    least; otherwise an extended-gcd combination of basis columns when
    the last coordinates are coprime; otherwise None.  The other rows
    are read only when those coordinates are coprime.
    """
    basis = kernel.basis
    at_g = basis.row(basis.rows - 1)
    if not basis.cols or math.gcd(*at_g) != 1:
        return None
    data = basis.data
    # the unit columns, each times its unit, filtered row by row to the least
    units = [j for j, c in enumerate(at_g) if c == 1 or c == -1]
    for row in data:
        if len(units) < 2:
            break
        signed = [row[j] * at_g[j] for j in units]
        least = min(signed)
        units = [j for j, v in zip(units, signed) if v == least]
    if units:
        j = units[0]
        return BurnsideElement(table, [at_g[j] * row[j] for row in data])
    g, coeffs = 0, {}  # the coefficient of each basis column
    for j, c in enumerate(at_g):
        if c:
            g, x, y = xgcd(g, c)
            coeffs = {i: x * a for i, a in coeffs.items()}
            coeffs[j] = y
            if g == 1:
                break
    combo = [sum(a * row[j] for j, a in coeffs.items()) for row in data]
    if combo[-1] != 1:
        raise InternalCheckError("generator extraction lost the unit coefficient")
    return BurnsideElement(table, combo)


def prim(group, characteristic):
    """The primitive quotient: kernel modulo the imprimitive sublattice.

    Its invariants are those kept with the imprimitive lattice.  When
    the structural prediction covers the group, the computed invariants
    must match it exactly; disagreement raises InternalCheckError.  The
    report is kept per lattice prime, as the kernel is, and stamped with
    the characteristic asked for.
    """
    def build():
        kernel = brauer_kernel(group, characteristic)
        imprim = imprimitive_lattice(group, characteristic)
        free_rank, torsion, _ = _imprimitive(group, characteristic)
        prediction = predict_prim(group, characteristic)
        predicted = prediction.free_rank, prediction.torsion
        if prediction.covered and (free_rank, torsion) != predicted:
            raise InternalCheckError(
                "computed primitive quotient (rank %d, torsion %r) disagrees "
                "with the %s prediction (rank %d, torsion %r)"
                % (free_rank, torsion, prediction.source, *predicted)
            )
        return PrimReport(
            group=group,
            characteristic=characteristic,
            kernel=kernel,
            imprimitive=imprim,
            free_rank=free_rank,
            torsion=torsion,
            generator=_extract_generator(enumerate_classes(group), kernel),
            prediction=prediction,
        )

    report = group.cached(("prim", _lattice_prime(group, characteristic)), build)
    return replace(report, characteristic=characteristic,
                   kernel=replace(report.kernel, characteristic=characteristic))


def _power_indices(group, base_index, exponent):
    mult = group.mult
    acc = 0
    for _ in range(exponent):
        acc = int(mult[acc, base_index])
    return acc


def _validate_theta_characteristic(l, characteristic):
    if characteristic == l:
        raise InputError(
            "the relation requires a characteristic different from %d" % l
        )
    if characteristic != 0 and not is_prime(characteristic):
        raise InputError("characteristic must be 0 or a prime number")


def _verified_relation(group, characteristic, pairs):
    """The element sum c [G/H] over the (H, c) ``pairs``, verified to lie
    in the kernel."""
    element = element_from_subgroups(enumerate_classes(group), pairs)
    if not verify_relation(group, characteristic, element):
        raise InternalCheckError("constructed relation has nonzero hypo marks")
    return element


def _frobenius_relation(l, order, characteristic, terms):
    """The verified sum over the (e, c, with_t) ``terms`` of c [G/<s^e>],
    or c [G/<t, s^e>] when with_t, in G = C_l x| C_order = <t, s> with t
    the translation and s the multiplication."""
    _validate_theta_characteristic(l, characteristic)
    group = frobenius_group(l, order)
    t_idx, s_idx = map(group.index, group.generators)
    pairs = []
    for e, c, with_t in terms:
        power = _power_indices(group, s_idx, e)
        pairs.append((Subgroup.generated(group, [t_idx, power] if with_t else [power]), c))
    return _verified_relation(group, characteristic, pairs)


def theta_mn(l, m, n, alpha, beta, characteristic):
    """Generator relation for C_l x| C_mn with m, n coprime and > 1.

    The element is G - C + alpha(C_n - C_l x| C_n) + beta(C_m - C_l x| C_m)
    for any alpha, beta with alpha*m + beta*n = 1; it is verified to lie
    in the kernel before being returned.
    """
    if m <= 1 or n <= 1:
        raise InputError("m and n must both exceed 1")
    if math.gcd(m, n) != 1:
        raise InputError("m and n must be coprime")
    if alpha * m + beta * n != 1:
        raise InputError("alpha*m + beta*n must equal 1")
    return _frobenius_relation(l, m * n, characteristic, [
        (1, 1, True), (1, -1, False),
        (m, alpha, False), (m, -alpha, True),
        (n, beta, False), (n, -beta, True),
    ])


def theta_qk(l, q, k, characteristic):
    """Generator relation for C_l x| C_{q^(k+1)} with q prime.

    The element is C_{q^k} - q*C - (C_l x| C_{q^k}) + q*G, verified to
    lie in the kernel before being returned.
    """
    if not is_prime(q):
        raise InputError("q must be prime")
    if k < 0:
        raise InputError("k must be nonnegative")
    return _frobenius_relation(l, q ** (k + 1), characteristic, [
        (q, 1, False), (1, -q, False), (q, -1, True), (1, q, True),
    ])


def theta_highdim(l, matrices, characteristic):
    """Generator relation for (C_l)^d x| D with d >= 2.

    D is the matrix group generated by ``matrices`` acting on l^d
    points; it must act irreducibly, or split as two faithful
    prime-power factors on two invariant lines.  d is read off the
    matrices; with none, D is trivial and d = 2, the only rank at which
    a trivial D splits as two lines.  The returned element is
    G - D + sum over hyperplane classes U of (U N_D(U) - W N_D(U)),
    verified to lie in the kernel.

    The hyperplanes are the subgroups of index l in the module W, and
    their classes are read off G's class table.  G = W D and W is
    abelian, so W fixes every subgroup of W under conjugation and the
    G-classes of index-l subgroups of W are exactly the D-orbits of
    hyperplanes.  N_D(U) is the part of U's normalizer that lies in D.
    """
    matrices = [list(map(list, m)) for m in matrices]
    d = len(matrices[0]) if matrices else 2
    if d < 2:
        raise InputError("the high rank relation needs rank d >= 2")
    _validate_theta_characteristic(l, characteristic)
    group, module, stabilizer = affine_group(l, d, matrices)
    p = effective_prime(group, characteristic)
    # D is isomorphic to G/W, so its questions are asked of G/W
    d_hypo, q = quotient_dress(group, module, p)
    if not d_hypo and q is None:
        raise InputError("the stabilizer is not a Dress group for any prime")
    if not is_minimal_normal(group, module):
        if two_factor_decomposition(group, module, stabilizer, l) is None:
            raise InputError(
                "the module is neither irreducible nor a product of two lines"
            )
    table = enumerate_classes(group)
    mult = group.mult
    pairs = [(Subgroup.full(group), 1), (stabilizer, -1)]
    for cls in table.classes:
        hyperplane = cls.representative
        if cls.order * l != module.order or not module.contains_subgroup(hyperplane):
            continue
        norm_in_stab = stabilizer.indices[cls.normalizer.mask[stabilizer.indices]]
        un = kernels.sorted_unique(mult[np.ix_(hyperplane.indices, norm_in_stab)])
        wn = kernels.sorted_unique(mult[np.ix_(module.indices, norm_in_stab)])
        if len(un) != hyperplane.order * len(norm_in_stab):
            raise InternalCheckError("hyperplane product set is not split")
        if len(wn) != module.order * len(norm_in_stab):
            raise InternalCheckError("module product set is not split")
        pairs.append((Subgroup(group, un), 1))
        pairs.append((Subgroup(group, wn), -1))
    return _verified_relation(group, characteristic, pairs)


def generates_quotient(group, characteristic, element):
    """True when the element together with the imprimitive lattice spans
    the whole kernel, i.e. its residue generates the primitive quotient.

    Without torsion K/L is read off ``prim``'s free rank, as the module
    docstring shows: L = K when it is 0, so every x in K generates, and
    L = K and {x_G = 0} when it is 1, so x generates exactly when x_G
    generates K's coordinates at G.  With torsion, or for x outside K,
    the quotient invariants of L + Zx decide (and reject an x outside K).
    """
    _check_group(group, element)
    report = prim(group, characteristic)
    kernel, imprim = report.kernel.basis, report.imprimitive
    x = list(element.coeffs)
    if not report.torsion and verify_relation(group, characteristic, element):
        return not report.free_rank or abs(x[-1]) == math.gcd(*kernel.row(kernel.rows - 1))
    stacked = _from_rows([row + [v] for row, v in zip(imprim.data, x)], imprim.cols + 1)
    free_rank, torsion = quotient_invariants(kernel, stacked)
    return free_rank == 0 and not torsion
