"""Kernels of mark homomorphisms, their imprimitive sublattices, the
primitive quotient, structural predictions, and explicit generators.

Characteristic convention: a characteristic of 0 is handled through a
surrogate prime, the smallest prime not dividing the group order.  A
subquotient is hypo-elementary for such a prime exactly when it is
cyclic, so every lattice computed at the surrogate coincides with the
characteristic-0 one while letting all code paths take a single prime
argument.

The imprimitive lattice is spanned by Ind_H^G Inf_{H/N}^H of the kernel
of every proper subquotient H/N.  Induction and inflation are
transitive, and each maps a kernel into a kernel, since conjugates and
quotients of hypo-elementary groups stay hypo-elementary.  A proper H
lies in a conjugate of some maximal subgroup M, and Ind_H^G = Ind_M^G
Ind_H^M with Ind_H^M Inf_{H/N}^H landing in the kernel of M; for H = G a
nontrivial N contains a minimal normal N0, and Inf_{G/N}^G factors
through the kernel of G/N0.  So induction from the maximal subgroups
and inflation from G/N0 for minimal normal N0 span the whole lattice.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .burnside import (
    BurnsideElement,
    element_from_subgroups,
    induct,
    inflate,
    mark_vector,
    marks_table,
)
from .classify import (
    dress_primes,
    is_p_hypo_elementary,
    p_core,
    subgroup_is_p_hypo_elementary,
    two_factor_decomposition,
    vector_semidirect_match,
)
from .constructions import (
    affine_group,
    all_nonzero_functionals,
    decode_vector,
    frobenius_group,
)
from .errors import InputError, InternalCheckError
from .numtheory import (
    element_of_order,
    is_prime,
    smallest_prime_not_dividing,
    xgcd,
)
from .perm import Permutation
from .subgroups import (
    Subgroup,
    enumerate_classes,
    is_minimal_normal,
    normal_subgroups,
    quotient,
    subgroup_as_group,
)
from .zlattice import (
    IntMatrix,
    hnf,
    hstack,
    quotient_invariants,
    triangular_kernel,
)

PREDICTION_SOURCES = (
    "Hypo",
    "Thm2.9a",
    "Thm2.9b",
    "Thm2.9c",
    "Thm3.2",
    "ThmMainB",
    "NotCovered",
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


@dataclass
class KernelBasis:
    group: object
    characteristic: int
    basis: IntMatrix  # columns are kernel elements over the class basis
    hypo_classes: tuple  # class indices whose marks are constrained to zero

    @property
    def rank(self):
        return self.basis.cols

    def elements(self, table):
        return [BurnsideElement(table, col) for col in self.basis.columns()]


def hypo_class_indices(group, characteristic):
    table = enumerate_classes(group)
    p = effective_prime(group, characteristic)
    out = []
    for i, cls in enumerate(table.classes):
        if subgroup_is_p_hypo_elementary(cls.representative, p):
            out.append(i)
    return tuple(out)


def brauer_kernel(group, characteristic):
    """Lattice of Burnside elements whose marks vanish on every
    hypo-elementary class.

    The marks at the hypo-elementary classes R of the [G/H] with H in R
    form an upper triangular block A with diagonal |N_G(H):H|.  R is
    closed under subgroups, so A^-1 is a block of the inverse table of
    marks and |G| A^-1 is integral: the kernel comes from
    ``triangular_kernel`` modulo |G|, and is zero without any echelon
    when every class is hypo-elementary.  The rank must equal the number
    of non-hypo-elementary classes; a mismatch raises InternalCheckError.
    """
    cached = group._memo.get(("brauer_kernel", characteristic))
    if cached is not None:
        return cached
    table = enumerate_classes(group)
    marks = marks_table(group, table)
    hypo = hypo_class_indices(group, characteristic)
    k = len(table.classes)
    rows = [[marks.m[h][u] for h in range(k)] for u in hypo]
    basis = triangular_kernel(IntMatrix(rows, cols=k), hypo, group.order)
    if basis.cols != k - len(hypo):
        raise InternalCheckError(
            "kernel rank %d differs from the non-hypo class count %d"
            % (basis.cols, k - len(hypo))
        )
    result = KernelBasis(
        group=group,
        characteristic=characteristic,
        basis=basis,
        hypo_classes=hypo,
    )
    group._memo[("brauer_kernel", characteristic)] = result
    return result


def verify_relation(group, characteristic, element):
    """True when the element's marks vanish on every hypo-elementary class."""
    hypo = hypo_class_indices(group, characteristic)
    marks = mark_vector(element)
    return all(marks[i] == 0 for i in hypo)


def imprimitive_lattice(group, characteristic):
    """Lattice spanned by all induced-inflated kernels of proper
    subquotients, as a Hermite-reduced column matrix over the class
    basis of the group.

    Only the maximal subgroups and the quotients by minimal normal
    subgroups are visited; the module docstring says why that suffices.
    """
    cached = group._memo.get(("imprimitive", characteristic))
    if cached is not None:
        return cached
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
    matrix = IntMatrix.from_columns(columns, rows=k)
    reduced, _ = hnf(matrix)
    kept = [
        reduced.column(j)
        for j in range(reduced.cols)
        if any(reduced.column(j))
    ]
    result = IntMatrix.from_columns(kept, rows=k)
    group._memo[("imprimitive", characteristic)] = result
    return result


@dataclass
class Prediction:
    source: str  # one of PREDICTION_SOURCES
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
    else is NotCovered.
    """
    p = effective_prime(group, characteristic)
    if is_p_hypo_elementary(group, p):
        return Prediction(source="Hypo", free_rank=0, torsion=())
    qs = dress_primes(group, p)
    if not qs:
        return _quotient_trichotomy(group, p)
    q = qs[0]
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
    off the proper quotients: all hypo gives Z; a unique prime q with
    every quotient (p,q)-Dress and at least one non-hypo gives Z/q;
    anything else collapses the quotient to zero."""
    non_hypo_primes = set()
    for n_sub in normal_subgroups(group):
        if n_sub.order == 1:
            continue
        q_group = quotient(group, n_sub).group
        if is_p_hypo_elementary(q_group, p):
            continue
        found = dress_primes(q_group, p)
        if not found:
            return Prediction(source="Thm2.9c", free_rank=0, torsion=())
        non_hypo_primes.add(found[0])
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
    imprimitive: IntMatrix
    free_rank: int
    torsion: tuple
    generator: object  # BurnsideElement or None
    prediction: Prediction


def _extract_generator(table, kernel):
    """A kernel element with coefficient +1 at the class of the whole
    group, when one exists.

    Preference order: the Hermite basis column whose last coordinate is
    a unit and whose entry list is lexicographically least; otherwise an
    extended-gcd combination of basis columns when the last coordinates
    are coprime; otherwise None.
    """
    basis = kernel.basis
    if basis.cols == 0:
        return None
    last = basis.rows - 1
    candidates = []
    for j in range(basis.cols):
        col = basis.column(j)
        if abs(col[last]) == 1:
            if col[last] == -1:
                col = [-v for v in col]
            candidates.append(col)
    if candidates:
        winner = min(candidates)
        return BurnsideElement(table, winner)
    cols = basis.columns()
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


def prim(group, characteristic):
    """The primitive quotient: kernel modulo the imprimitive sublattice.

    When the structural prediction covers the group, the computed
    invariants must match it exactly; disagreement raises
    InternalCheckError.
    """
    cached = group._memo.get(("prim", characteristic))
    if cached is not None:
        return cached
    table = enumerate_classes(group)
    kernel = brauer_kernel(group, characteristic)
    imprim = imprimitive_lattice(group, characteristic)
    free_rank, torsion = quotient_invariants(kernel.basis, imprim)
    generator = _extract_generator(table, kernel)
    prediction = predict_prim(group, characteristic)
    if prediction.covered:
        if (free_rank, tuple(torsion)) != (
            prediction.free_rank,
            tuple(prediction.torsion),
        ):
            raise InternalCheckError(
                "computed primitive quotient (rank %d, torsion %r) disagrees "
                "with the %s prediction (rank %d, torsion %r)"
                % (
                    free_rank,
                    tuple(torsion),
                    prediction.source,
                    prediction.free_rank,
                    tuple(prediction.torsion),
                )
            )
    report = PrimReport(
        group=group,
        characteristic=characteristic,
        kernel=kernel,
        imprimitive=imprim,
        free_rank=free_rank,
        torsion=tuple(torsion),
        generator=generator,
        prediction=prediction,
    )
    group._memo[("prim", characteristic)] = report
    return report


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


def theta_mn(l, m, n, alpha, beta, characteristic, multiplier=None):
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
    _validate_theta_characteristic(l, characteristic)
    group = frobenius_group(l, m * n, multiplier=multiplier)
    table = enumerate_classes(group)
    t_idx = group.index(_translation_perm(group, l))
    s_idx = group.index(_scaling_perm(group, l, m * n, multiplier))
    c_full = Subgroup.generated(group, [s_idx])
    c_n = Subgroup.generated(group, [_power_indices(group, s_idx, m)])
    c_m = Subgroup.generated(group, [_power_indices(group, s_idx, n)])
    ln_part = Subgroup.generated(group, [t_idx, _power_indices(group, s_idx, m)])
    lm_part = Subgroup.generated(group, [t_idx, _power_indices(group, s_idx, n)])
    element = element_from_subgroups(
        table,
        [
            (Subgroup.full(group), 1),
            (c_full, -1),
            (c_n, alpha),
            (ln_part, -alpha),
            (c_m, beta),
            (lm_part, -beta),
        ],
    )
    if not verify_relation(group, characteristic, element):
        raise InternalCheckError("constructed relation has nonzero hypo marks")
    return element


def theta_qk(l, q, k, characteristic, multiplier=None):
    """Generator relation for C_l x| C_{q^(k+1)} with q prime.

    The element is C_{q^k} - q*C - (C_l x| C_{q^k}) + q*G, verified to
    lie in the kernel before being returned.
    """
    if not is_prime(q):
        raise InputError("q must be prime")
    if k < 0:
        raise InputError("k must be nonnegative")
    _validate_theta_characteristic(l, characteristic)
    order = q ** (k + 1)
    group = frobenius_group(l, order, multiplier=multiplier)
    table = enumerate_classes(group)
    t_idx = group.index(_translation_perm(group, l))
    s_idx = group.index(_scaling_perm(group, l, order, multiplier))
    c_small = Subgroup.generated(group, [_power_indices(group, s_idx, q)])
    c_big = Subgroup.generated(group, [s_idx])
    ln_small = Subgroup.generated(group, [t_idx, _power_indices(group, s_idx, q)])
    element = element_from_subgroups(
        table,
        [
            (c_small, 1),
            (c_big, -q),
            (ln_small, -1),
            (Subgroup.full(group), q),
        ],
    )
    if not verify_relation(group, characteristic, element):
        raise InternalCheckError("constructed relation has nonzero hypo marks")
    return element


def _translation_perm(group, l):
    return Permutation([(x + 1) % l for x in range(l)])


def _scaling_perm(group, l, order, multiplier):
    a = multiplier if multiplier is not None else element_of_order(order, l)
    if a is None:
        raise InputError("no unit of order %d modulo %d" % (order, l))
    return Permutation([x * a % l for x in range(l)])


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
    """Orbits of the projective functionals under the dual action of the
    matrix group generated by ``matrices``."""
    inverses = [_gf_mat_inverse(m, l) for m in matrices]
    all_reps = all_nonzero_functionals(l, d)
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


def theta_highdim(l, matrices, characteristic):
    """Generator relation for (C_l)^d x| D with d >= 2.

    D is the matrix group generated by ``matrices`` acting on l^d
    points; it must act irreducibly, or split as two faithful
    prime-power factors on two invariant lines.  The returned element is
    G - D + sum over hyperplane classes U of (U N_D(U) - W N_D(U)),
    verified to lie in the kernel.
    """
    matrices = [list(map(list, m)) for m in matrices]
    d = len(matrices[0]) if matrices else 2
    if d < 2:
        raise InputError("the high rank relation needs rank d >= 2")
    _validate_theta_characteristic(l, characteristic)
    group, module, stabilizer = affine_group(l, d, matrices)
    p = effective_prime(group, characteristic)
    if is_p_hypo_elementary(subgroup_as_group(stabilizer), p):
        pass  # Dress for every prime
    else:
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
        norm = kernels.normalizer_members(mult, group.inv, hyperplane.indices)
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


def generates_quotient(group, characteristic, element):
    """True when the element together with the imprimitive lattice spans
    the whole kernel, i.e. its residue generates the primitive quotient."""
    kernel = brauer_kernel(group, characteristic)
    imprim = imprimitive_lattice(group, characteristic)
    column = IntMatrix.from_columns([list(element.coeffs)])
    free_rank, torsion = quotient_invariants(kernel.basis, hstack(imprim, column))
    return free_rank == 0 and not torsion
