"""Acceptance gate: eleven exact criteria, one PASS/FAIL line each.

Every check is an exact integer identity; there are no tolerances
anywhere.  Run with -s to see the per-criterion lines.
"""

import time

import numpy as np

from permrel.burnside import BurnsideElement, mark_vector, multiply
from permrel.classify import main_case_classify, subgroup_is_cyclic
from permrel.constructions import affine_group, frobenius_group
from permrel.presets import CORPUS_CHARACTERISTICS, CORPUS_NAMES, preset_group
from permrel.relations import (
    brauer_kernel,
    effective_prime,
    generates_quotient,
    imprimitive_lattice,
    prim,
    theta_highdim,
    theta_mn,
    verify_relation,
)
from permrel.subgroups import Subgroup, enumerate_classes, subgroup_as_group

from oracles import lattice_contains, matrix_of_stabilizer_element, subgroups_of

GROUPS = {name: preset_group(name) for name in CORPUS_NAMES}
SMALL24 = [name for name in CORPUS_NAMES if GROUPS[name].order <= 24]


def _report(number, description, check):
    try:
        check()
    except BaseException:
        print("criterion %02d: FAIL - %s" % (number, description))
        raise
    print("criterion %02d: PASS - %s" % (number, description))


def test_criterion_01_rank_law():
    def check():
        start = time.monotonic()
        for name in CORPUS_NAMES:
            group = GROUPS[name]
            table = enumerate_classes(group)
            for char in CORPUS_CHARACTERISTICS:
                if char == 0:
                    non_hypo = sum(
                        1 for cls in table.classes
                        if not subgroup_is_cyclic(cls.representative)
                    )
                else:
                    hypo = brauer_kernel(group, char).hypo_classes
                    non_hypo = len(table.classes) - len(hypo)
                rank = brauer_kernel(group, char).rank
                assert rank == non_hypo, (name, char, rank, non_hypo)
                print("  rank law %s char %d: rank %d == non-hypo %d"
                      % (name, char, rank, non_hypo))
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, elapsed

    _report(1, "kernel rank equals the non-hypo-elementary class count "
               "on the whole corpus", check)


def test_criterion_02_s3_basis():
    def check():
        group = GROUPS["S3"]
        kernel = brauer_kernel(group, 5)
        assert kernel.rank == 1
        assert kernel.basis.columns()[0] == [1, -2, -1, 2]
        table = enumerate_classes(group)
        element = BurnsideElement(table, [1, -2, -1, 2])
        report = prim(group, 5)
        assert (report.free_rank, report.torsion) == (1, ())
        assert generates_quotient(group, 5, element)

    _report(2, "S3 at characteristic 5 has basis 1 - 2*C2 - C3 + 2*S3 "
               "generating a free rank one quotient", check)


def test_criterion_03_a4():
    def check():
        start = time.monotonic()
        group = GROUPS["A4"]
        assert brauer_kernel(group, 2).rank == 0
        table = enumerate_classes(group)
        # classes in order: 1, C2, C3, V4, A4
        target = BurnsideElement(table, [0, 1, -1, -1, 1])
        for char in (3, 5, 7):
            report = prim(group, char)
            assert (report.free_rank, report.torsion) == (1, ())
            assert report.generator is not None
            diff = report.generator - target
            assert lattice_contains(
                imprimitive_lattice(group, char), list(diff.coeffs)
            )
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, elapsed

    _report(3, "A4 kernel vanishes at characteristic 2 and otherwise "
               "gives Z generated by A4 - C3 + C2 - V4", check)


def test_criterion_04_s4():
    def check():
        start = time.monotonic()
        report = prim(GROUPS["S4"], 5)
        assert (report.free_rank, report.torsion) == (0, (2,))
        mats = [[[0, 1], [1, 1]], [[0, 1], [1, 0]]]
        theta = theta_highdim(2, mats, 5)
        group, _, _ = affine_group(2, 2, mats)
        assert (prim(group, 5).free_rank, prim(group, 5).torsion) == (0, (2,))
        table = enumerate_classes(group)
        signed = {}
        for i, c in enumerate(theta.coeffs):
            if c:
                signed[table.classes[i].order] = c
        assert signed == {24: 1, 6: -1, 4: 1, 8: -1}
        (idx4,) = [i for i, c in enumerate(theta.coeffs)
                   if c and table.classes[i].order == 4]
        klein = table.classes[idx4]
        assert klein.class_size == 3  # the non-normal Klein class
        assert all(group.element_orders[v] <= 2
                   for v in klein.representative.indices)
        assert verify_relation(group, 5, theta)
        assert generates_quotient(group, 5, theta)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, elapsed

    _report(4, "S4 at characteristic 5 has invariant factors [2] and "
               "S4 - S3 + V4 - D8 generates the quotient", check)


def test_criterion_05_nontrivial_core():
    def check():
        report = prim(GROUPS["C5xQ8"], 5)
        assert report.prediction.source == "Thm3.2"
        assert (report.free_rank, report.torsion) == (0, ())
        c3q8 = preset_group("C3xQ8")
        report = prim(c3q8, 3)
        assert report.prediction.source == "Thm3.2"
        assert (report.free_rank, report.torsion) == (0, ())

    _report(5, "C5xQ8 at characteristic 5 and C3xQ8 at characteristic 3 "
               "have trivial primitive quotients", check)


def test_criterion_06_bezout_family():
    def check():
        group = frobenius_group(7, 6)
        theta = theta_mn(7, 2, 3, 2, -1, 5)
        assert verify_relation(group, 5, theta)
        report = prim(group, 5)
        assert (report.free_rank, report.torsion) == (1, ())
        assert generates_quotient(group, 5, theta)
        other = theta_mn(7, 2, 3, -1, 1, 5)
        diff = other - theta
        assert diff.coeffs[-1] == 0
        assert lattice_contains(brauer_kernel(group, 5).basis, list(diff.coeffs))

    _report(6, "C7:C6 relation with (alpha, beta) = (2, -1) generates Z "
               "and Bezout changes stay in the kernel with zero top "
               "coefficient", check)


def _gf_rank(rows, l):
    rows = [[v % l for v in row] for row in rows if any(v % l for v in row)]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], l - 2, l)
        rows[rank] = [(v * inv) % l for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % l for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _module_counts(mats, l, d):
    deltas = [
        [[(a[i][j] - (1 if i == j else 0)) % l for j in range(d)]
         for i in range(d)]
        for a in mats
    ]
    stacked = [row for delta in deltas for row in delta]
    fixed = l ** (d - _gf_rank(stacked, l))
    transposed = [
        [delta[i][j] for i in range(d)] for delta in deltas for j in range(d)
    ]
    coinv = l ** (d - _gf_rank(transposed, l))
    return fixed, coinv


def test_criterion_07_module_count_identity():
    cases = [
        ("A4", 2, 2, [[[0, 1], [1, 1]]]),
        ("S4", 2, 2, [[[0, 1], [1, 1]], [[0, 1], [1, 0]]]),
        ("C3^2:C4", 3, 2, [[[0, 2], [1, 0]]]),
    ]

    def check():
        for name, l, d, mats in cases:
            theta = theta_highdim(l, mats, 5)
            group, _, stabilizer = affine_group(l, d, mats)
            table = enumerate_classes(group)
            marks = mark_vector(theta)
            stab_group = subgroup_as_group(stabilizer)
            for sub in subgroups_of(enumerate_classes(stab_group)):
                members = sorted(
                    group.index(stab_group.elements[i]) for i in sub.indices
                )
                k_in_g = Subgroup(group, np.asarray(members, dtype=np.int32))
                k_mats = [
                    matrix_of_stabilizer_element(group, int(v), l, d)
                    for v in k_in_g.generator_indices
                ]
                fixed, coinv = _module_counts(k_mats, l, d)
                mark = marks[table.class_index_of(k_in_g)]
                assert mark == coinv - fixed, (name, sub.order)

    _report(7, "relation marks at every subgroup of the complement equal "
               "the coinvariant minus fixed point counts, by independent "
               "field linear algebra", check)


def test_criterion_08_imprimitive_columns_are_relations():
    def check():
        for name in CORPUS_NAMES:
            group = GROUPS[name]
            table = enumerate_classes(group)
            for char in CORPUS_CHARACTERISTICS:
                imprim = imprimitive_lattice(group, char)
                for j, col in enumerate(imprim.columns()):
                    element = BurnsideElement(table, col)
                    assert verify_relation(group, char, element), \
                        (name, char, j)

    _report(8, "every imprimitive lattice column on the corpus passes "
               "relation verification", check)


def _orbit_decomposition(group, table_h, h_sub, u_sub):
    mult = group.mult
    cosets = set()
    for g in range(group.order):
        cosets.add(frozenset(int(v) for v in mult[g, u_sub.indices]))
    h_elems = [int(v) for v in h_sub.indices]
    h_group = table_h.group
    seen = set()
    out = [0] * len(table_h.classes)
    for coset in cosets:
        if coset in seen:
            continue
        orbit = {coset}
        frontier = [coset]
        while frontier:
            cur = frontier.pop()
            for h in h_elems:
                nxt = frozenset(int(mult[h, x]) for x in cur)
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        stab = [h for h in h_elems
                if frozenset(int(mult[h, x]) for x in coset) == coset]
        indices = np.asarray(
            sorted(h_group.index(group.elements[s]) for s in stab),
            dtype=np.int32,
        )
        out[table_h.class_index_of(Subgroup(h_group, indices))] += 1
    return tuple(out)


def test_criterion_09_burnside_algebra():
    from permrel.burnside import restrict

    def check():
        for name in SMALL24:
            group = GROUPS[name]
            table = enumerate_classes(group)
            k = len(table)
            for i in range(k):
                for j in range(k):
                    a = BurnsideElement.basis(table, i)
                    b = BurnsideElement.basis(table, j)
                    prod = multiply(a, b)
                    va, vb, vp = mark_vector(a), mark_vector(b), mark_vector(prod)
                    assert vp == [x * y for x, y in zip(va, vb)], (name, i, j)
            for hcls in table.classes:
                h_sub = hcls.representative
                table_h = enumerate_classes(subgroup_as_group(h_sub))
                for i in range(k):
                    got = restrict(table, table_h,
                                   BurnsideElement.basis(table, i))
                    want = _orbit_decomposition(
                        group, table_h, h_sub, table.classes[i].representative
                    )
                    assert got.coeffs == want, (name, hcls.order, i)

    _report(9, "marks are multiplicative on all basis pairs and "
               "restriction matches brute force orbit decomposition for "
               "every order <= 24 corpus group", check)


def test_criterion_10_a5():
    def check():
        start = time.monotonic()
        group = GROUPS["A5"]
        for char in (2, 3, 5, 7):
            report = prim(group, char)
            assert report.prediction.source == "Thm2.9a"
            assert (report.free_rank, report.torsion) == (1, ())
            assert report.generator is not None
            assert report.generator.coeffs[-1] == 1
            assert generates_quotient(group, char, report.generator)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, elapsed

    _report(10, "A5 gives Z at characteristics 2, 3, 5, 7 with a unit "
                "top coefficient generator", check)


def test_criterion_11_nonzero_quotients_are_classified():
    def check():
        misses = []
        for name in CORPUS_NAMES:
            group = GROUPS[name]
            for char in CORPUS_CHARACTERISTICS:
                report = prim(group, char)
                if (report.free_rank, report.torsion) == (0, ()):
                    continue
                p = effective_prime(group, char)
                matches = main_case_classify(group, p)
                if not matches:
                    misses.append((name, char))
        assert not misses, misses

    _report(11, "every corpus group with a nonzero primitive quotient "
                "matches a structural case", check)
