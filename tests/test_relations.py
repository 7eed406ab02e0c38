"""Kernel lattices, primitive quotients, predictions, and the generator
constructions, checked against independently computed values."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permrel.burnside import BurnsideElement, mark_vector, marks_table
from permrel.constructions import affine_group, frobenius_group
from permrel.errors import InputError
from permrel.perm import generate, parse_cycles
from permrel.presets import CORPUS_CHARACTERISTICS, CORPUS_NAMES, preset_group
from permrel.relations import (
    brauer_kernel,
    effective_prime,
    generates_quotient,
    hypo_class_indices,
    imprimitive_lattice,
    predict_prim,
    prim,
    theta_highdim,
    theta_mn,
    theta_qk,
    verify_relation,
)
from permrel.subgroups import Subgroup, enumerate_classes, subgroup_as_group
from permrel.zlattice import IntMatrix, lattice_contains

from oracles import (
    imprimitive_lattice_by_sweep,
    kernel_basis_by_two_hnfs,
    matrix_of_stabilizer_element,
    permutation_groups,
)


def _s3():
    return generate(3, [parse_cycles(3, "(0 1)"), parse_cycles(3, "(0 1 2)")])


def _a4():
    return generate(4, [parse_cycles(4, "(0 1 2)"), parse_cycles(4, "(0 1)(2 3)")])


def _s4():
    return generate(4, [parse_cycles(4, "(0 1 2 3)"), parse_cycles(4, "(0 1)")])


def test_effective_prime():
    assert effective_prime(_s3(), 0) == 5
    assert effective_prime(_a4(), 0) == 5
    assert effective_prime(preset_group("C2xC2"), 0) == 3
    assert effective_prime(preset_group("C7:C6"), 0) == 5
    assert effective_prime(_s3(), 7) == 7
    with pytest.raises(InputError):
        effective_prime(_s3(), 4)
    with pytest.raises(InputError):
        effective_prime(_s3(), 1)


def test_s3_kernel_characteristic_zero():
    s3 = _s3()
    kernel = brauer_kernel(s3, 0)
    assert kernel.hypo_classes == (0, 1, 2)
    assert kernel.rank == 1
    assert kernel.basis.column(0) == [1, -2, -1, 2]


def test_s3_kernel_vanishes_at_own_prime():
    assert brauer_kernel(_s3(), 3).rank == 0
    assert hypo_class_indices(_s3(), 3) == (0, 1, 2, 3)


def test_kernel_rank_counts_non_hypo_classes():
    for name in ("S3", "A4", "S4", "D8", "Q8", "C5:C4"):
        group = preset_group(name)
        table = enumerate_classes(group)
        for char in (0, 2, 3, 5, 7):
            kernel = brauer_kernel(group, char)
            assert kernel.rank == len(table.classes) - len(kernel.hypo_classes)
            for element in kernel.elements(table):
                assert verify_relation(group, char, element)


def test_a4_kernel_and_imprimitive():
    a4 = _a4()
    kernel = brauer_kernel(a4, 5)
    assert kernel.rank == 2  # classes V4 and A4 are not hypo-elementary
    imprim = imprimitive_lattice(a4, 5)
    assert imprim.cols == 1
    # the one imprimitive column is the induced Klein four relation
    induced = [1, -3, 0, 2, 0]
    assert lattice_contains(imprim, induced)
    assert lattice_contains(kernel.basis, induced)


def test_imprimitive_columns_lie_in_kernel():
    for name in ("A4", "S4", "D8", "C5:C4", "C3^2:C4"):
        group = preset_group(name)
        for char in (0, 5):
            kernel = brauer_kernel(group, char)
            imprim = imprimitive_lattice(group, char)
            for j in range(imprim.cols):
                assert lattice_contains(kernel.basis, imprim.column(j))


def _hypo_marks_rows(group, char):
    # the marks rows at the hypo-elementary classes, as brauer_kernel builds them
    table = enumerate_classes(group)
    marks = marks_table(group, table)
    k = len(table.classes)
    hypo = hypo_class_indices(group, char)
    return IntMatrix([[marks.m[h][u] for h in range(k)] for u in hypo], cols=k)


KERNEL_CASES = [(name, CORPUS_CHARACTERISTICS) for name in CORPUS_NAMES]
KERNEL_CASES += [("C2xC2xC2xC2xC2", (0, 3)), ("S4xC2", (2, 3)), ("D8xS3", (2, 3))]


@pytest.mark.parametrize("name, chars", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_kernel_basis_matches_two_hnfs(name, chars):
    group = preset_group(name)
    for char in chars:
        expected = kernel_basis_by_two_hnfs(_hypo_marks_rows(group, char))
        assert brauer_kernel(group, char).basis == expected, (name, char)


@given(permutation_groups(), st.sampled_from((0, 2, 3, 5)))
@settings(max_examples=40, deadline=None)
def test_kernel_basis_matches_two_hnfs_on_random_groups(group, char):
    expected = kernel_basis_by_two_hnfs(_hypo_marks_rows(group, char))
    assert brauer_kernel(group, char).basis == expected


def test_c2_5_kernel_at_its_own_prime_is_zero_and_quick():
    # every class of a 2-group is 2-hypo-elementary: the kernel is zero,
    # and the 374 x 374 marks block needs no echelon
    group = preset_group("C2xC2xC2xC2xC2")
    marks_table(group, enumerate_classes(group))
    start = time.perf_counter()
    kernel = brauer_kernel(group, 2)
    assert time.perf_counter() - start < 1.0
    assert kernel.rank == 0
    assert len(kernel.hypo_classes) == 374


SWEEP_CASES = [(name, CORPUS_CHARACTERISTICS) for name in CORPUS_NAMES]
SWEEP_CASES.append(("S4xC2", (0, 2)))


@pytest.mark.parametrize("name, chars", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
def test_imprimitive_lattice_matches_subquotient_sweep(name, chars):
    group = preset_group(name)
    for char in chars:
        expected = imprimitive_lattice_by_sweep(group, char)
        assert imprimitive_lattice(group, char) == expected, (name, char)


@given(permutation_groups(), st.sampled_from((0, 2, 3, 5)))
@settings(max_examples=40, deadline=None)
def test_imprimitive_lattice_matches_sweep_on_random_groups(group, char):
    assert imprimitive_lattice(group, char) == imprimitive_lattice_by_sweep(group, char)


def test_s3_prim_is_free_of_rank_one():
    report = prim(_s3(), 0)
    assert (report.free_rank, report.torsion) == (1, ())
    assert report.prediction.source == "ThmMainB"
    # the unique basis relation has coefficient 2 at the full group, so
    # no canonical unit generator exists
    assert report.generator is None


def test_a4_prim_char5():
    report = prim(_a4(), 5)
    assert (report.free_rank, report.torsion) == (1, ())
    assert report.prediction.source == "Thm2.9a"
    assert report.generator is not None
    assert report.generator.coeffs == (0, 1, -1, -1, 1)
    assert generates_quotient(_a4(), 5, report.generator)


def test_s4_prim_values():
    s4 = _s4()
    r5 = prim(s4, 5)
    assert (r5.free_rank, r5.torsion) == (0, (2,))
    assert r5.prediction.source == "Thm2.9b"
    assert r5.generator is not None
    assert generates_quotient(s4, 5, r5.generator)
    r3 = prim(s4, 3)
    assert (r3.free_rank, r3.torsion) == (1, ())
    assert r3.prediction.source == "Thm2.9a"
    r2 = prim(s4, 2)
    assert (r2.free_rank, r2.torsion) == (0, ())
    assert r2.prediction.source == "NotCovered"


def test_prim_uncovered_groups_compute_anyway():
    q8 = preset_group("Q8")
    report = prim(q8, 5)
    assert report.prediction.source == "NotCovered"
    assert (report.free_rank, report.torsion) == (0, ())
    d8 = preset_group("D8")
    report = prim(d8, 5)
    assert report.prediction.source == "NotCovered"
    assert (report.free_rank, report.torsion) == (0, (2,))


def test_prim_dress_with_central_core():
    report = prim(preset_group("C5xQ8"), 5)
    assert report.prediction.source == "Thm3.2"
    assert (report.free_rank, report.torsion) == (0, ())


def test_prim_hypo_groups_have_zero_kernel():
    for name, char in (("C6", 2), ("C6", 5), ("C12", 7), ("Q8", 2),
                       ("S3", 3), ("A4", 2), ("C7:C6", 7)):
        report = prim(preset_group(name), char)
        assert report.prediction.source == "Hypo"
        assert report.kernel.rank == 0
        assert (report.free_rank, report.torsion) == (0, ())


def test_prim_no_unit_generator_cases():
    report = prim(preset_group("C5:C4"), 0)
    assert report.prediction.source == "ThmMainB"
    assert (report.free_rank, report.torsion) == (1, ())
    assert report.generator is None


def test_predictions_match_computation_on_products():
    # C3 x S3 matches the two line semidirect shape on paper, but the
    # prediction ladder routes it through the quotient trichotomy first;
    # the computed quotient confirms the trichotomy answer
    g = preset_group("C3xS3")
    pred = predict_prim(g, 5)
    assert pred.source == "Thm2.9b"
    assert (pred.free_rank, pred.torsion) == (0, (2,))
    report = prim(g, 5)
    assert (report.free_rank, report.torsion) == (0, (2,))


def test_predict_simple_groups():
    a5 = generate(5, [parse_cycles(5, "(0 1 2)"), parse_cycles(5, "(0 1 2 3 4)")])
    for char in (0, 2, 3, 5, 7):
        pred = predict_prim(a5, char)
        assert pred.source == "Thm2.9a"
        assert (pred.free_rank, pred.torsion) == (1, ())


def test_theta_mn_frobenius42():
    theta = theta_mn(7, 2, 3, 2, -1, 5)
    group = frobenius_group(7, 6)
    assert theta.coeffs == (0, -1, 2, -1, 0, 1, -2, 1)
    assert verify_relation(group, 5, theta)
    assert lattice_contains(brauer_kernel(group, 5).basis, list(theta.coeffs))
    assert generates_quotient(group, 5, theta)
    # the same parameters give the same Burnside ring
    again = theta_mn(7, 2, 3, 2, -1, 5)
    assert again == theta
    # characteristic 0 uses a surrogate prime, same lattices
    assert generates_quotient(group, 0, theta_mn(7, 2, 3, 2, -1, 0))


def test_theta_mn_bezout_choices_differ_by_imprimitive():
    group = frobenius_group(7, 6)
    a = theta_mn(7, 2, 3, 2, -1, 5)
    b = theta_mn(7, 2, 3, -1, 1, 5)
    diff = a - b
    assert diff.coeffs[-1] == 0  # the full group class cancels
    assert lattice_contains(imprimitive_lattice(group, 5), list(diff.coeffs))
    assert generates_quotient(group, 5, b)


def test_theta_mn_validation():
    with pytest.raises(InputError):
        theta_mn(7, 2, 4, 1, 0, 5)  # gcd(m, n) = 2
    with pytest.raises(InputError):
        theta_mn(7, 1, 3, 1, 0, 5)  # m = 1
    with pytest.raises(InputError):
        theta_mn(7, 2, 3, 1, 1, 5)  # 1*2 + 1*3 != 1
    with pytest.raises(InputError):
        theta_mn(7, 2, 3, 2, -1, 7)  # characteristic equals l


def test_theta_qk_smallest_case():
    theta = theta_qk(3, 2, 0, 5)
    group = frobenius_group(3, 2)
    assert theta.coeffs == (1, -2, -1, 2)
    assert verify_relation(group, 5, theta)
    assert generates_quotient(group, 5, theta)


def test_theta_qk_tower_case():
    theta = theta_qk(5, 2, 1, 0)
    group = frobenius_group(5, 4)
    assert theta.coeffs == (0, 1, -2, 0, -1, 2)
    assert verify_relation(group, 0, theta)
    assert generates_quotient(group, 0, theta)
    # the relation generates even though its full group coefficient is
    # not a unit, which is why the report carries no canonical generator
    assert prim(group, 0).generator is None


def test_theta_qk_validation():
    with pytest.raises(InputError):
        theta_qk(3, 4, 0, 5)  # q not prime
    with pytest.raises(InputError):
        theta_qk(3, 2, -1, 5)
    with pytest.raises(InputError):
        theta_qk(3, 2, 0, 3)  # characteristic equals l


def test_theta_highdim_a4():
    theta = theta_highdim(2, [[[0, 1], [1, 1]]], 5)
    group, _, _ = affine_group(2, 2, [[[0, 1], [1, 1]]])
    assert theta.coeffs == (0, 1, -1, -1, 1)
    assert generates_quotient(group, 5, theta)
    # this group is a copy of the alternating group on four points, and
    # the relation agrees with the extracted generator there
    assert prim(group, 5).generator.coeffs == theta.coeffs


def test_theta_highdim_s4():
    mats = [[[0, 1], [1, 1]], [[0, 1], [1, 0]]]
    theta = theta_highdim(2, mats, 5)
    group, _, _ = affine_group(2, 2, mats)
    table = enumerate_classes(group)
    nonzero = {i: c for i, c in enumerate(theta.coeffs) if c}
    assert sorted(nonzero.values()) == [-1, -1, 1, 1]
    orders = sorted(table.classes[i].order for i in nonzero)
    assert orders == [4, 6, 8, 24]
    # the positive order 4 class is the non normal Klein class, spanned
    # by the hyperplane and the reflection normalizing it
    (idx4,) = [i for i in nonzero if table.classes[i].order == 4]
    assert nonzero[idx4] == 1
    rep = table.classes[idx4].representative
    assert table.classes[idx4].class_size == 3
    assert all(group.element_orders[v] <= 2 for v in rep.indices)
    assert generates_quotient(group, 5, theta)


def test_theta_highdim_two_orbits():
    mats = [[[0, 2], [1, 0]]]
    theta = theta_highdim(3, mats, 5)
    group, _, _ = affine_group(3, 3 - 1, mats)
    table = enumerate_classes(group)
    by_order = {}
    for i, c in enumerate(theta.coeffs):
        if c:
            by_order.setdefault(table.classes[i].order, []).append(c)
    # two hyperplane orbits contribute two +1 terms of order 6
    assert by_order == {4: [-1], 6: [1, 1], 18: [-2], 36: [1]}
    assert generates_quotient(group, 5, theta)
    assert generates_quotient(group, 0, theta_highdim(3, mats, 0))


def test_theta_highdim_trivial_stabilizer():
    theta = theta_highdim(2, [], 5)
    group, _, _ = affine_group(2, 2, [])
    assert group.order == 4
    assert theta.coeffs == (-1, 1, 1, 1, -2)
    assert generates_quotient(group, 5, theta)


def test_theta_highdim_validation():
    with pytest.raises(InputError):
        theta_highdim(2, [[[0, 1], [1, 1]]], 2)  # characteristic equals l
    with pytest.raises(InputError):
        theta_highdim(3, [[[2]]], 5)  # rank one module
    with pytest.raises(InputError):
        # a single fixed line: neither irreducible nor two lines
        theta_highdim(3, [[[1, 1], [0, 1]], [[1, 0], [0, 2]]], 5)


def test_theta_highdim_two_line_product():
    # (C3 x| C2) x (C3 x| C2) with each involution inverting one line
    mats = [[[2, 0], [0, 1]], [[1, 0], [0, 2]]]
    theta = theta_highdim(3, mats, 5)
    group, _, _ = affine_group(3, 2, mats)
    assert group.order == 36
    assert generates_quotient(group, 5, theta)


def _gf_rank(rows, l):
    """Row rank over the field with l elements, by Gauss elimination."""
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


def _fixed_and_coinvariant_sizes(mats, l, d):
    """(|W^K|, |W_K|) for the group generated by ``mats`` acting on
    (Z/l)^d, computed with plain field linear algebra."""
    deltas = []
    for a in mats:
        deltas.append([[(a[i][j] - (1 if i == j else 0)) % l
                        for j in range(d)] for i in range(d)])
    # fixed vectors: common kernel of all (A - 1), via the stacked rows
    stacked = [row for delta in deltas for row in delta]
    fixed = l ** (d - _gf_rank(stacked, l))
    # coinvariants: quotient by the span of all images (A - 1)W, which
    # is the column span, i.e. the row span of the transposes
    transposed = [
        [delta[i][j] for i in range(d)] for delta in deltas for j in range(d)
    ]
    coinv = l ** (d - _gf_rank(transposed, l))
    return fixed, coinv


def test_gf_helpers_detect_asymmetry():
    # a transvection and a reflection sharing a kernel line but with
    # different image lines: fixed space is one dimensional while the
    # coinvariants are trivial
    mats = [[[1, 1], [0, 1]], [[1, 0], [0, 2]]]
    fixed, coinv = _fixed_and_coinvariant_sizes(mats, 3, 2)
    assert fixed == 3
    assert coinv == 1


THETA_HIGHDIM_CASES = [
    (2, 2, [[[0, 1], [1, 1]]]),
    (2, 2, [[[0, 1], [1, 1]], [[0, 1], [1, 0]]]),
    (3, 2, [[[0, 2], [1, 0]]]),
    (3, 2, [[[2, 0], [0, 1]], [[1, 0], [0, 2]]]),
    (2, 2, []),
]


@pytest.mark.parametrize("l,d,mats", THETA_HIGHDIM_CASES,
                         ids=["A4", "S4", "C3^2:C4", "S3xS3", "V4"])
def test_theta_highdim_marks_match_module_counts(l, d, mats):
    """Marks of the relation at subgroups of the point stabilizer equal
    the coinvariant count minus the fixed point count of the module."""
    char = 5 if l != 5 else 7
    theta = theta_highdim(l, mats, char)
    group, module, stabilizer = affine_group(l, d, mats)
    table = enumerate_classes(group)
    marks = mark_vector(theta)
    stab_group = subgroup_as_group(stabilizer)
    stab_table = enumerate_classes(stab_group)
    checked = 0
    for cls in stab_table.classes:
        # lift the subgroup of the stabilizer into the ambient group
        members = sorted(
            group.index(stab_group.elements[i]) for i in cls.representative.indices
        )
        k_in_g = Subgroup(group, np.asarray(members, dtype=np.int32))
        k_mats = [
            matrix_of_stabilizer_element(group, int(v), l, d)
            for v in k_in_g.generator_indices
        ]
        fixed, coinv = _fixed_and_coinvariant_sizes(k_mats, l, d)
        mark = marks[table.class_index_of(k_in_g)]
        assert mark == coinv - fixed, (cls.order, mark, coinv, fixed)
        checked += 1
    assert checked == len(stab_table.classes)
