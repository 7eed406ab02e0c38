"""Kernel lattices, primitive quotients, predictions, and the generator
constructions, checked against independently computed values."""

import math
import operator
import random
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permrel import relations, zlattice
from permrel.burnside import BurnsideElement, induct, mark_vector, marks_table
from permrel.classify import main_case_classify, quotient_is_p_hypo_elementary
from permrel.constructions import affine_group, frobenius_group
from permrel.errors import InputError, InternalCheckError, PermrelError
from permrel.perm import Group, generate, parse_cycles
from permrel.presets import CORPUS_CHARACTERISTICS, CORPUS_NAMES, preset_group
from permrel.relations import (
    brauer_kernel,
    effective_prime,
    generates_quotient,
    hypo_class_indices,
    imprimitive_lattice,
    maximal_view,
    predict_prim,
    prim,
    quotient_kernel,
    theta_highdim,
    theta_mn,
    theta_qk,
    verify_relation,
)
from permrel.subgroups import (
    Subgroup,
    enumerate_classes,
    is_minimal_normal,
    minimal_normal_subgroups,
    normal_subgroups,
    quotient,
    subgroup_as_group,
)
from permrel.zlattice import IntMatrix, UnitBasis

from oracles import (
    LADDER_NAMES,
    basis_matrix,
    classes_containing_by_loop,
    extract_generator_by_columns,
    generates_quotient_by_snf,
    hypo_mask_by_loop,
    imprimitive_lattice_by_hnf,
    imprimitive_lattice_by_subquotient_groups,
    imprimitive_lattice_by_sweep,
    kernel_basis_by_two_hnfs,
    lattice_contains,
    main_case_classify_by_groups,
    matrix_of_stabilizer_element,
    permutation_groups,
    predict_prim_by_quotient_groups,
    prim_invariants_by_snf,
    relabelled,
    subgroup_is_p_hypo_elementary,
    theta_highdim_by_functional_orbits,
    translation_module_by_points,
    unit_kernel_by_lists,
    unit_rows,
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
    assert kernel.basis.columns()[0] == [1, -2, -1, 2]


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
            for col in imprim.columns():
                assert lattice_contains(kernel.basis, col)


def _hypo_by_subgroup_scan(group, char):
    p = effective_prime(group, char)
    return tuple(
        i
        for i, cls in enumerate(enumerate_classes(group).classes)
        if subgroup_is_p_hypo_elementary(cls.representative, p)
    )


HYPO_CASES = CORPUS_NAMES + ("S4xC2", "D8xS3", "C2xC2xC2xC2xC2")


@pytest.mark.parametrize("name", HYPO_CASES)
def test_hypo_classes_match_subgroup_scan(name):
    group = preset_group(name)
    for char in CORPUS_CHARACTERISTICS:
        expected = _hypo_by_subgroup_scan(group, char)
        assert hypo_class_indices(group, char) == expected, (name, char)


@given(permutation_groups(), st.sampled_from(CORPUS_CHARACTERISTICS))
@settings(max_examples=40, deadline=None)
def test_hypo_classes_match_subgroup_scan_on_random_groups(group, char):
    assert hypo_class_indices(group, char) == _hypo_by_subgroup_scan(group, char)


def _hypo_marks_rows(group, char):
    # the marks rows at the hypo-elementary classes, as brauer_kernel builds them
    table = enumerate_classes(group)
    marks = marks_table(group, table).array.tolist()
    k = len(table.classes)
    hypo = hypo_class_indices(group, char)
    return IntMatrix([[marks[h][u] for h in range(k)] for u in hypo], cols=k)


KERNEL_CASES = [(name, CORPUS_CHARACTERISTICS) for name in CORPUS_NAMES]
KERNEL_CASES += [("C2xC2xC2xC2xC2", (0, 3)), ("S4xC2", (2, 3)), ("D8xS3", (2, 3))]


@pytest.mark.parametrize("name, chars", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_kernel_basis_matches_two_hnfs(name, chars):
    # the array route of brauer_kernel against two Hermite forms and the
    # list route it replaced
    group = preset_group(name)
    for char in chars:
        rows = _hypo_marks_rows(group, char)
        expected = kernel_basis_by_two_hnfs(rows)
        assert brauer_kernel(group, char).basis == expected, (name, char)
        assert unit_kernel_by_lists(rows) == expected, (name, char)


@given(permutation_groups(), st.sampled_from((0, 2, 3, 5, 7)))
@settings(max_examples=40, deadline=None)
def test_kernel_basis_matches_two_hnfs_on_random_groups(group, char):
    rows = _hypo_marks_rows(group, char)
    expected = kernel_basis_by_two_hnfs(rows)
    assert brauer_kernel(group, char).basis == expected
    assert unit_kernel_by_lists(rows) == expected


def _assert_records_read_as_lists(group, char):
    # the kernel, the lattice and the report's lattice read as the list
    # build of their rows, entry for entry and one row at a time
    report = prim(group, char)
    for basis in (brauer_kernel(group, char).basis, imprimitive_lattice(group, char),
                  report.imprimitive):
        dense = basis_matrix(basis, basis.rows)
        assert (basis.rows, basis.cols) == (dense.rows, dense.cols)
        assert basis.data == dense.data and basis.columns() == dense.columns()
        assert [basis.row(i) for i in range(basis.rows)] == dense.data
        assert basis == dense and dense == basis
    return report


# the corpus and the groups of the big-order and many-classes workloads
RECORD_NAMES = CORPUS_NAMES + (
    "A6", "C19:C18", "S5", "C2xC2xC2xC2", "D8xS3", "S4xC2", "C2xC2xC2xC2xC2"
)


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_kernel_and_lattice_records_read_as_their_rows(name):
    # each kernel is a UnitBasis, and at free rank 0 without torsion the
    # lattice L = K is that same record
    group = preset_group(name)
    for char in CORPUS_CHARACTERISTICS:
        report = _assert_records_read_as_lists(group, char)
        assert isinstance(report.kernel.basis, UnitBasis), (name, char)
        if (report.free_rank, report.torsion) == (0, ()):
            assert report.imprimitive is report.kernel.basis, (name, char)


@given(permutation_groups(), st.sampled_from(CORPUS_CHARACTERISTICS))
@settings(max_examples=40, deadline=None)
def test_kernel_and_lattice_records_read_as_their_rows_on_random_groups(group, char):
    _assert_records_read_as_lists(group, char)


def test_c2_5_kernel_keeps_its_record_alone():
    # the kernel of C2^5 at char 0 keeps W, 32 x 342 int64, and the
    # columns and masks it read, not 374 rows of Python ints (1.1 MB)
    group = _cold_copy(preset_group("C2xC2xC2xC2xC2"))
    enumerate_classes(group)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kernel = brauer_kernel(group, 0)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kernel.rank == 342
    assert live < 400 * 1024, live


def test_prim_builds_dense_rows_only_to_search_a_generator(monkeypatch):
    # the certificate and generates_quotient read the kernel records by
    # their fields and single rows; the generator search builds the
    # kernel's rows once per lattice prime, and only when the gcd at G is 1
    reads = []
    dense = UnitBasis.data
    monkeypatch.setattr(UnitBasis, "data", property(lambda b: reads.append(b) or dense.fget(b)))
    # the groups without torsion at any characteristic
    for name in ("C2xC2", "C12", "Q8", "A4", "A5", "C7:C6", "C2xC2xC2xC2", "D8xS3", "S4xC2"):
        group = _cold_copy(preset_group(name))
        kernels, searched = [], []
        for char in CORPUS_CHARACTERISTICS:
            report = prim(group, char)
            basis = report.kernel.basis
            if not any(basis is b for b in kernels):
                kernels.append(basis)
                if basis.cols and math.gcd(*basis.row(basis.rows - 1)) == 1:
                    searched.append(basis)
            if report.generator is not None:
                assert generates_quotient(group, char, report.generator)
        read = [b for b in reads if any(b is kernel for kernel in kernels)]
        assert len(read) == len(searched) and all(map(operator.is_, read, searched)), name
        reads.clear()


def test_marks_kernels_take_the_modular_route(monkeypatch):
    # every marks kernel met so far has a Hermite basis with unit pivots,
    # so the modular elimination's certificate accepts it
    fallbacks = []
    original = zlattice._unit_kernel

    def counting(m):
        basis = original(m)
        if basis is None:
            fallbacks.append(m)
        return basis

    monkeypatch.setattr(zlattice, "_unit_kernel", counting)
    groups = [_cold_copy(preset_group(name)) for name in CORPUS_NAMES]
    for group in groups:
        for char in CORPUS_CHARACTERISTICS:
            brauer_kernel(group, char)
    assert brauer_kernel(_cold_copy(preset_group("C2xC2xC2xC2xC2")), 0).rank == 342
    assert fallbacks == []


def _lattices(group, chars, kernel_only=False):
    out = {}
    for char in chars:
        basis = brauer_kernel(group, char).basis
        out[char] = basis if kernel_only else (basis, imprimitive_lattice(group, char))
    return out


def _assert_echelon_route_matches(group, chars, kernel_only=False):
    # no real input reaches the echelon route, so it is forced here
    unit = _lattices(_cold_copy(group), chars, kernel_only)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zlattice, "_unit_kernel", lambda m: None)
        assert _lattices(_cold_copy(group), chars, kernel_only) == unit


# the corpus, and the groups of the big-order and many-classes workloads
# at the characteristics they are benchmarked at
ECHELON_ROUTE_CASES = [(name, CORPUS_CHARACTERISTICS, False) for name in CORPUS_NAMES]
ECHELON_ROUTE_CASES += [
    (name, CORPUS_CHARACTERISTICS, False)
    for name in ("A6", "C19:C18", "C2xC2xC2xC2", "D8xS3", "S4xC2")
]
ECHELON_ROUTE_CASES += [("C2xC2xC2xC2xC2", (0, 3), True)]


@pytest.mark.parametrize(
    "name, chars, kernel_only", ECHELON_ROUTE_CASES, ids=[c[0] for c in ECHELON_ROUTE_CASES]
)
def test_echelon_route_matches_the_unit_route(name, chars, kernel_only):
    _assert_echelon_route_matches(preset_group(name), chars, kernel_only)


@given(permutation_groups(), st.sampled_from(CORPUS_CHARACTERISTICS))
@settings(max_examples=40, deadline=None)
def test_echelon_route_matches_the_unit_route_on_random_groups(group, char):
    _assert_echelon_route_matches(group, (char,))


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


def test_c2_5_at_char_0_counts_only_the_columns_read(monkeypatch):
    # G's kernel counts its 32 hypo-elementary (cyclic) columns; prim and
    # generates_quotient add only those that the quotient kernels the
    # certificate takes read, the classes over N with U/N cyclic; each
    # maximal view, C2^4 with 67 classes, is counted whole at once
    group = _cold_copy(preset_group("C2xC2xC2xC2xC2"))
    table = enumerate_classes(group)
    marks = marks_table(group, table)
    kernel = brauer_kernel(group, 0)
    assert marks.counted == len(kernel.hypo_classes) == 32
    normals = []
    real = relations.quotient_kernel
    monkeypatch.setattr(relations, "quotient_kernel",
                        lambda table, normal, p, solved: normals.append(normal)
                        or real(table, normal, p, solved))
    report = prim(group, 0)
    x = BurnsideElement(table, kernel.basis.columns()[0])
    assert generates_quotient(group, 0, x)
    p = effective_prime(group, 0)
    read = set(kernel.hypo_classes)
    for normal in normals:
        over = table.classes_over(normal)
        read.update(over[hypo_mask_by_loop(table, normal, p, over)].tolist())
    assert set(np.flatnonzero(marks._slot >= 0).tolist()) == read
    assert marks.counted == len(read) < len(table)
    hypo = relations._own_hypo_mask(group, 0)
    views = group._memo["maximal_views"]
    assert len(views) == 31 and report.imprimitive.cols == 342
    assert all(np.count_nonzero(hypo[class_map]) == 16 and view.counted == len(class_map) == 67
               for class_map, view in views)


def test_c2_6_marks_quick_and_kernel_at_two_is_zero():
    # 2,825 classes, all of them 2-hypo-elementary
    group = preset_group("C2xC2xC2xC2xC2xC2")
    table = enumerate_classes(group)
    start = time.perf_counter()
    marks_table(group, table).array  # every column, counted at once
    assert time.perf_counter() - start < 10.0
    kernel = brauer_kernel(group, 2)
    assert kernel.rank == 0
    assert len(kernel.hypo_classes) == len(table.classes) == 2825


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


VIEW_CASES = CORPUS_NAMES + tuple(
    name + "/relabelled" for name in ("C2xC2xC2xC2", "S4xC2", "D8xS3")
)


def _view_case(name):
    if name.endswith("/relabelled"):
        return relabelled(preset_group(name.split("/")[0]), 7)
    return preset_group(name)


@pytest.mark.parametrize("name", VIEW_CASES)
def test_imprimitive_lattice_matches_subquotient_groups(name):
    group = _view_case(name)
    for char in CORPUS_CHARACTERISTICS:
        expected = imprimitive_lattice_by_subquotient_groups(group, char)
        assert imprimitive_lattice(group, char) == expected, (name, char)


@given(permutation_groups(), st.sampled_from((0, 2, 3, 5)))
@settings(max_examples=40, deadline=None)
def test_imprimitive_lattice_matches_subquotient_groups_on_random_groups(group, char):
    expected = imprimitive_lattice_by_subquotient_groups(group, char)
    assert imprimitive_lattice(group, char) == expected


def _assert_certificate_matches_exact_route(group, elements=False):
    # the lattice, the invariants and (optionally) generates_quotient on
    # kernel columns, the generator and combinations of both, against
    # the Hermite and Smith forms of every generator, once per lattice prime
    checked, exact = _cold_copy(group), _cold_copy(group)
    expected = {}
    for char in CORPUS_CHARACTERISTICS:
        prime = relations._lattice_prime(exact, char)
        if prime not in expected:
            expected[prime] = (
                imprimitive_lattice_by_hnf(exact, char), prim_invariants_by_snf(exact, char)
            )
        report = prim(checked, char)
        assert imprimitive_lattice(checked, char) == expected[prime][0], char
        assert (report.free_rank, report.torsion) == expected[prime][1], char
        if not elements:
            continue
        table = enumerate_classes(checked)
        candidates = report.kernel.elements(table) + [BurnsideElement.zero(table)]
        if report.generator is not None:
            candidates += [report.generator, 2 * report.generator]
            candidates += [report.generator + x for x in candidates[:2]]
        for x in candidates:
            answer = generates_quotient(checked, char, x)
            assert answer == generates_quotient_by_snf(exact, char, x), (char, x.coeffs)


EXACT_ROUTE_NAMES = (
    "A6", "C19:C18", "C2xC2xC2xC2", "D8xS3", "S4xC2", "C2xC2xC2xC2xC2", "D8xD8", "C3xS3", "S6",
)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_certificate_matches_exact_route_on_corpus(name):
    _assert_certificate_matches_exact_route(preset_group(name), elements=True)


@pytest.mark.parametrize("name", EXACT_ROUTE_NAMES)
def test_certificate_matches_exact_route(name):
    _assert_certificate_matches_exact_route(preset_group(name))


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_certificate_matches_exact_route_on_random_groups(group):
    _assert_certificate_matches_exact_route(group, elements=True)


def test_certificate_skips_hnf_and_snf_without_torsion(monkeypatch):
    # D8 and S4 at characteristic 0 have torsion Z/2 and take the exact
    # route; C2^4 and D8xS3 have none, and neither hnf nor snf runs
    calls = []
    for fname in ("hnf", "quotient_invariants"):
        original = getattr(relations, fname)

        def counting(*args, _fname=fname, _original=original):
            calls.append(_fname)
            return _original(*args)

        monkeypatch.setattr(relations, fname, counting)
    for name in ("C2xC2xC2xC2", "D8xS3"):
        group = _cold_copy(preset_group(name))
        for char in CORPUS_CHARACTERISTICS:
            prim(group, char)
        assert calls == [], name
    for name in ("D8", "S4"):
        prim(_cold_copy(preset_group(name)), 0)
        assert calls == ["hnf", "quotient_invariants"], name
        calls.clear()


@pytest.mark.parametrize("name, char", [("C2xC2xC2xC2", 0), ("D8xS3", 3), ("A5", 0), ("S4", 0)])
def test_ranks_read_the_generators_on_p(monkeypatch, name, char):
    # every row the ranks take is an element of L restricted to the r
    # coordinates P on which K's basis is the identity
    group = _cold_copy(preset_group(name))
    kernel = brauer_kernel(group, char).basis
    unit = unit_rows(kernel)
    exact = imprimitive_lattice_by_hnf(_cold_copy(group), char)
    on_p = IntMatrix([[col[i] for col in exact.columns()] for i in unit], cols=exact.cols)
    taken = []
    original = relations._rank_reaches

    def recording(ell, rows, pivots, target):
        taken.append(rows)
        return original(ell, rows, pivots, target)

    monkeypatch.setattr(relations, "_rank_reaches", recording)
    imprimitive_lattice(group, char)
    assert taken
    for rows in taken:
        assert rows.shape[1] == len(unit) == kernel.cols
        for row in rows.tolist():
            assert lattice_contains(on_p, row)


def _stray_column(k, last):
    # e_0 + last e_(k-1) over a view's k classes, as _kernel_of returns a
    # basis: the identity on P = {0}, and the rows W on N = {1, ..., k-1}
    w = np.zeros((k - 1, 1), dtype=np.int64)
    w[-1, 0] = last
    return UnitBasis(k, np.array([0]), np.arange(1, k), w)


def test_a_generator_outside_the_kernel_is_rejected(monkeypatch):
    # the column e_0 of a view, its trivial class, induces to [G/1],
    # whose mark at the trivial class is |G|: the M x = 0 check must
    # catch it
    group = _cold_copy(preset_group("A4"))
    real = relations._view_kernels

    def with_a_stray_column(table, hypo, solved):
        class_map = relations._maximal_views(table)[0][0]
        yield _stray_column(len(class_map), 0), class_map
        yield from real(table, hypo, solved)

    monkeypatch.setattr(relations, "_view_kernels", with_a_stray_column)
    with pytest.raises(InternalCheckError):
        imprimitive_lattice(group, 5)


@pytest.mark.parametrize("entries", (1, relations._CHECK_ENTRIES))
def test_the_kernel_check_reads_every_hypo_class(monkeypatch, entries):
    # e_0 - |M| e_M in A4's view of its maximal C3 induces to
    # [G/1] - 3 [G/C3], with mark 0 at the trivial class and at C2 but
    # -3 at C3; the check must reach C3 also when it takes G's
    # hypo-elementary classes one at a time
    group = _cold_copy(preset_group("A4"))
    real = relations._view_kernels

    def with_a_stray_column(table, hypo, solved):
        class_map = relations._maximal_views(table)[0][0]
        order = table.classes[table.maximal_classes()[0]].representative.order
        yield _stray_column(len(class_map), -order), class_map
        yield from real(table, hypo, solved)

    monkeypatch.setattr(relations, "_CHECK_ENTRIES", entries)
    monkeypatch.setattr(relations, "_view_kernels", with_a_stray_column)
    with pytest.raises(InternalCheckError):
        imprimitive_lattice(group, 5)


def _count_kernel_work(monkeypatch):
    # (requests, blocks solved): calls of _kernel_of, and of the unit
    # route behind the memo of kernel_basis
    requests, solved = [], []
    for module, fname, record in (
        (relations, "_kernel_of", requests), (zlattice, "_unit_kernel", solved)
    ):
        original = getattr(module, fname)

        def counting(*args, _original=original, _record=record):
            _record.append(args)
            return _original(*args)

        monkeypatch.setattr(module, fname, counting)
    return requests, solved


def test_each_distinct_kernel_block_is_solved_once(monkeypatch):
    # C2^4 at char 0: G's kernel and 19 views and quotients, every one of
    # which is C2^3 with the same marks block, so two blocks are solved
    group = _cold_copy(preset_group("C2xC2xC2xC2"))
    expected = imprimitive_lattice_by_hnf(_cold_copy(group), 0)
    requests, solved = _count_kernel_work(monkeypatch)
    assert imprimitive_lattice(group, 0) == expected
    assert (len(requests), len(solved)) == (20, 2)
    keys = {(block.shape, block.tobytes()) for (block,) in solved}
    assert len(keys) == 2
    # 3 does not divide |G|, so char 0's lattice is read back; the block
    # memo lives on one lattice computation, so a cold copy solves again
    requests.clear()
    solved.clear()
    imprimitive_lattice(group, 3)
    assert requests == solved == []
    imprimitive_lattice(_cold_copy(group), 3)
    assert len(solved) == 2


class _ShapeKeyed(dict):
    # a memo that tells blocks apart by their shape alone
    def __contains__(self, key):
        return dict.__contains__(self, key[0])

    def __getitem__(self, key):
        return dict.__getitem__(self, key[0])

    def __setitem__(self, key, value):
        dict.__setitem__(self, key[0], value)


@pytest.mark.parametrize("char", (0, 2, 3, 5))
def test_a_memo_keyed_by_shape_alone_is_caught(monkeypatch, char):
    # C7:C6's views and quotients have marks blocks of one shape but
    # different entries at these characteristics: a memo keyed by shape
    # alone hands one the kernel of another, which fails its own M x = 0
    # check
    memo = _ShapeKeyed()
    real = relations._kernel_of
    monkeypatch.setattr(
        relations, "_kernel_of", lambda marks_t, hypo, over, solved: real(marks_t, hypo, over, memo)
    )
    with pytest.raises(InternalCheckError, match="not in the kernel"):
        imprimitive_lattice(_cold_copy(preset_group("C7:C6")), char)


def _hypo_mask(group, char):
    mask = np.zeros(len(enumerate_classes(group)), dtype=bool)
    mask[list(hypo_class_indices(group, char))] = True
    return mask


@pytest.mark.parametrize("name", VIEW_CASES)
def test_maximal_views_match_subgroup_groups(name):
    # each view class goes to the class of subgroup_as_group(M) holding
    # its representative; marks, induction and hypo classes agree
    group = _view_case(name)
    table = enumerate_classes(group)
    for i in table.maximal_classes():
        sub = table.classes[i].representative
        m_group = subgroup_as_group(sub)
        m_table = enumerate_classes(m_group)
        m_marks = marks_table(m_group, m_table).array.tolist()
        class_map, marks, reps = maximal_view(table, table.classes[i])
        place = [
            m_table.class_index_of(Subgroup(m_group, np.searchsorted(sub.indices, rep)))
            for rep in reps
        ]
        assert sorted(place) == list(range(len(m_table))), name
        assert marks.array.tolist() == [[m_marks[a][b] for b in place] for a in place], name
        induced = [
            induct(m_table, table, BurnsideElement.basis(m_table, t)).coeffs.index(1)
            for t in place
        ]
        assert class_map.tolist() == induced, name
        for char in CORPUS_CHARACTERISTICS:
            expected = sorted(place.index(t) for t in hypo_class_indices(m_group, char))
            hypo = np.flatnonzero(_hypo_mask(group, char)[class_map]).tolist()
            assert hypo == expected, (name, char)


def _in_view_coordinates(basis, place, rows):
    # the columns of a basis over the quotient group's classes, with
    # class t moved to the view position place[t]
    data = [None] * rows
    for t, row in zip(place, basis.data):
        data[t] = row
    return IntMatrix(data, cols=basis.cols)


@pytest.mark.parametrize("name", VIEW_CASES)
def test_quotient_views_match_quotient_groups(name):
    # G/N read off G: its classes are G's classes over N, its marks G's
    # marks there, its hypo classes _hypo_mask's, and its kernel the
    # quotient group's, up to the order of the coordinates
    group = _view_case(name)
    table = enumerate_classes(group)
    marks = marks_table(group, table).array.tolist()
    for normal in normal_subgroups(group):
        if normal.is_trivial() or not is_minimal_normal(group, normal):
            continue
        quot = quotient(group, normal)
        q_table = enumerate_classes(quot.group)
        q_marks = marks_table(quot.group, q_table).array.tolist()
        for char in CORPUS_CHARACTERISTICS:
            p = effective_prime(group, char)
            basis, over = quotient_kernel(table, normal, p, {})
            in_g = over.tolist()
            place = [
                in_g.index(table.class_index_of(quot.preimage(c.representative)))
                for c in q_table.classes
            ]
            assert sorted(place) == list(range(len(q_table))), name
            assert [[marks[in_g[a]][in_g[b]] for b in place] for a in place] == q_marks
            expected = sorted(place[t] for t in hypo_class_indices(quot.group, char))
            hypo = np.flatnonzero(relations._hypo_mask(table, normal, p, over)).tolist()
            assert hypo == expected, (name, char)
            q_basis = brauer_kernel(quot.group, char).basis
            moved = _in_view_coordinates(q_basis, place, len(in_g))
            assert basis.cols == q_basis.cols, (name, char)
            assert zlattice.hnf(basis)[0] == zlattice.hnf(moved)[0], (name, char)


def _assert_quotient_views_keep_the_classes_containing_n(group):
    # one reader serves the quotient views and classify's normal subgroups over N
    table = enumerate_classes(group)
    for normal in normal_subgroups(group):
        over = table.classes_over(normal)
        want = classes_containing_by_loop(table, normal)
        assert over.tolist() == want
        assert [m.key for m in normal_subgroups(group, normal)] == [
            table.classes[j].representative.key for j in want if table.classes[j].class_size == 1]


@pytest.mark.parametrize("name", VIEW_CASES)
def test_quotient_view_classes_match_containment_loop(name):
    _assert_quotient_views_keep_the_classes_containing_n(_view_case(name))


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_quotient_view_classes_match_containment_loop_on_random_groups(group):
    _assert_quotient_views_keep_the_classes_containing_n(group)


@given(permutation_groups(), st.sampled_from(CORPUS_CHARACTERISTICS))
@settings(max_examples=40, deadline=None)
def test_hypo_mask_matches_quotient_groups_for_every_normal_subgroup(group, char):
    # for every normal N, not only the minimal ones: the mask at the
    # classes over N is the quotient group's hypo classes, and at G's
    # own class it is classify's predicate on G/N
    table = enumerate_classes(group)
    p = effective_prime(group, char)
    for normal in normal_subgroups(group):
        over = table.classes_over(normal).tolist()
        mask = relations._hypo_mask(table, normal, p, over)
        quot = quotient(group, normal)
        place = [
            over.index(table.class_index_of(quot.preimage(c.representative)))
            for c in enumerate_classes(quot.group).classes
        ]
        expected = sorted(place[t] for t in hypo_class_indices(quot.group, char))
        assert np.flatnonzero(mask).tolist() == expected
        assert over[-1] == len(table.classes) - 1
        assert bool(mask[-1]) == quotient_is_p_hypo_elementary(group, normal, p)


@pytest.mark.parametrize("name", CORPUS_NAMES + (
    "A6", "C19:C18", "C2xC2xC2xC2", "D8xS3", "S4xC2", "C2xC2xC2xC2xC2"))
def test_hypo_mask_matches_the_class_loop(name):
    # one masked reduction over a member of each class against the loop
    # over the class representatives, for G and each G/N, N minimal normal;
    # each group is new, so no mask of G comes from the memo
    for char in CORPUS_CHARACTERISTICS:
        group = _cold_copy(preset_group(name))
        table = enumerate_classes(group)
        p = effective_prime(group, char)
        for normal in [table.classes[0].representative] + minimal_normal_subgroups(group):
            over = table.classes_over(normal)
            got = relations._hypo_mask(table, normal, p, over)
            assert got.dtype == bool
            assert got.tolist() == hypo_mask_by_loop(table, normal, p, over).tolist(), (name, char)


def test_all_hypo_views_read_no_marks_rows():
    # C2^4 at char 2: every class of every view is hypo-elementary, so
    # every view kernel is zero and no column of G's marks, or of a
    # view's, is counted
    group = _cold_copy(preset_group("C2xC2xC2xC2"))
    table = enumerate_classes(group)
    marks = marks_table(group, table)
    assert imprimitive_lattice(group, 2).cols == 0
    assert marks.counted == 0
    assert all(view.counted == 0 for _, view in group._memo.get("maximal_views", ()))


def _count_calls(monkeypatch, fname, record, home="permrel.subgroups"):
    # wrap the function in every permrel module that holds it
    original = getattr(sys.modules[home], fname)

    def counting(*args, **kwargs):
        record(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if mod is not None and modname.split(".")[0] == "permrel":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)


def test_imprimitive_lattice_builds_no_group_but_g(monkeypatch):
    built = []
    enumerated = []
    _count_calls(monkeypatch, "subgroup_as_group", built.append)
    _count_calls(monkeypatch, "quotient", built.append)
    _count_calls(monkeypatch, "enumerate_classes", lambda args: enumerated.append(args[0]))
    for name in ("C2xC2xC2xC2", "D8xS3", "S4xC2"):
        group = _cold_copy(preset_group(name))
        for char in (0, 2, 3):
            imprimitive_lattice(group, char)
        assert built == [], name
        assert enumerated and all(g is group for g in enumerated), name
        enumerated.clear()


def test_prediction_ladder_builds_no_group_but_g(monkeypatch):
    groups = [
        _cold_copy(preset_group(name))
        for name in CORPUS_NAMES + ("C2xC2xC2xC2xC2",)
    ]
    built = []
    _count_calls(monkeypatch, "subgroup_as_group", built.append)
    _count_calls(monkeypatch, "quotient", built.append)
    _count_calls(monkeypatch, "generate", built.append, home="permrel.perm")
    for group in groups:
        for char in CORPUS_CHARACTERISTICS:
            prim(group, char)
            main_case_classify(group, effective_prime(group, char))
        assert built == [], group


def _assert_predictions_match_quotient_groups(group):
    # one fresh copy answers every characteristic, so those coprime to
    # |G| read the memo entry the first of them filled
    fresh = _cold_copy(group)
    for char in (0, 2, 3, 5, 7, 11, 13):
        assert predict_prim(fresh, char) == predict_prim_by_quotient_groups(group, char), char
        p = effective_prime(group, char)
        found = [(m.tag, m.witness) for m in main_case_classify(fresh, p)]
        expected = [(m.tag, m.witness) for m in main_case_classify_by_groups(group, p)]
        assert found == expected, char


@pytest.mark.parametrize("name", LADDER_NAMES + ("A6", "C19:C18", "C2xC2xC2xC2"))
def test_predictions_match_quotient_groups(name):
    _assert_predictions_match_quotient_groups(preset_group(name))


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_predictions_match_quotient_groups_on_random_groups(group):
    _assert_predictions_match_quotient_groups(group)


def test_c2_5_prim_at_char_0():
    # the prediction ladder does not cover C2^5, so the invariants are
    # asserted here: relations of an abelian group come from its C2 x C2
    # subquotients, which are proper
    group = preset_group("C2xC2xC2xC2xC2")
    start = time.perf_counter()
    report = prim(group, 0)
    assert time.perf_counter() - start < 30.0
    assert (report.free_rank, report.torsion) == (0, ())


def _cold_copy(group):
    # a new group object: no memo, no constructions cache in common
    return generate(group.degree, group.generators)


def _prim_answer(report):
    generator = report.generator.coeffs if report.generator is not None else None
    return (report.free_rank, report.torsion, generator, report.prediction.source)


@pytest.mark.parametrize("name", CORPUS_NAMES + ("S4xC2", "D8xS3"))
def test_shared_lattices_match_cold_groups(name):
    # the characteristics coprime to |G| share one memo entry on the
    # shared group; every answer must equal that of a cold copy
    shared = _cold_copy(preset_group(name))
    for char in CORPUS_CHARACTERISTICS:
        cold = _cold_copy(shared)
        kernel, cold_kernel = brauer_kernel(shared, char), brauer_kernel(cold, char)
        assert kernel.characteristic == char
        assert kernel.basis == cold_kernel.basis, (name, char)
        assert kernel.hypo_classes == cold_kernel.hypo_classes, (name, char)
        imprim = imprimitive_lattice(shared, char)
        assert imprim == imprimitive_lattice(cold, char), (name, char)
        report = prim(shared, char)
        assert report.characteristic == report.kernel.characteristic == char
        assert _prim_answer(report) == _prim_answer(prim(cold, char)), (name, char)


def test_coprime_characteristics_reuse_the_lattices(monkeypatch):
    names = ("kernel_basis", "hnf", "quotient_invariants", "_certified_lattice")
    calls = dict.fromkeys(names, 0)
    for fname in names:
        original = getattr(relations, fname)

        def counting(*args, _fname=fname, _original=original):
            calls[_fname] += 1
            return _original(*args)

        monkeypatch.setattr(relations, fname, counting)
    group = _cold_copy(preset_group("C2xC2xC2xC2"))
    prim(group, 0)
    assert calls["_certified_lattice"] == 1 and calls["hnf"] == 0, calls
    calls.update(dict.fromkeys(names, 0))
    for char in (3, 5, 7):
        assert prim(group, char).characteristic == char
    assert calls == dict.fromkeys(names, 0)
    prim(group, 2)  # 2 divides |G|: a lattice of its own
    # at 2 every class of the 2-group and of its views is hypo-elementary,
    # so the kernel is zero before any route is reached, and so is L
    assert calls == {**dict.fromkeys(names, 0), "_certified_lattice": 1}, calls
    # S4 has Z/2 torsion at 0: the lattice of the exact route is reused too
    group = _cold_copy(preset_group("S4"))
    calls.update(dict.fromkeys(names, 0))
    prim(group, 0)
    assert calls["hnf"] > 0 and calls["quotient_invariants"] > 0, calls
    calls.update(dict.fromkeys(names, 0))
    for char in (5, 7):
        assert prim(group, char).characteristic == char
    assert calls == dict.fromkeys(names, 0)


def test_each_cached_answer_is_built_once(monkeypatch):
    # every per-group answer goes through Group.cached, which builds a
    # (group, key) once, also when the answer is None, whatever the
    # characteristics asked for and whatever the order of the questions
    real, built = Group.cached, []

    def spying(group, key, build):
        def recorded():
            built.append((group, key, build()))
            return built[-1][2]

        return real(group, key, recorded)

    monkeypatch.setattr(Group, "cached", spying)
    for name in CORPUS_NAMES:
        group = _cold_copy(preset_group(name))
        for char in CORPUS_CHARACTERISTICS:
            prim(group, char)
            main_case_classify(group, effective_prime(group, char))
            prim(group, char)
        # induction from a maximal subgroup, asked twice
        table = enumerate_classes(group)
        maximal = table.classes[table.maximal_classes()[0]].representative
        m_table = enumerate_classes(subgroup_as_group(maximal))
        for _ in range(2):
            induct(m_table, table, BurnsideElement.basis(m_table, 0))
    keys = [(id(group), key) for group, key, _ in built]
    assert len(set(keys)) == len(keys)
    kinds = {key if isinstance(key, str) else key[0] for _, key, _ in built}
    assert {"class_table", "marks", "hypo", "brauer_kernel", "maximal_views", "imprimitive",
            "prediction", "prim", "main_case", "vector_semidirect", "classes_over",
            "induction_map"} <= kinds
    assert any(answer is None for _, key, answer in built if key[0] == "vector_semidirect")


@pytest.mark.parametrize("name, chars", (("S4", (5, 7)), ("C2xC2xC2xC2", (3, 5)),
                                         ("C7:C6", (5, 11))))
def test_prim_at_one_lattice_prime_shares_its_answers(name, chars):
    # neither characteristic divides |G|: one lattice prime, one report,
    # which differs only in the characteristic it is stamped with
    group = _cold_copy(preset_group(name))
    first, second = (prim(group, char) for char in chars)
    assert (first.characteristic, first.kernel.characteristic) == (chars[0],) * 2
    assert (second.characteristic, second.kernel.characteristic) == (chars[1],) * 2
    assert first.kernel.basis is second.kernel.basis is brauer_kernel(group, 0).basis
    assert first.imprimitive is second.imprimitive is imprimitive_lattice(group, 0)
    for report, char in zip((first, second), reversed(chars)):
        stamped = replace(report, characteristic=char,
                          kernel=replace(report.kernel, characteristic=char))
        again = prim(group, char)
        assert all(getattr(stamped, f.name) is getattr(again, f.name)
                   for f in fields(report) if f.name not in ("characteristic", "kernel"))
        assert stamped.kernel == again.kernel


def _assert_lattices_independent_of_char_order(group):
    up, down = _cold_copy(group), _cold_copy(group)
    chars = (0, 2, 3, 5, 7)
    first = {char: imprimitive_lattice(up, char) for char in chars}
    for char in reversed(chars):
        assert imprimitive_lattice(down, char) == first[char], char


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_imprimitive_lattice_independent_of_char_order(name):
    _assert_lattices_independent_of_char_order(preset_group(name))


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_imprimitive_lattice_independent_of_char_order_on_random_groups(group):
    _assert_lattices_independent_of_char_order(group)


@pytest.mark.parametrize("name", ("S4", "A5", "C5xQ8", "C2xC2xC2xC2", "D8xS3"))
def test_views_and_hypo_classes_are_built_once(monkeypatch, name):
    # the maximal views are kept once per group, and the hypo-elementary
    # classes over N = 1 once per lattice prime, whatever the
    # characteristics; the certificate takes the quotients by minimal
    # normal N only until t != 0 (S4 at 0 takes the exact route, with
    # the kernels the certificate took), and over each N the classes
    # are built at most once per lattice prime
    group = _cold_copy(preset_group(name))
    views, hypo = [], []
    for fname, record in (("maximal_view", views.append), ("orders_modulo", hypo.append)):
        original = getattr(relations, fname)

        def counting(*args, _original=original, _record=record):
            _record(args)
            return _original(*args)

        monkeypatch.setattr(relations, fname, counting)
    built = []  # (lattice prime, N) of each mask
    for char in CORPUS_CHARACTERISTICS:
        prim(group, char)
        prime = relations._lattice_prime(group, char)
        built += [(prime, args[1].indices.tobytes()) for args in hypo]
        hypo.clear()
    table = enumerate_classes(group)
    maximal = table.maximal_classes()
    # C5xQ8's ranks complete on its quotients, so no view is built
    # until asked for here
    relations._maximal_views(table)
    assert sorted(table.class_index_of(args[1].representative) for args in views) == list(maximal)
    primes = {relations._lattice_prime(group, char) for char in CORPUS_CHARACTERISTICS}
    trivial = table.classes[0].representative.indices.tobytes()
    assert sorted(prime for prime, normal in built if normal == trivial) == sorted(primes)
    normals = {n.indices.tobytes() for n in minimal_normal_subgroups(group)} | {trivial}
    assert len(set(built)) == len(built) and {normal for _, normal in built} <= normals
    # what the group keeps: class map and int32 marks per view
    kept = group._memo["maximal_views"]
    assert len(kept) == len(maximal)
    hypo_somewhere = np.logical_or.reduce(
        [relations._own_hypo_mask(group, prime) for prime in primes])
    for (class_map, marks), i in zip(kept, maximal):
        # only columns some lattice prime's hypo-elementary classes asked
        # for, or all of a table small enough to be counted whole
        assert (marks.counted <= np.count_nonzero(hypo_somewhere[class_map])
                or marks.counted == len(class_map))
        view_map, view_marks, _ = maximal_view(table, table.classes[i])
        assert marks.array.tolist() == view_marks.array.tolist()
        assert class_map.tolist() == view_map.tolist()


def test_lattice_memo_still_checks_the_characteristic():
    group = _s3()
    prim(group, 0)
    for call in (brauer_kernel, imprimitive_lattice, prim):
        with pytest.raises(InputError):
            call(group, 4)


def _c6():
    return generate(6, [parse_cycles(6, "(0 1 2 3 4 5)")])


def _s3_relation_on_c6():
    # S3 and C6 both have four subgroup classes
    s3, c6 = _s3(), _c6()
    element = brauer_kernel(s3, 0).elements(enumerate_classes(s3))[0]
    assert len(enumerate_classes(c6)) == len(element.coeffs)
    return c6, element


def test_verify_relation_rejects_another_groups_element():
    c6, element = _s3_relation_on_c6()
    with pytest.raises(InputError):
        verify_relation(c6, 0, element)


def test_generates_quotient_rejects_another_groups_element():
    c6, element = _s3_relation_on_c6()
    with pytest.raises(InputError):
        generates_quotient(c6, 0, element)


def test_s3_prim_is_free_of_rank_one():
    report = prim(_s3(), 0)
    assert (report.free_rank, report.torsion) == (1, ())
    assert report.prediction.source == "ThmMainB"
    # the unique basis relation has coefficient 2 at the full group, so
    # no canonical unit generator exists
    assert report.generator is None


def test_a4_prim_char5():
    a4 = _a4()
    report = prim(a4, 5)
    assert (report.free_rank, report.torsion) == (1, ())
    assert report.prediction.source == "Thm2.9a"
    assert report.generator is not None
    assert report.generator.coeffs == (0, 1, -1, -1, 1)
    assert generates_quotient(a4, 5, report.generator)


def test_generates_quotient_rejects_what_spans_too_little():
    # S3 at char 0: K/L = Z, with L = 0 and K spanned by one relation
    s3 = _s3()
    table = enumerate_classes(s3)
    (relation,) = brauer_kernel(s3, 0).elements(table)
    assert imprimitive_lattice(s3, 0).cols == 0
    assert generates_quotient(s3, 0, relation)
    assert not generates_quotient(s3, 0, BurnsideElement.zero(table))
    assert not generates_quotient(s3, 0, 2 * relation)
    # A4 at char 5: K/L = Z, with L spanned by one induced column
    a4 = _a4()
    table = enumerate_classes(a4)
    generator = prim(a4, 5).generator
    (induced,) = [BurnsideElement(table, c) for c in imprimitive_lattice(a4, 5).columns()]
    assert generates_quotient(a4, 5, generator + induced)
    assert not generates_quotient(a4, 5, 2 * generator + induced)
    assert not generates_quotient(a4, 5, induced)


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


def _coeffs(element):
    return None if element is None else element.coeffs


@pytest.mark.parametrize(
    "name",
    CORPUS_NAMES + ("A6", "C19:C18", "C2xC2xC2xC2", "D8xS3", "S4xC2", "C2xC2xC2xC2xC2"),
)
def test_generator_matches_columns_oracle(name):
    group = preset_group(name)
    table = enumerate_classes(group)
    for char in CORPUS_CHARACTERISTICS:
        kernel = brauer_kernel(group, char)
        want = extract_generator_by_columns(table, kernel)
        assert _coeffs(relations._extract_generator(table, kernel)) == _coeffs(want), char


@given(permutation_groups(), st.sampled_from(CORPUS_CHARACTERISTICS))
@settings(max_examples=40, deadline=None)
def test_generator_matches_columns_oracle_on_random_groups(group, char):
    table = enumerate_classes(group)
    kernel = brauer_kernel(group, char)
    want = extract_generator_by_columns(table, kernel)
    assert _coeffs(relations._extract_generator(table, kernel)) == _coeffs(want)


@given(
    st.integers(1, 5).flatmap(
        lambda k: st.lists(
            st.lists(st.sampled_from((-3, -2, -1, -1, 0, 1, 1, 2, 4, 6)), min_size=k, max_size=k),
            min_size=1,
            max_size=6,
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_generator_matches_columns_oracle_on_any_columns(columns):
    # ties, unit entries of both signs and combinations of non-units,
    # on columns no kernel need have; a stand-in table gives the length
    k = len(columns[0])
    table = SimpleNamespace(classes=[None] * k)
    kernel = SimpleNamespace(basis=IntMatrix.from_columns(columns, rows=k))
    want = extract_generator_by_columns(table, kernel)
    assert _coeffs(relations._extract_generator(table, kernel)) == _coeffs(want)


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


def test_theta_highdim_builds_no_group_but_g(monkeypatch):
    # the stabilizer D is asked its questions as G/W
    built = []
    _count_calls(monkeypatch, "subgroup_as_group", built.append)
    theta_highdim(2, [[[0, 1], [1, 1]]], 5)
    theta_highdim(3, [[[0, 2], [1, 0]]], 0)
    theta_highdim(3, [[[2, 0], [0, 1]], [[1, 0], [0, 2]]], 5)
    with pytest.raises(InputError):
        theta_highdim(3, [[[1, 1], [0, 1]], [[1, 0], [0, 2]]], 5)
    assert built == []


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


@pytest.mark.parametrize("l,mats", [
    (2, [[[1, 1], [1, 1]]]),
    (3, [[[1, 2], [2, 1]]]),
    (3, [[[3, 0], [0, 1]]]),
    (5, [[[5]]]),
    (3, [[[0, 2], [1, 0]], [[1, 1], [1, 1]]]),
])
def test_affine_group_rejects_a_singular_matrix(l, mats):
    with pytest.raises(InputError, match="singular modulo %d" % l):
        affine_group(l, len(mats[0]), mats)


@pytest.mark.parametrize("l,d,mats", THETA_HIGHDIM_CASES + [
    (5, 1, [[[2]]]),
    (7, 1, [[[3]]]),
    (5, 2, [[[2, 0], [0, 3]]]),
    (2, 3, [[[0, 0, 1], [1, 0, 0], [0, 1, 0]]]),
    (3, 3, [[[2, 0, 0], [0, 1, 0], [0, 0, 1]]]),
])
def test_affine_module_matches_translations_on_points(l, d, mats):
    group, module, _ = affine_group(l, d, mats)
    assert module == translation_module_by_points(group, l, d)


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


def _matrix_group_order(mats, l, cap):
    """Order of the group the matrices generate modulo l, or None once it
    passes ``cap``."""
    d = len(mats[0])
    identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for a in frontier:
            for m in mats:
                prod = tuple(
                    tuple(sum(a[i][k] * m[k][j] for k in range(d)) % l
                          for j in range(d))
                    for i in range(d)
                )
                if prod not in seen:
                    seen.add(prod)
                    fresh.append(prod)
        if len(seen) > cap:
            return None
        frontier = fresh
    return len(seen)


def _random_matrix_sets(seed, count, max_group_order=400):
    """``count`` sets of one or two invertible d x d matrices over Z/l,
    l in {2, 3, 5} and d in {2, 3}, whose affine group (C_l)^d x| D has
    at most ``max_group_order`` elements, so its subgroups enumerate
    quickly."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        l, d = rng.choice((2, 3, 5)), rng.choice((2, 3))
        size = rng.randint(1, 2)
        mats = []
        while len(mats) < size:
            m = [[rng.randrange(l) for _ in range(d)] for _ in range(d)]
            if _gf_rank(m, l) == d:
                mats.append(m)
        if _matrix_group_order(mats, l, max_group_order // l ** d) is not None:
            out.append((l, mats))
    return out


# the hand cases above and in test_acceptance.py, the rank one and
# fixed line rejections, then random matrix sets
THETA_HIGHDIM_DIFFERENTIAL = (
    [(l, mats) for l, _, mats in THETA_HIGHDIM_CASES]
    + [(3, [[[2]]]), (3, [[[1, 1], [0, 1]], [[1, 0], [0, 2]]])]
    + _random_matrix_sets(2024, 40)
)


@pytest.mark.parametrize("l,mats", THETA_HIGHDIM_DIFFERENTIAL)
def test_theta_highdim_matches_functional_orbits(l, mats):
    """The hyperplane classes read off G's class table give the relation
    the walk over projective functionals gives, or the same error."""
    def outcome(build, char):
        try:
            return build(l, mats, char).coeffs
        except PermrelError as exc:
            return type(exc)

    for char in (0, 2, 3, 5, 7):
        want = outcome(theta_highdim_by_functional_orbits, char)
        assert outcome(theta_highdim, char) == want, char
