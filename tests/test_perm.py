"""Permutations, cycle notation, group generation, and Cayley tables."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    element_orders_by_permutation,
    elements_by_closure,
    inverses_by_lookup,
    mult_rows_by_lookup,
    relabelled,
)
from permrel import _kernels
from permrel.errors import CapExceeded, InputError, InternalCheckError
from permrel.perm import (
    Group,
    Permutation,
    compose,
    cycle_string,
    from_cycles,
    generate,
    identity,
    parse_cycles,
)
from permrel.presets import CORPUS_NAMES, preset_group
from permrel.classify import derived_subgroup
from permrel.subgroups import Subgroup, centralizer_indices, enumerate_classes, quotient

# the benchmark's ladders, plus the largest presets the tests build
WORKLOAD_NAMES = (
    "A6", "C19:C18", "S5", "C2xC2xC2xC2", "D8xS3", "S4xC2", "C2xC2xC2xC2xC2",
)
TABLE_PRESETS = tuple(dict.fromkeys(
    CORPUS_NAMES + WORKLOAD_NAMES + ("S6", "C2xC2xC2xC2xC2xC2", "D8xD8")
))


def test_permutation_validates_bijection():
    with pytest.raises(InputError):
        Permutation([0, 0, 1])


def test_compose_order():
    # (a*b)(i) = a(b(i))
    a = Permutation([1, 0, 2])
    b = Permutation([0, 2, 1])
    assert (a * b).images == (1, 2, 0)
    assert compose(a, b).images == (1, 2, 0)


def test_inverse_and_order():
    c = from_cycles(4, [(0, 1, 2, 3)])
    assert (c * c.inverse()).is_identity()
    assert c.order() == 4
    assert from_cycles(6, [(0, 1), (2, 3, 4)]).order() == 6


def test_cycle_string_round_trip():
    texts = ["(0 1)(2 3)", "(1 2 3)", "()", "(0 4)(1 3)"]
    for text in texts:
        p = parse_cycles(5, text)
        assert parse_cycles(5, cycle_string(p)) == p


def test_parse_cycles_rejects_garbage():
    with pytest.raises(InputError):
        parse_cycles(3, "(0 1) junk")
    with pytest.raises(InputError):
        parse_cycles(3, "(0 3)")  # point out of range
    with pytest.raises(InputError):
        parse_cycles(3, "(0 0 1)")


def test_parse_cycles_accepts_commas():
    assert parse_cycles(4, "(0, 1, 2)") == parse_cycles(4, "(0 1 2)")


def test_identity_string():
    assert cycle_string(identity(4)) == "()"


def test_generate_s3():
    g = generate(3, [parse_cycles(3, "(0 1)"), parse_cycles(3, "(0 1 2)")])
    assert g.order == 6
    assert g.elements[0].is_identity()
    # elements are lexicographically sorted by image tuples and unique
    images = [p.images for p in g.elements]
    assert images == sorted(set(images))


def test_generate_sorts_by_one_key_per_row():
    # a key per point would make sorting the two rows of <(0 1)> at
    # degree 30,000 take 30,000 index arrays, some 80 MB
    tracemalloc.start()
    try:
        group = generate(30000, [parse_cycles(30000, "(0 1)")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.order == 2
    assert peak < 20 * 2**20, peak


def test_generate_rejects_degree_zero():
    with pytest.raises(InputError):
        generate(0, [])


def test_generate_cap_is_on_the_group_order():
    gens = [parse_cycles(5, "(0 1)"), parse_cycles(5, "(0 1 2 3 4)")]
    assert generate(5, gens, element_cap=120).order == 120
    with pytest.raises(CapExceeded, match="^group closure exceeded the element cap of 119$"):
        generate(5, gens, element_cap=119)
    assert generate(3, [identity(3)], element_cap=0).order == 1


def test_generate_respects_cap():
    with pytest.raises(CapExceeded):
        generate(5, [parse_cycles(5, "(0 1)"), parse_cycles(5, "(0 1 2 3 4)")],
                 element_cap=10)


def test_cayley_table_consistency():
    d8 = generate(4, [parse_cycles(4, "(0 1 2 3)"), parse_cycles(4, "(0 2)")])
    # degree 19: each image row is a 76-byte lookup key
    for g in (d8, preset_group("C19:C18")):
        mult = g.mult
        inv = g.inv
        for i in range(g.order):
            for j in range(g.order):
                assert g.elements[mult[i, j]] == g.elements[i] * g.elements[j]
            assert mult[i, inv[i]] == 0
            assert g.element_orders[i] == g.elements[i].order()


def test_group_index_lookup():
    g = generate(3, [parse_cycles(3, "(0 1 2)")])
    for i, p in enumerate(g.elements):
        assert g.index(p) == i
    with pytest.raises(InputError):
        g.index(parse_cycles(3, "(0 1)"))
    # six points would split into two rows of three; (0 1 2) is in g
    with pytest.raises(InputError, match="another degree"):
        g.index(from_cycles(6, [(0, 1, 2)]))
    # a non-member past every element searches to the end of the rows
    flip = generate(3, [parse_cycles(3, "(0 1)")])
    with pytest.raises(InputError, match="not an element"):
        flip.index(parse_cycles(3, "(0 2 1)"))


def test_group_checks_its_image_rows():
    s3 = generate(3, [parse_cycles(3, "(0 1)"), parse_cycles(3, "(0 1 2)")])
    assert np.array_equal(Group(3, s3.generators, s3.images.tolist()).mult, s3.mult)
    for rows, problem in (
        ([0, 2, 1, 3, 4, 5], "strictly increase"),
        ([0, 1, 1, 2, 3, 4, 5], "strictly increase"),
        ([1, 2, 3, 4, 5], "start with the identity"),
        ([], "nonempty"),
    ):
        with pytest.raises(InputError, match=problem):
            Group(3, s3.generators, s3.images[rows])
    with pytest.raises(InputError, match="nonempty"):
        Group(2, s3.generators, s3.images)
    # a row that is no permutation is caught by the constructor: a
    # repeated image, or an image past the degree or below 0
    for bogus in ([1, 1, 1], [5, 5, 5], [-1, 0, 1], [0, 1, 3]):
        with pytest.raises(InputError, match="not a permutation"):
            Group(3, s3.generators, [[0, 1, 2], bogus])


@pytest.mark.parametrize("degree", (4, 2**19))
def test_group_rejects_a_negative_entry_that_would_wrap(degree):
    # -1 indexes the last point, so a scatter of [1, 0, 2, ..., -1] alone
    # would see a permutation; at degree 2^19 the check takes two rows a
    # block, and the bad row is the third
    swap = np.arange(degree)
    swap[:2] = 1, 0
    for bad in (-1, degree):
        row = swap.copy()
        row[-1] = bad
        with pytest.raises(InputError, match="not a permutation"):
            Group(degree, [], [np.arange(degree), swap, row])


@given(st.integers(1, 6).flatmap(
    lambda d: st.lists(st.integers(-1, d), min_size=d, max_size=d).map(lambda row: (d, row))
))
@settings(max_examples=100, deadline=None)
def test_group_accepts_exactly_the_permutation_rows(degree_and_row):
    # the identity and one more row: a Group exactly when the row is a
    # permutation other than the identity
    degree, row = degree_and_row
    identity_row = list(range(degree))
    try:
        Permutation(row)
        is_permutation = True
    except InputError:
        is_permutation = False
    if not is_permutation:
        with pytest.raises(InputError, match="not a permutation"):
            Group(degree, [], [identity_row, row])
    elif row != identity_row:
        assert Group(degree, [], [identity_row, row]).order == 2


def test_conjugate_indices_sorted():
    g = generate(3, [parse_cycles(3, "(0 1)"), parse_cycles(3, "(0 1 2)")])
    rotation = g.index(parse_cycles(3, "(0 1 2)"))
    sub = np.asarray([0, rotation, g.index(parse_cycles(3, "(0 2 1)"))],
                     dtype=np.int32)
    for gi in range(g.order):
        conj = g.conjugate_indices(gi, sub)
        assert list(conj) == sorted(conj)
        assert len(conj) == len(sub)


def _assert_tables_match_oracles(group):
    mult, inv, orders = group.mult, group.inv, group.element_orders
    dtypes = (group.index_dtype, group.index_dtype, np.int64)
    assert (mult.dtype, inv.dtype, orders.dtype) == dtypes
    assert np.array_equal(mult, mult_rows_by_lookup(group, range(group.order)))
    assert np.array_equal(inv, inverses_by_lookup(group))
    assert np.array_equal(orders, element_orders_by_permutation(group))


@pytest.mark.parametrize("name", TABLE_PRESETS)
def test_tables_match_lookup_oracle_on_presets(name):
    _assert_tables_match_oracles(preset_group(name))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tables_match_lookup_oracle_on_relabelled_workload_groups(name, seed):
    _assert_tables_match_oracles(relabelled(preset_group(name), seed))


@st.composite
def generator_lists(draw, max_degree=6):
    """A degree and one to three random permutations of it, shuffled in
    with repeats of them and the identity."""
    degree = draw(st.integers(1, max_degree))
    perms = st.permutations(range(degree)).map(Permutation)
    gens = draw(st.lists(perms, min_size=1, max_size=3))
    extra = draw(st.lists(st.sampled_from(gens + [identity(degree)]), min_size=1, max_size=3))
    return degree, draw(st.permutations(gens + extra))


@given(generator_lists())
@settings(max_examples=60, deadline=None)
def test_generate_and_tables_match_oracles_on_random_generator_lists(degree_and_gens):
    degree, gens = degree_and_gens
    group = generate(degree, gens)
    assert [p.images for p in group.elements] == elements_by_closure(degree, gens)
    group.mult
    assert group._inv is None  # mult and inv stay separate lazy builds
    _assert_tables_match_oracles(group)


@pytest.mark.parametrize("order, dtype", [(255, np.int32), (256, np.uint16)])
def test_index_arrays_share_the_group_index_dtype_on_both_sides_of_the_cut(order, dtype):
    # the cyclic group of one order-cycle: int32 indices below 256
    # elements, uint16 from 256 on, in the tables and every index array
    group = generate(order, [Permutation([(i + 1) % order for i in range(order)])])
    assert group.index_dtype == dtype
    _assert_tables_match_oracles(group)
    table = enumerate_classes(group)
    arrays = [_kernels.closure(group.mult, [3]), _kernels.closure(group.mult, [1]),
              _kernels.coset_reps(group.mult, table.classes[1].representative.indices),
              centralizer_indices(group, [5]), group.conjugate_indices(7, [0, 9]),
              Subgroup(group, [0]).indices, Subgroup.generated(group, [2]).indices,
              derived_subgroup(Subgroup.full(group)).indices]
    q = quotient(group, table.classes[1].representative)
    arrays.append(q.preimage(Subgroup.generated(q.group, [1])).indices)
    for cls in table.classes:
        sub = cls.representative
        arrays += [sub.indices, sub.generator_indices, cls.generators, cls.normalizer.indices,
                   _kernels.normalizer_members(group.mult, group.inv, sub.indices, cls.generators),
                   group.conjugate_indices(1, sub.indices)]
    assert [a.dtype for a in arrays] == [group.index_dtype] * len(arrays)
    # each key decodes with the dtype to its subgroup's indices
    for key in table.sub_to_class:
        indices = np.frombuffer(key, dtype=group.index_dtype)
        assert _kernels.closure(group.mult, indices).tobytes() == key


def test_inv_raises_when_a_row_of_mult_misses_the_identity():
    s3 = generate(3, [parse_cycles(3, "(0 1)"), parse_cycles(3, "(0 1 2)")])
    mult = s3.mult.copy()
    mult[2, mult[2] == 0] = 1
    s3._mult = mult
    with pytest.raises(InternalCheckError, match="misses the identity"):
        s3.inv


def test_walk_raises_when_the_generators_do_not_generate_the_group():
    s3 = generate(3, [parse_cycles(3, "(0 1)"), parse_cycles(3, "(0 1 2)")])
    for gens in ([parse_cycles(3, "(0 1 2)")], [parse_cycles(3, "(0 1)")], []):
        with pytest.raises(InternalCheckError, match="reach"):
            Group(3, gens, s3.images).mult
