"""Burnside ring arithmetic: marks, products, induction, restriction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permrel import burnside
from permrel.burnside import (
    BurnsideElement,
    _from_marks,
    count_marks,
    element_from_subgroups,
    fixed_points,
    induct,
    inflate,
    mark_vector,
    marks_table,
    multiply,
    restrict,
)
from permrel.errors import InputError, InternalCheckError
from permrel.perm import generate, parse_cycles
from permrel.presets import CORPUS_NAMES, preset_group
from permrel.subgroups import (
    Subgroup,
    enumerate_classes,
    is_minimal_normal,
    normal_subgroups,
    quotient,
    subgroup_as_group,
)

from permrel.relations import maximal_view

from oracles import (
    class_orbit_by_conjugation,
    from_marks_by_whole_table,
    marks_by_members,
    marks_table_by_fixed_points,
    members_by_keys,
    permutation_groups,
    relabelled,
)


def _s3():
    return generate(3, [parse_cycles(3, "(0 1)"), parse_cycles(3, "(0 1 2)")])


def _s4():
    return generate(4, [parse_cycles(4, "(0 1 2 3)"), parse_cycles(4, "(0 1)")])


def _a4():
    return generate(4, [parse_cycles(4, "(0 1 2)"), parse_cycles(4, "(0 1)(2 3)")])


def test_s3_marks_table():
    s3 = _s3()
    marks = marks_table(s3)
    assert marks.array.tolist() == [
        [6, 0, 0, 0],
        [3, 1, 0, 0],
        [2, 0, 2, 0],
        [1, 1, 1, 1],
    ]


def test_marks_first_column_and_diagonal():
    for group in (_s4(), preset_group("Q8"), preset_group("C7:C6")):
        table = enumerate_classes(group)
        marks = marks_table(group, table).array.tolist()
        for i, cls in enumerate(table):
            assert marks[i][0] == group.order // cls.order
            assert marks[i][i] == cls.normalizer.order // cls.order
            assert all(marks[i][j] == 0 for j in range(i + 1, len(table)))


def test_marks_table_rejects_foreign_table():
    s4 = _s4()
    marks_table(s4)
    with pytest.raises(InputError):
        marks_table(s4, enumerate_classes(_s3()))


def _with_subquotients(group):
    """G, its first three maximal subgroup classes as groups of their
    own, and G modulo its first three minimal normal subgroups; the last
    two list their elements in an order other than G's.  C2^5 has 31 of
    each, all of them C2^4, so taking three bounds the oracle's time."""
    table = enumerate_classes(group)
    maximal = table.maximal_classes()[:3]
    minimal = [n for n in normal_subgroups(group)
               if not n.is_trivial() and is_minimal_normal(group, n)][:3]
    return ([group]
            + [subgroup_as_group(table.classes[i].representative) for i in maximal]
            + [quotient(group, n).group for n in minimal])


MARKS_CASES = [(name, None) for name in CORPUS_NAMES]
MARKS_CASES += [("C2xC2xC2xC2xC2", None), ("S4xC2", 7), ("D8xS3", 7)]


@pytest.mark.parametrize("name, seed", MARKS_CASES, ids=[c[0] for c in MARKS_CASES])
def test_marks_table_matches_fixed_points(name, seed):
    group = preset_group(name)
    if seed is not None:
        group = relabelled(group, seed)
    for g in _with_subquotients(group):
        table = enumerate_classes(g)
        assert marks_table(g, table).array.tolist() == marks_table_by_fixed_points(g, table), g


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_marks_table_matches_fixed_points_on_random_groups(group):
    table = enumerate_classes(group)
    assert marks_table(group, table).array.tolist() == marks_table_by_fixed_points(group, table)


def test_mark_vector_reads_rows():
    s4 = _s4()
    table = enumerate_classes(s4)
    marks = marks_table(s4, table).array.tolist()
    for i in range(len(table)):
        assert mark_vector(BurnsideElement.basis(table, i)) == marks[i]


def test_multiply_s3_transitive_square():
    s3 = _s3()
    table = enumerate_classes(s3)
    # classes by order: trivial, C2, C3, S3
    b_c2 = BurnsideElement.basis(table, 1)
    square = multiply(b_c2, b_c2)
    assert square.coeffs == (1, 1, 0, 0)


def test_marks_of_no_element_are_rejected():
    # (1, 0, 0, 0) are the marks of 1/6 [S3/1]: no integral solution
    table = enumerate_classes(_s3())
    assert _from_marks(table, [6, 0, 0, 0]).coeffs == (1, 0, 0, 0)
    with pytest.raises(InternalCheckError):
        _from_marks(table, [1, 0, 0, 0])


@given(permutation_groups(), st.data())
@settings(max_examples=60, deadline=None)
def test_from_marks_matches_the_whole_table_oracle(group, data):
    # the marks of a product of random elements, and those marks moved
    # off the ring at one class: the same element, or a rejection by both
    table = enumerate_classes(group)
    k = len(table)
    coeffs = st.lists(st.integers(-4, 4), min_size=k, max_size=k)
    a, b = (BurnsideElement(table, data.draw(coeffs)) for _ in range(2))
    marks = [x * y for x, y in zip(mark_vector(a), mark_vector(b))]
    assert _from_marks(table, marks) == from_marks_by_whole_table(table, marks)
    marks[data.draw(st.integers(0, k - 1))] += data.draw(st.integers(1, 3))
    try:
        want = from_marks_by_whole_table(table, marks)
    except InternalCheckError:
        with pytest.raises(InternalCheckError):
            _from_marks(table, marks)
    else:
        assert _from_marks(table, marks) == want


def test_multiply_identity_and_zero():
    s4 = _s4()
    table = enumerate_classes(s4)
    one = BurnsideElement.basis(table, len(table) - 1)  # [G/G]
    zero = BurnsideElement.zero(table)
    for i in range(len(table)):
        b = BurnsideElement.basis(table, i)
        assert multiply(one, b) == b
        assert multiply(b, one) == b
        assert multiply(zero, b).is_zero()


def test_multiply_marks_are_multiplicative():
    a4 = _a4()
    table = enumerate_classes(a4)
    k = len(table)
    for i in range(k):
        for j in range(k):
            a = BurnsideElement.basis(table, i)
            b = BurnsideElement.basis(table, j)
            prod = multiply(a, b)
            va, vb, vp = mark_vector(a), mark_vector(b), mark_vector(prod)
            assert vp == [x * y for x, y in zip(va, vb)]


def test_multiply_is_commutative_and_distributive():
    s4 = _s4()
    table = enumerate_classes(s4)
    a = BurnsideElement.basis(table, 2)
    b = BurnsideElement.basis(table, 5)
    c = BurnsideElement.basis(table, 7)
    assert multiply(a, b) == multiply(b, a)
    assert multiply(a, b + c) == multiply(a, b) + multiply(a, c)


def test_fixed_points_extremes():
    s4 = _s4()
    full = Subgroup.full(s4)
    triv = Subgroup.trivial(s4)
    table = enumerate_classes(s4)
    for cls in table:
        k = cls.representative
        # one point in G/G, always fixed
        assert fixed_points(s4, full, k) == 1
        # G/1 is free: only the trivial K fixes anything
        expected = s4.order if k.order == 1 else 0
        assert fixed_points(s4, triv, k) == expected


def test_restrict_s3_to_cyclic_parts():
    s3 = _s3()
    table = enumerate_classes(s3)
    c3 = table.classes[2].representative
    c2 = table.classes[1].representative
    assert c3.order == 3 and c2.order == 2
    t3 = enumerate_classes(subgroup_as_group(c3))
    t2 = enumerate_classes(subgroup_as_group(c2))
    b_c2 = BurnsideElement.basis(table, 1)  # [S3/C2]
    b_c3 = BurnsideElement.basis(table, 2)  # [S3/C3]
    # [S3/C2] as a C3-set is one free orbit of size 3
    assert restrict(table, t3, b_c2).coeffs == (1, 0)
    # [S3/C2] as a C2-set is a fixed point plus a free orbit
    assert restrict(table, t2, b_c2).coeffs == (1, 1)
    # [S3/C3] as a C3-set is two fixed points
    assert restrict(table, t3, b_c3).coeffs == (0, 2)


def test_induct_from_cyclic_to_s3():
    s3 = _s3()
    table = enumerate_classes(s3)
    c3 = table.classes[2].representative
    t3 = enumerate_classes(subgroup_as_group(c3))
    # [C3/1] inducts to [S3/1], [C3/C3] inducts to [S3/C3]
    assert induct(t3, table, BurnsideElement.basis(t3, 0)).coeffs == (1, 0, 0, 0)
    assert induct(t3, table, BurnsideElement.basis(t3, 1)).coeffs == (0, 0, 1, 0)


def test_induct_fuses_conjugates():
    # the three order-2 subgroups of V4 are distinct classes inside V4
    # but fuse into one class of A4
    a4 = _a4()
    table = enumerate_classes(a4)
    v4 = [s for s in normal_subgroups(a4) if s.order == 4][0]
    tv = enumerate_classes(subgroup_as_group(v4))
    order2 = [i for i, cls in enumerate(tv.classes) if cls.order == 2]
    assert len(order2) == 3
    images = {
        induct(tv, table, BurnsideElement.basis(tv, i)).coeffs for i in order2
    }
    assert len(images) == 1
    (coeffs,) = images
    idx = coeffs.index(1)
    assert table.classes[idx].order == 2


def _induced_basis(table_h, table_g):
    return sorted(
        induct(table_h, table_g, BurnsideElement.basis(table_h, i)).coeffs
        for i in range(len(table_h))
    )


def test_induct_from_groups_not_made_from_g():
    # H generated on its own, and H made from a subgroup D8 of S4, must
    # induce like H made from S4 directly
    s4 = _s4()
    table = enumerate_classes(s4)
    d8 = [c.representative for c in table.classes if c.order == 8][0]
    d8_group = subgroup_as_group(d8)
    d8_table = enumerate_classes(d8_group)
    for cls in d8_table.classes:
        inner = subgroup_as_group(cls.representative)
        in_s4 = Subgroup(s4, d8.indices[cls.representative.indices])
        direct = _induced_basis(enumerate_classes(subgroup_as_group(in_s4)), table)
        alone = generate(s4.degree, cls.representative.generators())
        assert _induced_basis(enumerate_classes(inner), table) == direct
        assert _induced_basis(enumerate_classes(alone), table) == direct


def test_induction_scales_the_free_mark():
    s4 = _s4()
    table = enumerate_classes(s4)
    for cls in table.classes[:6]:
        sub_t = enumerate_classes(subgroup_as_group(cls.representative))
        index = s4.order // cls.order
        for i in range(len(sub_t)):
            x = BurnsideElement.basis(sub_t, i)
            y = induct(sub_t, table, x)
            assert mark_vector(y)[0] == index * mark_vector(x)[0]


def _orbit_decomposition_oracle(group, table_g, table_h, h_sub, u_sub):
    """H-orbit structure of G/U computed by raw set manipulation."""
    mult = group.mult
    cosets = {}
    for g in range(group.order):
        coset = frozenset(int(v) for v in mult[g, u_sub.indices])
        cosets.setdefault(coset, min(coset))
    coset_list = list(cosets)
    h_elems = [int(v) for v in h_sub.indices]
    seen = set()
    out = [0] * len(table_h.classes)
    h_group = table_h.group
    for coset in coset_list:
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
        stab_perms = [group.elements[s] for s in stab]
        stab_indices = np.asarray(
            sorted(h_group.index(p) for p in stab_perms), dtype=np.int32
        )
        out[table_h.class_index_of(Subgroup(h_group, stab_indices))] += 1
    return tuple(out)


@pytest.mark.parametrize("maker", [_s3, _a4, _s4, lambda: preset_group("D8")],
                         ids=["S3", "A4", "S4", "D8"])
def test_restrict_matches_orbit_oracle(maker):
    group = maker()
    table = enumerate_classes(group)
    for hcls in table.classes:
        h_sub = hcls.representative
        table_h = enumerate_classes(subgroup_as_group(h_sub))
        for i in range(len(table)):
            u_sub = table.classes[i].representative
            got = restrict(table, table_h, BurnsideElement.basis(table, i))
            want = _orbit_decomposition_oracle(
                group, table, table_h, h_sub, u_sub
            )
            assert got.coeffs == want, (group.order, hcls.order, i)


def test_inflate_s4_from_s3_quotient():
    s4 = _s4()
    table = enumerate_classes(s4)
    v4 = [s for s in normal_subgroups(s4) if s.order == 4][0]
    qmap = quotient(s4, v4)
    tq = enumerate_classes(qmap.group)
    for i, qcls in enumerate(tq.classes):
        x = inflate(tq, table, BurnsideElement.basis(tq, i), qmap)
        idx = x.coeffs.index(1)
        assert sum(abs(c) for c in x.coeffs) == 1
        assert table.classes[idx].order == 4 * qcls.order
        assert table.classes[idx].representative.contains_subgroup(v4)


def test_inflation_preserves_marks_on_preimages():
    # the mark of an inflated element at the preimage of K-bar equals
    # the original mark at K-bar
    s4 = _s4()
    table = enumerate_classes(s4)
    v4 = [s for s in normal_subgroups(s4) if s.order == 4][0]
    qmap = quotient(s4, v4)
    tq = enumerate_classes(qmap.group)
    for i in range(len(tq)):
        x = BurnsideElement.basis(tq, i)
        y = inflate(tq, table, x, qmap)
        vx = mark_vector(x)
        vy = mark_vector(y)
        for j, kcls in enumerate(tq.classes):
            pre = qmap.preimage(kcls.representative)
            assert vy[table.class_index_of(pre)] == vx[j]


def test_element_arithmetic():
    s3 = _s3()
    table = enumerate_classes(s3)
    a = BurnsideElement.basis(table, 0)
    b = BurnsideElement.basis(table, 2)
    assert (a + b - a) == b
    assert (-a).coeffs == (-1, 0, 0, 0)
    assert (3 * a).coeffs == (3, 0, 0, 0)
    assert (a - a).is_zero()
    assert hash(a + b) == hash(b + a)
    foreign = enumerate_classes(_s4())
    with pytest.raises(InputError):
        a + BurnsideElement.basis(foreign, 0)


def test_element_from_subgroups_accumulates_conjugates():
    s4 = _s4()
    table = enumerate_classes(s4)
    cls = [c for c in table.classes if c.class_size > 1][0]
    orbit = class_orbit_by_conjugation(table, table.classes.index(cls))
    x = element_from_subgroups(table, [(sub, 1) for sub in orbit])
    idx = table.classes.index(cls)
    assert x.coeffs[idx] == cls.class_size
    assert sum(abs(c) for c in x.coeffs) == cls.class_size


@given(
    st.sampled_from(("S4", "A5", "D8xS3", "C2xC2xC2xC2")),
    st.lists(st.lists(st.integers(0, 10**6), max_size=8), max_size=5),
    st.sampled_from((0, burnside._WHOLE_ENTRIES)),
)
@settings(max_examples=40, deadline=None)
def test_marks_columns_on_demand_match_the_members_count(name, requests, whole_entries):
    # G's columns, and a maximal view's, asked in random subsets and
    # orders (repeats included): each request counts only the columns
    # not counted yet, or, for a table small enough, all of them, and
    # every answer is the whole table's
    base = preset_group(name)
    group = generate(base.degree, base.generators)  # a cold memo
    table = enumerate_classes(group)
    k = len(table)
    whole = marks_by_members(table, members_by_keys(table.sub_to_class, group))
    cls = table.classes[table.maximal_classes()[0]]
    view_whole = maximal_view(table, cls)[1].array
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(burnside, "_WHOLE_ENTRIES", whole_entries)
        marks, view = marks_table(group, table), maximal_view(table, cls)[1]
    asked, view_asked = set(), set()
    for request in requests:
        cols = [j % k for j in request]
        assert np.array_equal(marks.columns(cols), whole[:, cols])
        asked.update(cols)
        assert marks.counted == len(asked) or (whole_entries and asked and marks.counted == k)
        view_cols = [j % len(view_whole) for j in request]
        assert np.array_equal(view.columns(view_cols), view_whole[:, view_cols])
        view_asked.update(view_cols)
        assert view.counted == len(view_asked) or (
            whole_entries and view_asked and view.counted == len(view_whole))
    assert np.array_equal(marks.array, whole) and marks.counted == k
    assert np.array_equal(view.array, view_whole)
    assert marks.columns([k - 1, 0]).tolist() == whole[:, [k - 1, 0]].tolist()


def _count_marks_inputs(name):
    # count_marks's arguments for every column of a preset's table
    group = preset_group(name)
    table = enumerate_classes(group)
    k = len(table)
    orders = np.array([c.order for c in table.classes], dtype=np.int64)
    weights = np.array([c.normalizer.order for c in table.classes], dtype=np.int64) // orders
    above = table.containing([c.generators for c in table.classes])
    first = np.searchsorted(table.class_of, np.arange(k))
    return above, first, weights, group.order // orders, np.arange(k)


@pytest.mark.parametrize("name", ("S4", "D8xS3"))
def test_count_marks_checks_each_column(name):
    # each corruption breaks one of the three facts alone, and the check
    # of that fact must catch it: a wrong index, the class's own member
    # missing from its diagonal, and a smaller subgroup above K_j
    above, first, weights, index, cols = _count_marks_inputs(name)
    assert np.array_equal(count_marks(above, first, weights, index, cols),
                          marks_table(preset_group(name)).array)
    wrong = index.copy()
    wrong[1] += 1
    with pytest.raises(InternalCheckError, match="index"):
        count_marks(above, first, weights, wrong, cols)
    j = len(cols) // 2
    own = above.copy()
    own[first[j]:, j] = False  # class j's rows and every larger one
    with pytest.raises(InternalCheckError, match="diagonal"):
        count_marks(own, first, weights, index, cols)
    stray = above.copy()
    stray[first[1], j] = True  # a member of class 1, smaller than K_j
    with pytest.raises(InternalCheckError, match="lower triangular"):
        count_marks(stray, first, weights, index, cols)
    # the same checks on one column asked for alone
    with pytest.raises(InternalCheckError, match="lower triangular"):
        count_marks(stray[:, [j]], first, weights, index, cols[[j]])
