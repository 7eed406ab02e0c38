"""Subgroup enumeration against a brute-force closure oracle and
against the enumerator that extends by every element."""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings

from permrel import _kernels
from permrel import subgroups
from permrel.burnside import marks_table
from permrel.classify import _least_hall_subgroup, frattini_subgroup, is_soluble
from permrel.numtheory import prime_factors
from permrel.relations import _hypo_mask, effective_prime
from permrel.errors import CapExceeded, InputError
from permrel.perm import Group, Permutation, generate, parse_cycles
from permrel.presets import CORPUS_NAMES, preset_group
from permrel.subgroups import (
    Subgroup,
    centralizer_indices,
    enumerate_classes,
    is_minimal_normal,
    is_normal,
    minimal_normal_subgroups,
    normal_subgroups,
    quotient,
    conjugation_orbits,
    subgroup_as_group,
)

from oracles import (
    centralizer_indices_by_loop,
    class_orbit_by_conjugation,
    closure_by_products,
    conjugation_orbits_by_members,
    enumerate_classes_by_every_extension,
    enumerate_classes_by_transversals,
    frattini_by_members,
    hypo_mask_by_members,
    least_hall_subgroup_by_members,
    marks_by_members,
    maximal_classes_by_members,
    members_by_keys,
    permutation_groups,
)


def _all_subgroups_brute(group):
    """Closures of every subset of size <= 3.

    Any group of order <= 24 is generated by at most two elements except
    for elementary abelian ranks that still fit in three, so for the
    orders tested here the sweep is complete.
    """
    n = group.order
    found = {}
    singles = list(range(n))
    for r in (1, 2, 3):
        for combo in combinations(singles, r):
            seeds = np.asarray(combo, dtype=np.int32)
            members = _kernels.closure(group.mult, seeds)
            found[members.tobytes()] = members
    found[np.asarray([0], dtype=np.int32).tobytes()] = np.asarray(
        [0], dtype=np.int32)
    return set(found)


SMALL = [
    ("S3", generate(3, [parse_cycles(3, "(0 1)"), parse_cycles(3, "(0 1 2)")])),
    ("D8", generate(4, [parse_cycles(4, "(0 1 2 3)"), parse_cycles(4, "(0 2)")])),
    ("Q8", preset_group("Q8")),
    ("A4", generate(4, [parse_cycles(4, "(0 1 2)"), parse_cycles(4, "(0 1)(2 3)")])),
    ("C12", preset_group("C12")),
    ("S4", generate(4, [parse_cycles(4, "(0 1 2 3)"), parse_cycles(4, "(0 1)")])),
]


@pytest.mark.parametrize("name,group", SMALL, ids=[n for n, _ in SMALL])
def test_enumeration_complete(name, group):
    table = enumerate_classes(group)
    assert set(table.sub_to_class) == _all_subgroups_brute(group)


def _assert_rows_are_orbits(table):
    """The membership rows of each class are the orbit of its
    representative under conjugation, and the representative is the
    least of them."""
    for idx, cls in enumerate(table.classes):
        rows = table.unpacked(np.flatnonzero(table.class_of == idx))
        got = sorted(np.flatnonzero(row).tolist() for row in rows)
        orbit = class_orbit_by_conjugation(table, idx)
        assert got == [sub.indices.tolist() for sub in orbit]
        assert got[0] == cls.representative.indices.tolist()


@pytest.mark.parametrize("name,group", SMALL, ids=[n for n, _ in SMALL])
def test_class_structure(name, group):
    table = enumerate_classes(group)
    orders = [cls.order for cls in table]
    assert orders == sorted(orders)
    assert table.classes[0].order == 1
    assert table.classes[-1].order == group.order
    for idx, cls in enumerate(table):
        orbit = class_orbit_by_conjugation(table, idx)
        assert len(orbit) == cls.class_size
        assert orbit[0].key == cls.representative.key
        # class size is the index of the normalizer
        assert cls.class_size * cls.normalizer.order == group.order
        rep = cls.representative.indices
        norm = _kernels.normalizer_members(group.mult, group.inv, rep, rep)
        assert norm.tobytes() == cls.normalizer.key
        for sub in orbit:
            assert table.class_index_of(sub) == idx
    # total subgroup count matches the key map
    assert sum(cls.class_size for cls in table) == len(table.sub_to_class)
    _assert_rows_are_orbits(table)


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_membership_rows_are_the_conjugation_orbits_on_random_groups(group):
    _assert_rows_are_orbits(enumerate_classes(group))


def test_known_class_counts():
    # S4: 1,C2,C2',C3,V4,V4',C4,S3,D8,A4,S4 -> 11 classes, 30 subgroups
    s4 = generate(4, [parse_cycles(4, "(0 1 2 3)"), parse_cycles(4, "(0 1)")])
    table = enumerate_classes(s4)
    assert len(table) == 11
    assert sum(cls.class_size for cls in table) == 30
    # Q8: 1, Z, three C4, Q8 -> 6 classes, all normal
    q8 = preset_group("Q8")
    qtable = enumerate_classes(q8)
    assert len(qtable) == 6
    assert all(cls.class_size == 1 for cls in qtable)
    # A5 has 9 classes of subgroups
    a5 = generate(5, [parse_cycles(5, "(0 1 2)"), parse_cycles(5, "(0 1 2 3 4)")])
    assert len(enumerate_classes(a5)) == 9
    # S5 has 19
    s5 = generate(5, [parse_cycles(5, "(0 1)"), parse_cycles(5, "(0 1 2 3 4)")])
    assert len(enumerate_classes(s5)) == 19


def test_normal_subgroups_a4():
    a4 = generate(4, [parse_cycles(4, "(0 1 2)"), parse_cycles(4, "(0 1)(2 3)")])
    normals = normal_subgroups(a4)
    assert sorted(sub.order for sub in normals) == [1, 4, 12]
    for sub in normals:
        assert is_normal(a4, sub)


def test_quotient_s4_by_v4():
    s4 = generate(4, [parse_cycles(4, "(0 1 2 3)"), parse_cycles(4, "(0 1)")])
    v4 = None
    for sub in normal_subgroups(s4):
        if sub.order == 4:
            v4 = sub
    assert v4 is not None
    q = quotient(s4, v4)
    assert q.group.order == 6
    # S4/V4 is S3: non-abelian
    mult = q.group.mult
    assert any(mult[i, j] != mult[j, i]
               for i in range(6) for j in range(6))
    # preimage of the full quotient is the full group
    full = Subgroup.full(q.group)
    assert q.preimage(full).order == 24
    # preimage of a quotient subgroup contains the kernel
    for cls in enumerate_classes(q.group):
        pre = q.preimage(cls.representative)
        assert pre.order == cls.order * 4
        assert pre.contains_subgroup(v4)


def test_quotient_projection_is_homomorphism():
    s4 = generate(4, [parse_cycles(4, "(0 1 2 3)"), parse_cycles(4, "(0 1)")])
    v4 = [sub for sub in normal_subgroups(s4) if sub.order == 4][0]
    q = quotient(s4, v4)
    for a in s4.elements[:8]:
        for b in s4.elements[:8]:
            assert q.project(a * b) == q.project(a) * q.project(b)


def test_subgroup_as_group_isomorphic_structure():
    s4 = generate(4, [parse_cycles(4, "(0 1 2 3)"), parse_cycles(4, "(0 1)")])
    table = enumerate_classes(s4)
    for cls in table:
        h_group = subgroup_as_group(cls.representative)
        assert h_group.order == cls.order
        # element i of the standalone group is ambient element indices[i],
        # and the two multiplication tables agree under that identification
        idx = cls.representative.indices
        for i in range(h_group.order):
            assert h_group.elements[i] == s4.elements[idx[i]]
        for i in range(min(h_group.order, 6)):
            for j in range(min(h_group.order, 6)):
                k = h_group.mult[i, j]
                assert idx[k] == s4.mult[idx[i], idx[j]]


def test_subgroup_rejects_bad_index_sets():
    s3 = generate(3, [parse_cycles(3, "(0 1)"), parse_cycles(3, "(0 1 2)")])
    with pytest.raises(InputError):
        Subgroup(s3, np.asarray([1, 2], dtype=np.int32))  # no identity
    with pytest.raises(InputError):
        Subgroup(s3, np.asarray([0, 1, 2, 3], dtype=np.int32))  # 4 does not divide 6


def test_generated_subgroup():
    s3 = generate(3, [parse_cycles(3, "(0 1)"), parse_cycles(3, "(0 1 2)")])
    rot = s3.index(parse_cycles(3, "(0 1 2)"))
    sub = Subgroup.generated(s3, [rot])
    assert sub.order == 3
    assert is_normal(s3, sub)


def test_enumeration_cap_exceeded(monkeypatch):
    # S4 has 30 subgroups; a fresh group object carries no cached table
    monkeypatch.setattr(subgroups, "SUBGROUP_CAP", 10)
    with pytest.raises(CapExceeded):
        enumerate_classes(preset_group("S4"))


def _relabelled(group, seed):
    """The same group with its points renamed by a seeded shuffle."""
    sigma = list(range(group.degree))
    random.Random(seed).shuffle(sigma)
    gens = []
    for g in group.generators:
        moved = [0] * group.degree
        for point, image in enumerate(g.images):
            moved[sigma[point]] = sigma[image]
        gens.append(Permutation(moved))
    return generate(group.degree, gens)


def _assert_same_table(got, want):
    def rows(table):
        return [
            (cls.representative.key, cls.normalizer.key, cls.class_size)
            for cls in table.classes
        ]

    assert rows(got) == rows(want)
    assert got.sub_to_class == want.sub_to_class


# the corpus already holds S5; D8xS3 has elements of order 6 and 12;
# A6 and C19:C18 are left out because the oracle alone takes seconds on
# them
DIFFERENTIAL = CORPUS_NAMES + (
    "C2xC2xC2xC2xC2", "S4xC2/relabelled", "D8xS3", "D8xD8",
)


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_enumeration_matches_every_extension(name):
    if name.endswith("/relabelled"):
        group = _relabelled(preset_group(name.split("/")[0]), seed=7)
    else:
        group = preset_group(name)
    _assert_same_table(
        enumerate_classes(group), enumerate_classes_by_every_extension(group)
    )


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_every_extension_on_random_groups(group):
    _assert_same_table(
        enumerate_classes(group), enumerate_classes_by_every_extension(group)
    )


def _assert_equal_tables(got, want):
    """Equal classes, normalizers and carried generators, the same key
    map in the same order, and equal packed membership rows."""
    def rows(table):
        return [
            (cls.representative.key, cls.order, cls.class_size, cls.normalizer.key,
             cls.generators.dtype, cls.generators.tobytes())
            for cls in table.classes
        ]

    assert rows(got) == rows(want)
    assert list(got.sub_to_class.items()) == list(want.sub_to_class.items())
    assert np.array_equal(got.packed_members, want.packed_members)


WORKLOAD_PRESETS = ("A6", "C19:C18", "C2xC2xC2xC2", "C2xC2xC2xC2xC2", "D8xS3", "S4xC2")


@pytest.mark.parametrize("name", CORPUS_NAMES + WORKLOAD_PRESETS + ("D8xD8",))
def test_enumeration_matches_transversal_registration(name):
    group = preset_group(name)
    _assert_equal_tables(enumerate_classes(group), enumerate_classes_by_transversals(group))


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_transversal_registration_on_random_groups(group):
    _assert_equal_tables(enumerate_classes(group), enumerate_classes_by_transversals(group))


def test_a_class_of_one_conjugates_nothing(monkeypatch):
    # every subgroup of C2^5 is normal, so no class needs a transversal
    calls = []
    coset_reps, conjugate_indices = subgroups.kernels.coset_reps, Group.conjugate_indices

    def counting_reps(*args):
        calls.append("coset_reps")
        return coset_reps(*args)

    def counting_conjugates(self, *args):
        calls.append("conjugate_indices")
        return conjugate_indices(self, *args)

    monkeypatch.setattr(subgroups.kernels, "coset_reps", counting_reps)
    monkeypatch.setattr(Group, "conjugate_indices", counting_conjugates)
    preset = preset_group("C2xC2xC2xC2xC2")
    table = enumerate_classes(generate(preset.degree, preset.generators))  # nothing cached
    assert calls == []
    assert len(table.classes) == len(table.sub_to_class) == 374


def _assert_generators_and_row_order(table):
    """Each class's carried generators close to its representative, and
    the packed rows follow ``sub_to_class`` in (class, key) order."""
    for cls in table.classes:
        assert cls.generators.dtype == np.int32
        closed = _kernels.closure(table.group.mult, cls.generators)
        assert closed.tobytes() == cls.representative.key
    keys = list(table.sub_to_class)
    assert keys == sorted(keys, key=lambda key: (table.sub_to_class[key], key))
    rows = table.unpacked(np.arange(len(keys)))
    assert rows.shape == (len(keys), table.group.order)
    for row, key in zip(rows, keys):
        assert np.flatnonzero(row).astype(np.int32).tobytes() == key


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_generators_and_row_order(name):
    _assert_generators_and_row_order(enumerate_classes(preset_group(name)))


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_generators_and_row_order_on_random_groups(group):
    _assert_generators_and_row_order(enumerate_classes(group))


def _assert_greedy_generators(table):
    """``generator_indices`` of each representative is the greedy choice
    along the index order, with each step closed from the identity."""
    mult = table.group.mult
    for cls in table.classes:
        sub = cls.representative
        want = []
        covered = np.zeros(1, dtype=np.int32)
        for idx in sub.indices.tolist():
            if covered.size == sub.order:
                break
            if idx not in covered:
                want.append(idx)
                covered = closure_by_products(mult, np.asarray(want, dtype=np.int32))
        fresh = Subgroup(table.group, sub.indices)  # nothing cached
        assert fresh.generator_indices.tolist() == want


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_generator_indices_are_the_greedy_choice(name):
    _assert_greedy_generators(enumerate_classes(preset_group(name)))


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_generator_indices_are_the_greedy_choice_on_random_groups(group):
    _assert_greedy_generators(enumerate_classes(group))


def _closures_to_enumerate(monkeypatch, name):
    """(closure calls, subgroups) of enumerating a fresh copy of a preset."""
    preset = preset_group(name)
    group = generate(preset.degree, preset.generators)  # nothing cached
    closure = subgroups.kernels.closure
    calls = []

    def counting(mult, seeds, *rest):
        calls.append(seeds)
        return closure(mult, seeds, *rest)

    monkeypatch.setattr(subgroups.kernels, "closure", counting)
    table = enumerate_classes(group)
    return len(calls), len(table.sub_to_class)


# (closures, subgroups) of each enumeration, as the breadth-first closure
# from H<g> made them: growing <H, g> by cosets of H changes no try
_CLOSURES = {
    "C2xC2": (4, 5), "C6": (3, 4), "C12": (6, 6), "Q8": (5, 6), "D8": (10, 10),
    "S3": (5, 6), "A4": (11, 10), "S4": (32, 30), "A5": (57, 59), "S5": (165, 156),
    "C7:C6": (26, 26), "C5:C4": (17, 14), "C5xQ8": (14, 12), "C3^2:C4": (42, 38),
    "A6": (461, 501), "C19:C18": (138, 102), "C2xC2xC2xC2": (66, 67), "D8xS3": (151, 120),
    "S4xC2": (130, 98), "C2xC2xC2xC2xC2": (373, 374),
}


@pytest.mark.parametrize("name", sorted(_CLOSURES))
def test_closures_per_enumeration_are_pinned(monkeypatch, name):
    assert _closures_to_enumerate(monkeypatch, name) == _CLOSURES[name]


@pytest.mark.parametrize("name,closures", [("C2xC2xC2xC2", 66), ("C2xC2xC2xC2xC2", 373)])
def test_prime_index_skip_closes_each_subgroup_once(monkeypatch, name, closures):
    # every subgroup but the trivial one costs exactly one closure
    got = _closures_to_enumerate(monkeypatch, name)
    assert got == (closures, closures + 1)


def test_skips_cut_the_closures_of_c19_c18(monkeypatch):
    # 521 closures with neither skip
    closures, subgroup_count = _closures_to_enumerate(monkeypatch, "C19:C18")
    assert closures < 300 and subgroup_count == 102


def test_coprime_powers_cut_the_closures_of_c19_c18(monkeypatch):
    # <H, g^k> = <H, g> for k prime to the order of g: 274 closures
    # without that skip, 138 with it, and the same class table
    preset = preset_group("C19:C18")
    group = generate(preset.degree, preset.generators)
    closure = subgroups.kernels.closure
    calls = []

    def counting(mult, seeds, *rest):
        calls.append(seeds)
        return closure(mult, seeds, *rest)

    monkeypatch.setattr(subgroups.kernels, "closure", counting)
    table = enumerate_classes(group)
    assert len(calls) <= 140 and len(table.sub_to_class) == 102
    monkeypatch.undo()
    _assert_equal_tables(table, enumerate_classes_by_transversals(group))


def _assert_centralizers_match_loop(group):
    """Centralizers of each class's generators, of its members and of
    nothing, in G and in the class's normalizer."""
    for cls in enumerate_classes(group).classes:
        for targets in (cls.generators, cls.representative.indices, []):
            for within in (None, cls.normalizer):
                got = centralizer_indices(group, targets, within=within)
                expected = centralizer_indices_by_loop(group, targets, within=within)
                assert got.dtype == np.int32
                assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_centralizers_match_loop(name):
    _assert_centralizers_match_loop(preset_group(name))


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_centralizers_match_loop_on_random_groups(group):
    _assert_centralizers_match_loop(group)


def _assert_minimal_normal_by_definition(group):
    # N is minimal normal when it is nontrivial and no nontrivial normal
    # subgroup lies strictly inside it
    normals = normal_subgroups(group)
    expected = [
        n for n in normals
        if not n.is_trivial()
        and not any(
            not k.is_trivial() and k.order < n.order and n.contains_subgroup(k)
            for k in normals
        )
    ]
    assert minimal_normal_subgroups(group) == expected
    # is_minimal_normal keeps its meaning on every class representative,
    # normal or not, the trivial group included
    for cls in enumerate_classes(group).classes:
        sub = cls.representative
        assert is_minimal_normal(group, sub) == (
            not any(
                not k.is_trivial() and k.order < sub.order and sub.contains_subgroup(k)
                for k in normals
            )
        )


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_minimal_normal_subgroups_match_definition(name):
    _assert_minimal_normal_by_definition(preset_group(name))


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_minimal_normal_subgroups_match_definition_on_random_groups(group):
    _assert_minimal_normal_by_definition(group)


def _assert_packed_readers_match_members(group):
    """Every reader of the packed rows against its reference on the bool
    matrix read off the keys: the maximal classes, the conjugation orbits
    of the maximal classes and of each normalizer of a class of more than
    one, the marks, the Frattini subgroup, the least Hall subgroups, and
    the hypo-elementary masks over each normal subgroup."""
    table = enumerate_classes(group)
    members = members_by_keys(table.sub_to_class, group.order)
    rows = np.arange(len(members))
    assert np.array_equal(table.unpacked(rows), members)
    maximal = table.maximal_classes()
    assert maximal == maximal_classes_by_members(table, members)
    actions = [(table.classes[i].representative, table.classes[i].generators) for i in maximal]
    actions += [(c.normalizer, c.normalizer.generator_indices)
                for c in table.classes if c.class_size > 1]
    for sub, gens in actions:
        got_rows, got_label = conjugation_orbits(table, sub, gens)
        want_rows, want_label = conjugation_orbits_by_members(table, members, sub, gens)
        assert got_rows.tolist() == want_rows.tolist()
        assert got_label.tolist() == want_label.tolist()
        on_sub = members[got_rows][:, sub.indices]
        assert np.array_equal(table.unpacked(got_rows, sub.indices), on_sub)
    assert np.array_equal(marks_table(group, table).array, marks_by_members(table, members))
    assert frattini_subgroup(group).indices.tolist() == frattini_by_members(table, members)
    if is_soluble(group):
        subs = {c.normalizer.key: c.normalizer for c in table.classes}
        for p in prime_factors(group.order):
            for sub in subs.values():
                got = _least_hall_subgroup(table, sub, p).indices.tolist()
                assert got == least_hall_subgroup_by_members(table, members, sub, p)
    for char in (0, 2, 3):
        p = effective_prime(group, char)
        for normal in normal_subgroups(group):
            over = table.classes_over(normal)
            got = _hypo_mask(table, normal, p, over)
            assert got.tolist() == hypo_mask_by_members(table, members, normal, p, over).tolist()


@pytest.mark.parametrize("name", CORPUS_NAMES + WORKLOAD_PRESETS)
def test_packed_readers_match_the_bool_matrix(name):
    _assert_packed_readers_match_members(preset_group(name))


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_packed_readers_match_the_bool_matrix_on_random_groups(group):
    _assert_packed_readers_match_members(group)


def test_the_table_keeps_no_unpacked_matrix():
    # the packed rows are the table's one record of its subgroups
    table = enumerate_classes(preset_group("S4"))
    held = [v for v in vars(table).values() if isinstance(v, np.ndarray)]
    assert [a.dtype for a in held if a.ndim == 2] == [np.uint8]
    assert not hasattr(table, "members")


@pytest.mark.parametrize("name", ("S4", "A5", "C2xC2xC2xC2", "D8xS3"))
def test_containing_in_chunks_matches_one_gather(monkeypatch, name):
    # the tests gathered a few columns at a time, on all rows and on some,
    # give the one-gather answer, which is the bool matrix's
    group = preset_group(name)
    table = enumerate_classes(group)
    members = members_by_keys(table.sub_to_class, group.order)
    tests = [c.generators for c in table.classes] + [c.representative.indices for c in table.classes]
    want = np.column_stack([members[:, test].all(axis=1) for test in tests])
    rows = np.arange(0, len(table.class_of), 2)
    assert np.array_equal(table.containing(tests), want)
    for size in (1, 40, 300):
        monkeypatch.setattr(subgroups, "_GATHER_BYTES", size)
        assert np.array_equal(table.containing(tests), want)
        assert np.array_equal(table.containing(tests, rows), want[rows])
        assert table.maximal_classes() == maximal_classes_by_members(table, members)
