"""Structural classification: cores, residuals, Hall subgroups, shapes."""

import pytest
from hypothesis import given, settings

from permrel.classify import (
    classify_group,
    dress_decomposition,
    dress_primes,
    frattini_subgroup,
    hall_p_complement,
    is_p_hypo_elementary,
    is_pq_dress,
    is_q_quasi_elementary,
    is_soluble,
    main_case_classify,
    p_core,
    q_residual,
    quotient_dress,
    quotient_is_p_hypo_elementary,
    quotient_is_pq_dress,
    quotient_p_core,
    sylow_subgroup,
    two_factor_decomposition,
    vector_semidirect_match,
)
from permrel.errors import InputError
from permrel.numtheory import p_part, prime_factors, prime_to_p_part
from permrel.perm import generate, parse_cycles
from permrel.presets import CORPUS_CHARACTERISTICS, CORPUS_NAMES, preset_group
from permrel.relations import effective_prime
from permrel.subgroups import (
    enumerate_classes,
    is_normal,
    normal_subgroups,
    quotient,
    subgroup_as_group,
)

from oracles import (
    LADDER_NAMES,
    class_orbit_by_conjugation,
    classify_group_by_groups,
    dress_decomposition_by_subgroup_groups,
    dress_primes_by_quotient_group,
    is_p_hypo_elementary_by_quotient_group,
    is_pq_dress_by_quotient_group,
    main_case_classify_by_groups,
    p_core_by_sylow_intersection,
    vector_semidirect_by_complement_group,
    permutation_groups,
    subgroup_is_p_hypo_elementary,
    subgroups_of,
)
from test_relations import _cold_copy, _count_calls

S3 = generate(3, [parse_cycles(3, "(0 1)"), parse_cycles(3, "(0 1 2)")])
A4 = generate(4, [parse_cycles(4, "(0 1 2)"), parse_cycles(4, "(0 1)(2 3)")])
S4 = generate(4, [parse_cycles(4, "(0 1 2 3)"), parse_cycles(4, "(0 1)")])
SMALL = [S3, A4, S4, preset_group("Q8"), preset_group("D8"),
         preset_group("C12"), preset_group("C2xC2")]


def _primes_of(group):
    return prime_factors(group.order)


@pytest.mark.parametrize("group", SMALL, ids=lambda g: "o%d" % g.order)
def test_p_core_is_largest_normal_p_subgroup(group):
    normals = normal_subgroups(group)
    for p in _primes_of(group):
        core = p_core(group, p)
        assert is_normal(group, core)
        assert p_part(core.order, p) == core.order
        for sub in normals:
            if p_part(sub.order, p) == sub.order:
                assert core.contains_subgroup(sub)


@pytest.mark.parametrize("group", SMALL, ids=lambda g: "o%d" % g.order)
def test_q_residual_is_smallest_with_q_power_index(group):
    normals = normal_subgroups(group)
    for q in _primes_of(group):
        res = q_residual(group, q)
        assert is_normal(group, res)
        index = group.order // res.order
        assert p_part(index, q) == index
        for sub in normals:
            sub_index = group.order // sub.order
            if p_part(sub_index, q) == sub_index:
                assert sub.contains_subgroup(res)


@pytest.mark.parametrize("group", SMALL, ids=lambda g: "o%d" % g.order)
def test_frattini_is_intersection_of_maximals(group):
    table = enumerate_classes(group)
    all_subs = subgroups_of(table)
    proper = [s for s in all_subs if s.order < group.order]
    maximal = [
        s for s in proper
        if not any(t.order > s.order and t.order < group.order
                   and t.contains_subgroup(s) for t in all_subs)
    ]
    from_helper = [
        m for i in table.maximal_classes() for m in class_orbit_by_conjugation(table, i)
    ]
    assert sorted(m.key for m in from_helper) == sorted(m.key for m in maximal)
    members = set(range(group.order))
    for m in maximal:
        members &= set(m.indices.tolist())
    frat = frattini_subgroup(group)
    assert set(frat.indices.tolist()) == members


def test_frattini_known_orders():
    assert frattini_subgroup(S4).order == 1
    assert frattini_subgroup(preset_group("Q8")).order == 2
    assert frattini_subgroup(preset_group("D8")).order == 2
    assert frattini_subgroup(preset_group("C12")).order == 2


@pytest.mark.parametrize("group", SMALL, ids=lambda g: "o%d" % g.order)
def test_sylow_and_hall_orders(group):
    for p in _primes_of(group):
        syl = sylow_subgroup(group, p)
        assert syl.order == p_part(group.order, p)
        hall = hall_p_complement(group, p)
        assert hall.order == prime_to_p_part(group.order, p)


def _assert_lattice_answers_match_orbits(group):
    """p-cores, Sylow and Hall subgroups, maximal classes and the
    Frattini subgroup against the conjugation orbits of every class."""
    n = group.order
    table = enumerate_classes(group)
    orbits = [class_orbit_by_conjugation(table, i) for i in range(len(table))]

    def meet(subs):
        members = set(range(n))
        for sub in subs:
            members &= set(sub.indices.tolist())
        return sorted(members)

    every = [sub for orbit in orbits for sub in orbit]
    maximal = tuple(
        i for i, orbit in enumerate(orbits)
        if orbit[0].order < n and not any(
            orbit[0].order < sub.order < n and sub.contains_subgroup(orbit[0])
            for sub in every
        )
    )
    assert table.maximal_classes() == maximal
    assert frattini_subgroup(group).indices.tolist() == meet(
        sub for i in maximal for sub in orbits[i]
    )
    for p in _primes_of(group):
        (sylow,) = [o for o in orbits if o[0].order == p_part(n, p)]
        assert sylow_subgroup(group, p) == sylow[0]
        assert p_core(group, p).indices.tolist() == meet(sylow)
        if is_soluble(group):
            halls = [sub for sub in every if sub.order == prime_to_p_part(n, p)]
            least = min(halls, key=lambda sub: sub.indices.tolist())
            assert hall_p_complement(group, p) == least


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_lattice_answers_match_orbits_on_corpus(name):
    _assert_lattice_answers_match_orbits(preset_group(name))


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_lattice_answers_match_orbits_on_random_groups(group):
    _assert_lattice_answers_match_orbits(group)


def test_subgroup_hypo_matches_quotient_definition():
    for group in SMALL + [preset_group("C7:C6")]:
        table = enumerate_classes(group)
        for p in (2, 3, 5, 7):
            for cls in table:
                fast = subgroup_is_p_hypo_elementary(cls.representative, p)
                as_group = subgroup_as_group(cls.representative)
                slow = is_p_hypo_elementary(as_group, p)
                assert fast == slow, (group.order, cls.order, p)


def test_hypo_elementary_known_values():
    assert is_p_hypo_elementary(A4, 2)
    assert not is_p_hypo_elementary(A4, 3)
    assert is_p_hypo_elementary(S3, 3)
    assert not is_p_hypo_elementary(S3, 2)
    assert not is_p_hypo_elementary(S4, 2)
    assert not is_p_hypo_elementary(S4, 3)
    assert classify_group(preset_group("C12")).hypo_elementary_primes == (2, 3)
    assert classify_group(preset_group("Q8")).hypo_elementary_primes == (2,)
    assert classify_group(preset_group("C7:C6")).hypo_elementary_primes == (7,)


def test_quasi_elementary_known_values():
    assert is_q_quasi_elementary(S3, 2)
    assert not is_q_quasi_elementary(S3, 3)
    assert not is_q_quasi_elementary(S4, 2)
    assert not is_q_quasi_elementary(S4, 3)
    assert is_q_quasi_elementary(preset_group("Q8"), 2)
    assert is_q_quasi_elementary(preset_group("D8"), 2)
    # the 2-residual of C7:C6 is the nonabelian group of order 21
    assert not is_q_quasi_elementary(preset_group("C7:C6"), 2)


def test_dress_primes_known_values():
    assert dress_primes(S3, 5) == [2]
    assert dress_primes(preset_group("Q8"), 3) == [2]
    assert dress_primes(A4, 5) == []
    assert dress_primes(S4, 5) == []
    with pytest.raises(InputError):
        dress_primes(S3, 3)  # hypo-elementary case is the caller's job


def test_is_pq_dress_examples():
    # S4 / V4 = S3 is 2-quasi-elementary but not 3-quasi-elementary
    assert is_pq_dress(S4, 2, 2)
    assert not is_pq_dress(S4, 2, 3)
    assert not is_pq_dress(S4, 3, 2)
    assert not is_pq_dress(S4, 3, 3)
    # A4 / V4 = C3 is cyclic, hence quasi-elementary for every prime
    assert is_pq_dress(A4, 2, 2)
    assert is_pq_dress(A4, 2, 3)


def test_dress_decomposition_q8():
    q8 = preset_group("Q8")
    dec = dress_decomposition(q8, 3, 2)
    assert dec.core.order == 1
    assert len(dec.sections) == 1
    sec = dec.sections[0]
    assert sec.core_subgroup.order == 1
    assert sec.hall_complement.order == 8
    # every class of Q8 is hit exactly once
    table = enumerate_classes(q8)
    hit = sorted(dec.pair_to_class.values())
    assert hit == list(range(len(table)))


def test_dress_decomposition_c5xq8():
    g = preset_group("C5xQ8")
    dec = dress_decomposition(g, 5, 2)
    assert dec.core.order == 5
    assert len(dec.sections) == 2
    assert sorted(sec.core_subgroup.order for sec in dec.sections) == [1, 5]
    for sec in dec.sections:
        assert sec.hall_complement.order == 8
        assert len(sec.complement_classes) == 6
    table = enumerate_classes(g)
    hit = sorted(dec.pair_to_class.values())
    assert hit == list(range(len(table)))
    assert len(hit) == 12


def test_dress_decomposition_rejects_bad_input():
    with pytest.raises(InputError):
        dress_decomposition(preset_group("Q8"), 3, 3)
    with pytest.raises(InputError):
        dress_decomposition(A4, 5, 3)  # A4 is not (5,3)-Dress


# D8xS3xC7 has order 336: past index 255 the byte order of the int32
# subgroup keys no longer follows the order of the index lists, which
# choose the representatives
DRESS_CASES = CORPUS_NAMES + (
    "C19:C18", "C13:C12", "D8xS3", "S4xC2", "C2xC2xC2xC2", "C3xS3",
    "C3^2:C4xC2", "C5xQ8xC2", "D8xD8", "D8xS3xC7",
)


def _dress_pairs(group):
    """Every (p, q), q != p, with the soluble ``group`` (p,q)-Dress, p and
    q running over the primes of |G| and 7 and 11."""
    primes = sorted(set(prime_factors(group.order)) | {7, 11})
    return [(p, q) for p in primes for q in primes if q != p and is_pq_dress(group, p, q)]


@pytest.mark.parametrize("name", DRESS_CASES)
def test_dress_decomposition_matches_subgroup_groups(name):
    group = preset_group(name)
    if not is_soluble(group):  # A5, S5: both refuse
        for decompose in (dress_decomposition, dress_decomposition_by_subgroup_groups):
            with pytest.raises(InputError, match="soluble"):
                decompose(group, 2, 3)
        return
    for p, q in _dress_pairs(group):
        expected = dress_decomposition_by_subgroup_groups(group, p, q)
        assert dress_decomposition(group, p, q) == expected, (name, p, q)


@given(permutation_groups().filter(is_soluble))
@settings(max_examples=40, deadline=None)
def test_dress_decomposition_matches_subgroup_groups_on_random_groups(group):
    for p, q in _dress_pairs(group):
        expected = dress_decomposition_by_subgroup_groups(group, p, q)
        assert dress_decomposition(group, p, q) == expected, (p, q)


def test_dress_decomposition_builds_no_group_but_g(monkeypatch):
    groups = [_cold_copy(preset_group(name)) for name in ("C5xQ8", "C3^2:C4xC2", "D8xS3")]
    built = []
    enumerated = []
    _count_calls(monkeypatch, "subgroup_as_group", built.append)
    _count_calls(monkeypatch, "generate", built.append, home="permrel.perm")
    _count_calls(monkeypatch, "enumerate_classes", lambda args: enumerated.append(args[0]))
    for group in groups:
        pairs = _dress_pairs(group)
        assert pairs, group
        for p, q in pairs:
            dress_decomposition(group, p, q)
        assert built == [], group
        assert enumerated and all(g is group for g in enumerated), group
        enumerated.clear()


def test_vector_semidirect_a4():
    witness = vector_semidirect_match(A4, 5)
    assert witness is not None
    assert witness["l"] == 2
    assert witness["rank"] == 2
    assert witness["module_order"] == 4
    assert witness["complement_order"] == 3
    assert witness["complement_is_hypo"]
    assert witness["shape"] == "irreducible"


def test_vector_semidirect_s4():
    witness = vector_semidirect_match(S4, 5)
    assert witness is not None
    assert witness["module_order"] == 4
    assert witness["complement_order"] == 6
    assert not witness["complement_is_hypo"]
    assert witness["q"] == 2
    assert witness["shape"] == "irreducible"


def test_vector_semidirect_v4_trivial_complement():
    witness = vector_semidirect_match(preset_group("C2xC2"), 5)
    assert witness is not None
    assert witness["module_order"] == 4
    assert witness["complement_order"] == 1
    assert witness["complement_is_hypo"]
    assert witness["q"] is None
    assert witness["shape"] == "two_factor"
    assert witness["factor_orders"] == (1, 1)


def test_vector_semidirect_excluded_at_module_prime():
    # W is elementary abelian of order l^d; l == p is excluded
    assert vector_semidirect_match(A4, 2) is None


def test_two_factor_decomposition_v4():
    v4 = preset_group("C2xC2")
    w = [s for s in normal_subgroups(v4) if s.is_full()][0]
    d = [s for s in normal_subgroups(v4) if s.is_trivial()][0]
    split = two_factor_decomposition(v4, w, d, 2)
    assert split is not None
    q, factor_orders = split
    assert q is None
    assert factor_orders == (1, 1)


def test_main_case_tags():
    tags = sorted(m.tag for m in main_case_classify(A4, 5))
    assert tags == ["VectorSemidirect"]
    tags = sorted(m.tag for m in main_case_classify(S4, 5))
    assert tags == ["VectorSemidirect"]
    a5 = generate(5, [parse_cycles(5, "(0 1 2)"), parse_cycles(5, "(0 1 2 3 4)")])
    tags = sorted(m.tag for m in main_case_classify(a5, 7))
    assert tags == ["NonabelianSerre"]
    tags = sorted(m.tag for m in main_case_classify(preset_group("C2xC2"), 5))
    assert tags == ["QuasiElementary", "VectorSemidirect"]
    # Q8 away from 2 is quasi-elementary with trivial (degenerate) cyclic part
    matches = main_case_classify(preset_group("Q8"), 5)
    assert [m.tag for m in matches] == ["QuasiElementary"]
    assert matches[0].witness["cyclic_part_order"] == 1
    assert not matches[0].witness["action_faithful"]


def test_main_case_s5():
    s5 = generate(5, [parse_cycles(5, "(0 1)"), parse_cycles(5, "(0 1 2 3 4)")])
    matches = main_case_classify(s5, 7)
    assert [m.tag for m in matches] == ["NonabelianSerre"]
    witness = matches[0].witness
    assert witness["socle_order"] == 60
    assert witness["quotient_order"] == 2
    assert witness["quotient_is_hypo"]


def test_classify_report_s4():
    report = classify_group(S4)
    assert report.order == 24
    assert not report.cyclic and not report.abelian and report.soluble
    assert report.p_core_orders == {2: 4, 3: 1}
    assert report.hypo_elementary_primes == ()
    assert report.quasi_elementary_primes == ()
    assert report.dress_pairs == ((2, 2),)


def _ladder_primes(group):
    return sorted({effective_prime(group, char) for char in CORPUS_CHARACTERISTICS})


def _assert_sections_match_quotient_groups(group):
    """Every question about G/N, read off G's normal subgroups, against
    G/N built as a group; ``quotient_dress`` at every N, the
    hypo-elementary G/N included."""
    primes = prime_factors(group.order)
    for normal in normal_subgroups(group):
        quot = quotient(group, normal).group
        for p in _ladder_primes(group):
            core = quotient_p_core(group, normal, p)
            assert core.order == normal.order * p_core_by_sylow_intersection(quot, p).order
            hypo = is_p_hypo_elementary_by_quotient_group(quot, p)
            assert quotient_is_p_hypo_elementary(group, normal, p) == hypo
            for q in primes:
                expected = is_pq_dress_by_quotient_group(quot, p, q)
                assert quotient_is_pq_dress(group, normal, p, q) == expected, (p, q)
            # a hypo-elementary G/N is Dress for every q, and its q is None
            dress = [] if hypo else dress_primes_by_quotient_group(quot, p)
            assert len(dress) <= 1, (p, dress)
            assert quotient_dress(group, normal, p) == (hypo, dress[0] if dress else None), p


def _assert_ladder_matches_groups(group):
    """Main-case tags and witnesses, and the class report, against the
    ladder that builds every quotient and complement as a group."""
    for p in _ladder_primes(group):
        found = [(m.tag, m.witness) for m in main_case_classify(group, p)]
        expected = [(m.tag, m.witness) for m in main_case_classify_by_groups(group, p)]
        assert found == expected, p
        # the memoised witness, module and complement included
        assert vector_semidirect_match(group, p) == vector_semidirect_by_complement_group(
            group, p
        )
    assert classify_group(group) == classify_group_by_groups(group)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_sections_match_quotient_groups_on_corpus(name):
    _assert_sections_match_quotient_groups(preset_group(name))


@pytest.mark.parametrize("name", LADDER_NAMES)
def test_ladder_matches_quotient_groups(name):
    _assert_ladder_matches_groups(preset_group(name))


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_ladder_matches_quotient_groups_on_random_groups(group):
    _assert_sections_match_quotient_groups(group)
    _assert_ladder_matches_groups(group)


def test_coprime_prime_reads_no_class_table():
    # G/N has no p-subgroup but the trivial one when p does not divide |G:N|
    group = preset_group("A6")
    assert not is_p_hypo_elementary(group, 7)
    assert p_core(group, 7).is_trivial()
    assert "class_table" not in group._memo


@pytest.mark.parametrize("p", [0, 1, 4, -2])
def test_prime_arguments_must_be_prime(p):
    # p = 1 never left p_part, and p = 0 divided by zero
    group = generate(4, [parse_cycles(4, "(0 1 2 3)"), parse_cycles(4, "(0 1)")])
    calls = (
        lambda: p_core(group, p),
        lambda: q_residual(group, p),
        lambda: is_p_hypo_elementary(group, p),
        lambda: is_q_quasi_elementary(group, p),
        lambda: is_pq_dress(group, p, 2),
        lambda: is_pq_dress(group, 2, p),
        lambda: dress_primes(group, p),
        lambda: dress_decomposition(group, p, 3),
        lambda: dress_decomposition(group, 2, p),
        lambda: main_case_classify(group, p),
    )
    for call in calls:
        with pytest.raises(InputError, match="prime"):
            call()
    assert not any(isinstance(key, tuple) and key[0] == "main_case" for key in group._memo)
