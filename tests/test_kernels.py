"""The numpy kernels against pure-Python oracles built on Permutation
arithmetic, on the corpus, a few fixed groups and random permutation
groups of degree at most 5."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permrel import _kernels
from permrel.errors import InternalCheckError
from permrel.perm import generate, parse_cycles
from permrel.presets import CORPUS_NAMES, preset_group
from permrel.subgroups import Subgroup, enumerate_classes, normal_subgroups

from oracles import (
    closure_by_bfs,
    closure_by_products,
    coset_reps_by_full_scan,
    permutation_groups,
)


def _groups():
    s4 = generate(4, [parse_cycles(4, "(0 1 2 3)"), parse_cycles(4, "(0 1)")])
    d16 = generate(8, [parse_cycles(8, "(0 1 2 3 4 5 6 7)"),
                       parse_cycles(8, "(1 7)(2 6)(3 5)")])
    a5 = generate(5, [parse_cycles(5, "(0 1 2)"), parse_cycles(5, "(0 1 2 3 4)")])
    return [s4, d16, a5]


def _seed_sets(group):
    # no seeds, the identity alone or repeated, single elements and pairs
    n = group.order
    picks = [np.asarray(seeds, dtype=np.int32)
             for seeds in ([], [0], [0, 0], [n - 1])]
    for i in (1, 2, n // 2):
        for j in (n - 1, n // 3 + 1):
            picks.append(np.asarray(sorted({i % n, j % n}), dtype=np.int32))
    return picks


def test_closure_is_a_subgroup():
    for group in _groups():
        for seeds in _seed_sets(group):
            members = _kernels.closure(group.mult, seeds)
            assert members.tolist() == _bfs_closure(group, seeds)
            mask = np.zeros(group.order, dtype=bool)
            mask[members] = True
            products = group.mult[np.ix_(members, members)]
            assert mask[products].all()
            assert mask[group.inv[members]].all()


def test_coset_reps_partition():
    for group in _groups():
        for seeds in _seed_sets(group):
            members = _kernels.closure(group.mult, seeds)
            reps = _kernels.coset_reps(group.mult, members)
            assert reps[0] == 0
            cosets = group.mult[reps[:, None], members]
            flat = np.sort(cosets.ravel())
            assert np.array_equal(flat, np.arange(group.order))


# --- oracles: Permutation products only, never the mult/inv tables ---


def _bfs_closure(group, seeds):
    """Element indices of the subgroup generated by ``seeds``."""
    gens = [group.elements[i] for i in seeds]
    found = {group.elements[0]}
    frontier = [group.elements[0]]
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in found:
                    found.add(q)
                    fresh.append(q)
        frontier = fresh
    return sorted(group.index(p) for p in found)


def _brute_normalizer(group, members):
    h = {group.elements[i] for i in members}
    return [
        i for i, g in enumerate(group.elements)
        if {g * x * g.inverse() for x in h} == h
    ]


def _first_unseen_reps(group, members):
    h = [group.elements[i] for i in members]
    seen = set()
    reps = []
    for i, g in enumerate(group.elements):
        if g not in seen:
            reps.append(i)
            seen.update(g * x for x in h)
    return reps


def _direct_fixed_count(group, transversal, h_members, k_members):
    h = {group.elements[i] for i in h_members}
    k = [group.elements[i] for i in k_members]
    count = 0
    for i in transversal:
        t = group.elements[i]
        if all(t.inverse() * x * t in h for x in k):
            count += 1
    return count


@st.composite
def group_and_seeds(draw, seed_sets=1):
    group = draw(permutation_groups())
    index = st.integers(0, group.order - 1)
    seeds = [
        np.asarray(draw(st.lists(index, max_size=2)), dtype=np.int32)
        for _ in range(seed_sets)
    ]
    return (group, *seeds)


@given(group_and_seeds())
@settings(max_examples=60, deadline=None)
def test_closure_matches_bfs(case):
    group, seeds = case
    got = _kernels.closure(group.mult, seeds)
    assert got.tolist() == _bfs_closure(group, seeds)


@given(group_and_seeds(seed_sets=2))
@settings(max_examples=60, deadline=None)
def test_closure_from_generators_equals_closure_from_members(case):
    # <H, g> from H's generators and g, and by cosets of H from g alone
    group, h_seeds, extra = case
    h = Subgroup.generated(group, h_seeds)
    for g in extra:
        want = _bfs_closure(group, np.append(h.indices, g))
        got = _kernels.closure(group.mult, np.append(h.generator_indices, g))
        assert got.tolist() == want
        assert _kernels.closure(group.mult, [g], h.indices).tolist() == want


class _CountingTable:
    """A ``mult`` table that records the rows of each block read from
    it: the products of one round of ``closure``, or the cosets it adds."""

    def __init__(self, mult):
        self.mult = mult
        self.shape = mult.shape
        self.rows = []

    def __getitem__(self, index):
        self.rows.append(len(index[0]))
        return self.mult[index]


def _powers(group, g):
    """1, g, g^2, ... up to the order of g: the enumeration's left."""
    powers = [0]
    while len(powers) == 1 or powers[-1] != 0:
        powers.append(int(group.mult[powers[-1], g]))
    return np.asarray(powers[:-1], dtype=np.intp)


def _start_sets(group, h_seeds, g):
    """The starts <H, g> may be closed from, by name: (base, left,
    seeds), each base and left a subgroup inside <H, g>, and the seeds
    generating <H, g> together with them."""
    h = np.asarray(_bfs_closure(group, h_seeds), dtype=np.int32)
    cyclic = np.asarray(_bfs_closure(group, [g]), dtype=np.int32)
    powers = _powers(group, g)
    both = np.append(h_seeds, g).astype(np.int32)
    return {
        "1": (None, None, both),
        "H": (h, None, [g]),
        "<g>": (cyclic, None, both),
        "H, left <g>": (h, powers, [g]),
        "H, left <g>, seeds its powers": (h, powers, powers[1:]),
        "<H, g>": (np.asarray(_bfs_closure(group, both), dtype=np.int32), None, [g]),
    }


def _assert_closures_from_start_sets(group, h_seeds, g):
    want = _bfs_closure(group, np.append(h_seeds, g))
    for name, (base, left, seeds) in _start_sets(group, h_seeds, g).items():
        table = _CountingTable(group.mult)
        got = _kernels.closure(table, seeds, base, left)
        assert got.dtype == np.int32
        assert got.tolist() == want, name
        if name == "<H, g>":
            # nothing is left to find: one round, or none past n/2
            assert table.rows == ([base.size] if 2 * base.size <= group.order else [])


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_closure_from_start_sets_matches_bfs_on_corpus(name):
    group = preset_group(name)
    n = group.order
    for cls in enumerate_classes(group).classes:
        for g in sorted({1 % n, n // 2, n - 1}):
            _assert_closures_from_start_sets(group, cls.generators, g)


@given(group_and_seeds(seed_sets=2))
@settings(max_examples=60, deadline=None)
def test_closure_from_start_sets_matches_bfs(case):
    group, h_seeds, extra = case
    for g in extra:
        _assert_closures_from_start_sets(group, h_seeds, g)


def test_closure_with_left_adds_every_left_translate_of_a_coset():
    # in C19:C18, <H, g> for H of order 3 and g of order 9, with L = <g>:
    # marking each new coset zH alone, not every g^j z H, misses elements
    # of some <H, g> that only the translates lead to
    group = preset_group("C19:C18")
    mult = group.mult
    for cls in enumerate_classes(group).classes:
        if cls.order != 3:
            continue
        for g in np.flatnonzero(group.element_orders == 9):
            got = _kernels.closure(mult, [g], cls.representative.indices, _powers(group, g))
            want = closure_by_bfs(mult, np.append(cls.generators, g))
            assert got.tolist() == want.tolist()


@given(group_and_seeds(seed_sets=2))
@settings(max_examples=60, deadline=None)
def test_closure_matches_the_reference_searches(case):
    # <H, seeds> by cosets of H against the breadth-first reference and
    # the closure by products, for H = 1, a random H and H = G
    group, h_seeds, seeds = case
    mult, n = group.mult, group.order
    want = closure_by_bfs(mult, np.append(h_seeds, seeds)).tolist()
    assert closure_by_products(mult, np.append(h_seeds, seeds)).tolist() == want
    h = closure_by_bfs(mult, h_seeds)
    assert _kernels.closure(mult, seeds, h).tolist() == want
    assert _kernels.closure(mult, np.append(h_seeds, seeds)).tolist() == want
    assert _kernels.closure(mult, seeds, np.arange(n)).tolist() == list(range(n))
    # the generators of G from H = 1 stop past n/2: no element multiplied
    # after that, and each one multiplied once
    gens = np.asarray([group.index(p) for p in group.generators], dtype=np.int32)
    table = _CountingTable(mult)
    assert _kernels.closure(table, gens).tolist() == list(range(n))
    assert sum(table.rows) <= n // 2


@pytest.mark.parametrize("name", CORPUS_NAMES + ("A6",))
def test_closure_of_generators_of_g_stops_past_half(name):
    # a subgroup with more than n/2 elements is G, by Lagrange, so the
    # search multiplies at most n/2 elements before it stops
    group = preset_group(name)
    n = group.order
    seeds = np.asarray([group.index(p) for p in group.generators], dtype=np.int32)
    table = _CountingTable(group.mult)
    assert _kernels.closure(table, seeds).tolist() == list(range(n))
    assert sum(table.rows) <= n // 2


def test_closure_from_a_start_outside_the_subgroup_fails_the_order_check():
    # the base B = {1, (1 2 3), (0 1 2)} is no subgroup of S4: growing
    # <B, (0 1 2)> by the sets zB stops at 9 elements, and 9 does not
    # divide 24
    s4 = _groups()[0]
    base = np.asarray(sorted(s4.index(parse_cycles(4, c)) for c in ("()", "(1 2 3)", "(0 1 2)")))
    seeds = np.asarray([s4.index(parse_cycles(4, "(0 1 2)"))], dtype=np.int32)
    with pytest.raises(InternalCheckError, match="closure of 9 elements"):
        _kernels.closure(s4.mult, seeds, base)


@given(group_and_seeds())
@settings(max_examples=60, deadline=None)
def test_normalizer_members_matches_conjugation(case):
    group, seeds = case
    members = np.asarray(_bfs_closure(group, seeds), dtype=np.int32)
    expected = _brute_normalizer(group, members)
    # the seeds generate H, and so does the whole of H
    for gens in (seeds, members):
        got = _kernels.normalizer_members(group.mult, group.inv, members, gens)
        assert got.tolist() == expected


@given(group_and_seeds())
@settings(max_examples=60, deadline=None)
def test_coset_reps_match_first_unseen(case):
    group, seeds = case
    members = np.asarray(_bfs_closure(group, seeds), dtype=np.int32)
    got = _kernels.coset_reps(group.mult, members)
    assert got.tolist() == _first_unseen_reps(group, members)


def _assert_coset_reps_match_full_scan(group, members):
    # H itself, and N_G(H), which is all of G for a normal H
    norm = _kernels.normalizer_members(group.mult, group.inv, members, members)
    for sub in (members, norm):
        got = _kernels.coset_reps(group.mult, sub)
        assert got.dtype == np.int32
        assert got.tolist() == coset_reps_by_full_scan(group.mult, sub).tolist()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_coset_reps_match_full_scan_on_corpus(name):
    group = preset_group(name)
    for cls in enumerate_classes(group).classes:
        _assert_coset_reps_match_full_scan(group, cls.representative.indices)


@given(group_and_seeds())
@settings(max_examples=60, deadline=None)
def test_coset_reps_match_full_scan(case):
    group, seeds = case
    members = np.asarray(_bfs_closure(group, seeds), dtype=np.int32)
    _assert_coset_reps_match_full_scan(group, members)


class _RowCountingTable:
    """A ``mult`` table that counts the coset rows ``coset_reps`` reads."""

    def __init__(self, mult):
        self.mult = mult
        self.shape = mult.shape
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        block = self.mult[index]
        self.largest = max(getattr(self, "largest", 0), block.nbytes)
        return block


@pytest.mark.parametrize("name", ("S4", "C2xC2xC2xC2", "A5"))
def test_coset_reps_read_one_block(name):
    # every coset's least element comes from one n x |H| gather of the
    # table, with no row read per representative
    group = preset_group(name)
    for cls in enumerate_classes(group).classes:
        for sub in (cls.representative, cls.normalizer):
            table = _RowCountingTable(group.mult)
            reps = _kernels.coset_reps(table, sub.indices)
            assert reps.size * sub.order == group.order
            assert table.reads == 1


@pytest.mark.parametrize("block_bytes", (1, 64, 1000))
@pytest.mark.parametrize("name", ("S4", "A5", "D8xS3", "C3^2:C4"))
def test_coset_reps_in_bounded_blocks_match_full_scan(monkeypatch, name, block_bytes):
    # each block of products holds at most the budget, or one coset when
    # a coset alone exceeds it; the representatives are the scan's
    monkeypatch.setattr(_kernels, "_COSET_BLOCK_BYTES", block_bytes)
    group = preset_group(name)
    for cls in enumerate_classes(group).classes:
        for sub in (cls.representative, cls.normalizer):
            table = _RowCountingTable(group.mult)
            got = _kernels.coset_reps(table, sub.indices)
            assert got.tolist() == coset_reps_by_full_scan(group.mult, sub.indices).tolist()
            assert table.largest <= max(block_bytes, 4 * sub.order)


@given(group_and_seeds(seed_sets=2))
@settings(max_examples=60, deadline=None)
def test_count_fixed_matches_direct_count(case):
    group, h_seeds, k_seeds = case
    h_members = np.asarray(_bfs_closure(group, h_seeds), dtype=np.int32)
    mask = np.zeros(group.order, dtype=bool)
    mask[h_members] = True
    transversal = np.asarray(_first_unseen_reps(group, h_members), dtype=np.int32)
    got = _kernels.count_fixed(group.mult, group.inv, mask, transversal, k_seeds)
    k_members = _bfs_closure(group, k_seeds)
    assert got == _direct_fixed_count(group, transversal, h_members, k_members)


def test_count_fixed_matches_direct_count_on_cyclic_pairs():
    # every pair of cyclic subgroups of S4, so that marks of K on G/H
    # with K conjugate into H but not into every conjugate are covered
    s4 = _groups()[0]
    closures = {i: _bfs_closure(s4, [i]) for i in range(s4.order)}
    for h_members in closures.values():
        h_members = np.asarray(h_members, dtype=np.int32)
        mask = np.zeros(s4.order, dtype=bool)
        mask[h_members] = True
        transversal = np.asarray(_first_unseen_reps(s4, h_members), dtype=np.int32)
        for k, k_members in closures.items():
            kgens = np.asarray([k], dtype=np.int32)
            got = _kernels.count_fixed(s4.mult, s4.inv, mask, transversal, kgens)
            assert got == _direct_fixed_count(s4, transversal, h_members, k_members)


@given(st.lists(st.integers(0, 40), max_size=30))
@settings(max_examples=60, deadline=None)
def test_sorted_unique_and_value_mask_match_numpy(values):
    arr = np.asarray(values, dtype=np.int32)
    got = _kernels.sorted_unique(arr)
    assert got.dtype == arr.dtype and got.tolist() == np.unique(arr).tolist()
    if values:
        odd = [v for v in set(values) if v % 2]
        assert _kernels.value_mask(arr, lambda v: v % 2 == 1).tolist() == np.isin(
            arr, odd
        ).tolist()


# Run in a fresh process, since any earlier test may have imported numpy.ma.
_NO_MA_SCRIPT = """
import sys
import numpy
before = "numpy.ma" in sys.modules
from permrel import effective_prime, main_case_classify, preset_group, prim
from permrel.presets import CORPUS_CHARACTERISTICS, CORPUS_NAMES
cases = [(name, CORPUS_CHARACTERISTICS) for name in CORPUS_NAMES]
cases += [("A6", CORPUS_CHARACTERISTICS), ("C19:C18", CORPUS_CHARACTERISTICS),
          ("C2xC2xC2xC2xC2", (0, 2))]
for name, chars in cases:
    group = preset_group(name)
    for char in chars:
        prim(group, char)
        main_case_classify(group, effective_prime(group, char))
print(before, "numpy.ma" in sys.modules)
"""


def test_prim_and_main_cases_never_import_numpy_ma():
    # np.unique, np.intersect1d and the sort path of np.isin import
    # numpy.ma on first use, which a pass would pay for; neither building
    # the groups nor answering may.  Where ``import numpy`` already loads
    # numpy.ma (before is True) the check is vacuous.
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src] + [path for path in [os.environ.get("PYTHONPATH")] if path]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run(
        [sys.executable, "-c", _NO_MA_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    before, after = out.stdout.split()
    assert before == "True" or after == "False"


@given(permutation_groups())
@settings(max_examples=40, deadline=None)
def test_power_orders_modulo_every_normal_subgroup(group):
    # the least k >= 1 with g^k in N, by multiplying permutations
    for normal in normal_subgroups(group):
        members = {group.elements[i] for i in normal.indices.tolist()}
        expected = []
        for g in group.elements:
            power, k = g, 1
            while power not in members:
                power, k = power * g, k + 1
            expected.append(k)
        assert _kernels.power_orders(group.mult, normal.mask).tolist() == expected
