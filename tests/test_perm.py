"""Permutations, cycle notation, group generation, and Cayley tables."""

import numpy as np
import pytest

from permrel.errors import CapExceeded, InputError
from permrel.perm import (
    Permutation,
    compose,
    cycle_string,
    from_cycles,
    generate,
    identity,
    parse_cycles,
)
from permrel.presets import preset_group


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


def test_conjugate_indices_sorted():
    g = generate(3, [parse_cycles(3, "(0 1)"), parse_cycles(3, "(0 1 2)")])
    rotation = g.index(parse_cycles(3, "(0 1 2)"))
    sub = np.asarray([0, rotation, g.index(parse_cycles(3, "(0 2 1)"))],
                     dtype=np.int32)
    for gi in range(g.order):
        conj = g.conjugate_indices(gi, sub)
        assert list(conj) == sorted(conj)
        assert len(conj) == len(sub)
