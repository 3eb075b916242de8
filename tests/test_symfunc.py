from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faadibruno.partitions import Partition, enumerate_partitions
from faadibruno.symfunc import (
    elementary_by_subpartitions,
    elementary_moments,
    newton_residuals,
    subtract_transform,
)

from helpers import elementary_by_subsets, remove_one


def all_multisets(card_max, entry_max):
    for card in range(card_max + 1):
        for combo in combinations_with_replacement(range(1, entry_max + 1), card):
            yield combo[::-1]


def test_elementary_moments_examples():
    assert elementary_moments((3, 2, 1), 3) == (1, 6, 11, 6)
    assert elementary_moments((), 2) == (1, 0, 0)
    assert elementary_moments((2, 2), 3) == (1, 4, 4, 0)
    with pytest.raises(ValueError):
        elementary_moments((1,), -1)


def test_elementary_moments_against_subset_sums():
    for b in all_multisets(5, 6):
        vector = elementary_moments(b, len(b) + 2)
        for r in range(len(b) + 3):
            assert vector[r] == elementary_by_subsets(b, r)


def test_vanishing_past_cardinality():
    for b in all_multisets(4, 9):
        vector = elementary_moments(b, len(b) + 3)
        assert vector[0] == 1
        for r in range(len(b) + 1, len(b) + 4):
            assert vector[r] == 0


def test_newton_residual_examples():
    assert newton_residuals((2, 1), 2) == (0, 0)
    assert newton_residuals((), 1) == (0,)
    assert newton_residuals((11, 7, 5), 3) == (0, 0, 0)
    assert newton_residuals((3, 1), 0) == ()
    with pytest.raises(ValueError):
        newton_residuals((1,), -1)


def test_newton_residual_exhaustive_small():
    for b in all_multisets(5, 8):
        assert newton_residuals(b, 5) == (0,) * 5


def test_subtract_transform_examples():
    e = elementary_moments((3, 2), 2)
    assert subtract_transform(e, 3, 1) == (1, 4, 4)
    assert subtract_transform(e, 3, 3) == (1, 2, 0)
    assert subtract_transform(e, 3, 0) == e
    for bad in ((), (0, 5, 6), (2, 5, 6)):
        with pytest.raises(ValueError):
            subtract_transform(bad, 3, 1)


def test_subtract_transform_general_replacement():
    # replacing b_l by b_l - c transforms the vector exactly as predicted
    for b in all_multisets(4, 6):
        if not len(b):
            continue
        e = elementary_moments(b, len(b))
        for value in sorted(set(b)):
            for c in range(value + 1):
                replaced = remove_one(b, value) + (value - c,)
                assert subtract_transform(e, value, c) == elementary_moments(
                    replaced, len(b)
                )


def test_subtract_transform_omission_is_removal():
    for b in all_multisets(5, 8):
        if not len(b):
            continue
        e = elementary_moments(b, len(b))
        for value in sorted(set(b)):
            assert subtract_transform(e, value, value) == elementary_moments(
                remove_one(b, value), len(b)
            )


def test_elementary_by_subpartitions_examples():
    assert elementary_by_subpartitions(Partition([2, 2, 3]), 0, 2) == 3
    assert elementary_by_subpartitions(Partition([2]), 1, 1) == 2
    for eta in (Partition([3, 1]), Partition([]), Partition([5, 5, 2])):
        assert elementary_by_subpartitions(eta, 0, 0) == 1
        assert elementary_by_subpartitions(eta, 0, eta.length + 1) == 0
    assert elementary_by_subpartitions(Partition([]), 2, 0) == 1
    # (4)_2 = 12 and (3)_2 = 6: e = (1, 18, 72), and 0 past the length
    values = [elementary_by_subpartitions(Partition([4, 3]), 2, r) for r in range(4)]
    assert values == [1, 18, 72, 0]
    with pytest.raises(ValueError):
        elementary_by_subpartitions(Partition([2, 1]), 1, 1)


def test_subpartition_sum_matches_generating_function():
    # the subset-sum definition and the product expansion agree on the
    # falling-factorial image, for every admissible (eta, s, r)
    for m in range(13):
        for eta in enumerate_partitions(m):
            for s in range(4):
                if s >= 1 and any(i <= s for i, _ in eta.items()):
                    continue
                vector = elementary_moments(eta.pochhammer(s), eta.length + 1)
                for r in range(eta.length + 2):
                    assert elementary_by_subpartitions(eta, s, r) == vector[r]


multisets = st.lists(st.integers(0, 12), max_size=8).map(tuple)


@settings(max_examples=200, deadline=None)
@given(multisets, st.integers(-2, 2))
def test_elementary_moments_matches_subsets_around_cardinality(b, offset):
    # r_max below, at and above len(b)
    r_max = max(len(b) + offset, 0)
    assert elementary_moments(b, r_max) == tuple(
        elementary_by_subsets(b, r) for r in range(r_max + 1)
    )


@settings(max_examples=200, deadline=None)
@given(multisets, st.integers(0, 10))
def test_newton_residuals_in_one_pass(b, r_max):
    residuals = newton_residuals(b, r_max)
    assert residuals == (0,) * r_max
    # a shorter run is a prefix of the longer one
    assert all(newton_residuals(b, r) == residuals[:r] for r in range(r_max))
    # the identity itself, from explicit power sums and subset-sum e_r
    for r in range(1, r_max + 1):
        convolution = sum(
            (-1) ** (k - 1) * sum(x**k for x in b) * elementary_by_subsets(b, r - k)
            for k in range(1, r + 1)
        )
        assert convolution == r * elementary_by_subsets(b, r)


@settings(max_examples=200, deadline=None)
@given(multisets.filter(len), st.data())
def test_subtract_vector_matches_subsets_of_the_replaced_multiset(b, data):
    value = data.draw(st.sampled_from(b))
    c = data.draw(st.integers(0, value))
    n = len(b)
    replaced = remove_one(b, value) + (value - c,)
    assert subtract_transform(elementary_moments(b, n), value, c) == tuple(
        elementary_by_subsets(replaced, r) for r in range(n + 1)
    )


def test_subpartition_sum_refuses_a_negative_shift():
    with pytest.raises(ValueError, match="^r and s must be non-negative$"):
        elementary_by_subpartitions(Partition([2]), 0, -1)
