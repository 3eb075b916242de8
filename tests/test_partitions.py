from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from faadibruno.bell import (
    complete_bell,
    modified_complete_bell,
    modified_stirling,
    partial_bell,
    product_form_complete,
    product_form_partial,
    stirling_table,
)
from faadibruno.coefficients import coefficient_table
from faadibruno.diffalg import (
    faa_expansion,
    formula_expansion,
    leibniz_product_expansion,
    nth_derivative_expansion,
)
from faadibruno.partitions import (
    CapExceeded,
    Partition,
    enumerate_constrained,
    enumerate_partitions,
    modifications,
)

from helpers import constrained_reference, partition_count_dp, partition_reference


def test_make_partition_counts_multiplicities():
    lam = Partition([2, 1, 1])
    assert lam.items() == ((1, 2), (2, 1))
    assert lam.weight == 4
    assert lam.length == 3
    # m_i for the sizes present, ascending; an absent size is not listed
    assert Partition([1, 3, 1, 3]).items() == ((1, 2), (3, 2))


def test_empty_partition():
    lam = Partition([])
    assert lam.weight == 0
    assert lam.length == 0
    assert not lam
    assert lam.parts == ()
    assert lam.items() == ()


def test_order_insensitive_equality_and_hash():
    assert Partition([1, 2]) == Partition([2, 1])
    assert hash(Partition([1, 2])) == hash(Partition([2, 1]))
    assert Partition([2]) != Partition([1, 1])


@pytest.mark.parametrize("bad", [0, -1, "2", True, 2.0])
def test_make_partition_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        Partition([bad])


def test_moments():
    assert Partition([2, 1]).moment(2) == 5
    assert Partition([3, 3]).moment(3) == 54
    for k in range(1, 6):
        assert Partition([]).moment(k) == 0
        assert Partition([1, 1, 1]).moment(k) == 3
    lam = Partition([4, 2, 2, 1])
    assert lam.moment(1) == lam.weight
    with pytest.raises(ValueError):
        lam.moment(0)


def test_enumerate_small_and_order():
    assert [p.parts for p in enumerate_partitions(0)] == [()]
    assert [p.parts for p in enumerate_partitions(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert len(list(enumerate_partitions(10))) == 42


def test_enumeration_matches_dp_count_no_duplicates():
    counts = partition_count_dp(30)
    for n in range(31):
        seen = list(enumerate_partitions(n))
        assert len(seen) == counts[n]
        assert len(set(seen)) == len(seen)
        assert all(lam.weight == n for lam in seen)
        sequences = [lam.parts for lam in seen]
        assert sequences == sorted(sequences, reverse=True)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_partitions(65))
    with pytest.raises(CapExceeded):
        list(enumerate_partitions(11, cap=10))
    assert next(iter(enumerate_partitions(65, cap=65))).parts == (65,)
    assert len(list(enumerate_partitions(12, cap=12))) == 77
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))


@pytest.mark.parametrize(
    "build, weight",
    [
        (lambda cap: list(enumerate_partitions(5, cap=cap)), 5),
        (lambda cap: list(enumerate_constrained(3, 1, 2, cap=cap)), 5),
        (lambda cap: coefficient_table(2, 1, cap=cap), 4),
        (lambda cap: stirling_table(4, cap=cap), 4),
        (lambda cap: partial_bell(5, 2, cap=cap), 5),
        (lambda cap: complete_bell(5, cap=cap), 5),
        (lambda cap: modified_complete_bell(2, 1, cap=cap), 4),
        (lambda cap: modified_stirling(5, 2, 1, cap=cap), 5),
        (lambda cap: product_form_partial(3, 2, 1, 1, cap=cap), 4),
        (lambda cap: product_form_complete(2, 1, cap=cap), 4),
        (lambda cap: nth_derivative_expansion(2, 1, cap=cap), 4),
        (lambda cap: formula_expansion(2, 1, cap=cap), 4),
        (lambda cap: faa_expansion(4, cap=cap), 4),
        (lambda cap: leibniz_product_expansion(3, cap=cap), 3),
    ],
    ids=[
        "enumerate_partitions",
        "enumerate_constrained",
        "coefficient_table",
        "stirling_table",
        "partial_bell",
        "complete_bell",
        "modified_complete_bell",
        "modified_stirling",
        "product_form_partial",
        "product_form_complete",
        "nth_derivative_expansion",
        "formula_expansion",
        "faa_expansion",
        "leibniz_product_expansion",
    ],
)
def test_every_capped_entry_point_admits_the_cap_and_refuses_one_past_it(build, weight):
    build(weight)
    with pytest.raises(CapExceeded, match=rf" reaches weight {weight} > cap {weight - 1}$"):
        build(weight - 1)


def test_enumerate_constrained_examples():
    assert [p.parts for p in enumerate_constrained(1, 1, 1)] == [(2,)]
    assert [p.parts for p in enumerate_constrained(0, 0, 3)] == [()]
    assert list(enumerate_constrained(1, 2, 1)) == []


def test_enumerate_constrained_is_filtered_enumeration():
    for n in range(5):
        for r in range(4):
            for s in range(3):
                direct = list(enumerate_constrained(n, r, s))
                filtered = [
                    lam for lam in enumerate_partitions(n + r * s) if lam.length_above(s) >= r
                ]
                assert direct == filtered
                if r > n:
                    assert direct == []


def _listing(partitions):
    return [(lam.parts, lam.weight, lam.length) for lam in partitions]


def _expected(sequences):
    return [(parts, sum(parts), len(parts)) for parts in sequences]


def test_enumerate_constrained_matches_brute_force_in_order():
    # the output-sensitive walk must produce exactly the filtered reference
    # list, in the same decreasing lexicographic order, with the same metadata
    for n in range(13):
        for r in range(n + 1):
            for s in range(5):
                weight = n + r * s
                if weight > 40:
                    continue
                reference = constrained_reference(n, r, s)
                assert _listing(enumerate_constrained(n, r, s)) == _expected(reference)
                for k in range(weight + 2):
                    with_k = [parts for parts in reference if len(parts) == k]
                    got = _listing(enumerate_constrained(n, r, s, length=k))
                    assert got == _expected(with_k), (n, r, s, k)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 14),
    r=st.integers(0, 15),
    s=st.integers(0, 6),
    length=st.none() | st.integers(0, 32),
)
def test_enumerate_constrained_property(n, r, s, length):
    assume(n + r * s <= 30)
    got = _listing(enumerate_constrained(n, r, s, length=length))
    assert got == _expected(constrained_reference(n, r, s, length))


def _counting_fold():
    """A fold whose items are the (part, multiplicity) pushes on the way to each
    partition, with a count of every push the walk makes."""
    pushed = [0]

    def push(state, part, m):
        pushed[0] += 1
        return state + ((part, m),)

    return pushed, ((), push, lambda state, _ones: state)


def _pushes_expected(partitions):
    # the parts above 1 of each partition, each with its multiplicity so far
    return [
        tuple((a, lam.parts[: k + 1].count(a)) for k, a in enumerate(lam.parts) if a > 1)
        for lam in partitions
    ]


def test_listing_walk_places_one_part_per_partition_but_one():
    # a deterministic work count: every partition with a part above 1 is its
    # own prefix, so the walk places exactly its smallest such part once for
    # it, and nothing for 1^n (or for the empty partition); at r = s = 0 the
    # constrained walk is the walk over every partition of n
    counts = partition_count_dp(50)
    for n in [*range(31), 50]:
        pushed, fold = _counting_fold()
        values = [value for _lam, value in enumerate_constrained(n, 0, 0, fold=fold)]
        assert len(values) == counts[n]
        assert pushed[0] == counts[n] - 1, n
        if n <= 20:
            assert values == _pushes_expected(enumerate_partitions(n)), n


def _prefixes(partitions):
    # the distinct prefixes ending in a part above 1 of the partitions given
    above = [(lam.parts, sum(a > 1 for a in lam.parts)) for lam in partitions]
    return {parts[:i] for parts, k in above for i in range(1, k + 1)}


def test_constrained_walk_places_no_part_off_the_way_to_a_partition():
    # every part placed lies on the way to some partition produced, and a
    # prefix shared by several is placed once, so the pushes are exactly the
    # distinct prefixes ending in a part above 1; a folding walk pairs each
    # value with the partition the plain walk yields
    for n in range(13):
        for s in range(4):
            for r in range(n + 1):
                weight = n + r * s
                for length in [None, *range(weight + 1)]:
                    pushed, fold = _counting_fold()
                    pairs = list(enumerate_constrained(n, r, s, length=length, fold=fold))
                    values = [value for _lam, value in pairs]
                    built = list(enumerate_constrained(n, r, s, length=length))
                    assert [lam for lam, _value in pairs] == built, (n, r, s, length)
                    assert values == _pushes_expected(built), (n, r, s, length)
                    assert pushed[0] == len(_prefixes(built)), (n, r, s, length)


@pytest.mark.parametrize("n, length, pushes, count", [(40, 10, 11756, 3590), (30, 6, 1334, 532)])
def test_an_exact_length_walk_makes_a_pinned_number_of_pushes(n, length, pushes, count):
    # the walk's work at a fixed length, pinned exactly and checked against the
    # prefix law: a change that places more parts fails here
    pushed, fold = _counting_fold()
    built = [lam for lam, _value in enumerate_constrained(n, 0, 0, length=length, fold=fold)]
    assert (pushed[0], len(built)) == (pushes, count)
    assert pushed[0] == len(_prefixes(built))


def test_enumerate_constrained_rejects_negative_length():
    with pytest.raises(ValueError):
        list(enumerate_constrained(3, 1, 0, length=-1))


def test_truncate_above():
    assert Partition([2, 1]).truncate_above(1) == Partition([2])
    assert Partition([1, 1]).truncate_above(1) == Partition([])
    lam = Partition([5, 3, 3, 1])
    assert lam.truncate_above(0) == lam
    kept = Partition([5, 3]).truncate_above(2)
    assert kept == Partition([5, 3]) and kept.items() == Partition([5, 3]).items()


def test_truncation_fixed_point_characterization():
    for n in range(11):
        for lam in enumerate_partitions(n):
            for s in range(4):
                fixed = lam.truncate_above(s) == lam
                assert fixed == all(i > s for i, _ in lam.items())
                shifted = lam.shift_up(s)
                assert shifted.truncate_above(s) == shifted
                if fixed and lam:
                    down = Partition([a - s for a in lam.parts])
                    assert down.shift_up(s) == lam


def test_pochhammer():
    assert Partition([3, 2]).pochhammer(1) == (3, 2)
    assert Partition([2, 3]).pochhammer(2) == (6, 2)
    assert Partition([2, 2]).pochhammer(0) == (1, 1)
    with pytest.raises(ValueError):
        Partition([2, 1]).pochhammer(2)
    with pytest.raises(ValueError):
        Partition([3]).pochhammer(-1)


def test_union_and_shift_examples():
    assert Partition([2, 1]).union(Partition([1])) == Partition([2, 1, 1])
    assert Partition([2, 1]).shift_up(1) == Partition([3, 2])
    assert Partition([]).shift_up(5) == Partition([])


def _counts(lam):
    # the m_i of lam's items as a Counter, which adds and subtracts them
    return Counter(dict(lam.items()))


def test_union_shift_parameter_laws_exhaustive():
    pool = [lam for n in range(11) for lam in enumerate_partitions(n)]
    for mu in pool:
        for nu in pool:
            if mu.weight + nu.weight > 10:
                continue
            both = mu.union(nu)
            assert both.weight == mu.weight + nu.weight
            assert both.length == mu.length + nu.length
            assert _counts(both) == _counts(mu) + _counts(nu)
    for mu in pool:
        for s in range(4):
            up = mu.shift_up(s)
            assert up.length == mu.length
            assert up.weight == mu.weight + s * mu.length
            assert up.items() == tuple((i + s, m) for i, m in mu.items())


def test_remove_and_decrement_examples():
    # (j, m_j, one j removed, one j lowered to j - 1), ascending j; a lowered 1 is dropped
    assert list(modifications((2, 2, 1))) == [(1, 1, (2, 2), (2, 2)), (2, 2, (2, 1), (2, 1, 1))]
    assert list(modifications((1,))) == [(1, 1, (), ())]
    assert list(modifications((2, 1))) == [(1, 1, (2,), (2,)), (2, 1, (1,), (1, 1))]
    assert list(modifications((2,))) == [(2, 1, (), (1,))]
    assert list(modifications(())) == []
    # modifications is the one implementation; Partition keeps no second one
    for name in ("remove_part", "decrement_part", "_last"):
        assert not hasattr(Partition, name)


def test_modification_parameter_laws_exhaustive():
    # removing a part j: weight -j, length -1, m_j -1;
    # decrementing: weight -1, length -delta_{j,1}, m_j -1 and m_{j-1} +1 for j >= 2
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert [(j, m) for j, m, _, _ in modifications(lam.parts)] == list(lam.items())
            for j, _m, removed, lowered in modifications(lam.parts):
                removed, lowered = Partition(removed), Partition(lowered)
                assert removed.weight == lam.weight - j
                assert removed.length == lam.length - 1
                assert lowered.weight == lam.weight - 1
                assert lowered.length == lam.length - (1 if j == 1 else 0)
                fewer = _counts(lam) - Counter({j: 1})
                assert _counts(removed) == fewer
                assert _counts(lowered) == fewer + Counter({j - 1: 1} if j > 1 else {})
                if j == 1:
                    assert lowered == removed


def _same_partition(fast, parts):
    rebuilt = Partition(parts)
    assert fast.parts == rebuilt.parts
    assert fast.weight == rebuilt.weight
    assert fast.length == rebuilt.length
    assert fast.items() == rebuilt.items()
    assert fast == rebuilt
    assert hash(fast) == hash(rebuilt)


def test_modification_metadata_matches_rebuilt_partition():
    # the enumeration passes on the items it tracks, and every modification
    # slices or rebuilds the parts tuple; each must agree with a from-scratch
    # build from the plain list of parts, the raw tuples of modifications in
    # their order too, since the recurrence keys its memo on them
    pool = [lam for n in range(13) for lam in enumerate_partitions(n)]
    for lam in pool:
        _same_partition(lam, lam.parts)
        for j, _m, removed, lowered in modifications(lam.parts):
            rest = list(lam.parts)
            rest.remove(j)
            assert removed == Partition(rest).parts
            assert lowered == Partition(rest + ([j - 1] if j > 1 else [])).parts
        for s in range(5):
            _same_partition(lam.shift_up(s), [a + s for a in lam.parts])
            _same_partition(lam.truncate_above(s), [a for a in lam.parts if a > s])
    for mu in pool:
        for nu in pool:
            if mu.weight + nu.weight <= 12:
                _same_partition(mu.union(nu), list(mu.parts) + list(nu.parts))


@st.composite
def part_lists(draw, max_weight=24):
    # a plain list of positive parts of weight <= max_weight, in any order
    parts, rem = [], draw(st.integers(0, max_weight))
    while rem:
        part = draw(st.integers(1, rem))
        parts.append(part)
        rem -= part
    return draw(st.permutations(parts))


@settings(max_examples=300, deadline=None)
@given(parts=part_lists(), s=st.integers(0, 6))
def test_queries_match_plain_list_reference(parts, s):
    lam = Partition(parts)
    ordered, items, moments, above, falling = partition_reference(parts, s)
    assert lam.parts == ordered
    assert lam.items() == items
    assert (lam.weight, lam.length) == (sum(parts), len(parts))
    assert [lam.moment(k) for k in range(1, 5)] == moments
    assert lam.length_above(s) == above
    if falling is None:
        with pytest.raises(ValueError):
            lam.pochhammer(s)
    else:
        assert lam.pochhammer(s) == falling


def test_parts_roundtrip():
    for n in range(9):
        for lam in enumerate_partitions(n):
            assert Partition(lam.parts) == lam


@pytest.mark.parametrize("method", ["length_above", "shift_up"])
def test_a_negative_shift_is_refused(method):
    with pytest.raises(ValueError, match="^s must be non-negative$"):
        getattr(Partition([2, 1]), method)(-1)
