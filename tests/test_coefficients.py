import ast
import inspect
import sys
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faadibruno.coefficients as coefficients
from faadibruno.coefficients import (
    CrossCheckError,
    RecurrenceEvaluator,
    c_coeff,
    coefficient_table,
    constrained_coefficients,
    faa_di_bruno_coeff,
)
from faadibruno.partitions import (
    CapExceeded,
    Partition,
    enumerate_constrained,
    enumerate_partitions,
)
from faadibruno.symfunc import elementary_moments

from helpers import count_set_partitions_of_type


def test_faa_di_bruno_coeff_examples():
    assert faa_di_bruno_coeff(Partition([2, 1, 1])) == 6
    assert faa_di_bruno_coeff(Partition([])) == 1
    for n in range(1, 8):
        assert faa_di_bruno_coeff(Partition([1] * n)) == 1
        assert faa_di_bruno_coeff(Partition([n])) == 1


def test_faa_di_bruno_counts_set_partitions():
    for n in range(8):
        for lam in enumerate_partitions(n):
            assert faa_di_bruno_coeff(lam) == count_set_partitions_of_type(n, lam.parts)


def test_c_coeff_hand_values():
    assert c_coeff(Partition([2]), 1, 1) == 1
    assert c_coeff(Partition([2, 1]), 1, 1) == 2
    assert c_coeff(Partition([2, 2]), 2, 1) == 1
    for s in range(4):
        assert c_coeff(Partition([]), 0, s) == 1


def test_c_coeff_vanishing_and_preconditions():
    # too few parts above s: the elementary factor dies
    assert c_coeff(Partition([1, 1]), 1, 1) == 0
    # at s = 0 the weight does not bound r: the zero comes without a vector of degree r
    assert c_coeff(Partition([2, 1]), 10**12, 0) == 0
    with pytest.raises(ValueError):
        c_coeff(Partition([1]), 2, 1)  # weight < r*s
    with pytest.raises(ValueError):
        c_coeff(Partition([2]), -1, 0)


def test_recurrence_hand_values():
    assert RecurrenceEvaluator(0).value(Partition([1]), 0) == 1
    assert RecurrenceEvaluator(1).value(Partition([2, 1]), 1) == 2
    assert RecurrenceEvaluator(0).value(Partition([1, 1]), 1) == 2


def test_recurrence_matches_closed_form():
    # modest grid here; the acceptance suite pushes the bounds to n <= 9, s <= 3
    for s in range(3):
        evaluator = RecurrenceEvaluator(s)
        for n in range(8):
            for r in range(n + 1):
                for lam in enumerate_constrained(n, r, s):
                    assert evaluator.value(lam, r) == c_coeff(lam, r, s)


def test_recurrence_deep_decrement_chain():
    # (1241) reaches (41) through a chain of 1,200 decrements before the
    # removal of the part s + 1 = 41; a recursive walk overflows the stack
    lam = Partition([1241])
    assert 1241 - 40 > sys.getrecursionlimit()
    assert RecurrenceEvaluator(40).value(lam, 1) == c_coeff(lam, 1, 40)


def test_recurrence_zero_states():
    # fewer than r parts above s: the recurrence vanishes without a walk
    for w in range(11):
        for lam in enumerate_partitions(w):
            for s in range(4):
                for r in range(w + 2):
                    if r * s > w or lam.length_above(s) >= r:
                        continue
                    assert RecurrenceEvaluator(s).value(lam, r) == 0 == c_coeff(lam, r, s)


def test_recurrence_memo_is_order_independent():
    queries = [(r, lam) for r in range(11) for lam in enumerate_constrained(10, r, 4)]
    forward, backward = RecurrenceEvaluator(4), RecurrenceEvaluator(4)
    expected = [forward.value(lam, r) for r, lam in queries]
    got = [backward.value(lam, r) for r, lam in reversed(queries)]
    assert got[::-1] == expected


def test_recurrence_reads_neither_symfunc_nor_the_closed_form():
    import faadibruno.symfunc as symfunc

    tree = ast.parse(inspect.getsource(RecurrenceEvaluator))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    symfunc_names = {
        name
        for name, obj in vars(symfunc).items()
        if getattr(obj, "__module__", None) == symfunc.__name__
    }
    closed_form = {"c_coeff", "constrained_coefficients", "coefficient_table", "_denominator"}
    assert not read & (symfunc_names | closed_form | {"symfunc", "elementary_moments"})


def test_recurrence_r0_slice():
    # the single-sum recurrence already reproduces the classical coefficient
    evaluators = {s: RecurrenceEvaluator(s) for s in range(3)}
    for n in range(11):
        for lam in enumerate_partitions(n):
            expected = faa_di_bruno_coeff(lam)
            for s, evaluator in evaluators.items():
                assert evaluator.value(lam, 0) == expected


def test_integrality():
    # modest grid here; the acceptance suite pushes the bounds to n <= 10, s <= 4
    for s in range(4):
        for n in range(9):
            for r, lam, c in coefficient_table(n, s):
                assert isinstance(c, int)
                assert c > 0


def test_s0_reduction_binomial():
    for n in range(11):
        for lam in enumerate_partitions(n):
            base = faa_di_bruno_coeff(lam)
            for r in range(lam.length + 1):
                assert c_coeff(lam, r, 0) == comb(lam.length, r) * base


def test_r0_reduction_any_s():
    for n in range(9):
        for lam in enumerate_partitions(n):
            expected = faa_di_bruno_coeff(lam)
            for s in range(4):
                assert c_coeff(lam, 0, s) == expected


def test_first_shift_integrality():
    # n! e_r(parts above 1) / prod j!^m_j m_j! is an integer for lam of n + r
    for n in range(11):
        for r in range(n + 1):
            for lam in enumerate_partitions(n + r):
                trunc = lam.truncate_above(1)
                e_r = elementary_moments(trunc.pochhammer(1), r)[r]
                den = 1
                for j, m in lam.items():
                    den *= factorial(j) ** m * factorial(m)
                assert (factorial(n) * e_r) % den == 0


def test_table_examples_and_ordering():
    table = coefficient_table(0, 2)
    assert [(r, lam.parts, c) for r, lam, c in table] == [(0, (), 1)]

    table = coefficient_table(1, 1)
    assert [(r, lam.parts, c) for r, lam, c in table] == [
        (0, (1,), 1),
        (1, (2,), 1),
    ]

    # read twice below, so built whole
    table = tuple(coefficient_table(2, 1, verify=True))
    entries = {(r, lam.parts): c for r, lam, c in table}
    assert entries == {
        (0, (1, 1)): 1,
        (0, (2,)): 1,
        (1, (2, 1)): 2,
        (1, (3,)): 1,
        (2, (2, 2)): 1,
    }
    rs = [r for r, _lam, _c in table]
    assert rs == sorted(rs)
    for r in set(rs):
        seqs = [lam.parts for rr, lam, _c in table if rr == r]
        assert seqs == sorted(seqs, reverse=True)


def test_table_index_set():
    for n in range(6):
        for s in range(3):
            table = coefficient_table(n, s)
            expected = {
                (r, lam)
                for r in range(n + 1)
                for lam in enumerate_constrained(n, r, s)
            }
            assert {(r, lam) for r, lam, _c in table} == expected


def test_table_cap():
    with pytest.raises(CapExceeded):
        coefficient_table(40, 4)
    # refused before a factorial table up to the weight is built
    with pytest.raises(CapExceeded):
        constrained_coefficients(10**9, 1, 0)
    with pytest.raises(ValueError):
        constrained_coefficients(3, -1, 0)


def test_table_serialization():
    # the entries behind the csv and json forms; their bytes are pinned in test_cli.py
    table = tuple(coefficient_table(1, 1))
    assert [(r, lam.parts, c) for r, lam, c in table] == [(0, (1,), 1), (1, (2,), 1)]
    assert all(isinstance(lam, Partition) for _r, lam, _c in table)
    assert [(r, lam.parts, c) for r, lam, c in coefficient_table(0, 3)] == [(0, (), 1)]


def test_verify_mode_runs_clean():
    tuple(coefficient_table(5, 2, verify=True))


def test_table_is_a_stream_checked_at_the_call(monkeypatch):
    real = coefficients.constrained_coefficients
    walks = []

    def counted(n, r, s, cap):
        walks.append(r)
        return real(n, r, s, cap=cap)

    monkeypatch.setattr(coefficients, "constrained_coefficients", counted)
    table = coefficient_table(6, 2)
    assert walks == []
    assert next(table)[0] == 0
    assert walks == [0]
    # the arguments and the cap are refused at the call, before anything is read
    with pytest.raises(CapExceeded, match=r"^table \(n=40, s=4\) reaches weight 200 > cap 64$"):
        coefficient_table(40, 4, verify=True)
    with pytest.raises(ValueError, match="^n and s must be non-negative$"):
        coefficient_table(-1, 0)
    assert walks == [0]


def test_verify_mode_detects_disagreement(monkeypatch):
    real = coefficients.constrained_coefficients

    def wrong(n, r, s, cap):
        return ((lam, c + (r == 1)) for lam, c in real(n, r, s, cap=cap))

    monkeypatch.setattr(coefficients, "constrained_coefficients", wrong)
    with pytest.raises(CrossCheckError):
        tuple(coefficient_table(2, 1, verify=True))


# n <= 14 and s <= 4 reach weight 14 + 14 * 4 = 70, past the default cap
PROPERTY_CAP = 70
ORDERS = st.integers(0, 14)
SHIFTS = st.integers(0, 4)


@settings(max_examples=40, deadline=None)
@given(ORDERS, SHIFTS)
def test_folded_table_rows_equal_the_closed_form(n, s):
    for r, lam, c in coefficient_table(n, s, cap=PROPERTY_CAP):
        assert c == c_coeff(lam, r, s), (r, lam)


@settings(max_examples=40, deadline=None)
@given(ORDERS, SHIFTS, st.data())
def test_folded_rows_of_one_length_follow_the_enumeration(n, s, data):
    r = data.draw(st.integers(0, n), label="r")
    length = data.draw(st.integers(r, n), label="length")
    rows = list(constrained_coefficients(n, r, s, cap=PROPERTY_CAP, length=length))
    expected = list(enumerate_constrained(n, r, s, cap=PROPERTY_CAP, length=length))
    assert [lam for lam, _c in rows] == expected
    # the folded items are the ones a partition counts from its own parts
    assert [lam.items() for lam, _c in rows] == [Partition(lam.parts).items() for lam in expected]
    assert [c for _lam, c in rows] == [c_coeff(lam, r, s) for lam in expected]


def test_packed_fold_at_s0_is_the_binomial_on_all_ones():
    # length = n leaves only 1^n, whose e_r = binom(n, r) nearly fills a slot of
    # n + 1 bits; c_coeff costs O(n * r) an entry, so it checks a subset of the rows
    for n in range(201):
        for r in range(n + 1):
            [(lam, c)] = constrained_coefficients(n, r, 0, cap=200, length=n)
            assert (lam.parts, c) == ((1,) * n, comb(n, r)), (n, r)
            if n <= 40 or n == 200:
                assert c == c_coeff(lam, r, 0), (n, r)


def test_packed_fold_with_every_part_above_s():
    # length = r puts every part above s, so e_r is the product of all the (i)_s
    for s in range(1, 41):
        for n in range(11):
            for r in range(1, n + 1):
                rows = list(constrained_coefficients(n, r, s, cap=10 + 10 * 40, length=r))
                assert rows, (n, r, s)
                for lam, c in rows:
                    assert lam.length_above(s) == r
                    assert c == c_coeff(lam, r, s), (lam, r, s)


def test_packed_fold_builds_nothing_sized_by_r_past_n():
    # r > n gives an empty walk, and no mask of (r + 1) slots is built for it
    assert list(constrained_coefficients(10, 10**12, 0)) == []
    assert list(constrained_coefficients(10, 10**12, 3, cap=10**14)) == []


@settings(max_examples=40, deadline=None)
@given(ORDERS, SHIFTS, st.booleans(), st.randoms(use_true_random=False))
def test_recurrence_in_any_query_order_equals_the_closed_form(n, s, descending, rng):
    # a query below the lowest r of a stored entry recomputes that entry
    queries = [(r, lam) for r, lam, _c in coefficient_table(n, s, cap=PROPERTY_CAP)]
    if descending:
        queries.reverse()
    else:
        rng.shuffle(queries)
    evaluator = RecurrenceEvaluator(s)
    for r, lam in queries:
        assert evaluator.value(lam, r) == c_coeff(lam, r, s), (r, lam)


def _table_evaluator(monkeypatch, n, s):
    """The evaluator a verified coefficient_table(n, s) shares across its entries."""
    made = []

    class Recording(RecurrenceEvaluator):
        def __init__(self, s):
            super().__init__(s)
            made.append(self)

    monkeypatch.setattr(coefficients, "RecurrenceEvaluator", Recording)
    tuple(coefficient_table(n, s, verify=True))
    (evaluator,) = made
    return evaluator


@pytest.mark.parametrize(
    "n, s, entries",
    [
        # sum over w <= n of p(w): one entry per partition the walk can reach
        (10, 0, 139),
        (16, 0, 915),
        (22, 0, 4508),
        # one entry per partition the recurrence reaches from the table's entries
        (10, 4, 1073),
    ],
)
def test_recurrence_memo_holds_one_entry_per_partition(monkeypatch, n, s, entries):
    # the recurrence's work, pinned exactly: a change that fills more entries fails here
    evaluator = _table_evaluator(monkeypatch, n, s)
    assert len(evaluator._memo) == entries


def test_the_recurrence_refuses_a_negative_shift_or_r():
    with pytest.raises(ValueError, match="^s must be non-negative$"):
        RecurrenceEvaluator(-1)
    with pytest.raises(ValueError, match="^r must be non-negative$"):
        RecurrenceEvaluator(0).value(Partition([2, 1]), -1)
