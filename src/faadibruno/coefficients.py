"""Exact partition-indexed coefficients of the higher-order product-chain rule.

The central object is the integer

    C(lam, r, s) = n! * e_r(pochhammer(truncate_above(lam, s), s)) / prod_i (i!)^m_i m_i!

with n = weight(lam) - r*s.  It is computed two independent ways: by the
closed formula above, and by a recurrence over partition modifications.  The
closed formula is the production path; the recurrence is the cross-check.
"""

from __future__ import annotations

from math import factorial, perm
from typing import Iterator

from .partitions import (
    DEFAULT_WEIGHT_CAP,
    CapExceeded,
    Partition,
    enumerate_constrained,
    modifications,
)
from .symfunc import elementary_moments


class IntegralityError(ArithmeticError):
    """A coefficient reduced to a non-integer; this indicates an implementation bug."""


class CrossCheckError(ArithmeticError):
    """Closed-form and recurrence evaluations disagree."""


def _denominator(lam: Partition) -> int:
    d = 1
    for i, m in lam.items():
        d *= factorial(i) ** m * factorial(m)
    return d


def faa_di_bruno_coeff(lam: Partition) -> int:
    """weight! / prod_i (i!)^m_i m_i!  (the number of set partitions of type lam)."""
    num = factorial(lam.weight)
    den = _denominator(lam)
    q, rem = divmod(num, den)
    if rem:  # cannot happen: the quotient counts set partitions
        raise IntegralityError(f"classical coefficient of {lam!r} is not integral")
    return q


def c_coeff(lam: Partition, r: int, s: int) -> int:
    """The generalized coefficient C(lam, r, s), asserted integral.

    Zero when fewer than r parts of lam exceed s (the elementary symmetric
    factor vanishes).  weight(lam) must be at least r*s so that the implied
    derivative order n = weight - r*s is non-negative.
    """
    if r < 0 or s < 0:
        raise ValueError("r and s must be non-negative")
    n = lam.weight - r * s
    if n < 0:
        raise ValueError(f"weight {lam.weight} is smaller than r*s = {r * s}")
    if lam.length_above(s) < r:
        return 0
    trunc = lam.truncate_above(s)
    e_r = elementary_moments(trunc.pochhammer(s), r)[r]
    q, rem = divmod(factorial(n) * e_r, _denominator(lam))
    if rem:
        raise IntegralityError(f"C({lam!r}, r={r}, s={s}) is not an integer")
    return q


def constrained_coefficients(
    n: int, r: int, s: int, cap: int = DEFAULT_WEIGHT_CAP, length: int | None = None
) -> Iterator[tuple[Partition, int]]:
    """(lam, C(lam, r, s)) for each lam of enumerate_constrained(n, r, s, cap, length).

    Same partitions in the same order, each coefficient folded along the
    partition walk instead of rebuilt per entry; the walk pairs it with the
    partition it builds.  A state is the pair (e, den): den is the running
    prod_i (i!)^m_i m_i!, and e is the elementary vector e_0..e_r of the
    falling factorials (i)_s of the placed parts i > s, packed into one int
    with e_j in bits [j*w, (j+1)*w), so that e is the polynomial sum_j e_j X^j
    at X = 2^w.  Placing a part i whose multiplicity becomes m multiplies den
    by i! * m and, when i > s, multiplies e by 1 + (i)_s X and drops the
    slots above r: a constant number of big-int operations on r + 1 slots,
    once per shared prefix.  The trailing run of t ones closes the fold at
    the leaf: den gains t!, and e is multiplied by (1 + X)^t when a 1 lies
    above s (s = 0, where (1)_0 = 1) and by 1 otherwise; e_r is then read off
    its slot.  Integrality is asserted as in :func:`c_coeff`, which stays the
    independent per-entry form.

    The slot width w = N // (s+1) + r*s*L + 1, with N = n + r*s and L the
    bit length of N, keeps every slot 0..r below 2^w, so none carries into
    the next: at most k <= N // (s+1) parts exceed s, and each (i)_s <= N^s
    <= 2^(s*L), so e_j <= binom(k, j) * 2^(j*s*L) <= 2^(k + r*s*L) < 2^w for
    j <= r.  A slot above r may overflow, but carries only move up, into
    slots that are dropped or never read.  The width, the masks and n! are
    built after the arguments and the cap are checked, and not at all when
    r > n, where the walk is empty.
    """

    def push(state, i, m):
        e, den = state
        if i > s:
            e = (e + (perm(i, s) * e << w)) & keep
        return e, den * factorial(i) * m

    def close(state, ones):
        e, den = state
        e_r = (e * one**ones >> r * w) & mask
        q, rem = divmod(n_factorial * e_r, den * factorial(ones))
        if rem:
            raise IntegralityError(f"C(r={r}, s={s}) is not an integer at n={n}")
        return q

    walk = enumerate_constrained(n, r, s, cap=cap, length=length, fold=((1, 1), push, close))
    if r > n:
        return walk  # empty: r parts above s would outweigh n + r*s
    weight = n + r * s
    w = weight // (s + 1) + r * s * weight.bit_length() + 1
    mask, keep = (1 << w) - 1, (1 << (r + 1) * w) - 1
    one = 1 + ((1 > s) << w)  # the factor of a part 1, which lies above s only at s = 0
    n_factorial = factorial(n)
    return walk


class RecurrenceEvaluator:
    """Memoized recurrence evaluation of C(., ., s) for a fixed shift s.

    The recurrence writes C(lam, r, s) as the sum, over each distinct part j of
    lam, of (m_{j-1} + 1) * C(lam with one j turned into j - 1, r, s), plus
    C(lam without one part s + 1, r - 1, s) when r >= 1; the empty partition
    gives [r == 0].  Both children of a part j, and the multiplicities behind
    the weights, come from partitions.modifications, the one implementation
    of the two modifications.  value() evaluates it by an iterative post-order
    walk on an explicit stack, so the depth of a decrement chain is bounded by
    memory, not by Python's recursion limit.

    The memo is keyed on the descending parts tuple alone: r enters the
    recurrence only through the shifted removal term, so one walk over a
    partition's children serves every r at once.  An entry (lo, values) holds
    values[r] = C(parts, r, s) for lo <= r <= k, with k the number of
    parts greater than s; C is 0 for r > k, by induction on the weight: a
    decrement keeps r and never adds a part above s, a removal lowers both r
    and that count by one, and the empty partition with r >= 1 is 0.  A
    decrement child is asked for the same lo, the removal child of a part
    s + 1 for lo - 1, and a child with fewer than lo parts above s is
    skipped.  An entry is recomputed when a later query needs a lower lo.
    The closed formula is not consulted, so the two evaluations stay
    independent.

    One evaluator should be shared across many queries with the same s: the
    recurrence revisits sub-partitions exponentially often otherwise.  The memo
    only ever stores final values, so concurrent readers inserting identical
    entries are harmless.
    """

    def __init__(self, s: int):
        if s < 0:
            raise ValueError("s must be non-negative")
        self.s = s
        # parts -> (lo, values), values[r] = C(parts, r, s) for lo <= r <= k
        self._memo: dict[tuple[int, ...], tuple[int, list[int]]] = {(): (0, [1])}

    def _children(self, parts: tuple[int, ...], k: int, lo: int) -> list[tuple]:
        """(weight, child, its k, its lo) for every term of the recurrence at parts.

        A decrement child contributes weight * C(child, r) to C(parts, r); the
        removal child of a part s + 1 has weight 0 and contributes C(child, r - 1).
        """
        s = self.s
        out = []
        below = below_mult = 0  # the run just below the current one: its part and length
        for j, m, removed, lowered in modifications(parts):
            weight = below_mult + 1 if below == j - 1 else 1
            if j == s + 1:
                # the removal goes first: at s = 0 it is the same tuple as the
                # decrement, and it needs the lower lo
                out.append((0, removed, k - 1, lo - 1 if lo else 0))
                if k > lo:
                    out.append((weight, lowered, k - 1, lo))
            else:
                out.append((weight, lowered, k, lo))
            below, below_mult = j, m
        return out

    def value(self, lam: Partition, r: int) -> int:
        if r < 0:
            raise ValueError("r must be non-negative")
        parts = lam.parts
        k = lam.length_above(self.s)
        if r > k:
            return 0
        entry = self._memo.get(parts)
        if entry is None or entry[0] > r:
            self._fill(parts, k, r)
            entry = self._memo[parts]
        return entry[1][r]

    def _fill(self, parts: tuple[int, ...], k: int, lo: int) -> None:
        # frames: [parts, k, lo, children, index of the next unread child, sums by r]
        memo = self._memo
        stack = [[parts, k, lo, self._children(parts, k, lo), 0, [0] * (k + 1)]]
        while stack:
            frame = stack[-1]
            _, k, lo, children, i, acc = frame
            while i < len(children):
                weight, child, ck, clo = children[i]
                entry = memo.get(child)
                if entry is None or entry[0] > clo:
                    break
                values = entry[1]
                if weight:
                    for r in range(lo, ck + 1):
                        acc[r] += weight * values[r]
                else:
                    for r in range(lo or 1, k + 1):
                        acc[r] += values[r - 1]
                i += 1
            if i < len(children):
                frame[4] = i
                stack.append([child, ck, clo, self._children(child, ck, clo), 0, [0] * (ck + 1)])
            else:
                memo[frame[0]] = (lo, acc)
                stack.pop()


def coefficient_table(
    n: int, s: int, verify: bool = False, cap: int = DEFAULT_WEIGHT_CAP
) -> Iterator[tuple[int, Partition, int]]:
    """All coefficients for derivative order n and shift s, streamed as (r, lam, C(lam, r, s)).

    The entries cover exactly the pairs (r, lam) with 0 <= r <= n, lam a
    partition of n + r*s, and at least r parts of lam greater than s; they
    are ordered by ascending r, then the partition enumeration order.  The
    arguments and the cap are checked at the call.  In verify mode each
    closed-form value is recomputed through the recurrence (one shared
    evaluator) as it is read, and a disagreement raises :class:`CrossCheckError`.
    """
    if n < 0 or s < 0:
        raise ValueError("n and s must be non-negative")
    CapExceeded.check(n + n * s, cap, f"table (n={n}, s={s})")
    entries = (
        (r, lam, c) for r in range(n + 1) for lam, c in constrained_coefficients(n, r, s, cap=cap)
    )
    return _cross_checked(entries, s) if verify else entries


def _cross_checked(entries, s: int) -> Iterator[tuple[int, Partition, int]]:
    evaluator = RecurrenceEvaluator(s)
    for r, lam, c in entries:
        if (again := evaluator.value(lam, r)) != c:
            raise CrossCheckError(
                f"C({lam!r}, r={r}, s={s}): closed form {c} != recurrence {again}"
            )
        yield r, lam, c
