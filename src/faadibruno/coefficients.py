"""Exact partition-indexed coefficients of the higher-order product-chain rule.

The central object is the integer

    C(lam, r, s) = n! * e_r(pochhammer(truncate_above(lam, s), s)) / prod_i (i!)^m_i m_i!

with n = weight(lam) - r*s.  It is computed two independent ways: by the
closed formula above, and by a recurrence over partition modifications.  The
closed formula is the production path; the recurrence is the cross-check.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .partitions import (
    DEFAULT_WEIGHT_CAP,
    CapExceeded,
    Partition,
    enumerate_constrained,
)
from .symfunc import elementary_moments


class IntegralityError(ArithmeticError):
    """A coefficient reduced to a non-integer; this indicates an implementation bug."""


class CrossCheckError(ArithmeticError):
    """Closed-form and recurrence evaluations disagree."""


@lru_cache(maxsize=None)
def _fact(n: int) -> int:
    return factorial(n)


def _denominator(lam: Partition) -> int:
    d = 1
    for i, m in lam.items():
        d *= _fact(i) ** m * _fact(m)
    return d


def faa_di_bruno_coeff(lam: Partition) -> int:
    """weight! / prod_i (i!)^m_i m_i!  (the number of set partitions of type lam)."""
    num = _fact(lam.weight)
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
    q, rem = divmod(_fact(n) * e_r, _denominator(lam))
    if rem:
        raise IntegralityError(f"C({lam!r}, r={r}, s={s}) is not an integer")
    return q


class RecurrenceEvaluator:
    """Memoized recurrence evaluation of C(., ., s) for a fixed shift s.

    The recurrence writes C(lam, r, s) as the sum, over each distinct part j of
    lam, of (m_{j-1} + 1) * C(lam with one j turned into j - 1, r, s), plus
    C(lam without one part s + 1, r - 1, s) when r >= 1; the empty partition
    gives [r == 0].  value() evaluates it by an iterative post-order walk on an
    explicit stack, so the depth of a decrement chain is bounded by memory, not
    by Python's recursion limit.  A state is its descending parts tuple with r,
    and the memo is keyed on that pair.

    A state with fewer than r parts greater than s is 0 and is never visited.
    This is a property of the recurrence itself, by induction on the weight: a
    decrement keeps r and never adds a part above s, a removal lowers both r
    and that count by one, and the empty partition with r >= 1 is 0.  The
    closed formula is not consulted, so the two evaluations stay independent.

    One evaluator should be shared across many queries with the same s: the
    recurrence revisits sub-partitions exponentially often otherwise.  The memo
    only ever stores final values, so concurrent readers inserting identical
    entries are harmless.
    """

    def __init__(self, s: int):
        if s < 0:
            raise ValueError("s must be non-negative")
        self.s = s
        self._memo: dict[tuple[tuple[int, ...], int], int] = {((), 0): 1}

    def _is_zero(self, parts: tuple[int, ...], r: int) -> bool:
        # fewer than r parts above s, read off the descending tuple
        return r > len(parts) or (r > 0 and parts[r - 1] <= self.s)

    def _children(self, parts: tuple[int, ...], r: int) -> list[tuple[int, tuple]]:
        """(weight, state) for every non-zero term of the recurrence at (parts, r)."""
        s = self.s
        out = []
        end = len(parts)
        below = below_mult = 0  # the run just below the current one: its part and length
        while end:
            j = parts[end - 1]
            start = end - 1
            while start and parts[start - 1] == j:
                start -= 1
            head, tail = parts[: end - 1], parts[end:]  # one j (its last copy) left out
            child = head + (j - 1,) + tail if j > 1 else head
            if not self._is_zero(child, r):
                out.append((below_mult + 1 if below == j - 1 else 1, (child, r)))
            if j == s + 1 and r:
                out.append((1, (head + tail, r - 1)))
            below, below_mult = j, end - start
            end = start
        return out

    def value(self, lam: Partition, r: int) -> int:
        if r < 0:
            raise ValueError("r must be non-negative")
        root = (lam.parts, r)
        if self._is_zero(*root):
            return 0
        memo = self._memo
        if root in memo:
            return memo[root]
        # frames: [state, children, index of the next unread child, partial sum]
        stack = [[root, self._children(*root), 0, 0]]
        while stack:
            frame = stack[-1]
            _, children, i, total = frame
            while i < len(children):
                weight, child = children[i]
                v = memo.get(child)
                if v is None:
                    break
                total += weight * v
                i += 1
            if i < len(children):
                frame[2], frame[3] = i, total
                stack.append([child, self._children(*child), 0, 0])
            else:
                memo[frame[0]] = total
                stack.pop()
        return memo[root]


def c_coeff_by_recurrence(lam: Partition, r: int, s: int) -> int:
    """C(lam, r, s) by the modification recurrence alone (no elementary moments)."""
    if r < 0 or s < 0:
        raise ValueError("r and s must be non-negative")
    if lam.weight - r * s < 0:
        raise ValueError(f"weight {lam.weight} is smaller than r*s = {r * s}")
    return RecurrenceEvaluator(s).value(lam, r)


def coefficient_table(
    n: int, s: int, verify: bool = False, cap: int = DEFAULT_WEIGHT_CAP
) -> tuple[tuple[int, Partition, int], ...]:
    """All coefficients for derivative order n and shift s, as (r, lam, C(lam, r, s)).

    The entries cover exactly the pairs (r, lam) with 0 <= r <= n, lam a
    partition of n + r*s, and at least r parts of lam greater than s; they
    are ordered by ascending r, then the partition enumeration order.  In
    verify mode each closed-form value is recomputed through the
    recurrence (one shared evaluator) and any disagreement raises
    :class:`CrossCheckError`.
    """
    if n < 0 or s < 0:
        raise ValueError("n and s must be non-negative")
    CapExceeded.check(n + n * s, cap, f"table (n={n}, s={s})")
    evaluator = RecurrenceEvaluator(s) if verify else None
    entries: list[tuple[int, Partition, int]] = []
    for r in range(n + 1):
        for lam in enumerate_constrained(n, r, s, cap=cap):
            c = c_coeff(lam, r, s)
            if evaluator is not None:
                again = evaluator.value(lam, r)
                if again != c:
                    raise CrossCheckError(
                        f"C({lam!r}, r={r}, s={s}): closed form {c} != recurrence {again}"
                    )
            entries.append((r, lam, c))
    return tuple(entries)
