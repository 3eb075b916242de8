"""Integer partitions as descending parts tuples, and the modifications used throughout.

A partition is stored once, as its summand sequence in decreasing order
(the part-sequence form of Knuth, TAOCP Vol. 4A, 7.2.1.4).  Equality and
hashing compare that tuple.  The (part size, multiplicity) pairs m_i that
index every coefficient formula in this package are counted once, at
construction, in ascending order of i; absent sizes have multiplicity 0,
and m_0 is identically 0.  The recurrence's modifications, one part removed
or lowered by 1, come from :func:`modifications` alone.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Iterator

# Enumerations and expansions refuse to touch partitions heavier than this
# unless the caller raises the cap explicitly.
DEFAULT_WEIGHT_CAP = 64


class CapExceeded(ValueError):
    """An operation would enumerate or expand past the configured weight cap."""

    @classmethod
    def check(cls, weight: int, cap: int, what: str) -> None:
        """Refuse *what* when it reaches a weight above cap; weight == cap is allowed."""
        if weight > cap:
            raise cls(f"{what} reaches weight {weight} > cap {cap}")


class Partition:
    """An integer partition, stored once as its descending parts tuple."""

    __slots__ = ("_parts", "_items")

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(parts)
        for a in parts:
            if not isinstance(a, int) or isinstance(a, bool) or a <= 0:
                raise ValueError(f"partition parts must be positive integers, got {a!r}")
        return cls._make(tuple(sorted(parts, reverse=True)))

    @classmethod
    def _make(cls, parts: tuple[int, ...], items: tuple | None = None) -> "Partition":
        # the one constructor: parts must already be a descending tuple of
        # positive integers; a caller that tracks the (part, multiplicity)
        # items passes them, and otherwise they are counted off the tuple,
        # whose reverse meets the part sizes in ascending order
        p = object.__new__(cls)
        p._parts = parts
        p._items = tuple(Counter(reversed(parts)).items()) if items is None else items
        return p

    # -- basic parameters ---------------------------------------------------

    @property
    def weight(self) -> int:
        return sum(self._parts)

    @property
    def length(self) -> int:
        return len(self._parts)

    @property
    def parts(self) -> tuple[int, ...]:
        """The summand sequence, in decreasing order."""
        return self._parts

    def items(self) -> tuple[tuple[int, int], ...]:
        """(part size, multiplicity) pairs, ascending by part size."""
        return self._items

    def multiplicity(self, i: int) -> int:
        """m_i; zero for absent sizes and for i = 0 (by convention)."""
        if i < 0:
            raise ValueError("part sizes are non-negative; no multiplicity for i < 0")
        return self._parts.count(i)

    def moment(self, k: int) -> int:
        """Sum of the k-th powers of the parts, k >= 1."""
        if k <= 0:
            raise ValueError("moments are defined for k >= 1 only")
        return sum(i**k * m for i, m in self._items)

    def length_above(self, s: int) -> int:
        """Number of parts strictly greater than s."""
        if s < 0:
            raise ValueError("s must be non-negative")
        parts = self._parts
        k = len(parts)
        while k and parts[k - 1] <= s:
            k -= 1
        return k

    # -- modifications ------------------------------------------------------

    def truncate_above(self, s: int) -> "Partition":
        """Keep only the parts strictly greater than s (s = 0 is the identity)."""
        k = self.length_above(s)
        if k == len(self._parts):
            return self
        return Partition._make(self._parts[:k])

    def pochhammer(self, s: int) -> tuple[int, ...]:
        """Replace each part a by the falling factorial a(a-1)...(a-s+1).

        Parts smaller than s are rejected (their falling factorial would
        degenerate to zero); s = 0 sends every part to the empty product 1.
        The falling factorial is monotone on parts >= s, so the image is
        again in decreasing order.
        """
        if s < 0:
            raise ValueError("s must be non-negative")
        if self._parts and self._parts[-1] < s:
            raise ValueError(f"part {self._parts[-1]} is smaller than s={s}")
        return tuple(math.perm(a, s) for a in self._parts)

    def union(self, other: "Partition") -> "Partition":
        """Combine the parts of both partitions (multiplicities add)."""
        return Partition._make(tuple(sorted(self._parts + other._parts, reverse=True)))

    def shift_up(self, s: int) -> "Partition":
        """Add s to every part; weight grows by s * length."""
        if s < 0:
            raise ValueError("s must be non-negative")
        return Partition._make(tuple(a + s for a in self._parts))

    # -- protocol support ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"


def _descending(total: int, r: int, s: int, length: int | None, fold) -> Iterator:
    # Partitions of total with at least r parts greater than s (and exactly
    # `length` parts unless None), in decreasing lexicographic order of the
    # summand sequence.  A depth-first walk over the parts, largest first, kept
    # on an explicit stack; it only places a part from which some partition in
    # the sequence is still reachable, so its cost is proportional to the
    # output.  With `need` parts greater than s still missing and `slots`
    # parts still to place, a subtree is reachable exactly when
    #     need*(s+1) + (slots - need) <= rem <= slots * largest
    # (and largest > s while need > 0).  So the next part lies in
    # [s+1, rem - (need-1)*(s+1) - (slots-need)] while need > 0, and is at
    # least ceil(rem / slots); without a length, drop the slot terms.  A
    # trailing run of 1s is placed in one step, which keeps the walk O(1)
    # amortized per partition.
    # Each placed part above 1 is one frame (part, m, lo, state): m its
    # multiplicity so far, lo its smallest admissible value, and state the
    # fold state before it (see enumerate_constrained); the current state is
    # a local, restored from the frame popped on backtracking, and each leaf
    # yields close(state, ones) alone.
    if length is None:
        if r * (s + 1) > total:
            return
    elif r > length or r * s + length > total or (length == 0) != (total == 0):
        return
    step = s + 1
    start, push, close = fold
    frames: list[tuple] = []  # one per placed part above 1, parts decreasing
    state = start
    rem, above, ones = total, 0, 0
    pending = 0  # after backtracking: the next value of the part just removed
    while True:
        while rem:
            if pending:
                part, pending = pending, 0
            else:
                need = r - above
                if length is None:
                    spare, lo = 0, 1
                else:
                    slots = length - len(frames)
                    spare, lo = slots - max(need, 1), -(-rem // slots)
                part = rem - spare
                if need > 0:
                    part -= (need - 1) * step
                    lo = max(lo, step)
                if frames and part > frames[-1][0]:
                    part = frames[-1][0]
            if part == 1:
                ones, rem = rem, 0
                break
            m = frames[-1][1] + 1 if frames and frames[-1][0] == part else 1
            frames.append((part, m, lo, state))
            state = push(state, part, m)
            rem -= part
            if part > s:
                above += 1
        yield close(state, ones)
        rem, ones = ones, 0
        while frames:
            part, _, lo, state = frames.pop()
            rem += part
            if part > s:
                above -= 1
            if part > lo:
                pending = part - 1
                break
        else:
            return


def _push_part(state: tuple, part: int, m: int) -> tuple:
    # (parts, items) of the prefix: a new part is below every placed one, so
    # it heads the ascending items, or raises the count of the one heading them
    parts, items = state
    return parts + (part,), ((part, m),) + (items[1:] if m > 1 else items)


def _close_partition(state: tuple, ones: int) -> Partition:
    parts, items = state
    if ones:
        parts, items = parts + (1,) * ones, ((1, ones),) + items
    return Partition._make(parts, items)


# The fold of a walk that yields the partitions themselves.  Its state, the
# placed parts and their (part, multiplicity) items, is the partition format:
# another fold may carry it as an opaque part of its own state.
PARTITION_FOLD = (((), ()), _push_part, _close_partition)


def modifications(parts: tuple[int, ...]) -> Iterator[tuple]:
    """(j, m_j, parts without one j, parts with one j lowered to j - 1), ascending j.

    One item per distinct part j of the descending tuple *parts*, read off
    its runs from the end.  The last copy of j is the one changed, so both
    tuples stay descending; lowering a 1 drops it.
    """
    end = len(parts)
    while end:
        j = parts[end - 1]
        start = parts.index(j)  # the run of j begins at its first copy
        head, tail = parts[: end - 1], parts[end:]
        removed = head + tail
        yield j, end - start, removed, head + (j - 1,) + tail if j > 1 else removed
        end = start


def enumerate_partitions(n: int, cap: int = DEFAULT_WEIGHT_CAP) -> Iterator[Partition]:
    """All partitions of n, in decreasing lexicographic order of the summand sequence."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    CapExceeded.check(n, cap, "partition enumeration")
    return _descending(n, 0, 0, None, PARTITION_FOLD)


def partition_count_dp(n_max: int) -> list[int]:
    # Euler generating-function style DP, independent of the enumerator
    counts = [0] * (n_max + 1)
    counts[0] = 1
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            counts[total] += counts[total - part]
    return counts


def enumerate_constrained(
    n: int, r: int, s: int, cap: int = DEFAULT_WEIGHT_CAP, length: int | None = None, fold=None
) -> Iterator:
    """Partitions of n + r*s having at least r parts greater than s.

    Same order as :func:`enumerate_partitions`.  The sequence is empty
    whenever r > n, since r parts greater than s already weigh r*(s+1).
    With *length* set, only the partitions with exactly that many parts are
    produced.  The cost is proportional to the partitions produced, not to
    all partitions of n + r*s.

    With *fold* = (start, push, close), each item is a value folded along
    the walk instead of a partition, and no partition is built: placing a
    part p > 1 whose multiplicity becomes m maps the state before it (start
    for the first part) to push(state, p, m), and the item is
    close(state, ones), with ones the number of trailing 1s, which are never
    pushed.  Partitions sharing a prefix share its states, so a push costs
    once per prefix; every partition with a part above 1 is its own prefix,
    so a walk over all partitions of n >= 1 pushes p(n) - 1 parts.
    """
    if n < 0 or r < 0 or s < 0:
        raise ValueError("n, r, s must be non-negative")
    if length is not None and length < 0:
        raise ValueError("length must be non-negative")
    weight = n + r * s
    CapExceeded.check(weight, cap, "constrained enumeration")
    return _descending(weight, r, s, length, fold or PARTITION_FOLD)
