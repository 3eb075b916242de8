"""Integer partitions in sparse multiplicity form, and the modifications used throughout.

A partition is stored as a map from part size i >= 1 to its multiplicity
m_i >= 1; absent sizes have multiplicity 0, and m_0 is identically 0.  The
multiplicity view indexes every coefficient formula in this package; the
summand sequence is derived on demand.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

# Enumerations and expansions refuse to touch partitions heavier than this
# unless the caller raises the cap explicitly.
DEFAULT_WEIGHT_CAP = 64


class CapExceeded(ValueError):
    """An operation would enumerate or expand past the configured weight cap."""


class Multiset:
    """A finite multiset of non-negative integers, stored sorted decreasing."""

    __slots__ = ("_elements",)

    def __init__(self, elements: Iterable[int] = ()):
        elems = []
        for x in elements:
            if not isinstance(x, int) or x < 0:
                raise ValueError(f"multiset elements must be non-negative integers, got {x!r}")
            elems.append(x)
        elems.sort(reverse=True)
        self._elements = tuple(elems)

    @property
    def elements(self) -> tuple[int, ...]:
        return self._elements

    def remove_one(self, value: int) -> "Multiset":
        """Return a copy with one occurrence of *value* removed."""
        elems = list(self._elements)
        try:
            elems.remove(value)
        except ValueError:
            raise ValueError(f"{value} does not occur in {self!r}") from None
        out = object.__new__(Multiset)
        out._elements = tuple(elems)
        return out

    def __iter__(self) -> Iterator[int]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, value: int) -> bool:
        return value in self._elements

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        return f"Multiset({list(self._elements)})"


class Partition:
    """An integer partition, canonically represented by its part multiplicities."""

    __slots__ = ("_mults", "_items", "_weight", "_length")

    def __init__(self, parts: Iterable[int] = ()):
        mults: dict[int, int] = {}
        for a in parts:
            if not isinstance(a, int) or a <= 0:
                raise ValueError(f"partition parts must be positive integers, got {a!r}")
            mults[a] = mults.get(a, 0) + 1
        self._finish(mults)

    def _finish(
        self, mults: dict[int, int], weight: int | None = None, length: int | None = None
    ) -> None:
        self._mults = mults
        self._items = tuple(sorted(mults.items()))
        self._weight = sum(i * m for i, m in mults.items()) if weight is None else weight
        self._length = sum(mults.values()) if length is None else length

    @classmethod
    def _from_mults(
        cls, mults: dict[int, int], weight: int | None = None, length: int | None = None
    ) -> "Partition":
        # internal fast path: mults must already be canonical (keys >= 1, values >= 1);
        # a caller that knows the weight or length passes it instead of a re-summation
        p = object.__new__(cls)
        p._finish(mults, weight, length)
        return p

    # -- basic parameters ---------------------------------------------------

    @property
    def weight(self) -> int:
        return self._weight

    @property
    def length(self) -> int:
        return self._length

    @property
    def parts(self) -> tuple[int, ...]:
        """The summand sequence, in decreasing order."""
        out: list[int] = []
        for i in sorted(self._mults, reverse=True):
            out.extend([i] * self._mults[i])
        return tuple(out)

    def items(self) -> tuple[tuple[int, int], ...]:
        """(part size, multiplicity) pairs, ascending by part size."""
        return self._items

    def multiplicity(self, i: int) -> int:
        """m_i; zero for absent sizes and for i = 0 (by convention)."""
        if i < 0:
            raise ValueError("part sizes are non-negative; no multiplicity for i < 0")
        return self._mults.get(i, 0)

    def moment(self, k: int) -> int:
        """Sum of the k-th powers of the parts, k >= 1."""
        if k <= 0:
            raise ValueError("moments are defined for k >= 1 only")
        return sum(i**k * m for i, m in self._mults.items())

    def length_above(self, s: int) -> int:
        """Number of parts strictly greater than s."""
        if s < 0:
            raise ValueError("s must be non-negative")
        return sum(m for i, m in self._mults.items() if i > s)

    # -- modifications ------------------------------------------------------

    def truncate_above(self, s: int) -> "Partition":
        """Keep only the parts strictly greater than s (s = 0 is the identity)."""
        if s < 0:
            raise ValueError("s must be non-negative")
        if s == 0:
            return self
        return Partition._from_mults({i: m for i, m in self._mults.items() if i > s})

    def pochhammer(self, s: int) -> Multiset:
        """Replace each part a by the falling factorial a(a-1)...(a-s+1).

        Parts smaller than s are rejected (their falling factorial would
        degenerate to zero); s = 0 sends every part to the empty product 1.
        """
        if s < 0:
            raise ValueError("s must be non-negative")
        values: list[int] = []
        for i, m in self._mults.items():
            if i < s:
                raise ValueError(f"part {i} is smaller than s={s}")
            values.extend([math.perm(i, s)] * m)
        return Multiset(values)

    def union(self, other: "Partition") -> "Partition":
        """Combine the parts of both partitions (multiplicities add)."""
        mults = dict(self._mults)
        for i, m in other._mults.items():
            mults[i] = mults.get(i, 0) + m
        return Partition._from_mults(mults)

    def shift_up(self, s: int) -> "Partition":
        """Add s to every part; weight grows by s * length."""
        if s < 0:
            raise ValueError("s must be non-negative")
        return Partition._from_mults({i + s: m for i, m in self._mults.items()})

    def remove_part(self, j: int) -> "Partition":
        """Drop one part equal to j."""
        if self._mults.get(j, 0) < 1:
            raise ValueError(f"partition has no part equal to {j}")
        mults = dict(self._mults)
        if mults[j] == 1:
            del mults[j]
        else:
            mults[j] -= 1
        return Partition._from_mults(mults, self._weight - j, self._length - 1)

    def decrement_part(self, j: int) -> "Partition":
        """Turn one part equal to j into j - 1, dropping it entirely when j = 1."""
        if self._mults.get(j, 0) < 1:
            raise ValueError(f"partition has no part equal to {j}")
        mults = dict(self._mults)
        if mults[j] == 1:
            del mults[j]
        else:
            mults[j] -= 1
        if j > 1:
            mults[j - 1] = mults.get(j - 1, 0) + 1
            return Partition._from_mults(mults, self._weight - 1, self._length)
        return Partition._from_mults(mults, self._weight - 1, self._length - 1)

    # -- serialization and protocol support ----------------------------------

    def to_json_dict(self) -> dict:
        return {"parts": list(self.parts)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Partition":
        return cls(data["parts"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __bool__(self) -> bool:
        return bool(self._mults)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


def make_partition(parts: Iterable[int]) -> Partition:
    """Canonical partition with one part per entry of *parts* (order irrelevant)."""
    return Partition(parts)


def _descending(total: int, r: int, s: int, length: int | None) -> Iterator[Partition]:
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
    if length is None:
        if r * (s + 1) > total:
            return
    elif r > length or r * s + length > total or (length == 0) != (total == 0):
        return
    step = s + 1
    mults: dict[int, int] = {}
    parts: list[int] = []  # the placed parts greater than 1, decreasing
    lows: list[int] = []  # the smallest admissible value of each placed part
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
                    slots = length - len(parts)
                    spare, lo = slots - max(need, 1), -(-rem // slots)
                part = rem - spare
                if need > 0:
                    part -= (need - 1) * step
                    lo = max(lo, step)
                if parts and part > parts[-1]:
                    part = parts[-1]
            if part == 1:
                ones = mults[1] = rem
                rem = 0
                break
            parts.append(part)
            lows.append(lo)
            mults[part] = mults.get(part, 0) + 1
            rem -= part
            if part > s:
                above += 1
        # a fresh dict: dict(mults) would copy the working dict's larger table
        yield Partition._from_mults(
            {i: m for i, m in mults.items()}, total, len(parts) + ones
        )
        if ones:
            del mults[1]
            rem, ones = ones, 0
        while parts:
            part = parts.pop()
            lo = lows.pop()
            if mults[part] == 1:
                del mults[part]
            else:
                mults[part] -= 1
            rem += part
            if part > s:
                above -= 1
            if part > lo:
                pending = part - 1
                break
        else:
            return


def enumerate_partitions(n: int, cap: int = DEFAULT_WEIGHT_CAP) -> Iterator[Partition]:
    """All partitions of n, in decreasing lexicographic order of the summand sequence."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n > cap:
        raise CapExceeded(f"weight {n} exceeds the cap {cap}")
    return _descending(n, 0, 0, None)


def enumerate_constrained(
    n: int, r: int, s: int, cap: int = DEFAULT_WEIGHT_CAP, length: int | None = None
) -> Iterator[Partition]:
    """Partitions of n + r*s having at least r parts greater than s.

    Same order as :func:`enumerate_partitions`.  The sequence is empty
    whenever r > n, since r parts greater than s already weigh r*(s+1).
    With *length* set, only the partitions with exactly that many parts are
    produced.  The cost is proportional to the partitions produced, not to
    all partitions of n + r*s.
    """
    if n < 0 or r < 0 or s < 0:
        raise ValueError("n, r, s must be non-negative")
    if length is not None and length < 0:
        raise ValueError("length must be non-negative")
    weight = n + r * s
    if weight > cap:
        raise CapExceeded(f"weight {weight} exceeds the cap {cap}")
    return _descending(weight, r, s, length)
