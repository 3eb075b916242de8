"""Elementary symmetric functions and power sums on integer multisets.

A multiset is any tuple of non-negative integers; its order is irrelevant.
"""

from __future__ import annotations

from math import comb, perm

from .partitions import Partition

# index r -> e_r of the source multiset; e_0 == 1, e_r == 0 past the cardinality
ElementaryVector = tuple[int, ...]


def elementary_moments(b: tuple[int, ...], r_max: int) -> ElementaryVector:
    """Coefficients of prod_l (1 + b_l X) up to degree r_max.

    One multiplication pass per element, so the cost is O(len(b) * r_max).
    """
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    e = [0] * (r_max + 1)
    e[0] = 1
    top = 0  # highest degree reached so far, min(elements seen, r_max)
    for x in b:
        if top < r_max:
            top += 1
        for r in range(top, 0, -1):
            e[r] += x * e[r - 1]
    return tuple(e)


def power_sum(b: tuple[int, ...], k: int) -> int:
    """Sum of k-th powers over the multiset, k >= 1."""
    if k <= 0:
        raise ValueError("power sums are defined for k >= 1 only")
    return sum(x**k for x in b)


def _newton_residuals(b: tuple[int, ...], r_max: int) -> list[int]:
    """[newton_residual(b, r) for r in 1..r_max], from one pass for e and one for p.

    The power sums p_1..p_{r_max} are accumulated element by element from a
    running power, so no x**k and no power_sum call is made.
    """
    e = elementary_moments(b, r_max)
    signed = [0] * (r_max + 1)  # index k -> (-1)^(k-1) p_k
    for x in b:
        xk = -1
        for k in range(1, r_max + 1):
            xk *= -x  # (-1)^(k-1) x^k
            signed[k] += xk
    residuals = []
    for r in range(1, r_max + 1):
        acc = -r * e[r]
        for k in range(1, r + 1):
            acc += signed[k] * e[r - k]
        residuals.append(acc)
    return residuals


def newton_residual(b: tuple[int, ...], r: int) -> int:
    """sum_{k=1..r} (-1)^(k-1) p_k e_{r-k}  minus  r * e_r.

    Identically zero; exposed as a residual so the verification suites can
    assert it directly.
    """
    if r <= 0:
        raise ValueError("the residual is defined for r >= 1 only")
    return _newton_residuals(b, r)[-1]


def _subtract_vector(e: ElementaryVector, l_value: int, c: int) -> ElementaryVector:
    """The series correction of subtract_transform, applied to a vector the caller has.

    e_r  ->  e_r - c * sum_{k=1..r} (-l_value)^(k-1) e_{r-k}, in O(len(e)).
    """
    out = [e[0]]
    correction = 0  # sum_{k=1..r} (-l_value)^(k-1) e_{r-k}, carried from r - 1
    for r in range(1, len(e)):
        correction = e[r - 1] - l_value * correction
        out.append(e[r] - c * correction)
    return tuple(out)


def subtract_transform(b: tuple[int, ...], l_value: int, c: int, r_max: int) -> ElementaryVector:
    """Elementary vector of b after replacing one occurrence of l_value by l_value - c.

    Computed from the original vector alone:
    e_r  ->  e_r - c * sum_{k=1..r} (-l_value)^(k-1) e_{r-k}.
    With c = l_value this is the vector of b with one copy of l_value removed.
    """
    if l_value not in b:
        raise ValueError(f"{l_value} does not occur in the multiset")
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    return _subtract_vector(elementary_moments(b, r_max), l_value, c)


def elementary_by_subpartitions(eta: Partition, s: int, r: int) -> int:
    """e_r of the falling-factorial image of eta, by summing over sub-partitions.

    Sums prod_i binom(m_i(eta), m_i(nu)) * (i)_s^(m_i(nu)) over all nu <= eta
    of length r.  This is the subset-sum definition of e_r and serves as the
    independent cross-check of elementary_moments(eta.pochhammer(s), r)[r].
    """
    if r < 0 or s < 0:
        raise ValueError("r and s must be non-negative")
    items = eta.items()
    if s >= 1 and any(i <= s for i, _ in items):
        raise ValueError(f"every part must exceed s={s}")

    def descend(idx: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        if idx == len(items):
            return 0
        i, m = items[idx]
        total = 0
        for chosen in range(min(m, remaining) + 1):
            total += comb(m, chosen) * perm(i, s) ** chosen * descend(idx + 1, remaining - chosen)
        return total

    return descend(0, r)
