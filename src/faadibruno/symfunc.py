"""Elementary symmetric functions on integer multisets, one pass per identity.

A multiset is any tuple of non-negative integers; its order is irrelevant.
Newton's identity and the subtract-transform each have one function, and
both work from a single elementary vector per multiset.
"""

from __future__ import annotations

from math import comb, perm

from .partitions import Partition


def elementary_moments(b: tuple[int, ...], r_max: int) -> tuple[int, ...]:
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


def newton_residuals(b: tuple[int, ...], r_max: int) -> tuple[int, ...]:
    """sum_{k=1..r} (-1)^(k-1) p_k e_{r-k}  minus  r * e_r, for r = 1..r_max.

    Newton's identity says each residual is zero.  e comes from one
    elementary_moments pass and p_1..p_{r_max} from one pass of running
    powers, whatever r_max is; r_max == 0 gives ().
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
    return tuple(residuals)


def subtract_transform(e: tuple[int, ...], l_value: int, c: int) -> tuple[int, ...]:
    """Vector of a multiset b after one element l_value becomes l_value - c.

    e is elementary_moments(b, r_max); the result, of the same length, comes
    from e alone in O(len(e)):
    e_r  ->  e_r - c * sum_{k=1..r} (-l_value)^(k-1) e_{r-k}.
    With c = l_value one copy of l_value is removed.  Since b is not passed,
    l_value is not checked against it: the correction is defined for every
    integer l_value, and is a replacement within b when l_value occurs there.
    """
    if not e or e[0] != 1:
        raise ValueError("an elementary vector is non-empty and starts with e_0 == 1")
    out = [1]
    correction = 0  # sum_{k=1..r} (-l_value)^(k-1) e_{r-k}, carried from r - 1
    for r in range(1, len(e)):
        correction = e[r - 1] - l_value * correction
        out.append(e[r] - c * correction)
    return tuple(out)


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
