"""Test-side oracles, implemented independently of the package under test."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, prod


@lru_cache(maxsize=None)
def partitions_by_multiplicities(n):
    """Every partition of n as a decreasing tuple, in no particular order.

    Built by choosing a multiplicity for each part size n, n-1, ..., 1 in
    turn, so it shares nothing with the package's descending-parts walk.
    """
    found = []

    def choose(size, remaining, prefix):
        if remaining == 0:
            found.append(prefix)
            return
        if size == 0:
            return
        for m in range(remaining // size + 1):
            choose(size - 1, remaining - m * size, prefix + (size,) * m)

    choose(n, n, ())
    return tuple(found)


def constrained_reference(n, r, s, length=None):
    """Partitions of n + r*s with at least r parts greater than s (and exactly
    *length* parts unless None), sorted in decreasing lexicographic order."""
    return sorted(
        (
            parts
            for parts in partitions_by_multiplicities(n + r * s)
            if sum(a > s for a in parts) >= r and (length is None or len(parts) == length)
        ),
        reverse=True,
    )


def partition_count_dp(n_max):
    """p(0..n_max) by the coin-counting DP over part sizes."""
    counts = [0] * (n_max + 1)
    counts[0] = 1
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            counts[total] += counts[total - part]
    return counts


def remove_one(values, value):
    """The tuple *values* with its first occurrence of *value* left out."""
    out = list(values)
    out.remove(value)
    return tuple(out)


def partition_reference(parts, s):
    """The read-only queries of a partition, from its plain list of parts.

    Returns (parts, items, multiplicities, moments, length_above, pochhammer):
    the parts sorted decreasing, the (size, multiplicity) pairs ascending, a
    Counter of the sizes, the moments k = 1..4, the number of parts above s,
    and the falling factorials a(a-1)...(a-s+1) sorted decreasing (None when
    some part is smaller than s).
    """
    counts = Counter(parts)
    moments = [sum(a**k for a in parts) for k in range(1, 5)]
    if any(a < s for a in parts):
        falling = None
    else:
        falling = tuple(sorted((prod(range(a - s + 1, a + 1)) for a in parts), reverse=True))
    return (
        tuple(sorted(parts, reverse=True)),
        tuple(sorted(counts.items())),
        counts,
        moments,
        sum(1 for a in parts if a > s),
        falling,
    )


def elementary_by_subsets(values, r):
    """e_r as the literal sum of r-fold products over index subsets."""
    values = list(values)
    if r == 0:
        return 1
    return sum(prod(chosen) for chosen in combinations(values, r))


@lru_cache(maxsize=None)
def stirling_triangular(n, k):
    """Stirling numbers of the second kind by the triangular recurrence."""
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    if k == 0:
        return 0
    return k * stirling_triangular(n - 1, k) + stirling_triangular(n - 1, k - 1)


def set_partitions(elements):
    """All set partitions of a list, as tuples of blocks."""
    if not elements:
        yield ()
        return
    head, rest = elements[0], elements[1:]
    for blocks in set_partitions(rest):
        yield ((head,),) + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + ((head,) + blocks[i],) + blocks[i + 1:]


def count_set_partitions_of_type(n, parts):
    """Number of set partitions of {1..n} whose block sizes match *parts*."""
    wanted = tuple(sorted(parts, reverse=True))
    count = 0
    for blocks in set_partitions(list(range(n))):
        sizes = tuple(sorted((len(b) for b in blocks), reverse=True))
        if sizes == wanted:
            count += 1
    return count


def shifted_subpartition_sum(lam, s, r):
    """e_r of the truncated falling-factorial image, summed over shifted-down
    sub-partitions mu (m_i(mu) <= m_{i+s}(lam)) with factorial-ratio weights."""
    items = [(i, m) for i, m in lam.items() if i > s]

    def descend(idx, remaining):
        if remaining == 0:
            return 1
        if idx == len(items):
            return 0
        i, m = items[idx]
        weight = factorial(i) // factorial(i - s)
        total = 0
        for chosen in range(min(m, remaining) + 1):
            total += comb(m, chosen) * weight**chosen * descend(idx + 1, remaining - chosen)
        return total

    return descend(0, r)


def fraction_poly_trim(coeffs):
    """Coefficient list (lowest degree first) as Fractions, trailing zeros dropped."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def fraction_poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return fraction_poly_trim(out)


def fraction_poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return fraction_poly_trim(out)


def fraction_poly_derivative(a):
    return fraction_poly_trim([i * c for i, c in enumerate(a)][1:])


def fraction_poly_eval(a, t):
    """a(t) summed term by term, with no Horner scheme."""
    t = Fraction(t)
    return sum((c * t**i for i, c in enumerate(a)), Fraction(0))


def terms_add(a, b):
    """Sum of two {monomial: coeff} dicts, zero coefficients dropped."""
    out = Counter(a)
    for key, c in b.items():
        out[key] += c
    return {key: c for key, c in out.items() if c}


def terms_scale(a, factor):
    return {key: factor * c for key, c in a.items() if factor * c}


def terms_mul(a, b, key_product):
    """Product of two {monomial: coeff} dicts, monomials multiplied by *key_product*."""
    out = Counter()
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            out[key_product(k1, k2)] += c1 * c2
    return {key: c for key, c in out.items() if c}


def exponents_mul(a, b):
    """Product of two monomials written as ((index, exponent), ...) maps."""
    total = Counter(dict(a))
    total.update(dict(b))
    return tuple(sorted(total.items()))


def diff_monomials_mul(a, b):
    """(f, g, y, z) monomial product; each of f and g comes from whichever side has it."""
    return (
        a[0] if b[0] is None else b[0],
        a[1] if b[1] is None else b[1],
        exponents_mul(a[2], b[2]),
        exponents_mul(a[3], b[3]),
    )


def expansion_value_by_terms(expansion, s, f, g, phi):
    """sum c * (f^(a) o phi) * (g^(b) o phi^(s)) * prod (phi^(i))^e over the
    expansion's terms, one term at a time, with the polynomials' own compose
    and products: no operand is kept or grouped."""
    total = type(phi)()
    for mono, c in expansion:
        term = f.derivative(mono.f_order).compose(phi)
        term = term * g.derivative(mono.g_order).compose(phi.derivative(s))
        for i, e in mono.y:
            for _ in range(e):
                term = term * phi.derivative(i)
        total = total + term * type(phi)([c])
    return total
