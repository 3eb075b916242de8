"""Bell-type polynomials in formal variables y_i, and the Stirling-type numbers they induce.

Every polynomial here is anchored to its defining sum over partitions (with
the coefficients from :mod:`faadibruno.coefficients`); the numbers take their
closed forms.  The identities relating the objects are exercised by the test
suite and the `verify` subcommand, never assumed.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from math import comb, factorial
from typing import Iterator

from .coefficients import coefficient_table, constrained_coefficients, faa_di_bruno_coeff
from .partitions import DEFAULT_WEIGHT_CAP, CapExceeded, enumerate_constrained
from .sparse import ExponentMap as Exps
from .sparse import SparsePolynomial, _accumulate, _merge, _term


def term_degree(exps: Exps) -> int:
    return sum(e for _, e in exps)


def term_weighted_degree(exps: Exps) -> int:
    return sum(i * e for i, e in exps)


def _pretty_term(exps: Exps, coeff: int) -> str:
    factors = [f"y{i}" if e == 1 else f"y{i}^{e}" for i, e in exps]
    return _term(factors, coeff, "·", "·")


def _latex_term(exps: Exps, coeff: int) -> str:
    factors = [f"y_{{{i}}}" if e == 1 else f"y_{{{i}}}^{{{e}}}" for i, e in exps]
    return _term(factors, coeff, " ", "\\, ")


class YPolynomial(SparsePolynomial):
    """Sparse integer polynomial in the variables y_1, y_2, ...

    Terms are listed by ascending weighted degree, then exponent tuples.
    """

    __slots__ = ()
    _key_product = staticmethod(_merge)
    _pretty_term = staticmethod(_pretty_term)
    _latex_term = staticmethod(_latex_term)

    @staticmethod
    def _order(exps: Exps):
        return (term_weighted_degree(exps), exps)

    @classmethod
    def variable(cls, index: int, exponent: int = 1) -> "YPolynomial":
        if index < 1 or exponent < 1:
            raise ValueError("need index >= 1 and exponent >= 1")
        return cls({((index, exponent),): 1})

    def shift_vars(self, s: int) -> "YPolynomial":
        """Substitute y_i -> y_{i+s} in every term."""
        if s < 0:
            raise ValueError("s must be non-negative")
        return YPolynomial(
            {tuple((i + s, e) for i, e in exps): c for exps, c in self._terms.items()}
        )

    def substitute_geometric(self) -> dict[tuple[int, int], int]:
        """Coefficients after y_i -> c^i x, keyed by (power of c, power of x)."""
        out: dict[tuple[int, int], int] = {}
        for exps, coeff in self._terms.items():
            _accumulate(out, (term_weighted_degree(exps), term_degree(exps)), coeff)
        return out


def _capped_cache(weight):
    """Memoize body(*args) and refuse weight(*args) > cap before the cache is consulted.

    Where weight is None the value vanishes: zero, before any check or cache.
    The cap is not part of the key: every cap that admits a value shares its
    entry, so the body enumerates with its own weight as the cap.  The front
    keeps ``cache_info``/``cache_clear``; ``__wrapped__`` is the uncached body.
    """

    def decorate(body):
        cached = lru_cache(maxsize=None)(body)

        @wraps(body)
        def front(*args: int, cap: int = DEFAULT_WEIGHT_CAP):
            if (reached := weight(*args)) is None:
                return YPolynomial.zero()
            CapExceeded.check(reached, cap, body.__name__)
            return cached(*args)

        front.cache_info = cached.cache_info
        front.cache_clear = cached.cache_clear
        return front

    return decorate


@_capped_cache(lambda n, k: n)
def partial_bell(n: int, k: int) -> YPolynomial:
    """Classical partial Bell polynomial: chain-rule coefficients of partitions of n with k parts.

    Zero outside 0 <= k <= n (except the constant 1 at n = k = 0).  Takes the
    keyword ``cap``: CapExceeded when n > cap.
    """
    if n < 0 or k < 0 or k > n:
        return YPolynomial.zero()
    return YPolynomial(
        (lam.items(), faa_di_bruno_coeff(lam))
        for lam in enumerate_constrained(n, 0, 0, cap=n, length=k)
    )


def complete_bell(n: int, cap: int = DEFAULT_WEIGHT_CAP) -> YPolynomial:
    total = YPolynomial.zero()
    for k in range(n + 1):
        total = total + partial_bell(n, k, cap=cap)
    return total


def _modified_weight(n: int, k: int, r: int, s: int) -> int | None:
    if s < 0:
        raise ValueError("s must be non-negative")
    return n + r * s if 0 <= r <= k <= n else None


@_capped_cache(_modified_weight)
def modified_partial_bell(n: int, k: int, r: int, s: int) -> YPolynomial:
    """Sum of C(lam, r, s) * prod y_i^m_i over lam of weight n + r*s and length k
    with at least r parts greater than s.

    Zero where 0 <= r <= k <= n fails, under any ``cap``; otherwise CapExceeded
    when n + r*s > cap, and every term has degree k and weighted degree n + r*s.
    """
    return YPolynomial(
        (lam.items(), c) for lam, c in constrained_coefficients(n, r, s, cap=n + r * s, length=k)
    )


def modified_complete_bell(n: int, s: int, cap: int = DEFAULT_WEIGHT_CAP) -> YPolynomial:
    """Sum of modified_partial_bell(n, k, r, s) over 0 <= r <= k <= n: the coefficient
    table (n, s) read as a polynomial, since no summed partition has more than n
    parts.  The table refuses n + n*s > cap before any walk.
    """
    if s < 0:
        raise ValueError("s must be non-negative")
    if n < 0:
        return YPolynomial.zero()
    return YPolynomial((lam.items(), c) for _r, lam, c in coefficient_table(n, s, cap=cap))


def product_form_partial(
    n: int, k: int, r: int, s: int, cap: int = DEFAULT_WEIGHT_CAP
) -> YPolynomial:
    """Binomial convolution of two classical Bell polynomials, the second with
    its variables shifted up by s.  Contract: equals modified_partial_bell(n, k, r, s),
    and refuses the same weight n + r*s above cap.
    """
    reached = _modified_weight(n, k, r, s)
    if reached is None:
        return YPolynomial.zero()
    CapExceeded.check(reached, cap, "product_form_partial")
    total = YPolynomial.zero()
    for p in range(r, n - k + r + 1):
        left = partial_bell(n - p, k - r, cap=cap)
        if not left:
            continue
        right = partial_bell(p, r, cap=cap).shift_vars(s)
        if not right:
            continue
        total = total + comb(n, p) * (left * right)
    return total


def product_form_complete(n: int, s: int, cap: int = DEFAULT_WEIGHT_CAP) -> YPolynomial:
    """Binomial convolution of complete Bell polynomials; equals modified_complete_bell,
    and refuses the same weight n + n*s above cap.
    """
    if n >= 0:
        CapExceeded.check(n + n * s, cap, "product_form_complete")
    total = YPolynomial.zero()
    for p in range(n + 1):
        total = total + comb(n, p) * (
            complete_bell(n - p, cap=cap) * complete_bell(p, cap=cap).shift_vars(s)
        )
    return total


# -- Stirling numbers -------------------------------------------------------


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by inclusion-exclusion over surjections:
    k! S(n, k) = sum_i (-1)^i binom(k, i) (k - i)^n.  Nothing recurses, so the
    Python stack bounds neither n nor k.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    total = sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1))
    return total // factorial(k)


def modified_stirling(n: int, k: int, r: int, cap: int = DEFAULT_WEIGHT_CAP) -> int:
    """Image of modified_partial_bell under y_i -> c^i x, read off at c^(n+rs) x^k.
    Computed as binom(k, r) * S(n, k), which `verify` checks against that
    partition sum at every s.  CapExceeded when n > cap.
    """
    CapExceeded.check(n, cap, "modified_stirling")
    if r < 0 or r > k:
        return 0
    return comb(k, r) * stirling2(n, k)


def stirling_convolution(n: int, k: int, r: int) -> int:
    """Binomially weighted convolution sum_p binom(n, p) S(n-p, k-r) S(p, r).

    Contract: equals modified_stirling(n, k, r).  (The superficially natural
    variant without the binomial weight is false; the verification report
    records its counterexample.)
    """
    if n < 0 or k < 0 or r < 0:
        return 0
    return sum(
        comb(n, p) * stirling2(n - p, k - r) * stirling2(p, r)
        for p in range(r, n - k + r + 1)
    )


def touchard(n: int) -> tuple[int, ...]:
    """Coefficient sequence (S(n, 0), ..., S(n, n)) of the n-th Touchard polynomial."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return tuple(stirling2(n, k) for k in range(n + 1))


def stirling_table(
    n_max: int, cap: int = DEFAULT_WEIGHT_CAP
) -> Iterator[tuple[int, int, int, int]]:
    """(n, k, r, modified_stirling(n, k, r)) for all 0 <= r <= k <= n <= n_max,
    ordered by n, then k, then r; n_max is checked at the call, and the rows are
    produced as they are read.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    CapExceeded.check(n_max, cap, f"table (n_max={n_max})")
    return (
        (n, k, r, modified_stirling(n, k, r, cap=cap))
        for n in range(n_max + 1)
        for k in range(n + 1)
        for r in range(k + 1)
    )
