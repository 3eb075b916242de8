"""Exact rational univariate polynomials: the fully concrete second oracle.

With f, g, phi taken to be polynomials, every derivative exists and both sides
of the expansion theorem are honest polynomials in t that can be compared
coefficient by coefficient with zero tolerance.  The right side is summed from
coefficient-table rows, so no code is shared with the symbolic oracle, diffalg.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial
from math import gcd, lcm
from typing import Iterable, Iterator, Union

from .coefficients import coefficient_table
from .partitions import DEFAULT_WEIGHT_CAP


class RationalPolynomial:
    """Univariate polynomial with exact rational coefficients (index = degree).

    Stored as integer numerators over one positive common denominator, the
    content/primitive-part form of FLINT's ``fmpq_poly``.  Canonical form never
    stores a trailing zero numerator and has ``gcd(den, *num) == 1``; the zero
    polynomial is ``((), 1)`` and has degree -1.
    """

    __slots__ = ("_num", "_den")

    def __new__(cls, coeffs: Iterable[Union[Fraction, int, str]] = ()) -> "RationalPolynomial":
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return cls._make([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _make(cls, num: list[int], den: int) -> "RationalPolynomial":
        """The canonical polynomial num / den (den > 0); consumes num."""
        while num and not num[-1]:
            num.pop()
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
        p = object.__new__(cls)
        p._num = tuple(num)
        p._den = den
        return p

    @classmethod
    def from_string(cls, text: str) -> "RationalPolynomial":
        """Parse a comma-separated coefficient list, lowest degree first ("1,0,2/3")."""
        text = text.strip()
        if not text:
            return cls()
        return cls(Fraction(tok.strip()) for tok in text.split(","))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self._den) for x in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __reduce__(self):
        # a pickle loads through the canonicalizing constructor, at every protocol
        return (RationalPolynomial, (self.coeffs,))

    def __repr__(self) -> str:
        return f"RationalPolynomial([{', '.join(self.to_strings())}])"

    @classmethod
    def _combine(cls, pairs: Iterable, den: int = 1) -> "RationalPolynomial":
        """(sum of x * p over the (integer x, polynomial p) pairs) / den, in integer
        numerators over one common denominator, canonicalised once."""
        pairs = [(x, p) for x, p in pairs if x and p._num]
        common = lcm(*(p._den for _, p in pairs))
        out = [0] * max((len(p._num) for _, p in pairs), default=0)
        for x, p in pairs:
            x *= common // p._den
            for i, y in enumerate(p._num):
                out[i] += x * y
        return cls._make(out, common * den)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self._combine(((1, self), (1, other)))

    def __neg__(self) -> "RationalPolynomial":
        return self._make([-x for x in self._num], self._den)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self._combine(((1, self), (-1, other)))

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        a, b = self._num, other._num
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return self._make(out, self._den * other._den)

    def compose(self, inner: "RationalPolynomial") -> "RationalPolynomial":
        """self(inner(t))."""
        if not isinstance(inner, RationalPolynomial):
            raise TypeError(f"cannot compose with {type(inner).__name__}")
        return self._over([RationalPolynomial([1]), inner])

    def _over(self, powers: list) -> "RationalPolynomial":
        """sum c_j * base^j over powers = [1, base, ...], extended in place as needed."""
        while len(powers) <= self.degree:
            powers.append(powers[-1] * powers[1])
        return self._combine(zip(self._num, powers), self._den)

    def derivative(self, order: int = 1) -> "RationalPolynomial":
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        p = self
        # every pass drops one coefficient, so at most len(_num) passes do work
        for _ in range(min(order, len(self._num))):
            p = self._make([i * x for i, x in enumerate(p._num) if i], p._den)
        return p


class FormulaInstantiator:
    """Evaluates formula expansions on one concrete triple (f, g, phi), at every shift s.

    An expansion at shift s is sum C * F_a * G_b * Y(y) over table rows (r, lam, C),
    with a = len(lam) - r, b = r, y = lam.items(), F_a = f^(a) o phi, G_b =
    g^(b) o phi^(s) and Y(y) = prod (phi^(i))^e.  Each operand is built on
    first use and kept for every later expansion: F_a per a, G_b per (s, b),
    F_a * G_b per (s, a, b), Y(y) per y, and the powers of phi^(i) that the
    compositions combine.
    """

    def __init__(self, f: RationalPolynomial, g: RationalPolynomial, phi: RationalPolynomial):
        self._degrees = (f.degree, g.degree, phi.degree)
        # the closures capture the polynomials, not self, so no cycle forms
        phi_at = cache(phi.derivative)
        powers = cache(lambda i: [RationalPolynomial([1]), phi_at(i)])  # extended by _over
        f_at = cache(lambda a: f.derivative(a)._over(powers(0)))
        g_at = cache(lambda s, b: g.derivative(b)._over(powers(s)))
        self._fg = cache(lambda s, ab: f_at(ab[0]) * g_at(s, ab[1]))

        @cache
        def y_at(y: tuple) -> RationalPolynomial:
            # Y of y with one factor phi^(i) fewer, times phi^(i); Y(()) = 1
            if not y:
                return RationalPolynomial([1])
            (i, e), fewer = y[-1], y[:-1]
            if e > 1:
                fewer += ((i, e - 1),)
            return y_at(fewer) * phi_at(i) if fewer else phi_at(i)

        self._y = y_at

    def expansion_value(self, rows: Iterable[tuple], s: int) -> RationalPolynomial:
        """The rows (r, lam, C) at shift s, grouped by y-part or by (a, b): whichever has fewer."""
        df, dg, dphi = self._degrees
        by_y, by_ab = {}, {}  # y -> [(c, (a, b)), ...] and (a, b) -> [(c, y), ...]
        for r, lam, coeff in rows:
            a, b, y = lam.length - r, r, lam.items()
            # past its degree a polynomial's derivative vanishes; y ascends by index
            if a > df or b > dg or (y and y[-1][0] > dphi):
                continue
            by_y.setdefault(y, []).append((coeff, (a, b)))
            by_ab.setdefault((a, b), []).append((coeff, y))
        fg = partial(self._fg, s)
        y_fewer = len(by_y) <= len(by_ab)
        groups, outer, inner = (by_y, self._y, fg) if y_fewer else (by_ab, fg, self._y)
        sums = []
        for key, terms in groups.items():
            summed = RationalPolynomial._combine((c, inner(k)) for c, k in terms)
            # Y(()) = 1, and a vanishing sum needs no product
            sums.append((1, outer(key) * summed if key and summed._num else summed))
        return RationalPolynomial._combine(sums)


def check_main_theorem(
    f: RationalPolynomial,
    g: RationalPolynomial,
    phi: RationalPolynomial,
    n: int,
    s: int,
    cap: int = DEFAULT_WEIGHT_CAP,
) -> dict:
    """Compare the n-th derivative of (f o phi) * (g o phi^(s)) with the expansion.

    Returns a JSON-ready report; on disagreement it includes the
    coefficient-wise difference.
    """
    # the table checks its arguments and the cap at the call, before any concrete work
    rows = coefficient_table(n, s, cap=cap)
    lhs = (f.compose(phi) * g.compose(phi.derivative(s))).derivative(n)
    rhs = FormulaInstantiator(f, g, phi).expansion_value(rows, s)
    report = {
        "n": n,
        "s": s,
        "f": f.to_strings(),
        "g": g.to_strings(),
        "phi": phi.to_strings(),
        "equal": lhs == rhs,
        "lhs": lhs.to_strings(),
        "rhs": rhs.to_strings(),
    }
    if lhs != rhs:
        report["difference"] = (lhs - rhs).to_strings()
    return report


def random_polynomial(rng: random.Random) -> RationalPolynomial:
    """Random polynomial of degree <= 5; |numerator|, denominator <= 10."""
    degree = rng.randint(0, 5)
    return RationalPolynomial(
        Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(degree + 1)
    )


def random_instances(
    trials: int,
    max_n: int,
    max_s: int,
    seed: int,
    cap: int = DEFAULT_WEIGHT_CAP,
) -> Iterator[dict | None]:
    """Seeded random triples (f, g, phi), each checked for every n <= max_n, s <= max_s.

    One item per (trial, s, n), in that order: None, or a witness where the sides differ.
    """
    rng = random.Random(seed)
    tables = {
        (n, s): tuple(coefficient_table(n, s, cap=cap))
        for s in range(max_s + 1)
        for n in range(max_n + 1)
    }
    for trial in range(trials):
        f = random_polynomial(rng)
        g = random_polynomial(rng)
        phi = random_polynomial(rng)
        inst = FormulaInstantiator(f, g, phi)
        for s in range(max_s + 1):
            lhs = f.compose(phi) * g.compose(phi.derivative(s))
            for n in range(max_n + 1):
                ok = lhs == inst.expansion_value(tables[(n, s)], s)
                yield None if ok else {
                    "trial": trial,
                    "n": n,
                    "s": s,
                    "f": f.to_strings(),
                    "g": g.to_strings(),
                    "phi": phi.to_strings(),
                }
                lhs = lhs.derivative()
