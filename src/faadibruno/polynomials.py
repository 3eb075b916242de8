"""Exact rational univariate polynomials: the fully concrete second oracle.

With f, g, phi taken to be polynomials, every derivative exists and both sides
of the expansion theorem are honest polynomials in t that can be compared
coefficient by coefficient with zero tolerance.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from operator import mul
from typing import Iterable, Union

from .diffalg import DiffPolynomial, formula_expansion
from .partitions import DEFAULT_WEIGHT_CAP


class RationalPolynomial:
    """Univariate polynomial with exact rational coefficients (index = degree).

    Stored as integer numerators over one positive common denominator, the
    content/primitive-part form of FLINT's ``fmpq_poly``.  Canonical form never
    stores a trailing zero numerator and has ``gcd(den, *num) == 1``; the zero
    polynomial is ``((), 1)`` and has degree -1.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Union[Fraction, int, str]] = ()):
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        canon = self._make([c.numerator * (den // c.denominator) for c in cs], den)
        self._num, self._den = canon._num, canon._den

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

    def is_zero(self) -> bool:
        return not self._num

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"RationalPolynomial([{', '.join(self.to_strings())}])"

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, da, b, db = self._num, self._den, other._num, other._den
        if len(a) < len(b):
            a, da, b, db = b, db, a, da
        den = lcm(da, db)
        fa, fb = den // da, den // db
        out = [x * fa for x in a]
        for i, y in enumerate(b):
            out[i] += y * fb
        return self._make(out, den)

    def __neg__(self) -> "RationalPolynomial":
        return self._make([-x for x in self._num], self._den)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return RationalPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return self._make(out, self._den * other._den)

    def scale(self, factor: Union[Fraction, int]) -> "RationalPolynomial":
        factor = Fraction(factor)
        return self._make(
            [x * factor.numerator for x in self._num], self._den * factor.denominator
        )

    def __pow__(self, exponent: int) -> "RationalPolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        if not exponent:
            return RationalPolynomial([1])
        result = self  # the top bit; the bits below it, left to right
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def compose(self, inner: "RationalPolynomial") -> "RationalPolynomial":
        """self(inner(t)), by Horner evaluation in the polynomial ring."""
        result = RationalPolynomial()
        for x in reversed(self._num):
            result = result * inner + self._make([x], self._den)
        return result

    def derivative(self, order: int = 1) -> "RationalPolynomial":
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        p = self
        # every pass drops one coefficient, so at most len(_num) passes do work
        for _ in range(min(order, len(self._num))):
            p = self._make([i * x for i, x in enumerate(p._num) if i], p._den)
        return p


class FormulaInstantiator:
    """Evaluates formula expansions on concrete polynomials, one y-part at a time.

    Fixed to one triple (f, g, phi) and one shift s.  An expansion is summed as
    sum_y Y(y) * (sum c * F_a * G_b), with F_a = f^(a) o phi, G_b = g^(b) o phi^(s)
    and Y(y) = prod (phi^(i))^e.  Each F_a * G_b and each Y(y) is built on first
    use and kept for every later expansion evaluated by this instance.
    """

    def __init__(
        self,
        f: RationalPolynomial,
        g: RationalPolynomial,
        phi: RationalPolynomial,
        s: int,
    ):
        self.phi_s = phi_s = phi.derivative(s)
        self._degrees = (f.degree, g.degree, phi.degree)
        # the closures capture the polynomials, not self, so no cycle forms
        f_at = cache(lambda a: f.derivative(a).compose(phi))
        g_at = cache(lambda b: g.derivative(b).compose(phi_s))
        self._fg = cache(lambda a, b: f_at(a) * g_at(b))
        self._y = cache(lambda y: reduce(mul, (phi.derivative(i) ** e for i, e in y)))

    def expansion_value(self, expansion: DiffPolynomial) -> RationalPolynomial:
        df, dg, dphi = self._degrees
        groups: dict[tuple, RationalPolynomial] = {}
        for mono, coeff in expansion:
            if mono.z:
                raise ValueError("psi symbols cannot be instantiated here")
            a, b, y = mono.f_order, mono.g_order, mono.y
            # past its degree a polynomial's derivative vanishes; y ascends by index
            if a > df or b > dg or (y and y[-1][0] > dphi):
                continue
            term = self._fg(a, b).scale(coeff)
            groups[y] = groups[y] + term if y in groups else term
        total = RationalPolynomial()
        for y, inner in groups.items():
            total = total + (self._y(y) * inner if y else inner)  # Y(()) = 1
        return total


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
    if n < 0 or s < 0:
        raise ValueError("n and s must be non-negative")
    # the expansion checks the cap, so it comes before any concrete work
    expansion = formula_expansion(n, s, cap=cap)
    inst = FormulaInstantiator(f, g, phi, s)
    lhs = (f.compose(phi) * g.compose(inst.phi_s)).derivative(n)
    rhs = inst.expansion_value(expansion)
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


def random_polynomial(
    rng: random.Random, max_degree: int = 5, max_height: int = 10
) -> RationalPolynomial:
    """Random polynomial of degree <= max_degree; |numerator|, denominator <= max_height."""
    degree = rng.randint(0, max_degree)
    return RationalPolynomial(
        Fraction(rng.randint(-max_height, max_height), rng.randint(1, max_height))
        for _ in range(degree + 1)
    )


def run_random_checks(
    trials: int,
    max_n: int,
    max_s: int,
    seed: int,
    cap: int = DEFAULT_WEIGHT_CAP,
) -> dict:
    """Seeded random triples (f, g, phi), each checked for every n <= max_n, s <= max_s."""
    rng = random.Random(seed)
    expansions = {
        (n, s): formula_expansion(n, s, cap=cap)
        for s in range(max_s + 1)
        for n in range(max_n + 1)
    }
    instances = 0
    failures = 0
    first_failure = None
    for trial in range(trials):
        f = random_polynomial(rng)
        g = random_polynomial(rng)
        phi = random_polynomial(rng)
        for s in range(max_s + 1):
            inst = FormulaInstantiator(f, g, phi, s)
            lhs = f.compose(phi) * g.compose(inst.phi_s)
            for n in range(max_n + 1):
                rhs = inst.expansion_value(expansions[(n, s)])
                instances += 1
                if lhs != rhs:
                    failures += 1
                    if first_failure is None:
                        first_failure = {
                            "trial": trial,
                            "n": n,
                            "s": s,
                            "f": f.to_strings(),
                            "g": g.to_strings(),
                            "phi": phi.to_strings(),
                        }
                lhs = lhs.derivative()
    return {
        "trials": trials,
        "max_n": max_n,
        "max_s": max_s,
        "seed": seed,
        "instances": instances,
        "failures": failures,
        "passed": failures == 0,
        "first_failure": first_failure,
    }
