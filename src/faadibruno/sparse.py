"""Sparse integer-coefficient polynomials: the term dict shared by
:class:`faadibruno.diffalg.DiffPolynomial` and :class:`faadibruno.bell.YPolynomial`.

A polynomial maps hashable monomial keys to non-zero integers.  This module
owns the ring operations on that dict; a subclass only says how two keys
multiply, how its terms are ordered for output, and how one term renders.
Every operation builds a new dict, so no operand is ever mutated (cached
polynomials are shared freely).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Union

# sparse exponent map: ((index, exponent), ...) ascending by index, exponents >= 1
ExponentMap = tuple[tuple[int, int], ...]


def _canon(exps: dict[int, int]) -> ExponentMap:
    return tuple(sorted((i, e) for i, e in exps.items() if e))


def _merge(exps: ExponentMap, other: Iterable[tuple[int, int]]) -> ExponentMap:
    """Add the (index, delta) pairs of *other* into *exps*, dropping zero exponents."""
    d = dict(exps)
    for i, e in other:
        d[i] = d.get(i, 0) + e
    return _canon(d)


def _accumulate(acc: dict, key: Hashable, coeff: int) -> None:
    """Add *coeff* into ``acc[key]``, dropping the key when the sum is zero."""
    total = acc.get(key, 0) + coeff
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _term(factors: list[str], coeff: int, join: str, mark: str) -> str:
    """One rendered term: a coefficient of 1 is left out, and the empty product prints as 1."""
    body = join.join(factors) or "1"
    return body if coeff == 1 else f"{coeff}{mark}{body}"


class SparsePolynomial:
    """Sparse integer polynomial over hashable monomial keys.

    Subclass hooks: ``_key_product(k1, k2)``, ``_order(key)`` with the
    ``_descending`` flag for :meth:`terms`, and ``_pretty_term`` /
    ``_latex_term(key, coeff)``, which render one term's factors through :func:`_term`.
    """

    __slots__ = ("_terms",)
    _descending = False

    def __init__(self, terms: Union[dict, Iterable[tuple[Hashable, int]]] = ()):
        data = terms.items() if isinstance(terms, dict) else terms
        acc: dict = {}
        for key, coeff in data:
            _accumulate(acc, key, coeff)
        self._terms = acc

    @classmethod
    def _wrap(cls, acc: dict):
        # adopt an already canonical dict without copying it
        out = cls.__new__(cls)
        out._terms = acc
        return out

    @classmethod
    def zero(cls):
        return cls()

    def terms(self) -> list[tuple[Hashable, int]]:
        """Terms in the subclass's canonical output order."""
        return sorted(
            self._terms.items(), key=lambda t: self._order(t[0]), reverse=self._descending
        )

    def coefficient(self, key: Hashable) -> int:
        return self._terms.get(key, 0)

    def __iter__(self) -> Iterator[tuple[Hashable, int]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            _accumulate(acc, key, coeff)
        return self._wrap(acc)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            _accumulate(acc, key, -coeff)
        return self._wrap(acc)

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        if not scalar:
            return self.zero()
        return self._wrap({key: scalar * c for key, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return other * self
        if type(other) is not type(self):
            return NotImplemented
        acc: dict = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                _accumulate(acc, self._key_product(k1, k2), c1 * c2)
        return self._wrap(acc)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.pretty()})"

    def pretty(self) -> str:
        return " + ".join(self._pretty_term(key, c) for key, c in self.terms()) or "0"

    def latex(self) -> str:
        return " + ".join(self._latex_term(key, c) for key, c in self.terms()) or "0"
