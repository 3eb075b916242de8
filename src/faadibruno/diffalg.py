"""Formal derivative algebra: the symbolic oracle for the expansion formulas.

Monomials live in the polynomial ring generated by

    F_a  (the a-th derivative of f, taken at the inner function),
    G_b  (the b-th derivative of g, taken at its own inner function),
    Y_i  (the i-th derivative of the inner function phi),
    Z_i  (the i-th derivative of an auxiliary inner function psi),

with arbitrary-precision integer coefficients.  Repeatedly applying the
derivation below to F_0 * G_0 produces the n-th derivative of
(f o phi) * (g o psi) literally, which is the ground truth that every closed
formula in this package is compared against.

Expansion monomials always carry exactly one F factor and one G factor.  For
generic algebra (products, the Leibniz-rule property) a monomial may omit
either factor; `f_order is None` means "no F factor at all", which is not the
same as order zero.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from math import comb, prod
from typing import Iterable, Iterator, NamedTuple, Union

from .coefficients import coefficient_table, faa_di_bruno_coeff
from .partitions import DEFAULT_WEIGHT_CAP, CapExceeded, enumerate_partitions
from .sparse import ExponentMap, SparsePolynomial, _canon, _merge, _term


class DiffMonomial(NamedTuple):
    f_order: Union[int, None]
    g_order: Union[int, None]
    y: ExponentMap
    z: ExponentMap


def monomial(
    f_order: Union[int, None] = None,
    g_order: Union[int, None] = None,
    y: Union[dict, Iterable[tuple[int, int]]] = (),
    z: Union[dict, Iterable[tuple[int, int]]] = (),
) -> DiffMonomial:
    """Validated monomial constructor; y and z map derivative order to exponent."""
    for order in (f_order, g_order):
        if order is not None and order < 0:
            raise ValueError("derivative orders must be non-negative")
    ymap, zmap = dict(y), dict(z)
    for family in (ymap, zmap):
        for i, e in family.items():
            if i < 1 or e < 0:
                raise ValueError("exponent maps need indices >= 1 and exponents >= 0")
    return DiffMonomial(f_order, g_order, _canon(ymap), _canon(zmap))


def _order_marks(base: str, order: int) -> str:
    if order <= 3:
        return base + "'" * order
    return f"{base}^({order})"


def _pretty_term(mono: DiffMonomial, coeff: int) -> str:
    factors = []
    if mono.f_order is not None:
        factors.append(_order_marks("f", mono.f_order))
    if mono.g_order is not None:
        factors.append(_order_marks("g", mono.g_order))
    for base, exps in (("φ", mono.y), ("ψ", mono.z)):
        for i, e in exps:
            sym = _order_marks(base, i)
            factors.append(sym if e == 1 else f"{sym}^{e}")
    return _term(factors, coeff, "·", "·")


def _latex_term(mono: DiffMonomial, coeff: int) -> str:
    factors = []
    if mono.f_order is not None:
        factors.append("f" if mono.f_order == 0 else f"f^{{({mono.f_order})}}")
    if mono.g_order is not None:
        factors.append("g" if mono.g_order == 0 else f"g^{{({mono.g_order})}}")
    for sym, exps in ((r"\varphi", mono.y), (r"\psi", mono.z)):
        for i, e in exps:
            piece = f"{sym}^{{({i})}}"
            factors.append(piece if e == 1 else f"\\big({piece}\\big)^{{{e}}}")
    return _term(factors, coeff, r"\,", r"\,")


class DiffPolynomial(SparsePolynomial):
    """Sparse integer-coefficient polynomial over :class:`DiffMonomial` keys.

    Terms are listed in descending (f_order, g_order, y, z) order, with an
    absent F or G factor below order zero.
    """

    __slots__ = ()
    _descending = True
    _pretty_term = staticmethod(_pretty_term)
    _latex_term = staticmethod(_latex_term)

    @classmethod
    def term(cls, mono: DiffMonomial) -> "DiffPolynomial":
        return cls({mono: 1})

    @staticmethod
    def _order(mono: DiffMonomial):
        f = -1 if mono.f_order is None else mono.f_order
        g = -1 if mono.g_order is None else mono.g_order
        return (f, g, mono.y, mono.z)

    @staticmethod
    def _key_product(m1: DiffMonomial, m2: DiffMonomial) -> DiffMonomial:
        """Defined as long as the pair does not carry two F (or two G) factors.

        Expansion polynomials each hold one F and one G per monomial, so their
        products are rejected; multiplying by Y/Z-only polynomials is always fine.
        """
        if m1.f_order is not None and m2.f_order is not None:
            raise ValueError("product would carry two f factors in one monomial")
        if m1.g_order is not None and m2.g_order is not None:
            raise ValueError("product would carry two g factors in one monomial")
        f = m1.f_order if m1.f_order is not None else m2.f_order
        g = m1.g_order if m1.g_order is not None else m2.g_order
        return DiffMonomial(f, g, _merge(m1.y, m2.y), _merge(m1.z, m2.z))


# -- the derivation -------------------------------------------------------

MODES = ("composed", "independent", "constant_g")


def derive(poly: DiffPolynomial, mode: str = "composed", s: int = 0) -> DiffPolynomial:
    """Apply the derivation once, linearly and by the Leibniz rule.

    Rules common to every mode:  F_a -> F_{a+1} Y_1  and  Y_i -> Y_{i+1}.
    The G rule picks the mode:

    * ``composed``: g rides on the s-th derivative of phi, so
      G_b -> G_{b+1} Y_{s+1}; Z symbols must not appear.
    * ``independent``: g rides on an unrelated function psi, so
      G_b -> G_{b+1} Z_1 and Z_i -> Z_{i+1}.
    * ``constant_g``: g is never differentiated (classical chain rule).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "composed" and s < 0:
        raise ValueError("s must be non-negative")

    def terms():
        for mono, coeff in poly:
            f, g, y, z = mono
            if mode == "composed" and z:
                raise ValueError("z symbols cannot appear in composed mode")
            if f is not None:
                yield DiffMonomial(f + 1, g, _merge(y, ((1, 1),)), z), coeff
            if g is not None:
                if mode == "composed":
                    yield DiffMonomial(f, g + 1, _merge(y, ((s + 1, 1),)), z), coeff
                elif mode == "independent":
                    yield DiffMonomial(f, g + 1, y, _merge(z, ((1, 1),))), coeff
            for i, e in y:
                yield DiffMonomial(f, g, _merge(y, ((i, -1), (i + 1, 1))), z), coeff * e
            for i, e in z:
                yield DiffMonomial(f, g, y, _merge(z, ((i, -1), (i + 1, 1)))), coeff * e

    return DiffPolynomial(terms())


def derivative_chain(n_max: int, mode: str = "composed", s: int = 0) -> Iterator[DiffPolynomial]:
    """F_0 G_0, then its n-fold derivations in *mode* for n = 1..n_max, each when asked for."""
    poly = DiffPolynomial.term(DiffMonomial(0, 0, (), ()))
    yield poly
    for _ in range(n_max):
        poly = derive(poly, mode, s)
        yield poly


def nth_derivative_expansion(n: int, s: int, cap: int = DEFAULT_WEIGHT_CAP) -> DiffPolynomial:
    """n-fold derivation of F_0 G_0 in composed mode: the ground-truth oracle."""
    if n < 0 or s < 0:
        raise ValueError("n and s must be non-negative")
    CapExceeded.check(n * (1 + s), cap, f"oracle expansion (n={n}, s={s})")
    return deque(derivative_chain(n, "composed", s), maxlen=1).pop()


def formula_expansion(n: int, s: int, cap: int = DEFAULT_WEIGHT_CAP) -> DiffPolynomial:
    """The closed-formula expansion: sum of C(lam, r, s) F_{len-r} G_r prod Y_i^m_i."""
    if n < 0 or s < 0:
        raise ValueError("n and s must be non-negative")
    CapExceeded.check(n * (1 + s), cap, f"formula expansion (n={n}, s={s})")
    return DiffPolynomial(
        (DiffMonomial(lam.length - r, r, lam.items(), ()), c)
        for r, lam, c in coefficient_table(n, s, cap=cap)
    )


def faa_expansion(n: int, cap: int = DEFAULT_WEIGHT_CAP) -> DiffPolynomial:
    """The classical chain-rule expansion of the n-th derivative of f o phi.

    G stays untouched at order 0; equals the constant_g oracle.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    CapExceeded.check(n, cap, f"chain-rule expansion (n={n})")
    return DiffPolynomial(
        (DiffMonomial(lam.length, 0, lam.items(), ()), faa_di_bruno_coeff(lam))
        for lam in enumerate_partitions(n, cap=cap)
    )


def leibniz_product_expansion(n: int, cap: int = DEFAULT_WEIGHT_CAP) -> DiffPolynomial:
    """Closed form of the n-th derivative of (f o phi) * (g o psi), psi unrelated.

    For each partition rho of n, the chain-rule coefficient of rho is split
    over all ways of routing a sub-partition mu of rho to the psi side, with
    multiplicity prod_i binom(m_i(rho), m_i(mu)).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    CapExceeded.check(n, cap, f"product-rule expansion (n={n})")

    def terms():
        for rho in enumerate_partitions(n, cap=cap):
            base = faa_di_bruno_coeff(rho)
            items = rho.items()
            for sub in product(*(range(m + 1) for _, m in items)):
                r = sum(sub)
                mult = prod(comb(m, chosen) for (_, m), chosen in zip(items, sub))
                y = _canon({i: m - chosen for (i, m), chosen in zip(items, sub)})
                z = _canon({i: chosen for (i, _), chosen in zip(items, sub)})
                yield DiffMonomial(rho.length - r, r, y, z), base * mult

    return DiffPolynomial(terms())


def substitute_psi(poly: DiffPolynomial, s: int) -> DiffPolynomial:
    """Identify psi with the s-th derivative of phi: Z_i -> Y_{i+s}, merging terms."""
    if s < 0:
        raise ValueError("s must be non-negative")

    def moved(mono: DiffMonomial) -> DiffMonomial:
        y = _merge(mono.y, ((i + s, e) for i, e in mono.z))
        return DiffMonomial(mono.f_order, mono.g_order, y, ())

    return DiffPolynomial((moved(mono), coeff) for mono, coeff in poly)
