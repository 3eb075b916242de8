import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faadibruno.bell import YPolynomial
from faadibruno.cli import main
from faadibruno.diffalg import (
    DiffMonomial,
    DiffPolynomial,
    derive,
    faa_expansion,
    formula_expansion,
    leibniz_product_expansion,
    monomial,
    nth_derivative_expansion,
    substitute_psi,
)
from faadibruno.partitions import CapExceeded

from helpers import diff_monomials_mul, terms_add, terms_mul, terms_scale


SEED = DiffMonomial(0, 0, (), ())


def poly(*terms):
    return DiffPolynomial({m: c for m, c in terms})


def test_single_derive_composed():
    start = DiffPolynomial.term(SEED)
    assert derive(start, "composed", 1) == poly(
        (monomial(1, 0, {1: 1}), 1),
        (monomial(0, 1, {2: 1}), 1),
    )


def test_single_derive_independent():
    start = DiffPolynomial.term(SEED)
    assert derive(start, "independent") == poly(
        (monomial(1, 0, {1: 1}), 1),
        (monomial(0, 1, {}, {1: 1}), 1),
    )


def test_derive_three_factor_leibniz_step():
    start = DiffPolynomial.term(monomial(1, 0, {1: 1}))
    assert derive(start, "composed", 1) == poly(
        (monomial(2, 0, {1: 2}), 1),
        (monomial(1, 0, {2: 1}), 1),
        (monomial(1, 1, {1: 1, 2: 1}), 1),
    )


def test_composed_mode_rejects_z():
    bad = DiffPolynomial.term(monomial(0, 0, {}, {1: 1}))
    with pytest.raises(ValueError):
        derive(bad, "composed", 1)
    with pytest.raises(ValueError):
        derive(bad, "no-such-mode")


def test_nth_derivative_examples():
    assert nth_derivative_expansion(0, 3) == DiffPolynomial.term(SEED)
    assert nth_derivative_expansion(2, 1) == poly(
        (monomial(2, 0, {1: 2}), 1),
        (monomial(1, 0, {2: 1}), 1),
        (monomial(1, 1, {1: 1, 2: 1}), 2),
        (monomial(0, 2, {2: 2}), 1),
        (monomial(0, 1, {3: 1}), 1),
    )


def test_formula_expansion_examples():
    assert formula_expansion(0, 0) == DiffPolynomial.term(SEED)
    assert formula_expansion(1, 1) == poly(
        (monomial(1, 0, {1: 1}), 1),
        (monomial(0, 1, {2: 1}), 1),
    )
    assert formula_expansion(2, 1) == nth_derivative_expansion(2, 1)


def test_oracle_equality_small_grid():
    for s in range(4):
        chain = DiffPolynomial.term(SEED)
        for n in range(7):
            assert formula_expansion(n, s) == chain
            chain = derive(chain, "composed", s)


def test_faa_expansion_classical_values():
    assert faa_expansion(1) == poly((monomial(1, 0, {1: 1}), 1))
    assert faa_expansion(3) == poly(
        (monomial(3, 0, {1: 3}), 1),
        (monomial(2, 0, {1: 1, 2: 1}), 3),
        (monomial(1, 0, {3: 1}), 1),
    )
    assert faa_expansion(4).coefficient(monomial(2, 0, {2: 2})) == 3


def test_faa_matches_constant_g_oracle():
    chain = DiffPolynomial.term(SEED)
    for n in range(11):
        assert faa_expansion(n) == chain
        chain = derive(chain, "constant_g")


def test_leibniz_product_examples():
    assert leibniz_product_expansion(1) == poly(
        (monomial(1, 0, {1: 1}), 1),
        (monomial(0, 1, {}, {1: 1}), 1),
    )
    assert leibniz_product_expansion(2) == poly(
        (monomial(2, 0, {1: 2}), 1),
        (monomial(1, 0, {2: 1}), 1),
        (monomial(1, 1, {1: 1}, {1: 1}), 2),
        (monomial(0, 2, {}, {1: 2}), 1),
        (monomial(0, 1, {}, {2: 1}), 1),
    )
    assert leibniz_product_expansion(3).coefficient(monomial(1, 1, {1: 1}, {})) == 0
    assert leibniz_product_expansion(3).coefficient(monomial(1, 2, {1: 1}, {1: 2})) == 3


def test_leibniz_matches_independent_oracle():
    chain = DiffPolynomial.term(SEED)
    for n in range(8):
        assert leibniz_product_expansion(n) == chain
        chain = derive(chain, "independent")


def test_substitute_psi():
    z1 = DiffPolynomial.term(monomial(0, 0, {}, {1: 1}))
    assert substitute_psi(z1, 1) == DiffPolynomial.term(monomial(0, 0, {2: 1}))
    assert substitute_psi(z1, 0) == DiffPolynomial.term(monomial(0, 0, {1: 1}))
    assert substitute_psi(leibniz_product_expansion(2), 1) == nth_derivative_expansion(2, 1)


def test_substitution_bridge_grid():
    for s in range(4):
        for n in range(6):
            bridged = substitute_psi(leibniz_product_expansion(n), s)
            assert bridged == nth_derivative_expansion(n, s)


def test_weighted_degree_law():
    for s in range(4):
        for n in range(7):
            for mono, coeff in formula_expansion(n, s):
                assert coeff > 0
                assert mono.f_order is not None and mono.f_order >= 0
                assert mono.g_order is not None and mono.g_order >= 0
                assert sum(i * e for i, e in mono.y) == n + mono.g_order * s
                assert sum(e for _, e in mono.y) == mono.f_order + mono.g_order
                assert not mono.z


def random_variable_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        y = {rng.randint(1, 3): rng.randint(1, 2) for _ in range(rng.randint(0, 2))}
        z = {rng.randint(1, 2): rng.randint(1, 2) for _ in range(rng.randint(0, 1))}
        mono = monomial(None, None, y, z)
        terms[mono] = terms.get(mono, 0) + rng.randint(-3, 3)
    return DiffPolynomial(terms)


def test_derivation_is_a_derivation_on_variable_subalgebra():
    rng = random.Random(7)
    for _ in range(60):
        p = random_variable_poly(rng)
        q = random_variable_poly(rng)
        lhs = derive(p * q, "independent")
        rhs = derive(p, "independent") * q + p * derive(q, "independent")
        assert lhs == rhs


def test_derivation_leibniz_with_carried_symbols():
    rng = random.Random(11)
    carried = nth_derivative_expansion(2, 1)
    for _ in range(20):
        q = random_variable_poly(rng)
        q = DiffPolynomial({m: c for m, c in q if not m.z})
        lhs = derive(carried * q, "composed", 1)
        rhs = derive(carried, "composed", 1) * q + carried * derive(q, "composed", 1)
        assert lhs == rhs


def test_product_rejects_double_symbols():
    p = DiffPolynomial.term(SEED)
    with pytest.raises(ValueError):
        p * p


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        nth_derivative_expansion(20, 4)
    with pytest.raises(CapExceeded):
        formula_expansion(20, 4)
    with pytest.raises(CapExceeded):
        faa_expansion(100)


def test_pretty_and_json_rendering(capsysbinary):
    expansion = formula_expansion(1, 1)
    assert expansion.pretty() == "f'·g·φ' + f·g'·φ''"
    # the json items are the CLI's; their bytes are pinned in test_cli.py
    assert main(["expand", "--n", "1", "--s", "1", "--format", "json"]) == 0
    assert json.loads(capsysbinary.readouterr().out)["terms"] == [
        {"f": 1, "g": 0, "y": {"1": 1}, "z": {}, "coeff": "1"},
        {"f": 0, "g": 1, "y": {"2": 1}, "z": {}, "coeff": "1"},
    ]
    assert DiffPolynomial.zero().pretty() == "0"
    # orders past 3 switch from prime marks to superscripts
    high = DiffPolynomial.term(monomial(4, 0, {5: 2}))
    assert high.pretty() == "f^(4)·g·φ^(5)^2"
    # a constant term prints its empty product as 1; a coefficient of 1 is left out
    mixed = DiffPolynomial({monomial(): -3, monomial(0, 1, {2: 1}): 1})
    assert mixed.pretty() == "f·g'·φ'' + -3·1"
    assert mixed.latex() == "f\\,g^{(1)}\\,\\varphi^{(2)} + -3\\,1"


def test_canonical_term_order_is_stable():
    expansion = nth_derivative_expansion(3, 1)
    keys = [mono for mono, _c in expansion.terms()]
    assert keys == sorted(
        keys,
        key=lambda m: (m.f_order, m.g_order, m.y, m.z),
        reverse=True,
    )


# Property tests: the shared sparse core against the plain dict-of-terms
# reference in tests/helpers.py.

exponent_maps = st.dictionaries(st.integers(1, 4), st.integers(1, 3), max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)
orders = st.none() | st.integers(0, 3)
variable_monomials = st.builds(DiffMonomial, st.none(), st.none(), exponent_maps, exponent_maps)
carried_monomials = st.builds(DiffMonomial, orders, orders, exponent_maps, exponent_maps)
variable_terms = st.dictionaries(variable_monomials, st.integers(-5, 5), max_size=4)
carried_terms = st.dictionaries(carried_monomials, st.integers(-5, 5), max_size=4)


def assert_canonical(p):
    for mono, coeff in p:
        assert coeff != 0
        for exps in (mono.y, mono.z):
            indices = [i for i, _ in exps]
            assert indices == sorted(set(indices))
            assert all(e >= 1 for _, e in exps)


@settings(max_examples=150, deadline=None)
@given(carried_terms, variable_terms, variable_terms, st.integers(-3, 3))
def test_diff_operations_stay_canonical_and_match_reference(a, b, c, factor):
    p, q, r = DiffPolynomial(a), DiffPolynomial(b), DiffPolynomial(c)
    ra, rb = terms_add(a, {}), terms_add(b, {})
    cases = [
        (p, ra),
        (p + q, terms_add(ra, rb)),
        (p - q, terms_add(ra, terms_scale(rb, -1))),
        (factor * p, terms_scale(ra, factor)),
        (p * factor, terms_scale(ra, factor)),
        (p * q, terms_mul(ra, rb, diff_monomials_mul)),
        (q * p, terms_mul(rb, ra, diff_monomials_mul)),
    ]
    for result, expected in cases:
        assert_canonical(result)
        assert dict(result) == expected
        assert len(result) == len(expected) and bool(result) == bool(expected)
    # ring laws, with at most one factor carrying F and G symbols
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + DiffPolynomial.zero() == p
    assert p * DiffPolynomial.term(DiffMonomial(None, None, (), ())) == p
    assert not (p - p) and p - p == DiffPolynomial.zero()
    assert_canonical(derive(q, "independent"))


@settings(max_examples=100, deadline=None)
@given(carried_monomials, carried_monomials)
def test_diff_product_rejects_two_f_or_two_g_factors(m1, m2):
    p, q = DiffPolynomial.term(m1), DiffPolynomial.term(m2)
    two_f = m1.f_order is not None and m2.f_order is not None
    two_g = m1.g_order is not None and m2.g_order is not None
    if two_f or two_g:
        with pytest.raises(ValueError, match="two [fg] factors"):
            p * q
    else:
        assert dict(p * q) == {diff_monomials_mul(m1, m2): 1}


@settings(max_examples=100, deadline=None)
@given(carried_terms, st.dictionaries(exponent_maps, st.integers(-5, 5), max_size=4))
def test_diff_polynomial_never_equals_y_polynomial(a, b):
    d, y = DiffPolynomial(a), YPolynomial(b)
    assert d != y and y != d
    assert not (d == y) and not (y == d)
    assert DiffPolynomial.zero() != YPolynomial.zero()
