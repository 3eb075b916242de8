import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faadibruno import verification
from faadibruno.diffalg import formula_expansion, leibniz_product_expansion
from faadibruno.polynomials import (
    FormulaInstantiator,
    RationalPolynomial,
    check_main_theorem,
    random_instances,
    random_polynomial,
)

from helpers import (
    expansion_value_by_terms,
    fraction_poly_add,
    fraction_poly_derivative,
    fraction_poly_eval,
    fraction_poly_mul,
    fraction_poly_trim,
)


def P(*coeffs):
    return RationalPolynomial(coeffs)


def test_canonical_form():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P().degree == -1
    assert P(0, 0) == P() and P(0, 0).coeffs == ()
    assert P(Fraction(1, 2)).coeffs == (Fraction(1, 2),)


def test_ring_operations():
    assert P(1, 1) + P(1, -1) == P(2)
    assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)
    assert P(0, 0, 0, 1).derivative() == P(0, 0, 3)
    assert P(5).derivative() == P()
    assert P(1, 2, 1) - P(0, 2) == P(1, 0, 1)
    assert (-P(1, -2)) == P(-1, 2)


def test_sums_with_a_foreign_operand_raise_type_error():
    # like * and every SparsePolynomial operator, + and - decline a foreign operand
    p = RationalPolynomial([1, 2])
    for other in (1, Fraction(1)):
        with pytest.raises(TypeError):
            p + other
        with pytest.raises(TypeError):
            p - other


def test_composing_with_a_foreign_operand_raises_type_error():
    # as + and - do; a constant outer polynomial never reads its inner one, and still refuses
    for outer in (RationalPolynomial([1, 2]), RationalPolynomial([3])):
        for inner in (3, Fraction(1)):
            with pytest.raises(TypeError):
                outer.compose(inner)


def test_compose():
    assert P(0, 0, 1).compose(P(1, 1)) == P(1, 2, 1)
    assert P(3).compose(P(0, 7)) == P(3)
    assert P(0, 1).compose(P(0, 0, 5)) == P(0, 0, 5)


def test_compose_matches_evaluation():
    rng = random.Random(3)
    for _ in range(25):
        p = random_polynomial(rng, 4, 6)
        q = random_polynomial(rng, 4, 6)
        composed = p.compose(q)
        for t in (-2, 0, 1, Fraction(1, 3)):
            q_t = sum(c * Fraction(t) ** i for i, c in enumerate(q.coeffs))
            p_qt = sum(c * q_t**i for i, c in enumerate(p.coeffs))
            lhs = sum(c * Fraction(t) ** i for i, c in enumerate(composed.coeffs))
            assert lhs == p_qt


def test_derivative_order_and_power():
    p = P(1, 1) * P(1, 1) * P(1, 1) * P(1, 1)
    assert p == P(1, 4, 6, 4, 1)
    assert p.derivative(2) == P(12, 24, 12)
    with pytest.raises(ValueError):
        p.derivative(-1)
    # past its degree a polynomial is zero, and the loop stops there
    assert RationalPolynomial([1, 2]).derivative(10**9) == P()


def test_from_string():
    assert RationalPolynomial.from_string("1,0,2/3") == P(1, 0, Fraction(2, 3))
    assert RationalPolynomial.from_string("") == P()
    assert RationalPolynomial.from_string(" -1/2 , 3 ") == P(Fraction(-1, 2), 3)


def test_check_main_theorem_hand_case():
    # f = z^2, g = z, phi = t^2: the product is 2t^5, second derivative 40t^3
    report = check_main_theorem(P(0, 0, 1), P(0, 1), P(0, 0, 1), 2, 1)
    assert report["equal"]
    assert report["lhs"] == ["0", "0", "0", "40"]
    assert report["rhs"] == ["0", "0", "0", "40"]


def test_check_main_theorem_n0():
    f, g, phi = P(1, 2), P(3, 1), P(0, 1, 1)
    report = check_main_theorem(f, g, phi, 0, 2)
    expected = f.compose(phi) * g.compose(phi.derivative(2))
    assert report["equal"]
    assert report["lhs"] == expected.to_strings()


def test_constant_g_reduces_to_chain_rule():
    rng = random.Random(5)
    for _ in range(10):
        f = random_polynomial(rng, 4, 6)
        phi = random_polynomial(rng, 4, 6)
        g = P(1)
        for n in range(5):
            report = check_main_theorem(f, g, phi, n, 1)
            assert report["equal"]
            chain = f.compose(phi).derivative(n)
            assert report["lhs"] == chain.to_strings()


def test_s0_equals_derivative_of_product_composition():
    rng = random.Random(9)
    for _ in range(10):
        f = random_polynomial(rng, 3, 5)
        g = random_polynomial(rng, 3, 5)
        phi = random_polynomial(rng, 3, 5)
        product_then_compose = (f * g).compose(phi)
        for n in range(5):
            report = check_main_theorem(f, g, phi, n, 0)
            assert report["equal"]
            assert report["lhs"] == product_then_compose.derivative(n).to_strings()


def test_random_checks_report():
    items = list(random_instances(trials=10, max_n=4, max_s=2, seed=123))
    # one item per checked instance, every one None: no failure and no witness
    assert len(items) == 10 * 5 * 3
    assert items == [None] * len(items)
    again = list(random_instances(trials=10, max_n=4, max_s=2, seed=123))
    assert again == items


def test_random_polynomial_bounds():
    rng = random.Random(0)
    for _ in range(200):
        p = random_polynomial(rng, 5, 10)
        assert p.degree <= 5
        for c in p.coeffs:
            assert abs(c.numerator) <= 10
            assert 1 <= c.denominator <= 10


@pytest.fixture
def products(monkeypatch):
    """A one-item list counting every RationalPolynomial product made from now on."""
    count = [0]
    real = RationalPolynomial.__mul__

    def counting(self, other):
        count[0] += 1
        return real(self, other)

    monkeypatch.setattr(RationalPolynomial, "__mul__", counting)
    return count


@pytest.mark.parametrize(
    "f, g, phi",
    [
        (P(), P(1, -2, 3), P(0, 1, 2)),  # f = 0
        (P(2, 1, 1), P(), P(0, 1, 2)),  # g = 0
        (P(2, 1, 1), P(1, -2, 3), P()),  # phi = 0
        (P(2, 1, 1), P(1, -2, 3), P(Fraction(3, 2))),  # constant phi
        (P(0, 0, 1), P(1, -2, 3), P(1, 0, 1, 1)),  # deg f below n
        (P(5, 4, 3, 2, 1), P(0, 1), P(1, 2, 0, -1)),  # deg g below n
        (P(5, 4, 3, 2, 1), P(1, -2, 3), P(1, 2)),  # linear phi
    ],
)
def test_expansion_at_edge_degrees(f, g, phi):
    # monomials with a = deg f, b = deg g or top y index = deg phi are live;
    # one past any of them is dead
    inst = FormulaInstantiator(f, g, phi)
    for s in range(3):
        for n in range(5):
            assert check_main_theorem(f, g, phi, n, s)["equal"]
            expansion = formula_expansion(n, s)
            value = inst.expansion_value(expansion, s)
            assert value == expansion_value_by_terms(expansion, s, f, g, phi)


def test_one_instance_per_triple_matches_the_term_by_term_sum():
    # one instance serves every s, in any order, and its tables never leak
    # from one shift into another; the grid groups by y-part at some (n, s)
    # and by (a, b) at others
    rng = random.Random(11)
    for _ in range(12):
        f, g, phi = (random_polynomial(rng, 4, 6) for _ in range(3))
        inst = FormulaInstantiator(f, g, phi)
        for s in (2, 0, 1):
            for n in range(6):
                expansion = formula_expansion(n, s)
                value = inst.expansion_value(expansion, s)
                assert_canonical(value)
                assert value == expansion_value_by_terms(expansion, s, f, g, phi)


def test_psi_expansions_are_refused():
    inst = FormulaInstantiator(P(1, 1), P(2, 1), P(0, 1, 1))
    with pytest.raises(ValueError, match="psi symbols cannot be instantiated here"):
        inst.expansion_value(leibniz_product_expansion(1), 0)


def test_concrete_oracle_products_at_the_benchmark_grid(products, monkeypatch):
    # random_polynomial_instances alone at verify (7, 3, 50), seeded as run_all seeds it
    (entry,) = [e for e in verification.SUITES if e[0] == "random_polynomial_instances"]
    monkeypatch.setattr(verification, "SUITES", (entry,))
    (result,) = verification.run_all(max_n=7, max_s=3, seed=0, trials=50)["identities"]
    assert (result["instances"], result["failures"], result["counterexample"]) == (
        1050,
        0,
        None,
    )
    # the left side: per (triple, s), the power tables of f o phi and g o phi^(s)
    # and their product.  The right side: per triple, not per (triple, s), one
    # product per power of phi and of phi^(s) past the first, per Y(y) past one
    # factor and per F_a * G_b; per instance, one per group of the smaller
    # grouping (by y-part or by (a, b)); none by a structural 1
    assert products[0] == 6185


# Property tests: the integer-numerator representation against the
# Fraction-list reference in tests/helpers.py.

coefficient = st.fractions(min_value=-20, max_value=20, max_denominator=12)
coefficient_lists = st.lists(coefficient, max_size=6)


def assert_canonical(p):
    num, den = p._num, p._den
    assert den > 0
    assert gcd(den, *num) == 1
    assert not num or num[-1] != 0


@settings(max_examples=150, deadline=None)
@given(coefficient_lists, coefficient_lists, coefficient)
def test_operations_stay_canonical_and_match_reference(a, b, factor):
    p, q = RationalPolynomial(a), RationalPolynomial(b)
    ra, rb = fraction_poly_trim(a), fraction_poly_trim(b)
    assert (p == q) == (ra == rb)
    cases = [
        (p, ra),
        (p + q, fraction_poly_add(ra, rb)),
        (-p, [-c for c in ra]),
        (p - q, fraction_poly_add(ra, [-c for c in rb])),
        (p * q, fraction_poly_mul(ra, rb)),
        (p * RationalPolynomial([factor]), fraction_poly_trim([c * factor for c in ra])),
        (p.derivative(), fraction_poly_derivative(ra)),
        (p.derivative(2), fraction_poly_derivative(fraction_poly_derivative(ra))),
        (p * p, fraction_poly_mul(ra, ra)),
    ]
    for result, expected in cases:
        assert_canonical(result)
        assert list(result.coeffs) == expected
        assert result.to_strings() == [str(c) for c in expected]
    assert_canonical(p.compose(q))


@settings(max_examples=100, deadline=None)
@given(coefficient_lists, coefficient_lists, coefficient_lists)
def test_ring_laws(a, b, c):
    p, q, r = RationalPolynomial(a), RationalPolynomial(b), RationalPolynomial(c)
    zero = RationalPolynomial()
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == zero
    assert_canonical(p - p)
    assert p + zero == p
    assert p * RationalPolynomial([1]) == p


@settings(max_examples=100, deadline=None)
@given(
    st.lists(coefficient, max_size=5),
    st.lists(coefficient, max_size=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
def test_compose_matches_pointwise_evaluation(a, b, t):
    p, q = RationalPolynomial(a), RationalPolynomial(b)
    composed = p.compose(q)
    assert_canonical(composed)
    expected = fraction_poly_eval(a, fraction_poly_eval(b, t))
    assert fraction_poly_eval(composed.coeffs, t) == expected


@settings(max_examples=100, deadline=None)
@given(coefficient_lists, coefficient_lists)
def test_derivative_product_rule(a, b):
    p, q = RationalPolynomial(a), RationalPolynomial(b)
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def _spelled(c, k, form):
    """c as a Fraction, as an unreduced string "k*p/k*q", or as an int where integral."""
    if form == 1:
        return f"{c.numerator * k}/{c.denominator * k}"
    if form == 2 and c.denominator == 1:
        return int(c)
    return c


@settings(max_examples=100, deadline=None)
@given(
    coefficient_lists,
    st.lists(st.tuples(st.integers(1, 6), st.integers(0, 2)), min_size=6, max_size=6),
    st.integers(0, 3),
)
def test_equal_polynomials_from_different_inputs_hash_equal(a, spellings, zeros):
    p = RationalPolynomial(a)
    q = RationalPolynomial(
        [_spelled(c, k, form) for c, (k, form) in zip(a, spellings)] + [0] * zeros
    )
    assert p == q
    assert hash(p) == hash(q)
    assert (p._num, p._den) == (q._num, q._den)


def test_hash_consistent_for_unreduced_input():
    p = RationalPolynomial([Fraction(2, 4), 0])
    q = RationalPolynomial([Fraction(1, 2)])
    r = RationalPolynomial.from_string("2/4, 0/7")
    assert p == q == r
    assert hash(p) == hash(q) == hash(r)
    assert p != RationalPolynomial([1]) and p != RationalPolynomial([Fraction(1, 3)])
    assert (p._num, p._den) == ((1,), 2)
    assert (RationalPolynomial()._num, RationalPolynomial()._den) == ((), 1)
    assert RationalPolynomial([0, Fraction(0, 5)]) == RationalPolynomial()
    assert len({p, q, r, RationalPolynomial([1]), RationalPolynomial(["3/3"])}) == 2


def test_product_with_zero_is_the_canonical_zero():
    zero = RationalPolynomial()
    for product in (
        zero * RationalPolynomial([1, 2]),
        RationalPolynomial([1, 2]) * zero,
        RationalPolynomial([Fraction(1, 3)]) * zero,
    ):
        assert (product._num, product._den) == ((), 1)
