import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faadibruno import bell, coefficients, verification
from faadibruno.bell import (
    YPolynomial,
    complete_bell,
    modified_complete_bell,
    modified_partial_bell,
    modified_stirling,
    partial_bell,
    product_form_complete,
    product_form_partial,
    stirling2,
    stirling_convolution,
    stirling_table,
    term_degree,
    term_weighted_degree,
    touchard,
)
from faadibruno.cli import main
from faadibruno.partitions import CapExceeded

from helpers import exponents_mul, stirling_triangular, terms_add, terms_mul, terms_scale


def ypoly(*terms):
    return YPolynomial({exps: c for exps, c in terms})


def test_partial_bell_examples():
    assert partial_bell(4, 2) == ypoly((((2, 2),), 3), (((1, 1), (3, 1)), 4))
    assert partial_bell(0, 0) == YPolynomial({(): 1})
    for n in range(1, 8):
        assert partial_bell(n, 1) == YPolynomial.variable(n)
        assert partial_bell(n, n) == ypoly((((1, n),), 1))
    assert partial_bell(3, 5) == YPolynomial.zero()
    assert partial_bell(2, 0) == YPolynomial.zero()


def test_complete_bell_sums_partials():
    assert complete_bell(3) == ypoly(
        (((1, 3),), 1),
        (((1, 1), (2, 1)), 3),
        (((3, 1),), 1),
    )
    for n in range(8):
        total = YPolynomial.zero()
        for k in range(n + 1):
            total = total + partial_bell(n, k)
        assert complete_bell(n) == total
        # the r = 0 layer of the modified complete polynomial is the classical one
        layer = YPolynomial.zero()
        for k in range(n + 1):
            layer = layer + modified_partial_bell(n, k, 0, 2)
        assert layer == complete_bell(n)


def test_modified_partial_bell_examples():
    assert modified_partial_bell(2, 2, 1, 0) == ypoly((((1, 2),), 2))
    assert modified_partial_bell(1, 1, 1, 1) == YPolynomial.variable(2)
    for s in range(4):
        for n in range(6):
            for k in range(n + 1):
                assert modified_partial_bell(n, k, 0, s) == partial_bell(n, k)


def test_modified_partial_bell_vanishes_outside_ranges():
    assert modified_partial_bell(2, 3, 0, 1) == YPolynomial.zero()
    assert modified_partial_bell(2, 1, 2, 1) == YPolynomial.zero()
    assert modified_partial_bell(-1, 0, 0, 0) == YPolynomial.zero()
    assert modified_partial_bell(3, 0, 0, 2) == YPolynomial.zero()


def test_modified_complete_bell_examples():
    for s in range(3):
        assert modified_complete_bell(0, s) == YPolynomial({(): 1})
    assert modified_complete_bell(1, 1) == YPolynomial.variable(1) + YPolynomial.variable(2)
    assert modified_complete_bell(2, 1) == ypoly(
        (((1, 2),), 1),
        (((2, 1),), 1),
        (((1, 1), (2, 1)), 2),
        (((2, 2),), 1),
        (((3, 1),), 1),
    )


def test_modified_complete_bell_walks_once_per_r_and_refuses_before_any_walk(monkeypatch):
    walks = []
    walk = coefficients.constrained_coefficients

    def counted(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(coefficients, "constrained_coefficients", counted)
    for n in range(9):
        for s in range(4):
            partials = YPolynomial.zero()
            for r in range(n + 1):
                for k in range(r, n + 1):
                    partials = partials + modified_partial_bell(n, k, r, s)
            walks.clear()
            assert modified_complete_bell(n, s) == partials
            assert len(walks) == n + 1, (n, s)
            if n:
                walks.clear()
                with pytest.raises(CapExceeded):
                    modified_complete_bell(n, s, cap=n + n * s - 1)
                assert walks == []
    with pytest.raises(ValueError):
        modified_complete_bell(2, -1)


def test_product_form_examples():
    assert product_form_partial(2, 2, 1, 0) == ypoly((((1, 2),), 2))
    assert product_form_partial(1, 1, 1, 1) == YPolynomial.variable(2)
    for s in range(3):
        for n in range(5):
            for k in range(n + 1):
                assert product_form_partial(n, k, 0, s) == partial_bell(n, k)


def test_product_form_matches_definition():
    # modest grid here; the acceptance suite pushes the bounds to n <= 7, s <= 3
    for s in range(3):
        for n in range(6):
            for k in range(n + 1):
                for r in range(k + 1):
                    assert product_form_partial(n, k, r, s) == modified_partial_bell(n, k, r, s)
            assert product_form_complete(n, s) == modified_complete_bell(n, s)


def test_homogeneity_and_variable_window():
    for s in range(4):
        for n in range(8):
            for k in range(n + 1):
                for r in range(k + 1):
                    for exps, coeff in modified_partial_bell(n, k, r, s):
                        assert coeff > 0
                        assert term_degree(exps) == k
                        assert term_weighted_degree(exps) == n + r * s
                        assert not any(n + 1 - k < i <= s for i, _ in exps)


def test_bell_recurrence_in_variables():
    for s in range(3):
        for n in range(6):
            for k in range(n + 1):
                for r in range(k + 2):
                    lhs = modified_partial_bell(n + 1, k + 1, r, s)
                    rhs = YPolynomial.zero()
                    for l in range(n - k + 1):
                        rhs = rhs + comb(n, l) * (
                            YPolynomial.variable(l + 1) * modified_partial_bell(n - l, k, r, s)
                        )
                        if r >= 1:
                            rhs = rhs + comb(n, l) * (
                                YPolynomial.variable(l + s + 1)
                                * modified_partial_bell(n - l, k, r - 1, s)
                            )
                    assert lhs == rhs


def test_stirling2_values_and_triangular_oracle():
    assert stirling2(4, 2) == 7
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(3, 5) == 0
    for n in range(13):
        for k in range(n + 2):
            assert stirling2(n, k) == stirling_triangular(n, k)


def test_modified_stirling_values():
    assert modified_stirling(2, 2, 1) == 2
    assert modified_stirling(3, 2, 1) == 6
    for n in range(9):
        for k in range(n + 1):
            assert modified_stirling(n, k, 0) == stirling2(n, k)
    assert modified_stirling(2, 1, 2) == 0
    assert modified_stirling(-1, 0, 0) == 0


def test_geometric_substitution_s_independence():
    for n in range(8):
        for k in range(n + 1):
            for r in range(k + 1):
                expected = modified_stirling(n, k, r)
                for s in range(4):
                    image = modified_partial_bell(n, k, r, s).substitute_geometric()
                    wanted = {(n + r * s, k): expected} if expected else {}
                    assert image == wanted


def test_stirling_convolution_corrected():
    assert stirling_convolution(2, 2, 1) == 2
    assert stirling_convolution(3, 2, 1) == 6
    for n in range(11):
        for k in range(n + 1):
            assert stirling_convolution(n, k, 0) == stirling2(n, k)
            for r in range(k + 1):
                assert stirling_convolution(n, k, r) == modified_stirling(n, k, r)


def test_unweighted_convolution_is_false():
    # dropping the binomial weight breaks the identity; (2, 2, 1) is the witness
    unweighted = sum(stirling2(2 - p, 1) * stirling2(p, 1) for p in range(1, 2))
    assert unweighted == 1
    assert modified_stirling(2, 2, 1) == 2


def test_stirling_recurrence_corrected():
    for n in range(10):
        for k in range(n + 1):
            for r in range(k + 2):
                lhs = modified_stirling(n + 1, k + 1, r)
                rhs = sum(
                    comb(n, l) * (modified_stirling(n - l, k, r) + modified_stirling(n - l, k, r - 1))
                    for l in range(n - k + 1)
                )
                assert lhs == rhs


def test_unshifted_recurrence_is_false():
    # with the summand frozen at n the recurrence overcounts: witness (3, 2, 0)
    n, k, r = 3, 2, 0
    frozen = sum(
        comb(n, l) * (modified_stirling(n, k, r) + modified_stirling(n, k, r - 1))
        for l in range(n - k + 1)
    )
    assert frozen == 12
    assert modified_stirling(n + 1, k + 1, r) == 6


def test_row_sum_doubling():
    for n in range(11):
        for k in range(n + 1):
            row = sum(modified_stirling(n, k, r) for r in range(k + 1))
            assert row == 2**k * stirling2(n, k)


def test_stirling2_has_no_deep_recursion():
    # cold cache: the value must not recurse once per unit of k
    stirling2.cache_clear()
    try:
        # warm the recursive oracle in increasing n, over the band (900, 450) depends on
        for n in range(901):
            for k in range(max(0, n - 450), min(n, 450) + 1):
                stirling_triangular(n, k)
        assert stirling2(900, 450) == stirling_triangular(900, 450)
    finally:
        stirling_triangular.cache_clear()


def test_touchard():
    assert touchard(0) == (1,)
    assert touchard(2) == (0, 1, 1)
    assert touchard(3) == (0, 1, 3, 1)
    with pytest.raises(ValueError):
        touchard(-1)


def test_touchard_binomial_type():
    # sum_p binom(n, p) T_{n-p}(x) T_p(y) == T_n(x + y) in Z[x, y]
    for n in range(9):
        convolved = {}
        for p in range(n + 1):
            for i, ci in enumerate(touchard(n - p)):
                for j, cj in enumerate(touchard(p)):
                    key = (i, j)
                    convolved[key] = convolved.get(key, 0) + comb(n, p) * ci * cj
                    if not convolved[key]:
                        del convolved[key]
        expanded = {}
        for k, coeff in enumerate(touchard(n)):
            for i in range(k + 1):
                key = (i, k - i)
                expanded[key] = expanded.get(key, 0) + coeff * comb(k, i)
                if not expanded[key]:
                    del expanded[key]
        assert convolved == expanded


def test_ypolynomial_algebra():
    y1 = YPolynomial.variable(1)
    y2 = YPolynomial.variable(2)
    assert (y1 + y2) * (y1 - y2) == y1 * y1 - y2 * y2
    assert 0 * y1 == YPolynomial.zero()
    assert y1.shift_vars(2) == YPolynomial.variable(3)
    assert (y1 * y1).substitute_geometric() == {(2, 2): 1}
    assert YPolynomial({(): 1}).substitute_geometric() == {(0, 0): 1}
    with pytest.raises(ValueError):
        YPolynomial.variable(0)


def test_ypolynomial_rendering(capsysbinary):
    poly = partial_bell(4, 2)
    assert poly.pretty() == "4·y1·y3 + 3·y2^2"
    # the json items are the CLI's, of the same polynomial at r = s = 0; their
    # bytes are pinned in test_cli.py
    assert main(["bell", "--n", "4", "--k", "2", "--format", "json"]) == 0
    assert json.loads(capsysbinary.readouterr().out)["terms"] == [
        {"y": {"1": 1, "3": 1}, "coeff": "4"},
        {"y": {"2": 2}, "coeff": "3"},
    ]
    assert YPolynomial.zero().pretty() == "0"
    assert poly.latex() == "4\\, y_{1} y_{3} + 3\\, y_{2}^{2}"
    # a constant term prints its empty product as 1; a coefficient of 1 is left out
    mixed = YPolynomial({(): -3, ((1, 2),): 1})
    assert mixed.pretty() == "-3·1 + y1^2"
    assert mixed.latex() == "-3\\, 1 + y_{1}^{2}"


def test_stirling_table():
    # the entries behind every format; their bytes are pinned in test_cli.py
    table = tuple(stirling_table(2))
    assert (2, 2, 1, 2) in table
    assert table[0] == (0, 0, 0, 1)
    assert [row[:3] for row in table] == [
        (n, k, r) for n in range(3) for k in range(n + 1) for r in range(k + 1)
    ]


# Property tests: the shared sparse core against the plain dict-of-terms
# reference in tests/helpers.py.

exponent_maps = st.dictionaries(st.integers(1, 5), st.integers(1, 3), max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)
y_terms = st.dictionaries(exponent_maps, st.integers(-5, 5), max_size=5)


def assert_canonical(p):
    for exps, coeff in p:
        assert coeff != 0
        indices = [i for i, _ in exps]
        assert indices == sorted(set(indices))
        assert all(e >= 1 for _, e in exps)


@settings(max_examples=150, deadline=None)
@given(y_terms, y_terms, y_terms, st.integers(-3, 3))
def test_y_operations_stay_canonical_and_match_reference(a, b, c, factor):
    p, q, r = YPolynomial(a), YPolynomial(b), YPolynomial(c)
    ra, rb = terms_add(a, {}), terms_add(b, {})
    cases = [
        (p, ra),
        (p + q, terms_add(ra, rb)),
        (p - q, terms_add(ra, terms_scale(rb, -1))),
        (factor * p, terms_scale(ra, factor)),
        (p * factor, terms_scale(ra, factor)),
        (p * q, terms_mul(ra, rb, exponents_mul)),
        (p.shift_vars(2), {tuple((i + 2, e) for i, e in k): v for k, v in ra.items()}),
    ]
    for result, expected in cases:
        assert_canonical(result)
        assert dict(result) == expected
        assert len(result) == len(expected) and bool(result) == bool(expected)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + YPolynomial.zero() == p
    assert p * YPolynomial({(): 1}) == p
    assert not (p - p) and p - p == YPolynomial.zero()
    assert [t for t in p.terms()] == sorted(
        ra.items(), key=lambda t: (sum(i * e for i, e in t[0]), t[0])
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), y_terms, st.integers(-3, 3))
def test_cached_partial_bell_survives_use_as_operand(n, k, a, factor):
    cached = partial_bell(n, k)
    other = YPolynomial(a)
    total = cached + other
    assert total == other + cached
    assert total - other == cached and other - total == (-1) * cached
    assert not (cached - cached)
    assert factor * cached == cached * factor
    assert cached * other == other * cached
    assert (cached * cached).shift_vars(1) == cached.shift_vars(1) * cached.shift_vars(1)
    cached.substitute_geometric()
    assert partial_bell(n, k) is cached
    assert cached == partial_bell.__wrapped__(n, k)


def test_raised_cap_reaches_partial_bell_and_modified_stirling():
    with pytest.raises(CapExceeded):
        modified_stirling(65, 1, 0)
    with pytest.raises(CapExceeded):
        partial_bell(65, 64)
    with pytest.raises(CapExceeded):
        complete_bell(9, cap=8)
    assert modified_stirling(65, 1, 0, cap=100) == 1
    assert partial_bell(65, 64, cap=100) == ypoly((((1, 63), (2, 1)), comb(65, 2)))
    with pytest.raises(CapExceeded):
        modified_stirling(7, 2, 1, cap=6)
    # the cap is checked before the cache, so every cap that admits n shares one entry
    before = partial_bell.cache_info().currsize
    assert partial_bell(9, 4) is partial_bell(9, 4, cap=9) is partial_bell(9, 4, cap=100)
    assert partial_bell.cache_info().currsize <= before + 1
    assert modified_stirling(8, 3, 2) == modified_stirling(8, 3, 2, cap=8)
    assert complete_bell(6, cap=6) == complete_bell(6)


def test_modified_partial_bell_checks_its_cap_before_its_cache():
    # weight n + r*s = 6: cached under the default cap, still refused under cap 5
    value = modified_partial_bell(4, 2, 2, 1)
    with pytest.raises(CapExceeded, match=r"^modified_partial_bell reaches weight 6 > cap 5$"):
        modified_partial_bell(4, 2, 2, 1, cap=5)
    before = modified_partial_bell.cache_info().currsize
    assert modified_partial_bell(4, 2, 2, 1, cap=6) is value
    # a raised cap and the default share one entry
    raised = modified_partial_bell(9, 4, 2, 3, cap=100)
    assert modified_partial_bell(9, 4, 2, 3, cap=15) is raised is modified_partial_bell(9, 4, 2, 3)
    assert modified_partial_bell.cache_info().currsize <= before + 1
    assert raised == modified_partial_bell.__wrapped__(9, 4, 2, 3)


def test_modified_partial_bell_vanishes_before_any_check_or_cache():
    # outside 0 <= r <= k <= n the value is zero at any weight, under any cap
    before = modified_partial_bell.cache_info()
    for args in [(100, 101, 0, 1), (70, 3, 4, 5), (-1, 0, 0, 0), (9, 4, -1, 2), (8, -1, 0, 0)]:
        assert modified_partial_bell(*args, cap=0) == YPolynomial.zero()
    after = modified_partial_bell.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    with pytest.raises(ValueError, match="s must be non-negative"):
        modified_partial_bell(3, 2, 1, -1)


def test_verify_builds_each_modified_bell_polynomial_once():
    # a clockless work pin: the Bell suites of verify (7, 3, 50) call
    # modified_partial_bell 4,300 times on 480 in-range argument sets
    modified_partial_bell.cache_clear()
    report = verification.run_all(max_n=7, max_s=3, seed=0, trials=50)
    assert report["passed"] is True
    assert modified_partial_bell.cache_info().misses == 480


def test_stirling_table_passes_its_cap(monkeypatch):
    caps = set()

    def recording(n, k, r, cap):
        caps.add(cap)
        return modified_stirling(n, k, r, cap=cap)

    monkeypatch.setattr(bell, "modified_stirling", recording)
    assert tuple(stirling_table(4, cap=100)) == tuple(stirling_table(4))
    assert caps == {100, 64}


def test_stirling_table_never_enumerates_partitions(monkeypatch):
    # the closed form binom(k, r) * S(n, k): the whole default-cap table needs no partition
    def refuse(*args, **kwargs):
        raise AssertionError("modified Stirling numbers must not enumerate partitions")

    monkeypatch.setattr(bell, "enumerate_constrained", refuse)
    assert len(tuple(stirling_table(64))) == 47905  # binom(67, 3) rows
    assert modified_stirling(64, 32, 16) == comb(32, 16) * stirling2(64, 32)


def test_product_forms_refuse_what_the_definitions_refuse():
    with pytest.raises(CapExceeded):
        modified_complete_bell(3, 0, cap=1)
    with pytest.raises(CapExceeded):
        product_form_complete(3, 0, cap=1)
    for cap in range(8):
        for n in range(5):
            for s in range(3):
                pairs = [(modified_complete_bell, product_form_complete, (n, s))]
                pairs += [
                    (modified_partial_bell, product_form_partial, (n, k, r, s))
                    for k in range(-1, n + 2)
                    for r in range(-1, k + 2)
                ]
                for definition, product_form, args in pairs:
                    outcomes = []
                    for f in (definition, product_form):
                        try:
                            outcomes.append(f(*args, cap=cap))
                        except CapExceeded:
                            outcomes.append(CapExceeded)
                    assert outcomes[0] == outcomes[1], (definition.__name__, args, cap)
