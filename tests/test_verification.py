"""The `verify` suite runner: one instance per check, failures never outnumber them."""

import pytest

from faadibruno import (
    bell,
    coefficients,
    diffalg,
    partitions,
    polynomials,
    symfunc,
    verification,
)
from faadibruno.coefficients import IntegralityError, coefficient_table
from faadibruno.partitions import DEFAULT_WEIGHT_CAP


def only_suite(monkeypatch, key):
    # run_all reads SUITES at call time, so a one-suite registry runs one suite
    (entry,) = [entry for entry in verification.SUITES if entry[0] == key]
    monkeypatch.setattr(verification, "SUITES", (entry,))


def test_registry_shape():
    keys = [key for key, _statement, _runner, _info in verification.SUITES]
    assert len(keys) == 30 and len(set(keys)) == 30
    assert [key for key, _s, _r, info in verification.SUITES if info] == [
        "stirling_convolution_unweighted",
        "stirling_recurrence_unshifted",
    ]


def test_unbuildable_table_is_one_failing_instance(monkeypatch):
    real = verification.coefficient_table

    def table(n, s, cap):
        if n == 0:
            raise IntegralityError(f"table (n={n}, s={s}) is not integral")
        return real(n, s, cap=cap)

    monkeypatch.setattr(verification, "coefficient_table", table)
    only_suite(monkeypatch, "coefficient_integrality")
    for max_n in (0, 3):
        report = verification.run_all(max_n=max_n, max_s=0)
        (result,) = report["identities"]
        others = sum(len(tuple(coefficient_table(n, 0))) for n in range(1, max_n + 1))
        assert result["instances"] == others + 1
        assert result["failures"] == 1
        assert result["failures"] <= result["instances"]
        assert result["counterexample"] == {
            "n": 0,
            "s": 0,
            "error": "table (n=0, s=0) is not integral",
        }
        assert result["passed"] is False and report["passed"] is False


def test_table_failing_after_its_first_rows_is_one_failing_instance(monkeypatch):
    # the r = 0 rows of a table are out before r = 1 fails; none of them is counted
    real = coefficients.constrained_coefficients

    def failing(n, r, s, cap):
        if r == 1:
            raise IntegralityError(f"C(r=1, s={s}) is not an integer at n={n}")
        return real(n, r, s, cap=cap)

    monkeypatch.setattr(coefficients, "constrained_coefficients", failing)
    only_suite(monkeypatch, "coefficient_integrality")
    (result,) = verification.run_all(max_n=3, max_s=1)["identities"]
    # n = 0 has only its r = 0 row, at each s; every n >= 1 reaches r = 1
    assert (result["instances"], result["failures"]) == (2 + 2 * 3, 2 * 3)
    assert result["counterexample"] == {
        "n": 1,
        "s": 0,
        "error": "C(r=1, s=0) is not an integer at n=1",
    }
    assert result["passed"] is False


def test_passing_integrality_report_counts_every_entry(monkeypatch):
    only_suite(monkeypatch, "coefficient_integrality")
    (result,) = verification.run_all(max_n=4, max_s=2)["identities"]
    entries = sum(
        len(tuple(coefficient_table(n, s))) for s in range(3) for n in range(5)
    )
    assert (result["instances"], result["failures"]) == (entries, 0)
    assert result["passed"] is True and result["counterexample"] is None


def test_random_instances_checked_before_an_error_are_counted(monkeypatch):
    # the concrete oracle raises on its 5th call: the 4 instances it checked
    # before that count, and the error is one more failing instance
    real = polynomials.FormulaInstantiator.expansion_value
    calls = []

    def raising(self, expansion, s):
        calls.append(s)
        if len(calls) == 5:
            raise ZeroDivisionError("probe")
        return real(self, expansion, s)

    monkeypatch.setattr(polynomials.FormulaInstantiator, "expansion_value", raising)
    only_suite(monkeypatch, "random_polynomial_instances")
    (result,) = verification.run_all(max_n=3, max_s=1, seed=0, trials=4)["identities"]
    assert (result["instances"], result["failures"], result["counterexample"]) == (
        5,
        1,
        {"error": "ZeroDivisionError: probe"},
    )
    assert result["passed"] is False


@pytest.mark.parametrize(
    "key, instances",
    [("newton_identity_residual_zero", 18018), ("elementary_subtract_transform", 10296)],
)
def test_symmetric_function_suites_at_the_benchmark_grid(monkeypatch, key, instances):
    only_suite(monkeypatch, key)
    (result,) = verification.run_all(max_n=7, max_s=3)["identities"]
    assert (result["instances"], result["failures"], result["counterexample"]) == (
        instances,
        0,
        None,
    )


def test_newton_suite_reports_a_wrong_residual(monkeypatch):
    real = symfunc.newton_residuals

    def wrong(b, r_max):
        residuals = real(b, r_max)
        if b == (3, 1):
            return residuals[:1] + (1,) + residuals[2:]
        return residuals

    monkeypatch.setattr(symfunc, "newton_residuals", wrong)
    only_suite(monkeypatch, "newton_identity_residual_zero")
    (result,) = verification.run_all(max_n=3, max_s=0)["identities"]
    assert result["failures"] == 1 and result["passed"] is False
    assert result["counterexample"] == {"multiset": [3, 1], "r": 2}


def test_subtract_transform_suite_reports_a_wrong_vector(monkeypatch):
    real = symfunc.subtract_transform

    def wrong(e, l_value, c):
        out = real(e, l_value, c)
        if (l_value, c) == (5, 1):
            return out[:-1] + (out[-1] + 1,)
        return out

    monkeypatch.setattr(symfunc, "subtract_transform", wrong)
    only_suite(monkeypatch, "elementary_subtract_transform")
    (result,) = verification.run_all(max_n=2, max_s=0)["identities"]
    assert result["failures"] > 0 and result["passed"] is False
    assert result["counterexample"] == {"multiset": [5], "value": 5}


def test_a_wrong_rest_vector_fails_every_multiset_that_leaves_it(monkeypatch):
    # the suite keeps one vector per rest: a wrong e_2 of (3,) fails each of the
    # 8 multisets (3, x) once, at the x whose removal leaves (3,)
    real = symfunc.elementary_moments

    def wrong(b, r_max):
        e = real(b, r_max)
        if (tuple(b), r_max) == ((3,), 2):
            return e[:2] + (e[2] + 1,)
        return e

    monkeypatch.setattr(symfunc, "elementary_moments", wrong)
    only_suite(monkeypatch, "elementary_subtract_transform")
    (result,) = verification.run_all(max_n=7, max_s=3, seed=0, trials=50)["identities"]
    assert (result["instances"], result["failures"], result["counterexample"]) == (
        10296,
        8,
        {"multiset": [3, 1], "value": 1},
    )


@pytest.mark.parametrize(
    "key, module, name, calls",
    [
        # 3,002 non-empty multisets and 1,287 distinct rests
        ("elementary_subtract_transform", symfunc, "elementary_moments", 4289),
        # one expansion per n = 0..7, for all four s
        ("psi_substitution_bridge", diffalg, "leibniz_product_expansion", 8),
    ],
)
def test_a_suite_builds_each_oracle_operand_once(monkeypatch, key, module, name, calls):
    # a clockless work pin at (7, 3, 50), seed 0: every call has its own arguments
    real = getattr(module, name)
    made = []

    def counted(*args, **kwargs):
        made.append((args, tuple(sorted(kwargs.items()))))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    only_suite(monkeypatch, key)
    report = verification.run_all(max_n=7, max_s=3, seed=0, trials=50)
    assert report["passed"] is True
    assert len(made) == len(set(made)) == calls


def stirling_suites(monkeypatch):
    # the seven Stirling suites at the benchmark grid, keyed by suite
    monkeypatch.setattr(
        verification, "SUITES", tuple(e for e in verification.SUITES if "stirling" in e[0])
    )
    report = verification.run_all(max_n=7, max_s=3)
    return {result["key"]: result for result in report["identities"]}


def test_stirling_suites_compare_with_the_definition_not_the_closed_form(monkeypatch):
    # modified_stirling is binom(k, r) * S(n, k), so a wrong S(n, k) makes it wrong
    # too; a suite that compared the closed form with itself would still pass
    real = bell.stirling2
    monkeypatch.setattr(bell, "stirling2", lambda n, k: real(n, k) + ((n, k) == (5, 2)))
    results = stirling_suites(monkeypatch)
    for key in ("modified_stirling_base_row", "stirling_row_sum_doubling"):
        assert results[key]["passed"] is False, key
        assert results[key]["counterexample"] == {"n": 5, "k": 2}


def test_a_wrong_modified_stirling_number_fails_s_independence(monkeypatch):
    real = bell.modified_stirling

    def wrong(n, k, r, cap=DEFAULT_WEIGHT_CAP):
        return real(n, k, r, cap=cap) + ((n, k, r) == (5, 3, 1))

    monkeypatch.setattr(bell, "modified_stirling", wrong)
    results = stirling_suites(monkeypatch)
    s_independent = results["modified_stirling_s_independent"]
    assert s_independent["passed"] is False
    assert s_independent["counterexample"] == {"n": 5, "k": 3, "r": 1, "s": 0}
    # the suites that read the partition sum do not see the wrong value
    for key in (
        "modified_stirling_base_row",
        "stirling_convolution_corrected",
        "stirling_row_sum_doubling",
    ):
        assert results[key]["passed"] is True, key


def subpartition_suites(monkeypatch):
    # the plain and the shifted sub-partition suites at the benchmark grid, keyed by suite
    keys = ("elementary_subpartition_sum", "elementary_shifted_subpartition_sum")
    monkeypatch.setattr(
        verification, "SUITES", tuple(e for e in verification.SUITES if e[0] in keys)
    )
    report = verification.run_all(max_n=7, max_s=3)
    return {result["key"]: result for result in report["identities"]}


def test_a_wrong_subpartition_sum_fails_the_plain_suite_alone(monkeypatch):
    # the shifted suite sums over the shifted-down sub-partitions itself, so it
    # no longer repeats the plain suite's instances of elementary_by_subpartitions
    real = symfunc.elementary_by_subpartitions

    def wrong(eta, s, r):
        return real(eta, s, r) + ((eta.parts, s, r) == ((3, 2), 1, 1))

    monkeypatch.setattr(symfunc, "elementary_by_subpartitions", wrong)
    results = subpartition_suites(monkeypatch)
    plain = results["elementary_subpartition_sum"]
    assert (plain["instances"], plain["failures"]) == (314, 1)
    assert plain["counterexample"] == {"eta": [3, 2], "s": 1, "r": 1}
    shifted = results["elementary_shifted_subpartition_sum"]
    assert (shifted["instances"], shifted["failures"], shifted["counterexample"]) == (589, 0, None)


def test_a_wrong_shifted_weight_fails_the_shifted_suite(monkeypatch):
    # perm(j + s, s) = (j + s)! / j! is the weight of a part j of the shifted-down nu
    real = verification.perm
    monkeypatch.setattr(verification, "perm", lambda n, k: real(n, k) + ((n, k) == (3, 1)))
    results = subpartition_suites(monkeypatch)
    assert results["elementary_subpartition_sum"]["failures"] == 0
    shifted = results["elementary_shifted_subpartition_sum"]
    assert shifted["failures"] > 0 and shifted["passed"] is False
    assert shifted["counterexample"] == {"lam": [3], "s": 1, "r": 1}


def _m_one_too_high_for_ones(real, parts):
    for j, m, removed, lowered in real(parts):
        yield j, m + (j == 1), removed, lowered


def _first_copy_lowered(real, parts):
    # lowering the first copy of j instead of the last leaves the tuple unsorted
    for j, m, removed, lowered in real(parts):
        i = parts.index(j)
        yield j, m, removed, parts[:i] + ((j - 1,) if j > 1 else ()) + parts[i + 1 :]


@pytest.mark.parametrize(
    "fault, expected",
    [
        (
            _m_one_too_high_for_ones,
            {
                "partition_modification_parameters": (75, 30, {"partition": [1], "j": 1}),
                "coefficient_recurrence_matches_closed_form": (
                    873,
                    357,
                    {"n": 3, "s": 0, "r": 0, "lam": [2, 1]},
                ),
            },
        ),
        (
            _first_copy_lowered,
            {
                "partition_modification_parameters": (75, 9, {"partition": [2, 2], "j": 2}),
                "coefficient_recurrence_matches_closed_form": (
                    873,
                    310,
                    {"n": 4, "s": 0, "r": 0, "lam": [2, 2]},
                ),
            },
        ),
    ],
)
def test_a_wrong_modification_fails_both_suites_that_read_it(monkeypatch, fault, expected):
    # partitions.modifications is the one source of the removed and lowered tuples:
    # the suite named for them and the recurrence's cross-check both fail on a fault in it
    real = partitions.modifications

    def wrong(parts):
        return fault(real, parts)

    for module in (partitions, coefficients, verification):
        monkeypatch.setattr(module, "modifications", wrong)
    suites = verification.SUITES
    for key, (instances, failures, witness) in expected.items():
        monkeypatch.setattr(verification, "SUITES", tuple(e for e in suites if e[0] == key))
        report = verification.run_all(max_n=7, max_s=3)
        (result,) = report["identities"]
        assert (result["instances"], result["failures"]) == (instances, failures), key
        assert result["counterexample"] == witness
        assert result["passed"] is False and report["passed"] is False


def test_a_wrong_derivation_step_fails_both_suites_that_derive_in_composed_mode(monkeypatch):
    # the composed step from n = 1 to n = 2 at s = 1 drops its first term, in
    # terms() order; the n-fold derivatives of F0*G0 above it inherit the loss,
    # and the constant-g derivation never takes that step
    real = diffalg.derive
    first = real(diffalg.DiffPolynomial.term(diffalg.DiffMonomial(0, 0, (), ())), "composed", 1)

    def wrong(poly, mode="composed", s=0):
        out = real(poly, mode, s)
        if (mode, s) == ("composed", 1) and poly == first:
            return diffalg.DiffPolynomial(out.terms()[1:])
        return out

    monkeypatch.setattr(diffalg, "derive", wrong)
    suites = verification.SUITES
    for key, expected in {
        "derivative_oracle_matches_formula": (32, 6, {"n": 2, "s": 1}),
        "psi_substitution_bridge": (32, 6, {"n": 2, "s": 1}),
        "classic_chain_rule_expansion": (8, 0, None),
    }.items():
        monkeypatch.setattr(verification, "SUITES", tuple(e for e in suites if e[0] == key))
        (result,) = verification.run_all(max_n=7, max_s=3, seed=0, trials=50)["identities"]
        assert (result["instances"], result["failures"], result["counterexample"]) == expected


def _without_3_2(real, n, **kwargs):
    return (lam for lam in real(n, **kwargs) if lam.parts != (3, 2))


def _touchard_3_x_one_too_high(real, n):
    return tuple(c + (n == 3 and k == 1) for k, c in enumerate(real(n)))


def _faa_di_bruno_one_too_high_at_2_1(real, lam):
    return real(lam) + (lam.parts == (2, 1))


def _c_coeff_one_too_high_at(r, s):
    # C((2, 1), r, s) one too high, every other coefficient as it is
    def fault(real, lam, r_, s_):
        return real(lam, r_, s_) + (lam.parts == (2, 1) and (r_, s_) == (r, s))

    return fault


def _stirling_convolution_one_too_high_at_3_2_1(real, n, k, r):
    return real(n, k, r) + ((n, k, r) == (3, 2, 1))


def _union_drops_a_part_of_2_and_1(real, mu, nu):
    both = real(mu, nu)
    return partitions.Partition(both.parts[1:]) if (mu.parts, nu.parts) == ((2,), (1,)) else both


def _truncation_keeps_the_1_of_3_1_above_1(real, lam, s):
    return lam if (lam.parts, s) == ((3, 1), 1) else real(lam, s)


def _bell_times_y1_at_3_2_1_1(real, n, k, r, s, cap):
    # one degree too many on every term of B~(3, 2, 1, 1)
    poly = real(n, k, r, s, cap=cap)
    return poly * bell.YPolynomial.variable(1) if (n, k, r, s) == (3, 2, 1, 1) else poly


def _modified_stirling_one_too_high_at_4_2_1(real, n, k, r, cap=DEFAULT_WEIGHT_CAP):
    return real(n, k, r, cap=cap) + ((n, k, r) == (4, 2, 1))


def _first_term_one_too_high_when(point):
    # the polynomial's first monomial, in terms() order, one too high where
    # point(*args) holds, every other result as it is
    def fault(real, *args, **kwargs):
        poly = real(*args, **kwargs)
        if not point(*args):
            return poly
        (mono, _coeff), *_rest = poly.terms()
        return poly + type(poly)({mono: 1})

    return fault


def _first_f_order_one_too_high_at_2_1(real, n, s, cap=DEFAULT_WEIGHT_CAP):
    # the first monomial of the (2, 1) expansion, in terms() order, one F order too high
    poly = real(n, s, cap=cap)
    if (n, s) != (2, 1):
        return poly
    (mono, coeff), *rest = poly.terms()
    return diffalg.DiffPolynomial([(mono._replace(f_order=mono.f_order + 1), coeff), *rest])


def _first_derivation_drops_its_first_term():
    # wrong on the arguments of the first call it sees, whatever they are, so a
    # rerun of the seeded suite meets the same fault on the same call
    first = []

    def fault(real, *args):
        out = real(*args)
        if not first:
            first.append(args)
        return diffalg.DiffPolynomial(out.terms()[1:]) if args == first[0] else out

    return fault


# suite key -> (module or class, name, a single-point fault in that function,
# the suite's (instances, failures, counterexample) at (7, 3), trials 50, seed 0)
SINGLE_FAULTS = {
    "partition_count_matches_dp": (
        verification,
        "enumerate_partitions",
        _without_3_2,
        (15, 1, {"n": 5, "enumerated": 6, "expected": 7}),
    ),
    "touchard_binomial_type": (bell, "touchard", _touchard_3_x_one_too_high, (8, 4, {"n": 4})),
    "classic_chain_rule_expansion": (
        diffalg,
        "faa_di_bruno_coeff",
        _faa_di_bruno_one_too_high_at_2_1,
        (8, 1, {"n": 3}),
    ),
    "binomial_specialization_s0": (
        verification,
        "c_coeff",
        _c_coeff_one_too_high_at(1, 0),
        (176, 1, {"lam": [2, 1], "r": 1}),
    ),
    "coefficient_r0_reduction": (
        verification,
        "c_coeff",
        _c_coeff_one_too_high_at(0, 2),
        (180, 1, {"lam": [2, 1], "s": 2}),
    ),
    "stirling_convolution_corrected": (
        bell,
        "stirling_convolution",
        _stirling_convolution_one_too_high_at_3_2_1,
        (120, 1, {"n": 3, "k": 2, "r": 1}),
    ),
    "derivative_oracle_matches_formula": (
        diffalg,
        "formula_expansion",
        _first_term_one_too_high_when(lambda n, s: (n, s) == (2, 1)),
        (32, 1, {"n": 2, "s": 1}),
    ),
    "random_polynomial_instances": (
        polynomials,
        "formula_expansion",
        _first_term_one_too_high_when(lambda n, s: (n, s) == (2, 1)),
        (
            1050,
            25,
            {
                "trial": 0,
                "n": 2,
                "s": 1,
                "f": ["2", "-3", "2/5", "1/8"],
                "g": ["-1/9", "-8/5", "-2", "-7/6"],
                "phi": ["-4/5", "4/7"],
            },
        ),
    ),
    "product_rule_expansion": (
        diffalg,
        "leibniz_product_expansion",
        _first_term_one_too_high_when(lambda n: n == 2),
        (8, 1, {"n": 2}),
    ),
    "psi_substitution_bridge": (
        diffalg,
        "substitute_psi",
        _first_term_one_too_high_when(
            lambda poly, s: s == 1 and poly == diffalg.leibniz_product_expansion(2)
        ),
        (32, 1, {"n": 2, "s": 1}),
    ),
    "partition_union_shift_parameters": (
        partitions.Partition,
        "union",
        _union_drops_a_part_of_2_and_1,
        (429, 1, {"mu": [2], "nu": [1]}),
    ),
    "truncation_shift_fixed_points": (
        partitions.Partition,
        "truncate_above",
        _truncation_keeps_the_1_of_3_1_above_1,
        (180, 1, {"partition": [3, 1], "s": 1}),
    ),
    "bell_homogeneity": (
        bell,
        "modified_partial_bell",
        _bell_times_y1_at_3_2_1_1,
        (873, 2, {"n": 3, "k": 2, "r": 1, "s": 1}),
    ),
    "stirling_recurrence_corrected": (
        bell,
        "modified_stirling",
        _modified_stirling_one_too_high_at_4_2_1,
        (112, 7, {"n": 3, "k": 1, "r": 1}),
    ),
    "bell_product_form": (
        bell,
        "product_form_partial",
        _first_term_one_too_high_when(lambda n, k, r, s: (n, k, r, s) == (3, 2, 1, 1)),
        (512, 1, {"n": 3, "k": 2, "r": 1, "s": 1}),
    ),
    "bell_recurrence_in_variables": (
        bell,
        "modified_partial_bell",
        _first_term_one_too_high_when(lambda n, k, r, s: (n, k, r, s) == (3, 2, 1, 1)),
        (448, 9, {"n": 2, "k": 1, "r": 1, "s": 1}),
    ),
    "expansion_weighted_degree_law": (
        diffalg,
        "formula_expansion",
        _first_f_order_one_too_high_at_2_1,
        (
            873,
            1,
            {
                "n": 2,
                "s": 1,
                "monomial": "DiffMonomial(f_order=3, g_order=0, y=((1, 2),), z=())",
            },
        ),
    ),
    "derivation_leibniz_rule": (
        diffalg,
        "derive",
        _first_derivation_drops_its_first_term(),
        (55, 1, {"p": "-2·φ''' + 2·φ''^2·ψ'", "q": "-1·φ''' + 3·φ'·φ''^2 + -1·1"}),
    ),
}

# suites shown to fail by a named test of this file rather than a SINGLE_FAULTS row
NAMED_FAULT_TESTS = {
    "partition_modification_parameters": test_a_wrong_modification_fails_both_suites_that_read_it,
    "coefficient_recurrence_matches_closed_form": (
        test_a_wrong_modification_fails_both_suites_that_read_it
    ),
    "newton_identity_residual_zero": test_newton_suite_reports_a_wrong_residual,
    "elementary_subtract_transform": test_subtract_transform_suite_reports_a_wrong_vector,
    "elementary_subpartition_sum": test_a_wrong_subpartition_sum_fails_the_plain_suite_alone,
    "elementary_shifted_subpartition_sum": test_a_wrong_shifted_weight_fails_the_shifted_suite,
    "coefficient_integrality": test_unbuildable_table_is_one_failing_instance,
    "modified_stirling_s_independent": test_a_wrong_modified_stirling_number_fails_s_independence,
    "modified_stirling_base_row": (
        test_stirling_suites_compare_with_the_definition_not_the_closed_form
    ),
    "stirling_row_sum_doubling": (
        test_stirling_suites_compare_with_the_definition_not_the_closed_form
    ),
}


@pytest.mark.parametrize("key", sorted(SINGLE_FAULTS))
def test_a_single_fault_fails_the_suite_that_checks_it(monkeypatch, key):
    module, name, fault, expected = SINGLE_FAULTS[key]
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: fault(real, *args, **kwargs))
    only_suite(monkeypatch, key)
    report = verification.run_all(max_n=7, max_s=3, seed=0, trials=50)
    (result,) = report["identities"]
    assert (result["instances"], result["failures"], result["counterexample"]) == expected
    assert result["passed"] is False and report["passed"] is False


def test_every_suite_that_can_fail_has_a_fault_that_fails_it():
    # a new suite cannot land without a row above or a named fault test; the two
    # informational suites keep their pinned counterexamples instead
    checked = {key for key, _statement, _runner, info in verification.SUITES if not info}
    assert len(checked) == 28
    assert checked == set(SINGLE_FAULTS) | set(NAMED_FAULT_TESTS)
