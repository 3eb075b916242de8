"""Acceptance suite: every criterion checked exactly, at its stated bounds.

All arithmetic is integer or rational, so every comparison is exact (zero
tolerance).  Each test prints one PASS line on success; run with ``pytest -s``
to see them.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial
from pathlib import Path

from faadibruno.bell import (
    modified_complete_bell,
    modified_partial_bell,
    modified_stirling,
    product_form_complete,
    product_form_partial,
    stirling2,
    stirling_convolution,
    touchard,
)
from faadibruno.coefficients import RecurrenceEvaluator, c_coeff, coefficient_table
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
from faadibruno.partitions import enumerate_partitions
from faadibruno.polynomials import RationalPolynomial, check_main_theorem, random_instances
from faadibruno.symfunc import (
    elementary_by_subpartitions,
    elementary_moments,
    newton_residuals,
    subtract_transform,
)
from faadibruno.verification import run_all

from helpers import remove_one, shifted_subpartition_sum

SEED_MONO = DiffMonomial(0, 0, (), ())


def report(number, text):
    print(f"ACCEPTANCE {number:>2}: {text} ... PASS")


def test_criterion_01_oracle_equality():
    checked = 0
    for s in range(4):
        for n in range(9):
            assert formula_expansion(n, s) == nth_derivative_expansion(n, s), (n, s)
            checked += 1
    assert checked == 36
    report(1, "closed formula == n-fold symbolic derivative, 0<=n<=8, 0<=s<=3 (36 instances)")


def test_criterion_02_classical_chain_rule():
    chain = DiffPolynomial.term(SEED_MONO)
    for n in range(11):
        assert faa_expansion(n) == chain, n
        chain = derive(chain, "constant_g")
    quartic = faa_expansion(4)
    assert quartic.coefficient(monomial(2, 0, {2: 2})) == 3
    assert quartic.coefficient(monomial(2, 0, {1: 1, 3: 1})) == 4
    report(2, "classical chain rule == constant-g oracle, n<=10; spot terms 3y2^2 + 4y1y3")


def test_criterion_03_recurrence_equals_closed_form():
    checked = 0
    for s in range(4):
        evaluator = RecurrenceEvaluator(s)
        for n in range(10):
            for r, lam, c in coefficient_table(n, s):
                assert evaluator.value(lam, r) == c, (n, s, r, lam)
                checked += 1
                if r == 0:
                    assert evaluator.value(lam, 0) == c
    assert checked > 0
    report(3, f"recurrence == closed form on every table entry, n<=9, s<=3 ({checked} entries)")


def test_criterion_04_integrality():
    checked = 0
    for s in range(5):
        for n in range(11):
            for r, lam, c in coefficient_table(n, s):
                num = factorial(n) * elementary_moments(
                    lam.truncate_above(s).pochhammer(s), r
                )[r]
                den = 1
                for i, m in lam.items():
                    den *= factorial(i) ** m * factorial(m)
                value = Fraction(num, den)
                assert value.denominator == 1 and value > 0 and value == c
                checked += 1
    report(4, f"all coefficients for n<=10, s<=4 reduce to positive integers ({checked} entries)")


def test_criterion_05_symmetric_function_identities():
    checked = 0
    for card in range(9):
        for combo in combinations_with_replacement(range(1, 13), card):
            b = combo[::-1]
            for r, residual in enumerate(newton_residuals(b, 8), 1):
                assert residual == 0, (combo, r)
                checked += 1
            e = elementary_moments(b, card)
            for value in sorted(set(combo)):
                assert subtract_transform(e, value, value) == elementary_moments(
                    remove_one(b, value), card
                ), (combo, value)
                checked += 1
    report(5, f"Newton residual zero and subtract-transform consistency, "
              f"cardinality<=8, entries<=12 ({checked} checks)")


def test_criterion_06_subpartition_sums_and_binomial_specialization():
    for m in range(13):
        for eta in enumerate_partitions(m):
            for s in range(4):
                if s >= 1 and any(i <= s for i, _ in eta.items()):
                    continue
                vector = elementary_moments(eta.pochhammer(s), eta.length + 1)
                for r in range(eta.length + 2):
                    assert elementary_by_subpartitions(eta, s, r) == vector[r]
    # the same sums rewritten over shifted-down sub-partitions
    for m in range(13):
        for lam in enumerate_partitions(m):
            for s in range(4):
                trunc = lam.truncate_above(s)
                vector = elementary_moments(trunc.pochhammer(s), trunc.length + 1)
                for r in range(trunc.length + 2):
                    assert shifted_subpartition_sum(lam, s, r) == vector[r]
    # s = 0 specialization: binomial times the classical coefficient
    for n in range(11):
        for lam in enumerate_partitions(n):
            base = c_coeff(lam, 0, 0)
            for r in range(lam.length + 1):
                assert c_coeff(lam, r, 0) == comb(lam.length, r) * base
    report(6, "sub-partition sums == generating-function e_r (m<=12, s<=3); "
              "s=0 binomial specialization (n<=10)")


def test_criterion_07_product_rule_and_bridge():
    chain = DiffPolynomial.term(SEED_MONO)
    for n in range(8):
        assert leibniz_product_expansion(n) == chain, n
        chain = derive(chain, "independent")
    for s in range(4):
        for n in range(8):
            bridged = substitute_psi(leibniz_product_expansion(n), s)
            assert bridged == nth_derivative_expansion(n, s), (n, s)
    report(7, "independent-product expansion == oracle (n<=7); "
              "psi -> phi^(s) bridge == composed oracle (n<=7, s<=3)")


def test_criterion_08_concrete_polynomial_checks():
    hand = check_main_theorem(
        RationalPolynomial([0, 0, 1]),
        RationalPolynomial([0, 1]),
        RationalPolynomial([0, 0, 1]),
        2,
        1,
    )
    assert hand["equal"] and hand["lhs"] == ["0", "0", "0", "40"]
    items = list(random_instances(trials=200, max_n=6, max_s=2, seed=20240801))
    witnesses = [item for item in items if item is not None]
    assert not witnesses, witnesses[0]
    assert len(items) == 200 * 7 * 3
    report(8, f"hand case 40t^3 plus {len(items)} seeded random polynomial "
              "instances, all exactly equal")


def test_criterion_09_bell_stirling_suite():
    # product form of the modified Bell polynomials, partial and complete
    for s in range(4):
        for n in range(8):
            for k in range(n + 1):
                for r in range(k + 1):
                    assert product_form_partial(n, k, r, s) == modified_partial_bell(n, k, r, s)
            assert product_form_complete(n, s) == modified_complete_bell(n, s)
    # s-independence of the geometric substitution
    for n in range(8):
        for k in range(n + 1):
            for r in range(k + 1):
                expected = modified_stirling(n, k, r)
                for s in range(4):
                    image = modified_partial_bell(n, k, r, s).substitute_geometric()
                    assert image == ({(n + r * s, k): expected} if expected else {})
    # corrected convolution == definition, n <= 10
    for n in range(11):
        for k in range(n + 1):
            for r in range(k + 1):
                assert stirling_convolution(n, k, r) == modified_stirling(n, k, r)
    # corrected recurrence, n <= 9
    for n in range(10):
        for k in range(n + 1):
            for r in range(k + 2):
                lhs = modified_stirling(n + 1, k + 1, r)
                rhs = sum(
                    comb(n, l)
                    * (modified_stirling(n - l, k, r) + modified_stirling(n - l, k, r - 1))
                    for l in range(n - k + 1)
                )
                assert lhs == rhs
    # row sums double per block, n <= 10
    for n in range(11):
        for k in range(n + 1):
            assert sum(modified_stirling(n, k, r) for r in range(k + 1)) == 2**k * stirling2(n, k)
    # Touchard polynomials are of binomial type, n <= 8
    for n in range(9):
        convolved = {}
        for p in range(n + 1):
            for i, ci in enumerate(touchard(n - p)):
                for j, cj in enumerate(touchard(p)):
                    convolved[(i, j)] = convolved.get((i, j), 0) + comb(n, p) * ci * cj
        expanded = {}
        for k, coeff in enumerate(touchard(n)):
            for i in range(k + 1):
                expanded[(i, k - i)] = expanded.get((i, k - i), 0) + coeff * comb(k, i)
        convolved = {k: v for k, v in convolved.items() if v}
        expanded = {k: v for k, v in expanded.items() if v}
        assert convolved == expanded
    # the two documented non-identities, reproduced as informational counterexamples
    rep = run_all(max_n=4, max_s=1, seed=0, trials=2)
    info = {r["key"]: r for r in rep["identities"] if r["informational"]}
    conv = info["stirling_convolution_unweighted"]
    assert not conv["passed"]
    assert conv["counterexample"] == {
        "n": 2, "k": 2, "r": 1, "unweighted_value": 1, "definition_value": 2,
    }
    rec = info["stirling_recurrence_unshifted"]
    assert not rec["passed"] and rec["counterexample"] is not None
    assert rep["passed"]  # informational failures do not fail the run
    report(9, "modified Bell/Stirling identity suite (product form, s-independence, "
              "corrected convolution and recurrence, row sums, binomial type) plus "
              "both informational counterexamples")


def test_criterion_10_verify_determinism(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    out_a = tmp_path / "report_a.json"
    out_b = tmp_path / "report_b.json"
    args = [
        sys.executable, "-m", "faadibruno", "verify",
        "--max-n", "4", "--max-s", "2", "--trials", "10", "--seed", "7",
    ]
    first = subprocess.run([*args, "--out", str(out_a)], env=env, capture_output=True, text=True)
    second = subprocess.run([*args, "--out", str(out_b)], env=env, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert out_a.read_bytes() == out_b.read_bytes()
    parsed = json.loads(out_a.read_text(encoding="utf-8"))
    assert parsed["passed"] is True
    assert parsed["config"]["seed"] == 7
    report(10, "verify subcommand is byte-deterministic for identical flags and seed")
