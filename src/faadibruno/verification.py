"""Executable identity suites behind the `verify` subcommand.

Each suite re-derives one identity from scratch at the requested bounds and
reports instance/failure counts plus the first counterexample found.  Two
suites are marked informational: they evaluate superficially natural variants
of true identities (one missing a binomial weight, one missing an index
shift) that are genuinely false, and exist to document the counterexamples.
Informational failures never affect the exit status.

A suite is a private generator declared with the ``_suite(key, statement,
informational)`` decorator.  It takes ``(max_n, max_s, rng, trials, cap)``
and yields exactly one item per checked instance: ``None`` when the identity
holds there, or a witness dict when it fails.  One runner counts the items
and the failures and keeps the first witness; any exception but CapExceeded,
MemoryError or RecursionError that ends a suite is one more failing instance,
witnessed as ``{"error": "Type: message"}``.  ``SUITES`` holds the
``(key, statement, runner, informational)`` tuples in declaration order,
which is the order of the report.

A suite may keep an operand it would rebuild for many of its instances (one
elementary vector per multiset, one expansion per n), but only in locals of
one call: nothing is shared between suites or between runs.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product
from math import comb, perm, prod

from . import bell, diffalg, polynomials, symfunc
from .coefficients import (
    IntegralityError,
    RecurrenceEvaluator,
    c_coeff,
    coefficient_table,
    faa_di_bruno_coeff,
)
from .partitions import (
    DEFAULT_WEIGHT_CAP,
    CapExceeded,
    Partition,
    enumerate_partitions,
    modifications,
    partition_count_dp,
)
from .sparse import _accumulate


def _all_partitions_upto(n_max: int) -> list[Partition]:
    return [lam for n in range(n_max + 1) for lam in enumerate_partitions(n)]


def _multisets(card_max: int, entry_max: int):
    for card in range(card_max + 1):
        for combo in combinations_with_replacement(range(1, entry_max + 1), card):
            yield combo[::-1]


def _triangle(n_stop: int, r_extra: int = 0):
    """(n, k, r) for 0 <= k <= n < n_stop and 0 <= r <= k + r_extra, by n, then k, then r."""
    for n in range(n_stop):
        for k in range(n + 1):
            for r in range(k + r_extra + 1):
                yield n, k, r


# ---------------------------------------------------------------------------
# the registry and the runner
# ---------------------------------------------------------------------------

_REGISTRY: list[tuple] = []


def _suite(key: str, statement: str, informational: bool = False):
    """Register the decorated per-instance check as the next `verify` suite."""

    def register(check):
        def runner(max_n: int, max_s: int, rng, trials: int, cap: int):
            instances = failures = 0
            witness = None
            try:
                for item in check(max_n, max_s, rng, trials, cap):
                    instances += 1
                    if item is not None:
                        failures += 1
                        witness = witness or item
            except (CapExceeded, MemoryError, RecursionError):
                raise  # a usage or resource error, not a falsified identity
            except Exception as exc:  # a fault in the checked code: one failing instance
                instances += 1
                failures += 1
                witness = witness or {"error": f"{type(exc).__name__}: {exc}"}
            return instances, failures, witness

        _REGISTRY.append((key, statement, runner, informational))
        return check

    return register


# ---------------------------------------------------------------------------
# the suites, in report order: each yields None or a witness per instance
# ---------------------------------------------------------------------------


@_suite(
    "partition_count_matches_dp",
    "enumeration of partitions of n agrees with the generating-function count, "
    "with no duplicates and correct weights",
)
def _check_partition_counts(max_n, max_s, rng, trials, cap):
    bound = min(2 * max_n, 30)
    dp = partition_count_dp(bound)
    for n in range(bound + 1):
        seen = list(enumerate_partitions(n))
        ok = (
            len(seen) == dp[n]
            and len(set(seen)) == len(seen)
            and all(lam.weight == n for lam in seen)
        )
        yield None if ok else {"n": n, "enumerated": len(seen), "expected": dp[n]}


@_suite(
    "partition_modification_parameters",
    "removing or decrementing a part changes weight, length, and multiplicities "
    "by the expected deltas",
)
def _check_partition_modifications(max_n, max_s, rng, trials, cap):
    for lam in _all_partitions_upto(max_n):
        for j, m, removed_parts, lowered_parts in modifications(lam.parts):
            # descending as built: the recurrence keys its memo on the raw tuples
            removed, lowered = Partition(removed_parts), Partition(lowered_parts)
            ok = (
                m == lam.multiplicity(j)
                and (removed.parts, lowered.parts) == (removed_parts, lowered_parts)
                and removed.weight == lam.weight - j
                and removed.length == lam.length - 1
                and all(
                    removed.multiplicity(i) == lam.multiplicity(i) - (1 if i == j else 0)
                    for i in range(1, lam.weight + 2)
                )
                and lowered.weight == lam.weight - 1
                and lowered.length == lam.length - (1 if j == 1 else 0)
                and all(
                    lowered.multiplicity(i)
                    == lam.multiplicity(i)
                    + (1 if (i == j - 1 and i >= 1) else 0)
                    - (1 if i == j else 0)
                    for i in range(1, lam.weight + 2)
                )
            )
            if j == 1:
                ok = ok and lowered == removed
            yield None if ok else {"partition": list(lam.parts), "j": j}


@_suite(
    "partition_union_shift_parameters",
    "union adds multiplicities pointwise; shifting all parts up by s preserves "
    "length and adds s*length to the weight",
)
def _check_union_shift(max_n, max_s, rng, trials, cap):
    pool = _all_partitions_upto(max_n)
    for mu in pool:
        for nu in pool:
            if mu.weight + nu.weight > max_n:
                continue
            both = mu.union(nu)
            ok = (
                both.weight == mu.weight + nu.weight
                and both.length == mu.length + nu.length
                and all(
                    both.multiplicity(i) == mu.multiplicity(i) + nu.multiplicity(i)
                    for i in range(1, max_n + 2)
                )
            )
            yield None if ok else {"mu": list(mu.parts), "nu": list(nu.parts)}
    for mu in pool:
        for s in range(max_s + 1):
            shifted = mu.shift_up(s)
            ok = (
                shifted.length == mu.length
                and shifted.weight == mu.weight + s * mu.length
                and all(
                    shifted.multiplicity(i + s) == mu.multiplicity(i)
                    for i in range(1, max_n + 2)
                )
                and all(shifted.multiplicity(i) == 0 for i in range(1, s + 1))
            )
            yield None if ok else {"mu": list(mu.parts), "s": s}


@_suite(
    "truncation_shift_fixed_points",
    "a partition is fixed by truncation above s exactly when it has no part <= s, "
    "and shifting up by s always lands on such a fixed point, invertibly",
)
def _check_truncation_fixed_points(max_n, max_s, rng, trials, cap):
    for lam in _all_partitions_upto(max_n):
        for s in range(max_s + 1):
            fixed = lam.truncate_above(s) == lam
            expected = all(i > s for i, _ in lam.items())
            ok = fixed == expected
            shifted = lam.shift_up(s)
            ok = ok and shifted.truncate_above(s) == shifted
            if expected:
                # shift-down inverts shift-up exactly on truncation-fixed partitions
                down = Partition([a - s for a in lam.parts])
                ok = ok and down.shift_up(s) == lam
            yield None if ok else {"partition": list(lam.parts), "s": s}


@_suite(
    "newton_identity_residual_zero",
    "the alternating power-sum / elementary-function convolution equals r * e_r",
)
def _check_newton_residual(max_n, max_s, rng, trials, cap):
    card_max = min(max_n, 6)
    for b in _multisets(card_max, 8):
        for r, residual in enumerate(symfunc.newton_residuals(b, card_max), 1):
            yield None if residual == 0 else {"multiset": list(b), "r": r}


@_suite(
    "elementary_subtract_transform",
    "the elementary vector after replacing one element b by b - c matches the "
    "series correction computed from the original vector",
)
def _check_subtract_transform(max_n, max_s, rng, trials, cap):
    rests = {}  # rest -> (e(rest), its (e_r, e_{r-1}) pairs); r_max is len(rest) + 1
    for b in _multisets(min(max_n, 6), 8):
        r_max = len(b)
        if not r_max:
            continue
        e = symfunc.elementary_moments(b, r_max)
        for value in sorted(set(b)):
            i = b.index(value)
            rest = b[:i] + b[i + 1 :]
            if rest not in rests:
                e_rest = symfunc.elementary_moments(rest, r_max)
                rests[rest] = e_rest, tuple(zip(e_rest, (0,) + e_rest))
            e_rest, pairs = rests[rest]
            # e(rest + (x,)) is e(rest) times the one factor (1 + x X)
            ok = symfunc.subtract_transform(e, value, value) == e_rest and all(
                symfunc.subtract_transform(e, value, c)
                == tuple([hi + (value - c) * lo for hi, lo in pairs])
                for c in (0, 1, value // 2)
            )
            yield None if ok else {"multiset": list(b), "value": value}


@_suite(
    "elementary_subpartition_sum",
    "e_r of the falling-factorial image equals the binomial-weighted sum over "
    "sub-partitions of length r",
)
def _check_subpartition_sum(max_n, max_s, rng, trials, cap):
    for eta in _all_partitions_upto(max_n):
        for s in range(max_s + 1):
            if s >= 1 and any(i <= s for i, _ in eta.items()):
                continue
            vector = symfunc.elementary_moments(eta.pochhammer(s), eta.length + 1)
            for r in range(eta.length + 2):
                ok = symfunc.elementary_by_subpartitions(eta, s, r) == vector[r]
                yield None if ok else {"eta": list(eta.parts), "s": s, "r": r}


@_suite(
    "elementary_shifted_subpartition_sum",
    "the same sub-partition sum rewritten over shifted-down partitions "
    "reproduces e_r of the truncated falling-factorial image",
)
def _check_shifted_subpartition_sum(max_n, max_s, rng, trials, cap):
    # sums[r]: over the sub-partitions mu of length r of nu = (lam_i - s : lam_i > s),
    # the sum of prod_j binom(m_j(nu), m_j(mu)) * ((j + s)! / j!)^(m_j(mu))
    for lam in _all_partitions_upto(max_n):
        for s in range(max_s + 1):
            trunc = lam.truncate_above(s)
            vector = symfunc.elementary_moments(trunc.pochhammer(s), trunc.length + 1)
            nu = Partition(a - s for a in trunc.parts).items()
            sums = [0] * (trunc.length + 2)
            for mu in product(*(range(m + 1) for _, m in nu)):
                sums[sum(mu)] += prod(comb(m, c) * perm(j + s, s) ** c for (j, m), c in zip(nu, mu))
            for r in range(trunc.length + 2):
                ok = sums[r] == vector[r]
                yield None if ok else {"lam": list(lam.parts), "s": s, "r": r}


@_suite(
    "binomial_specialization_s0",
    "at s = 0 the generalized coefficient factors as binom(length, r) times the "
    "classical chain-rule coefficient",
)
def _check_binomial_specialization(max_n, max_s, rng, trials, cap):
    for lam in _all_partitions_upto(max_n):
        base = faa_di_bruno_coeff(lam)
        for r in range(lam.length + 1):
            ok = c_coeff(lam, r, 0) == comb(lam.length, r) * base
            yield None if ok else {"lam": list(lam.parts), "r": r}


@_suite(
    "coefficient_r0_reduction",
    "at r = 0 the generalized coefficient equals the classical chain-rule "
    "coefficient for every shift s",
)
def _check_r0_reduction(max_n, max_s, rng, trials, cap):
    for lam in _all_partitions_upto(max_n):
        base = faa_di_bruno_coeff(lam)
        for s in range(max_s + 1):
            ok = c_coeff(lam, 0, s) == base
            yield None if ok else {"lam": list(lam.parts), "s": s}


@_suite(
    "coefficient_integrality",
    "every table coefficient reduces to a positive integer",
)
def _check_integrality(max_n, max_s, rng, trials, cap):
    for s in range(max_s + 1):
        for n in range(max_n + 1):
            try:
                # built whole: a table that cannot be built is one failing instance
                table = tuple(coefficient_table(n, s, cap=cap))
            except IntegralityError as exc:
                yield {"n": n, "s": s, "error": str(exc)}
                continue
            for r, lam, c in table:
                ok = isinstance(c, int) and c > 0
                yield None if ok else {"n": n, "s": s, "r": r, "lam": list(lam.parts)}


@_suite(
    "coefficient_recurrence_matches_closed_form",
    "the modification recurrence reproduces the closed-form coefficient on every "
    "table entry (r = 0 slice included)",
)
def _check_recurrence(max_n, max_s, rng, trials, cap):
    for s in range(max_s + 1):
        evaluator = RecurrenceEvaluator(s)
        for n in range(max_n + 1):
            for r, lam, c in coefficient_table(n, s, cap=cap):
                ok = evaluator.value(lam, r) == c
                yield None if ok else {"n": n, "s": s, "r": r, "lam": list(lam.parts)}


@_suite(
    "derivative_oracle_matches_formula",
    "the n-fold symbolic derivative of F0*G0 equals the assembled closed-formula "
    "expansion, exactly, term by term",
)
def _check_oracle_vs_formula(max_n, max_s, rng, trials, cap):
    for s in range(max_s + 1):
        for n, chain in enumerate(diffalg.derivative_chain(max_n, "composed", s)):
            ok = diffalg.formula_expansion(n, s, cap=cap) == chain
            yield None if ok else {"n": n, "s": s}


@_suite(
    "classic_chain_rule_expansion",
    "with g held constant the expansion degenerates to the classical chain-rule "
    "formula",
)
def _check_chain_rule(max_n, max_s, rng, trials, cap):
    for n, chain in enumerate(diffalg.derivative_chain(max_n, "constant_g")):
        yield None if diffalg.faa_expansion(n, cap=cap) == chain else {"n": n}


@_suite(
    "product_rule_expansion",
    "the closed form for the n-th derivative of (f o phi)*(g o psi) with "
    "independent psi matches the symbolic oracle",
)
def _check_product_rule(max_n, max_s, rng, trials, cap):
    for n, chain in enumerate(diffalg.derivative_chain(max_n, "independent")):
        yield None if diffalg.leibniz_product_expansion(n, cap=cap) == chain else {"n": n}


@_suite(
    "psi_substitution_bridge",
    "substituting psi = phi^(s) into the independent-product expansion recovers "
    "the composed expansion",
)
def _check_psi_bridge(max_n, max_s, rng, trials, cap):
    products = {}  # n -> the independent-product expansion, built at its first s
    for s in range(max_s + 1):
        for n, chain in enumerate(diffalg.derivative_chain(max_n, "composed", s)):
            if n not in products:
                products[n] = diffalg.leibniz_product_expansion(n, cap=cap)
            bridged = diffalg.substitute_psi(products[n], s)
            yield None if bridged == chain else {"n": n, "s": s}


@_suite(
    "expansion_weighted_degree_law",
    "every expansion monomial satisfies the weighted-degree and order-count laws",
)
def _check_weighted_degree_law(max_n, max_s, rng, trials, cap):
    for s in range(max_s + 1):
        for n in range(max_n + 1):
            for mono, _c in diffalg.formula_expansion(n, s, cap=cap):
                y_weight = sum(i * e for i, e in mono.y)
                y_degree = sum(e for _, e in mono.y)
                ok = (
                    mono.f_order is not None
                    and mono.g_order is not None
                    and mono.f_order >= 0
                    and y_weight == n + mono.g_order * s
                    and y_degree == mono.f_order + mono.g_order
                )
                yield None if ok else {"n": n, "s": s, "monomial": repr(mono)}


def _random_variable_poly(rng: random.Random) -> diffalg.DiffPolynomial:
    terms = []
    for _ in range(rng.randint(1, 3)):
        y = {rng.randint(1, 3): rng.randint(1, 2) for _ in range(rng.randint(0, 2))}
        z = {rng.randint(1, 2): rng.randint(1, 2) for _ in range(rng.randint(0, 1))}
        terms.append((diffalg.monomial(None, None, y, z), rng.randint(-3, 3)))
    return diffalg.DiffPolynomial(terms)


@_suite(
    "derivation_leibniz_rule",
    "the derivation satisfies D(P*Q) = D(P)*Q + P*D(Q) on products it can form",
)
def _check_leibniz_property(max_n, max_s, rng, trials, cap):
    for _ in range(max(trials, 10)):
        p = _random_variable_poly(rng)
        q = _random_variable_poly(rng)
        lhs = diffalg.derive(p * q, "independent")
        rhs = diffalg.derive(p, "independent") * q + p * diffalg.derive(q, "independent")
        yield None if lhs == rhs else {"p": p.pretty(), "q": q.pretty()}
    # mixed case: one factor carrying the f and g symbols
    seed_poly = diffalg.nth_derivative_expansion(min(max_n, 2), 0, cap=cap)
    for _ in range(5):
        q = _random_variable_poly(rng)
        q = diffalg.DiffPolynomial({m: c for m, c in q if not m.z})
        lhs = diffalg.derive(seed_poly * q, "composed", 0)
        rhs = (
            diffalg.derive(seed_poly, "composed", 0) * q
            + seed_poly * diffalg.derive(q, "composed", 0)
        )
        yield None if lhs == rhs else {"q": q.pretty()}


@_suite(
    "random_polynomial_instances",
    "seeded random rational polynomial triples give exact equality of both sides "
    "for all checked (n, s)",
)
def _check_random_polynomials(max_n, max_s, rng, trials, cap):
    yield from polynomials.random_instances(
        trials=trials,
        max_n=min(max_n, 6),
        max_s=min(max_s, 2),
        seed=rng.randint(0, 2**31),
        cap=cap,
    )


@_suite(
    "bell_product_form",
    "the modified Bell polynomials equal the binomial convolution of classical "
    "Bell polynomials with shifted variables (partial and complete forms)",
)
def _check_bell_product_form(max_n, max_s, rng, trials, cap):
    for s in range(max_s + 1):
        for n, k, r in _triangle(max_n + 1):
            direct = bell.modified_partial_bell(n, k, r, s, cap=cap)
            convolved = bell.product_form_partial(n, k, r, s, cap=cap)
            yield None if direct == convolved else {"n": n, "k": k, "r": r, "s": s}
        for n in range(max_n + 1):
            ok = bell.modified_complete_bell(n, s, cap=cap) == bell.product_form_complete(
                n, s, cap=cap
            )
            yield None if ok else {"n": n, "s": s, "case": "complete"}


@_suite(
    "bell_homogeneity",
    "every term of a modified partial Bell polynomial has degree k, weighted "
    "degree n + r*s, and avoids the excluded variable window",
)
def _check_bell_homogeneity(max_n, max_s, rng, trials, cap):
    for s in range(max_s + 1):
        for n, k, r in _triangle(max_n + 1):
            poly = bell.modified_partial_bell(n, k, r, s, cap=cap)
            for exps, _c in poly:
                ok = (
                    bell.term_degree(exps) == k
                    and bell.term_weighted_degree(exps) == n + r * s
                    and not any(n + 1 - k < i <= s for i, _ in exps)
                )
                yield None if ok else {"n": n, "k": k, "r": r, "s": s}


@_suite(
    "bell_recurrence_in_variables",
    "the two-sum recurrence in the y variables produces the next modified "
    "partial Bell polynomial",
)
def _check_bell_recurrence(max_n, max_s, rng, trials, cap):
    for s in range(max_s + 1):
        for n, k, r in _triangle(max_n, 1):
            lhs = bell.modified_partial_bell(n + 1, k + 1, r, s, cap=cap)
            # the sum over l of binom(n, l) * (y_{l+1} B(n-l, k, r) + y_{l+s+1} B(n-l, k, r-1))
            rhs = bell.YPolynomial(
                (exps, comb(n, l) * c)
                for l in range(n - k + 1)
                for index, r_in in ((l + 1, r), (l + s + 1, r - 1))
                for exps, c in bell.YPolynomial.variable(index)
                * bell.modified_partial_bell(n - l, k, r_in, s, cap=cap)
            )
            yield None if lhs == rhs else {"n": n, "k": k, "r": r, "s": s}


def _stirling_by_definition(n, k, r, cap):
    return bell.modified_partial_bell(n, k, r, 0, cap=cap).substitute_geometric().get((n, k), 0)


@_suite(
    "modified_stirling_s_independent",
    "the geometric substitution collapses every modified partial Bell polynomial "
    "to the same number regardless of s",
)
def _check_stirling_s_independent(max_n, max_s, rng, trials, cap):
    for n, k, r in _triangle(max_n + 1):
        expected = bell.modified_stirling(n, k, r)
        for s in range(max_s + 1):
            image = bell.modified_partial_bell(n, k, r, s, cap=cap).substitute_geometric()
            wanted = {(n + r * s, k): expected} if expected else {}
            yield None if image == wanted else {"n": n, "k": k, "r": r, "s": s}


@_suite(
    "modified_stirling_base_row",
    "at r = 0 the modified Stirling numbers are the classical Stirling numbers "
    "of the second kind",
)
def _check_stirling_base_row(max_n, max_s, rng, trials, cap):
    for n in range(max_n + 1):
        for k in range(n + 1):
            ok = _stirling_by_definition(n, k, 0, cap) == bell.stirling2(n, k)
            yield None if ok else {"n": n, "k": k}


@_suite(
    "stirling_convolution_corrected",
    "the binomially weighted Stirling convolution equals the definitional "
    "modified Stirling number",
)
def _check_stirling_convolution(max_n, max_s, rng, trials, cap):
    for n, k, r in _triangle(max_n + 1):
        ok = bell.stirling_convolution(n, k, r) == _stirling_by_definition(n, k, r, cap)
        yield None if ok else {"n": n, "k": k, "r": r}


@_suite(
    "stirling_convolution_unweighted",
    "counterexample record: the convolution without the binomial weight does NOT "
    "equal the definitional value",
    informational=True,
)
def _check_stirling_convolution_unweighted(max_n, max_s, rng, trials, cap):
    # deliberately checks the variant WITHOUT the binomial weight; it is false
    for n, k, r in _triangle(max_n + 1):
        unweighted = sum(
            bell.stirling2(n - p, k - r) * bell.stirling2(p, r)
            for p in range(r, n - k + r + 1)
        )
        definitional = _stirling_by_definition(n, k, r, cap)
        yield None if unweighted == definitional else {
            "n": n,
            "k": k,
            "r": r,
            "unweighted_value": unweighted,
            "definition_value": definitional,
        }


@_suite(
    "stirling_row_sum_doubling",
    "summing the modified Stirling numbers over r doubles k times the classical "
    "value: sum_r = 2^k S(n, k)",
)
def _check_stirling_row_sum(max_n, max_s, rng, trials, cap):
    for n in range(max_n + 1):
        for k in range(n + 1):
            row = sum(_stirling_by_definition(n, k, r, cap) for r in range(k + 1))
            yield None if row == 2**k * bell.stirling2(n, k) else {"n": n, "k": k}


@_suite(
    "stirling_recurrence_corrected",
    "the index-shifted two-term recurrence produces the next modified Stirling "
    "number",
)
def _check_stirling_recurrence(max_n, max_s, rng, trials, cap):
    for n, k, r in _triangle(max_n, 1):
        lhs = bell.modified_stirling(n + 1, k + 1, r)
        rhs = sum(
            comb(n, l)
            * (bell.modified_stirling(n - l, k, r) + bell.modified_stirling(n - l, k, r - 1))
            for l in range(n - k + 1)
        )
        yield None if lhs == rhs else {"n": n, "k": k, "r": r}


@_suite(
    "stirling_recurrence_unshifted",
    "counterexample record: the recurrence variant whose summand ignores the "
    "summation index does NOT hold",
    informational=True,
)
def _check_stirling_recurrence_unshifted(max_n, max_s, rng, trials, cap):
    # deliberately checks the variant whose summand ignores l; it is false
    for n, k, r in _triangle(max_n, 1):
        lhs = bell.modified_stirling(n + 1, k + 1, r)
        rhs = sum(
            comb(n, l)
            * (bell.modified_stirling(n, k, r) + bell.modified_stirling(n, k, r - 1))
            for l in range(n - k + 1)
        )
        yield None if lhs == rhs else {
            "n": n,
            "k": k,
            "r": r,
            "unshifted_value": rhs,
            "definition_value": lhs,
        }


def _expand_touchard_sum(n: int) -> dict[tuple[int, int], int]:
    # T_n(x + y) expanded into monomials x^i y^j
    out: dict[tuple[int, int], int] = {}
    for k, coeff in enumerate(bell.touchard(n)):
        for i in range(k + 1):
            _accumulate(out, (i, k - i), coeff * comb(k, i))
    return out


@_suite(
    "touchard_binomial_type",
    "the binomial convolution of Touchard polynomials in x and y equals the "
    "Touchard polynomial of x + y",
)
def _check_touchard_binomial_type(max_n, max_s, rng, trials, cap):
    for n in range(max_n + 1):
        convolved: dict[tuple[int, int], int] = {}
        for p in range(n + 1):
            left = bell.touchard(n - p)
            right = bell.touchard(p)
            for i, ci in enumerate(left):
                for j, cj in enumerate(right):
                    _accumulate(convolved, (i, j), comb(n, p) * ci * cj)
        yield None if convolved == _expand_touchard_sum(n) else {"n": n}


SUITES = tuple(_REGISTRY)


def run_all(
    max_n: int,
    max_s: int,
    seed: int = 0,
    trials: int = 20,
    cap: int = DEFAULT_WEIGHT_CAP,
) -> dict:
    """Run every identity suite at the given bounds and assemble the report."""
    if max_n < 0 or max_s < 0:
        raise ValueError("bounds must be non-negative")
    results = []
    for key, statement, runner, informational in SUITES:
        rng = random.Random(f"{seed}:{key}")
        instances, failures, witness = runner(max_n, max_s, rng, trials, cap)
        results.append(
            {
                "key": key,
                "statement": statement,
                "instances": instances,
                "failures": failures,
                "passed": failures == 0,
                "informational": informational,
                "counterexample": witness,
            }
        )
    return {
        "config": {
            "max_n": max_n,
            "max_s": max_s,
            "seed": seed,
            "trials": trials,
            "cap": cap,
        },
        "identities": results,
        "passed": all(result["passed"] or result["informational"] for result in results),
    }
