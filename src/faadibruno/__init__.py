"""Exact calculus for higher-order derivatives of (f o phi) * (g o phi^(s)).

Partition-indexed coefficient formulas, a formal-symbol oracle and a concrete
rational-polynomial oracle to verify them against, and the Bell-polynomial /
Stirling-number objects the coefficients induce.  All arithmetic is exact.
"""

from .bell import (
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
    touchard,
)
from .coefficients import (
    CrossCheckError,
    IntegralityError,
    RecurrenceEvaluator,
    c_coeff,
    coefficient_table,
    faa_di_bruno_coeff,
)
from .diffalg import (
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
from .partitions import (
    DEFAULT_WEIGHT_CAP,
    CapExceeded,
    Partition,
    enumerate_constrained,
    enumerate_partitions,
)
from .polynomials import (
    RationalPolynomial,
    check_main_theorem,
    random_polynomial,
    run_random_checks,
)
from .symfunc import (
    elementary_by_subpartitions,
    elementary_moments,
    newton_residuals,
    subtract_transform,
)
from .verification import run_all as run_verification

__version__ = "0.1.0"
