"""The public names of the `faadibruno` package, pinned so that any change is deliberate."""

import types

import faadibruno

PUBLIC_NAMES = {
    "CapExceeded",
    "CoefficientTable",
    "CrossCheckError",
    "DEFAULT_WEIGHT_CAP",
    "DiffMonomial",
    "DiffPolynomial",
    "ElementaryVector",
    "IntegralityError",
    "Partition",
    "RationalPolynomial",
    "RecurrenceEvaluator",
    "StirlingTable",
    "YPolynomial",
    "c_coeff",
    "c_coeff_by_recurrence",
    "check_main_theorem",
    "coefficient_table",
    "complete_bell",
    "derive",
    "elementary_by_subpartitions",
    "elementary_moments",
    "enumerate_constrained",
    "enumerate_partitions",
    "faa_di_bruno_coeff",
    "faa_expansion",
    "formula_expansion",
    "leibniz_product_expansion",
    "modified_complete_bell",
    "modified_partial_bell",
    "modified_stirling",
    "monomial",
    "newton_residual",
    "nth_derivative_expansion",
    "partial_bell",
    "power_sum",
    "product_form_complete",
    "product_form_partial",
    "random_polynomial",
    "run_random_checks",
    "run_verification",
    "stirling2",
    "stirling_convolution",
    "substitute_psi",
    "subtract_transform",
    "touchard",
}


def test_public_names_are_pinned():
    # submodules become package attributes once imported, so they are not counted
    exported = {
        name
        for name, obj in vars(faadibruno).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
