"""Exact calculus for higher-order derivatives of (f o phi) * (g o phi^(s)).

Partition-indexed coefficient formulas, a formal-symbol oracle and a concrete
rational-polynomial oracle to verify them against, and the Bell-polynomial /
Stirling-number objects the coefficients induce.  All arithmetic is exact.

Importing the package loads none of its modules: each public name, and each
submodule, is imported on first use (PEP 562) and then kept here.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# defining module -> the public names it exports
_DEFINED_IN = {
    "bell": "YPolynomial complete_bell modified_complete_bell modified_partial_bell"
    " modified_stirling partial_bell product_form_complete product_form_partial stirling2"
    " stirling_convolution stirling_table touchard",
    "coefficients": "CrossCheckError IntegralityError RecurrenceEvaluator c_coeff"
    " coefficient_table faa_di_bruno_coeff",
    "diffalg": "DiffMonomial DiffPolynomial derive faa_expansion formula_expansion"
    " leibniz_product_expansion monomial nth_derivative_expansion substitute_psi",
    "partitions": "DEFAULT_WEIGHT_CAP CapExceeded Partition enumerate_constrained"
    " enumerate_partitions",
    "polynomials": "RationalPolynomial check_main_theorem random_instances random_polynomial",
    "symfunc": "elementary_by_subpartitions elementary_moments newton_residuals"
    " subtract_transform",
}
# public name -> its defining module, or module.name where it is defined under another name
_EXPORTS = {name: module for module, names in _DEFINED_IN.items() for name in names.split()}
_EXPORTS["run_verification"] = "verification.run_all"
_MODULES = {"cli", "sparse", "verification", *_DEFINED_IN}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        module, _, defined_as = _EXPORTS[name].partition(".")
        value = getattr(_import_module(f"{__name__}.{module}"), defined_as or name)
    elif name in _MODULES:
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
