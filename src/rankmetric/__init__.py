"""Rank-metric codes from twisted Gabidulin polynomial families.

Exact finite-field arithmetic, linearized polynomials with reduction
onto Moore-matrix transversals, m x n projections of (generalized,
twisted) Gabidulin codes, their middle and right nuclei computed both
by brute-force linear algebra and by closed forms, and exhaustive
automorphism-group checks at desk scale.

The names below are re-exported lazily (PEP 562): ``import rankmetric``
loads no submodule and no numpy; a name's submodule is imported when the
name is first read.
"""

import importlib

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "errors": (
        "AnsatzMismatchError", "DependentBasisError", "DependentSetError", "DimensionCollapseError",
        "EnumerationGuardError", "FieldTooLargeError", "GcdViolationError", "HypothesisNotMetError",
        "NonPrimeError", "NormConditionError", "NotADivisorError", "OneNotInSError",
        "ParamError", "RankMetricError", "ReducibleModulusError", "ShapeMismatchError",
        "SingularMatrixError", "SpecMismatchError",
    ),
    "gf": ("FieldSpec", "field_create"),
    "linpoly": (
        "LinearizedPoly", "SubspaceSpec", "lp_compose", "lp_eval", "matrix_to_poly", "poly_from_reduced",
        "poly_from_values", "poly_to_matrix", "reduce_mod_theta", "roots_in_subspace", "shift_support",
        "subspace_poly",
    ),
    "rankcode": (
        "CodeParams", "GtgGenerators", "RankCode", "adjoint", "apply_equivalence", "build_gtg", "is_mrd",
        "min_distance", "project_code", "rank_distance", "rank_weight_distribution",
    ),
    "nuclei": (
        "NucleusReport", "hypothesis_check", "largest_linearity_field", "middle_nucleus_bruteforce",
        "middle_report", "nucleus_field_structure", "predict_middle_nucleus", "predict_right_nucleus",
        "right_nucleus_bruteforce", "right_report", "smallest_containing_subfield",
    ),
    "autgroup": (
        "AutTriple", "ThetaSet", "aut_bruteforce", "aut_report", "check_monomial_form",
        "generate_known_automorphisms", "normalizer_elements", "theta_set",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
