"""Exact type-II / complex Hadamard matrices in a 3-class Bose-Mesner algebra.

Everything here is exact: algebraic numbers live in explicit quadratic
towers over Q, rational functions of the scheme parameter q are kept
symbolic, and every claim the package certifies reduces to a zero test
in one of those structures, or to an exact sign in a quadratic tower.
Floating point appears only as a redundant interval-arithmetic guard.
"""

from .exactfield import (
    TowerDescriptor,
    TowerElement,
    QQ,
    adjoin_radical,
    field_sqrt,
    complex_conj,
    element_sign,
    is_real,
    Reducible,
    DivisionByZero,
    IncompatibleTowers,
)
from .intervals import complex_embed, abs_is_one
from .ratfunc import PolyQ, RatQ, RF_DESC, ratfunc_specialize, r_value_at
from .scheme import (
    ConcreteScheme,
    ParametricScheme,
    SpectralData,
    concrete_scheme,
    field_scheme,
)
from .typeii import (
    RankUndecided,
    TypeIIMatrix,
    WeightFamily,
    all_families,
    family_coefficients,
    is_hadamard,
    is_type_ii,
    non_butson_witness,
    phi,
    reconstruct_weights,
    span_condition,
)
from .identities import (
    e_polynomials,
    scan_nonvanishing,
    verify_converse,
    verify_core_identities,
)
from .invariants import (
    HaagerupData,
    check_inverse_inequivalence,
    haagerup_bruteforce,
    haagerup_formula,
    monomial_h_set,
)
from .nomura import check_symmetric, jones_structure_report, nomura_dimension
from .pell import (
    PellProblem,
    base_solutions,
    integral_r_q_values,
    is_r_integer,
)

__all__ = [
    "TowerDescriptor", "TowerElement", "QQ", "adjoin_radical",
    "field_sqrt", "complex_conj", "is_real",
    "Reducible", "DivisionByZero", "IncompatibleTowers",
    "complex_embed", "element_sign", "abs_is_one",
    "PolyQ", "RatQ", "RF_DESC", "ratfunc_specialize", "r_value_at",
    "ConcreteScheme", "ParametricScheme", "SpectralData",
    "concrete_scheme", "field_scheme",
    "RankUndecided", "TypeIIMatrix", "WeightFamily", "all_families",
    "family_coefficients",
    "is_hadamard", "is_type_ii", "non_butson_witness", "phi",
    "reconstruct_weights", "span_condition",
    "e_polynomials", "scan_nonvanishing", "verify_converse",
    "verify_core_identities",
    "HaagerupData", "check_inverse_inequivalence",
    "haagerup_bruteforce", "haagerup_formula", "monomial_h_set",
    "check_symmetric", "jones_structure_report", "nomura_dimension",
    "PellProblem", "base_solutions", "integral_r_q_values", "is_r_integer",
]

__version__ = "0.1.0"
