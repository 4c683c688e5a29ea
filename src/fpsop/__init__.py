"""Weighted formal power series, twisted convolution, and operator bounds.

The package computes certified lower/upper bounds and numerical estimates
for the norms of composition, multiplication, and weighted-substitution
operators acting on sequence-weighted power series spaces.
"""

from .combinatorics import (
    PowerTable,
    power_coefficient,
    stride_offsets,
    weighted_compositions,
)
from .criteria import (
    CriterionRequest,
    column_lower_bound,
    composition_bounds_polynomial,
    composition_norm_monomial,
    multiplier_algebra_bound,
    substitution_bounds_monomial_multiplier,
    substitution_bounds_monomial_pair,
    substitution_bounds_monomial_symbol,
)
from .operators import (
    BoundCertificate,
    OperatorMatrix,
    ResourceLimitError,
    apply,
    build_matrix,
    norm_estimate_l2,
    norm_lower_search,
)
from .series import (
    PolynomialSymbol,
    TruncatedSeries,
    cauchy_product,
    compose,
    diamond_product,
    diamond_substitute,
    norm,
)
from .weights import (
    DeltaSequence,
    SpaceConfig,
    ValidationError,
    WeightSequence,
    conjugate_exponent,
    make_beta,
    make_delta,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCertificate",
    "CriterionRequest",
    "DeltaSequence",
    "OperatorMatrix",
    "PolynomialSymbol",
    "PowerTable",
    "ResourceLimitError",
    "SpaceConfig",
    "TruncatedSeries",
    "ValidationError",
    "WeightSequence",
    "apply",
    "build_matrix",
    "cauchy_product",
    "column_lower_bound",
    "compose",
    "composition_bounds_polynomial",
    "composition_norm_monomial",
    "conjugate_exponent",
    "diamond_product",
    "diamond_substitute",
    "make_beta",
    "make_delta",
    "multiplier_algebra_bound",
    "norm",
    "norm_estimate_l2",
    "norm_lower_search",
    "power_coefficient",
    "stride_offsets",
    "substitution_bounds_monomial_multiplier",
    "substitution_bounds_monomial_pair",
    "substitution_bounds_monomial_symbol",
    "weighted_compositions",
    "__version__",
]
