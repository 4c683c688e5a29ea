"""Weighted formal power series, twisted convolution, and operator bounds.

The package computes certified lower/upper bounds and numerical estimates
for the norms of composition, multiplication, and weighted-substitution
operators acting on sequence-weighted power series spaces.

Names are exported lazily (PEP 562): ``import fpsop`` loads no submodule,
and ``fpsop.<name>`` imports only the module that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Exported name -> the module that defines it.
_HOMES = {name: home for home, names in (
    ("combinatorics", "PowerTable power_coefficient stride_offsets weighted_compositions"),
    ("criteria", "column_lower_bound composition_bounds_polynomial composition_norm_monomial"
                 " multiplier_algebra_bound substitution_bounds_monomial_multiplier"
                 " substitution_bounds_monomial_pair substitution_bounds_monomial_symbol"),
    ("operators", "OperatorMatrix apply build_matrix norm_estimate_l2 norm_lower_search"),
    ("series", "PolynomialSymbol TruncatedSeries cauchy_product compose diamond_product"
               " diamond_substitute norm"),
    ("weights", "BoundCertificate CriterionRequest DeltaSequence ResourceLimitError"
                " SpaceConfig ValidationError WeightSequence conjugate_exponent make_beta"
                " make_delta"),
) for name in names.split()}

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value
