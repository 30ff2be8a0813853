"""Exact-arithmetic degenerate derangement polynomials and companions.

Layers:

* :mod:`degderange.exactcore` — rationals, factorials/binomials, polynomials.
* :mod:`degderange.series` — truncated formal power series over rationals,
  including the degenerate exponential and its compositional inverse.
* :mod:`degderange.sequences` — every named sequence, each with an explicit
  path and an independent series-extraction path.
* :mod:`degderange.identities` — exact verifiers and polynomial certification
  for the identity catalog.
* :mod:`degderange.probability` — degenerate gamma function/distribution:
  quadrature, sampling, and moment checks against exact targets; imported
  on first use, by the first read of one of its names from the package.
* :mod:`degderange.cli` — the ``degderange`` command.
"""

from .exactcore import (
    ExactScalar,
    Poly,
    binomial,
    binomial_rational,
    factorial,
)
from .identities import (
    IdentityCase,
    IdentityId,
    VerificationReport,
    certify,
    certify_ranges,
    verify,
    verify_grid,
)
from .sequences import (
    bell_deg,
    bell_deg_series,
    bell_row,
    bell_series_row,
    derange_deg,
    derange_deg_order,
    derange_deg_order_series,
    derange_deg_poly,
    derange_deg_series,
    derange_poly_row,
    derange_order_row,
    derange_row,
    falling_deg,
    falling_row,
    fubini_deg,
    fubini_deg_series,
    fubini_row,
    fubini_series_row,
    set_cross_check,
    stirling1_classical,
    stirling1_column,
    stirling1_deg,
    stirling1_deg_series,
    stirling1_row,
    stirling1_series_column,
    stirling2_column,
    stirling2_deg,
    stirling2_deg_series,
    stirling2_row,
    stirling2_series_column,
)
from .series import (
    Series,
    binomial_pow,
    deg_exp,
    deg_log,
    geometric,
)

__version__ = "0.1.0"

__all__ = [
    "ExactScalar",
    "Poly",
    "factorial",
    "binomial",
    "binomial_rational",
    "Series",
    "binomial_pow",
    "deg_exp",
    "deg_log",
    "geometric",
    "falling_deg",
    "falling_row",
    "derange_deg",
    "derange_row",
    "derange_deg_series",
    "derange_deg_poly",
    "derange_poly_row",
    "derange_deg_order",
    "derange_deg_order_series",
    "derange_order_row",
    "stirling1_deg",
    "stirling1_deg_series",
    "stirling1_row",
    "stirling1_column",
    "stirling1_series_column",
    "stirling2_deg",
    "stirling2_deg_series",
    "stirling2_row",
    "stirling2_column",
    "stirling2_series_column",
    "stirling1_classical",
    "fubini_deg",
    "fubini_deg_series",
    "fubini_row",
    "fubini_series_row",
    "bell_deg",
    "bell_deg_series",
    "bell_row",
    "bell_series_row",
    "set_cross_check",
    "IdentityId",
    "IdentityCase",
    "VerificationReport",
    "verify",
    "verify_grid",
    "certify",
    "certify_ranges",
    "DegGammaParams",
    "QuadratureSpec",
    "QuadratureError",
    "MomentCheckResult",
    "improper_quadrature",
    "deg_gamma_fn",
    "deg_gamma_fn_exact",
    "deg_gamma_fn_quadrature",
    "deg_gamma_pdf",
    "deg_gamma11_cdf",
    "deg_gamma11_ppf",
    "sample_deg_gamma11",
    "sample_deg_gamma11_blocks",
    "sampler_ks_check",
    "theorem11_check",
    "stirling_log_expansion_check",
    "erlang_moment",
    "erlang_bridge_check",
]


def __getattr__(name):
    # The names of __all__ not bound above are the probability layer's.
    # "from . import probability" would look the name up here again: recursion.
    if name != "probability" and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    probability = import_module(".probability", __name__)
    return probability if name == "probability" else getattr(probability, name)
