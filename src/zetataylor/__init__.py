"""Taylor coefficients of the Hurwitz, Riemann and Lerch zeta functions at
s = 0.

The main entry points are `hurwitz_coefficient`, `riemann_coefficient` and
`lerch_coefficient`, which evaluate the exact Stirling/Bernoulli
coefficient series with minimal-term truncation and report the value
together with an error estimate and a per-term trace.  The `reference`
module provides an independent numerical route used to validate the
series: `taylor_coefficients` (Euler-Maclaurin in power-series arithmetic,
or the convergent Lerch sum) gives every n <= n_max in one pass, and
`taylor_coefficients_contour` is the paper's contour cross-check.
"""

from .coefficients import (
    CoefficientQuery,
    CoefficientResult,
    compute_coefficient,
    etf_check,
    hurwitz_coefficient,
    lerch_coefficient,
    log_gamma_series,
    riemann_coefficient,
    system_residual,
)
from .exact import (
    apostol_bernoulli,
    bernoulli_number,
    bernoulli_polynomial,
    exp_polynomial_coeffs,
    harmonic_number,
    stirling1,
    stirling2,
)
from .summation import (
    NonFiniteTermError,
    SemiConvergentResult,
    TraceRecord,
    sum_semiconvergent,
    to_mpf,
)

__version__ = "0.1.0"

_REFERENCE = ("OracleConfig", "OracleValue", "hurwitz_zeta", "lerch_phi", "taylor_coefficients",
              "taylor_coefficients_contour", "log_gamma_ref")

__all__ = [
    "CoefficientQuery",
    "CoefficientResult",
    "compute_coefficient",
    "hurwitz_coefficient",
    "riemann_coefficient",
    "lerch_coefficient",
    "log_gamma_series",
    "etf_check",
    "system_residual",
    "stirling1",
    "stirling2",
    "exp_polynomial_coeffs",
    "bernoulli_number",
    "bernoulli_polynomial",
    "apostol_bernoulli",
    "harmonic_number",
    "sum_semiconvergent",
    "to_mpf",
    "SemiConvergentResult",
    "TraceRecord",
    "NonFiniteTermError",
    *_REFERENCE,
    "__version__",
]


def __getattr__(name: str):
    """The `reference` names, imported on first use (PEP 562)."""
    if name in _REFERENCE:
        from . import reference
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
