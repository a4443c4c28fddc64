"""Infimum of P(X <= kappa*E[X]) for four infinitely divisible families.

The library evaluates the probability that an inverse Gaussian, log-normal,
Gumbel or logistic random variable falls at or below kappa times its mean,
reduces it to a one-coordinate curve, and computes the exact infimum of that
curve over the family's whole parameter space -- attained at an interior
critical point, reached only in a parameter limit, or constant, depending on
the family and on which side of kappa = 1 one sits.  Everything analytic can
be re-derived numerically through the oracle and verification modules.
"""

from .distributions import DistParams, Family, cdf, mean, pdf, sample
from .curves import (
    ig_peak_coord,
    ig_prob_deriv,
    ig_stationarity,
    ig_stationarity_scaled,
    reduce_params,
    reduced_prob,
)
from .errors import DomainError, KappainfError, NumericalError, RegimeError
from .oracles import (
    GridSpec,
    OracleReport,
    adaptive_gauss_kronrod,
    grid_min,
    mc_prob,
    quadrature_prob,
)
from .solver import InfimumResult, LimitDirection, ig_critical_point, infimum
from .special import EULER_GAMMA, std_normal_cdf
from .verification import BUDGETS, Budget, run_verification

__version__ = "0.1.0"

__all__ = [
    "BUDGETS",
    "Budget",
    "DistParams",
    "DomainError",
    "EULER_GAMMA",
    "Family",
    "GridSpec",
    "InfimumResult",
    "KappainfError",
    "LimitDirection",
    "NumericalError",
    "OracleReport",
    "RegimeError",
    "adaptive_gauss_kronrod",
    "cdf",
    "grid_min",
    "ig_critical_point",
    "ig_peak_coord",
    "ig_prob_deriv",
    "ig_stationarity",
    "ig_stationarity_scaled",
    "infimum",
    "mc_prob",
    "mean",
    "pdf",
    "quadrature_prob",
    "reduce_params",
    "reduced_prob",
    "run_verification",
    "sample",
    "std_normal_cdf",
]
