"""The four distribution families: parameters, moments, densities, sampling.

Pointwise functions (``cdf``, ``pdf``) accept a scalar or an ndarray of
evaluation points.  ``sample`` is deterministic per (params, n, seed): the
seed feeds a ``numpy.random.Generator`` (PCG64 via ``default_rng``, i.e. the
stream is derived from the seed through ``SeedSequence``), and each family
uses a fixed transformation of that stream:

* log-normal, Gumbel, logistic: inverse-CDF transform of uniforms;
* inverse Gaussian: the Michael-Schucany-Haas transformation (a chi-square
  variate, the smaller root of the defining quadratic, then a uniform to pick
  between the root and its conjugate), since this CDF has no closed-form
  inverse.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.special as _sc

from . import special
from .errors import (DomainError, finite_array, require_count, require_finite,
                     require_positive, unwrap)

__all__ = ["Family", "DistParams", "mean", "cdf", "pdf", "sample"]


class Family(str, Enum):
    """The four supported families (values are the CLI / file spellings)."""

    INVERSE_GAUSSIAN = "inverse-gaussian"
    LOG_NORMAL = "log-normal"
    GUMBEL = "gumbel"
    LOGISTIC = "logistic"


# Families whose support is (0, inf) rather than the whole real line.
POSITIVE_SUPPORT = frozenset({Family.INVERSE_GAUSSIAN, Family.LOG_NORMAL})

# Name of each family's scale/shape parameter p2 (also its CLI flag).
SCALE_NAME = {
    Family.INVERSE_GAUSSIAN: "lambda",
    Family.LOG_NORMAL: "sigma",
    Family.GUMBEL: "beta",
    Family.LOGISTIC: "beta",
}


@dataclass(frozen=True)
class DistParams:
    """One member of a family.

    (p1, p2) reads as (mu, lambda) for inverse Gaussian with both > 0,
    (mu, sigma) for log-normal, (mu, beta) for Gumbel and logistic, with the
    scale/shape parameter > 0 and mu unrestricted for the latter three.
    """

    family: Family
    p1: float
    p2: float

    def __post_init__(self):
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        if family is Family.INVERSE_GAUSSIAN:
            p1 = require_positive("mu", self.p1)
        else:
            p1 = require_finite("mu", self.p1)
        p2 = require_positive(SCALE_NAME[family], self.p2)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)

    @classmethod
    def inverse_gaussian(cls, mu: float, lam: float) -> "DistParams":
        return cls(Family.INVERSE_GAUSSIAN, mu, lam)

    @classmethod
    def log_normal(cls, mu: float, sigma: float) -> "DistParams":
        return cls(Family.LOG_NORMAL, mu, sigma)

    @classmethod
    def gumbel(cls, mu: float, beta: float) -> "DistParams":
        return cls(Family.GUMBEL, mu, beta)

    @classmethod
    def logistic(cls, mu: float, beta: float) -> "DistParams":
        return cls(Family.LOGISTIC, mu, beta)


def mean(params: DistParams) -> float:
    """E[X]: mu / exp(mu + sigma^2/2) / mu + beta*gamma / mu per family; a
    log-normal mean that overflows or underflows to 0 is a DomainError."""
    p1, p2 = params.p1, params.p2
    if params.family is Family.INVERSE_GAUSSIAN:
        return p1
    if params.family is Family.LOG_NORMAL:
        log_mean = p1 + 0.5 * p2 * p2
        try:
            m = math.exp(log_mean)
        except OverflowError:
            m = math.inf
        if not 0.0 < m < math.inf:
            raise DomainError(f"exp(mu + sigma^2/2) is not a positive float: "
                              f"mu + sigma^2/2 = {log_mean!r}")
        return m
    if params.family is Family.GUMBEL:
        return p1 + p2 * special.EULER_GAMMA
    return p1


def _mode(params: DistParams) -> float:
    """Location of the density peak (used to seed adaptive quadrature)."""
    p1, p2 = params.p1, params.p2
    if params.family is Family.INVERSE_GAUSSIAN:
        r = 1.5 * p1 / p2
        return p1 * (math.sqrt(1.0 + r * r) - r)
    if params.family is Family.LOG_NORMAL:
        return math.exp(p1 - p2 * p2)
    return p1


# Largest ratio (kappa or t/mu) the inverse Gaussian formulas take: beyond it
# the (ratio+1)^2 in _ig_exponent overflows and the curve drops its second term.
IG_KAPPA_MAX = math.sqrt(sys.float_info.max)


def _ig_ratio_limit(name: str, largest: float) -> None:
    """Reject a ratio whose largest value exceeds IG_KAPPA_MAX (a plain float
    comparison, so scalar callers pay no array conversion)."""
    if largest > IG_KAPPA_MAX:
        raise DomainError(
            f"{name} must be <= {IG_KAPPA_MAX!r} for the inverse Gaussian family "
            f"(its formulas square {name} + 1), got {largest!r}"
        )


def _ig_exponent(ratio, x):
    """(2 - (ratio+1)^2/(2*ratio)) x^2 <= 0: e^{2x^2} times the e^{-a^2/2} of the
    Gaussian tail at a = (ratio+1)x/sqrt(ratio).  Squared by a product since
    ``** 2`` on a Python float calls libm pow, which can misround, and scalar
    and array ratios must agree bit for bit."""
    c = ratio + 1.0
    return (2.0 - c * c / (2.0 * ratio)) * x * x


def _ig_curve(ratio, x):
    """Inverse Gaussian P(X <= ratio*mu) at x = sqrt(lambda/mu), i.e.
    Phi((ratio-1)x/sqrt(ratio)) + e^{2x^2} Phi(-(ratio+1)x/sqrt(ratio)) with the
    second term as 0.5*exp(_ig_exponent)*erfcx(a/sqrt(2)), so no positive
    exponent is ever formed.  Unchecked: ratio and x > 0, either may be an
    array.  An overflowing intermediate is an inf that gives the exact limit
    (Phi(+-inf) = 1 or 0, erfcx(inf) = 0, exp(-inf) = 0)."""
    with np.errstate(over="ignore"):
        term1 = special._phi((ratio - 1.0) * x / np.sqrt(ratio))
        carrier = _sc.erfcx((ratio + 1.0) * x / np.sqrt(2.0 * ratio))
        return np.minimum(term1 + 0.5 * np.exp(_ig_exponent(ratio, x)) * carrier, 1.0)


def _ln_phi(u, sigma, shift=0.0):
    """Phi(u/sigma + shift), the log-normal curve and CDF, unchecked.  u/sigma
    overflows for tiny sigma; Phi(+-inf) is exactly 1 or 0, the true limit."""
    with np.errstate(over="ignore"):
        z = u / sigma + shift
    return special._phi(z)


def cdf(params: DistParams, t):
    """P(X <= t); right-continuous, non-decreasing, limits 0 and 1.

    The inverse Gaussian uses the reduced curve ``_ig_curve`` at ratio t/mu
    and x = sqrt(lambda/mu), the same kernel as ``curves.reduced_prob``.
    """
    t_arr, scalar = finite_array("t", t)
    p1, p2 = params.p1, params.p2

    if params.family is Family.INVERSE_GAUSSIAN:
        # masked on t/mu, not t: where t/mu underflows to 0 the cdf is 0 too;
        # an overflowing t/mu is rejected by the limit check
        with np.errstate(over="ignore"):
            ratio = t_arr / p1
        out = np.zeros_like(t_arr, dtype=float)
        pos = ratio > 0.0
        if np.any(pos):
            _ig_ratio_limit("t/mu", float(ratio[pos].max()))
            out[pos] = _ig_curve(ratio[pos], math.sqrt(p2 / p1))
    elif params.family is Family.LOG_NORMAL:
        out = np.zeros_like(t_arr, dtype=float)
        pos = t_arr > 0.0
        if np.any(pos):
            out[pos] = _ln_phi(np.log(t_arr[pos]) - p1, p2)
    elif params.family is Family.GUMBEL:
        with np.errstate(over="ignore"):
            out = np.exp(-np.exp(-(t_arr - p1) / p2))
    else:
        out = _sc.expit((t_arr - p1) / p2)
    return unwrap(out, scalar)


def pdf(params: DistParams, t):
    """Density at t.  Positive-support families reject t <= 0.

    Computed through the log-density so far-tail evaluations underflow to 0
    instead of producing inf*0.
    """
    t_arr, scalar = finite_array("t", t, positive=params.family in POSITIVE_SUPPORT)
    p1, p2 = params.p1, params.p2

    if params.family is Family.INVERSE_GAUSSIAN:
        log_pdf = (
            0.5 * (math.log(p2) - math.log(2.0 * math.pi))
            - 1.5 * np.log(t_arr)
            - p2 * (t_arr - p1) ** 2 / (2.0 * p1 * p1 * t_arr)
        )
        out = np.exp(log_pdf)
    elif params.family is Family.LOG_NORMAL:
        log_t = np.log(t_arr)
        log_pdf = (
            -math.log(p2) - 0.5 * math.log(2.0 * math.pi)
            - log_t
            - (log_t - p1) ** 2 / (2.0 * p2 * p2)
        )
        out = np.exp(log_pdf)
    elif params.family is Family.GUMBEL:
        z = (t_arr - p1) / p2
        with np.errstate(over="ignore"):
            log_pdf = -math.log(p2) - z - np.exp(-z)
        out = np.exp(log_pdf)
    else:
        z = np.abs(t_arr - p1) / p2
        e = np.exp(-z)
        out = e / (p2 * (1.0 + e) ** 2)
    return unwrap(out, scalar)


def sample(params: DistParams, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws; identical output for identical (params, n, seed)."""
    n = require_count("n", n)
    rng = np.random.default_rng(require_count("seed", seed))
    p1, p2 = params.p1, params.p2

    if params.family is Family.INVERSE_GAUSSIAN:
        y = rng.standard_normal(n) ** 2
        w = p1 * y / (2.0 * p2)
        root = p1 * (1.0 + w - np.sqrt(w * (w + 2.0)))
        u = rng.random(n)
        return np.where(u <= p1 / (p1 + root), root, p1 * p1 / root)

    u = np.maximum(rng.random(n), 5e-324)  # keep inverse transforms finite
    if params.family is Family.LOG_NORMAL:
        return np.exp(p1 + p2 * _sc.ndtri(u))
    if params.family is Family.GUMBEL:
        return p1 - p2 * np.log(-np.log(u))
    return p1 + p2 * (np.log(u) - np.log1p(-u))
