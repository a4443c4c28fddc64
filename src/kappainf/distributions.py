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

Each transform runs in place in the one n-float array it returns (~8 MB at
1e6 draws), with 65,536-element buffers for its intermediates, so that
samplers running side by side on threads stay small.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

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
# the (ratio-1)(ratio+1) of the stationarity peak overflows, and the curve and
# cdf keep the same domain.
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
    """-(ratio-1)^2 x^2/(2*ratio) <= 0: e^{2x^2} times the e^{-a^2/2} of the
    Gaussian tail at a = (ratio+1)x/sqrt(ratio), the exact form of
    (2 - (ratio+1)^2/(2*ratio)) x^2.  Nothing cancels near ratio = 1, and with
    d = (ratio-1)x the product d*(d/ratio) keeps its factors normal where
    x^2 or 1/ratio alone would underflow or overflow."""
    d = (ratio - 1.0) * x
    return -0.5 * d * (d / ratio)


def _ig_curve(ratio, x):
    """Inverse Gaussian P(X <= ratio*mu) at x = sqrt(lambda/mu), i.e.
    Phi((ratio-1)x/sqrt(ratio)) + e^{2x^2} Phi(-(ratio+1)x/sqrt(ratio)) with the
    second term as 0.5*exp(_ig_exponent)*erfcx(a/sqrt(2)), so no positive
    exponent is ever formed.  Unchecked: ratio and x > 0, either may be an
    array.  An overflowing intermediate is an inf that gives the exact limit
    (Phi(+-inf) = 1 or 0, erfcx(inf) = 0, exp(-inf) = 0)."""
    with np.errstate(over="ignore"):
        term1 = special._phi((ratio - 1.0) * x / np.sqrt(ratio))
        carrier = special._erfcx((ratio + 1.0) * x / np.sqrt(2.0 * ratio))
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
    else:
        with np.errstate(over="ignore"):  # an overflowing z gives the exact limit
            z = (t_arr - p1) / p2
            out = np.exp(-np.exp(-z)) if params.family is Family.GUMBEL else special._expit(z)
    return unwrap(out, scalar)


_LOG_2PI = math.log(2.0 * math.pi)


def _density(family: Family, t, p1, p2, log_p2):
    """Density of ``family`` at t, unchecked: t inside the support, valid p1
    and p2, and log_p2 = math.log(p2).  t, p1, p2 and log_p2 may be arrays
    that broadcast together, so one call can serve many members of a family.

    Computed through the log-density so far-tail evaluations underflow to 0
    instead of producing inf*0.  The inverse Gaussian exponent
    lambda*(t - mu)^2/(2 mu^2 t) is formed as lambda*(r*(r/t))/2 with
    r = (t - mu)/mu: the scale-free ratio keeps it finite where mu^2 alone
    underflows (mu < ~1e-154), no 2t overflows into an inf/inf NaN
    (t > DBL_MAX/2), and no r^2 overflows while the exponent is still small.
    """
    if family is Family.INVERSE_GAUSSIAN:
        with np.errstate(over="ignore"):
            r = (t - p1) / p1
            log_pdf = 0.5 * (log_p2 - _LOG_2PI) - 1.5 * np.log(t) - p2 * (r * (r / t)) / 2.0
        return np.exp(log_pdf)
    if family is Family.LOG_NORMAL:
        log_t = np.log(t)
        log_pdf = -log_p2 - 0.5 * _LOG_2PI - log_t - (log_t - p1) ** 2 / (2.0 * p2 * p2)
        return np.exp(log_pdf)
    if family is Family.GUMBEL:
        z = (t - p1) / p2
        with np.errstate(over="ignore"):
            log_pdf = -log_p2 - z - np.exp(-z)
        return np.exp(log_pdf)
    z = np.abs(t - p1) / p2
    e = np.exp(-z)
    return e / (p2 * (1.0 + e) ** 2)


def pdf(params: DistParams, t):
    """Density at t.  Positive-support families reject t <= 0."""
    t_arr, scalar = finite_array("t", t, positive=params.family in POSITIVE_SUPPORT)
    out = _density(params.family, t_arr, params.p1, params.p2, math.log(params.p2))
    return unwrap(out, scalar)


# Length of the samplers' chunk buffers.
_CHUNK = 65_536


def sample(params: DistParams, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws; identical output for identical (params, n, seed)."""
    n = require_count("n", n)
    rng = np.random.default_rng(require_count("seed", seed))
    p1, p2 = params.p1, params.p2

    # Every step keeps the order of the plain formula (in the comments), so
    # the draws keep their bits.
    if params.family is Family.INVERSE_GAUSSIAN:
        w = rng.standard_normal(n)
        buf = np.empty(min(n, _CHUNK))
        u = np.empty_like(buf)
        for s in range(0, n, _CHUNK):
            x = w[s:s + _CHUNK]
            t, v = buf[:x.size], u[:x.size]
            x *= x
            x *= p1
            x /= 2.0 * p2  # x = p1*y/(2*p2), y = z^2 chi-square
            np.add(x, 2.0, out=t)
            t *= x
            np.sqrt(t, out=t)
            x += 1.0
            x -= t
            x *= p1  # root = p1*(1 + x - sqrt(x*(x + 2)))
            np.add(x, p1, out=t)
            np.divide(p1, t, out=t)
            rng.random(out=v)  # the uniforms follow all n normals in the stream
            keep = v <= t  # u <= p1/(p1 + root)
            np.divide(p1 * p1, x, out=x, where=~keep)
        return w

    if params.family is Family.LOG_NORMAL:
        z = rng.standard_normal(n)
        z *= p2
        z += p1
        return np.exp(z, out=z)  # exp(p1 + p2*z)

    u = rng.random(n)
    np.maximum(u, 5e-324, out=u)  # keep inverse transforms finite
    if params.family is Family.GUMBEL:
        np.log(u, out=u)
        np.negative(u, out=u)
        np.log(u, out=u)
        u *= p2
        return np.subtract(p1, u, out=u)  # p1 - p2*log(-log(u))
    buf = np.empty(min(n, _CHUNK))
    for s in range(0, n, _CHUNK):
        x = u[s:s + _CHUNK]
        t = buf[:x.size]
        np.negative(x, out=t)
        np.log1p(t, out=t)
        np.log(x, out=x)
        x -= t
    u *= p2
    u += p1  # p1 + p2*(log(u) - log1p(-u))
    return u
