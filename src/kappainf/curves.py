"""One-parameter probability curves P(X <= kappa*E[X]) in reduced coordinates.

For every family the two-parameter probability collapses to a function of a
single coordinate:

* inverse Gaussian: x = sqrt(lambda/mu) > 0,
* log-normal:       sigma > 0 (the probability does not depend on mu),
* Gumbel:           x = mu/beta,
* logistic:         y = mu/beta.

The inverse Gaussian curve is

    Phi((kappa-1)x/sqrt(kappa)) + e^{2x^2} Phi(-(kappa+1)x/sqrt(kappa)),

whose second term is the product of an exploding exponential and a Gaussian
tail.  It is evaluated by one unchecked kernel, ``distributions._ig_curve``,
shared with the inverse Gaussian ``cdf``: with c = (kappa+1)/sqrt(kappa) the
term equals

    0.5 * exp((2 - c^2/2) x^2) * erfcx(c x / sqrt(2)),

and 2 - c^2/2 <= 0 for every kappa > 0 (equality iff kappa = 1), so only
non-positive exponents are ever formed; ``ig_prob_deriv`` reuses the same
combined exponent.  Naive evaluation overflows near x ~ 19; these forms are
finite for all x and kappa in range.  Arguments are checked once, at the
public entry; the kernels call ``special._phi`` and ``_sc.erfcx`` unchecked.

The curve's stationarity function, rescaled by e^{a^2/2} to

    2*sqrt(pi/2)*erfcx((kappa+1)x/sqrt(2*kappa)) - 1/(sqrt(kappa)*x),

is likewise one unchecked kernel, ``_ig_stationarity_kernel``: the public
``ig_stationarity_scaled``, ``ig_stationarity`` and ``ig_prob_deriv`` check
their arguments and call it, and the root finder in ``solver`` calls it on
Python floats, once per evaluation, without array round trips.

The inverse Gaussian curve, stationarity and critical-point formulas square
kappa + 1, so they take kappa up to ``IG_KAPPA_MAX`` = sqrt(DBL_MAX) ~ 1.34e154
and raise ``DomainError`` above it.  The limit and its check live beside
``_ig_curve`` in ``distributions``, whose ``cdf`` applies them to t/mu;
``IG_KAPPA_MAX`` is re-exported here.

The reduced coordinate is a plain float, as ``reduce_params`` returns it;
coordinate arguments accept a scalar or an ndarray.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special as _sc

from . import special
from .distributions import (IG_KAPPA_MAX, POSITIVE_SUPPORT, DistParams, Family, _ig_curve,
                            _ig_exponent, _ig_ratio_limit, _ln_phi)
from .errors import (DomainError, RegimeError, finite_array, require_finite, require_positive,
                     unwrap)

__all__ = [
    "reduce_params",
    "reduced_prob",
    "ig_stationarity",
    "ig_stationarity_scaled",
    "ig_prob_deriv",
    "ig_peak_coord",
]

def _ig_kappa(kappa) -> float:
    """A positive kappa, at most the inverse Gaussian upper limit IG_KAPPA_MAX."""
    k = require_positive("kappa", kappa)
    _ig_ratio_limit("kappa", k)
    return k


def _ig_stationarity_kernel(k, x):
    """Scaled stationarity 2*sqrt(pi/2)*erfcx(s) - 1/(sqrt(k)*x), s = (k+1)x/sqrt(2k).

    No validation: k must be a checked kappa and x > 0, a Python float or an
    ndarray.  Scalar and array x give the same bits.
    """
    s = (k + 1.0) * x / math.sqrt(2.0 * k)
    return 2.0 * special.SQRT_HALF_PI * _sc.erfcx(s) - 1.0 / (math.sqrt(k) * x)


def _stationarity_args(kappa, x):
    """(k, x array, was_scalar) checked for the kernel: kappa in the inverse
    Gaussian range, x > 0, and its erfcx argument s finite (erfcx(inf) = 0
    would silently flip the sign of the result)."""
    k = _ig_kappa(kappa)
    x_arr, scalar = finite_array("x", x, positive=True)
    with np.errstate(over="ignore"):
        s = (k + 1.0) * x_arr / math.sqrt(2.0 * k)
    if not np.all(np.isfinite(s)):
        raise DomainError(f"x is too large for kappa={k!r}: (kappa+1)*x/sqrt(2*kappa) "
                          f"overflows, got {x!r}")
    return k, x_arr, scalar


def reduce_params(params: DistParams) -> float:
    """The family's reduced coordinate of native parameters, as a float; raises
    DomainError if it underflows to 0 (positive families) or overflows."""
    if params.family is Family.INVERSE_GAUSSIAN:
        coord = math.sqrt(params.p2 / params.p1)
    elif params.family is Family.LOG_NORMAL:
        coord = params.p2
    else:
        coord = params.p1 / params.p2
    check = require_positive if params.family in POSITIVE_SUPPORT else require_finite
    return check("coord", coord)


def reduced_prob(family: Family, kappa: float, coord):
    """P(X <= kappa*E[X]) as a function of the reduced coordinate.

    Agrees with cdf(params, kappa*mean(params)) at coord = reduce_params(params)
    for any params of the family.  ``coord`` may be a scalar or an ndarray.
    """
    family = Family(family)
    k = (_ig_kappa(kappa) if family is Family.INVERSE_GAUSSIAN
         else require_positive("kappa", kappa))
    x, scalar = finite_array("coord", coord, positive=family in POSITIVE_SUPPORT)

    if family is Family.INVERSE_GAUSSIAN:
        p = _ig_curve(k, x)
    elif family is Family.LOG_NORMAL:
        p = _ln_phi(math.log(k), x, 0.5 * x)
    elif family is Family.GUMBEL:
        with np.errstate(over="ignore"):
            p = np.exp(-np.exp(-((k - 1.0) * x + k * special.EULER_GAMMA)))
    else:
        with np.errstate(over="ignore"):
            p = _sc.expit((k - 1.0) * x)
    return unwrap(p, scalar)


def ig_stationarity(kappa: float, x):
    """Stationarity function of the inverse Gaussian curve.

    Defined as 2*int_a^inf e^{-t^2/2} dt - e^{-a^2/2}/(sqrt(kappa)*x) with
    a = (kappa+1)x/sqrt(kappa).  Its sign equals the sign of the curve's
    derivative: negative everywhere for kappa <= 1, and for kappa > 1
    negative below the unique zero and positive above it.
    """
    k, x_arr, scalar = _stationarity_args(kappa, x)
    a2 = (k + 1.0) ** 2 * x_arr * x_arr / k
    v = np.exp(-0.5 * a2) * _ig_stationarity_kernel(k, x_arr)
    return unwrap(v, scalar)


def ig_stationarity_scaled(kappa: float, x):
    """e^{a^2/2}-rescaled stationarity function: same zeros and signs.

    Equals 2*sqrt(pi/2)*erfcx((kappa+1)x/sqrt(2*kappa)) - 1/(sqrt(kappa)*x).
    Unlike the plain function it neither overflows nor underflows, so root
    finding can bracket it at any x; as x -> inf it tends to 0 with the sign
    of kappa - 1.
    """
    k, x_arr, scalar = _stationarity_args(kappa, x)
    return unwrap(_ig_stationarity_kernel(k, x_arr), scalar)


def ig_prob_deriv(kappa: float, x):
    """d/dx of the inverse Gaussian curve.

    The factorized form (2x e^{2x^2}/sqrt(2*pi)) * stationarity(x) is
    evaluated with the exponents combined: the product of e^{2x^2} and the
    e^{-a^2/2} inside the stationarity function has exponent
    (2 - (kappa+1)^2/(2*kappa)) x^2 <= 0, so the result stays finite for
    every positive x and kappa (an exponent that overflows to -inf gives 0).
    """
    k, x_arr, scalar = _stationarity_args(kappa, x)
    with np.errstate(over="ignore"):
        decay = np.exp(_ig_exponent(k, x_arr))
    v = 2.0 * x_arr / special.SQRT_TWO_PI * decay * _ig_stationarity_kernel(k, x_arr)
    return unwrap(v, scalar)


def ig_peak_coord(kappa: float) -> float:
    """sqrt(kappa/(kappa^2-1)), the peak of the stationarity function.

    Only exists for kappa > 1; it upper-bounds the critical coordinate.
    """
    k = _ig_kappa(kappa)
    if k <= 1.0:
        raise RegimeError(
            "the stationarity function has no peak for kappa <= 1; "
            "the curve is strictly decreasing there"
        )
    return math.sqrt(k / (k * k - 1.0))
