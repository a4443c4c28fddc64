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

    0.5 * exp(-(kappa-1)^2 x^2/(2*kappa)) * erfcx(c x / sqrt(2)),

the exact form of the combined exponent (2 - c^2/2) x^2, so only
non-positive exponents are ever formed and nothing cancels near kappa = 1;
``ig_prob_deriv`` reuses the same exponent.  Naive evaluation overflows
near x ~ 19; these forms are finite for all x and kappa in range.  Arguments are checked once, at the
public entry; the kernels call ``special._phi`` and ``special._erfcx`` unchecked.

The curve's stationarity function, rescaled by e^{a^2/2} to

    2*sqrt(pi/2)*erfcx((kappa+1)x/sqrt(2*kappa)) - 1/(sqrt(kappa)*x),

is likewise one unchecked kernel, ``_ig_stationarity_kernel``, which takes
sqrt(2*kappa) and sqrt(kappa) precomputed: the public
``ig_stationarity_scaled`` and ``ig_prob_deriv`` check their arguments and
call it, and the Newton root finder in ``solver`` takes the roots once per
kappa and calls it on Python floats for the value and its slope, once per
evaluation, without array round trips.  Near kappa = 1 its two terms agree
to ~2 log10(s) digits, so from erfcx argument s = 3 on it takes erfcx from
a continued fraction in a form where only that last difference cancels.

The inverse Gaussian curve, stationarity and critical-point formulas take
kappa up to ``IG_KAPPA_MAX`` = sqrt(DBL_MAX) ~ 1.34e154 (the peak coordinate
multiplies kappa - 1 by kappa + 1) and raise ``DomainError`` above it.  The
limit and its check live beside ``_ig_curve`` in ``distributions``, whose
``cdf`` applies them to t/mu; ``IG_KAPPA_MAX`` is re-exported here.

The reduced coordinate is a plain float, as ``reduce_params`` returns it.
``reduced_prob``, ``ig_stationarity_scaled`` and ``ig_prob_deriv`` take kappa
and the coordinate each as a scalar or an ndarray; the two broadcast against
each other, and every element has exactly the bits of the scalar call.
"""

from __future__ import annotations

import math

import numpy as np

from . import special
from .distributions import (IG_KAPPA_MAX, POSITIVE_SUPPORT, DistParams, Family, _ig_curve,
                            _ig_exponent, _ig_ratio_limit, _ln_phi)
from .errors import (DomainError, RegimeError, finite_array, require_finite, require_positive,
                     unwrap)

__all__ = [
    "reduce_params",
    "reduced_prob",
    "ig_stationarity_scaled",
    "ig_prob_deriv",
    "ig_peak_coord",
]

def _ig_kappa(kappa) -> float:
    """A positive kappa, at most the inverse Gaussian upper limit IG_KAPPA_MAX."""
    k = require_positive("kappa", kappa)
    _ig_ratio_limit("kappa", k)
    return k


def _checked_args(kappa, name: str, coord, positive: bool, ig: bool):
    """(k, coord, was_scalar) of a scalar or ndarray kappa and coordinate.

    A scalar kappa stays a Python float, and so does a Python float
    coordinate next to it (checked by the scalar guards, whose messages are
    those of finite_array for a float); any other coordinate becomes an
    array.  An ndarray kappa is checked entry by entry, its largest entry
    against IG_KAPPA_MAX when ``ig``.  was_scalar is true when both are
    scalars; shapes that do not broadcast are a DomainError.
    """
    if not isinstance(kappa, np.ndarray):
        k = _ig_kappa(kappa) if ig else require_positive("kappa", kappa)
        if type(coord) is float:  # the scalar guards: no 0-d array round trip
            return k, (require_positive if positive else require_finite)(name, coord), True
        return (k, *finite_array(name, coord, positive=positive))
    k = finite_array("kappa", kappa, positive=True)[0]
    if ig and k.size:
        _ig_ratio_limit("kappa", float(k.max()))
    x, scalar = finite_array(name, coord, positive=positive)
    try:
        np.broadcast_shapes(k.shape, x.shape)
    except ValueError:
        raise DomainError(f"kappa and {name} must broadcast against each other, "
                          f"got shapes {k.shape} and {x.shape}") from None
    return k, x, scalar and k.ndim == 0


def _sqrt_2k_k(k):
    """(sqrt(2k), sqrt(k)), the roots the stationarity kernel takes.  math.sqrt
    and np.sqrt are both correctly rounded, so scalar and array kappa agree."""
    if isinstance(k, np.ndarray):
        return np.sqrt(2.0 * k), np.sqrt(k)
    return math.sqrt(2.0 * k), math.sqrt(k)


# From this erfcx argument on, the stationarity kernel takes erfcx from its
# continued fraction (Abramowitz-Stegun 7.1.14) instead of special._erfcx.
_CF_FROM = 3.0
_TWO_SQRT_HALF_PI = 2.0 * special.SQRT_HALF_PI
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _ig_stationarity_kernel(k, sqrt_2k, sqrt_k, x, slope=False):
    """Scaled stationarity 2*sqrt(pi/2)*erfcx(s) - 1/(sqrt(k)*x), s = (k+1)x/sqrt(2k),
    and with ``slope`` the pair (value, d/dx of it), both from one erfcx.

    For s < _CF_FROM the value is that direct form and its slope is
    2*sqrt(pi/2)*(2s*erfcx(s) - 2/sqrt(pi))*(k+1)/sqrt(2k) + 1/(sqrt(k)*x^2).
    From _CF_FROM on, where both forms cancel (catastrophically as k -> 1+),
    they come from the continued fraction instead (``_cf_form``).

    No validation: k must be a checked kappa with its roots from _sqrt_2k_k,
    and x > 0.  A Python float or numpy scalar x gives floats; an ndarray
    (no ``slope``) is computed element by element with the same bits.
    """
    s = (k + 1.0) * x / sqrt_2k
    if isinstance(s, np.ndarray):
        g = _TWO_SQRT_HALF_PI * special._erfcx(s) - 1.0 / (sqrt_k * x)
        tail = s >= _CF_FROM
        if tail.any():
            k, sqrt_k, x, s = (np.broadcast_to(v, g.shape)[tail] for v in (k, sqrt_k, x, s))
            terms = 6.0 + np.floor(140.0 / s)
            t2 = np.zeros_like(s)
            for n in range(int(terms.max()), 1, -1):  # each entry as in the scalar loop
                t2 = np.where(n <= terms, 0.5 * n / (s + t2), t2)
            with np.errstate(over="ignore"):  # s*(s + t) -> inf only drives 0
                g[tail] = _cf_form(k, sqrt_k, x, s, t2)
        return g
    if s < _CF_FROM:
        e = float(special._erfcx(s))
        g = _TWO_SQRT_HALF_PI * e - 1.0 / (sqrt_k * x)
        if not slope:
            return g
        return g, (_TWO_SQRT_HALF_PI * (2.0 * s * e - _TWO_OVER_SQRT_PI) * (k + 1.0) / sqrt_2k
                   + 1.0 / (sqrt_k * x * x))
    t2 = 0.0
    for n in range(6 + int(140.0 / s), 1, -1):
        t2 = 0.5 * n / (s + t2)
    return _cf_form(k, sqrt_k, x, s, t2, slope)


def _cf_form(k, sqrt_k, x, s, t2, slope=False):
    """The stationarity (and with ``slope`` its d/dx) at s >= _CF_FROM, from
    the tail t2 of the continued fraction sqrt(pi)*erfcx(s) = 1/(s + t),
    t = (1/2)/(s + t2), t2 = 1/(s + (3/2)/(s + 2/(s + ...))) (A-S 7.1.14).

    Exactly, with c = (k-1)/(sqrt(k)(k+1)x),

        value = sqrt(2*pi)*[erfcx(s) - 1/(s*sqrt(pi))] + c
              = c - sqrt(2)*t/(s(s + t)),

    and since s' = s/x and d/ds [erfcx(s) - 1/(s*sqrt(pi))] =
    (t + s*t2/(s + t2))/(sqrt(pi)*s^2*(s + t)),

        slope = [sqrt(2)*(t + s*t2/(s + t2))/(s(s + t)) - c]/x.

    Every sum adds positive terms, so nothing cancels but the final
    difference, which is the one that locates the root.  The fraction runs
    to 6 + floor(140/s) terms (52 at s = 3, 6 above s = 140); in 40-digit
    mpmath, t is then within 2e-17 relative on a geometric grid of s in
    [2, 1e6], where 37 terms are needed at s = 3, 26 at s = 4 and 5 at
    s = 100.
    """
    t = 0.5 / (s + t2)
    c = (k - 1.0) / (sqrt_k * (k + 1.0) * x)
    g = c - special.SQRT_TWO * t / (s * (s + t))
    if not slope:
        return g
    return g, (special.SQRT_TWO * (t + s * t2 / (s + t2)) / (s * (s + t)) - c) / x


def _stationarity_args(kappa, x):
    """((k, sqrt(2k), sqrt(k)), x, was_scalar) checked for the kernel: kappa in
    the inverse Gaussian range, x > 0, and its erfcx argument s finite
    (erfcx(inf) = 0 would silently flip the sign of the result)."""
    k, x_arr, scalar = _checked_args(kappa, "x", x, positive=True, ig=True)
    sqrt_2k, sqrt_k = _sqrt_2k_k(k)
    if type(x_arr) is float:  # then k is a float too, and float overflow is silent
        finite = math.isfinite((k + 1.0) * x_arr / sqrt_2k)
    else:
        with np.errstate(over="ignore"):
            finite = np.all(np.isfinite((k + 1.0) * x_arr / sqrt_2k))
    if not finite:
        raise DomainError(f"x is too large for kappa={k!r}: (kappa+1)*x/sqrt(2*kappa) "
                          f"overflows, got {x!r}")
    return (k, sqrt_2k, sqrt_k), x_arr, scalar


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


def reduced_prob(family: Family, kappa, coord):
    """P(X <= kappa*E[X]) as a function of the reduced coordinate.

    Agrees with cdf(params, kappa*mean(params)) at coord = reduce_params(params)
    for any params of the family.  ``kappa`` and ``coord`` may each be a scalar
    or an ndarray; arrays broadcast against each other.
    """
    family = Family(family)
    k, x, scalar = _checked_args(kappa, "coord", coord, positive=family in POSITIVE_SUPPORT,
                                 ig=family is Family.INVERSE_GAUSSIAN)

    if family is Family.INVERSE_GAUSSIAN:
        p = _ig_curve(k, x)
    elif family is Family.LOG_NORMAL:
        # math.log per kappa: np.log can differ from it in the last bit
        log_k = (np.array([math.log(v) for v in k.flat]).reshape(k.shape)
                 if isinstance(k, np.ndarray) else math.log(k))
        p = _ln_phi(log_k, x, 0.5 * x)
    elif family is Family.GUMBEL:
        with np.errstate(over="ignore"):
            p = np.exp(-np.exp(-((k - 1.0) * x + k * special.EULER_GAMMA)))
    else:
        with np.errstate(over="ignore"):
            p = special._expit((k - 1.0) * x)
    return unwrap(p, scalar)


def ig_stationarity_scaled(kappa, x):
    """e^{a^2/2}-rescaled stationarity function: same zeros and signs.

    Equals 2*sqrt(pi/2)*erfcx((kappa+1)x/sqrt(2*kappa)) - 1/(sqrt(kappa)*x).
    Unlike the plain function it neither overflows nor underflows, so root
    finding can bracket it at any x; as x -> inf it tends to 0 with the sign
    of kappa - 1.  ``kappa`` and ``x`` may each be a scalar or an ndarray.
    """
    roots, x_arr, scalar = _stationarity_args(kappa, x)
    return unwrap(_ig_stationarity_kernel(*roots, x_arr), scalar)


def ig_prob_deriv(kappa, x):
    """d/dx of the inverse Gaussian curve.

    The factorized form (2x e^{2x^2}/sqrt(2*pi)) * stationarity(x) is
    evaluated with the exponents combined: the product of e^{2x^2} and the
    e^{-a^2/2} inside the stationarity function has exponent
    (2 - (kappa+1)^2/(2*kappa)) x^2 <= 0, so the result stays finite for
    every positive x and kappa (an exponent that overflows to -inf gives 0).
    ``kappa`` and ``x`` may each be a scalar or an ndarray.
    """
    roots, x_arr, scalar = _stationarity_args(kappa, x)
    with np.errstate(over="ignore"):
        decay = np.exp(_ig_exponent(roots[0], x_arr))
    v = 2.0 * x_arr / special.SQRT_TWO_PI * decay * _ig_stationarity_kernel(*roots, x_arr)
    return unwrap(v, scalar)


def ig_peak_coord(kappa: float) -> float:
    """sqrt(kappa/((kappa-1)(kappa+1))), the peak of the stationarity function
    e^{-a^2/2} * ig_stationarity_scaled, whose slope is
    e^{-a^2/2}(1/kappa - kappa + 1/x^2)/sqrt(kappa).

    Only exists for kappa > 1; it upper-bounds the critical coordinate.
    """
    k = _ig_kappa(kappa)
    if k <= 1.0:
        raise RegimeError(
            "the stationarity function has no peak for kappa <= 1; "
            "the curve is strictly decreasing there"
        )
    return math.sqrt(k / ((k - 1.0) * (k + 1.0)))
