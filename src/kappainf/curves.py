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

The curve's stationarity function, rescaled by e^{a^2/2}, depends on kappa
only through q = (kappa-1)/(2*kappa): in the erfcx argument
s = (kappa+1)x/sqrt(2*kappa) it is (sqrt(2)/s)*(q - D(s)), with
D(s) = 1 - sqrt(pi)*s*erfcx(s).  One unchecked kernel, ``_ig_d``, gives D
and its slope; ``ig_stationarity_scaled`` and ``ig_prob_deriv`` reach it
through ``_ig_gap``, which checks their arguments, and the Newton root finder
in ``solver`` calls it on Python floats, once per evaluation.  It forms D
from one rational for the tail of erfcx's continued fraction, in which
nothing cancels at any s, so only q - D does near kappa = 1.

The inverse Gaussian curve, stationarity and critical-point formulas take
kappa up to ``IG_KAPPA_MAX`` = sqrt(DBL_MAX) ~ 1.34e154 (the peak coordinate
multiplies kappa - 1 by kappa + 1) and raise ``DomainError`` above it.  The
limit and its check live beside ``_ig_curve`` in ``distributions``, whose
``cdf`` applies them to t/mu; ``IG_KAPPA_MAX`` is re-exported here.

The reduced coordinate is a plain float, as ``reduce_params`` returns it.
``reduced_prob``, ``ig_stationarity_scaled`` and ``ig_prob_deriv`` take kappa
and the coordinate each as a scalar or an ndarray; the two broadcast against
each other, and every element has exactly the bits of the scalar call.  A
Python-float kappa and coordinate stay Python floats through the checks, the
kernels and ``special``, and the result is a float: no 0-d array, no
``np.errstate`` (float * and / overflow to inf quietly) and no numpy call but
``np.exp``, whose bits the array path shares.  Each formula is written once;
``distributions._wrappers`` picks its numpy wrappers (sqrt, minimum, exp and
the overflow context) once per call, by the argument types.
"""

from __future__ import annotations

import math

import numpy as np

from . import special
from .distributions import (IG_KAPPA_MAX, POSITIVE_SUPPORT, SCALE_NAME, DistParams, Family,
                            _ig_curve, _ig_exponent, _ig_ratio_limit, _ln_phi, _wrappers)
from .errors import (DomainError, RegimeError, finite_array, require_finite, require_positive,
                     unwrap)

__all__ = [
    "reduce_params",
    "reduced_prob",
    "ig_stationarity_scaled",
    "ig_prob_deriv",
    "ig_peak_coord",
]

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
        k = require_positive("kappa", kappa)
        k = _ig_ratio_limit("kappa", k) if ig else k
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


_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

# Generated by tools/fit_special.py, highest degree first: (s + 1)*t2(s) = P(u)/Q(u)
# at u = 1/(1 + s), Q monic (its leading 1 omitted), with equal constant terms:
# (s + 1)*t2 -> 1 as s -> inf.  Worst relative error with these doubles, in exact
# arithmetic, 4.9e-17.
_T2_P = (
    -3.0042286768046287e-07, 1.449386500880158, 2.3906182415959685,
    2.1666453051059102, 1.3649342667451791, 0.6504568909072967,
    0.24295736331838427, 0.0720245754922765, 0.016786765413185585,
    0.0030189619162630135, 0.0003810664610813951, 3.1799135721032894e-05,
)
_T2_Q = (
    2.130544193253695, 2.4334658859696905, 1.9160914140186478,
    1.1392257684755793, 0.5332346667280898, 0.19983128650523846,
    0.06029015392568492, 0.014387101892296444, 0.0026855941587622095,
    0.00034926732536036436, 3.1799135721032894e-05,
)


def _ig_d(s, slope=False):
    """D(s) = 1 - sqrt(pi)*s*erfcx(s), falling from 1 (s -> 0) to 0 (s -> inf),
    and with ``slope`` the pair (D, D'(s)).

    Both come from the tail t2 of the continued fraction (Abramowitz-Stegun
    7.1.14) sqrt(pi)*erfcx(s) = 1/(s + t), t = (1/2)/(s + t2),
    t2 = 1/(s + (3/2)/(s + 2/(s + ...))):

        D = t/(s + t),    D' = -t2/((s + t)(s + t2)),

    with t2 from one rational, (s + 1)*t2 = P(u)/Q(u) at u = 1/(1 + s) in (0, 1]
    (``_T2_P``, ``_T2_Q``).  Every sum adds positive terms, the Horner ones
    too but for P's first, -3.0e-7*u + 1.45, so nothing cancels; the direct
    form loses ~2 log10(s) digits near kappa = 1 (D ~ 1/(2s^2)) and a few
    where D is 0.05-0.25.  Against 40-digit mpmath, D is within 3.7e-16
    relative on 4,500 geometric s in [1e-3, 1e8] and 4.1e-16 on 20,000
    random ones, and D' within 1.1e-15.

    No validation: s >= 0, +inf giving 0.  A float gives floats and an
    ndarray an array: the one expression applies its operations in the same
    order to both, so each entry has the bits of the float call.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = _T2_P
    b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11 = _T2_Q
    u = 1.0 / (1.0 + s)
    p = ((((((((((a0 * u + a1) * u + a2) * u + a3) * u + a4) * u + a5) * u + a6) * u + a7) * u
           + a8) * u + a9) * u + a10) * u + a11
    q = ((((((((((u + b1) * u + b2) * u + b3) * u + b4) * u + b5) * u + b6) * u + b7) * u
           + b8) * u + b9) * u + b10) * u + b11
    t2 = u * (p / q)
    t = 0.5 / (s + t2)
    d = t / (s + t)
    return (d, -t2 / ((s + t) * (s + t2))) if slope else d


def _ig_gap(kappa, x):
    """(k, x, h, was_scalar): kappa and x checked, and h = (x/s)*(q - D(s)) at
    the erfcx argument s = (k+1)x/sqrt(2k).

    x/s is exactly sqrt(2k)/(k+1), so h = (k-1)/((k+1)sqrt(2k)) - D*sqrt(2k)/(k+1)
    needs no division by s, and unlike q = (k-1)/(2k) its terms stay finite
    for every k > 0 (|h| <= 1/sqrt(2k)).  math.sqrt and np.sqrt are both
    correctly rounded, so scalar and array kappa agree; s >= sqrt(2)*x > 0,
    since k + 1 >= 2*sqrt(k).  The checks: kappa in the inverse Gaussian
    range, x > 0, and s finite (at s = inf, D = 0 would silently drop the
    1/x behaviour of the scaled stationarity sqrt(2)*h/x).
    """
    k, x_arr, scalar = _checked_args(kappa, "x", x, positive=True, ig=True)
    sqrt, _, _, quiet = _wrappers(k, x_arr)
    sqrt_2k = sqrt(2.0 * k)
    with quiet:
        s = (k + 1.0) * x_arr / sqrt_2k
    if not (math.isfinite(s) if type(s) is float else np.isfinite(s).all()):
        raise DomainError(f"x is too large for kappa={k!r}: (kappa+1)*x/sqrt(2*kappa) "
                          f"overflows, got {x!r}")
    return k, x_arr, (k - 1.0) / (k + 1.0) / sqrt_2k - sqrt_2k / (k + 1.0) * _ig_d(s), scalar


def reduce_params(params: DistParams) -> float:
    """The family's reduced coordinate of native parameters, as a float; raises
    DomainError, naming its formula, if it underflows to 0 (positive families)
    or overflows."""
    family = params.family
    if family is Family.INVERSE_GAUSSIAN:
        name, coord = "sqrt(lambda/mu)", math.sqrt(params.p2 / params.p1)
    elif family is Family.LOG_NORMAL:
        name, coord = "sigma", params.p2
    else:
        name, coord = "mu/beta", params.p1 / params.p2
    check = require_positive if family in POSITIVE_SUPPORT else require_finite
    try:
        return check("coord", coord)
    except DomainError as exc:
        raise DomainError(f"{exc} (coord = {name} at mu={params.p1!r}, "
                          f"{SCALE_NAME[family]}={params.p2!r})") from None


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
    else:
        _, _, exp, quiet = _wrappers(k, x)
        with quiet:
            if family is Family.GUMBEL:
                p = exp(-exp(-((k - 1.0) * x + k * special.EULER_GAMMA)))
            else:
                p = special._expit((k - 1.0) * x)
    return unwrap(p, scalar)


def ig_stationarity_scaled(kappa, x):
    """e^{a^2/2}-rescaled stationarity function: same zeros and signs.

    Equals 2*sqrt(pi/2)*erfcx(s) - 1/(sqrt(kappa)*x), s = (kappa+1)x/sqrt(2*kappa),
    which is (sqrt(2)/s)*(q - D(s)) with q = (kappa-1)/(2*kappa) (``_ig_d``),
    evaluated as sqrt(2)*h/x with h = (x/s)*(q - D(s)) from ``_ig_gap``.
    Unlike the plain function it neither overflows nor underflows, so root
    finding can bracket it at any x; as x -> inf it tends to 0 with the sign
    of kappa - 1, and where it lies below -DBL_MAX (x -> 0+) it is -inf.
    ``kappa`` and ``x`` may each be a scalar or an ndarray.
    """
    _, x_arr, h, scalar = _ig_gap(kappa, x)
    with _wrappers(h, x_arr)[3]:
        return unwrap(special.SQRT_TWO * h / x_arr, scalar)


def ig_prob_deriv(kappa, x):
    """d/dx of the inverse Gaussian curve.

    The factorized form (2x e^{2x^2}/sqrt(2*pi)) * stationarity(x) is
    evaluated with the exponents combined: the product of e^{2x^2} and the
    e^{-a^2/2} inside the stationarity function has exponent
    (2 - (kappa+1)^2/(2*kappa)) x^2 <= 0, and x times the scaled
    stationarity is sqrt(2)*h (``_ig_gap``), so the derivative is
    (2/sqrt(pi)) * e^{...} * h.  It stays finite for every positive x and
    kappa, with the limit -sqrt(2/(pi*kappa)) as x -> 0+ (an exponent that
    overflows to -inf gives 0).  ``kappa`` and ``x`` may each be a scalar or
    an ndarray.
    """
    k, x_arr, h, scalar = _ig_gap(kappa, x)
    _, _, exp, quiet = _wrappers(k, x_arr)
    with quiet:
        decay = exp(_ig_exponent(k, x_arr))
    return unwrap(_TWO_OVER_SQRT_PI * decay * h, scalar)


def ig_peak_coord(kappa: float) -> float:
    """sqrt(kappa/((kappa-1)(kappa+1))), the peak of the stationarity function
    e^{-a^2/2} * ig_stationarity_scaled, whose slope is
    e^{-a^2/2}(1/kappa - kappa + 1/x^2)/sqrt(kappa).

    Only exists for kappa > 1; it upper-bounds the critical coordinate.
    """
    k = _ig_ratio_limit("kappa", require_positive("kappa", kappa))
    if k <= 1.0:
        raise RegimeError(
            "the stationarity function has no peak for kappa <= 1; "
            "the curve is strictly decreasing there"
        )
    return math.sqrt(k / ((k - 1.0) * (k + 1.0)))
