"""The four distribution families: parameters, moments, densities, sampling.

Pointwise functions (``cdf``, ``pdf``) accept a scalar or an ndarray of
evaluation points.  ``sample`` is deterministic per (params, n, seed): the
seed feeds a ``numpy.random.Generator`` (PCG64 via ``default_rng``, i.e. the
stream is derived from the seed through ``SeedSequence``), and each family
uses a fixed transformation of that stream:

* log-normal: exp(mu + sigma*z) of standard normals z;
* Gumbel, logistic: inverse-CDF transform of uniforms;
* inverse Gaussian: the Michael-Schucany-Haas transformation (Amer. Statist.
  30, 1976): a chi-square variate, the smaller root of the defining
  quadratic in a form that nothing cancels, then a uniform to pick between
  the root and its conjugate, since this CDF has no closed-form inverse.

Each block of 65,536 draws is a standard draw of the family (the inverse
Gaussian's normals, then its uniforms; the log-normal's normals; the
parameter-free part of the Gumbel and logistic transforms) and a transform
per member, so members drawn from one seed share one stream (``_draw_blocks``:
``sample`` picks its inverse Gaussian draws, ``_count_below`` counts them).
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from enum import Enum, EnumMeta

import numpy as np

from . import special
from .errors import (DomainError, finite_array, require_count, require_finite,
                     require_positive, unwrap)

__all__ = ["Family", "DistParams", "mean", "cdf", "pdf", "sample"]


class _FamilyMeta(EnumMeta):
    def __call__(cls, value, *args, **kwargs):  # a member as it is: no ~0.8 us Enum lookup
        return value if type(value) is cls else super().__call__(value, *args, **kwargs)


class Family(str, Enum, metaclass=_FamilyMeta):
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
    log-normal mean that overflows or is not a normal float (below DBL_MIN,
    where it keeps fewer than 53 bits), or a Gumbel mean that overflows, is a
    DomainError."""
    p1, p2 = params.p1, params.p2
    if params.family is Family.INVERSE_GAUSSIAN:
        return p1
    if params.family is Family.LOG_NORMAL:
        log_mean = p1 + 0.5 * p2 * p2
        try:
            m = math.exp(log_mean)
        except OverflowError:
            m = math.inf
        if not sys.float_info.min <= m < math.inf:
            raise DomainError(f"exp(mu + sigma^2/2) is not a normal positive float: "
                              f"mu + sigma^2/2 = {log_mean!r}")
        return m
    if params.family is Family.GUMBEL:
        m = p1 + p2 * special.EULER_GAMMA
        if m == math.inf:
            raise DomainError(f"mu + beta*gamma overflows: mu={p1!r}, beta={p2!r}")
        return m
    return p1


# Largest ratio (kappa or t/mu) the inverse Gaussian formulas take: beyond it
# the (ratio-1)(ratio+1) of the stationarity peak overflows, and the curve and
# cdf keep the same domain.
IG_KAPPA_MAX = math.sqrt(sys.float_info.max)


def _ig_ratio_limit(name: str, largest: float) -> float:
    """The largest value of a ratio, returned if it is <= IG_KAPPA_MAX, else a
    DomainError (a plain float comparison, so scalars pay no array conversion)."""
    if largest > IG_KAPPA_MAX:
        raise DomainError(
            f"{name} must be <= {IG_KAPPA_MAX!r} for the inverse Gaussian family "
            f"(its formulas square {name} + 1), got {largest!r}"
        )
    return largest


# A kernel takes its numpy wrappers (sqrt, minimum, exp, overflow context) from
# ``_wrappers``, once per call, and writes each formula once.  Python floats need
# no numpy call but np.exp, whose bits set the results, and no np.errstate: float
# * and / overflow to inf quietly, and math.sqrt rounds as np.sqrt does.
_LOG_MAX = math.log(sys.float_info.max)  # np.exp is finite up to here, inf above


def _exp_float(w: float) -> float:
    """np.exp(w) as a float, inf without a warning where it overflows."""
    return math.inf if w > _LOG_MAX else float(np.exp(w))


_FLOAT_WRAPPERS = (math.sqrt, min, _exp_float, contextlib.nullcontext())


def _wrappers(a, b):
    """The wrappers for a kernel's arguments a and b: the plain float ones when
    both are Python floats, else numpy's, under np.errstate(over="ignore")."""
    if type(a) is float and type(b) is float:
        return _FLOAT_WRAPPERS
    return np.sqrt, np.minimum, np.exp, np.errstate(over="ignore")


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
    sqrt, minimum, exp, quiet = _wrappers(ratio, x)
    with quiet:
        term1 = special._phi((ratio - 1.0) * x / sqrt(ratio))
        carrier = special._erfcx((ratio + 1.0) * x / sqrt(2.0 * ratio))
        return minimum(term1 + 0.5 * exp(_ig_exponent(ratio, x)) * carrier, 1.0)


def _ln_phi(u, sigma, shift=0.0):
    """Phi(u/sigma + shift), the log-normal curve and CDF, unchecked.  u/sigma
    overflows for tiny sigma; Phi(+-inf) is exactly 1 or 0, the true limit."""
    with _wrappers(u, sigma)[3]:
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


def _ln_exponent(log_t, p1, p2):
    """(log t - mu)^2/(2 sigma^2), the log-normal log-density's exponent.

    Formed as written where 2*sigma^2 is a normal float.  Where it is not (it
    underflows, or overflows to inf), as z*z/2 with z = (log t - mu)/sigma
    first: the written form is 0/0 there where log t = mu, x/0 or inf/inf
    elsewhere.  An exponent that overflows is inf, where the density is 0.
    """
    two_var = 2.0 * p2 * p2
    normal = (two_var >= sys.float_info.min) & (two_var < math.inf)
    if np.all(normal):
        with np.errstate(over="ignore"):
            return (log_t - p1) ** 2 / two_var
    with np.errstate(all="ignore"):  # the written form's 0/0 and x/0 are discarded
        z = (log_t - p1) / p2
        return np.where(normal, (log_t - p1) ** 2 / two_var, 0.5 * z * z)


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
        with np.errstate(over="ignore"):  # a density above DBL_MAX rounds to inf
            r = (t - p1) / p1
            log_pdf = 0.5 * (log_p2 - _LOG_2PI) - 1.5 * np.log(t) - p2 * (r * (r / t)) / 2.0
            return np.exp(log_pdf)
    if family is Family.LOG_NORMAL:
        log_t = np.log(t)
        log_pdf = -log_p2 - 0.5 * _LOG_2PI - log_t - _ln_exponent(log_t, p1, p2)
        with np.errstate(over="ignore"):  # a density above DBL_MAX rounds to inf
            return np.exp(log_pdf)
    # Gumbel and logistic: an overflowing z is an inf, and the density there
    # is 0.  z is clamped at -709, where exp(-z) is still finite, so that
    # -z - exp(-z) is never inf - inf; below it the density is exp(< -8e307) = 0
    # anyway.  A density above DBL_MAX (scale below ~2e-309) rounds to inf.
    with np.errstate(over="ignore"):
        if family is Family.GUMBEL:
            z = np.maximum((t - p1) / p2, -709.0)
            return np.exp(-log_p2 - z - np.exp(-z))
        e = np.exp(-(np.abs(t - p1) / p2))
        return e / (p2 * (1.0 + e) ** 2)


def pdf(params: DistParams, t):
    """Density at t.  Positive-support families reject t <= 0."""
    t_arr, scalar = finite_array("t", t, positive=params.family in POSITIVE_SUPPORT)
    out = _density(params.family, t_arr, params.p1, params.p2, math.log(params.p2))
    return unwrap(out, scalar)


# Length of the samplers' blocks and of their buffers.
_CHUNK = 65_536
# The inverse Gaussian sampler's domain.  Its draws are mu/d and mu*d, with
# d < (mu/lambda)*z^2 + 2 < 1e102 where |z| < 10 (beyond: 1.5e-23), so both are
# normal floats inside the range of ``cdf``, which a DKW test checks them against.
_IG_SAMPLE_MU = (math.sqrt(sys.float_info.min), IG_KAPPA_MAX)
_IG_SAMPLE_RATIO_MAX = 1e100
# The log-normal sampler's domain: exp(mu + sigma*z) is a normal float for
# |z| <= 10 (beyond: 1.5e-23), as np.exp(w) >= DBL_MIN exactly where
# w >= _LOG_MIN and is finite where w <= _LOG_MAX.
_LOG_MIN = math.log(sys.float_info.min)
# The Gumbel and logistic standard draws z = -log(-log u) and log(u) - log1p(-u)
# at the samplers' extreme uniforms 5e-324 and 1 - 2^-53, through their ufuncs:
# [-6.61, 36.74] and [-744.44, 36.74].  A member's draws are mu + beta*z, and as
# rounding is monotone they lie between its draws at these ends.
_U_ENDS = np.array([5e-324, 1.0 - 2.0**-53])
_STANDARD_ENDS = {Family.GUMBEL: (-np.log(-np.log(_U_ENDS))).tolist(),
                  Family.LOGISTIC: (np.log(_U_ENDS) - np.log1p(-_U_ENDS)).tolist()}


def _check_sampler(params: DistParams) -> None:
    """A DomainError unless every draw of ``params`` is a float inside its
    support (for the log-normal and inverse Gaussian, a normal float for
    standard normals |z| <= 10)."""
    family, p1, p2 = params.family, params.p1, params.p2
    if family is Family.INVERSE_GAUSSIAN:
        lo, hi = _IG_SAMPLE_MU
        if not (lo <= p1 <= hi and p1 / p2 <= _IG_SAMPLE_RATIO_MAX):
            raise DomainError(f"the inverse Gaussian sampler takes {lo!r} <= mu <= {hi!r} and "
                              f"mu/lambda <= {_IG_SAMPLE_RATIO_MAX:g}, "
                              f"got mu={p1!r}, lambda={p2!r}")
    elif family is Family.LOG_NORMAL:
        if not (_LOG_MIN <= p1 - 10.0 * p2 and p1 + 10.0 * p2 <= _LOG_MAX):
            raise DomainError(f"the log-normal sampler takes {_LOG_MIN!r} <= mu - 10*sigma and "
                              f"mu + 10*sigma <= {_LOG_MAX!r}, got mu={p1!r}, sigma={p2!r}")
    else:
        lo, hi = _STANDARD_ENDS[family]
        if p1 + p2 * lo == -math.inf or p1 + p2 * hi == math.inf:
            raise DomainError(f"the {family.value} sampler takes mu + beta*z finite for its "
                              f"standard draws z in [{lo!r}, {hi!r}], got mu={p1!r}, beta={p2!r}")


def _buffer(store: dict, name: str, size: int, dtype=float) -> np.ndarray:
    """``size`` entries of ``store``'s buffer ``name``, made (longer) on demand."""
    buf = store.get(name)
    if buf is None or buf.size < size:
        buf = store[name] = np.empty(size, dtype)
    return buf[:size]


def _draw_blocks(members: list, n: int, seed: int, store: dict, out: np.ndarray | None = None):
    """Yield (i, x, odds) for each block of at most _CHUNK draws and each
    member i.  For the inverse Gaussian, x is the block's d >= 1 and odds its
    u/(1 - u): the draws are mu/d where odds <= d and mu*d elsewhere (``sample``
    picks them, ``_count_below`` counts them); for the other families x holds
    the draws and odds is None.
    x is in ``store``'s buffers, which the next step overwrites, or in ``out``
    (from ``sample``).  n is unchecked; the seed and domains are checked on
    the first step.  The steps keep the plain formulas' order (in the
    comments), so the draws keep their bits whatever the blocks."""
    rng = np.random.default_rng(require_count("seed", seed))
    for params in members:
        _check_sampler(params)
    family, size = members[0].family, min(n, _CHUNK)
    for s in range(0, n, _CHUNK):
        m = min(n - s, _CHUNK)
        w = _buffer(store, "w", size)[:m]
        x = _buffer(store, "x", size)[:m] if out is None else out[s:s + m]
        # the block's standard draws, shared by the members
        odds = None
        if family is Family.INVERSE_GAUSSIAN:
            rng.standard_normal(out=w)
            w *= w  # y = z^2, chi-square
            odds = _buffer(store, "u", size)[:m]
            rng.random(out=odds)
            np.subtract(1.0, odds, out=x)
            odds /= x  # u/(1 - u)
        elif family is Family.LOG_NORMAL:
            rng.standard_normal(out=w)
        else:
            rng.random(out=w)
            np.maximum(w, 5e-324, out=w)  # keep inverse transforms finite
            if family is Family.GUMBEL:
                np.log(w, out=w)
                np.negative(w, out=w)
                np.log(w, out=w)
            else:
                np.negative(w, out=x)
                np.log1p(x, out=x)
                np.log(w, out=w)
                w -= x
        for i, params in enumerate(members):
            p1, p2 = params.p1, params.p2
            if family is not Family.INVERSE_GAUSSIAN:
                np.multiply(w, p2, out=x)
            if family is Family.LOG_NORMAL:
                x += p1
                np.exp(x, out=x)  # exp(p1 + p2*z)
            elif family is Family.GUMBEL:
                np.subtract(p1, x, out=x)  # p1 - p2*log(-log(u))
            elif family is Family.LOGISTIC:
                x += p1  # p1 + p2*(log(u) - log1p(-u))
            else:
                b, c = _buffer(store, "b", m), _buffer(store, "c", m)
                np.multiply(w, 0.5 * p1 / p2, out=x)  # x = p1*y/(2*p2)
                np.add(x, 2.0, out=b)
                np.sqrt(b, out=b)
                np.sqrt(x, out=c)
                c *= b
                x += 1.0
                x += c  # d = 1 + x + sqrt(x)*sqrt(x + 2); the roots are p1/d and p1*d
            yield i, x, odds


def _count_below(members: list, t_end: list, n: int, seed: int, store: dict) -> list[int]:
    """How many of ``sample(members[i], n, seed)`` are <= t_end[i], per member
    i, from one pass over the family's stream with block buffers in ``store``.

    Inverse Gaussian draws are counted without being picked.  Each is
    fl(mu/d) where odds <= d, else fl(mu*d), with d >= 1; as rounding is
    monotone, fl(mu/d) <= mu <= fl(mu*d).  So at t >= mu every mu/d counts
    and a mu*d counts where fl(mu*d) <= t, and at t < mu no mu*d counts and
    a mu/d counts where fl(mu/d) <= t: the count of the draws."""
    hits = [0] * len(members)
    for i, x, odds in _draw_blocks(members, n, seed, store):
        t, below = t_end[i], _buffer(store, "below", x.size, bool)
        if odds is None:
            np.less_equal(x, t, out=below)
        else:
            p1, root = members[i].p1, _buffer(store, "b", x.size)
            also = _buffer(store, "also", x.size, bool)
            np.less_equal(odds, x, out=below)  # the draw is p1/d
            if t >= p1:
                np.less_equal(np.multiply(p1, x, out=root), t, out=also)
                below |= also
            else:
                np.less_equal(np.divide(p1, x, out=root), t, out=also)
                below &= also
        hits[i] += np.count_nonzero(below)
    return hits


def sample(params: DistParams, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws; identical output for identical (params, n, seed)."""
    out, store = np.empty(require_count("n", n)), {}
    for _, x, odds in _draw_blocks([params], out.size, seed, store, out):
        if odds is not None:
            # p1/d is kept where u <= p1/(p1 + p1/d), i.e. odds <= d
            keep, root = _buffer(store, "keep", x.size, bool), _buffer(store, "b", x.size)
            np.less_equal(odds, x, out=keep)
            np.divide(params.p1, x, out=root)
            x *= params.p1
            np.copyto(x, root, where=keep)
    return out
