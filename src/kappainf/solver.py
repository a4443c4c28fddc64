"""Exact infima of the probability curves over each family's parameter space.

Regime summary (value, how the infimum is reached):

* inverse Gaussian: kappa < 1 -> 0 and kappa = 1 -> 1/2, both as x -> inf;
  kappa > 1 -> attained at the unique zero x0(kappa) of the stationarity
  function, located by safeguarded Newton steps on q - D(s) = 0 in the
  erfcx argument s = (kappa+1)x/sqrt(2*kappa), inside the closed-form
  bracket x0*sqrt(kappa-1) in [pi^-1/2, 2^-1/2] (Abramowitz-Stegun 7.1.13).
* log-normal: kappa < 1 -> 0 and kappa = 1 -> 1/2, both as sigma -> 0+;
  kappa > 1 -> attained at sigma = sqrt(2 ln kappa) with value
  Phi(sqrt(2 ln kappa)) > 1/2.
* Gumbel: 0 as x -> +inf (kappa < 1) or x -> -inf (kappa > 1); at kappa = 1
  the curve is identically exp(-exp(-gamma)).
* logistic: 0 as y -> +inf (kappa < 1) or y -> -inf (kappa > 1); at
  kappa = 1 the curve is identically 1/2.

Limit infima are reported exactly (0, 1/2, or the constant), never as a
numerical approximation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from . import curves, special
from .distributions import POSITIVE_SUPPORT, Family
from .errors import NumericalError, RegimeError, require_positive

__all__ = ["LimitDirection", "InfimumResult", "ig_critical_point", "infimum"]


class LimitDirection(str, Enum):
    """Boundary of the coordinate space where a non-attained infimum lives."""

    TO_ZERO = "coord->0+"
    TO_POS_INF = "coord->+inf"
    TO_NEG_INF = "coord->-inf"


@dataclass(frozen=True)
class InfimumResult:
    """Infimum of one curve, with how it is realized.

    Exactly one of three shapes holds: attained (argmin present), a limit
    (limit_direction present), or constant (the curve does not depend on
    the coordinate at all).
    """

    family: Family
    kappa: float
    value: float
    attained: bool
    argmin: Optional[float] = None
    limit_direction: Optional[LimitDirection] = None
    constant: bool = False

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"infimum value must be a probability, got {self.value!r}")
        if self.attained != (self.argmin is not None):
            raise ValueError("argmin must be present exactly when attained")
        if self.attained or self.constant:
            if self.limit_direction is not None:
                raise ValueError("limit_direction only applies to non-attained, non-constant results")
        elif self.limit_direction is None:
            raise ValueError("non-attained, non-constant results need a limit_direction")
        if self.constant and self.attained:
            raise ValueError("constant curves are reported as non-attained")


# _safeguarded_newton stops once a Newton step moves the iterate by at most
# _ROOT_REL_STEP of it (4 ulp), or once its safeguard refuses a step below
# _ROOT_NOISE_STEP of it; its iteration cap.
_ROOT_REL_STEP = 4.0 * sys.float_info.epsilon
_ROOT_NOISE_STEP = 2.0 ** -26
_ROOT_MAX_ITER = 100


def _safeguarded_newton(
    f: Callable[[float], tuple[float, float]], lo: float, hi: float,
    x: float, at_x: tuple[float, float],
) -> float:
    """Root of f in [lo, hi], where f(x) gives (value, slope), the value is
    < 0 at lo and >= 0 at hi, and the search starts at x in [lo, hi] with
    at_x = f(x) (a value of 0 returns that point).

    Newton steps, safeguarded as in rtsafe (Numerical Recipes 9.4): a step
    that would leave the bracket, meets a slope <= 0, or is not at most half
    the step before it is replaced by the bracket midpoint, and each new
    value shrinks the bracket.  It returns the Newton point once a step is
    at most _ROOT_REL_STEP of the iterate.  A step refused by the safeguard
    while below _ROOT_NOISE_STEP is set by the rounding noise of f, not by
    the distance to the root (a converging step of 2^-26 leaves an error of
    order 2^-52), so the search ends at the iterate instead of bisecting
    from the far end of a bracket that Newton approached from one side.
    """
    if not (lo < hi and lo <= x <= hi):
        raise NumericalError(f"invalid bracket: lo={lo!r}, hi={hi!r}, start={x!r}")
    fx, slope = at_x
    step = hi - lo
    for _ in range(_ROOT_MAX_ITER):
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
        delta = fx / slope if slope > 0.0 else math.inf
        newton = x - delta
        if lo < newton < hi and abs(2.0 * delta) <= abs(step):
            if abs(delta) <= _ROOT_REL_STEP * x:
                return newton
            step, x = delta, newton
        elif abs(delta) <= _ROOT_NOISE_STEP * x:
            return x
        else:
            mid = lo + 0.5 * (hi - lo)
            if mid in (lo, hi):
                return mid
            step, x = x - mid, mid
        fx, slope = f(x)
    return lo + 0.5 * (hi - lo)


# x0*sqrt(kappa-1) falls from 2^-1/2 (kappa -> 1+) to _Y_STAR (kappa -> inf),
# where _Y_STAR = sqrt(2)*s1 and D(s1) = 1/2; the A-S 7.1.13 bounds on erfcx
# put it in [pi^-1/2, 2^-1/2].  The upper end gets 4 ulp of slack against the
# rounding of c and D next to kappa = 1, where the root lies at that end.
_Y_STAR = 0.6120031809624807
_SQRT_HALF = math.sqrt(0.5)
_Y_LO = 1.0 / math.sqrt(math.pi)
_Y_HI = _SQRT_HALF * (1.0 + 4.0 * sys.float_info.epsilon)


def ig_critical_point(kappa: float) -> float:
    """The minimizing coordinate x0(kappa) of the inverse Gaussian curve.

    Exists only for kappa > 1.  In the erfcx argument s = (kappa+1)x/sqrt(2*kappa)
    the stationarity vanishes where q - D(s) = 0, q = (kappa-1)/(2*kappa)
    (``curves._ig_d``), and q - D rises through its one zero.  With
    c = (kappa+1)/(sqrt(2*kappa)*sqrt(kappa-1)), the zero s0 lies in
    c*[pi^-1/2, 2^-1/2] (slightly widened), and safeguarded Newton steps
    on D's value and slope refine it from c*(y* + (2^-1/2 - y*)/kappa) to a
    few ulp (about 3 kernel calls per root).  x0 = s0*sqrt(2*kappa)/(kappa+1).
    """
    k = curves._ig_kappa(kappa)
    if k <= 1.0:
        raise RegimeError(
            "no interior critical point exists for kappa <= 1: the curve "
            "decreases strictly toward its limit as the coordinate grows"
        )
    d = curves._ig_d
    q = (k - 1.0) / (2.0 * k)

    def f(s: float) -> tuple[float, float]:
        # kappa is checked once above and every iterate lies in the bracket:
        # no validation or 0-d round trip per evaluation
        value, slope = d(s, slope=True)
        return q - value, -slope

    sqrt_2k = math.sqrt(2.0 * k)
    c = (k + 1.0) / (sqrt_2k * math.sqrt(k - 1.0))  # 2k(k-1) overflows at IG_KAPPA_MAX
    s = c * (_Y_STAR + (_SQRT_HALF - _Y_STAR) / k)
    s = _safeguarded_newton(f, c * _Y_LO, c * _Y_HI, s, f(s))
    return s * sqrt_2k / (k + 1.0)


# The kappa = 1 value of the Gumbel and logistic curves, constant in the coordinate.
_CONSTANT = {Family.GUMBEL: math.exp(-math.exp(-special.EULER_GAMMA)), Family.LOGISTIC: 0.5}


def infimum(family: Family, kappa: float) -> InfimumResult:
    """Infimum of P(X <= kappa*E[X]) over the family's parameter space."""
    family = Family(family)
    k = require_positive("kappa", kappa)

    if family in POSITIVE_SUPPORT:
        if k <= 1.0:
            direction = (LimitDirection.TO_POS_INF if family is Family.INVERSE_GAUSSIAN
                         else LimitDirection.TO_ZERO)
            return InfimumResult(family, k, 0.5 if k == 1.0 else 0.0, False,
                                 limit_direction=direction)
        if family is Family.INVERSE_GAUSSIAN:
            x0 = ig_critical_point(k)
            value = curves.reduced_prob(family, k, x0)
        else:
            x0 = math.sqrt(2.0 * math.log(k))
            value = special.std_normal_cdf(x0)
        return InfimumResult(family, k, value, True, argmin=x0)

    if k == 1.0:
        return InfimumResult(family, k, _CONSTANT[family], False, constant=True)
    direction = LimitDirection.TO_POS_INF if k < 1.0 else LimitDirection.TO_NEG_INF
    return InfimumResult(family, k, 0.0, False, limit_direction=direction)
