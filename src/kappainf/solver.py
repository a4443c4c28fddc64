"""Exact infima of the probability curves over each family's parameter space.

Regime summary (value, how the infimum is reached):

* inverse Gaussian: kappa < 1 -> 0 and kappa = 1 -> 1/2, both as x -> inf;
  kappa > 1 -> attained at the unique zero x0(kappa) of the stationarity
  function, located by safeguarded Newton steps inside the closed-form
  bracket (peak/2, peak], peak = sqrt(kappa/((kappa-1)(kappa+1))).
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
    at_lo: tuple[float, float], at_hi: tuple[float, float],
) -> float:
    """Root of f in (lo, hi], where f(x) gives (value, slope) and at_lo, at_hi
    are f at the ends, with value < 0 at lo and >= 0 at hi (a value of 0 at
    hi returns hi).

    Newton steps, safeguarded as in rtsafe (Numerical Recipes 9.4): a step
    that would leave the bracket, meets a slope <= 0, or is not at most half
    the step before it is replaced by the bracket midpoint, and each new
    value shrinks the bracket.  It starts from the end with the smaller
    |value| and returns the Newton point once a step is at most
    _ROOT_REL_STEP of the iterate.  A step refused by the safeguard while
    below _ROOT_NOISE_STEP is set by the rounding noise of f, not by the
    distance to the root (a converging step of 2^-26 leaves an error of order
    2^-52), so the search ends at the iterate instead of bisecting from the
    far end of a bracket that Newton approached from one side.
    """
    (f_lo, slope_lo), (f_hi, slope_hi) = at_lo, at_hi
    if not (lo < hi and f_lo < 0.0 <= f_hi):
        raise NumericalError(
            f"invalid bracket: lo={lo!r} (f={f_lo!r}), hi={hi!r} (f={f_hi!r})"
        )
    x, fx, slope = (lo, f_lo, slope_lo) if -f_lo < f_hi else (hi, f_hi, slope_hi)
    step = hi - lo
    for _ in range(_ROOT_MAX_ITER):
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
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
    return lo + 0.5 * (hi - lo)


def ig_critical_point(kappa: float) -> float:
    """The minimizing coordinate x0(kappa) of the inverse Gaussian curve.

    Exists only for kappa > 1.  The stationarity is negative below x0 and
    positive from x0 up to peak = ig_peak_coord(kappa), and x0/peak runs from
    y* = 0.612... (kappa -> inf) up to 1 (kappa -> 1+), so (peak/2, peak]
    brackets x0; a peak value that rounds to 0 returns the peak, within 1 ulp
    of x0.  Safeguarded Newton steps on the kernel's value and slope refine
    the root to a few ulp (about 5 evaluations per root, bracket included).
    """
    k = curves._ig_kappa(kappa)
    if k <= 1.0:
        raise RegimeError(
            "no interior critical point exists for kappa <= 1: the curve "
            "decreases strictly toward its limit as the coordinate grows"
        )
    kernel = curves._ig_stationarity_kernel
    sqrt_2k, sqrt_k = curves._sqrt_2k_k(k)

    def f(x: float) -> tuple[float, float]:
        # kappa is checked once above and every iterate lies in the bracket:
        # no validation or 0-d round trip per evaluation
        return kernel(k, sqrt_2k, sqrt_k, x, slope=True)

    hi = curves.ig_peak_coord(k)
    at_hi = f(hi)
    return _safeguarded_newton(f, 0.5 * hi, hi, f(0.5 * hi), at_hi)


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
