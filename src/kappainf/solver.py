"""Exact infima of the probability curves over each family's parameter space.

Regime summary (value, how the infimum is reached):

* inverse Gaussian: kappa < 1 -> 0 and kappa = 1 -> 1/2, both as x -> inf;
  kappa > 1 -> attained at the unique zero x0(kappa) of the stationarity
  function, located by safeguarded root finding inside the guaranteed
  bracket (0, sqrt(kappa/(kappa^2-1))].
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


# Relative bracket width at which _bracketed_root stops, and its iteration cap.
_ROOT_REL_TOL = 1e-14
_ROOT_MAX_ITER = 200


def _bracketed_root(
    f: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float
) -> float:
    """Root of f in (lo, hi) given f_lo < 0 < f_hi, to _ROOT_REL_TOL bracket width.

    Bisection interleaved with secant proposals: the secant point is used
    when it falls safely inside the bracket, and every other iteration takes
    the midpoint, so the bracket provably halves at least every two steps.
    """
    if not (lo < hi and f_lo < 0.0 < f_hi):
        raise NumericalError(
            f"invalid bracket: lo={lo!r} (f={f_lo!r}), hi={hi!r} (f={f_hi!r})"
        )
    for iteration in range(_ROOT_MAX_ITER):
        width = hi - lo
        if width <= _ROOT_REL_TOL * hi:
            break
        if iteration % 2 == 0:
            x = lo + 0.5 * width
        else:
            x = lo - f_lo * width / (f_hi - f_lo)
            margin = 0.01 * width
            if not (lo + margin < x < hi - margin):
                x = lo + 0.5 * width
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
    return 0.5 * (lo + hi)


def ig_critical_point(kappa: float) -> float:
    """The minimizing coordinate x0(kappa) of the inverse Gaussian curve.

    Exists only for kappa > 1.  The rescaled stationarity function is
    positive at the peak coordinate and tends to -inf as x -> 0+, so the
    bracket is built by halving down from the peak; the root is then
    refined to a relative bracket width of 1e-14.
    """
    k = curves._ig_kappa(kappa)
    if k <= 1.0:
        raise RegimeError(
            "no interior critical point exists for kappa <= 1: the curve "
            "decreases strictly toward its limit as the coordinate grows"
        )
    kernel = curves._ig_stationarity_kernel
    sqrt_2k, sqrt_k = curves._sqrt_2k_k(k)

    def f(x: float) -> float:
        # kappa is checked once above and each iterate by the scalar guard:
        # no array validation or 0-d round trip per evaluation
        return float(kernel(k, sqrt_2k, sqrt_k, require_positive("x", x)))

    hi = curves.ig_peak_coord(k)
    f_hi = f(hi)
    if not f_hi > 0.0:
        raise NumericalError(
            f"stationarity not positive at its peak (kappa={k!r}, value={f_hi!r})"
        )
    lo, f_lo = hi, f_hi
    for _ in range(2000):
        lo *= 0.5
        f_lo = f(lo)
        if f_lo < 0.0:
            break
    else:
        raise NumericalError(f"could not find a negative bracket end for kappa={k!r}")
    return _bracketed_root(f, lo, hi, f_lo, f_hi)


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
