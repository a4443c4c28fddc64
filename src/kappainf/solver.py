"""Exact infima of the probability curves over each family's parameter space.

Regime summary (value, how the infimum is reached):

* inverse Gaussian: kappa < 1 -> 0 and kappa = 1 -> 1/2, both as x -> inf;
  kappa > 1 -> attained at the unique zero x0(kappa) of the stationarity
  function, located by plain Newton steps on q - D(s) = 0 in the erfcx
  argument s = (kappa+1)x/sqrt(2*kappa); D is positive, decreasing and
  convex, so the steps need no bracket.
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
from typing import Optional

from . import curves, special
from .distributions import POSITIVE_SUPPORT, Family, _ig_curve, _ig_ratio_limit
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
    the coordinate at all).  Construction and ``dataclasses.replace`` check
    this; ``infimum`` builds its results through ``_result``, which skips
    the checks.
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


def _result(family, kappa, value, attained, argmin=None, limit_direction=None, constant=False):
    """An InfimumResult of fields that ``infimum`` has made valid: its dict is
    filled directly, with no ``__post_init__`` checks and none of the frozen
    class's ``object.__setattr__`` calls (~0.3 us against ~1.5 us).  The
    result is the one the checked constructor makes: equal, with the same
    hash, repr and pickle, and frozen."""
    result = object.__new__(InfimumResult)
    fields = result.__dict__
    fields["family"], fields["kappa"], fields["value"], fields["attained"] = (
        family, kappa, value, attained)
    fields["argmin"], fields["limit_direction"], fields["constant"] = (
        argmin, limit_direction, constant)
    return result


# Newton stops at a step of at most _ROOT_REL_STEP of the iterate (4 ulp), or of
# at most _ROOT_NOISE_STEP of it and not half the step before; its iteration cap.
_ROOT_REL_STEP = 4.0 * sys.float_info.epsilon
_ROOT_NOISE_STEP = 2.0 ** -26
_ROOT_MAX_ITER = 100

# x0*sqrt(kappa-1) falls from 2^-1/2 (kappa -> 1+) to sqrt(2)*s1, D(s1) = 1/2.
_Y_STAR = 0.6120031809624807


def ig_critical_point(kappa: float) -> float:
    """The minimizing coordinate x0(kappa) of the inverse Gaussian curve.

    Exists only for kappa > 1.  In the erfcx argument s = (kappa+1)x/sqrt(2*kappa)
    the stationarity vanishes where q - D(s) = 0, q = (kappa-1)/(2*kappa)
    (``curves._ig_d``).  As erfcx(s) = (2/sqrt(pi)) int_0^inf e^(-t^2-2st) dt,
    D = 2 int_0^inf t e^(-t^2-2st) dt is positive, decreasing and strictly
    convex, so q - D rises, concave, through one zero s0: Newton steps need
    no bracket, as after at most one step they lie left of s0 and rise to it
    (Fourier's condition).  From c*(y* + (2^-1/2 - y*)/kappa), c =
    (kappa+1)/(sqrt(2*kappa)*sqrt(kappa-1)), they take about 3 kernel calls;
    a step below _ROOT_NOISE_STEP that fails to halve the one before is
    rounding noise of D, and ends the search.  x0 = s0*sqrt(2*kappa)/(kappa+1).
    """
    k = _ig_ratio_limit("kappa", require_positive("kappa", kappa))
    if k <= 1.0:
        raise RegimeError(
            "no interior critical point exists for kappa <= 1: the curve "
            "decreases strictly toward its limit as the coordinate grows"
        )
    q = (k - 1.0) / (2.0 * k)
    sqrt_2k = math.sqrt(2.0 * k)
    c = (k + 1.0) / (sqrt_2k * math.sqrt(k - 1.0))  # 2k(k-1) overflows at IG_KAPPA_MAX
    s = c * (_Y_STAR + (math.sqrt(0.5) - _Y_STAR) / k)
    step = math.inf
    for _ in range(_ROOT_MAX_ITER):
        # unchecked: kappa is checked above and every iterate lies near s0
        d, slope = curves._ig_d(s, slope=True)
        delta = (q - d) / -slope
        if abs(2.0 * delta) > abs(step) and abs(delta) <= _ROOT_NOISE_STEP * s:
            break
        if abs(delta) <= _ROOT_REL_STEP * s:
            s -= delta
            break
        step, s = delta, s - delta
    else:
        raise NumericalError(f"Newton steps for the critical point at kappa={k!r} "
                             f"did not converge in {_ROOT_MAX_ITER} iterations")
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
            return _result(family, k, 0.5 if k == 1.0 else 0.0, False,
                           limit_direction=direction)
        if family is Family.INVERSE_GAUSSIAN:
            x0 = ig_critical_point(k)
            value = _ig_curve(k, x0)  # reduced_prob's kernel: both are checked floats
        else:
            x0 = math.sqrt(2.0 * math.log(k))
            value = special.std_normal_cdf(x0)
        return _result(family, k, value, True, argmin=x0)

    if k == 1.0:
        return _result(family, k, _CONSTANT[family], False, constant=True)
    direction = LimitDirection.TO_POS_INF if k < 1.0 else LimitDirection.TO_NEG_INF
    return _result(family, k, 0.0, False, limit_direction=direction)
