"""Standard-normal CDF and the package's constants.

The normal CDF is *defined* through erfc, so it carries the tightest
accuracy contract in the package (<= 1e-13 relative).  ``std_normal_cdf`` is
the checked public entry; the curve kernels, whose arguments their own
public entry has already checked, call the unchecked ``_phi`` and
``scipy.special.erfcx`` directly.

All functions accept a scalar or an ndarray and are pure.
"""

from __future__ import annotations

import math

import scipy.special as _sc

from .errors import finite_array, unwrap

__all__ = [
    "EULER_GAMMA",
    "SQRT_HALF_PI",
    "SQRT_TWO_PI",
    "std_normal_cdf",
]

# Euler-Mascheroni constant, fixed to 16 digits (a constant, not a tunable).
EULER_GAMMA = 0.5772156649015329

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)  # integral of e^{-t^2/2} over [0, inf)
SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
SQRT_TWO = math.sqrt(2.0)


def _phi(z):
    """Phi(z) = erfc(-z/sqrt(2))/2, unchecked: a float or an ndarray, +-inf
    allowed (giving exactly 1 or 0).  erfc lies in [0, 2], so no clip."""
    return 0.5 * _sc.erfc(-z / SQRT_TWO)


def std_normal_cdf(z):
    """Distribution function of the standard normal.

    Defined as erfc(-z/sqrt(2))/2.  Arguments may be arbitrarily large:
    beyond |z| ~ 38.6 the tail is below the smallest subnormal and the
    result saturates to exactly 0 or 1.
    """
    z_arr, scalar = finite_array("z", z)
    return unwrap(_phi(z_arr), scalar)
