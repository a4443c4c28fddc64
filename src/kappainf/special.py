"""Standard-normal CDF, the unchecked special-function kernels, constants.

The one module that imports scipy: erfc, erfcx, the logistic sigmoid and
the normal quantile reach the rest of the package only through the
unchecked kernels ``_phi``, ``_erfcx``, ``_expit`` and ``_ndtri``, which the
curve kernels call on arguments their public entry has already checked.

The normal CDF is *defined* through erfc, so it carries the tightest
accuracy contract in the package (<= 1e-13 relative); ``std_normal_cdf`` is
its checked public entry.  All functions accept a scalar or an ndarray and
are pure.
"""

from __future__ import annotations

import math

import scipy.special as _sc

from .errors import finite_array, unwrap

__all__ = [
    "EULER_GAMMA",
    "std_normal_cdf",
]

# Euler-Mascheroni constant, fixed to 16 digits (a constant, not a tunable).
EULER_GAMMA = 0.5772156649015329

SQRT_TWO = math.sqrt(2.0)

# Unchecked kernels, bound as scipy's ufuncs themselves (no wrapper, same bits):
# erfcx(z) = e^{z^2} erfc(z), expit(z) = 1/(1 + e^{-z}), ndtri = Phi^{-1}.
_erfcx = _sc.erfcx
_expit = _sc.expit
_ndtri = _sc.ndtri


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
