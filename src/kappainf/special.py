"""Standard-normal CDF and scaled complementary error function.

Everything downstream is built on these two functions, so they carry the
tightest accuracy contracts in the package (<= 1e-13 relative).  They are
thin, domain-checked wrappers over the scipy.special kernels: the normal CDF
is *defined* through erfc so the two can never disagree, and erfcx is the
overflow-free carrier used wherever a huge exp() multiplies a Gaussian tail.

All functions accept a scalar or an ndarray and are pure.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special as _sc

from .errors import DomainError, finite_array, unwrap

__all__ = [
    "EULER_GAMMA",
    "SQRT_HALF_PI",
    "SQRT_TWO_PI",
    "std_normal_cdf",
    "erfcx",
]

# Euler-Mascheroni constant, fixed to 16 digits (a constant, not a tunable).
EULER_GAMMA = 0.5772156649015329

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)  # integral of e^{-t^2/2} over [0, inf)
SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def std_normal_cdf(z):
    """Distribution function of the standard normal.

    Defined as erfc(-z/sqrt(2))/2.  Arguments may be arbitrarily large:
    beyond |z| ~ 38.6 the tail is below the smallest subnormal and the
    result saturates to exactly 0 or 1.
    """
    z_arr, scalar = finite_array("z", z)
    p = 0.5 * _sc.erfc(-z_arr / np.sqrt(2.0))
    return unwrap(np.clip(p, 0.0, 1.0), scalar)


def erfcx(z):
    """Scaled complementary error function e^{z^2} erfc(z) for z >= 0.

    Strictly decreasing from erfcx(0) = 1 toward 0, with values in (0, 1];
    no overflow or underflow anywhere on the domain.
    """
    z_arr, scalar = finite_array("z", z)
    if np.any(z_arr < 0.0):
        raise DomainError(f"erfcx argument must be >= 0, got {z!r}")
    return unwrap(_sc.erfcx(z_arr), scalar)

