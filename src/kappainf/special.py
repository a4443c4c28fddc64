"""Standard-normal CDF, the unchecked special-function kernels, constants.

Phi, erfcx and the logistic sigmoid are computed here, with numpy; they
reach the rest of the package only through the unchecked kernels ``_phi``,
``_erfcx`` and ``_expit``, which the curve kernels call on arguments their
public entry has already checked.

Phi = erfc(-z/sqrt(2))/2 and erfcx are the piecewise forms of W. J. Cody
(Math. Comp. 23, 1969): an odd polynomial for erf below |x| = 1/2 (piece A,
for Phi only), a rational function for erfcx below 4 (B) and a rational
function in 1/x^2 beyond (C); ``tools/fit_special.py`` fits their
coefficients in 40-digit mpmath.  Each piece is written once, as one plain
expression that takes a float or an array: numpy applies its operations in
the same order to an array as Python does to a float, so a float and an
array entry give the same bits.

The normal CDF carries the tightest accuracy contract in the package
(<= 1e-13 relative; against 40-digit references Phi and erfcx measured at
most 7.8e-16 over 7,000 random arguments); ``std_normal_cdf`` is its
checked public entry; a Python float argument is checked and computed as a
float, without a 0-d array.  All functions accept a scalar or an ndarray and
are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import finite_array, require_finite

__all__ = [
    "EULER_GAMMA",
    "std_normal_cdf",
]

# Euler-Mascheroni constant, fixed to 16 digits (a constant, not a tunable).
EULER_GAMMA = 0.5772156649015329

SQRT_TWO = math.sqrt(2.0)

# Generated by tools/fit_special.py, highest degree first; worst relative
# error with these doubles, in exact arithmetic: erf 1.4e-17 (A), erfcx
# 2.8e-17 (B) and 5.0e-17 (C).
# A: erf(x) = x*P(x^2) for |x| < 1/2, for Phi only.
# B: erfcx(x) = P(x)/Q(x) for 0 <= x < 4, Q monic (its leading 1 omitted), with
#    equal constant terms: erfcx(0) = 1.
# C: erfcx(x) = (1/sqrt(pi) + z*P(z)/Q(z))/x, z = 1/x^2, for x >= 4, Q monic.
_ERF_SMALL = (
    1.4723214750350324e-06, -1.4845583674591567e-05, 0.00012053324310884338,
    -0.0008548297524332327, 0.00522397737032557, -0.026866170632715736,
    0.11283791670924813, -0.37612638903183465, 1.1283791670955126,
)
_ERFCX_NEAR_P = (
    7.453212604154322e-08, 0.5641861548971943, 9.440241871421332,
    73.75395611585037, 347.0021743200912, 1061.9643349258356,
    2129.743702348789, 2630.97786015024, 1637.6229761511024,
)
_ERFCX_NEAR_Q = (
    16.732257741419843, 131.2274286541358, 623.391179509222,
    1947.3099085855274, 4072.9650654625602, 5545.947665283503,
    4478.8375099960895, 1637.6229761511024,
)
_ERFCX_TAIL_P = (
    -0.37762335663042346, -0.7208192184123455, -0.3315483576542535,
    -0.05130647632659179, -0.002428455108873562,
)
_ERFCX_TAIL_Q = (
    4.140639272794189, 4.090580402229143, 1.435210437406443,
    0.19478969691128564, 0.008608649218948251,
)
_SMALL = 0.5  # Phi's erfc argument: piece A below, B from here
_TAIL = 4.0  # piece C from here
# erfc(y) rounds to 0 from y ~ 27.23 and Phi(z) from z ~ -38.49: the kernel
# returns 0 from y = |z|/sqrt(2) = 27.3 on without an exp, whose subnormal and
# underflowing results cost 20-130 ns an entry
_ERFC_ZERO = 27.3
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

# Arrays are computed in blocks of _BLOCK entries: a 64 KiB float temporary is below glibc's
# 128 KiB mmap threshold, so the plain expressions take no fresh pages, whatever the heap did.
_BLOCK = 8_192


# 2^64 * exp(-h^2/2)/2 at h = k/16 for k = 0 .. 16*_ERFC_ZERO*sqrt(2), the
# first factor of Phi's split exp (see ``_phi_float``): an array for the array
# kernel to take from and its floats for the float kernel to index.  The 1/2 of
# Phi = erfc/2 and a scale 2^64 are folded in and the product ends with a
# multiply by _UNSCALE = 2^-64, so a subnormal Phi (z below ~ -37.5) is rounded
# once, at that last step, not to a subnormal erfc and again when halved.  Where
# exp(-h^2/2) is itself subnormal (h above ~37.6) the entry is the square of
# 2^32 * exp(-h^2/4), which keeps its digits; every other entry is np.exp(-h^2/2)
# scaled exactly, so Phi keeps its bits wherever it is normal.
_H = np.arange(int(16 * _ERFC_ZERO * SQRT_TWO) + 2) / 16.0
_EXP_H2 = np.exp(np.square(_H) * -0.5)
_EXP_H2 = np.where(_EXP_H2 >= 2.0 ** -1022, _EXP_H2 * 2.0 ** 63,
                   np.square(np.exp(np.square(_H) * -0.25) * 2.0 ** 32) * 0.5)
_EXP_H2_FLOATS = _EXP_H2.tolist()
_UNSCALE = 2.0 ** -64


def _erf_small(x):
    """erf(x) for |x| < 1/2 (piece A), a float or an array."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = _ERF_SMALL
    u = x * x
    return x * ((((((((a0 * u + a1) * u + a2) * u + a3) * u + a4) * u + a5) * u + a6) * u
                 + a7) * u + a8)


def _erfcx_near(x):
    """erfcx(x) for 0 <= x < 4 (piece B), a float or an array."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = _ERFCX_NEAR_P
    b1, b2, b3, b4, b5, b6, b7, b8 = _ERFCX_NEAR_Q
    p = (((((((a0 * x + a1) * x + a2) * x + a3) * x + a4) * x + a5) * x + a6) * x + a7) * x + a8
    q = (((((((x + b1) * x + b2) * x + b3) * x + b4) * x + b5) * x + b6) * x + b7) * x + b8
    return p / q


def _erfcx_tail(x):
    """erfcx(x) for x >= 4 (piece C), a float or an array; 0 at x = inf."""
    a0, a1, a2, a3, a4 = _ERFCX_TAIL_P
    b1, b2, b3, b4, b5 = _ERFCX_TAIL_Q
    r = 1.0 / x
    z = r * r
    p = (((a0 * z + a1) * z + a2) * z + a3) * z + a4
    q = ((((z + b1) * z + b2) * z + b3) * z + b4) * z + b5
    return (_INV_SQRT_PI + z * (p / q)) * r


def _phi_float(z):
    """Phi(z) = erfc(t/sqrt(2))/2 at t = -z, a float; +-inf give 1 and 0, NaN
    gives NaN.

    From |t|/sqrt(2) = 1/2 on, erfc(y) = exp(-y^2)*erfcx(y) at y =
    |t|/sqrt(2), 0 from y = _ERFC_ZERO on, and Phi = 1 - erfc(y)/2 for negative t.
    exp(-y^2) = exp(-t^2/2) is formed from t itself, not from the rounded y,
    by Cody's split exp(-h^2/2)*exp(-(t-h)(t+h)/2), h = k/16, k = round(16t):
    the first factor is the table entry _EXP_H2_FLOATS[k], and (t-h)(t+h)/2
    is at most 1.7, so the error is that of the two exps (4.4e-16 measured),
    where exp of the square of the rounded y would be off by y^2 times the
    relative error of that square (1.9e-13 at z = -37.4).
    """
    t = -z
    a = abs(t)
    y = a / SQRT_TWO
    if y < _SMALL:
        return 0.5 * (1.0 - _erf_small(t / SQRT_TWO))
    if not y < _ERFC_ZERO:
        return 1.0 if t < 0.0 else 0.0 if t > 0.0 else t
    k = round(16.0 * a)
    h = k * 0.0625
    v = (_EXP_H2_FLOATS[k] * float(np.exp((h - a) * (a + h) * 0.5))
         * (_erfcx_near(y) if y < _TAIL else _erfcx_tail(y))) * _UNSCALE
    return 1.0 - v if t < 0.0 else v


def _phi_big_array(t):
    """_phi_float(-t) on the entries of pieces B and C of an array."""
    a = np.abs(t)
    k = np.rint(16.0 * a)  # half to even, as round()
    h = k * 0.0625
    v = (_EXP_H2.take(k.astype(np.intp)) * np.exp((h - a) * (a + h) * 0.5)
         * _erfcx(a / SQRT_TWO)) * _UNSCALE
    # 1 - v for negative t as (1 - sign)/2 + sign*v: the same rounding, without
    # a masked step (~10 ns an entry on a mixed mask)
    sign = np.sign(t)
    return v * sign + (1.0 - sign) * 0.5


def _fill(out, x, mask, f):
    """out[mask] = f(x[mask]): through a slice where the mask is one run, as
    on a sorted array, else through indices (a boolean gather and scatter take
    ~7 ns an entry on a mixed mask, take and an index assignment ~2 ns)."""
    idx = mask.nonzero()[0]
    n = idx.size
    if n:
        lo = idx[0]
        if idx[-1] - lo + 1 == n:
            out[lo:lo + n] = f(x[lo:lo + n])
        else:
            out[idx] = f(x.take(idx))


def _array_kernel(x, on_float, block):
    """A new float array of x's shape: on_float(entry) where x has one entry
    (the pieces cost ~0.1 ms of fixed work a call), else block(x_part,
    out_part) on _BLOCK entries at a time."""
    x = np.asarray(x, dtype=float)
    if x.size == 1:
        return np.array(on_float(x.item())).reshape(x.shape)  # twice as fast as np.full
    flat = x.ravel()
    out = np.empty(flat.size)
    for s in range(0, flat.size, _BLOCK):
        block(flat[s:s + _BLOCK], out[s:s + _BLOCK])
    return out.reshape(x.shape)


def _erfcx_block(x, out):
    near = x < _TAIL
    _fill(out, x, near, _erfcx_near)
    _fill(out, x, ~near, _erfcx_tail)  # and NaN


def _phi_block(z, out):
    t = np.negative(z)  # Phi(z) = erfc(t/sqrt(2))/2
    y = np.abs(t) / SQRT_TWO
    finite = y < _ERFC_ZERO  # not NaN, which 1 - sign keeps
    small = y < _SMALL
    _fill(out, t, small, lambda v: 0.5 * (1.0 - _erf_small(v / SQRT_TWO)))
    _fill(out, t, finite ^ small, _phi_big_array)
    _fill(out, t, ~finite, lambda v: 0.5 * (1.0 - np.sign(v)))  # 0, or 1 for negative t


def _erfcx(x):
    """erfcx(x) = e^{x^2} erfc(x) for x >= 0, +inf giving 0, unchecked: a
    float or an ndarray."""
    if isinstance(x, float):
        x = float(x)
        return _erfcx_near(x) if x < _TAIL else _erfcx_tail(x)
    return _array_kernel(x, _erfcx, _erfcx_block)


def _phi(z):
    """Phi(z) = erfc(-z/sqrt(2))/2, unchecked: a float or an ndarray, +-inf
    allowed (giving exactly 1 or 0).  erfc lies in [0, 2], so no clip."""
    if isinstance(z, float):
        return _phi_float(float(z))
    return _array_kernel(z, _phi, _phi_block)


def _expit(z):
    """1/(1 + e^{-z}), unchecked: a float or an ndarray.  For negative z it is
    e/(1 + e) with e = e^{-|z|} <= 1, so no exponential overflows and the far
    left tail keeps its subnormal values."""
    if isinstance(z, float):
        e = float(np.exp(-abs(z)))
        return (e if z < 0.0 else 1.0) / (1.0 + e)
    e = np.exp(-abs(z))
    return np.divide(np.where(z < 0.0, e, 1.0), 1.0 + e)


def std_normal_cdf(z):
    """Distribution function of the standard normal.

    Defined as erfc(-z/sqrt(2))/2.  Arguments may be arbitrarily large:
    beyond |z| ~ 38.6 the tail is below the smallest subnormal and the
    result saturates to exactly 0 or 1.
    """
    if type(z) is float:  # no 0-d array round trip; the same message
        return _phi(require_finite("z", z))
    z_arr, scalar = finite_array("z", z)
    return _phi(float(z_arr)) if scalar else _phi(z_arr)
