"""Standard-normal CDF, the unchecked special-function kernels, constants.

erfc, erfcx and the logistic sigmoid are computed here, with numpy; they
reach the rest of the package only through the unchecked kernels ``_phi``,
``_erfcx`` and ``_expit``, which the curve kernels call on arguments their
public entry has already checked.

erfc and erfcx are the piecewise forms of W. J. Cody (Math. Comp. 23, 1969):
an odd polynomial for erf below |x| = 1/2 (piece A, for erfc only), a
rational function for erfcx below 4 (B) and a rational function in 1/x^2
beyond (C); ``tools/fit_special.py`` fits their coefficients in 40-digit
mpmath.  A float goes through plain float arithmetic and an array through
the same operations in the same order, in place, so a float and an array
entry give the same bits.

The normal CDF is *defined* through erfc, so it carries the tightest
accuracy contract in the package (<= 1e-13 relative; against 40-digit
references erfc, erfcx and Phi measured at most 8.5e-16); ``std_normal_cdf``
is its checked public entry.  All functions accept a scalar or an ndarray
and are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import finite_array

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
# A: erf(x) = x*P(x^2) for |x| < 1/2, for erfc only.
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
_SMALL = 0.5  # erfc: piece A below, B from here
_TAIL = 4.0  # piece C from here
# erfc(x) rounds to 0 from x ~ 27.23: the kernels return 0 from here on without
# an exp, whose subnormal and underflowing results cost 20-130 ns an entry
_ERFC_ZERO = 27.3
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

# Length of the blocks an array is computed in: the temporaries of one
# block stay in the core's cache.
_BLOCK = 16_384


def _exp_h2(c):
    """exp(-c*h^2) at h = k/16 for k = 0 .. 16*_ERFC_ZERO*sqrt(2), the first
    factor of erfc's split exp (see ``_erfc_float``): an array for the array
    kernels to take from and its floats for the float kernels to index."""
    h = np.arange(int(16 * _ERFC_ZERO * SQRT_TWO) + 2) / 16.0
    table = np.exp(h * h * -c)
    return table, table.tolist()


_EXP_H2, _EXP_H2_FLOATS = _exp_h2(1.0)  # erfc itself
_EXP_H2_HALF, _EXP_H2_HALF_FLOATS = _exp_h2(0.5)  # Phi, as erfc(-z/sqrt(2))

# Each piece of erfc and erfcx is written twice, with the same operations in
# the same order: as plain expressions for a float, where a loop over the
# coefficients would take three times as long, and in place for an array.


def _erf_small(x):
    """erf(x) for |x| < 1/2 (piece A), a float."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = _ERF_SMALL
    u = x * x
    return x * ((((((((a0 * u + a1) * u + a2) * u + a3) * u + a4) * u + a5) * u + a6) * u
                 + a7) * u + a8)


def _erfcx_near(x):
    """erfcx(x) for 0 <= x < 4 (piece B), a float."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = _ERFCX_NEAR_P
    b1, b2, b3, b4, b5, b6, b7, b8 = _ERFCX_NEAR_Q
    p = (((((((a0 * x + a1) * x + a2) * x + a3) * x + a4) * x + a5) * x + a6) * x + a7) * x + a8
    q = (((((((x + b1) * x + b2) * x + b3) * x + b4) * x + b5) * x + b6) * x + b7) * x + b8
    return p / q


def _erfcx_tail(x):
    """erfcx(x) for x >= 4 (piece C), a float; 0 at x = inf."""
    a0, a1, a2, a3, a4 = _ERFCX_TAIL_P
    b1, b2, b3, b4, b5 = _ERFCX_TAIL_Q
    r = 1.0 / x
    z = r * r
    p = (((a0 * z + a1) * z + a2) * z + a3) * z + a4
    q = ((((z + b1) * z + b2) * z + b3) * z + b4) * z + b5
    return (_INV_SQRT_PI + z * (p / q)) * r


def _erfc_float(t, d, c, exp_h2):
    """erfc(t/d) for d = 1 (c = 1) or d = sqrt(2) (c = 1/2), a float; +-inf
    give 0 and 2, NaN gives NaN.

    From |t|/d = 1/2 on, erfc(y) = exp(-y^2)*erfcx(y) at y = |t|/d, 0 from
    y = _ERFC_ZERO on, and 2 - erfc(y) for negative t.
    exp(-y^2) = exp(-c*t^2) is formed from t itself, not from the rounded y,
    by Cody's split exp(-c*h^2)*exp(-c*(t-h)(t+h)), h = k/16, k = round(16t):
    the first factor is the table entry exp_h2[k], and c*(t-h)(t+h) is at most
    1.7, so the error is that of the two exps (4.4e-16 measured), where exp
    of a rounded y^2 would be off by up to 2y^2 ulp (1.5e-13 at y = 26;
    1.9e-13 for Phi at z = -37.4 as erfc(-z/sqrt(2)), whose rounded argument
    costs the same again).
    """
    a = abs(t)
    y = a / d
    if y < _SMALL:
        return 1.0 - _erf_small(t / d)
    if not y < _ERFC_ZERO:
        return 2.0 if t < 0.0 else 0.0 if t > 0.0 else t
    k = round(16.0 * a)
    h = k * 0.0625
    v = (exp_h2[k] * float(np.exp((h - a) * (a + h) * c))
         * (_erfcx_near(y) if y < _TAIL else _erfcx_tail(y)))
    return 2.0 - v if t < 0.0 else v


# The array forms call the ufuncs with a positional output: an in-place
# operator or ``out=`` adds ~0.15-0.5 us a call, and a call on an array of a
# few thousand entries does little more work than that.
_mul, _add, _sub, _div, _exp = np.multiply, np.add, np.subtract, np.divide, np.exp


def _horner(t, coeffs, monic=False):
    """coeffs[0]*t^n + ... + coeffs[n] on an array t, in place on one new
    array; with ``monic`` a leading 1 precedes coeffs."""
    coeffs = _AS_ARRAYS[coeffs]
    if monic:
        acc = _add(t, coeffs[0])
    else:
        acc = _mul(t, coeffs[0])
        _add(acc, coeffs[1], acc)
    for c in coeffs[1 if monic else 2:]:
        _mul(acc, t, acc)
        _add(acc, c, acc)
    return acc


# The coefficients as 0-d arrays: numpy converts a Python float operand on
# every call.
_AS_ARRAYS = {c: tuple(np.array(v) for v in c) for c in (
    _ERF_SMALL, _ERFCX_NEAR_P, _ERFCX_NEAR_Q, _ERFCX_TAIL_P, _ERFCX_TAIL_Q)}


def _erf_small_array(x):
    p = _horner(_mul(x, x), _ERF_SMALL)
    return _mul(p, x, p)


def _erfcx_near_array(x):
    p = _horner(x, _ERFCX_NEAR_P)
    return _div(p, _horner(x, _ERFCX_NEAR_Q, monic=True), p)


def _erfcx_tail_array(x):
    r = _div(1.0, x)
    z = _mul(r, r)
    p = _horner(z, _ERFCX_TAIL_P)
    _div(p, _horner(z, _ERFCX_TAIL_Q, monic=True), p)
    _mul(p, z, p)
    _add(p, _INV_SQRT_PI, p)
    return _mul(p, r, p)


def _erfc_big_array(t, d, c, exp_h2):
    """_erfc_float on the entries of pieces B and C of an array."""
    a = np.abs(t)
    k = _mul(a, 16.0)
    np.rint(k, k)  # half to even, as round()
    v = exp_h2.take(k.astype(np.intp))
    h = _mul(k, 0.0625, k)
    e = _sub(h, a)
    _mul(e, _add(a, h, h), e)
    _mul(e, c, e)
    _mul(v, _exp(e, e), v)
    _erfcx_block(_div(a, d, a), h)  # erfcx(|t|/d), into h's buffer
    _mul(v, h, v)
    # 2 - v for negative t as (1 - sign) + sign*v: the same rounding, without
    # a masked step (~10 ns an entry on a mixed mask)
    sign = np.sign(t)
    _mul(v, sign, v)
    return _add(v, _sub(1.0, sign, sign), v)


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
    _fill(out, x, near, _erfcx_near_array)
    _fill(out, x, ~near, _erfcx_tail_array)  # and NaN


def _erfc_block(t, out, d, c, exp_h2):
    y = _div(np.abs(t), d)
    finite = y < _ERFC_ZERO  # not NaN, which 1 - sign keeps
    small = y < _SMALL
    _fill(out, t, small, lambda v: _sub(1.0, _erf_small_array(_div(v, d))))
    _fill(out, t, finite ^ small, lambda v: _erfc_big_array(v, d, c, exp_h2))
    _fill(out, t, ~finite, lambda v: _sub(1.0, np.sign(v)))  # 0, or 2 for negative t


def _erfc_unit_block(t, out):
    _erfc_block(t, out, 1.0, 1.0, _EXP_H2)


def _phi_block(z, out):
    _erfc_block(np.negative(z), out, SQRT_TWO, 0.5, _EXP_H2_HALF)
    _mul(out, 0.5, out)


def _erfcx(x):
    """erfcx(x) = e^{x^2} erfc(x) for x >= 0, +inf giving 0, unchecked: a
    float or an ndarray."""
    if isinstance(x, float):
        x = float(x)
        return _erfcx_near(x) if x < _TAIL else _erfcx_tail(x)
    return _array_kernel(x, _erfcx, _erfcx_block)


def _erfc(x):
    """erfc(x) on the whole line, unchecked: a float or an ndarray."""
    if isinstance(x, float):
        return _erfc_float(float(x), 1.0, 1.0, _EXP_H2_FLOATS)
    return _array_kernel(x, _erfc, _erfc_unit_block)


def _phi(z):
    """Phi(z) = erfc(-z/sqrt(2))/2, unchecked: a float or an ndarray, +-inf
    allowed (giving exactly 1 or 0).  erfc lies in [0, 2], so no clip."""
    if isinstance(z, float):
        return 0.5 * _erfc_float(-float(z), SQRT_TWO, 0.5, _EXP_H2_HALF_FLOATS)
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
    z_arr, scalar = finite_array("z", z)
    return _phi(float(z_arr)) if scalar else _phi(z_arr)
