"""Independent numerical checks: quadrature, Monte Carlo, brute-force grids.

Nothing in this module evaluates the closed-form CDFs or the reduced curves
when producing an estimate (grid_min scans the curve itself by design, but
its minimizer is located by brute force, not analysis), so agreement between
these estimates and the analytic path is meaningful evidence.

The quadrature engine is a 7/15 Gauss-Kronrod pair on seed intervals,
bisecting each interval whose error estimate exceeds its share (by length)
of the budget, until a case's accepted plus open errors are within it (the
global test of QUADPACK's ``qag``, Piessens et al. 1983).  ``verify`` runs
all cases of a family at once, each round calling the density a
special-function block of nodes at a time; each result keeps the bits of a
run on its own, since the rule products are row-local and each case sums in
index order.

Each family is integrated where its density is one fixed density: in
z = (t - mu)/beta for the Gumbel and the logistic, in u = (ln t - mu)/sigma
(a standard normal) for the log-normal, and in y = t/mu for the inverse
Gaussian, as X/mu ~ IG(1, lambda/mu) (Chhikara and Folks 1989, ch. 2), up
to kappa*mean in that coordinate as ``cdf`` forms it.  The first three have
one knot table each around the mode 0, with under 1e-17 of mass past either
end; IG(1, lambda/mu) has knots at its mode, 2^j standard deviations either
side, the mode over 2, 4 and 8 (its rise from 0) and the mode times 4^j (its
heavy tail).  It takes 1e-300 <= lambda/mu <= 1e12 and refuses the rest
with a DomainError: above, the error near kappa = 1 grows as
~1e-16*sqrt(lambda/mu) (1.3e-11 at 1e12); below, the knots reach the ends
of the float range (at 1e-307 a run no longer converges).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import curves, special
from .distributions import (_LOG_2PI, POSITIVE_SUPPORT, DistParams, Family, _check_sampler,
                            _count_below, _density, mean)
from .errors import (DomainError, NumericalError, finite_array, require_count,
                     require_finite, require_positive)

__all__ = [
    "OracleReport",
    "GridSpec",
    "quadrature_prob",
    "mc_prob",
    "grid_min",
]

ORACLE_METHODS = frozenset(
    {"quadrature", "monte_carlo", "grid_min", "finite_diff", "closed_form"}
)


@dataclass(frozen=True)
class OracleReport:
    """Comparison of an analytic value against an independent estimate."""

    method: str
    analytic: float
    estimate: float
    tolerance: float
    detail: str = ""
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.method not in ORACLE_METHODS:
            raise DomainError(f"unknown oracle method {self.method!r}")
        for name in ("analytic", "estimate", "tolerance"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(
            self, "passed", bool(abs(self.analytic - self.estimate) <= self.tolerance)
        )


# 7-point Gauss / 15-point Kronrod abscissae and weights on [-1, 1].
# Gauss points sit at every other Kronrod node; their weight array carries
# zeros at the Kronrod-only nodes so both rules are plain dot products.
_POS_NODES = np.array(
    [
        0.0,
        0.20778495500789846760,
        0.40584515137739716691,
        0.58608723546769113029,
        0.74153118559939443986,
        0.86486442335976907279,
        0.94910791234275852453,
        0.99145537112081263921,
    ]
)
_POS_WK = np.array(
    [
        0.20948214108472782801,
        0.20443294007529889241,
        0.19035057806478540991,
        0.16900472663926790283,
        0.14065325971552591875,
        0.10479001032225018384,
        0.06309209262997855329,
        0.02293532201052922496,
    ]
)
_POS_WG = np.array(
    [
        0.41795918367346938776,
        0.0,
        0.38183005050511894495,
        0.0,
        0.27970539148927666790,
        0.0,
        0.12948496616886969327,
        0.0,
    ]
)
_NODES = np.concatenate([-_POS_NODES[:0:-1], _POS_NODES])
_WK = np.concatenate([_POS_WK[:0:-1], _POS_WK])
_WG = np.concatenate([_POS_WG[:0:-1], _POS_WG])


# Subdivision budget of each integral: open intervals and rounds.
_MAX_INTERVALS = 20_000
_MAX_ROUNDS = 64


def _gauss_kronrod(f, knots: list[np.ndarray], tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrate several functions at once, each over its own knots.

    ``knots[i]`` is a strictly increasing array whose consecutive pairs are
    the seed intervals of integral i, whose absolute accuracy target is tol.
    ``f(x, case)`` gets the (n, 15) nodes of n intervals and the integral
    each interval belongs to, and returns the integrands at x.  Each round
    calls it on the open intervals of every integral, ``special._BLOCK //
    15`` intervals at a time, so that no node or integrand array is larger
    than a special-function block.

    Each result has the bits of a one-integral run, kept by order alone: the
    rule products are row-local (``einsum`` over one row, where a BLAS
    product row depends on the row count), so they do not depend on the
    blocks either; ``bincount`` adds each integral's
    accepted intervals in index order, and each integral's open intervals
    keep the order of a run on its own.  An integral stops once its accepted
    error plus that of its open intervals is at most tol.  Returns
    (integrals, error estimates); raises NumericalError for the first
    integral to exhaust its subdivision budget.
    """
    count = len(knots)
    case = np.repeat(np.arange(count), [k.size - 1 for k in knots])
    a = np.concatenate([k[:-1] for k in knots])
    b = np.concatenate([k[1:] for k in knots])
    total_len = np.array([k[-1] - k[0] for k in knots])
    integral = np.zeros(count)
    err_accepted = np.zeros(count)
    n_eval = np.zeros(count, dtype=np.int64)
    rows = special._BLOCK // _NODES.size  # intervals whose nodes are one block
    for _ in range(_MAX_ROUNDS):
        mid = 0.5 * a + 0.5 * b  # 0.5*(a + b) overflows near DBL_MAX
        half = 0.5 * (b - a)
        n_eval += _NODES.size * np.bincount(case, minlength=count)
        k15, g7 = np.empty(mid.size), np.empty(mid.size)
        for s in range(0, mid.size, rows):
            piece = slice(s, s + rows)
            fx = f(mid[piece, None] + half[piece, None] * _NODES[None, :], case[piece])
            np.einsum("ij,j->i", fx, _WK, out=k15[piece])
            np.einsum("ij,j->i", fx, _WG, out=g7[piece])
        k15 *= half
        g7 *= half
        err = np.abs(k15 - g7)
        done = err <= tol * (b - a) / total_len[case]
        # a case whose accepted and open errors add up to at most tol is done
        done |= (err_accepted + np.bincount(case, err, count) <= tol)[case]
        integral += np.bincount(case[done], k15[done], count)
        err_accepted += np.bincount(case[done], err[done], count)
        keep = ~done
        if not keep.any():
            return integral, err_accepted
        # per integral: [a, mid] of each of its open intervals, then [mid, b]
        case = np.concatenate([case[keep], case[keep]])
        a = np.concatenate([a[keep], mid[keep]])
        b = np.concatenate([mid[keep], b[keep]])
        sizes = np.bincount(case, minlength=count)
        if sizes.max() > _MAX_INTERVALS:
            break
    over = sizes > _MAX_INTERVALS
    i = int(np.argmax(over)) if over.any() else int(case.min())
    raise NumericalError(
        f"quadrature did not converge: {sizes[i]} open intervals, "
        f"{n_eval[i]} evaluations, accepted error {err_accepted[i]:.3e}, tol {tol:.3e}"
    )


# Seed knots of the standard normal (the log-normal's), Gumbel and logistic
# densities around their mode 0; each tail past an end knot holds under 1e-17.
_KNOTS = {
    Family.LOG_NORMAL: np.array([-9.0, -6.0, -3.0, -1.5, 0.0, 1.5, 3.0, 6.0, 9.0]),
    Family.GUMBEL: np.array([-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0]),
    Family.LOGISTIC: np.array([-40.0, -20.0, -10.0, -5.0, -2.0, 0.0, 2.0, 5.0, 10.0, 20.0, 40.0]),
}
# The lambda/mu that inverse Gaussian quadrature takes (see the module docstring)
IG_QUAD_SHAPE = (1e-300, 1e12)


def _ig_knots(shape: float, end: float) -> np.ndarray:
    """Seed knots of IG(1, shape) on [0, end], those of the module docstring."""
    a = 1.5 / shape
    mode = 1.0 / (math.hypot(1.0, a) + a)
    spread = math.sqrt(1.0 / shape)  # the standard deviation
    cand = [mode + sign * 2.0**j * spread for j in range(7) for sign in (-1.0, 1.0)]
    cand += [mode / 2.0, mode / 4.0, mode / 8.0]
    step = mode
    while step < end:
        cand.append(step)
        step *= 4.0
    return np.array([0.0, *sorted({c for c in cand if 0.0 < c < end}), end])


def _standard_density(family: Family, z, shape=None, log_shape=None):
    """Density at z of IG(1, shape), with log_shape = math.log(shape), of the
    standard normal for the log-normal, or of the Gumbel or logistic with
    mu = 0, beta = 1.  Inverse Gaussian nodes are checked, since those of a
    subnormal interval can round to 0."""
    if family is Family.INVERSE_GAUSSIAN:
        return _density(family, finite_array("t", z, positive=True)[0], 1.0, shape, log_shape)
    if family is Family.LOG_NORMAL:
        return np.exp(-0.5 * z * z - 0.5 * _LOG_2PI)
    return _density(family, z, 0.0, 1.0, 0.0)


_QUAD_TOL = 1e-10


def _quad_target(params: DistParams, kappa: float) -> float:
    """kappa*mean, after the checks of ``quadrature_prob`` on (params, kappa)."""
    t_end = require_finite("kappa*mean", require_positive("kappa", kappa) * mean(params))
    lo, hi = IG_QUAD_SHAPE
    if params.family is Family.INVERSE_GAUSSIAN and not lo <= params.p2 / params.p1 <= hi:
        raise DomainError(f"inverse Gaussian quadrature takes {lo:g} <= lambda/mu <= {hi:g}, "
                          f"got mu={params.p1!r}, lambda={params.p2!r}")
    return t_end


def _quadrature_batch(cases) -> np.ndarray:
    """quadrature_prob of every (params, kappa) in ``cases``, all of one
    family, from one adaptive Gauss-Kronrod run with one density call per
    row block of a round (``special._BLOCK // 15`` intervals); each estimate
    has the bits of a run on its own."""
    family = cases[0][0].family
    if any(params.family is not family for params, _ in cases):
        raise DomainError("a quadrature batch takes one family")
    t_end = np.array([_quad_target(params, kappa) for params, kappa in cases])
    p1, p2 = np.array([(params.p1, params.p2) for params, _ in cases]).T
    # the upper limit in the standard coordinate, formed from t as cdf forms it
    if family is Family.INVERSE_GAUSSIAN:
        with np.errstate(over="ignore"):
            end = np.minimum(t_end / p1, sys.float_info.max)
        live = np.flatnonzero(end > 0.0)
        shapes = (p2[live] / p1[live]).tolist()
        knots = [_ig_knots(v, e) for v, e in zip(shapes, end[live].tolist())]
        # (lambda/mu, its math.log) per case, as pdf takes math.log(lambda)
        coef = (np.array(shapes)[:, None], np.array([[math.log(v)] for v in shapes]))
    else:
        with np.errstate(over="ignore", divide="ignore"):
            end = ((np.log(t_end) if family is Family.LOG_NORMAL else t_end) - p1) / p2
        grid = _KNOTS[family]
        live = np.flatnonzero(end > grid[0])
        knots = [np.append(grid[:-1][grid[:-1] < e], min(e, grid[-1])) for e in end[live]]
        coef = ()
    out = np.zeros(len(cases))
    if live.size:
        def density(x, case):  # the standard density of case[i] on row i of x
            return _standard_density(family, x, *(column[case] for column in coef))
        out[live] = _gauss_kronrod(density, knots, _QUAD_TOL)[0]
    return out


def quadrature_prob(params: DistParams, kappa: float) -> float:
    """P(X <= kappa*mean) by adaptive quadrature of the density.

    Never calls the closed-form CDF; absolute error target 1e-10.  A
    kappa*mean that overflows is a DomainError, as is an inverse Gaussian
    lambda/mu outside IG_QUAD_SHAPE.
    """
    return float(_quadrature_batch([(params, kappa)])[0])


def _mc_target(params: DistParams, kappa: float, n: int) -> float:
    """kappa*mean, after the checks of ``mc_prob`` on (params, kappa, n)."""
    if require_count("n", n) < 1000:
        raise DomainError(f"need n >= 1000 samples, got {n}")
    t_end = require_finite("kappa*mean", require_positive("kappa", kappa) * mean(params))
    _check_sampler(params)
    return t_end


def _mc_batch(cases, n: int, seed: int, store: dict) -> list[tuple[float, float]]:
    """``mc_prob`` of every (params, kappa) in ``cases``, all of one family,
    from one pass over the family's stream (``_count_below``), with block
    buffers in ``store``; raises the first case's error before any draw."""
    members = [params for params, _ in cases]
    if any(params.family is not members[0].family for params in members):
        raise DomainError("a Monte Carlo batch takes one family")
    t_end = [_mc_target(params, kappa, n) for params, kappa in cases]
    hits = _count_below(members, t_end, n, seed, store)
    return [(p, math.sqrt(p * (1.0 - p) / n)) for p in (float(h) / n for h in hits)]


def mc_prob(params: DistParams, kappa: float, n: int, seed: int) -> tuple[float, float]:
    """Fraction of n seeded draws at or below kappa*mean, with its binomial
    standard error sqrt(p(1-p)/n); a kappa*mean that overflows is a DomainError.
    The draws are those of ``sample(params, n, seed)``, counted a block at a
    time, so no n-float array is held."""
    return _mc_batch([(params, kappa)], n, seed, {})[0]


# (kind, lo, hi) of each family's default brute-force grid.
_DEFAULT_GRIDS = {
    Family.INVERSE_GAUSSIAN: ("geometric", 1e-3, 30.0),
    Family.LOG_NORMAL: ("geometric", 1e-6, 1e2),
    Family.GUMBEL: ("linear", -50.0, 50.0),
    Family.LOGISTIC: ("linear", -50.0, 50.0),
}


@dataclass(frozen=True)
class GridSpec:
    """A geometric or linear evaluation grid for brute-force minimization."""

    kind: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.kind not in ("geometric", "linear"):
            raise DomainError(f"grid kind must be geometric or linear, got {self.kind!r}")
        object.__setattr__(self, "lo", require_finite("lo", self.lo))
        object.__setattr__(self, "hi", require_finite("hi", self.hi))
        object.__setattr__(self, "count", require_count("count", self.count))
        if not self.lo < self.hi:
            raise DomainError(f"need finite lo < hi, got [{self.lo!r}, {self.hi!r}]")
        if not math.isfinite(self.hi - self.lo):
            raise DomainError(f"grid span hi - lo overflows, got [{self.lo!r}, {self.hi!r}]")
        if self.kind == "geometric" and self.lo <= 0.0:
            raise DomainError("geometric grids need lo > 0")
        if self.count < 2:
            raise DomainError(f"grid count must be >= 2, got {self.count}")

    def points(self) -> np.ndarray:
        if self.kind == "geometric":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)

    @classmethod
    def default_for(cls, family: Family, count: int) -> "GridSpec":
        """Geometric for positive coordinates (resolving the 0+ boundary),
        symmetric linear for the real-line families."""
        return cls(*_DEFAULT_GRIDS[Family(family)], count)


def grid_min(family: Family, kappa: float, grid: GridSpec) -> tuple[float, float]:
    """Grid point minimizing the reduced curve, and the value there.

    No interpolation: the answer is exactly one of the grid points, so it
    can never undercut the true infimum.
    """
    family = Family(family)
    k = require_positive("kappa", kappa)
    pts = grid.points()
    if family in POSITIVE_SUPPORT and pts[0] <= 0.0:
        raise DomainError(f"grid leaves the coordinate domain of {family.value}")
    if pts.size < 1000:
        raise DomainError(f"need at least 1000 grid points, got {pts.size}")
    return _grid_scan(family, k, pts)


def _grid_scan(family: Family, kappa: float, pts: np.ndarray) -> tuple[float, float]:
    """``grid_min`` over the points ``pts``, unchecked: a special-function
    block at a time, where the strict < keeps the first of equal minima, as
    np.argmin over the whole grid does."""
    best = None
    for s in range(0, pts.size, special._BLOCK):
        values = curves.reduced_prob(family, kappa, pts[s:s + special._BLOCK])
        idx = int(np.argmin(values))
        if best is None or values[idx] < best[1]:
            best = float(pts[s + idx]), float(values[idx])
    return best
