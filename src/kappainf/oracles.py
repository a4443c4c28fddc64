"""Independent numerical checks: quadrature, Monte Carlo, brute-force grids.

Nothing in this module evaluates the closed-form CDFs or the reduced curves
when producing an estimate (grid_min scans the curve itself by design, but
its minimizer is located by brute force, not analysis), so agreement between
these estimates and the analytic path is meaningful evidence.

The quadrature engine is a 7/15 Gauss-Kronrod pair applied to a list of
seed intervals, with repeated bisection of every interval whose nested-rule
error estimate exceeds its share (proportional to length) of the error
budget.  The inverse Gaussian density looks singular near 0 (an x^{-3/2}
factor, tamed by the exponential) and can be a needle when lambda/mu is
large, so the seed knots always straddle the density mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import curves
from .distributions import POSITIVE_SUPPORT, DistParams, Family, _mode, mean, pdf, sample
from .errors import (DomainError, NumericalError, finite_array, require_count,
                     require_finite, require_positive)

__all__ = [
    "OracleReport",
    "GridSpec",
    "adaptive_gauss_kronrod",
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


# Subdivision budget of adaptive_gauss_kronrod: open intervals and rounds.
_MAX_INTERVALS = 20_000
_MAX_ROUNDS = 64


def adaptive_gauss_kronrod(f, knots, tol: float) -> tuple[float, float]:
    """Integrate f over [knots[0], knots[-1]] to absolute accuracy tol.

    ``f`` must accept an ndarray.  The seed intervals are the consecutive
    knot pairs.  Returns (integral, error_estimate); raises NumericalError
    if the subdivision budget is exhausted first.
    """
    pts = np.unique(finite_array("knots", knots)[0])
    if pts.size < 2:
        raise DomainError("need at least two distinct knots")
    a, b = pts[:-1], pts[1:]
    total_len = pts[-1] - pts[0]

    integral = 0.0
    err_accepted = 0.0
    n_eval = 0
    for _ in range(_MAX_ROUNDS):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        x = mid[:, None] + half[:, None] * _NODES[None, :]
        fx = np.asarray(f(x.reshape(-1)), dtype=float).reshape(x.shape)
        n_eval += x.size
        k15 = (fx @ _WK) * half
        g7 = (fx @ _WG) * half
        err = np.abs(k15 - g7)
        done = err <= tol * (b - a) / total_len
        integral += float(k15[done].sum())
        err_accepted += float(err[done].sum())
        if bool(done.all()):
            return integral, err_accepted
        a, b, mid = a[~done], b[~done], mid[~done]
        a = np.concatenate([a, mid])
        b = np.concatenate([mid, b])
        if a.size > _MAX_INTERVALS:
            break
    raise NumericalError(
        f"quadrature did not converge: {a.size} open intervals, "
        f"{n_eval} evaluations, accepted error {err_accepted:.3e}, tol {tol:.3e}"
    )


# Multiples of the density's spread at which seed knots flank its mode.
_GEOMETRIC_STEPS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _interior_knots(params: DistParams, lo: float, hi: float) -> np.ndarray:
    """Seed knots straddling the density mode, clipped to (lo, hi)."""
    center = _mode(params)
    cand = [center]
    if params.family is Family.LOG_NORMAL:
        cand += [math.exp(params.p1 + j * params.p2) for j in range(-8, 9)]
    else:
        ig = params.family is Family.INVERSE_GAUSSIAN
        s = math.sqrt(params.p1**3 / params.p2) if ig else params.p2
        for j in _GEOMETRIC_STEPS:
            cand += [center - j * s, center + j * s]
        if ig:  # heavy right tail when lambda << mu; points >= hi are dropped below
            cand += [center * 4.0**j for j in range(1, 41)]
    inner = sorted({c for c in cand if lo < c < hi and math.isfinite(c)})
    return np.array([lo, *inner, hi])


def _tail_cutoff(params: DistParams, start: float, step: float) -> float:
    """First point start - step*2^j (j = 0, 1, ...) where the density drops
    below 1e-16 of its value at start."""
    peak = pdf(params, start)
    for _ in range(200):
        end = start - step
        if pdf(params, end) <= 1e-16 * peak:
            return end
        step *= 2.0
    raise NumericalError(f"no negligible left tail found for {params!r}")


_QUAD_TOL = 1e-10


def quadrature_prob(params: DistParams, kappa: float) -> float:
    """P(X <= kappa*mean) by adaptive quadrature of the density.

    Never calls the closed-form CDF; absolute error target 1e-10.
    """
    k = require_positive("kappa", kappa)
    t_end = k * mean(params)

    if params.family in POSITIVE_SUPPORT:
        if t_end <= 0.0:
            return 0.0
        knots = _interior_knots(params, 0.0, t_end)
    else:
        peak_at = min(t_end, _mode(params))
        if pdf(params, peak_at) == 0.0:
            return 0.0  # target below every representable density value
        knots = _interior_knots(params, _tail_cutoff(params, peak_at, params.p2), t_end)

    value, _ = adaptive_gauss_kronrod(lambda xs: pdf(params, xs), knots, _QUAD_TOL)
    return value


def mc_prob(params: DistParams, kappa: float, n: int, seed: int) -> tuple[float, float]:
    """Fraction of n seeded draws at or below kappa*mean, with its binomial
    standard error sqrt(p(1-p)/n)."""
    if require_count("n", n) < 1000:
        raise DomainError(f"need n >= 1000 samples, got {n}")
    t_end = require_positive("kappa", kappa) * mean(params)  # raises before any draw
    draws = sample(params, n, seed)
    p_hat = float(np.count_nonzero(draws <= t_end)) / n
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / n)


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
    values = curves.reduced_prob(family, k, pts)
    idx = int(np.argmin(values))
    return float(pts[idx]), float(values[idx])
