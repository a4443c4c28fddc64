"""The self-check matrix behind the ``verify`` command.

Every analytic claim the package exposes is re-derived here by an
independent route (density quadrature, seeded Monte Carlo, brute-force grid
minimization, finite differences) and packaged as OracleReports.  Rows that
check a property rather than a value encode it as a violation count with
tolerance 0.5, so the uniform pass rule |analytic - estimate| <= tolerance
still applies.

Budgets: ``quick`` runs 1.8e5-sample Monte Carlo, 1e4-point grids and 50
random quadrature cases per family; ``full`` raises these to 1.8e6, 1e5 and
200.  A Monte Carlo row passes within 5.36*sqrt(p(1-p)/n) of the analytic
p.  The seed drives every random draw through derived child seeds, so a
run is reproducible end to end.  All random inputs are drawn first, in the
order of a serial run: the quadrature cases, the derivative points, then
one child seed per family of Monte Carlo cases.  A thread pool then
computes the rows before the Monte Carlo rows as its first task, and each
family's cases from one stream after it; each estimate is ``mc_prob``'s at
its family's seed.  The short groups of rows after the Monte Carlo rows
follow, so the rows, the first error raised and the bytes are those of a
serial loop.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import curves, solver
from .distributions import DistParams, Family, cdf, mean
from .errors import DomainError, require_count
from .oracles import (GridSpec, OracleReport, _grid_scan, _mc_batch, _mc_target,
                      _quadrature_batch)

__all__ = ["Budget", "BUDGETS", "run_verification"]


@dataclass(frozen=True)
class Budget:
    mc_samples: int
    grid_points: int
    quad_cases: int


BUDGETS = {
    "quick": Budget(mc_samples=180_000, grid_points=10_000, quad_cases=50),
    "full": Budget(mc_samples=1_800_000, grid_points=100_000, quad_cases=200),
}

# z of the Monte Carlo bands z*sqrt(p(1-p)/n) at the analytic p: P(|Z| > z) =
# 8.3e-8, so a sound run of 12 rows fails about once in 1e6 runs; with 1.8x
# the draws (5.36/sqrt(1.8) = 3.995) no band is wider than the old 4-sigma ones.
_MC_Z = 5.36

_MC_CASES = [
    (DistParams.inverse_gaussian(2.0, 6.0), 1.5),
    (DistParams.inverse_gaussian(1.0, 1.0), 0.8),
    (DistParams.inverse_gaussian(0.5, 4.0), 2.0),
    (DistParams.log_normal(0.0, 1.0), 1.0),
    (DistParams.log_normal(0.3, 0.7), 1.4),
    (DistParams.log_normal(-1.0, 2.0), 3.0),
    (DistParams.gumbel(0.0, 1.0), 1.0),
    (DistParams.gumbel(2.0, 0.5), 1.2),
    (DistParams.gumbel(-3.0, 2.0), 0.7),
    (DistParams.logistic(5.0, 2.0), 1.0),
    (DistParams.logistic(1.0, 0.3), 1.5),
    (DistParams.logistic(-2.0, 1.5), 0.5),
]


# (lows, highs) of the three uniforms each quadrature case draws, in stream
# order: the family's two parameter coordinates, then log10 kappa
_CASE_UNIFORMS = {
    Family.INVERSE_GAUSSIAN: ((-2.0, -2.0, -1.0), (2.0, 2.0, 1.0)),  # log10 mu, log10 lambda
    Family.LOG_NORMAL: ((-2.0, -1.3, -1.0), (2.0, 0.5, 1.0)),  # mu, log10 sigma
    Family.GUMBEL: ((-5.0, -1.0, -1.0), (5.0, 1.0, 1.0)),  # mu, log10 beta
    Family.LOGISTIC: ((-5.0, -1.0, -1.0), (5.0, 1.0, 1.0)),
}


def _quad_cases(budget: Budget, rng: np.random.Generator) -> list[list[tuple[DistParams, float]]]:
    """The random (params, kappa) cases of each family's quadrature row, in
    Family order.  One uniform call per family takes the values of one scalar
    call per uniform from the stream.  The inverse Gaussian parameters are
    numpy powers of ten, the others Python ones; the two differ in the last
    bit for about one argument in twenty, so that choice is part of the cases."""
    cases = []
    for family in Family:
        u = rng.uniform(*_CASE_UNIFORMS[family], size=(budget.quad_cases, 3))
        if family is Family.INVERSE_GAUSSIAN:
            p1, p2 = (10.0 ** u[:, :2]).T.tolist()
        else:
            p1, p2 = u[:, 0].tolist(), [10.0 ** v for v in u[:, 1].tolist()]
        kappas = [10.0 ** v for v in u[:, 2].tolist()]
        cases.append([(DistParams(family, a, b), k) for a, b, k in zip(p1, p2, kappas)])
    return cases


def _closed_form_rows(cases_by_family: list[list[tuple[DistParams, float]]]) -> list[OracleReport]:
    rows = []
    for family, cases in zip(Family, cases_by_family):
        estimates = _quadrature_batch(cases)
        analytic = curves.reduced_prob(
            family,
            np.array([kappa for _, kappa in cases]),
            np.array([curves.reduce_params(params) for params, _ in cases]),
        )
        # argmax takes the first of equal gaps, as a running strict > would
        worst = int(np.argmax(np.abs(analytic - estimates)))
        params, kappa = cases[worst]
        rows.append(OracleReport(
            "quadrature", analytic[worst], estimates[worst], 1e-9,
            f"{family.value}: curve vs density quadrature, "
            f"{len(cases)} random cases, worst at "
            f"p1={params.p1:.4g} p2={params.p2:.4g} kappa={kappa:.4g}",
        ))
    return rows


def _ig_monotone_row() -> OracleReport:
    grid = np.geomspace(1e-3, 30.0, 1000)
    violations = 0
    for kappa in (0.3, 0.7, 1.0):
        vals = curves.reduced_prob(Family.INVERSE_GAUSSIAN, kappa, grid)
        violations += int(np.count_nonzero(np.diff(vals) >= 0.0))
    return OracleReport(
        "grid_min", 0.0, float(violations), 0.5,
        "inverse-gaussian curve strictly decreasing for kappa in {0.3,0.7,1}; "
        "estimate counts non-decreasing steps on a 1000-point geometric grid",
    )


def _ig_critical_rows(budget: Budget) -> list[OracleReport]:
    rows = []
    invariant_violations = 0
    grid = GridSpec("geometric", 1e-3, 10.0, budget.grid_points).points()
    for kappa in (1.5, 2.0, 3.0, 5.0, 10.0):
        x0 = solver.ig_critical_point(kappa)
        value = curves.reduced_prob(Family.INVERSE_GAUSSIAN, kappa, x0)
        if not 0.0 < x0 < curves.ig_peak_coord(kappa):
            invariant_violations += 1
        if abs(curves.ig_stationarity_scaled(kappa, x0)) > 1e-10:
            invariant_violations += 1
        if not value > 0.5:
            invariant_violations += 1
        _, grid_value = _grid_scan(Family.INVERSE_GAUSSIAN, kappa, grid)
        rows.append(OracleReport(
            "grid_min", value, grid_value, 1e-6,
            f"inverse-gaussian attained minimum vs {budget.grid_points}-point "
            f"grid search, kappa={kappa}",
        ))
    rows.append(OracleReport(
        "closed_form", 0.0, float(invariant_violations), 0.5,
        "critical-point invariants (inside bracket, zero residual, value > 1/2) "
        "for kappa in {1.5,2,3,5,10}; estimate counts violations",
    ))
    return rows


def _derivative_points(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The 1000 random (kappa, x) of the derivative rows."""
    kappas = 10.0 ** rng.uniform(math.log10(0.2), 1.0, size=1000)
    return kappas, rng.uniform(0.05, 5.0, size=1000)


def _derivative_rows(kappas: np.ndarray, xs: np.ndarray) -> list[OracleReport]:
    step = 1e-6 * np.maximum(1.0, xs)
    fd = (
        curves.reduced_prob(Family.INVERSE_GAUSSIAN, kappas, xs + step)
        - curves.reduced_prob(Family.INVERSE_GAUSSIAN, kappas, xs - step)
    ) / (2.0 * step)
    deriv = curves.ig_prob_deriv(kappas, xs)
    # pass iff |fd - deriv| <= 1e-4*|deriv| + 1e-8; the absolute floor is
    # the resolution limit of a step-1e-6 central difference in doubles
    worst = np.max(np.abs(fd - deriv) / (np.abs(deriv) + 1e-4))
    # the scaled stationarity is the plain one times e^{a^2/2} > 0: same signs
    sign_mismatches = np.count_nonzero(
        np.sign(deriv) != np.sign(curves.ig_stationarity_scaled(kappas, xs)))
    return [
        OracleReport(
            "finite_diff", 0.0, worst, 1e-4,
            "curve derivative vs central finite difference, 1000 random "
            "(kappa, x); worst |fd - deriv| scaled by |deriv| + 1e-4",
        ),
        OracleReport(
            "closed_form", 0.0, float(sign_mismatches), 0.5,
            "sign of the derivative equals sign of the stationarity function "
            "at the same 1000 points; estimate counts mismatches",
        ),
    ]


def _log_normal_rows(budget: Budget) -> list[OracleReport]:
    rows = []
    grid = GridSpec("geometric", 1e-2, 1e2, budget.grid_points).points()
    for kappa in (1.5, math.e, 4.0):
        result = solver.infimum(Family.LOG_NORMAL, kappa)
        _, grid_value = _grid_scan(Family.LOG_NORMAL, kappa, grid)
        rows.append(OracleReport(
            "grid_min", result.value, grid_value, 1e-6,
            f"log-normal attained minimum vs {budget.grid_points}-point "
            f"grid search, kappa={kappa:.6g}",
        ))
    for kappa, limit in ((0.5, 0.0), (1.0, 0.5)):
        near = curves.reduced_prob(Family.LOG_NORMAL, kappa, 1e-6)
        rows.append(OracleReport(
            "closed_form", limit, near, 1e-3,
            f"log-normal limit infimum approached at sigma=1e-6, kappa={kappa}",
        ))
    return rows


def _location_scale_rows() -> list[OracleReport]:
    rows = []
    grid = np.linspace(-40.0, 40.0, 1601)
    for family in (Family.GUMBEL, Family.LOGISTIC):
        const = solver.infimum(family, 1.0).value
        spread = float(np.max(np.abs(curves.reduced_prob(family, 1.0, grid) - const)))
        rows.append(OracleReport(
            "grid_min", 0.0, spread, 1e-15,
            f"{family.value} curve constant at kappa=1; estimate is the "
            "largest deviation over coord in [-40, 40]",
        ))
        for kappa, coord in ((0.5, 40.0), (2.0, -40.0)):
            tail = curves.reduced_prob(family, kappa, coord)
            rows.append(OracleReport(
                "closed_form", 0.0, tail, 1e-8,
                f"{family.value} curve at the limit direction (kappa={kappa}, "
                f"coord={coord:+g}) approaches its infimum 0",
            ))
    return rows


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _mc_rows(budget: Budget, seed_source: np.random.Generator,
             first: Callable[[], list[OracleReport]] = list) -> list[OracleReport]:
    """first() + the Monte Carlo rows: first() and then one ``_mc_batch`` per
    family, in the order the families first appear, on a pool as wide as the
    usable CPUs whose threads each reuse one set of block buffers.  Errors
    come as a serial loop raises them; on any error the tasks not started are
    cancelled and the pool joined before it goes on, so no thread outlives the call."""
    families = {}
    for params, kappa in _MC_CASES:
        families.setdefault(params.family, []).append((params, kappa))
    seeds = {family: int(seed_source.integers(2**63)) for family in families}
    n = budget.mc_samples
    buffers = threading.local()  # numpy's fills and ufuncs release the GIL

    def count(family: Family) -> list[tuple[float, float]]:
        return _mc_batch(families[family], n, seeds[family], vars(buffers))

    with ThreadPoolExecutor(min(1 + len(families), _usable_cpus())) as pool:
        first_rows = pool.submit(first)
        futures = {family: pool.submit(count, family) for family in families}
        try:
            rows = first_rows.result()
            # each case's own error, which its family's batch raised too
            analytic = [(cdf(params, kappa * mean(params)), _mc_target(params, kappa, n))
                        for params, kappa in _MC_CASES]
            results = {family: iter(future.result()) for family, future in futures.items()}
            for (params, kappa), (p, _) in zip(_MC_CASES, analytic):
                rows.append(OracleReport(
                    "monte_carlo", p, next(results[params.family])[0],
                    _MC_Z * math.sqrt(p * (1.0 - p) / n),
                    f"{params.family.value} P(X <= kappa*mean) vs {n} draws ({_MC_Z}-sigma "
                    f"band), p1={params.p1:g} p2={params.p2:g} kappa={kappa:g} "
                    f"seed={seeds[params.family]}",
                ))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return rows


def _phase_transition_rows() -> list[OracleReport]:
    rows = []
    for family in (Family.INVERSE_GAUSSIAN, Family.LOG_NORMAL):
        for kappa, target in ((0.99, 0.0), (1.0, 0.5)):
            value = solver.infimum(family, kappa).value
            rows.append(OracleReport(
                "closed_form", target, value, 0.0,
                f"{family.value} infimum exactly {target} at kappa={kappa}",
            ))
        above = solver.infimum(family, 1.01).value
        rows.append(OracleReport(
            "closed_form", 0.0, 0.0 if above > 0.5 else 1.0, 0.5,
            f"{family.value} infimum jumps above 1/2 at kappa=1.01 "
            f"(value {above:.6g}); estimate is 1 on violation",
        ))
    return rows


def _ig_near_one_rows() -> list[OracleReport]:
    """The inverse Gaussian critical point and infimum as kappa -> 1+.

    With e = kappa - 1, the stationarity is
    sqrt(2*pi)*B(s) + e/(sqrt(kappa)(kappa+1)x), where
    B(s) = erfcx(s) - 1/(s*sqrt(pi)) = -(1/(2s^3))(1 - 3/(2s^2) + ...)/sqrt(pi)
    and x = s*sqrt(2*kappa)/(kappa+1).  Its zero has
    s^2 = kappa/e - 3/2 + O(e) = 1/e - 1/2 + O(e), so, as
    2*kappa/(kappa+1)^2 = 1/2 + O(e^2),

        x0*sqrt(2e) = sqrt(1 - e/2 + O(e^2)) = 1 - e/4 + O(e^2).

    At x0, z = e*x0/sqrt(kappa) has z^2 = (e/2)(1 - 3e/2 + O(e^2)), and the
    curve is Phi(z) + exp(-z^2/2)*erfcx(s)/2 with
    Phi(z) = 1/2 + z/sqrt(2*pi) - z^3/(6*sqrt(2*pi)) + ... and
    erfcx(s) = (1 - 1/(2s^2) + ...)/(s*sqrt(pi)) = sqrt(e/pi)(1 - e/4 + O(e^2)).
    The first term is 1/2 + sqrt(e/(4*pi))(1 - 3e/4 - e/12 + O(e^2)), the
    second sqrt(e/(4*pi))(1 - e/2 + O(e^2)), so

        (inf - 1/2)/sqrt(e/pi) = 1 - 2e/3 + O(e^2),

    the leading term of the log-normal Phi(sqrt(2 ln kappa)) too.  Each row
    takes the largest |ratio - 1|/(e + floor) over e = 1e-12 .. 1e-3, which
    the first-order terms keep at about 1/4 and 2/3, below the tolerance 1.
    The floor covers rounding: 1e-13 for x0, which the solver gives to a few
    ulp, and 1e-8 for the infimum, where inf - 1/2 ~ 5.6e-7 at e = 1e-12
    carries the ~1e-16 absolute rounding of a value near 1/2.
    """
    worst_x = worst_inf = 0.0
    for gap in 10.0 ** np.arange(-12.0, -2.0):
        kappa = 1.0 + gap
        e = kappa - 1.0  # exact
        result = solver.infimum(Family.INVERSE_GAUSSIAN, kappa)
        x_ratio = result.argmin * math.sqrt(2.0 * e)
        inf_ratio = (result.value - 0.5) / math.sqrt(e / math.pi)
        worst_x = max(worst_x, abs(x_ratio - 1.0) / (e + 1e-13))
        worst_inf = max(worst_inf, abs(inf_ratio - 1.0) / (e + 1e-8))
    ladder = "over kappa-1 = 1e-12..1e-3"
    return [
        OracleReport(
            "closed_form", 0.0, worst_x, 1.0,
            f"inverse-gaussian x0*sqrt(2(kappa-1)) -> 1 as kappa -> 1+, "
            f"= 1 - (kappa-1)/4 + O((kappa-1)^2); estimate is the largest "
            f"|ratio - 1|/(kappa-1 + 1e-13) {ladder}",
        ),
        OracleReport(
            "closed_form", 0.0, worst_inf, 1.0,
            f"inverse-gaussian (inf - 1/2)/sqrt((kappa-1)/pi) -> 1 as kappa -> 1+, "
            f"= 1 - 2(kappa-1)/3 + O((kappa-1)^2); estimate is the largest "
            f"|ratio - 1|/(kappa-1 + 1e-8) {ladder}",
        ),
    ]


def run_verification(budget: str = "quick", seed: int = 1) -> list[OracleReport]:
    """Run the whole matrix and return one report per check."""
    if budget not in BUDGETS:
        raise DomainError(f"budget must be one of {sorted(BUDGETS)}, got {budget!r}")
    limits = BUDGETS[budget]
    rng = np.random.default_rng(require_count("seed", seed))

    # Every random input is drawn first, in the order of a serial run: the
    # quadrature cases, the derivative points, then (in _mc_rows) the Monte
    # Carlo seeds.  The rows keep the serial order and bytes.
    quad_cases = _quad_cases(limits, rng)
    points = _derivative_points(rng)

    def deterministic_rows() -> list[OracleReport]:
        return [
            *_closed_form_rows(quad_cases),
            _ig_monotone_row(),
            *_ig_critical_rows(limits),
            *_derivative_rows(*points),
            *_log_normal_rows(limits),
            *_location_scale_rows(),
        ]

    rows = _mc_rows(limits, rng, deterministic_rows)
    rows += _phase_transition_rows()
    rows += _ig_near_one_rows()
    return rows
