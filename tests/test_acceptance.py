"""Acceptance suite: the eight exit criteria, one test per criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible under
``pytest -s``) and enforces both the numerical tolerance and the runtime
budget of its criterion.
"""

import csv
import io
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from kappainf import (
    DistParams,
    Family,
    GridSpec,
    cdf,
    grid_min,
    ig_critical_point,
    ig_peak_coord,
    ig_prob_deriv,
    ig_stationarity_scaled,
    infimum,
    mc_prob,
    mean,
    quadrature_prob,
    reduced_prob,
    std_normal_cdf,
)
from kappainf.cli import main as cli_main

IG = Family.INVERSE_GAUSSIAN
LN = Family.LOG_NORMAL


@contextmanager
def criterion(number: int, description: str, max_seconds: float):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed or elapsed > max_seconds else "PASS"
        print(f"[criterion {number}] {status} ({elapsed:.2f}s <= {max_seconds:g}s) "
              f"{description}")
    assert elapsed <= max_seconds, f"criterion {number} run time {elapsed:.1f}s"


def test_criterion_1_ig_closed_form_vs_quadrature():
    with criterion(1, "inverse Gaussian closed form vs density quadrature, "
                      "200 random cases within 1e-9", 30.0):
        rng = np.random.default_rng(20260811)
        worst = 0.0
        for _ in range(200):
            mu, lam = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
            kappa = rng.uniform(0.1, 10.0)
            params = DistParams.inverse_gaussian(mu, lam)
            analytic = reduced_prob(IG, kappa, math.sqrt(lam / mu))
            estimate = quadrature_prob(params, kappa)
            worst = max(worst, abs(analytic - estimate))
        assert worst <= 1e-9, f"worst |curve - quadrature| = {worst:.3e}"


def test_criterion_2_strict_decrease_and_tail_limits():
    with criterion(2, "strict decrease for kappa <= 1 with the stated tail limits", 1.0):
        grid = np.geomspace(1e-3, 30.0, 1000)
        for kappa in (0.3, 0.7, 1.0):
            values = reduced_prob(IG, kappa, grid)
            assert np.all(np.diff(values) < 0.0), f"not strictly decreasing at {kappa}"
        assert reduced_prob(IG, 0.7, 30.0) <= 1e-3
        assert abs(reduced_prob(IG, 1.0, 30.0) - 0.5) <= 1e-2
        gap_near = reduced_prob(IG, 1.0, 3.0) - 0.5
        gap_far = reduced_prob(IG, 1.0, 300.0) - 0.5
        assert gap_near >= 10.0 * gap_far > 0.0


def test_criterion_3_critical_points_and_grid_agreement():
    with criterion(3, "critical points inside their brackets, zero residual, "
                      "value > 1/2, 1e5-point grid agreement", 10.0):
        for kappa in (1.5, 2.0, 3.0, 5.0, 10.0):
            x0 = ig_critical_point(kappa)
            assert 0.0 < x0 < ig_peak_coord(kappa)
            assert abs(ig_stationarity_scaled(kappa, x0)) <= 1e-10
            value = reduced_prob(IG, kappa, x0)
            assert value > 0.5
            coord, grid_value = grid_min(
                IG, kappa, GridSpec("geometric", 1e-3, 10.0, 100_000)
            )
            assert abs(grid_value - value) <= 1e-6
            assert abs(coord - x0) <= 1e-3 * x0


def test_criterion_4_derivative_factorization():
    with criterion(4, "derivative matches finite differences (rel 1e-4, "
                      "abs floor 1e-8) and carries the stationarity sign", 5.0):
        rng = np.random.default_rng(4)
        kappas = rng.uniform(0.2, 10.0, size=1000)
        xs = rng.uniform(0.05, 5.0, size=1000)
        for kappa, x in zip(kappas, xs):
            step = 1e-6 * max(1.0, x)
            fd = (reduced_prob(IG, kappa, x + step)
                  - reduced_prob(IG, kappa, x - step)) / (2.0 * step)
            deriv = ig_prob_deriv(kappa, x)
            assert abs(fd - deriv) <= 1e-4 * abs(deriv) + 1e-8, (kappa, x)
            assert np.sign(deriv) == np.sign(ig_stationarity_scaled(kappa, x)), (kappa, x)


def test_criterion_5_log_normal_infimum_formula():
    with criterion(5, "log-normal infimum formula, grid confirmation, and "
                      "limits approached at sigma=1e-6", 5.0):
        for kappa in (1.5, math.e, 4.0):
            result = infimum(LN, kappa)
            formula = std_normal_cdf(math.sqrt(2.0 * math.log(kappa)))
            assert abs(result.value - formula) <= 1e-12
            assert result.value > 0.5
            _, grid_value = grid_min(
                LN, kappa, GridSpec("geometric", 1e-2, 1e2, 100_000)
            )
            assert abs(grid_value - result.value) <= 1e-6
        for kappa, limit in ((0.5, 0.0), (1.0, 0.5)):
            assert abs(reduced_prob(LN, kappa, 1e-6) - limit) <= 1e-3


def test_criterion_6_gumbel_logistic_constants_and_tails():
    with criterion(6, "constant curves at kappa=1 and vanishing tails at the "
                      "declared limit directions", 1.0):
        grid = np.linspace(-40.0, 40.0, 1601)
        gumbel_const = math.exp(-math.exp(-0.5772156649015329))
        assert np.max(np.abs(reduced_prob(Family.GUMBEL, 1.0, grid) - gumbel_const)) <= 1e-15
        assert np.max(np.abs(reduced_prob(Family.LOGISTIC, 1.0, grid) - 0.5)) <= 1e-15
        for family in (Family.GUMBEL, Family.LOGISTIC):
            assert reduced_prob(family, 0.5, 40.0) <= 1e-8   # infimum as coord -> +inf
            assert reduced_prob(family, 2.0, -40.0) <= 1e-8  # infimum as coord -> -inf


def test_criterion_7_monte_carlo_cross_check():
    with criterion(7, "12 fixed Monte Carlo cases (3 per family, n=1e6) "
                      "within 4 standard errors", 60.0):
        cases = [
            (DistParams.inverse_gaussian(2.0, 6.0), 1.5, 11),
            (DistParams.inverse_gaussian(1.0, 1.0), 0.8, 12),
            (DistParams.inverse_gaussian(0.5, 4.0), 2.0, 13),
            (DistParams.log_normal(0.0, 1.0), 1.0, 21),
            (DistParams.log_normal(0.3, 0.7), 1.4, 22),
            (DistParams.log_normal(-1.0, 2.0), 3.0, 23),
            (DistParams.gumbel(0.0, 1.0), 1.0, 7),
            (DistParams.gumbel(2.0, 0.5), 1.2, 32),
            (DistParams.gumbel(-3.0, 2.0), 0.7, 33),
            (DistParams.logistic(5.0, 2.0), 1.0, 7),
            (DistParams.logistic(1.0, 0.3), 1.5, 42),
            (DistParams.logistic(-2.0, 1.5), 0.5, 43),
        ]
        for params, kappa, seed in cases:
            analytic = cdf(params, kappa * mean(params))
            estimate, se = mc_prob(params, kappa, 10**6, seed)
            assert abs(estimate - analytic) <= 4.0 * se, (params, kappa, seed)


def test_criterion_8_phase_transition_sweep_via_cli():
    with criterion(8, "CLI sweep reproduces the 0 -> 1/2 -> >1/2 jump and the "
                      "CSV round-trips to 1e-12", 30.0):
        runner = CliRunner()
        for family in ("inverse-gaussian", "log-normal"):
            result = runner.invoke(
                cli_main,
                ["infimum", "--family", family,
                 "--kappa", "0.9,0.99,1.0,1.01,1.1,2", "--format", "csv"],
            )
            assert result.exit_code == 0
            rows = list(csv.DictReader(io.StringIO(result.output)))
            values = [float(r["value"]) for r in rows]
            assert values[0] == 0.0 and values[1] == 0.0
            assert values[2] == 0.5
            assert all(v > 0.5 for v in values[3:])
            for row in rows:
                if row["attained"] == "true":
                    revalued = reduced_prob(
                        Family(row["family"]), float(row["kappa"]), float(row["argmin"])
                    )
                    assert abs(revalued - float(row["value"])) <= 1e-12
