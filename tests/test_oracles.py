"""Quadrature, Monte Carlo and grid oracles, and their agreement with the
analytic path."""

import math

import numpy as np
import pytest

from kappainf import oracles
from kappainf import (
    DistParams,
    DomainError,
    EULER_GAMMA,
    Family,
    GridSpec,
    NumericalError,
    OracleReport,
    adaptive_gauss_kronrod,
    cdf,
    grid_min,
    infimum,
    mc_prob,
    mean,
    quadrature_prob,
    reduce_params,
    reduced_prob,
    run_verification,
    sample,
)

# 50-digit value of Phi(ln(1.4)/0.7 + 0.35)
LN_03_07_K14 = 0.7969212671839596
PHI_SQRT2 = 0.9213503964748574


def random_member(family, rng):
    if family is Family.INVERSE_GAUSSIAN:
        return DistParams.inverse_gaussian(10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-2, 2))
    if family is Family.LOG_NORMAL:
        return DistParams.log_normal(rng.uniform(-2, 2), 10.0 ** rng.uniform(-1.3, 0.5))
    if family is Family.GUMBEL:
        return DistParams.gumbel(rng.uniform(-5, 5), 10.0 ** rng.uniform(-1, 1))
    return DistParams.logistic(rng.uniform(-5, 5), 10.0 ** rng.uniform(-1, 1))


class TestQuadratureEngine:
    def test_gaussian_mass(self):
        value, err = adaptive_gauss_kronrod(
            lambda t: np.exp(-0.5 * t * t), [-10.0, 0.0, 10.0], tol=1e-12
        )
        assert value == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-12)
        assert err <= 1e-12

    def test_needle_resolved_once_straddled_by_knots(self):
        # a spike of width 1e-4: the seed knots straddle it (as the density
        # knot builder guarantees) and refinement must then resolve it fully
        value, _ = adaptive_gauss_kronrod(
            lambda t: np.exp(-0.5 * ((t - 0.3) / 1e-4) ** 2),
            [0.0, 0.25, 0.35, 1.0],
            tol=1e-12,
        )
        assert value == pytest.approx(1e-4 * math.sqrt(2.0 * math.pi), rel=1e-8)

    def test_budget_exhaustion_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(oracles, "_MAX_INTERVALS", 8)
        with pytest.raises(NumericalError, match="did not converge"):
            adaptive_gauss_kronrod(lambda t: np.cos(1e5 * t), [0.0, 1.0], tol=1e-14)

    def test_rejects_bad_knots(self):
        with pytest.raises(DomainError):
            adaptive_gauss_kronrod(lambda t: t, [1.0], tol=1e-10)
        with pytest.raises(DomainError):
            adaptive_gauss_kronrod(lambda t: t, [0.0, math.inf], tol=1e-10)


class TestQuadratureProb:
    def test_logistic_symmetry(self):
        assert quadrature_prob(DistParams.logistic(0.0, 1.0), 1.0) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_log_normal_closed_form(self):
        assert quadrature_prob(DistParams.log_normal(0.3, 0.7), 1.4) == pytest.approx(
            LN_03_07_K14, abs=1e-9
        )

    def test_ig_curve_cross_check(self):
        value = quadrature_prob(DistParams.inverse_gaussian(1.0, 1.0), 2.0)
        assert value == pytest.approx(
            reduced_prob(Family.INVERSE_GAUSSIAN, 2.0, 1.0), abs=1e-9
        )

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_agreement_with_cdf_200_random_cases(self, family):
        rng = np.random.default_rng(101)
        for _ in range(200):
            params = random_member(family, rng)
            kappa = 10.0 ** rng.uniform(-1, 1)
            analytic = cdf(params, kappa * mean(params))
            estimate = quadrature_prob(params, kappa)
            assert abs(analytic - estimate) <= 1e-9, (params, kappa)

    def test_deep_left_tail_is_zero(self):
        # target far below any representable density: mass is 0 to 1e-10
        assert quadrature_prob(DistParams.gumbel(1000.0, 1.0), 1e-6) == 0.0


class TestGridMin:
    def test_log_normal_example(self):
        coord, value = grid_min(
            Family.LOG_NORMAL, math.e, GridSpec("geometric", 1e-2, 1e2, 100_000)
        )
        assert abs(coord - math.sqrt(2.0)) <= 1e-3
        assert abs(value - PHI_SQRT2) <= 1e-6

    def test_ig_example(self):
        target = infimum(Family.INVERSE_GAUSSIAN, 2.0).value
        _, value = grid_min(
            Family.INVERSE_GAUSSIAN, 2.0, GridSpec("geometric", 1e-3, 10.0, 100_000)
        )
        assert abs(value - target) <= 1e-6
        assert value >= target - 1e-12

    def test_constant_curve(self):
        coord, value = grid_min(
            Family.LOGISTIC, 1.0, GridSpec("linear", -50.0, 50.0, 2000)
        )
        assert value == 0.5

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec("geometric", -1.0, 10.0, 5000)
        with pytest.raises(DomainError):
            GridSpec("log", 1.0, 10.0, 5000)
        with pytest.raises(DomainError):
            grid_min(Family.INVERSE_GAUSSIAN, 2.0, GridSpec("linear", -1.0, 1.0, 5000))
        with pytest.raises(DomainError):
            grid_min(Family.LOGISTIC, 2.0, GridSpec("linear", -1.0, 1.0, 500))
        with pytest.raises(DomainError, match="lo must be a real number"):
            GridSpec("linear", "a", 1.0, 10)
        with pytest.raises(DomainError, match="hi must be finite"):
            GridSpec("linear", 0.0, math.inf, 10)
        with pytest.raises(DomainError, match="count must be an integer"):
            GridSpec("linear", 0.0, 1.0, 2.5)
        with pytest.raises(DomainError, match="need finite lo < hi"):
            GridSpec("linear", 1.0, 1.0, 10)
        with pytest.raises(DomainError, match="grid count must be >= 2"):
            GridSpec("linear", 0.0, 1.0, 1)

    def test_default_grids(self):
        assert GridSpec.default_for(Family.LOG_NORMAL, 1000).kind == "geometric"
        assert GridSpec.default_for(Family.LOG_NORMAL, 1000).lo == pytest.approx(1e-6)
        assert GridSpec.default_for(Family.LOGISTIC, 1000).kind == "linear"


class TestMcProb:
    def test_gumbel_unit_multiplier(self):
        estimate, se = mc_prob(DistParams.gumbel(0.0, 1.0), 1.0, 10**6, seed=7)
        target = math.exp(-math.exp(-EULER_GAMMA))
        assert abs(estimate - target) <= 4.0 * se

    def test_logistic_median_equals_mean(self):
        estimate, se = mc_prob(DistParams.logistic(5.0, 2.0), 1.0, 10**6, seed=7)
        assert abs(estimate - 0.5) <= 4.0 * se

    def test_ig_against_analytic_cdf(self):
        params = DistParams.inverse_gaussian(2.0, 6.0)
        estimate, se = mc_prob(params, 1.5, 10**6, seed=11)
        assert abs(estimate - cdf(params, 3.0)) <= 4.0 * se

    def test_deterministic_and_validated(self):
        params = DistParams.logistic(0.0, 1.0)
        assert mc_prob(params, 1.3, 10**4, seed=5) == mc_prob(params, 1.3, 10**4, seed=5)
        with pytest.raises(DomainError):
            mc_prob(params, 1.3, 999, seed=5)
        with pytest.raises(DomainError, match="seed must be >= 0"):
            mc_prob(params, 2.0, 1000, -1)
        with pytest.raises(DomainError, match="seed must be >= 0"):
            sample(params, 10, -1)
        with pytest.raises(DomainError, match="n must be an integer"):
            sample(params, 2.5, 1)
        with pytest.raises(DomainError, match="seed must be an integer"):
            sample(params, 10, 1.5)
        with pytest.raises(DomainError, match="seed must be >= 0"):
            run_verification("quick", -1)
        with pytest.raises(DomainError, match=r"budget must be one of \['full', 'quick'\]"):
            run_verification("huge", 1)

    def test_error_shrinks_with_tenfold_samples(self):
        # seeded regression: 10 fixed trials, fresh sub-seeds per size
        trials = [
            (DistParams.inverse_gaussian(1.0, 1.0), 0.9),
            (DistParams.inverse_gaussian(3.0, 2.0), 1.5),
            (DistParams.log_normal(0.0, 1.0), 1.0),
            (DistParams.log_normal(0.5, 0.5), 0.8),
            (DistParams.gumbel(0.0, 1.0), 1.0),
            (DistParams.gumbel(1.0, 3.0), 1.3),
            (DistParams.logistic(0.0, 1.0), 0.7),
            (DistParams.logistic(2.0, 0.5), 1.1),
            (DistParams.inverse_gaussian(0.5, 5.0), 2.0),
            (DistParams.log_normal(-0.3, 1.5), 1.2),
        ]
        improved = 0
        for i, (params, kappa) in enumerate(trials):
            target = cdf(params, kappa * mean(params))
            coarse, _ = mc_prob(params, kappa, 10**5, seed=1000 + 2 * i)
            fine, _ = mc_prob(params, kappa, 10**6, seed=1000 + 2 * i + 1)
            improved += abs(fine - target) < abs(coarse - target)
        assert improved >= 8


class TestOracleReport:
    def test_passed_is_derived(self):
        good = OracleReport("quadrature", 1.0, 1.0 + 1e-12, 1e-9)
        assert good.passed
        bad = OracleReport("quadrature", 1.0, 1.01, 1e-9)
        assert not bad.passed

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            OracleReport("guessing", 1.0, 1.0, 1e-9)
