"""Family definitions: moments, CDFs, densities, seeded sampling."""

import math
import warnings

import numpy as np
import pytest

from kappainf import (
    DistParams,
    DomainError,
    EULER_GAMMA,
    Family,
    adaptive_gauss_kronrod,
    cdf,
    mc_prob,
    mean,
    pdf,
    quadrature_prob,
    reduced_prob,
    sample,
)

# 50-digit quadrature of the inverse Gaussian (mu=1, lambda=1) density over (0, 1]
IG11_CDF_AT_1 = 0.6681020012231706

ALL_PARAMS = [
    DistParams.inverse_gaussian(1.5, 2.0),
    DistParams.log_normal(0.2, 0.8),
    DistParams.gumbel(1.0, 2.0),
    DistParams.logistic(-1.0, 0.7),
]

# closed-form standard deviations of ALL_PARAMS: sqrt(mu^3/lambda),
# sqrt(expm1(sigma^2)*exp(2mu + sigma^2)), pi*beta/sqrt(6), pi*beta/sqrt(3)
ALL_STDS = [1.299038105676658, 1.5925887594637909, 2.565099660323728, 1.2696595549639524]

# integration knots of each of ALL_PARAMS: the support's start or a far left
# tail, a point near the mean, and a far right tail; the tails cut off carry
# less than 1e-20 of the mass
MASS_KNOTS = [[0.0, 1.5, 200.0], [0.0, 1.7, 2000.0], [-30.0, 2.2, 120.0], [-60.0, -1.0, 60.0]]


class TestParams:
    def test_rejects_invalid_scale_or_shape(self):
        with pytest.raises(DomainError):
            DistParams.inverse_gaussian(-1.0, 1.0)
        with pytest.raises(DomainError):
            DistParams.inverse_gaussian(1.0, 0.0)
        with pytest.raises(DomainError):
            DistParams.log_normal(0.0, -0.5)
        with pytest.raises(DomainError):
            DistParams.gumbel(0.0, 0.0)
        with pytest.raises(DomainError):
            DistParams.logistic(0.0, math.nan)

    def test_location_may_be_any_real_except_ig(self):
        DistParams.log_normal(-3.0, 1.0)
        DistParams.gumbel(-3.0, 1.0)
        with pytest.raises(DomainError):
            DistParams.inverse_gaussian(0.0, 1.0)


class TestMean:
    def test_inverse_gaussian_mean_is_mu(self):
        assert mean(DistParams.inverse_gaussian(3.0, 7.0)) == 3.0

    def test_log_normal_mean_degenerates_to_one(self):
        assert mean(DistParams.log_normal(0.0, 1e-8)) == pytest.approx(1.0, abs=1e-12)

    def test_gumbel_mean_involves_euler_gamma(self):
        assert mean(DistParams.gumbel(0.0, 1.0)) == 0.5772156649015329
        assert mean(DistParams.gumbel(2.0, 3.0)) == pytest.approx(2.0 + 3.0 * EULER_GAMMA)

    def test_logistic_mean_is_location(self):
        assert mean(DistParams.logistic(-2.5, 9.0)) == -2.5

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [
        lambda: mean(DistParams.log_normal(800.0, 1.0)),  # exp overflows
        lambda: quadrature_prob(DistParams.log_normal(0.0, 40.0), 2.0),
        lambda: mc_prob(DistParams.log_normal(710.0, 1.0), 2.0, 1000, 1),  # before sampling
        lambda: quadrature_prob(DistParams.log_normal(-800.0, 1.0), 2.0),  # exp underflows to 0
    ], ids=["mean-overflow", "quadrature-overflow", "mc-overflow", "quadrature-underflow"])
    def test_log_normal_mean_outside_the_floats_is_a_domain_error(self, call):
        with pytest.raises(DomainError, match=r"mu \+ sigma\^2/2 = "):
            call()

    def test_log_normal_mean_near_the_low_end_is_kept(self):
        assert mean(DistParams.log_normal(-700.0, 1.0)) == 1.6255858439919858e-304


class TestCdf:
    def test_logistic_half_at_location(self):
        assert cdf(DistParams.logistic(2.0, 5.0), 2.0) == 0.5

    def test_gumbel_at_location(self):
        assert cdf(DistParams.gumbel(0.0, 1.0), 0.0) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_ig_matches_density_quadrature(self):
        assert cdf(DistParams.inverse_gaussian(1.0, 1.0), 1.0) == pytest.approx(
            IG11_CDF_AT_1, abs=1e-10
        )

    def test_non_numeric_input_is_a_domain_error(self):
        for call in (lambda: reduced_prob(Family.INVERSE_GAUSSIAN, 2.0, "abc"),
                     lambda: cdf(DistParams.gumbel(0.0, 1.0), "x"),
                     lambda: pdf(DistParams.gumbel(0.0, 1.0), ["1", "a"])):
            with pytest.raises(DomainError, match="must be a real number"):
                call()

    def test_ig_underflowing_ratio_is_zero(self):
        # t/mu underflows to 0 at t > 0: the exact value there is 0 too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = DistParams.inverse_gaussian(1e300, 1.0)
            assert cdf(params, 1e-300) == 0.0
            # a subnormal t/mu overflows c*c/(2*ratio) in the exponent to inf
            assert cdf(DistParams.inverse_gaussian(1e10, 1.0), 1e-300) == 0.0
            assert cdf(params, [-1e300, 5e-324, 1e-300, 1e300]).tolist() == [
                0.0, 0.0, 0.0, cdf(params, 1e300)]

    def test_zero_below_positive_support(self):
        for params in ALL_PARAMS[:2]:
            assert cdf(params, 0.0) == 0.0
            assert cdf(params, -3.0) == 0.0

    def test_monotone_with_unit_range(self):
        for params in ALL_PARAMS:
            lo = -50.0 if params.family in (Family.GUMBEL, Family.LOGISTIC) else 1e-9
            t = np.linspace(lo, 60.0, 4_000)
            v = cdf(params, t)
            assert np.all(np.diff(v) >= 0.0)
            assert np.all((v >= 0.0) & (v <= 1.0))
        assert cdf(ALL_PARAMS[0], 1e6) == pytest.approx(1.0, abs=1e-12)

    def test_ig_cdf_vs_quadrature_50_combos_extreme_ratios(self):
        # lambda/mu spans 1e-2 .. 1e4: exercises the combined-exponent form
        mus = [0.01, 0.1, 1.0, 10.0, 100.0]
        ratios = [1e-2, 1e-1, 1.0, 1e2, 1e4]
        multipliers = [0.8, 1.05]
        checked = 0
        for mu in mus:
            for ratio in ratios:
                params = DistParams.inverse_gaussian(mu, ratio * mu)
                for c in multipliers:
                    t = c * mu
                    analytic = cdf(params, t)
                    estimate = quadrature_prob(params, t / mu)
                    assert abs(analytic - estimate) <= 1e-9, (mu, ratio, c)
                    checked += 1
        assert checked == 50

    def test_ig_cdf_is_the_reduced_curve_bit_for_bit(self):
        # one kernel: array t/mu with scalar x in cdf, scalar kappa in the curve
        rng = np.random.default_rng(5)
        for _ in range(200):
            mu, lam = 10.0 ** rng.uniform(-2, 2, size=2)
            params = DistParams.inverse_gaussian(mu, lam)
            t = mu * 10.0 ** rng.uniform(-2, 2, size=8)
            x = math.sqrt(lam / mu)
            expected = [reduced_prob(Family.INVERSE_GAUSSIAN, ti / mu, x) for ti in t]
            assert cdf(params, t).tolist() == expected
            assert [cdf(params, ti) for ti in t] == expected

    def test_cdf_derivative_matches_pdf(self):
        for params, scale in zip(ALL_PARAMS, ALL_STDS):
            center = mean(params)
            offsets = np.array([-1.5, -0.75, -0.25, 0.25, 0.75, 1.5])
            t = center + offsets * scale
            if params.family in (Family.INVERSE_GAUSSIAN, Family.LOG_NORMAL):
                t = t[t > 0.1 * center]
            h = 6e-6 * scale
            fd = (cdf(params, t + h) - cdf(params, t - h)) / (2.0 * h)
            np.testing.assert_allclose(fd, pdf(params, t), rtol=1e-6)


class TestPdf:
    def test_gumbel_peak_value(self):
        assert pdf(DistParams.gumbel(0.0, 1.0), 0.0) == pytest.approx(math.exp(-1.0))

    def test_logistic_peak_value(self):
        assert pdf(DistParams.logistic(0.0, 1.0), 0.0) == 0.25

    def test_positive_support_families_reject_nonpositive_t(self):
        with pytest.raises(DomainError):
            pdf(DistParams.inverse_gaussian(1.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            pdf(DistParams.log_normal(0.0, 1.0), -1.0)

    def test_far_tails_underflow_to_zero(self):
        assert pdf(DistParams.inverse_gaussian(1.0, 1.0), 1e-300) == 0.0
        assert pdf(DistParams.gumbel(0.0, 1.0), -1000.0) == 0.0

    @pytest.mark.parametrize("params, knots", zip(ALL_PARAMS, MASS_KNOTS),
                             ids=[p.family.value for p in ALL_PARAMS])
    def test_total_mass_is_one(self, params, knots):
        mass, _ = adaptive_gauss_kronrod(lambda t: pdf(params, t), knots, 1e-10)
        assert mass == pytest.approx(1.0, abs=1e-9)


class TestSample:
    def test_deterministic_per_seed(self):
        for params in ALL_PARAMS:
            a = sample(params, 10_000, seed=123)
            b = sample(params, 10_000, seed=123)
            np.testing.assert_array_equal(a, b)
            c = sample(params, 10_000, seed=124)
            assert not np.array_equal(a, c)

    def test_zero_draws_is_empty_not_an_error(self):
        assert sample(ALL_PARAMS[0], 0, seed=1).size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            sample(ALL_PARAMS[0], -1, seed=1)

    def test_logistic_mean_within_clt_band(self):
        draws = sample(DistParams.logistic(0.0, 1.0), 10**6, seed=42)
        bound = 4.0 * (math.pi / math.sqrt(3.0)) / 1e3
        assert abs(draws.mean()) <= bound

    def test_ig_mean_within_clt_band(self):
        draws = sample(DistParams.inverse_gaussian(2.0, 8.0), 10**6, seed=1)
        bound = 4.0 * math.sqrt(2.0**3 / 8.0) / 1e3
        assert abs(draws.mean() - 2.0) <= bound

    def test_positive_support_samples_are_positive(self):
        for params in ALL_PARAMS[:2]:
            assert np.all(sample(params, 100_000, seed=5) > 0.0)

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.family.value)
    def test_empirical_cdf_ks_regression(self, params):
        # deterministic regression at a fixed seed, not a hypothesis test
        n = 10**6
        xs = np.sort(sample(params, n, seed=2026))
        analytic = cdf(params, xs)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - analytic), np.max(analytic - (i - 1) / n))
        assert ks <= 2.0 / math.sqrt(n)
