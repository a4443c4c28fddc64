"""Reduced probability curves and the inverse Gaussian stationarity system."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kappainf import (
    DistParams,
    DomainError,
    Family,
    cdf,
    ig_peak_coord,
    ig_prob_deriv,
    ig_stationarity,
    ig_stationarity_scaled,
    mean,
    reduce_params,
    reduced_prob,
)
from kappainf.curves import IG_KAPPA_MAX, _ig_stationarity_kernel
from kappainf.errors import RegimeError

IG = Family.INVERSE_GAUSSIAN

# frozen 50-digit references (quadrature / direct evaluation)
GUMBEL_UNIT_CONSTANT = 0.5703760016750230  # exp(-exp(-EULER_GAMMA))
IG11_PROB_AT_TWICE_MEAN = 0.8854754259860064
STATIONARITY_1_AT_1 = -0.021283035250828595
STATIONARITY_2_AT_PEAK = 0.015476804703309131


def random_member(family, rng):
    if family is Family.INVERSE_GAUSSIAN:
        return DistParams.inverse_gaussian(10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-2, 2))
    if family is Family.LOG_NORMAL:
        return DistParams.log_normal(rng.uniform(-2, 2), 10.0 ** rng.uniform(-1.3, 0.5))
    if family is Family.GUMBEL:
        return DistParams.gumbel(rng.uniform(-5, 5), 10.0 ** rng.uniform(-1, 1))
    return DistParams.logistic(rng.uniform(-5, 5), 10.0 ** rng.uniform(-1, 1))


class TestReducedPoint:
    def test_positive_domain_enforced(self):
        # sqrt(lambda/mu) underflows to 0 and mu/beta overflows to inf
        with pytest.raises(DomainError, match=r"coord must be > 0, got 0\.0"):
            reduce_params(DistParams.inverse_gaussian(1e300, 1e-300))
        with pytest.raises(DomainError, match=r"coord must be finite, got inf"):
            reduce_params(DistParams.gumbel(1e300, 1e-300))
        assert reduce_params(DistParams.gumbel(-1.0, 1.0)) == -1.0  # real line: fine

    def test_reduce_params(self):
        assert reduce_params(DistParams.inverse_gaussian(4.0, 9.0)) == 1.5
        assert reduce_params(DistParams.log_normal(0.3, 0.7)) == 0.7
        assert reduce_params(DistParams.gumbel(3.0, 2.0)) == 1.5
        assert reduce_params(DistParams.logistic(-3.0, 2.0)) == -1.5


class TestReducedProb:
    def test_logistic_is_half_at_unit_multiplier(self):
        for y in (-17.3, 0.0, 3.7, 40.0):
            assert reduced_prob(Family.LOGISTIC, 1.0, y) == 0.5

    def test_logistic_overflowing_exponent_is_silent(self):
        # (kappa - 1)*y overflows to +-inf; expit's limits come out without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reduced_prob(Family.LOGISTIC, 1e100, 1.7976931348623157e308) == 1.0
            assert reduced_prob(Family.LOGISTIC, 1e100, -1.7976931348623157e308) == 0.0

    def test_gumbel_is_constant_at_unit_multiplier(self):
        for x in (-40.0, -1.0, 0.0, 25.0):
            assert reduced_prob(Family.GUMBEL, 1.0, x) == pytest.approx(
                GUMBEL_UNIT_CONSTANT, abs=1e-15
            )

    def test_ig_curve_equals_cdf_at_twice_mean(self):
        value = reduced_prob(IG, 2.0, 1.0)
        assert value == pytest.approx(IG11_PROB_AT_TWICE_MEAN, abs=1e-11)
        assert value == pytest.approx(
            cdf(DistParams.inverse_gaussian(1.0, 1.0), 2.0), abs=1e-12
        )

    def test_reduction_consistency_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            family = list(Family)[rng.integers(4)]
            params = random_member(family, rng)
            kappa = 10.0 ** rng.uniform(-1, 1)
            via_curve = reduced_prob(family, kappa, reduce_params(params))
            via_cdf = cdf(params, kappa * mean(params))
            assert abs(via_curve - via_cdf) <= 1e-10

    def test_ig_monotone_decreasing_for_small_multipliers(self):
        grid = np.geomspace(1e-3, 30.0, 1000)
        for kappa in (0.3, 0.8, 1.0):
            values = reduced_prob(IG, kappa, grid)
            assert np.all(np.diff(values) < 0.0), kappa

    def test_rejects_nonpositive_coord_for_positive_families(self):
        with pytest.raises(DomainError):
            reduced_prob(IG, 2.0, -1.0)
        with pytest.raises(DomainError):
            reduced_prob(Family.LOG_NORMAL, 2.0, 0.0)

    def test_log_normal_tiny_sigma_is_the_exact_limit(self):
        # log(kappa)/sigma overflows to +-inf; Phi's limits 1, 1/2, 0 come out
        # without a warning, for scalar and array sigma, and likewise from the
        # cdf at t = kappa (its (log t - mu)/sigma overflows the same way)
        sigmas = np.array([5e-324, 1e-320, 1e-310, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kappa, limit in ((2.0, 1.0), (1.0, 0.5), (0.5, 0.0)):
                assert reduced_prob(Family.LOG_NORMAL, kappa, 1e-320) == limit
                assert np.all(reduced_prob(Family.LOG_NORMAL, kappa, sigmas) == limit)
                assert cdf(DistParams.log_normal(0.0, 1e-320), kappa) == limit

    def test_ig_overflowing_intermediates_give_the_exact_limits(self):
        # (kappa -+ 1)*x/sqrt(kappa) or the combined exponent overflows to +-inf;
        # Phi, erfcx and exp take the infinity to the curve's true limit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reduced_prob(IG, 1e100, 1e300) == 1.0
            assert reduced_prob(IG, 5e-324, 1e154) == 0.0
            assert reduced_prob(IG, 1e-300, 1e100) == 0.0
            assert ig_prob_deriv(1e-300, 1e100) == 0.0

    def test_ig_kappa_above_its_limit_is_a_domain_error(self):
        # the cdf's ratio t/mu plays kappa's part in the same curve
        tiny_shape = DistParams.inverse_gaussian(1.0, 1e-300)
        assert reduced_prob(IG, IG_KAPPA_MAX, 1e-77) > 0.5
        assert cdf(tiny_shape, IG_KAPPA_MAX) == 1.0
        for kappa in (math.nextafter(IG_KAPPA_MAX, math.inf), 1e200, 1.7e308):
            for call in (lambda: reduced_prob(IG, kappa, 1e-100),
                         lambda: ig_stationarity(kappa, 1e-100),
                         lambda: ig_stationarity_scaled(kappa, 1e-100),
                         lambda: ig_prob_deriv(kappa, 1e-100),
                         lambda: ig_peak_coord(kappa)):
                with pytest.raises(DomainError, match="kappa must be <= 1.34"):
                    call()
            with pytest.raises(DomainError, match="t/mu must be <= 1.34"):
                cdf(tiny_shape, [1.0, kappa])

    def test_no_overflow_anywhere_in_range(self):
        xs = np.geomspace(1e-3, 1e3, 500)
        for kappa in np.geomspace(1e-3, 1e3, 25):
            p = reduced_prob(IG, kappa, xs)
            d = ig_prob_deriv(kappa, xs)
            assert np.all(np.isfinite(p)) and np.all(np.isfinite(d))

    @given(
        st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
        st.sampled_from(list(Family)),
    )
    @settings(max_examples=300, deadline=None)
    def test_values_are_probabilities(self, kappa, coord, family):
        assert 0.0 <= reduced_prob(family, kappa, coord) <= 1.0


class TestStationarity:
    def test_negative_everywhere_at_unit_multiplier(self):
        assert ig_stationarity(1.0, 1.0) == pytest.approx(STATIONARITY_1_AT_1, abs=1e-12)
        xs = np.geomspace(1e-3, 50.0, 500)
        assert np.all(ig_stationarity_scaled(1.0, xs) < 0.0)

    def test_positive_at_its_peak_for_large_multiplier(self):
        peak = ig_peak_coord(2.0)
        assert peak == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
        assert ig_stationarity(2.0, peak) == pytest.approx(STATIONARITY_2_AT_PEAK, abs=1e-12)

    def test_blows_down_near_zero(self):
        # dominated by -1/(sqrt(kappa) x)
        value = ig_stationarity(2.0, 1e-4)
        assert value < -5000.0
        assert value == pytest.approx(-1.0 / (math.sqrt(2.0) * 1e-4), rel=1e-3)

    def test_scaled_variant_same_signs(self):
        rng = np.random.default_rng(11)
        kappas = 10.0 ** rng.uniform(-0.7, 1.0, 300)
        xs = 10.0 ** rng.uniform(-2.0, 1.0, 300)
        for kappa, x in zip(kappas, xs):
            assert np.sign(ig_stationarity(kappa, x)) == np.sign(
                ig_stationarity_scaled(kappa, x)
            )

    def test_slope_factor_predicts_stationarity_slope(self):
        # the slope factor 1/kappa - kappa + 1/x^2 has the sign of
        # peak - x: rising below the peak coordinate, falling above it
        xs = np.geomspace(0.05, 5.0, 200)
        h = 1e-7
        fd = (ig_stationarity(2.0, xs + h) - ig_stationarity(2.0, xs - h)) / (2 * h)
        assert np.all(np.sign(fd) == np.sign(ig_peak_coord(2.0) - xs))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ig_stationarity(2.0, 0.0)
        with pytest.raises(DomainError):
            ig_stationarity_scaled(2.0, -1.0)
        with pytest.raises(RegimeError):
            ig_peak_coord(1.0)

    def test_overflowing_erfcx_argument_is_a_domain_error(self):
        # erfcx(inf) = 0 would leave -1/(sqrt(kappa) x): the wrong sign for kappa > 1
        for call in (ig_stationarity, ig_stationarity_scaled, ig_prob_deriv):
            with pytest.raises(DomainError, match="too large"):
                call(2.0, np.array([1.0, 1e308]))

    @given(st.floats(1e-3, 1e3), st.lists(st.floats(1e-8, 1e6), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_kernel_is_the_public_function_bit_for_bit(self, kappa, xs):
        public = ig_stationarity_scaled(kappa, np.array(xs))
        kernel = _ig_stationarity_kernel(kappa, np.array(xs))
        assert public.tobytes() == kernel.tobytes()
        for x, value in zip(xs, public):
            scalar = _ig_stationarity_kernel(kappa, x)
            assert float(scalar).hex() == ig_stationarity_scaled(kappa, x).hex() == value.hex()


class TestProbDeriv:
    def test_negative_in_decreasing_regime(self):
        assert ig_prob_deriv(1.0, 2.0) < 0.0

    def test_vanishes_at_the_critical_point(self):
        from kappainf import ig_critical_point

        x0 = ig_critical_point(2.0)
        assert abs(ig_prob_deriv(2.0, x0)) <= 1e-10

    def test_matches_finite_difference(self):
        step = 1e-6
        fd = (reduced_prob(IG, 2.0, 0.5 + step) - reduced_prob(IG, 2.0, 0.5 - step)) / (2 * step)
        assert ig_prob_deriv(2.0, 0.5) == pytest.approx(fd, rel=1e-5)

    def test_sign_factorization_random(self):
        rng = np.random.default_rng(3)
        kappas = 10.0 ** rng.uniform(math.log10(0.2), 1.0, 1000)
        xs = rng.uniform(0.05, 5.0, 1000)
        d = np.array([ig_prob_deriv(k, x) for k, x in zip(kappas, xs)])
        s = np.array([ig_stationarity(k, x) for k, x in zip(kappas, xs)])
        assert np.all(np.sign(d) == np.sign(s))

    def test_stabilized_form_matches_literal_product_small_x(self):
        # the literal factorized product overflows past x ~ 19; below x = 5
        # it is exact and must agree with the combined-exponent form
        rng = np.random.default_rng(17)
        for _ in range(300):
            kappa = 10.0 ** rng.uniform(-0.3, 0.7)
            x = rng.uniform(0.05, 5.0)
            a = (kappa + 1.0) * x / math.sqrt(kappa)
            literal_stat = (
                2.0 * math.sqrt(math.pi / 2.0) * math.erfc(a / math.sqrt(2.0))
                - math.exp(-0.5 * a * a) / (math.sqrt(kappa) * x)
            )
            literal = 2.0 * x * math.exp(2.0 * x * x) / math.sqrt(2 * math.pi) * literal_stat
            stable = ig_prob_deriv(kappa, x)
            if abs(stable) > 1e-250:
                assert literal == pytest.approx(stable, rel=1e-9)
