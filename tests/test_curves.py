"""Reduced probability curves and the inverse Gaussian stationarity system."""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kappainf import (
    DistParams,
    DomainError,
    Family,
    cdf,
    ig_peak_coord,
    ig_prob_deriv,
    ig_stationarity_scaled,
    mean,
    reduce_params,
    reduced_prob,
    std_normal_cdf,
)
from kappainf.curves import IG_KAPPA_MAX, _ig_d
from kappainf.distributions import _LOG_MAX, _exp_float, _ig_exponent
from kappainf.errors import RegimeError

IG = Family.INVERSE_GAUSSIAN

# frozen 50-digit references (quadrature / direct evaluation)
GUMBEL_UNIT_CONSTANT = 0.5703760016750230  # exp(-exp(-EULER_GAMMA))
IG11_PROB_AT_TWICE_MEAN = 0.8854754259860064
STATIONARITY_1_AT_1 = -0.15726154142389105  # scaled
STATIONARITY_2_AT_PEAK = 0.069362226482577289  # scaled, at sqrt(2/3)


def random_member(family, rng):
    if family is Family.INVERSE_GAUSSIAN:
        return DistParams.inverse_gaussian(10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-2, 2))
    if family is Family.LOG_NORMAL:
        return DistParams.log_normal(rng.uniform(-2, 2), 10.0 ** rng.uniform(-1.3, 0.5))
    if family is Family.GUMBEL:
        return DistParams.gumbel(rng.uniform(-5, 5), 10.0 ** rng.uniform(-1, 1))
    return DistParams.logistic(rng.uniform(-5, 5), 10.0 ** rng.uniform(-1, 1))


def unscaled_stationarity(kappa, x):
    """2*int_a^inf e^{-t^2/2} dt - e^{-a^2/2}/(sqrt(kappa) x), a = (kappa+1)x/sqrt(kappa):
    the scaled function times e^{-a^2/2}."""
    a = (kappa + 1.0) * x / math.sqrt(kappa)
    return np.exp(-0.5 * a * a) * ig_stationarity_scaled(kappa, x)


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

    def test_ig_tiny_ratio_keeps_the_second_term(self):
        # a form with (ratio+1)^2/(2*ratio) overflows at ratio = 1e-310, drops
        # the second term and leaves Phi(-1e-5) = 0.4999960106; the cdf's
        # ratio t/mu and x = sqrt(lambda/mu) are the same pair
        assert reduced_prob(IG, 1e-310, 1e-160) == pytest.approx(0.9999920212, abs=1e-10)
        tiny = DistParams.inverse_gaussian(1e300, 1e-20)
        assert cdf(tiny, 1e-10) == pytest.approx(0.9999920212, abs=1e-10)

    def test_ig_exponent_is_exact_near_unit_ratio(self):
        # -(ratio-1)^2 x^2/(2*ratio) with nothing cancelling: within 2 ulp of
        # the exact rational value where 2 - (ratio+1)^2/(2*ratio) loses all digits
        for ratio, x in ((1.0 + 2.0 ** -30, 1024.0), (1.0 - 2.0 ** -40, 3.0), (7.0, 0.5)):
            exact = -(Fraction(ratio) - 1) ** 2 * Fraction(x) ** 2 / (2 * Fraction(ratio))
            assert _ig_exponent(ratio, x) == pytest.approx(float(exact), rel=4.5e-16, abs=0.0)

    def test_float_coordinate_keeps_bits_and_messages(self):
        # a Python float takes the scalar guards instead of a 0-d array
        for family in Family:
            for coord in (0.3, 2.5, 40.0):
                value = reduced_prob(family, 2.0, coord)
                assert type(value) is float
                assert value.hex() == reduced_prob(family, 2.0, np.array(coord)).hex()
        for call in (ig_prob_deriv, ig_stationarity_scaled):
            assert call(2.0, 0.7).hex() == call(2.0, np.array(0.7)).hex()
        for bad, message in ((0.0, "coord must be > 0, got 0.0"),
                             (-1.5, "coord must be > 0, got -1.5"),
                             (math.nan, "coord must be finite, got nan"),
                             (math.inf, "coord must be finite, got inf")):
            with pytest.raises(DomainError) as raised:
                reduced_prob(IG, 2.0, bad)
            assert str(raised.value) == message
        with pytest.raises(DomainError) as raised:
            reduced_prob(Family.GUMBEL, 2.0, -math.inf)
        assert str(raised.value) == "coord must be finite, got -inf"
        with pytest.raises(DomainError, match="x must be > 0, got 0.0"):
            ig_stationarity_scaled(2.0, 0.0)

    def test_ig_kappa_above_its_limit_is_a_domain_error(self):
        # the cdf's ratio t/mu plays kappa's part in the same curve
        tiny_shape = DistParams.inverse_gaussian(1.0, 1e-300)
        assert reduced_prob(IG, IG_KAPPA_MAX, 1e-77) > 0.5
        assert cdf(tiny_shape, IG_KAPPA_MAX) == 1.0
        for kappa in (math.nextafter(IG_KAPPA_MAX, math.inf), 1e200, 1.7e308):
            for call in (lambda: reduced_prob(IG, kappa, 1e-100),
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
        assert ig_stationarity_scaled(1.0, 1.0) == pytest.approx(STATIONARITY_1_AT_1, abs=1e-12)
        xs = np.geomspace(1e-3, 50.0, 500)
        assert np.all(ig_stationarity_scaled(1.0, xs) < 0.0)

    def test_positive_at_its_peak_for_large_multiplier(self):
        peak = ig_peak_coord(2.0)
        assert peak == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
        assert ig_stationarity_scaled(2.0, peak) == pytest.approx(STATIONARITY_2_AT_PEAK, abs=1e-12)

    def test_blows_down_near_zero(self):
        # dominated by -1/(sqrt(kappa) x)
        value = ig_stationarity_scaled(2.0, 1e-4)
        assert value < -5000.0
        assert value == pytest.approx(-1.0 / (math.sqrt(2.0) * 1e-4), rel=1e-3)

    def test_scaled_variant_same_signs(self):
        # the literal unscaled form 2*int_a^inf e^{-t^2/2} dt - e^{-a^2/2}/(sqrt(kappa) x)
        rng = np.random.default_rng(11)
        kappas = 10.0 ** rng.uniform(-0.7, 1.0, 300)
        xs = 10.0 ** rng.uniform(-2.0, 1.0, 300)
        for kappa, x in zip(kappas, xs):
            a = (kappa + 1.0) * x / math.sqrt(kappa)
            literal = (2.0 * math.sqrt(math.pi / 2.0) * math.erfc(a / math.sqrt(2.0))
                       - math.exp(-0.5 * a * a) / (math.sqrt(kappa) * x))
            assert np.sign(literal) == np.sign(ig_stationarity_scaled(kappa, x))

    def test_slope_factor_predicts_stationarity_slope(self):
        # the slope factor 1/kappa - kappa + 1/x^2 has the sign of
        # peak - x: rising below the peak coordinate, falling above it
        xs = np.geomspace(0.05, 5.0, 200)
        h = 1e-7
        fd = (unscaled_stationarity(2.0, xs + h) - unscaled_stationarity(2.0, xs - h)) / (2 * h)
        assert np.all(np.sign(fd) == np.sign(ig_peak_coord(2.0) - xs))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ig_stationarity_scaled(2.0, 0.0)
        with pytest.raises(DomainError):
            ig_stationarity_scaled(2.0, -1.0)
        with pytest.raises(RegimeError):
            ig_peak_coord(1.0)

    def test_overflowing_erfcx_argument_is_a_domain_error(self):
        # erfcx(inf) = 0 would leave -1/(sqrt(kappa) x): the wrong sign for kappa > 1
        for call in (ig_stationarity_scaled, ig_prob_deriv):
            with pytest.raises(DomainError, match="too large"):
                call(2.0, np.array([1.0, 1e308]))

    @given(st.floats(1e-3, 1e3), st.lists(st.floats(1e-8, 1e6), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_kernel_is_the_public_function_bit_for_bit(self, kappa, xs):
        # the public value is sqrt(2)*h/x, h = (x/s)*(q - D(s)), over the one
        # kernel, and the kernel's array path has the bits of its scalar path
        sqrt_2k = math.sqrt(2.0 * kappa)
        s = (kappa + 1.0) * np.array(xs) / sqrt_2k
        public = ig_stationarity_scaled(kappa, np.array(xs))
        kernel = _ig_d(s)
        h = (kappa - 1.0) / (kappa + 1.0) / sqrt_2k - sqrt_2k / (kappa + 1.0) * kernel
        assert public.tobytes() == (math.sqrt(2.0) * h / np.array(xs)).tobytes()
        for x, s_x, d, value in zip(xs, s, kernel, public):
            scalar = _ig_d(float(s_x))
            assert scalar.hex() == d.hex()
            assert ig_stationarity_scaled(kappa, x).hex() == value.hex()

    def test_d_array_has_the_bits_of_float_calls_at_every_term_count(self):
        # fractions of every length 6..52 (s = 140/(n - 5.5), s = 200 for 6 terms),
        # the cut at s = 3 and one ulp to each side, +inf and near entries,
        # shuffled, so an entry's term count does not follow from its place
        rng = np.random.default_rng(29)
        tail = [140.0 / (n - 5.5) for n in range(7, 52)] + [200.0, math.inf]
        cut = [math.nextafter(3.0, 0.0), 3.0, math.nextafter(3.0, 4.0)]
        s = rng.permutation([*tail, *cut, *rng.uniform(0.01, 3.0, 40)])
        assert {6 + int(140.0 / v) for v in s if v >= 3.0} == set(range(6, 53))
        for arr in (s, s[:0], s[s < 3.0], s[s >= 3.0]):
            assert [d.hex() for d in _ig_d(arr).tolist()] == [_ig_d(v).hex() for v in arr.tolist()]
        # an array runs every tail entry to its smallest entry's 52 terms: with
        # s = 3 in it, 20,000 log-uniform entries in [3, 1e6] keep their bits
        wide = np.r_[np.exp(rng.uniform(math.log(3.0), math.log(1e6), 20_000)), 3.0]
        assert _ig_d(wide).tobytes() == np.array([_ig_d(v) for v in wide.tolist()]).tobytes()

    @pytest.mark.parametrize("kappa", [1e-300, 0.5, 2.0, 1e100])
    def test_tiny_coordinates_are_finite_limits(self, kappa):
        # as x -> 0+, d/dx of the curve tends to -sqrt(2/(pi*kappa)) and the
        # stationarity to -1/(sqrt(kappa)*x), which is -inf beyond -DBL_MAX
        limit = -math.sqrt(2.0 / (math.pi * kappa))
        xs = [5e-324, 1e-320, 1e-300]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            array = ig_prob_deriv(kappa, np.array(xs))
            for x, from_array in zip(xs, array):
                deriv = ig_prob_deriv(kappa, x)
                assert math.isfinite(deriv) and abs(deriv / limit - 1.0) <= 1e-12, x
                assert from_array == deriv
                value = ig_stationarity_scaled(kappa, x)
                assert type(value) is float, x
                log_size = -0.5 * math.log(kappa) - math.log(x)
                if log_size > math.log(sys.float_info.max):
                    assert value == -math.inf, x
                else:
                    assert abs(value / -math.exp(log_size) - 1.0) <= 1e-12, x
            assert np.all(ig_stationarity_scaled(kappa, np.array(xs)) < 0.0)


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
        s = np.array([ig_stationarity_scaled(k, x) for k, x in zip(kappas, xs)])
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


# kappa log-uniform in [1e-3, 1e3], or 1 + 10^u for u in [-12, -1]
KAPPAS = st.one_of(st.floats(-3.0, 3.0).map(lambda u: 10.0 ** u),
                   st.floats(-12.0, -1.0).map(lambda u: 1.0 + 10.0 ** u))
# every float the public checks accept, where (kappa+1)*x, exp(-z) and h/x overflow
POSITIVE = st.floats(0.0, sys.float_info.max, exclude_min=True)
REAL = st.floats(allow_nan=False, allow_infinity=False)
COORDS = st.one_of(st.floats(1e-3, 30.0), POSITIVE)
ANY_KAPPAS = st.one_of(KAPPAS, st.floats(0.0, IG_KAPPA_MAX, exclude_min=True), POSITIVE)


def float_calls(call, kappas, coords):
    """call on each (kappa, coord) pair as Python floats, checked to return floats."""
    values = [call(float(k), float(c)) for k, c in zip(kappas, coords)]
    assert all(type(v) is float for v in values)
    return np.array(values)


class TestArrayKappa:
    @given(st.lists(st.tuples(ANY_KAPPAS, COORDS, st.one_of(st.floats(-50.0, 50.0), REAL)),
                    min_size=1, max_size=30),
           st.sampled_from(list(Family)))
    @settings(max_examples=300, deadline=None)
    def test_reduced_prob_is_the_scalar_call_bit_for_bit(self, points, family):
        if family is IG:
            points = [p for p in points if p[0] <= IG_KAPPA_MAX]
            assume(points)
        kappas, xs, ys = (np.array(column) for column in zip(*points))
        coords = xs if family in (IG, Family.LOG_NORMAL) else ys
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            array = reduced_prob(family, kappas, coords)
            scalar = float_calls(lambda k, c: reduced_prob(family, k, c), kappas, coords)
        assert array.tobytes() == scalar.tobytes()

    @given(st.lists(st.tuples(st.one_of(KAPPAS, st.floats(0.0, IG_KAPPA_MAX, exclude_min=True)),
                              COORDS), min_size=1, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_stationarity_kernels_are_the_scalar_calls_bit_for_bit(self, points):
        # only points whose erfcx argument is finite: the others are a DomainError
        points = [(k, x) for k, x in points if math.isfinite((k + 1.0) * x / math.sqrt(2.0 * k))]
        assume(points)
        kappas, xs = (np.array(column) for column in zip(*points))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (ig_prob_deriv, ig_stationarity_scaled):
                assert call(kappas, xs).tobytes() == float_calls(call, kappas, xs).tobytes()
        s = (kappas + 1.0) * xs / np.sqrt(2.0 * kappas)
        assert _ig_d(s).tobytes() == np.array([_ig_d(float(v)) for v in s]).tobytes()

    def test_float_exp_is_numpys_and_inf_past_its_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w in (-math.inf, -800.0, -1.5, 0.0, 700.0, _LOG_MAX):
                assert _exp_float(w) == np.exp(w) < math.inf
            for w in (math.nextafter(_LOG_MAX, math.inf), 1e300, math.inf):
                assert _exp_float(w) == math.inf

    def test_float_calls_take_no_errstate(self, monkeypatch):
        # plain float arithmetic overflows to inf quietly, so a float call needs no
        # np.errstate, not even where (kappa+1)*x, exp(-z) or h/x overflow
        def refuse(*args, **kwargs):
            raise AssertionError("np.errstate entered on a float call")

        monkeypatch.setattr(np, "errstate", refuse)
        big, tiny = 1e300, 5e-324
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kappa in (1e-300, 1e-3, 0.5, 1.0, 2.0, 1e3, IG_KAPPA_MAX):
                for family in Family:
                    coords = ((tiny, 1.0, big) if family in (IG, Family.LOG_NORMAL)
                              else (-big, -1.0, 0.0, tiny, big))
                    for coord in coords:
                        assert type(reduced_prob(family, kappa, coord)) is float
                for x in (tiny, 1.0, 1e100):
                    for call in (ig_stationarity_scaled, ig_prob_deriv):
                        assert type(call(kappa, x)) is float
            assert type(ig_peak_coord(2.0)) is float
            for family in Family:
                assert type(reduce_params(DistParams(family, 2.0, 0.5))) is float
            for z in (-big, -38.4, 0.3, 38.4, big):
                assert type(std_normal_cdf(z)) is float

    def test_kappa_broadcasts_against_the_coordinate(self):
        kappas = np.array([[0.5], [2.0]])
        xs = np.array([0.3, 1.0, 4.0])
        grid = reduced_prob(IG, kappas, xs)
        assert grid.shape == (2, 3)
        assert grid[1, 2] == reduced_prob(IG, 2.0, 4.0)
        assert reduced_prob(Family.GUMBEL, np.array(2.0), -1.0) == reduced_prob(
            Family.GUMBEL, 2.0, -1.0)

    def test_bad_array_kappa_is_a_domain_error(self):
        xs = np.array([0.5, 1.0])
        calls = [lambda k, f=family: reduced_prob(f, k, xs) for family in Family]
        calls += [lambda k: ig_prob_deriv(k, xs), lambda k: ig_stationarity_scaled(k, xs)]
        for call in calls:
            for bad in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(DomainError, match="kappa must be"):
                    call(np.array([2.0, bad]))
            with pytest.raises(DomainError, match=r"kappa and (coord|x) must broadcast.*"
                                                  r"\(3,\) and \(2,\)"):
                call(np.array([0.5, 2.0, 3.0]))
        above = np.array([2.0, math.nextafter(IG_KAPPA_MAX, math.inf)])
        for call in (lambda k: reduced_prob(IG, k, xs), lambda k: ig_prob_deriv(k, xs),
                     lambda k: ig_stationarity_scaled(k, xs)):
            with pytest.raises(DomainError, match="kappa must be <= 1.34"):
                call(above)
        for family in (Family.LOG_NORMAL, Family.GUMBEL, Family.LOGISTIC):
            assert reduced_prob(family, above, xs).shape == (2,)
