"""Family definitions: moments, CDFs, densities, seeded sampling."""

import contextlib
import hashlib
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kappainf import oracles
from kappainf import (
    DistParams,
    DomainError,
    EULER_GAMMA,
    Family,
    cdf,
    mc_prob,
    mean,
    pdf,
    quadrature_prob,
    reduced_prob,
    sample,
)
from kappainf.distributions import (_IG_SAMPLE_MU, _IG_SAMPLE_RATIO_MAX, POSITIVE_SUPPORT,
                                    _count_below)

# 50-digit quadrature of the inverse Gaussian (mu=1, lambda=1) density over (0, 1]
IG11_CDF_AT_1 = 0.6681020012231706

SQRT_DBL_MIN, SQRT_DBL_MAX = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)

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

    @pytest.mark.parametrize("mu", [-745.0, -720.0])
    def test_log_normal_mean_below_dbl_min_is_a_domain_error(self, mu):
        # a subnormal E[X] keeps fewer than 53 bits: at sigma = 1 and kappa = 1,
        # cdf at kappa*mean and quadrature_prob missed the curve's 0.6915 by
        # 2.1e-2 (mu = -745, E[X] rounds to 5e-324) and 3.6e-13 (mu = -720)
        params = DistParams.log_normal(mu, 1.0)
        for call in (lambda: mean(params), lambda: cdf(params, 1.0 * mean(params)),
                     lambda: quadrature_prob(params, 1.0)):
            with pytest.raises(DomainError, match=r"mu \+ sigma\^2/2 = "):
                call()

    def test_gumbel_mean_that_overflows_is_a_domain_error(self):
        # 0.5*E[X] is a float, but E[X] is not
        for call in (lambda: mean(DistParams.gumbel(1.7e308, 1e308)),
                     lambda: quadrature_prob(DistParams.gumbel(1.7e308, 1e308), 0.5)):
            with pytest.raises(DomainError, match=r"mu \+ beta\*gamma overflows"):
                call()

    @given(st.sampled_from(list(Family)), st.floats(allow_nan=False, allow_infinity=False),
           st.floats(0.0, sys.float_info.max, exclude_min=True))
    @example(Family.GUMBEL, 1.7e308, 1e308)
    @example(Family.LOG_NORMAL, 800.0, 1.0)
    @settings(max_examples=300, deadline=None)
    def test_mean_is_a_float_or_a_domain_error(self, family, mu, scale):
        assume(family is not Family.INVERSE_GAUSSIAN or mu > 0.0)
        params = DistParams(family, mu, scale)
        with warnings.catch_warnings(), contextlib.suppress(DomainError):
            warnings.simplefilter("error", RuntimeWarning)
            m = mean(params)
            assert isinstance(m, float) and math.isfinite(m)


class TestCdf:
    def test_logistic_half_at_location(self):
        assert cdf(DistParams.logistic(2.0, 5.0), 2.0) == 0.5

    def test_gumbel_at_location(self):
        assert cdf(DistParams.gumbel(0.0, 1.0), 0.0) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    @pytest.mark.parametrize("family", [Family.GUMBEL, Family.LOGISTIC])
    def test_overflowing_standardised_argument_gives_the_limit(self, family):
        # (t - mu)/beta overflows to +-inf: the cdf is exactly 1 or 0, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = DistParams(family, 0.0, 1e-300)
            assert cdf(params, 1e10) == 1.0
            assert cdf(params, -1e10) == 0.0
            assert cdf(params, [-1e10, 1e10]).tolist() == [0.0, 1.0]

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

    def test_bad_entry_named_by_index_not_by_array(self):
        # an array argument names its first bad entry; a scalar keeps its message
        with pytest.raises(DomainError) as info:
            pdf(DistParams.log_normal(0.0, 1.0), np.r_[np.ones(10_000), -1.0, 0.0])
        assert str(info.value) == "t must be > 0, got -1.0 at index 10000 of 10002 entries"
        with pytest.raises(DomainError) as info:
            pdf(DistParams.gumbel(0.0, 1.0), [[1.0, 2.0], [math.nan, math.inf]])
        assert str(info.value) == "t must be finite, got nan at index (1, 0) of 4 entries"
        with pytest.raises(DomainError) as info:
            pdf(DistParams.gumbel(0.0, 1.0), math.inf)
        assert str(info.value) == "t must be finite, got inf"

    def test_ig_density_is_scale_invariant(self):
        # c*pdf(IG(c*mu, c*lam), c*t) = pdf(IG(mu, lam), t); at c = 1e-300,
        # mu^2 underflows to 0, where a 0/0 exponent made the density NaN
        points = [(1.0, 1.0, 1.0), (1.0, 1.0, 0.3), (2.0, 0.5, 3.0), (0.1, 4.0, 0.05)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mu, lam, t in points:
                expected = pdf(DistParams.inverse_gaussian(mu, lam), t)
                for c in 10.0 ** np.arange(-300, 301, 20):
                    scaled = c * pdf(DistParams.inverse_gaussian(c * mu, c * lam), c * t)
                    assert abs(scaled / expected - 1.0) <= 1e-12, (mu, lam, t, c)

    def test_far_tails_underflow_to_zero(self):
        assert pdf(DistParams.inverse_gaussian(1.0, 1.0), 1e-300) == 0.0
        assert pdf(DistParams.gumbel(0.0, 1.0), -1000.0) == 0.0

    def test_ig_density_is_zero_up_to_dbl_max(self):
        # past DBL_MAX/2 both ((t-mu)/mu)^2 and 2t overflow, and inf/inf made
        # the density NaN
        big = [sys.float_info.max / 2.0 * 1.01, 1e308, sys.float_info.max]
        params = DistParams.inverse_gaussian(1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert [pdf(params, t) for t in big] == [0.0, 0.0, 0.0]
            assert pdf(params, np.array(big)).tolist() == [0.0, 0.0, 0.0]

    def test_ig_density_where_the_squared_ratio_overflows(self):
        # ((t - mu)/mu)^2 overflows at t = 1.4e134 while the density is a
        # normal float, and (t - mu)/mu alone overflows at mu = 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value = pdf(DistParams.inverse_gaussian(1e-20, 1e-200), 1.4e134)
            assert pdf(DistParams.inverse_gaussian(1e-300, 1.0), 1e10) == 0.0
        # 50-digit value at these float arguments
        assert abs(value / 2.4083411833740553e-302 - 1.0) <= 1e-12

    def test_location_scale_density_where_z_overflows(self):
        # (t - mu)/beta overflows to -inf: the Gumbel's -z - exp(-z) was
        # inf - inf (NaN), and the logistic warned on its way to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for family in (Family.GUMBEL, Family.LOGISTIC):
                params = DistParams(family, 1e300, 1e-10)
                assert pdf(params, -1e300) == 0.0
                assert pdf(params, 1e308) == 0.0
                assert pdf(params, np.array([-1e300, 1e308])).tolist() == [0.0, 0.0]

    # every (mu, beta, t) the checks accept, where (t - mu)/beta, exp(-z) and
    # beta*(1 + e)^2 overflow
    @given(st.sampled_from([Family.GUMBEL, Family.LOGISTIC]),
           st.floats(allow_nan=False, allow_infinity=False),
           st.floats(0.0, sys.float_info.max, exclude_min=True),
           st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_location_scale_density_over_every_accepted_input(self, family, mu, beta, ts):
        params = DistParams(family, mu, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = pdf(params, np.array(ts))
            scalars = np.array([pdf(params, t) for t in ts])
        assert values.tobytes() == scalars.tobytes()
        assert np.all(values >= 0.0)  # no NaN
        # the peak is 1/(e*beta) or 1/(4*beta): a float for every normal beta,
        # and rounded to inf only below it
        if beta >= sys.float_info.min:
            assert np.all(np.isfinite(values))

    def test_log_normal_density_where_two_sigma_squared_underflows(self):
        # 2*sigma^2 = 2e-340 rounds to 0: at log t = mu the written exponent
        # was 0/0 (NaN), elsewhere x/0 (a divide-by-zero warning)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            params = DistParams.log_normal(0.0, 1e-170)
            peak = pdf(params, 1.0)
            assert pdf(params, 1.5) == 0.0
            assert pdf(DistParams.log_normal(1e300, 1.0), 2.0) == 0.0  # the square overflows
        # 1/(sigma*sqrt(2*pi)); the log-density's exp spreads log's rounding
        assert abs(peak / 3.989422804014327e169 - 1.0) <= 1e-12

    # every (mu, sigma, t) the checks accept, where 2*sigma^2 underflows or
    # overflows, (log t - mu)^2 overflows and the density exceeds DBL_MAX
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(0.0, sys.float_info.max, exclude_min=True),
           st.lists(st.floats(0.0, sys.float_info.max, exclude_min=True), min_size=1, max_size=20))
    @example(0.0, 1e-170, [1.0, 1.5])
    @example(1e300, 1.0, [2.0])
    @example(0.0, 1e200, [1e-300, 1e300])
    @settings(max_examples=300, deadline=None)
    def test_log_normal_density_over_every_accepted_input(self, mu, sigma, ts):
        params = DistParams.log_normal(mu, sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = pdf(params, np.array(ts))
            scalars = np.array([pdf(params, t) for t in ts])
        assert values.tobytes() == scalars.tobytes()
        assert np.all(values >= 0.0)  # no NaN
        two_var = 2.0 * sigma * sigma
        if sys.float_info.min <= two_var < math.inf:
            # the written form, bit for bit, wherever 2*sigma^2 is a normal float
            log_t = np.log(np.array(ts))
            with np.errstate(over="ignore"):
                written = np.exp(-math.log(sigma) - 0.5 * math.log(2.0 * math.pi) - log_t
                                 - (log_t - mu) ** 2 / two_var)
            assert values.tobytes() == written.tobytes()

    # every (mu, lambda, t) the checks accept, where (t - mu)/mu overflows, r/t
    # overflows near t = 0 and the density exceeds DBL_MAX
    @given(st.floats(0.0, sys.float_info.max, exclude_min=True),
           st.floats(0.0, sys.float_info.max, exclude_min=True),
           st.lists(st.floats(0.0, sys.float_info.max, exclude_min=True), min_size=1, max_size=20))
    @example(1e-300, 1.0, [1e-300, 1.0])
    @example(1e-300, 1e300, [5e-324, 1e300])
    @example(1e300, 1e-300, [5e-324, 1e-300, 1e300])
    @settings(max_examples=300, deadline=None)
    def test_inverse_gaussian_density_over_every_accepted_input(self, mu, lam, ts):
        params = DistParams.inverse_gaussian(mu, lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = pdf(params, np.array(ts))
            scalars = np.array([pdf(params, t) for t in ts])
        assert values.tobytes() == scalars.tobytes()
        assert np.all(values >= 0.0)  # no NaN

    @pytest.mark.parametrize("params, knots", zip(ALL_PARAMS, MASS_KNOTS),
                             ids=[p.family.value for p in ALL_PARAMS])
    def test_total_mass_is_one(self, params, knots):
        mass, _ = oracles._gauss_kronrod(lambda t, _case: pdf(params, t), [np.array(knots)],
                                         1e-10)
        assert mass[0] == pytest.approx(1.0, abs=1e-9)


class TestSample:
    def test_deterministic_per_seed(self):
        for params in ALL_PARAMS:
            a = sample(params, 10_000, seed=123)
            b = sample(params, 10_000, seed=123)
            np.testing.assert_array_equal(a, b)
            c = sample(params, 10_000, seed=124)
            assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n", [1, 10_001, 200_001])
    def test_log_normal_draws_are_exp_of_the_generators_normals(self, n):
        # exp(p1 + p2*z) over default_rng(seed).standard_normal(n), bit for bit
        for mu, sigma in [(0.2, 0.8), (-3.0, 1e-3), (5.0, 4.0)]:
            z = np.random.default_rng(123).standard_normal(n)
            expected = np.exp(mu + sigma * z)
            draws = sample(DistParams.log_normal(mu, sigma), n, seed=123)
            assert draws.tobytes() == expected.tobytes(), (mu, sigma)

    def test_draws_are_frozen_bit_for_bit(self):
        # SHA-256 of sample(params, 10_000, seed=123) for each of ALL_PARAMS,
        # recorded from the plain (not in-place) transformations; the
        # log-normal one from exp(p1 + p2*z) over the generator's normals, and
        # the inverse Gaussian one from the block-streamed sampler (normals,
        # then uniforms, per 65,536-block) with the root mu/d
        frozen = [
            "2c0271ac8f111df7de7a79ca39cd5ea5c06ee6495b56bb0d05ed3ce83a01e7eb",
            "026a418b8159deaa97d5e6746c824d41d1312a3b18b0b8b49ec93bd2d4790015",
            "f08d3195e03ec7a6ae5a888dea067a79bfffe1923c437c3d491608ae284b5268",
            "52edb9d5e9c751d7fd28495548ecbf581f56c365d9dc770f3cd29ae8d4239d1f",
        ]
        for params, digest in zip(ALL_PARAMS, frozen):
            draws = sample(params, 10_000, seed=123)
            assert hashlib.sha256(draws.tobytes()).hexdigest() == digest, params

    # SHA-256 of sample(params, n, seed=123) for each of ALL_PARAMS at sizes
    # around the samplers' 65,536-element chunk, recorded from the whole-array
    # transformations before the samplers worked chunk by chunk (the
    # log-normal ones from exp(p1 + p2*z) over the generator's normals; the
    # inverse Gaussian ones from the block-streamed sampler, whose stream
    # depends on the chunk)
    FROZEN_AT_CHUNK_EDGES = {
        65_535: [
            "d4aff0818ef9a228f7be79ffe5137c452cef2a5c9690b5c9951ebf104b0778d6",
            "cdc7e5e1f028f894d77644b975ba6ea1ff8ff28b1482e9df41a593a8b9bfdeda",
            "755179a91b7bce35b555f6569fde46bb7ee0f3cfa95e932050bb280ee26c2482",
            "2d6a9504442d59379fb443828f8e7c354443adba040d6ee289dee5857d1d804c",
        ],
        65_536: [
            "97cbd928d4e505fd768f8b2c9a5851a5e2343fbc8b41b01f323ec0f3db93bb85",
            "c69809a803b685fdf7eae20d8536dc6d17dcc74261fb85a2bc5c2bbd215bdd28",
            "77481798ed3e9efcf78b37cbd17a44f0c1bada730c5b0e470210f30c9f67d86d",
            "ca08c39d231502f929fb5c11502a31675ee0aebd05918ee56f8d9ea8f7b46f15",
        ],
        65_537: [
            "cb7f32ea887e9c445b8aadeaa905d197a8dca10f66447ff62b16eafe6f07303b",
            "af165bd838e0fa0e82612e9f541a985ae47daf46e37084ecde3fdf61d930fdde",
            "58c888ea4e2d0fe6cc90a47d8ba674b85f306ac0ad1f9b62a469d5541cbde2bf",
            "2c86ad776589f99e339a70d9db828a1b951055d5488a7acb3a23a6af88f51243",
        ],
        200_001: [
            "aeb35a5143ba35de98aeabab1e3f393b0b9a786338ce9f1436ed33684e697b8a",
            "c32d657f65ef9b281bc6a65daa45f6150ecde48d5190c50ec593c3163ee571bb",
            "497f02fe5ab2d7c8bf068f050f565dfe841199bca5b6afcc093f409b3dbd4dda",
            "f0415f5944250d5dbb13d5d6e5bda41ee38e88beeb73f2b2829c6f6549f9b2e8",
        ],
    }

    @pytest.mark.parametrize("n", sorted(FROZEN_AT_CHUNK_EDGES))
    def test_draws_are_frozen_across_chunk_edges(self, n):
        for params, digest in zip(ALL_PARAMS, self.FROZEN_AT_CHUNK_EDGES[n]):
            draws = sample(params, n, seed=123)
            assert hashlib.sha256(draws.tobytes()).hexdigest() == digest, params

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.family.value)
    def test_million_draws_peak_below_10_mib(self, params):
        # the 8 MB result plus chunk-size buffers, no second full-size array
        tracemalloc.start()
        try:
            sample(params, 10**6, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20

    @pytest.mark.parametrize("n", [1000, 65_535, 65_536, 65_537, 200_001, 10**6])
    def test_family_draws_are_each_members_sample_and_mc_prob_counts_them(self, n):
        # three members of each family counted in one stream: member i's count
        # is that of sample(member i), and mc_prob counts sample's draws
        for params in ALL_PARAMS:
            members = [params, DistParams(params.family, 2.0 * params.p1, 0.5 * params.p2),
                       DistParams(params.family, params.p1, 3.0 * params.p2)]
            draws = [sample(member, n, seed=123) for member in members]
            for kappa in (0.5, 1.0, 2.0):
                t_end = [kappa * mean(member) for member in members]
                expected = [int(np.count_nonzero(x <= t)) for x, t in zip(draws, t_end)]
                assert _count_below(members, t_end, n, 123, {}) == expected, (params, kappa)
                p_hat, _ = mc_prob(params, kappa, n, 123)
                assert p_hat == float(expected[0]) / n, (params, kappa)

    @settings(max_examples=40, deadline=None)
    @given(log_mu=st.floats(math.log(_IG_SAMPLE_MU[0]), math.log(_IG_SAMPLE_MU[1])),
           log_ratio=st.floats(-math.log(_IG_SAMPLE_RATIO_MAX), math.log(_IG_SAMPLE_RATIO_MAX)),
           log_kappa=st.floats(math.log(1e-3), math.log(1e3)),
           n=st.sampled_from([65_535, 65_536, 65_537, 200_001]),
           seed=st.integers(0, 2**32))
    @example(log_mu=math.log(_IG_SAMPLE_MU[0]), log_ratio=math.log(1e99), log_kappa=0.0,
             n=65_537, seed=1)
    @example(log_mu=math.log(_IG_SAMPLE_MU[1]), log_ratio=math.log(1e-3),
             log_kappa=math.log(1e3), n=200_001, seed=2)
    def test_inverse_gaussian_count_is_the_count_of_sample(self, log_mu, log_ratio, log_kappa,
                                                           n, seed):
        # _mc_batch counts the inverse Gaussian draws from d and the odds
        # without picking mu/d or mu*d: its hits are those of sample's draws
        # on both sides of mu, at kappa = 1 and at the floats next to it
        lo, hi = _IG_SAMPLE_MU
        mu = min(max(math.exp(log_mu), lo), hi)
        lam = mu / math.exp(log_ratio)
        assume(mu / lam <= _IG_SAMPLE_RATIO_MAX)
        params = DistParams.inverse_gaussian(mu, lam)
        kappas = [math.exp(log_kappa), 1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]
        t_end = [kappa * mean(params) for kappa in kappas]
        assert {t >= mu for t in t_end} == {True, False}  # both branches of the count
        got = oracles._mc_batch([(params, kappa) for kappa in kappas], n, seed, {})
        draws = sample(params, n, seed)
        for (p_hat, _), t in zip(got, t_end):
            assert p_hat == float(np.count_nonzero(draws <= t)) / n, (mu, lam, t)

    # every member and kappa that the checks accept: finite draws inside the
    # support, and mc_prob's count of them; or a DomainError, never a warning
    @given(st.sampled_from(list(Family)), st.floats(allow_nan=False, allow_infinity=False),
           st.floats(0.0, sys.float_info.max, exclude_min=True),
           st.floats(0.0, sys.float_info.max, exclude_min=True))
    @example(Family.LOG_NORMAL, 709.0, 1.0, 1.0)  # exp overflows
    @example(Family.LOG_NORMAL, -745.0, 1.0, 1.0)  # exp underflows to 0
    @example(Family.GUMBEL, 0.0, 1e308, 1.0)  # beta*z overflows
    @example(Family.LOGISTIC, 1e308, 1e308, 1.0)  # mu + beta*z overflows
    @settings(max_examples=300, deadline=None)
    def test_draws_and_counts_over_every_accepted_member(self, family, mu, scale, kappa):
        assume(family is not Family.INVERSE_GAUSSIAN or mu > 0.0)
        params = DistParams(family, mu, scale)
        draws = p_hat = None
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.suppress(DomainError):
                draws = sample(params, 1000, seed=1)
            with contextlib.suppress(DomainError):
                p_hat, _ = mc_prob(params, kappa, 1000, seed=1)
        if draws is not None:
            assert np.all(np.isfinite(draws))
            if family in POSITIVE_SUPPORT:
                assert np.all(draws > 0.0)
        if p_hat is not None:
            assert draws is not None
            assert p_hat == float(np.count_nonzero(draws <= kappa * mean(params))) / 1000

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.family.value)
    def test_million_draw_count_holds_no_draw_array(self, params):
        # block buffers only: five 512 KiB float buffers for the inverse
        # Gaussian, two for the others, and a 64 KiB mask
        tracemalloc.start()
        try:
            mc_prob(params, 1.0, 10**6, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (3 if params.family is Family.INVERSE_GAUSSIAN else 2) * 2**20

    @pytest.mark.parametrize("mu, lam", [(1.0, 1e-101), (2.6e-35, 4.3e-201), (1e200, 1e200),
                                         (1e-200, 1e-200)])
    def test_inverse_gaussian_sampler_refuses_where_its_draws_go_wrong(self, mu, lam):
        # above mu/lambda = 1e100 the root mu/d can leave the normal floats and
        # d the range of cdf; outside [sqrt(DBL_MIN), sqrt(DBL_MAX)] so can mu/d
        # and mu*d at smaller ratios
        params = DistParams.inverse_gaussian(mu, lam)
        with pytest.raises(DomainError, match="sampler takes"):
            sample(params, 10, seed=1)
        with pytest.raises(DomainError, match="sampler takes"):
            mc_prob(params, 2.0, 1000, seed=1)

    @pytest.mark.parametrize("mu, lam", [(SQRT_DBL_MIN, SQRT_DBL_MIN), (SQRT_DBL_MAX, SQRT_DBL_MAX),
                                         (1e6, 1.0), (SQRT_DBL_MIN, SQRT_DBL_MIN / 1e6),
                                         (SQRT_DBL_MAX, SQRT_DBL_MAX / 1e6), (1e100, 1.0),
                                         (SQRT_DBL_MIN, SQRT_DBL_MIN / 1e100),
                                         (SQRT_DBL_MAX, SQRT_DBL_MAX / 1e100),
                                         (SQRT_DBL_MAX, 1e308), (SQRT_DBL_MIN, 1e308)])
    def test_inverse_gaussian_draws_at_the_sampler_limits_are_positive(self, mu, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = sample(DistParams.inverse_gaussian(mu, lam), 200_000, seed=7)
        assert np.all(np.isfinite(draws)) and np.all(draws > 0.0)

    @pytest.mark.parametrize("ratio", [1e-3, 1.0, 1e3, 1e7, 1e9, 1e100])
    @pytest.mark.parametrize("mu", [SQRT_DBL_MIN, 2.0, SQRT_DBL_MAX])
    def test_inverse_gaussian_draws_follow_cdf(self, mu, ratio):
        # the Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant
        # (Ann. Probab. 18, 1990): P(sup_t |F_n(t) - F(t)| > eps) <=
        # 2*exp(-2*n*eps^2), so this eps fails a correct sampler with
        # probability at most 1e-6.  It covers the ratio limit 1e100 and both
        # ends of the mu range.
        n = 100_000
        eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
        params = DistParams.inverse_gaussian(mu, mu / ratio)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = cdf(params, np.sort(sample(params, n, seed=20261020)))
        i = np.arange(1, n + 1)
        assert max(np.max(i / n - values), np.max(values - (i - 1) / n)) <= eps

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
