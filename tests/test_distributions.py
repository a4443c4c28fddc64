"""Family definitions: moments, CDFs, densities, seeded sampling."""

import hashlib
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

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
        # log-normal one from exp(p1 + p2*z) over the generator's normals
        frozen = [
            "72ad1c947424247ce699571f241fcf03423c03b371747d7f7ae6e25c48423e07",
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
    # log-normal ones from exp(p1 + p2*z) over the generator's normals)
    FROZEN_AT_CHUNK_EDGES = {
        65_535: [
            "a31a9b847ffb9469b65752f69cad4f367b40046a71f76788a14b745ed8a571bd",
            "cdc7e5e1f028f894d77644b975ba6ea1ff8ff28b1482e9df41a593a8b9bfdeda",
            "755179a91b7bce35b555f6569fde46bb7ee0f3cfa95e932050bb280ee26c2482",
            "2d6a9504442d59379fb443828f8e7c354443adba040d6ee289dee5857d1d804c",
        ],
        65_536: [
            "9a7e473e8129ed7ec6e7d94820360769c2bb6f29f5c6dee7280c9b9e2b59df6a",
            "c69809a803b685fdf7eae20d8536dc6d17dcc74261fb85a2bc5c2bbd215bdd28",
            "77481798ed3e9efcf78b37cbd17a44f0c1bada730c5b0e470210f30c9f67d86d",
            "ca08c39d231502f929fb5c11502a31675ee0aebd05918ee56f8d9ea8f7b46f15",
        ],
        65_537: [
            "6a45772399c302040022ac61cc0121e433b53ee3810940287bdead4353d9f845",
            "af165bd838e0fa0e82612e9f541a985ae47daf46e37084ecde3fdf61d930fdde",
            "58c888ea4e2d0fe6cc90a47d8ba674b85f306ac0ad1f9b62a469d5541cbde2bf",
            "2c86ad776589f99e339a70d9db828a1b951055d5488a7acb3a23a6af88f51243",
        ],
        200_001: [
            "0c9b794711a1bf17cb317fd015b378d7488f61aa18d8710b1a14d9e073606601",
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
