"""Quadrature, Monte Carlo and grid oracles, and their agreement with the
analytic path."""

import hashlib
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kappainf import curves, distributions, oracles, special, verification
from kappainf import (
    DistParams,
    DomainError,
    EULER_GAMMA,
    Family,
    GridSpec,
    KappainfError,
    NumericalError,
    OracleReport,
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
    # the engine integrates f(x, case) over each case's knots; one case here
    def test_gaussian_mass(self):
        value, err = oracles._gauss_kronrod(
            lambda x, _case: np.exp(-0.5 * x * x), [np.array([-10.0, 0.0, 10.0])], tol=1e-12
        )
        assert value[0] == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-12)
        assert err[0] <= 1e-12

    def test_needle_resolved_once_straddled_by_knots(self):
        # a spike of width 1e-4: the seed knots straddle it (as the density
        # knot builder guarantees) and refinement must then resolve it fully
        value, _ = oracles._gauss_kronrod(
            lambda x, _case: np.exp(-0.5 * ((x - 0.3) / 1e-4) ** 2),
            [np.array([0.0, 0.25, 0.35, 1.0])],
            tol=1e-12,
        )
        assert value[0] == pytest.approx(1e-4 * math.sqrt(2.0 * math.pi), rel=1e-8)

    def test_budget_exhaustion_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(oracles, "_MAX_INTERVALS", 8)
        with pytest.raises(NumericalError, match="did not converge"):
            oracles._gauss_kronrod(lambda x, _case: np.cos(1e5 * x), [np.array([0.0, 1.0])],
                                   tol=1e-14)

    def test_batch_gives_each_integral_its_one_integral_bits(self):
        # needles of widths 1e-4..1 split in different rounds; a batch of any
        # size and order must give each integral the bits of its own run
        rng = np.random.default_rng(7)
        center = rng.uniform(0.2, 0.8, 60)
        width = 10.0 ** rng.uniform(-4.0, 0.0, 60)
        knots = [np.array([0.0, c, 1.0]) if j % 3 else np.array([-1.0, 0.0, c, 0.9, 1.0])
                 for j, c in enumerate(center)]

        def run(ids):
            def f(x, case):
                z = (x - center[ids[case], None]) / width[ids[case], None]
                return np.exp(-0.5 * z * z)
            value, err = oracles._gauss_kronrod(f, [knots[i] for i in ids], 1e-10)
            return np.stack([value, err], axis=1)

        alone = np.concatenate([run(np.array([i])) for i in range(60)])
        for size in range(1, 41):
            ids = rng.permutation(60)[:size]
            assert run(ids).tobytes() == alone[ids].tobytes(), size


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

    def test_log_normal_at_the_top_of_the_float_range(self):
        # knots exp(mu + j*sigma) pass DBL_MAX and so does a + b of the last
        # interval, but the mean exp(709.5) and the target are floats
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = quadrature_prob(DistParams.log_normal(709.0, 1.0), 1.0)
        assert value == pytest.approx(0.691462461274013, abs=1e-13)  # Phi(1/2)

    @pytest.mark.parametrize("mu", [1e103, 1e110, 1e300])
    def test_inverse_gaussian_mu_past_the_cube_root_of_dbl_max(self, mu):
        # the knots of the standard coordinate t/mu take no mu**3, which
        # overflowed past DBL_MAX^(1/3) ~ 5.6e102
        for lam in (mu, 1e-3 * mu, 1e3 * mu):
            params = DistParams.inverse_gaussian(mu, lam)
            assert abs(quadrature_prob(params, 2.0) - cdf(params, 2.0 * mu)) <= 1e-9

    @pytest.mark.parametrize("mu, lam", [(1.0, 1e-301), (1e300, 1e-10), (1.0, 1.1e12),
                                         (1e-200, 1e-100), (1e-300, 1e300)])
    def test_inverse_gaussian_shape_outside_the_measured_range_is_refused(self, mu, lam):
        # beyond 1e12 the error near kappa = 1 grows as ~1e-16*sqrt(lambda/mu),
        # and below 1e-300 the knots leave the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"1e-300 <= lambda/mu <= 1e\+12"):
                quadrature_prob(DistParams.inverse_gaussian(mu, lam), 1.0)
        for shape in oracles.IG_QUAD_SHAPE:
            params = DistParams.inverse_gaussian(1.0, shape)
            assert abs(quadrature_prob(params, 1.0) - cdf(params, 1.0)) <= 1e-9

    @pytest.mark.parametrize("params, kappa", [
        (DistParams.log_normal(0.0, 5.0), 2.0),  # 22,888 open intervals
        (DistParams.inverse_gaussian(1.0, 1.44e-4), 932.0),  # 27,830 open intervals
        (DistParams.log_normal(-631.25, 1.318e-14), 1.69),  # did not converge
        (DistParams.gumbel(3.116e244, 1.402e194), 315.3),  # returned 0.0
        (DistParams.logistic(4.494e228, 6.122e202), 5.40),  # returned 0.0
    ], ids=["log-normal-wide", "ig-heavy-tail", "log-normal-narrow", "gumbel-far", "logistic-far"])
    def test_cases_that_failed_in_absolute_coordinates(self, params, kappa):
        # integrated in t these raised NumericalError or returned 0.0 for 1.0
        assert abs(quadrature_prob(params, kappa) - cdf(params, kappa * mean(params))) <= 1e-9


POSITIVE_FLOATS = st.floats(min_value=5e-324, allow_infinity=False)
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def quadrature_inputs(draw):
    """(params, kappa) over the float range, drawn so that most pass the
    checks: the log-normal mean exp(mu + sigma^2/2) must be a positive float."""
    family = draw(st.sampled_from(list(Family)))
    if family is Family.LOG_NORMAL:
        p1 = draw(st.floats(-1e3, 1e3) | FINITE_FLOATS)
        p2 = draw(st.floats(5e-324, 40.0) | POSITIVE_FLOATS)
    else:
        p1 = draw(POSITIVE_FLOATS if family is Family.INVERSE_GAUSSIAN else FINITE_FLOATS)
        p2 = draw(POSITIVE_FLOATS)
    return DistParams(family, p1, p2), draw(st.floats(1e-3, 1e3) | POSITIVE_FLOATS)


@settings(max_examples=400, deadline=None)
@given(quadrature_inputs())
def test_quadrature_is_cdf_or_an_error_over_the_float_range(case):
    params, kappa = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = quadrature_prob(params, kappa)
        except KappainfError:
            return
        t = kappa * mean(params)
        try:
            reference = cdf(params, t)
        except DomainError:
            # an inverse Gaussian t/mu past IG_KAPPA_MAX ~ 1.3e154, where cdf
            # stops: at lambda/mu >= 1e-300 the mass beyond it is below 1e-150
            assert params.family is Family.INVERSE_GAUSSIAN
            reference = 1.0
    assert 0.0 <= value <= 1.0 + 1e-10
    assert abs(value - reference) <= 1e-9, (params, kappa)


class TestQuadratureBatch:
    def test_zero_peak_case_inside_a_batch(self):
        cases = [(DistParams.gumbel(0.0, 1.0), 1.0), (DistParams.gumbel(1000.0, 1.0), 1e-6),
                 (DistParams.gumbel(2.0, 0.5), 1.3)]
        estimates = oracles._quadrature_batch(cases)
        assert estimates[1] == 0.0
        assert estimates.tolist() == [quadrature_prob(*case) for case in cases]

    def test_first_bad_case_raises(self):
        cases = [(DistParams.log_normal(0.0, 1.0), 1.0), (DistParams.log_normal(709.0, 1.0), 2.0),
                 (DistParams.log_normal(0.0, 1.0), -1.0)]
        with pytest.raises(DomainError, match=r"kappa\*mean must be finite"):
            oracles._quadrature_batch(cases)
        with pytest.raises(DomainError, match="one family"):
            oracles._quadrature_batch([cases[0], (DistParams.gumbel(0.0, 1.0), 1.0)])

    def test_unconverged_case_raises_as_alone(self, monkeypatch):
        # at 20 open intervals the heavy-tailed case runs out, the others do not
        monkeypatch.setattr(oracles, "_MAX_INTERVALS", 20)
        bad = (DistParams.inverse_gaussian(1.0, 1.44e-4), 932.0)
        with pytest.raises(NumericalError) as alone:
            quadrature_prob(*bad)
        cases = [(DistParams.inverse_gaussian(2.0, 6.0), 1.5), bad,
                 (DistParams.inverse_gaussian(1.0, 1.0), 1.0)]
        for case in cases[::2]:
            quadrature_prob(*case)
        with pytest.raises(NumericalError) as batch:
            oracles._quadrature_batch(cases)
        assert str(batch.value) == str(alone.value)
        assert "did not converge" in str(batch.value)

    def test_row_blocks_of_seven_keep_the_bits(self, monkeypatch):
        # each round evaluates special._BLOCK // 15 intervals at a time; the
        # rule products are row-local, so the blocks change no bit
        for cases in verification._quad_cases(verification.BUDGETS["quick"],
                                               np.random.default_rng(7)):
            default = oracles._quadrature_batch(cases)
            with monkeypatch.context() as patch:
                patch.setattr(oracles, "_MAX_ROUNDS", 1)
                with pytest.raises(NumericalError, match="did not converge"):
                    oracles._quadrature_batch(cases)  # so the batch takes several rounds
            rows = []

            def recorded(f, knots, tol, _g=oracles._gauss_kronrod):
                def f_rows(x, case):
                    rows.append(x.shape[0])
                    return f(x, case)
                return _g(f_rows, knots, tol)

            with monkeypatch.context() as patch:
                patch.setattr(special, "_BLOCK", 7 * 15)
                patch.setattr(oracles, "_gauss_kronrod", recorded)
                blocked = oracles._quadrature_batch(cases)
            assert max(rows) == 7
            assert blocked.tobytes() == default.tobytes()


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

    @pytest.mark.parametrize("family, kappas, spec", [
        (Family.INVERSE_GAUSSIAN, (0.5, 1.0, 1.5, 10.0), ("geometric", 1e-3, 10.0)),
        (Family.LOG_NORMAL, (0.5, 1.0, math.e, 4.0), ("geometric", 1e-2, 1e2)),
        (Family.GUMBEL, (0.5, 1.0, 2.0), ("linear", -50.0, 50.0)),
        (Family.LOGISTIC, (0.5, 1.0, 2.0), ("linear", -50.0, 50.0)),
    ], ids=lambda v: getattr(v, "value", ""))
    def test_blocked_scan_is_a_whole_grid_argmin(self, family, kappas, spec):
        # grid_min scans special._BLOCK points at a time; the (x, value) are
        # those of np.argmin over the whole grid, bit for bit.  At kappa = 1
        # the Gumbel and logistic curves are constant: every block ties
        for count in (1000, special._BLOCK + 1, 3 * special._BLOCK - 7, 100_000):
            grid = GridSpec(*spec, count)
            pts = grid.points()
            for kappa in kappas:
                values = reduced_prob(family, kappa, pts)
                i = int(np.argmin(values))
                got = grid_min(family, kappa, grid)
                assert np.array(got).tobytes() == np.array([pts[i], values[i]]).tobytes()

    def test_equal_minima_in_two_blocks_give_the_first(self, monkeypatch):
        grid = GridSpec("linear", 0.0, 1.0, 2 * special._BLOCK + 500)
        pts = grid.points()
        first, second = pts[special._BLOCK - 1], pts[special._BLOCK + 3]
        monkeypatch.setattr(curves, "reduced_prob", lambda family, kappa, x: np.where(
            (x == first) | (x == second), 0.25, 1.0))
        assert grid_min(Family.LOGISTIC, 2.0, grid) == (first, 0.25)

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
        with pytest.raises(DomainError, match="grid span hi - lo overflows"):
            GridSpec("linear", -1e308, 1e308, 1000)
        assert np.isfinite(GridSpec("linear", -8e307, 8e307, 1000).points()).all()
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

    def test_overflowing_kappa_times_mean_is_a_domain_error(self):
        # exp(709.5) is a float but 2*exp(709.5) is not: no draw, knot or warning
        params = DistParams.log_normal(709.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"kappa\*mean must be finite"):
                mc_prob(params, 2.0, 1000, 1)
            with pytest.raises(DomainError, match=r"kappa\*mean must be finite"):
                quadrature_prob(params, 2.0)

    def test_error_shrinks_with_tenfold_samples(self):
        # 10 fixed trials, fresh sub-seeds per size.  At each size the squared
        # errors in units of the binomial variance p(1-p)/n sum to a chi-square
        # with 10 degrees of freedom, which exceeds 40 with probability 1.7e-5;
        # fine estimates that ignored their tenfold n would sum to 10 times
        # one and stay within 40 with probability 0.053.  (Counting the trials
        # where the fine error is the smaller one, as this test once did,
        # fails 31% of seed choices: each trial improves with probability
        # (2/pi)*atan(sqrt(10)) = 0.805.)
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
        for n, offset in [(10**5, 0), (10**6, 1)]:
            chi2 = 0.0
            for i, (params, kappa) in enumerate(trials):
                target = cdf(params, kappa * mean(params))
                estimate, _ = mc_prob(params, kappa, n, seed=1000 + 2 * i + offset)
                chi2 += (estimate - target) ** 2 / (target * (1.0 - target) / n)
            assert chi2 <= 40.0, n


class TestOracleReport:
    def test_passed_is_derived(self):
        good = OracleReport("quadrature", 1.0, 1.0 + 1e-12, 1e-9)
        assert good.passed
        bad = OracleReport("quadrature", 1.0, 1.01, 1e-9)
        assert not bad.passed

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            OracleReport("guessing", 1.0, 1.0, 1e-9)


class TestVerificationRows:
    def test_array_rows_make_few_curve_calls(self, monkeypatch):
        from kappainf import curves, verification

        calls = []
        for name in ("reduced_prob", "ig_prob_deriv", "ig_stationarity_scaled"):
            def counted(*args, _f=getattr(curves, name), _name=name):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(curves, name, counted)

        rows = verification._derivative_rows(
            *verification._derivative_points(np.random.default_rng(1)))
        assert len(calls) <= 4 and all(row.passed for row in rows)
        calls.clear()
        rows = verification._closed_form_rows(verification._quad_cases(
            verification.Budget(1000, 1000, 5), np.random.default_rng(1)))
        assert calls == ["reduced_prob"] * len(Family)
        assert all(row.passed for row in rows)

    def test_each_grid_row_group_builds_its_points_once(self, monkeypatch):
        calls = []

        def counted_points(grid, _f=GridSpec.points):
            calls.append(grid)
            return _f(grid)

        monkeypatch.setattr(GridSpec, "points", counted_points)
        for group in (verification._ig_critical_rows, verification._log_normal_rows):
            calls.clear()
            rows = group(verification.BUDGETS["full"])
            assert all(row.passed for row in rows)
            # one grid scanned for every kappa of the group
            assert len(calls) == 1, group.__name__

    @pytest.mark.parametrize("quad_cases", [5, 200])
    def test_few_density_calls_per_quadrature_round(self, monkeypatch, quad_cases):
        density_calls, block_calls = [], []

        def counted_density(*args, _f=oracles._standard_density):
            density_calls.append(args[0])
            return _f(*args)

        def counted_engine(f, knots, tol, _g=oracles._gauss_kronrod):
            def counted_f(x, case):
                block_calls.append(x.shape[0])
                return f(x, case)
            return _g(counted_f, knots, tol)

        monkeypatch.setattr(oracles, "_standard_density", counted_density)
        monkeypatch.setattr(oracles, "_gauss_kronrod", counted_engine)
        rows = verification._closed_form_rows(verification._quad_cases(
            verification.Budget(1000, 1000, quad_cases), np.random.default_rng(1)))
        assert all(row.passed for row in rows)
        # one density call per row block of a round, and no other
        assert len(density_calls) == len(block_calls)
        assert len(block_calls) <= 10 * len(Family)


def _serial_mc_rows(budget, seed_source):
    """(analytic, estimate, tolerance, family seed) of each Monte Carlo case
    from a plain loop over verification._MC_CASES: one seed per family, in
    the order the families first appear, then one mc_prob call per case."""
    seeds = {}
    for params, _ in verification._MC_CASES:
        seeds.setdefault(params.family, None)
    seeds = {family: int(seed_source.integers(2**63)) for family in seeds}
    rows = []
    n = budget.mc_samples
    for params, kappa in verification._MC_CASES:
        analytic = cdf(params, kappa * mean(params))
        estimate, _ = mc_prob(params, kappa, n, seeds[params.family])
        tolerance = 5.36 * math.sqrt(analytic * (1.0 - analytic) / n)
        rows.append((analytic, estimate, tolerance, seeds[params.family]))
    return rows


class TestMcRowsPool:
    BUDGET = verification.Budget(2000, 1000, 5)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_rows_equal_a_serial_loop(self, monkeypatch, workers):
        monkeypatch.setattr(verification, "_usable_cpus", lambda: workers)
        rows = verification._mc_rows(self.BUDGET, np.random.default_rng(5))
        serial = _serial_mc_rows(self.BUDGET, np.random.default_rng(5))
        assert len(rows) == len(serial) == len(verification._MC_CASES)
        for row, (analytic, estimate, tolerance, seed) in zip(rows, serial):
            assert (row.analytic, row.estimate, row.tolerance) == (analytic, estimate, tolerance)
            assert row.detail.endswith(f" seed={seed}")

    def test_first_invalid_case_raises_the_serial_error(self, monkeypatch):
        cases = [
            (DistParams.gumbel(0.0, 1.0), 1.0),
            (DistParams.logistic(1.0, 0.3), -1.5),
            (DistParams.log_normal(0.0, 1.0), 1.0),
            (DistParams.log_normal(709.0, 1.0), 2.0),
        ]
        monkeypatch.setattr(verification, "_MC_CASES", cases)
        monkeypatch.setattr(verification, "_usable_cpus", lambda: 4)
        with pytest.raises(KappainfError) as serial:
            _serial_mc_rows(self.BUDGET, np.random.default_rng(5))
        with pytest.raises(KappainfError) as pooled:
            verification._mc_rows(self.BUDGET, np.random.default_rng(5))
        assert type(pooled.value) is type(serial.value)
        assert str(pooled.value) == str(serial.value) == "kappa must be > 0, got -1.5"

    def test_a_later_case_of_a_family_raises_after_the_cases_before_it(self, monkeypatch):
        # the log-normal batch fails on its second case, but the Gumbel case
        # between its two cases fails first in a serial loop
        cases = [
            (DistParams.log_normal(0.0, 1.0), 1.0),
            (DistParams.gumbel(0.0, 1.0), 0.0),
            (DistParams.log_normal(709.0, 1.0), 2.0),
        ]
        monkeypatch.setattr(verification, "_MC_CASES", cases)
        monkeypatch.setattr(verification, "_usable_cpus", lambda: 4)
        with pytest.raises(KappainfError) as serial:
            _serial_mc_rows(self.BUDGET, np.random.default_rng(5))
        with pytest.raises(KappainfError) as pooled:
            verification._mc_rows(self.BUDGET, np.random.default_rng(5))
        assert str(pooled.value) == str(serial.value) == "kappa must be > 0, got 0.0"

    def test_a_batch_takes_one_family(self):
        with pytest.raises(DomainError, match="one family"):
            oracles._mc_batch([(DistParams.gumbel(0.0, 1.0), 1.0),
                               (DistParams.logistic(0.0, 1.0), 1.0)], 1000, 1, {})

    def test_full_budget_peak_holds_block_buffers_only(self, monkeypatch):
        # two pool threads, each with one set of at most five block-long float
        # buffers and a block-long mask, reused across its family tasks: 5.1
        # MiB, against 3.7-4.4 MiB measured.  Before the block-streamed
        # sampler, the n normals of an inverse Gaussian case alone took 8 MB.
        monkeypatch.setattr(verification, "_usable_cpus", lambda: 2)
        budget = verification.BUDGETS["full"]
        tracemalloc.start()
        try:
            verification._mc_rows(budget, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (5 * 8 + 1) * distributions._CHUNK


def _serial_run(budget, seed):
    """The rows of run_verification from its parts one after another, with
    the random draws between them as a serial loop makes them."""
    limits = verification.BUDGETS[budget]
    rng = np.random.default_rng(seed)
    rows = verification._closed_form_rows(verification._quad_cases(limits, rng))
    rows.append(verification._ig_monotone_row())
    rows += verification._ig_critical_rows(limits)
    rows += verification._derivative_rows(*verification._derivative_points(rng))
    rows += verification._log_normal_rows(limits)
    rows += verification._location_scale_rows()
    rows += verification._mc_rows(limits, rng)
    rows += verification._phase_transition_rows()
    rows += verification._ig_near_one_rows()
    return rows


class TestMonteCarloAlongside:
    @pytest.mark.parametrize("budget, seed", [("quick", 1), ("quick", 2), ("quick", 3),
                                              ("full", 1)])
    def test_rows_do_not_depend_on_the_pool_width(self, monkeypatch, budget, seed):
        runs = []
        for workers in (1, 4):
            monkeypatch.setattr(verification, "_usable_cpus", lambda: workers)
            runs.append(run_verification(budget, seed))
        assert runs[0] == runs[1]
        if budget == "quick":
            assert runs[0] == _serial_run(budget, seed)

    @pytest.mark.parametrize("broken", ["_ig_critical_rows", "_location_scale_rows",
                                        "_phase_transition_rows"])
    @pytest.mark.parametrize("bad_case", [
        (DistParams.logistic(1.0, 0.3), -1.5),  # a pool case: kappa must be > 0
        (DistParams.inverse_gaussian(1.0, 1e-101), 1.5),  # mu/lambda > 1e100
    ], ids=["pool", "sampler-domain"])
    def test_a_raising_row_raises_the_serial_error(self, monkeypatch, broken, bad_case):
        # the row raises while the Monte Carlo cases run, and one of those
        # cases raises too: a serial loop raises whichever comes first
        def fail(*args):
            raise NumericalError(f"{broken} failed")

        monkeypatch.setattr(verification, broken, fail)
        monkeypatch.setattr(verification, "_MC_CASES", [
            *verification._MC_CASES[:3], bad_case, *verification._MC_CASES[3:],
        ])
        monkeypatch.setattr(verification, "_usable_cpus", lambda: 4)
        with pytest.raises(KappainfError) as serial:
            _serial_run("quick", 2)
        before = threading.active_count()
        with pytest.raises(KappainfError) as pooled:
            run_verification("quick", 2)
        assert threading.active_count() == before
        assert type(pooled.value) is type(serial.value)
        assert str(pooled.value) == str(serial.value)

    def test_no_worker_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(verification, "_usable_cpus", lambda: 4)
        before = threading.active_count()
        assert all(row.passed for row in run_verification("quick", 3))
        assert threading.active_count() == before


def _mc_row_cases(rows):
    """(params, kappa, seed, row) of each monte_carlo row, the seed read from
    its detail, in verification._MC_CASES order."""
    mc = [row for row in rows if row.method == "monte_carlo"]
    assert len(mc) == len(verification._MC_CASES)
    return [(params, kappa, int(row.detail.rsplit(" seed=", 1)[1]), row)
            for (params, kappa), row in zip(verification._MC_CASES, mc)]


class TestMonteCarloRows:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_each_row_is_mc_prob_at_the_seed_it_prints(self, seed):
        n = verification.BUDGETS["quick"].mc_samples
        cases = _mc_row_cases(run_verification("quick", seed))
        for params, kappa, child_seed, row in cases:
            assert row.estimate == mc_prob(params, kappa, n, child_seed)[0], row.detail
            assert f"p1={params.p1:g} p2={params.p2:g} kappa={kappa:g} " in row.detail
        # one stream per family: the three cases of a family print one seed
        by_family = {}
        for params, _, child_seed, _ in cases:
            by_family.setdefault(params.family, set()).add(child_seed)
        assert all(len(seeds) == 1 for seeds in by_family.values())
        assert len({seeds.pop() for seeds in by_family.values()}) == len(Family)

    @pytest.mark.parametrize("budget", ["quick", "full"])
    def test_band_is_5_36_sigma_at_the_analytic_p(self, budget):
        # 5.36 sigma at the analytic p, for a false-alarm rate of 1e-6 per run
        # over 12 rows, and with 1.8x the draws no wider than the 4-sigma band
        # of n/1.8 draws
        n = verification.BUDGETS[budget].mc_samples
        assert n == {"quick": 180_000, "full": 1_800_000}[budget]
        rows = verification._mc_rows(verification.Budget(n, 1000, 5), np.random.default_rng(1))
        assert len(rows) == 12
        for (params, kappa), row in zip(verification._MC_CASES, rows):
            p = cdf(params, kappa * mean(params))
            assert row.analytic == p
            assert row.tolerance == 5.36 * math.sqrt(p * (1.0 - p) / n)
            assert row.tolerance <= 4.0 * math.sqrt(p * (1.0 - p) / (n / 1.8))
            assert row.passed, row.detail

    def test_the_band_gives_its_rate(self):
        # 12 rows at P(|Z| > z) each: a sound run fails with probability ~1e-6
        per_row = math.erfc(verification._MC_Z / math.sqrt(2.0))
        assert 0.9e-6 <= 12 * per_row <= 1.0e-6


# SHA-256 of the quadrature estimates of _closed_form_rows, one per family in
# Family order, as produced by one adaptive run per case.
FROZEN_QUADRATURE = {
    ("quick", 1): [
        "e58927ee00c12068b978bc7c9703729a71ac8758145fa458e620137a43458adf",
        "2ed30a039b542bac66cb9aa567f4cb9669b710ae5cbf6d6852976a07d6a88efc",
        "28cd8e75a266eecd81c70c0d83ff1853a88cca8b6ea823460969e76e8a5b4297",
        "4830f1845c627864dfe03198e31d729b750d9f492cc82941f327917feb3ba11b",
    ],
    ("quick", 2): [
        "f13261262ea1cd0d017878edd937b4142d0311fe777542d0d8acbb84ffb31c86",
        "677c3cfdd3f688bddebd0f34b2cc3ab259aed49f9d3bc60600118c3f7603407a",
        "54c25ba8bb4d427f60ac633198656256fd5ffeee336087c0ad7b53de49bf5d9c",
        "5c2998114d055ab01e568d3ff1004179a5329a756097ed3a5312bfd181996306",
    ],
    ("quick", 3): [
        "04100d689c5e1ab16267f7ee0b470b7f0349e9301556500b26a0f3b5868ca5c2",
        "d2507b092ee33bd1511cc1a181fdee5ea9100ba17d17a31e16ea1f6ddff4bb6b",
        "4e363ab3bb065742569f63642f95a397af66d324df2ee66408e54d0bc5883fe3",
        "885e6406a52fa8d778132abdda8c0c966f2984e54dd80a47e7d427f834e8ce65",
    ],
    ("full", 1): [
        "91d5a6a71ff8c48e71f7a3d9db598d2957c32fbedcb6c1050a47d8f80904dfc4",
        "bef8aa0f1a452b1c3bfeaad7d3c93a406737db8bdfcecdb26cbfe705d9b8bed8",
        "aea29f43e1b71a63350af89843afd9dfce35a82354106da1b341d8d2a2c2d3f8",
        "e240b6810f2373ac187d7c3d333de06ad7a35d2ff390a68c403c6228a0d4caba",
    ],
}


def quadrature_batches(budget, seed):
    """(cases, estimates) of each _quadrature_batch call of _closed_form_rows."""
    batches = []

    def recorded(cases, _f=verification._quadrature_batch):
        estimates = _f(cases)
        batches.append((cases, estimates))
        return estimates

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verification, "_quadrature_batch", recorded)
        verification._closed_form_rows(verification._quad_cases(
            verification.BUDGETS[budget], np.random.default_rng(seed)))
    return batches


def quadrature_digests(batches):
    return [hashlib.sha256(estimates.astype("<f8").tobytes()).hexdigest()
            for _, estimates in batches]


@pytest.mark.parametrize("budget, seed", list(FROZEN_QUADRATURE), ids=lambda v: str(v))
def test_batched_quadrature_keeps_the_bits(budget, seed):
    batches = quadrature_batches(budget, seed)
    assert quadrature_digests(batches) == FROZEN_QUADRATURE[budget, seed]
    for cases, estimates in batches:
        alone = np.array([quadrature_prob(params, kappa) for params, kappa in cases])
        assert alone.tobytes() == estimates.tobytes()
