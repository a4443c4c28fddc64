"""Quadrature, Monte Carlo and grid oracles, and their agreement with the
analytic path."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from kappainf import oracles, verification
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

    def test_unconverged_case_raises_as_alone(self):
        bad = (DistParams.log_normal(0.0, 5.0), 2.0)
        with pytest.raises(NumericalError) as alone:
            quadrature_prob(*bad)
        cases = [(DistParams.log_normal(0.3, 0.7), 1.4), bad, (DistParams.log_normal(0.0, 1.0), 1.0)]
        with pytest.raises(NumericalError) as batch:
            oracles._quadrature_batch(cases)
        assert str(batch.value) == str(alone.value)
        assert "did not converge" in str(batch.value)


class TestTailCutoffs:
    # rows 0 and 2 decay like a Cauchy density and reach 1e-16 of their peak
    # past j = 15; row 1 is Gaussian and gets there by j = 5
    CENTERS = np.array([[0.0], [1.0], [-2.0]])
    P2 = np.array([[1.0], [0.5], [3.0]])
    SLOW = np.array([[True], [False], [True]])

    def density(self, t, rows):
        z = t - self.CENTERS[rows]
        return np.where(self.SLOW[rows], 1.0 / (1.0 + z * z), np.exp(-0.5 * z * z))

    def test_one_pass_gives_the_first_low_steps(self):
        rows = np.arange(3)
        peak = self.density(self.CENTERS, rows)
        shapes = []

        def counted(t, rows):
            shapes.append(t.shape)
            return self.density(t, rows)

        cut = oracles._tail_cutoffs(["a", "b", "c"], self.CENTERS, peak, self.P2, counted)
        ladder = self.CENTERS - np.ldexp(self.P2, np.arange(200))
        first = np.argmax(self.density(ladder, rows) <= 1e-16 * peak, axis=1)
        assert first.tolist() == [27, 5, 25]
        assert cut.tolist() == ladder[rows, first].tolist()
        # one density call over the whole ladder of every row
        assert shapes == [(3, 200)]

    def test_no_negligible_tail_names_the_first_such_member(self):
        def flat(t, rows):
            return np.where(self.SLOW[rows], 1.0, np.exp(-0.5 * t * t))

        with pytest.raises(NumericalError, match="no negligible left tail found for 'a'"):
            oracles._tail_cutoffs(["a", "b", "c"], self.CENTERS, np.ones((3, 1)), self.P2, flat)


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

        rows = verification._derivative_rows(np.random.default_rng(1))
        assert len(calls) <= 4 and all(row.passed for row in rows)
        calls.clear()
        rows = verification._closed_form_rows(verification.Budget(1000, 1000, 5),
                                              np.random.default_rng(1))
        assert calls == ["reduced_prob"] * len(Family)
        assert all(row.passed for row in rows)

    @pytest.mark.parametrize("quad_cases", [5, 200])
    def test_one_density_call_per_quadrature_round(self, monkeypatch, quad_cases):
        density_calls, rounds = [], []

        def counted_density(*args, _f=oracles._density):
            density_calls.append(args[0])
            return _f(*args)

        def counted_engine(f, knots, tol, _g=oracles._gauss_kronrod):
            def counted_f(x, case):
                rounds.append(x.shape[0])
                return f(x, case)
            return _g(counted_f, knots, tol)

        monkeypatch.setattr(oracles, "_density", counted_density)
        monkeypatch.setattr(oracles, "_gauss_kronrod", counted_engine)
        rows = verification._closed_form_rows(verification.Budget(1000, 1000, quad_cases),
                                              np.random.default_rng(1))
        assert all(row.passed for row in rows)
        # a round per call, plus the peaks and the left tails of the real-line families
        assert len(density_calls) == len(rounds) + 2 * 2
        assert len(rounds) <= 10 * len(Family)


def _serial_mc_rows(budget, seed_source):
    """(analytic, estimate, tolerance, child seed) of each Monte Carlo case
    from a plain loop over verification._MC_CASES."""
    rows = []
    for params, kappa in verification._MC_CASES:
        child_seed = int(seed_source.integers(2**63))
        analytic = cdf(params, kappa * mean(params))
        estimate, se = mc_prob(params, kappa, budget.mc_samples, child_seed)
        rows.append((analytic, estimate, 4.0 * se, child_seed))
    return rows


class TestMcRowsPool:
    BUDGET = verification.Budget(2000, 1000, 5)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_rows_equal_a_serial_loop(self, monkeypatch, workers):
        monkeypatch.setattr(verification, "_usable_cpus", lambda: workers)
        rows = verification._mc_rows(self.BUDGET, np.random.default_rng(5))
        serial = _serial_mc_rows(self.BUDGET, np.random.default_rng(5))
        assert len(rows) == len(serial) == len(verification._MC_CASES)
        for row, (analytic, estimate, tolerance, child_seed) in zip(rows, serial):
            assert (row.analytic, row.estimate, row.tolerance) == (analytic, estimate, tolerance)
            assert row.detail.endswith(f" seed={child_seed}")

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


# SHA-256 of the quadrature estimates of _closed_form_rows, one per family in
# Family order, as produced by one adaptive run per case.
FROZEN_QUADRATURE = {
    ("quick", 1): [
        "67d9fdb52e2a4d14211b482d42e0fa5588595909fdc3496fa9e1428bcd62da71",
        "c4ab9fe62c365149f5ca0fb1d493c0aaea952fbee819fdb78868b3601a2c0ad9",
        "fc74528e7582e2de1cada7615366f1e731d110965e57747ad19a2968e579d346",
        "978d2aeb2e7b16aa163258e50ea9f00a998863453fb9f3291d04e7380068fd31",
    ],
    ("quick", 2): [
        "e83b57d10eee0e47328e119471d8da2efacbade7cb86d69c03676ad320215304",
        "13251e0b24bb8b9334d0e7453f1e4b4a286027500b735b9d45a2fdd9b5f583e4",
        "c9ec92cde8db9e03491e13daf6b3e37f477034c870a189ccc9d36727f245a7d3",
        "e9ee0ddcacd497482fcb2ca0464d08227dd93507fc51a102b5f99e69f6690084",
    ],
    ("quick", 3): [
        "5df4e961882fa86e6f70b89fd87a887ce356b660f0e3f87f2a4e3d0f67c27346",
        "ab923a64162df54836f3fe7dda3e8791965b56aec90d06d31c3aceb6d55f4c78",
        "3e00dcad5b672ab90ba6e3a0b74d2e613b3d8e873c699679df6910cd2feadac0",
        "715c0d39cf461f040d481d596d6098efa5419645aaf75d0357c3eb93a9cdebd8",
    ],
    ("full", 1): [
        "0c7073fc30f41b557d87cb8db7eb49a501f13e8ba5f3f71d99c7d13e99c2b197",
        "a0e777388dd6360ac3c8a67a660e85caa69b0f1e45c4d47b4f14f623b44440d3",
        "9511f7ed82baf4943971aa69202bf550babcc857d6fed2e630015b92b3b9cc74",
        "b866ecb566a930603fd789d94508098f38747bcf6c31eeb3c9cb1d848b198a3a",
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
        verification._closed_form_rows(verification.BUDGETS[budget], np.random.default_rng(seed))
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
