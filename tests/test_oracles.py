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
    # past j = 15; row 1 is Gaussian and stops in the first pass
    CENTERS = np.array([[0.0], [1.0], [-2.0]])
    P2 = np.array([[1.0], [0.5], [3.0]])
    SLOW = np.array([[True], [False], [True]])

    def density(self, t, rows):
        z = t - self.CENTERS[rows]
        return np.where(self.SLOW[rows], 1.0 / (1.0 + z * z), np.exp(-0.5 * z * z))

    def test_fallback_gives_the_one_pass_cutoffs(self):
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
        # 16 points per row, then the whole ladder for the two slow rows only
        assert shapes == [(3, 16), (2, 200)]

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
        "aece7dedeaf4f10541978890967a61a128c2300518bf9194b3cb657482aa9478",
        "23d1154c868a7fe8888ebcf9ea2321db6d90785f7ee8d078a6fbd24e1fa1cfc2",
        "7af0e96a915b04da50e86cde6444d8b2527be58395b7f54c459dc1228e8b3b56",
        "9342f61b38cb36505a90a74e8f77abd9de5b2e987323ce397d92c995259ecd2a",
    ],
    ("quick", 2): [
        "fdb0a132c6537447793bf7496f06468f1e11323c99acd0ce0b44ded5845b78f2",
        "1b40add17fe7431096abfc7313d23dac007a4bd78c8502f4733cdc0b05313a34",
        "0c307c0476051b9f28fff43a53f181038163d48e489bd58eb10a1e107f9dd534",
        "a0cb40f9ba198361b51f9c6c9508d435d18cf37fc264034cae471b7d381754b3",
    ],
    ("quick", 3): [
        "bb881123b6f45965bc1f528e16787445f5211a8e27ecb9be99f0f4bc214ae634",
        "42cfe53e89b212f2a5048e927c4f29c931baba5be915cec4a54cd78d7e76f4e8",
        "6ccf98304054da81a49ed25547bb3233c7d9c839d64b91c41b7a582ea43994e0",
        "5edebd993ca49fd91c8c355788d1f226a6c1c109cde98ea617c91e67406eaedf",
    ],
    ("full", 1): [
        "54e81a944490f18f65cdbf77d62fdc8f71befbc1654094fafa30ebccda5c3ba8",
        "cc09284a2175b389bbfe9ea0d935479490e83c0bcaa07bd2f7100e90a89cdbb2",
        "40d4a483a8443a892f9ff3a4a959d45f957dc117e4d132b2d81f6028d4d00e9f",
        "83a8a54cbf0d48e32040dc8de770c2e2fdbe6a93e43dc6f4e20fbf3c8445119f",
    ],
}


@pytest.mark.parametrize("budget, seed", list(FROZEN_QUADRATURE), ids=lambda v: str(v))
def test_batched_quadrature_keeps_the_bits(monkeypatch, budget, seed):
    batches = []

    def recorded(cases, _f=verification._quadrature_batch):
        estimates = _f(cases)
        batches.append((cases, estimates))
        return estimates

    monkeypatch.setattr(verification, "_quadrature_batch", recorded)
    verification._closed_form_rows(verification.BUDGETS[budget], np.random.default_rng(seed))
    digests = [hashlib.sha256(estimates.astype("<f8").tobytes()).hexdigest()
               for _, estimates in batches]
    assert digests == FROZEN_QUADRATURE[budget, seed]
    for cases, estimates in batches:
        alone = np.array([quadrature_prob(params, kappa) for params, kappa in cases])
        assert alone.tobytes() == estimates.tobytes()
