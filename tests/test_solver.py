"""Critical points and the infimum regime table."""

import math

import numpy as np
import pytest

from kappainf import (
    Family,
    GridSpec,
    InfimumResult,
    LimitDirection,
    grid_min,
    ig_critical_point,
    ig_peak_coord,
    ig_stationarity,
    infimum,
    reduced_prob,
    std_normal_cdf,
)
from kappainf import curves, solver
from kappainf.errors import DomainError, RegimeError

IG = Family.INVERSE_GAUSSIAN

# frozen 40-digit bisection references for the critical coordinate
X0_AT_2 = 0.6479001883889423
VALUE_AT_X0_OF_2 = 0.8725831654781596
# 50-digit quadrature of the normal density up to sqrt(2)
PHI_SQRT2 = 0.9213503964748574


class TestCriticalPoint:
    def test_reference_location_and_value(self):
        x0 = ig_critical_point(2.0)
        assert x0 == pytest.approx(X0_AT_2, rel=1e-12)
        assert 0.0 < x0 < math.sqrt(2.0 / 3.0)
        assert abs(ig_stationarity(2.0, x0)) <= 1e-12
        assert reduced_prob(IG, 2.0, x0) == pytest.approx(VALUE_AT_X0_OF_2, abs=1e-11)

    def test_near_degenerate_multiplier(self):
        x0 = ig_critical_point(1.0001)
        bound = ig_peak_coord(1.0001)
        assert bound == pytest.approx(70.71244577, rel=1e-8)
        assert 0.0 < x0 < bound

    def test_regime_errors_at_and_below_one(self):
        with pytest.raises(RegimeError):
            ig_critical_point(1.0)
        with pytest.raises(RegimeError):
            ig_critical_point(0.5)

    def test_whole_multiplier_range(self):
        for kappa in np.geomspace(1.001, 1000.0, 40):
            x0 = ig_critical_point(kappa)
            assert 0.0 < x0 < ig_peak_coord(kappa)
            # the rescaled stationarity is O(1) scale, so its residual is
            # the meaningful one near the root
            from kappainf import ig_stationarity_scaled

            assert abs(ig_stationarity_scaled(kappa, x0)) <= 1e-9

    def test_deterministic(self):
        assert ig_critical_point(3.0) == ig_critical_point(3.0)

    def test_bit_identical_to_the_checked_public_path(self, monkeypatch):
        calls = 0
        kernel = curves._ig_stationarity_kernel

        def counting_kernel(k, x):
            nonlocal calls
            calls += 1
            return kernel(k, x)

        monkeypatch.setattr(curves, "_ig_stationarity_kernel", counting_kernel)
        rng = np.random.default_rng(2024)
        kappas = np.concatenate([
            10.0 ** rng.uniform(1e-12, 3.0, 1000),       # log-uniform in (1, 1e3]
            1.0 + 10.0 ** rng.uniform(-7.0, -2.0, 1000),  # the kappa -> 1+ edge
        ])
        for kappa in kappas:
            calls = 0
            expected = reference_critical_point(kappa)
            reference_calls, calls = calls, 0
            assert ig_critical_point(kappa).hex() == expected.hex(), kappa
            assert calls == reference_calls, kappa

    def test_kappa_above_the_inverse_gaussian_limit(self):
        assert 0.0 < ig_critical_point(curves.IG_KAPPA_MAX) < ig_peak_coord(curves.IG_KAPPA_MAX)
        for kappa in (math.nextafter(curves.IG_KAPPA_MAX, math.inf), 1e200, 1.7e308):
            for call in (ig_critical_point, lambda k: infimum(IG, k)):
                with pytest.raises(DomainError, match="kappa must be <= 1.34"):
                    call(kappa)


def reference_critical_point(kappa):
    """The root finder over the public, argument-checked stationarity function:
    the same peak bracket, halving loop and ``_bracketed_root``."""

    def f(x):
        return curves.ig_stationarity_scaled(kappa, x)

    hi = curves.ig_peak_coord(kappa)
    f_hi = f(hi)
    assert f_hi > 0.0
    lo = hi
    while True:
        lo *= 0.5
        f_lo = f(lo)
        if f_lo < 0.0:
            return solver._bracketed_root(f, lo, hi, f_lo, f_hi)


class TestInfimumRegimes:
    def test_inverse_gaussian(self):
        r = infimum(IG, 0.5)
        assert (r.value, r.attained, r.limit_direction) == (0.0, False, LimitDirection.TO_POS_INF)
        r = infimum(IG, 1.0)
        assert (r.value, r.attained, r.limit_direction) == (0.5, False, LimitDirection.TO_POS_INF)
        r = infimum(IG, 2.0)
        assert r.attained and not r.constant
        assert r.value > 0.5
        assert r.argmin == pytest.approx(X0_AT_2, rel=1e-12)

    def test_log_normal(self):
        r = infimum(Family.LOG_NORMAL, 0.5)
        assert (r.value, r.attained, r.limit_direction) == (0.0, False, LimitDirection.TO_ZERO)
        r = infimum(Family.LOG_NORMAL, 1.0)
        assert (r.value, r.attained, r.limit_direction) == (0.5, False, LimitDirection.TO_ZERO)
        r = infimum(Family.LOG_NORMAL, math.e)
        assert r.attained
        assert r.argmin == pytest.approx(math.sqrt(2.0), abs=1e-14)
        assert r.value == pytest.approx(PHI_SQRT2, abs=1e-10)

    def test_gumbel(self):
        r = infimum(Family.GUMBEL, 0.5)
        assert (r.value, r.limit_direction) == (0.0, LimitDirection.TO_POS_INF)
        r = infimum(Family.GUMBEL, 2.0)
        assert (r.value, r.limit_direction) == (0.0, LimitDirection.TO_NEG_INF)
        r = infimum(Family.GUMBEL, 1.0)
        assert r.constant and not r.attained
        assert r.value == pytest.approx(0.5703760016750230, abs=1e-15)
        assert r.value > 0.5

    def test_logistic(self):
        r = infimum(Family.LOGISTIC, 0.5)
        assert (r.value, r.limit_direction) == (0.0, LimitDirection.TO_POS_INF)
        r = infimum(Family.LOGISTIC, 2.0)
        assert (r.value, r.limit_direction) == (0.0, LimitDirection.TO_NEG_INF)
        r = infimum(Family.LOGISTIC, 1.0)
        assert r.constant and r.value == 0.5

    def test_regime_totality(self):
        for family in Family:
            for kappa in np.geomspace(1e-3, 1e3, 25):
                r = infimum(family, kappa)
                shapes = (r.attained, r.limit_direction is not None, r.constant)
                assert sum(shapes) == 1
                assert 0.0 <= r.value <= 1.0

    def test_attained_value_consistent_with_curve(self):
        for family, kappa in ((IG, 3.0), (Family.LOG_NORMAL, 2.0)):
            r = infimum(family, kappa)
            assert abs(reduced_prob(family, kappa, r.argmin) - r.value) <= 1e-12

    def test_phase_transition_at_unit_multiplier(self):
        for family in (IG, Family.LOG_NORMAL):
            assert infimum(family, 0.99).value == 0.0
            assert infimum(family, 1.0).value == 0.5
            assert infimum(family, 1.01).value > 0.5

    def test_attained_minima_beat_neighbors(self):
        for family, kappa in ((IG, 1.5), (IG, 5.0), (Family.LOG_NORMAL, 4.0)):
            r = infimum(family, kappa)
            x = r.argmin
            assert r.value <= reduced_prob(family, kappa, x * (1 + 1e-3))
            assert r.value <= reduced_prob(family, kappa, x * (1 - 1e-3))

    def test_grid_oracle_agreement(self):
        for kappa in (1.5, 2.0, 3.0, 5.0):
            for family in Family:
                r = infimum(family, kappa)
                if r.attained:
                    grid = (
                        GridSpec("geometric", 1e-3, 10.0, 100_000)
                        if family is IG
                        else GridSpec("geometric", 1e-2, 1e2, 100_000)
                    )
                    _, value = grid_min(family, kappa, grid)
                    assert abs(value - r.value) <= 1e-6
                else:
                    # grid minima approach the limit value monotonically as
                    # the window endpoint pushes toward the boundary (the
                    # Gumbel tail saturates to exactly 0.0 early, so the
                    # decrease is non-strict)
                    mins = [
                        grid_min(family, kappa, GridSpec("linear", -w, w, 2000))[1]
                        for w in (10.0, 20.0, 40.0)
                    ]
                    assert mins[0] >= mins[1] >= mins[2] >= r.value
                    assert mins[2] - r.value <= 1e-8

    def test_tight_grid_confirms_ig_minimum_to_1e8(self):
        r = infimum(IG, 2.0)
        lo, hi = r.argmin * 0.9, r.argmin * 1.1
        _, value = grid_min(IG, 2.0, GridSpec("linear", lo, hi, 100_000))
        assert abs(value - r.value) <= 1e-8
        assert value >= r.value - 1e-12  # grid can never beat the infimum


class TestInfimumResultInvariants:
    def test_attained_requires_argmin(self):
        with pytest.raises(ValueError):
            InfimumResult(IG, 2.0, 0.8, True)

    def test_limit_requires_direction(self):
        with pytest.raises(ValueError):
            InfimumResult(IG, 0.5, 0.0, False)

    def test_constant_excludes_direction(self):
        with pytest.raises(ValueError):
            InfimumResult(
                Family.GUMBEL, 1.0, 0.57, False,
                limit_direction=LimitDirection.TO_POS_INF, constant=True,
            )

    def test_value_must_be_probability(self):
        with pytest.raises(ValueError):
            InfimumResult(IG, 2.0, 1.5, True, argmin=1.0)

    def test_constant_is_not_attained(self):
        with pytest.raises(ValueError, match="constant curves are reported as non-attained"):
            InfimumResult(IG, 2.0, 0.6, True, argmin=1.0, constant=True)
