"""Critical points and the infimum regime table."""

import dataclasses
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kappainf import (
    Family,
    GridSpec,
    InfimumResult,
    LimitDirection,
    grid_min,
    ig_critical_point,
    ig_peak_coord,
    ig_stationarity_scaled,
    infimum,
    reduced_prob,
    std_normal_cdf,
)
from kappainf import curves, solver
from kappainf.errors import DomainError, NumericalError, RegimeError

IG = Family.INVERSE_GAUSSIAN

# frozen 40-digit bisection references for the critical coordinate
X0_AT_2 = 0.6479001883889423
VALUE_AT_X0_OF_2 = 0.8725831654781596
# 50-digit quadrature of the normal density up to sqrt(2)
PHI_SQRT2 = 0.9213503964748574
# frozen 50-digit mpmath bisection of the stationarity function for the
# critical coordinate at kappa = 1.0 + gap (the double nearest to it)
X0_NEAR_ONE = {
    1e-12: 707075.35217958558898,
    1e-9: 22360.67884434231402,
    1e-6: 707.10660443935772711,
}

# frozen 40-digit mpmath roots of q - D(s) in the erfcx argument s, mapped
# back to x0 = s*sqrt(2*kappa)/(kappa+1), at the double kappa given
X0_40_DIGITS = {
    1.0000000000000002: "47453132.81212577381037491385078547038176",
    1.0000000000000007: "27397079.0029718755174198428704031466551",
    1.0000000000000142: "5931641.601515700982144862776402984510062",
    1.000000000001: "707075.3521795855889817206991840200511086",
    1.000000001: "22360.67884434231401995242187233408510618",
    1.000001: "707.1066044393577271136322905389742925921",
    1.0001: "70.70891077141504586716179694981337464949",
    1.01: "7.053797013519104062839855892626031929052",
    1.1: "2.190392438103747301986900241934830848478",
    1.4059468945528903: "1.048764453147883680409946781201507321637",
    1.5: "0.9383811959266877884126843489350609785672",
    1.5057571256188411: "0.9326594459896083614857263188930610571847",
    2.0: "0.6479001883889422755910816310386361771626",
    3.0: "0.4486279021122863870020820183078239334028",
    10.0: "0.2060788682481367076009652835107304959759",
    100.0: "0.06156960931654765776530123586550549437163",
    1000.0: "0.01936483821108712033908199957126826730706",
    1e5: "0.001935335576758175484365787707744100780253",
    1e8: "0.00006120031846274217145684831634459303544544",
    1e15: "0.00000001935323987109640053072023036397762683191",
    1e30: "6.1200318096248075448336347431507218854e-16",
    1e60: "6.12003180962480776055707398973402209728e-31",
    1e100: "6.120031809624807557017803282297067380665e-51",
    1e150: "6.120031809624807664324283529251537559456e-76",
    1.3407807929942596e154: "5.285362627045951683768446699960752399262e-78",
}
# frozen 40-digit mpmath values of D(s) = 1 - sqrt(pi)*s*erfcx(s) at the double s
# given, from both ends of [1e-3, 1e8] and s = 1-3, where that direct form cancels
D_40_DIGITS = {
    0.001: "0.9982295443779730806698183109440659498963",
    0.05: "0.9161638152191365800946060597257308814814",
    0.37: "0.5481886118659073350680445906197267928692",
    0.8: "0.3064734217210666854599499759741080537699",
    1.5: "0.1450070353157362676274348088241318827735",
    2.5: "0.06588862056108970941355708787904675510534",
    2.61: "0.06127269029032726367934182344424917345049",
    2.75: "0.05604289710825726387235976767880291248328",
    3.0: "0.04818616081607476818532264992401140013111",
    10.0: "0.004926812175530252619262803218755363483238",
    1000.0: "4.999992500018749934375295310875791807343e-7",
    1e5: "4.99999999925000000018749999993437500003e-11",
    1e8: "4.9999999999999992500000000000001875e-17",
}
# y* = lim x0*sqrt(kappa-1) as kappa -> inf, sqrt(2)*s1 with D(s1) = 1/2
Y_STAR_40_DIGITS = "0.6120031809624807605680903010662194859034"

# kappa in (1 + 1e-15, 1e8]: the kappa -> 1+ edge and the far end
SOLVER_GRID = np.concatenate([1.0 + np.geomspace(2e-15, 0.1, 150),
                              np.geomspace(1.1, 1e8, 150)])


class TestCriticalPoint:
    def test_reference_location_and_value(self):
        x0 = ig_critical_point(2.0)
        assert x0 == pytest.approx(X0_AT_2, rel=1e-12)
        assert 0.0 < x0 < math.sqrt(2.0 / 3.0)
        assert abs(ig_stationarity_scaled(2.0, x0)) <= 1e-12
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
        kernel = curves._ig_d

        def counting_kernel(s, slope=False):
            nonlocal calls
            calls += slope  # the root finder's calls, not the array path's
            return kernel(s, slope)

        monkeypatch.setattr(curves, "_ig_d", counting_kernel)
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

    def test_few_kernel_calls_per_root(self, monkeypatch):
        calls = 0
        kernel = curves._ig_d

        def counting_kernel(*args, **kwargs):
            nonlocal calls
            calls += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(curves, "_ig_d", counting_kernel)
        counts = []
        for kappa in SOLVER_GRID:
            calls = 0
            ig_critical_point(kappa)
            counts.append(calls)
        assert np.mean(counts) <= 4.0 and max(counts) <= 8, (np.mean(counts), max(counts))

    def test_zero_scaled_residual_over_the_whole_range(self):
        residuals = [ig_stationarity_scaled(k, ig_critical_point(k)) for k in SOLVER_GRID]
        assert np.max(np.abs(residuals)) <= 1e-12

    @pytest.mark.parametrize("gap", sorted(X0_NEAR_ONE))
    def test_near_one_against_frozen_references(self, gap):
        x0 = ig_critical_point(1.0 + gap)
        assert abs(x0 - X0_NEAR_ONE[gap]) <= 1e-13 * X0_NEAR_ONE[gap]

    def test_root_lies_in_the_closed_form_bracket(self):
        # x0/peak runs from y* = 0.612... (kappa -> inf) to 1 (kappa -> 1+),
        # so (peak/2, peak] brackets the root, the first floats above 1 included
        ulp = 2.0 ** -52
        kappas = np.concatenate([1.0 + ulp * np.arange(1, 65),
                                 1.0 + np.geomspace(1.5e-14, 0.1, 100),
                                 np.geomspace(1.1, curves.IG_KAPPA_MAX, 100)])
        for kappa in kappas:
            ratio = ig_critical_point(kappa) / ig_peak_coord(kappa)
            assert 0.5 < ratio <= 1.0, kappa

    def test_first_floats_above_one_follow_the_asymptotics(self):
        # the expansions derived in verification._ig_near_one_rows, with
        # e = kappa - 1: x0*sqrt(2e) = 1 - e/4 + O(e^2) and
        # inf = 1/2 + sqrt(e/pi)(1 - 2e/3 + O(e^2)); at e <= 256 * 2^-52
        # = 5.7e-14 the O(e^2) terms and the e*sqrt(e) one are below double
        # precision
        for j in range(1, 257):
            kappa = 1.0 + j * 2.0 ** -52
            e = kappa - 1.0  # exact
            x0 = ig_critical_point(kappa)
            assert abs(x0 * math.sqrt(2.0 * e) / (1.0 - e / 4.0) - 1.0) <= 1e-15, j
            value = infimum(IG, kappa).value
            assert abs(value - 0.5 - math.sqrt(e / math.pi)) <= 4.4e-16, j

    def test_d_is_positive_decreasing_and_convex(self):
        # the facts that let Newton run without a bracket
        s = np.geomspace(1e-3, 1e8, 20_001)
        d, slope = np.array([curves._ig_d(float(x), slope=True) for x in s]).T
        assert np.all(d > 0.0)
        assert np.all(slope < 0.0)
        assert np.all(np.diff(slope) >= 0.0)

    def test_d_against_frozen_40_digit_references(self):
        errors = {s: abs(Fraction(curves._ig_d(s)) / Fraction(ref) - 1)
                  for s, ref in D_40_DIGITS.items()}
        worst = max(errors, key=errors.get)
        assert errors[worst] <= 4e-16, (worst, float(errors[worst]))

    def test_iteration_cap_raises(self, monkeypatch):
        # a kernel whose Newton steps never shrink: D = 0 with slope -1 moves
        # s by q = 1/4 on every step
        monkeypatch.setattr(curves, "_ig_d", lambda s, slope=False: (0.0, -1.0))
        with pytest.raises(NumericalError, match="did not converge in 100 iterations"):
            ig_critical_point(2.0)

    def test_y_star_literal(self):
        assert solver._Y_STAR == float(Y_STAR_40_DIGITS)

    def test_closed_form_bracket_in_the_erfcx_argument(self):
        # with c = (kappa+1)/(sqrt(2*kappa)*sqrt(kappa-1)), q - D(s) is < 0 at
        # s = c*pi^-1/2 and >= 0 at s = c*2^-1/2*(1 + 4 ulp)
        ulp = 2.0 ** -52
        y_lo, y_hi = 1.0 / math.sqrt(math.pi), math.sqrt(0.5) * (1.0 + 4.0 * ulp)
        kappas = np.concatenate([1.0 + ulp * np.arange(1, 65),
                                 1.0 + np.geomspace(1e-15, 0.1, 100),
                                 np.geomspace(1.1, curves.IG_KAPPA_MAX, 100),
                                 [curves.IG_KAPPA_MAX]])
        for kappa in kappas:
            k = float(kappa)
            q = (k - 1.0) / (2.0 * k)
            c = (k + 1.0) / (math.sqrt(2.0 * k) * math.sqrt(k - 1.0))
            assert q - curves._ig_d(c * y_lo) < 0.0, k
            assert q - curves._ig_d(c * y_hi) >= 0.0, k

    def test_against_frozen_40_digit_references(self):
        # exact rational differences: a float conversion of the reference
        # would add up to half an ulp of its own
        errors = {kappa: abs(Fraction(ig_critical_point(kappa)) / Fraction(ref) - 1)
                  for kappa, ref in X0_40_DIGITS.items()}
        worst = max(errors, key=errors.get)
        assert errors[worst] <= 1e-15, (worst, float(errors[worst]))


def reference_critical_point(kappa):
    """The Newton loop over the checked public path: kappa through the
    argument checks of ``ig_stationarity_scaled``, each iterate's D from the
    array path of ``_ig_d``, equal to the scalar path bit for bit, and the
    same start and exits."""
    k = curves._ig_gap(kappa, 1.0)[0]
    q = (k - 1.0) / (2.0 * k)
    sqrt_2k = math.sqrt(2.0 * k)
    c = (k + 1.0) / (sqrt_2k * math.sqrt(k - 1.0))
    y_star = float(Y_STAR_40_DIGITS)
    s = c * (y_star + (math.sqrt(0.5) - y_star) / k)
    step = math.inf
    for _ in range(solver._ROOT_MAX_ITER):
        d = curves._ig_d(np.array([s]))[0]
        value, slope = curves._ig_d(s, slope=True)
        assert d.hex() == value.hex()
        delta = (q - d) / -slope
        if abs(2.0 * delta) > abs(step) and abs(delta) <= 2.0 ** -26 * s:
            break
        if abs(delta) <= 4.0 * 2.0 ** -52 * s:
            s -= delta
            break
        step, s = delta, s - delta
    else:
        raise AssertionError(f"no convergence at kappa={k!r}")
    return s * sqrt_2k / (k + 1.0)


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


# every kappa infimum takes: the float range for the location-scale families
# and the log-normal, up to IG_KAPPA_MAX for the inverse Gaussian
ANY_KAPPA = st.one_of(st.floats(0.0, sys.float_info.max, exclude_min=True),
                      st.floats(1e-3, 1e3),
                      st.sampled_from([1.0, 1.0 + 2.0 ** -52, 1.0 + 1e-10, curves.IG_KAPPA_MAX]))


def _in_range(family, kappa):
    """kappa, at most IG_KAPPA_MAX for the inverse Gaussian."""
    return min(kappa, curves.IG_KAPPA_MAX) if family is IG else kappa


class TestInfimumBuiltResults:
    """The results infimum builds without the constructor's checks are the
    results the checked constructor builds."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(list(Family)), ANY_KAPPA)
    @example(IG, 2.0)
    @example(Family.GUMBEL, 1.0)
    @example(Family.LOG_NORMAL, 0.5)
    def test_equal_to_the_checked_constructor(self, family, kappa):
        kappa = _in_range(family, kappa)
        result = infimum(family, kappa)
        fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
        checked = InfimumResult(**fields)
        assert result == checked
        assert hash(result) == hash(checked)
        assert repr(result) == repr(checked)
        assert pickle.dumps(result) == pickle.dumps(checked)
        assert vars(result) == vars(checked)
        # the row types cli writes: floats, bools, a float or no argmin
        assert type(result.kappa) is float and type(result.value) is float
        assert type(result.attained) is bool and type(result.constant) is bool
        assert result.argmin is None or type(result.argmin) is float
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.value = 0.5

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(list(Family)), ANY_KAPPA, st.sampled_from(
        ["value_above_one", "value_nan", "flip_attained", "flip_direction"]))
    def test_replace_with_an_invalid_field_raises(self, family, kappa, change):
        kappa = _in_range(family, kappa)
        result = infimum(family, kappa)
        direction = None if result.limit_direction is not None else LimitDirection.TO_ZERO
        changes = {"value_above_one": {"value": 1.5}, "value_nan": {"value": math.nan},
                   "flip_attained": {"attained": not result.attained},
                   "flip_direction": {"limit_direction": direction}}[change]
        with pytest.raises(ValueError):
            dataclasses.replace(result, **changes)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(list(Family)), ANY_KAPPA)
    def test_pickle_round_trip_is_equal(self, family, kappa):
        kappa = _in_range(family, kappa)
        result = infimum(family, kappa)
        again = pickle.loads(pickle.dumps(result))
        assert again == result and hash(again) == hash(result)
        with pytest.raises(dataclasses.FrozenInstanceError):
            again.kappa = 2.0
