"""Accuracy and property tests for the special-function layer.

Frozen reference values come from 50-digit adaptive quadrature of the
Gaussian density (mpmath tanh-sinh), independent of every code path under
test.  The curve kernels call the unchecked ``special._erfcx``,
``special._expit`` and ``special._ndtri``, so those are pinned here against
the same references and against the standard library.
"""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kappainf import DomainError, std_normal_cdf
from kappainf.special import _erfcx as erfcx, _expit, _ndtri

# 50-digit quadrature of e^{-t^2/2}/sqrt(2*pi) over (-inf, 1]
PHI_AT_1 = 0.8413447460685429
# 50-digit quadrature of (2/sqrt(pi)) e^{-t^2} over [1, inf)
ERFC_AT_1 = 0.15729920705028513


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_saturates_in_the_far_tails(self):
        assert std_normal_cdf(38.0) == pytest.approx(1.0, abs=1e-15)
        assert std_normal_cdf(50.0) == 1.0
        assert std_normal_cdf(-50.0) == 0.0

    def test_matches_quadrature_at_one(self):
        assert std_normal_cdf(1.0) == pytest.approx(PHI_AT_1, abs=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                     1j, "abc", ["1", "a"]])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            std_normal_cdf(bad)

    def test_symmetry_identity_on_grid(self):
        z = np.linspace(-38.0, 38.0, 10_000)
        np.testing.assert_allclose(std_normal_cdf(z) + std_normal_cdf(-z), 1.0,
                                   rtol=0.0, atol=1e-14)

    def test_monotone_on_grid(self):
        z = np.linspace(-38.0, 38.0, 10_000)
        assert np.all(np.diff(std_normal_cdf(z)) >= 0.0)

    @given(st.floats(-37.0, 37.0), st.floats(1e-6, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_monotone_pairs(self, z, dz):
        assert std_normal_cdf(z + dz) >= std_normal_cdf(z)


class TestErfcx:
    def test_at_zero(self):
        assert erfcx(0.0) == 1.0

    def test_descaling_recovers_erfc(self):
        assert erfcx(1.0) * np.exp(-1.0) == pytest.approx(ERFC_AT_1, rel=1e-13)

    def test_asymptotic_leading_term(self):
        # one-term tail series 1/(z*sqrt(pi)); the first omitted term is
        # 1/(2 z^2) = 2e-4 relative at z = 50, and the series alternates,
        # so the true value sits just below the leading term
        leading = 1.0 / (50.0 * np.sqrt(np.pi))
        value = erfcx(50.0)
        assert leading * (1.0 - 1.0 / 5000.0) <= value <= leading
        assert value == pytest.approx(leading, rel=2.5e-4)

    def test_strictly_decreasing_with_range(self):
        z = np.geomspace(1e-8, 1e4, 10_000)
        v = erfcx(z)
        assert np.all(np.diff(v) < 0.0)
        assert np.all((v > 0.0) & (v <= 1.0))

    def test_scaling_identity_against_erfc(self):
        # e^{-z^2} erfcx(z) = erfc(z) wherever erfc is comfortably normal
        z = np.linspace(0.0, 25.0, 2_000)
        erfc = np.array([math.erfc(v) for v in z])
        keep = erfc > 5e-300
        lhs = erfcx(z[keep]) * np.exp(-z[keep] ** 2)
        np.testing.assert_allclose(lhs, erfc[keep], rtol=1e-12)

    @given(st.floats(0.0, 1e6), st.floats(1e-9, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_decreasing_pairs(self, z, dz):
        assert erfcx(z + dz) < erfcx(z)


def test_expit_against_its_formula():
    z = np.linspace(-700.0, 700.0, 5_001)
    reference = [1.0 / (1.0 + math.exp(-v)) for v in z]
    np.testing.assert_allclose(_expit(z), reference, rtol=1e-15)


def test_ndtri_against_the_stdlib_normal_quantile():
    u = np.concatenate([np.geomspace(1e-300, 0.5, 2_000), 1.0 - np.geomspace(1e-16, 0.5, 2_000)])
    reference = [statistics.NormalDist().inv_cdf(v) for v in u.tolist()]
    np.testing.assert_allclose(_ndtri(u), reference, rtol=1e-14)
