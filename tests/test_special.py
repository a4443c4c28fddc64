"""Accuracy and property tests for the special-function layer.

Frozen reference values come from 40-digit mpmath (erfc, exp(x^2)*erfc(x)
and ncdf, and the three-term asymptotic series of erfcx from x = 1e8 on),
computed once and kept here as literals, independent of every code path
under test; the tests do not need mpmath.  The curve kernels call the
unchecked ``special._phi``, ``special._erfcx`` and ``special._expit``, so
those are pinned here, with the erfc they share.
"""

import math
import struct
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kappainf import DomainError, std_normal_cdf
from kappainf.special import _erfc, _erfcx as erfcx, _expit, _phi

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


# (argument, 40-digit value, to 25 digits).  erfc on [-38.6, 26.5], where it
# is a normal float; erfcx on [0, 1.3e154]; Phi on [-37.5, 8.3].  Each set
# holds both sides (+-1 ulp) of every piece boundary, a subnormal argument
# and the deep tail; the piece boundaries of Phi lie at |z| = sqrt(2)*(1/2, 4).
ERFC = [
    (-38.6, "2.0"),
    (-35.64090909090909, "2.0"),
    (-32.68181818181819, "2.0"),
    (-29.722727272727276, "2.0"),
    (-27.5, "2.0"),
    (-26.763636363636365, "2.0"),
    (-23.804545454545455, "2.0"),
    (-20.845454545454547, "2.0"),
    (-17.88636363636364, "2.0"),
    (-14.92727272727273, "2.0"),
    (-11.968181818181819, "2.0"),
    (-10.0, "2.0"),
    (-9.009090909090911, "2.0"),
    (-6.050000000000004, "1.999999999999999988314065"),
    (-6.0, "1.999999999999999978480263"),
    (-4.000000000000001, "1.999999984582742099720094"),
    (-4.0, "1.999999984582742099719981"),
    (-3.9999999999999996, "1.999999984582742099719925"),
    (-3.0909090909090935, "1.999987643760327153606186"),
    (-2.5, "1.999593047982555041060436"),
    (-1.0, "1.842700792949714869341221"),
    (-0.5000000000000001, "1.520499877813046635247212"),
    (-0.5, "1.520499877813046537682747"),
    (-0.49999999999999994, "1.520499877813046488900514"),
    (-0.3, "1.328626759459127416189618"),
    (-0.13181818181818272, "1.147883853698090885833609"),
    (-1e-08, "1.000000011283791670955126"),
    (-5e-324, "1.0"),
    (0.0, "1.0"),
    (5e-324, "1.0"),
    (1e-300, "1.0"),
    (1e-08, "9.999999887162083290448744e-1"),
    (0.1, "8.875370839817151015952877e-1"),
    (0.49999999999999994, "4.79500122186953511099486e-1"),
    (0.5, "4.795001221869534623172533e-1"),
    (0.5000000000000001, "4.795001221869533647527881e-1"),
    (1.0, "1.572992070502851306587794e-1"),
    (2.5, "4.069520174449589395642157e-4"),
    (2.827272727272721, "6.378088632333138324619054e-5"),
    (3.9999999999999996, "1.541725790028007524364969e-8"),
    (4.0, "1.541725790028001885215967e-8"),
    (4.000000000000001, "1.541725790027990606917964e-8"),
    (5.786363636363632, "2.765095784845319188404099e-16"),
    (6.0, "2.151973671249891311659335e-17"),
    (8.745454545454542, "3.896856366148278016221981e-35"),
    (10.0, "2.088487583762544757000786e-45"),
    (11.704545454545453, "1.530121510658918874022719e-61"),
    (14.663636363636364, "1.589317690636197083959754e-95"),
    (15.0, "7.212994172451206666565067e-100"),
    (17.622727272727268, "4.265175436719675958628986e-137"),
    (20.0, "5.395865611607900928934999e-176"),
    (20.58181818181818, "2.920158064012403306523482e-186"),
    (23.54090909090909, "5.06205177969861604264501e-243"),
    (25.0, "8.300172571196522752044013e-274"),
    (26.0, "5.663192408856142846475728e-296"),
    (26.5, "2.210907664263734275929239e-307"),
]
ERFCX = [
    (0.0, "1.0"),
    (5e-324, "1.0"),
    (1e-300, "1.0"),
    (1e-08, "9.999999887162084290448733e-1"),
    (0.1, "8.964569799691266366633883e-1"),
    (0.49999999999999994, "6.156903441929259033307402e-1"),
    (0.5, "6.156903441929258748707934e-1"),
    (0.5000000000000001, "6.156903441929258179508999e-1"),
    (1.0, "4.275835761558070044107503e-1"),
    (2.0, "2.553956763105057438650886e-1"),
    (3.0, "1.790011511813899504192948e-1"),
    (3.9999999999999996, "1.369994576250614042706108e-1"),
    (4.0, "1.369994576250613898894452e-1"),
    (4.000000000000001, "1.369994576250613611271139e-1"),
    (5.0, "1.107046377330686263702121e-1"),
    (6.0, "9.277656780053835438948671e-2"),
    (8.0, "6.998516620088092772275225e-2"),
    (10.0, "5.614099274382258585751739e-2"),
    (12.0, "4.685422101489376261958841e-2"),
    (14.0, "4.0197228650218459306062e-2"),
    (16.0, "3.519337782493083756637297e-2"),
    (18.0, "3.129571781590520988566478e-2"),
    (20.0, "2.817434874105131931864915e-2"),
    (22.0, "2.561857000587945266761758e-2"),
    (24.0, "2.348754606368264051860303e-2"),
    (26.0, "2.168358485056290661617299e-2"),
    (26.6, "2.119517815916647790850657e-2"),
    (28.0, "2.01368019642142767765101e-2"),
    (30.0, "1.879588886141675149712533e-2"),
    (100.0, "5.641613782989432903556457e-3"),
    (10000.0, "5.641895807268084115235157e-5"),
    (100000000.0, "5.641895835477562587386003e-9"),
    (1000000000000000.0, "5.641895835477562869480795e-16"),
    (1e+50, "5.641895835477562439017128e-51"),
    (1e+154, "5.64189583547756266102659e-155"),
    (1.3e+154, "4.339919873444279317880387e-155"),
]
PHI = [
    (-37.5, "4.605353009581954843827969e-308"),
    (-37.0, "5.725571222524576822683193e-300"),
    (-33.68333333333334, "5.070273622551078042445749e-249"),
    (-30.0, "4.906713927148187059533809e-198"),
    (-29.866666666666667, "2.667094944229713875922422e-196"),
    (-26.05, "6.726731878789417608086776e-150"),
    (-22.233333333333334, "8.176470924849459327080841e-110"),
    (-20.0, "2.753624118606233695075623e-89"),
    (-18.416666666666668, "4.828520020264746197305067e-76"),
    (-14.600000000000001, "1.404226866962615454592853e-48"),
    (-10.783333333333335, "2.063277927718534752836578e-27"),
    (-10.0, "7.619853024160526065973343e-24"),
    (-6.966666666666669, "1.622691877829747401855956e-12"),
    (-5.6568542494923815, "7.708628950139952190734342e-9"),
    (-5.656854249492381, "7.708628950139992065539335e-9"),
    (-5.65685424949238, "7.708628950140031940344329e-9"),
    (-5.0, "2.866515718791939116737523e-7"),
    (-3.1500000000000057, "8.163523128285463295904537e-4"),
    (-1.0, "1.586552539314570514147675e-1"),
    (-0.7071067811865477, "2.397500610934766816464053e-1"),
    (-0.7071067811865476, "2.397500610934767161406528e-1"),
    (-0.7071067811865475, "2.397500610934767506349003e-1"),
    (0.0, "5.0e-1"),
    (5e-324, "5.0e-1"),
    (0.6666666666666643, "7.475074624530763303310723e-1"),
    (0.7071067811865475, "7.602499389065232493650997e-1"),
    (0.7071067811865476, "7.602499389065232838593472e-1"),
    (0.7071067811865477, "7.602499389065233183535947e-1"),
    (1.0, "8.413447460685429485852325e-1"),
    (3.0, "9.986501019683699054733482e-1"),
    (4.483333333333334, "9.999963256998997211504848e-1"),
    (5.65685424949238, "9.999999922913710498599681e-1"),
    (5.656854249492381, "9.999999922913710498600079e-1"),
    (5.6568542494923815, "9.999999922913710498600478e-1"),
    (8.0, "9.999999999999993779039426e-1"),
    (8.3, "9.999999999999999479443026e-1"),
]


# special's contract is 1e-13 relative.  The worst case measured is 4.0e-16
# on these points and 8.5e-16 over 11,250 random arguments (AVX-512 numpy exp);
# the bound sits a little above it, since numpy's exp may round differently
# on another CPU.
REFERENCE_RTOL = 1e-15


@pytest.mark.parametrize("kernel, table", [(_erfc, ERFC), (erfcx, ERFCX), (_phi, PHI)],
                         ids=["erfc", "erfcx", "phi"])
def test_kernels_match_frozen_40_digit_references(kernel, table):
    args = np.array([x for x, _ in table])
    for got in ([kernel(x) for x in args.tolist()], kernel(args).tolist()):
        with localcontext() as ctx:
            ctx.prec = 40
            worst = max(abs(Decimal(float(g)) / Decimal(ref) - 1) for g, (_, ref) in zip(got, table))
        assert worst <= REFERENCE_RTOL


def test_erfc_is_zero_from_where_it_rounds_to_zero():
    # erfc(27.23) = 1.99e-324 and erfc(27.3) = 4.4e-326 round to 0 (40-digit
    # mpmath); erfc(27.2) = 1.02e-323 is the subnormal 1e-323
    args = np.array([27.2, 27.3, 30.0, 1e300, math.inf, -27.3, -math.inf])
    expected = [1e-323, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0]
    assert [_erfc(x) for x in args.tolist()] == expected
    assert _erfc(args).tolist() == expected
    assert _phi(np.array([-38.7, -math.inf, 38.7, math.inf])).tolist() == [0.0, 0.0, 1.0, 1.0]


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


@pytest.mark.parametrize("kernel, lo, hi", [(_erfc, -40.0, 40.0), (_phi, -60.0, 60.0),
                                            (erfcx, 0.0, 1e300), (erfcx, 0.0, 30.0),
                                            (_expit, -800.0, 800.0)],
                         ids=["erfc", "phi", "erfcx", "erfcx-near", "expit"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_float_and_array_entry_have_the_same_bits(kernel, lo, hi, data):
    values = data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=40))
    array = kernel(np.array(values)).tolist()
    assert [_bits(kernel(v)) for v in values] == [_bits(v) for v in array]
