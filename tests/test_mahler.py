import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerlat.fields import classify_Psr
from mahlerlat.intpoly import LEHMER, SMYTH, IntPoly
from mahlerlat.mahler import (
    MahlerCertificate,
    dobrowolski_bound,
    is_totally_real,
    mahler_measure,
    schinzel_bound,
    smyth_threshold,
    voutier_bound,
)
from mahlerlat.roots import refine_roots, root_counts
from mahlerlat.salem import certify

GOLDEN = IntPoly.of(-1, -1, 1)
PHI3_PHI5 = IntPoly.of(1, 1, 1) * IntPoly.of(1, 1, 1, 1, 1)


def numpy_mahler(p: IntPoly) -> float:
    """Independent numeric oracle: product of max(1, |root|) via numpy."""
    roots = np.roots(list(reversed(p.coeffs)))
    out = 1.0
    for z in roots:
        out *= max(1.0, abs(z))
    return out


class TestMahlerMeasure:
    def test_lehmer_value(self):
        cert = mahler_measure(LEHMER)
        assert abs(cert.value - 1.17628081826) < 1e-9
        assert cert.error_radius < 1e-9
        assert not cert.is_one_exact

    def test_golden_ratio(self):
        cert = mahler_measure(GOLDEN)
        assert abs(cert.value - (1 + math.sqrt(5)) / 2) < 1e-10

    def test_smyth_value(self):
        cert = mahler_measure(SMYTH)
        assert abs(cert.value - 1.3247179572) < 1e-9

    def test_cyclotomic_is_exactly_one(self):
        cert = mahler_measure(IntPoly.of(1, 1, 1))
        assert cert.value == 1.0
        assert cert.error_radius == 0.0
        assert cert.is_one_exact

    def test_profile_decides_measure_one(self, count_calls):
        profile = refine_roots(PHI3_PHI5)
        counted = count_calls("roots.root_counts")
        cert = MahlerCertificate.of(profile)
        assert (cert.value, cert.error_radius, cert.is_one_exact) == (1.0, 0.0, True)
        assert counted == []

    def test_counts_decide_measure_one(self, count_calls, refine_calls):
        # one exact count decides and nothing is polished
        counted = count_calls("roots.root_counts")
        cert = mahler_measure(PHI3_PHI5)
        assert (cert.value, cert.error_radius, cert.is_one_exact) == (1.0, 0.0, True)
        assert counted == [PHI3_PHI5]
        assert refine_calls == []

    def test_interval_brackets_oracle(self):
        for p in (LEHMER, GOLDEN, SMYTH, IntPoly.of(1, -1, -1, -1, 1)):
            cert = mahler_measure(p)
            oracle = numpy_mahler(p)
            assert cert.lower - 1e-9 <= oracle <= cert.upper + 1e-9

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            mahler_measure(IntPoly.of(1, 2))

    def test_seed_beyond_fixed_point_range(self):
        # the outside root near 1e300 overflows the fixed-point kernel, so
        # the outside roots come from the full classification
        p = IntPoly.of(1, -10**300, 1)
        cert = MahlerCertificate.of(root_counts(p))
        assert cert == mahler_measure(p)
        assert cert.value == 1e300

    def test_profile_is_keyword_only(self):
        # a stale positional precision is rejected
        with pytest.raises(TypeError):
            mahler_measure(LEHMER, 1e-10)
        with pytest.raises(TypeError):
            certify(LEHMER, 1e-12)

    def test_entry_points_take_only_the_polynomial(self):
        # a certificate is built from the record of the polynomial it names,
        # so no entry point accepts a record made for another polynomial
        for entry in (mahler_measure, certify, classify_Psr):
            assert list(inspect.signature(entry).parameters) == ["p"], entry

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_within_radius(self, lower):
        p = IntPoly(tuple(lower) + (1,))
        cert = mahler_measure(p)
        # the numpy oracle loses ~half its digits at repeated roots
        assert abs(cert.value - numpy_mahler(p)) < max(1e-4, 10 * cert.error_radius)


class TestKronecker:
    """Measure 1 (Kronecker's theorem) is decided by the exact count s = 0."""

    @pytest.mark.parametrize(
        "coeffs",
        [
            (0, 1),  # x
            (1, 1),  # x + 1
            (1, 1, 1),  # phi_3
            (1, -1, 1),  # phi_6
            (1, 0, 1, 0, 1),  # phi_3 * phi_6
            (-1, 0, 0, 0, 0, 0, 1),  # x^6 - 1
            (0, 0, 1, 1),  # x^2 (x + 1)
        ],
    )
    def test_measure_one_detected(self, coeffs):
        assert mahler_measure(IntPoly(coeffs)).is_one_exact

    @pytest.mark.parametrize(
        "coeffs",
        [
            (-1, -1, 1),  # golden
            (-1, -1, 0, 1),  # smyth
            LEHMER.coeffs,
            (2, 1),  # x + 2
        ],
    )
    def test_measure_above_one_detected(self, coeffs):
        assert not mahler_measure(IntPoly(coeffs)).is_one_exact

    @given(st.lists(st.integers(-1, 1), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_numeric_oracle(self, lower):
        p = IntPoly(tuple(lower) + (1,))
        numeric = abs(numpy_mahler(p) - 1.0) < 1e-5
        assert mahler_measure(p).is_one_exact == numeric

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            mahler_measure(IntPoly.of(1, 2))


class TestBounds:
    def test_voutier_at_10(self):
        expected = 1 + 0.25 * (math.log(math.log(10)) / math.log(10)) ** 3
        assert abs(voutier_bound(10) - expected) < 1e-15

    def test_dobrowolski_weaker_than_voutier(self):
        for d in (3, 10, 50, 200):
            assert 1 < dobrowolski_bound(d) < voutier_bound(d)

    def test_voutier_vacuous_at_2(self):
        assert voutier_bound(2) < 1  # log log 2 < 0

    def test_schinzel_is_golden_power(self):
        phi = (1 + math.sqrt(5)) / 2
        assert abs(schinzel_bound(2) - phi) < 1e-12
        assert abs(schinzel_bound(4) - phi**2) < 1e-12

    def test_smyth_threshold_value(self):
        assert abs(smyth_threshold() - 1.3247179572447) < 1e-10

    def test_smyth_threshold_within_certified_measure(self):
        cert = mahler_measure(SMYTH)
        assert cert.lower <= smyth_threshold() <= cert.upper

    def test_lehmer_beats_voutier(self):
        # the certified Lehmer value respects the unconditional lower bound
        cert = mahler_measure(LEHMER)
        assert cert.lower > voutier_bound(10)

    def test_golden_square_meets_schinzel(self):
        p = IntPoly.of(1, -3, 1)  # totally real, measure phi^2
        profile = refine_roots(p)
        assert is_totally_real(profile)
        cert = MahlerCertificate.of(profile)
        assert cert.upper >= schinzel_bound(2) - 1e-9

    def test_totally_real_detection(self):
        assert is_totally_real(refine_roots(IntPoly.of(-2, 0, 1)))
        assert not is_totally_real(refine_roots(IntPoly.of(1, 0, 1)))

    def test_totally_real_reads_the_exact_count(self):
        # certify polishes only Lehmer's one outside root, which is real
        assert not is_totally_real(certify(LEHMER).profile)

    def test_totally_real_agrees_on_every_record(self):
        # real_roots() repeats a root by its multiplicity; count_roots() does not
        for degree in range(1, 6):
            for lower in itertools.product((-1, 0, 1), repeat=degree):
                p = IntPoly(lower + (1,))
                expected = len(p.to_sympy().real_roots()) == degree
                records = (root_counts(p), refine_roots(p), certify(p).profile)
                assert [is_totally_real(rec) for rec in records] == [expected] * 3, p

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            voutier_bound(1)
        with pytest.raises(ValueError):
            dobrowolski_bound(1)
        with pytest.raises(ValueError):
            schinzel_bound(1)
