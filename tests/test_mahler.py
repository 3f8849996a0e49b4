import inspect
import itertools
import math
import random
from fractions import Fraction

import mpmath
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
from mahlerlat.roots import CertificationError, refine_roots, root_counts
from mahlerlat.salem import certify

GOLDEN = IntPoly.of(-1, -1, 1)
PHI3_PHI5 = IntPoly.of(1, 1, 1) * IntPoly.of(1, 1, 1, 1, 1)
A = 15 * 10**307
# x^3 + A(x^2 + x - 1): every root fits a float, the measure is about 1.618 A
MEASURE_BEYOND_FLOATS = IntPoly.of(-A, A, A, 1)


def assert_brackets_root(p: IntPoly, cert: MahlerCertificate) -> None:
    """p changes sign on [lower, upper], checked in Fractions, so the
    interval holds a real root of p beyond 1."""
    lo, hi = Fraction(cert.lower), Fraction(cert.upper)
    assert 1 < lo <= hi
    assert p(lo) * p(hi) <= 0


def seeded_monic(count=8, seed=21):
    """Monic, degree 18-30, height 3; s reaches 22."""
    rng = random.Random(seed)
    for _ in range(count):
        degree = rng.randint(18, 30)
        yield IntPoly([rng.randint(-3, 3) for _ in range(degree)] + [1])


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

    def test_huge_root_in_fixed_point(self, count_calls):
        # the seed 1e300 enters the fixed-point kernel as its dyadic value,
        # so the outside root certifies there, with no classification
        p = IntPoly.of(1, -10**300, 1)
        classified = count_calls("roots._classify_squarefree")
        outside = MahlerCertificate.of(root_counts(p))
        assert classified == []
        for cert in (outside, mahler_measure(p)):
            assert cert.value == 1e300
            assert_brackets_root(p, cert)

    def test_measure_beyond_float_range(self):
        for make in (mahler_measure, lambda p: MahlerCertificate.of(root_counts(p))):
            with pytest.raises(CertificationError, match="Mahler measure .* beyond the float range"):
                make(MEASURE_BEYOND_FLOATS)

    def test_bounds_round_outward(self):
        cert = MahlerCertificate(1.0, 2.0**-60, False, LEHMER)
        assert Fraction(cert.lower) <= 1 - Fraction(2) ** -60 < 1
        assert 1 < 1 + Fraction(2) ** -60 <= Fraction(cert.upper)
        exact = MahlerCertificate(1.5, 0.25, False, LEHMER)
        assert (exact.lower, exact.upper) == (1.25, 1.75)

    def test_exact_centers_keep_their_digits(self):
        # x(x^2 + 2x + 2): the disks of -1 +/- i have radius 0 and centers
        # with no fractional bits, and |c| = sqrt 2 is still bounded closely
        cert = mahler_measure(IntPoly.of(0, 2, 2, 1))
        assert cert.value == 2.0 and cert.error_radius < 1e-18
        assert cert.lower <= 2 <= cert.upper

    def test_interval_holds_measure(self):
        # no slack: the bounds are exact products of the disks' modulus
        # bounds, rounded outward
        largest_s = 0
        for p in seeded_monic():
            cs = list(reversed(p.coeffs))
            counts = root_counts(p)
            largest_s = max(largest_s, counts.s)
            with mpmath.workdps(60):
                start = [complex(z) for z in np.roots(cs)]
                found = mpmath.polyroots(cs, maxsteps=100, extraprec=10, roots_init=start)
                measure = mpmath.fprod(max(1, abs(z)) for z in found)
                for cert in (MahlerCertificate.of(counts), mahler_measure(p)):
                    assert cert.lower <= measure <= cert.upper, (p, cert)
        assert largest_s == 22

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
