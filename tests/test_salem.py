import hashlib
import itertools
import math
import random

import mpmath
import pytest

from mahlerlat.intpoly import LEHMER, SMYTH, IntPoly
from mahlerlat.mahler import mahler_measure
from mahlerlat.roots import OUTSIDE, refine_roots
from mahlerlat.salem import (
    COMPLEX_SALEM,
    NEITHER,
    SALEM,
    _enumerate_palindromic,
    _negate_var,
    beta_n,
    canonical_form,
    certify,
    complex_salem_from_salem,
    search_box,
)

SALEM_QUARTIC = IntPoly.of(1, -1, -1, -1, 1)
SALEM_SEXTIC = IntPoly.of(1, 0, -1, -1, -1, 0, 1)


class TestCertify:
    def test_lehmer_is_salem(self):
        cert = certify(LEHMER)
        assert cert.kind == SALEM
        assert abs(cert.salem_value - 1.17628082) < 1e-7
        assert not cert.irreducibility_unknown

    def test_quartic_salem(self):
        cert = certify(SALEM_QUARTIC)
        assert cert.kind == SALEM
        assert abs(cert.salem_value - 1.7220838) < 1e-6

    def test_sextic_salem(self):
        assert certify(SALEM_SEXTIC).kind == SALEM

    def test_smyth_is_neither(self):
        assert certify(SMYTH).kind == NEITHER

    def test_golden_square_is_neither(self):
        # palindromic and irreducible, but no circle root and degree < 4
        assert certify(IntPoly.of(1, -3, 1)).kind == NEITHER

    def test_cyclotomic_is_neither(self):
        assert certify(IntPoly.of(1, 1, 1)).kind == NEITHER

    def test_reducible_is_neither(self):
        cert = certify(IntPoly.of(1, 0, 1, 0, 1))
        assert cert.kind == NEITHER
        assert cert.irreducibility.status == "reducible"

    def test_complex_salem_octic(self):
        cert = certify(IntPoly.of(1, 0, 1, 0, -1, 0, 1, 0, 1))
        assert cert.kind == COMPLEX_SALEM
        assert cert.profile.s == 2 and cert.profile.r == 0

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            certify(IntPoly.of(1, 2))


def _palindromic_height_1(degree_max):
    """Monic palindromic polynomials of degree 1..degree_max and height 1,
    odd degrees included."""
    for degree in range(1, degree_max + 1):
        for half in itertools.product((-1, 0, 1), repeat=degree // 2):
            mirror = half[::-1] if degree % 2 else half[-2::-1]
            yield IntPoly((1,) + half + mirror + (1,))


def _mignotte(d, a):
    """x^d - 2(ax - 1)^2"""
    return IntPoly([-2, 4 * a, -2 * a * a] + [0] * (d - 3) + [1])


class TestCertifyOutsideRoute:
    """certify(p) polishes only the outside roots; its certificate must equal
    the one built on every root's profile."""

    @staticmethod
    def assert_same_as_full_profile(p):
        cert = certify(p)
        full = certify(p, profile=refine_roots(p))
        assert cert.kind == full.kind
        assert cert.salem_value == full.salem_value
        assert (cert.profile.s, cert.profile.r, cert.profile.on_circle) == (
            full.profile.s, full.profile.r, full.profile.on_circle)
        assert cert.irreducibility.status == full.irreducibility.status
        assert all(z.location == OUTSIDE for z in cert.profile.roots)
        assert sum(z.multiplicity for z in cert.profile.roots) == cert.profile.s

    def test_palindromic_height_1(self):
        polys = list(_palindromic_height_1(8))
        assert len(polys) == 160
        for p in polys:
            self.assert_same_as_full_profile(p)

    def test_bundled_corpus(self, corpus):
        for entry in corpus:
            if entry.poly.is_monic:
                self.assert_same_as_full_profile(entry.poly)

    def test_seeded_dense(self):
        rng = random.Random(71)
        for _ in range(60):
            degree = rng.randint(8, 20)
            coeffs = [rng.randint(-3, 3) for _ in range(degree)]
            self.assert_same_as_full_profile(IntPoly(coeffs + [1]))

    @pytest.mark.parametrize("p", [
        SALEM_QUARTIC * SALEM_QUARTIC,
        IntPoly.of(0, 1) * LEHMER,
        _mignotte(8, 5),
        _mignotte(11, 13),
    ], ids=["square", "x_times_lehmer", "mignotte_8_5", "mignotte_11_13"])
    def test_hard_inputs(self, p):
        self.assert_same_as_full_profile(p)

    def test_polishes_outside_roots_only(self, count_calls):
        refined = count_calls("roots.refine_roots")
        classified = count_calls("roots._classify_squarefree")
        assert certify(LEHMER).kind == SALEM
        assert refined == [] and classified == []


class TestComplexSalemTransform:
    @pytest.mark.parametrize("p", [SALEM_QUARTIC, SALEM_SEXTIC, LEHMER])
    def test_produces_complex_salem_with_same_measure(self, p):
        q, cert = complex_salem_from_salem(p)
        assert q.degree == 2 * p.degree
        assert cert.kind == COMPLEX_SALEM
        base = certify(p)
        # the outside conjugate pair has modulus sqrt(alpha): the measure,
        # not the largest root, is preserved
        assert abs(cert.salem_value**2 - base.salem_value) < 1e-7
        assert abs(mahler_measure(q).value - mahler_measure(p).value) < 1e-8

    def test_non_salem_rejected(self):
        with pytest.raises(ValueError):
            complex_salem_from_salem(SMYTH)


class TestCanonicalForm:
    def test_reversal_invariance(self):
        p = IntPoly.of(-2, -1, 0, 1)
        rev = p.reciprocal()
        rev = -rev if rev.leading < 0 else rev
        assert canonical_form(p) == canonical_form(rev)

    def test_negation_invariance(self):
        p = SMYTH
        q = IntPoly.of(1, -1, 0, 1)  # -p(-x) = x^3 - x + 1, monic
        assert canonical_form(p) == canonical_form(q)

    def test_distinct_classes_differ(self):
        assert canonical_form(SMYTH) != canonical_form(IntPoly.of(-1, -1, 1))


class TestSearchBox:
    def test_small_box_minimum_is_golden(self):
        result = search_box(2, 1)
        assert result.complete
        poly, cert = result.minima[0]
        assert canonical_form(poly) == canonical_form(IntPoly.of(-1, -1, 1))
        assert abs(cert.value - 1.6180339887) < 1e-8

    def test_cubic_box_minimum_is_smyth(self):
        result = search_box(3, 1)
        poly, cert = result.minima[0]
        assert canonical_form(poly) == canonical_form(SMYTH)
        assert abs(cert.value - 1.3247179572) < 1e-8

    def test_palindromic_quartic_minimum(self):
        result = search_box(4, 1, palindromic_only=True)
        poly, cert = result.minima[0]
        assert canonical_form(poly) == canonical_form(SALEM_QUARTIC)
        assert abs(cert.value - 1.7220838) < 1e-6

    def test_filter_sr(self):
        from mahlerlat.roots import refine_roots

        result = search_box(4, 1, filter_sr=(1, 1), palindromic_only=True)
        assert result.minima
        for poly, _ in result.minima:
            profile = refine_roots(poly)
            assert (profile.s, profile.r) == (1, 1)

    def test_measure_one_excluded(self):
        result = search_box(2, 1)
        assert all(cert.value > 1 for _, cert in result.minima)

    def test_dedup(self):
        result = search_box(3, 1)
        keys = [canonical_form(p) for p, _ in result.minima]
        assert len(keys) == len(set(keys))

    def test_budget_marks_incomplete(self):
        result = search_box(8, 2, budget_seconds=-1.0)
        assert not result.complete

    def test_sorted_ascending(self):
        values = [c.value for _, c in search_box(4, 1).minima]
        assert values == sorted(values)

    @pytest.mark.parametrize("filter_sr, count, digest", [
        (None, 460, "e9c01425093faa7c3ffe19ecb5180c342d229998ebc86ad59f3daf493a2725af"),
        ((1, 1), 148, "6b6beb723437170c3a1a7be04906452e483601dbbb9ff7e6965e0877af039dee"),
    ])
    def test_degree_12_box_pinned(self, filter_sr, count, digest):
        # recorded while every root was polished by the mpmath kernel
        result = search_box(12, 1, filter_sr=filter_sr, palindromic_only=True)
        h = hashlib.sha256()
        for poly, cert in result.minima:
            h.update(repr((poly.coeffs, cert.value.hex(), cert.error_radius.hex())).encode())
            h.update(b"\n")
        assert result.complete
        assert (len(result.minima), h.hexdigest()) == (count, digest)

    def test_measure_one_read_off_counts(self, count_calls):
        # measure 1 is the exact count s = 0, so no Graeffe iteration runs
        calls = count_calls("intpoly.IntPoly.graeffe")
        search_box(8, 1)
        beta_n(8, 1)
        mahler_measure(LEHMER)
        assert calls == []

    def test_box_polishes_in_fixed_point_only(self, count_calls):
        classified = count_calls("roots._classify_squarefree")
        polished = count_calls("roots._polished_roots")
        search_box(12, 1, palindromic_only=True)
        beta_n(10, 1)
        assert classified == [] and polished == []


class TestBetaN:
    def test_beta_4(self):
        cert = beta_n(4, 1)
        assert canonical_form(cert.poly) == canonical_form(SALEM_QUARTIC)
        assert abs(cert.salem_value - 1.7220838) < 1e-6
        assert abs(cert.log_value - math.log(cert.salem_value)) < 1e-12

    def test_beta_10_height_1_is_lehmer(self):
        cert = beta_n(10, 1)
        assert cert.poly in (LEHMER, _negate_var(LEHMER))
        with mpmath.workdps(50):
            lehmer_number = max(abs(z) for z in mpmath.polyroots(LEHMER.coeffs[::-1]))
            assert abs(cert.salem_value - lehmer_number) < 1e-15
        assert abs(cert.log_value - math.log(1.17628082)) < 1e-7

    @pytest.mark.parametrize("n, height, coeffs, value", [
        (4, 1, (1, -1, -1, -1, 1), "1.7220838057390422"),
        (6, 1, (1, 0, -1, -1, -1, 0, 1), "1.401268367939855"),
        (8, 2, (1, 0, 0, -1, -1, -1, 0, 0, 1), "1.2806381562677576"),
        (10, 1, (1, -1, 0, 1, -1, 1, -1, 1, 0, -1, 1), "1.1762808182599176"),
        (12, 1, (1, -1, 0, 1, -1, 1, -1, 1, 0, -1, 1), "1.1762808182599176"),
    ])
    def test_recorded_minimum(self, n, height, coeffs, value):
        # recorded before candidates were deduplicated under x -> -x
        cert = beta_n(n, height)
        assert cert.poly == IntPoly(coeffs)
        assert repr(cert.salem_value) == value

    def test_one_count_per_class(self, count_calls):
        # root_counts decides measure 1 too, so every class is counted
        classes = {
            canonical_form(p)
            for degree in range(4, 11, 2)
            for p in _enumerate_palindromic(degree, 1)
        }
        calls = count_calls("roots.root_counts")
        beta_n(10, 1)
        keys = [canonical_form(p) for p in calls]
        assert len(keys) == len(set(keys))
        assert set(keys) == classes

    def test_monotone_in_n(self):
        assert beta_n(6, 1).log_value <= beta_n(4, 1).log_value

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            beta_n(3, 1)
        with pytest.raises(ValueError):
            beta_n(5, 1)

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError, match="search box sizes must be >= 0"):
            beta_n(4, -1)
