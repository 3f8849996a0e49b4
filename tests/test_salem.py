import hashlib
import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from mahlerlat.fields import classify_Psr, field_summary
from mahlerlat.intpoly import (
    DEGREE_CAP,
    IRREDUCIBLE,
    LEHMER,
    REDUCIBLE,
    SMYTH,
    UNKNOWN,
    IntPoly,
    IrreducibilityReport,
    cyclotomic_factor,
    exact_div,
    irreducibility_report,
)
from mahlerlat.mahler import MahlerCertificate, mahler_measure
from mahlerlat.roots import OUTSIDE, CertificationError, refine_roots, root_counts
from mahlerlat.salem import (
    COMPLEX_SALEM,
    NEITHER,
    SALEM,
    SalemCertificate,
    _candidates,
    _enumerate_monic,
    _enumerate_palindromic,
    _negate_var,
    _salem_kind,
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


PHI3 = IntPoly.of(1, 1, 1)
PHI6 = IntPoly.of(1, -1, 1)


def kronecker_route(p):
    """Whether irreducibility_report decides p by its cyclotomic factors."""
    counts = root_counts(p)
    return counts.s <= 1 or (counts.s, counts.r) == (2, 0)


class TestSalemSign:
    """The Salem kind asks for the outside root alpha > 1, read off p(1) < 0."""

    def test_lehmer_negated_is_neither(self):
        counts = root_counts(_negate_var(LEHMER))
        assert (counts.s, counts.r, counts.irreducibility.status) == (1, 1, IRREDUCIBLE)
        assert counts.outside_roots[0].approx.real < -1
        assert _salem_kind(counts) == NEITHER
        cert = certify(_negate_var(LEHMER))
        assert (cert.kind, cert.salem_value) == (NEITHER, None)

    @pytest.mark.parametrize("degree_max, height", [(12, 1), (8, 2)])
    def test_prefilter_keeps_every_salem_class(self, degree_max, height):
        # the filter analyses a class iff p(1) < 0 or p(-1) < 0; the sign of
        # the outside root is read off its certified disk, not off p(1)
        salem_classes = 0
        for p in _candidates(degree_max, height, palindromic_only=True):
            if p.degree < 4 or canonical_form(p) != p.coeffs:
                continue
            salem = []
            for member in (p, _negate_var(p)):
                counts = root_counts(member)
                if (counts.s, counts.r) != (1, 1) or counts.on_circle == 0:
                    continue
                if not counts.irreducibility.is_irreducible:
                    continue
                (alpha,) = counts.outside_roots
                assert (member(1) < 0) == (alpha.approx.real > 1), member
                assert (SalemCertificate.of(counts).kind == SALEM) == (alpha.approx.real > 1)
                if alpha.approx.real > 1:
                    salem.append(member)
            assert len(salem) <= 1
            if salem:
                salem_classes += 1
                assert min(p(1), p(-1)) < 0
        assert salem_classes > 0

    @pytest.mark.parametrize("n, height", [(4, 1), (6, 1), (8, 1), (10, 1), (12, 1),
                                           (4, 2), (6, 2), (8, 2)])
    def test_beta_n_matches_unfiltered_minimum(self, n, height):
        best = min(
            (cert.salem_value, p.coeffs)
            for degree in range(4, n + 1, 2)
            for p in _enumerate_palindromic(degree, height)
            if (cert := certify(p)).kind == SALEM
        )
        cert = beta_n(n, height)
        assert cert.salem_value == best[0]
        assert cert.poly(1) < 0
        assert certify(cert.poly).kind == SALEM


class TestKroneckerRoute:
    """irreducibility_report decides every monic p with s <= 1 or
    (s, r) = (2, 0), and p(0) != 0, by its cyclotomic factors, at any
    degree; certify, beta_n, classify_Psr and bounds all call it."""

    def test_zero_constant_term_is_factored(self):
        # x times the complex-Salem octic: no cyclotomic factor, yet reducible
        p = IntPoly.of(0, 1) * IntPoly.of(1, 0, 1, 0, -1, 0, 1, 0, 1)
        assert _salem_kind(root_counts(p)) == COMPLEX_SALEM
        assert cyclotomic_factor(p) is None
        cert = certify(p)
        assert cert.kind == NEITHER
        assert cert.irreducibility == IrreducibilityReport(REDUCIBLE, IntPoly.of(0, 1))

    def test_cyclotomic_cofactor_is_witness(self):
        cert = certify(LEHMER * PHI3)
        assert cert.kind == NEITHER
        assert cert.irreducibility == IrreducibilityReport(REDUCIBLE, PHI3)

    def test_degree_above_cap_is_decided(self):
        # (x^57 - 1)/(x - 1) = Phi_3 Phi_19 Phi_57
        p = LEHMER * IntPoly([1] * 57)
        assert p.degree == 66 > DEGREE_CAP
        expected = IrreducibilityReport(REDUCIBLE, PHI3)
        assert irreducibility_report(root_counts(p)) == expected
        cert = certify(p)
        assert cert.kind == NEITHER
        assert cert.irreducibility == expected
        cls = classify_Psr(p)
        assert (cls.member, cls.reason, cls.irreducibility) == (False, "reducible", expected)

    def test_degree_above_cap_outside_route_is_unknown(self):
        # two real roots outside the disk (s = r = 2): the cap still applies
        p = IntPoly.of(1, -3, 1) * IntPoly.of(1, -5, 1) * IntPoly([1] * 67)
        assert p.degree == 70 > DEGREE_CAP and not kronecker_route(p)
        assert irreducibility_report(root_counts(p)).status == UNKNOWN
        assert certify(p).irreducibility_unknown

    def test_repeated_factor_above_cap_is_reducible(self):
        # (x^33 + 3)^2 and (x^34 + 3x^17 + 1)^2 have s = 66 and s = 34, off
        # the Kronecker route; each record holds its square
        f = IntPoly([3] + [0] * 32 + [1])
        assert (f * f).degree > DEGREE_CAP and not kronecker_route(f * f)
        assert root_counts(f * f).irreducibility == IrreducibilityReport(REDUCIBLE, f)
        g = IntPoly([1] + [0] * 16 + [3] + [0] * 16 + [1])
        cls = classify_Psr(g * g)
        assert (cls.member, cls.reason) == (False, "reducible")
        assert cls.irreducibility == IrreducibilityReport(REDUCIBLE, g)

    @pytest.mark.parametrize("p, witness", [
        (PHI3 * PHI6, PHI3),  # s = 0
        (IntPoly.of(1, 0, -1, 0, 1), None),  # Phi_12, s = 0
        (IntPoly.of(-1, 0, 0, -1, 1), None),  # x^4 - x^3 - 1, s = 1, no circle root
        (IntPoly.of(-1, 0, 0, 0, -1, 1), PHI6),  # x^5 - x^4 - 1 = Phi_6 (x^3 - x - 1)
        (IntPoly.of(-2, 1) * IntPoly([1] * 5), IntPoly.of(-2, 1)),  # rational root first
    ], ids=["phi3_phi6", "phi12", "s1_no_circle", "phi6_cubic", "x_minus_2_phi5"])
    def test_cases(self, p, witness):
        assert p.degree >= 4
        report = irreducibility_report(root_counts(p))
        if witness is None:
            assert report == IrreducibilityReport(IRREDUCIBLE)
        else:
            assert report == IrreducibilityReport(REDUCIBLE, witness)
        assert report.is_irreducible == p.to_sympy().is_irreducible

    @pytest.mark.parametrize("candidates", [
        lambda: _palindromic_height_1(12),
        lambda: (p for d in range(1, 7) for p in _enumerate_monic(d, 1)),
    ], ids=["palindromic_deg12_h1", "monic_deg6_h1"])
    def test_agrees_with_factorisation(self, candidates):
        checked = 0
        for p in candidates():
            if not kronecker_route(p):
                continue
            checked += 1
            report = irreducibility_report(root_counts(p))
            assert report.is_irreducible == p.to_sympy().is_irreducible, p
            if not report.is_irreducible:
                witness = report.witness
                assert 0 < witness.degree < p.degree, p
                assert witness * exact_div(p, witness) == p
        assert checked > 0

    def test_beta_n_and_certify_never_factor(self, count_calls):
        # nor do classify_Psr and field_summary on a Salem member
        factored = count_calls("intpoly.IntPoly.to_sympy")
        beta_n(10, 1)
        assert certify(LEHMER).kind == SALEM
        assert classify_Psr(LEHMER).member
        field_summary(LEHMER)
        assert factored == []

    def test_agrees_with_classify_on_corpus(self, corpus):
        # classify reports certify's status beside classify_Psr's membership
        for entry in corpus:
            p = entry.poly
            if not p.is_monic:
                continue
            cls = classify_Psr(p)
            expected = cls.irreducibility or irreducibility_report(root_counts(p))
            assert certify(p).irreducibility == expected, entry


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
    the one built on a record with every root certified."""

    @staticmethod
    def assert_same_as_full_profile(p):
        cert = certify(p)
        full = SalemCertificate.of(refine_roots(p))
        assert cert.kind == full.kind
        assert cert.salem_value == full.salem_value
        assert (cert.profile.s, cert.profile.r, cert.profile.on_circle) == (
            full.profile.s, full.profile.r, full.profile.on_circle)
        assert cert.irreducibility.status == full.irreducibility.status
        assert all(z.location == OUTSIDE for z in cert.profile.outside_roots)
        assert sum(z.multiplicity for z in cert.profile.outside_roots) == cert.profile.s

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

    def test_seed_beyond_fixed_point_range(self):
        # the seed near 1e300 enters the fixed-point kernel as its dyadic
        # value; the full profile takes the exact route, since the trace
        # polynomial w^2 - 10^300 w + 1 is totally real
        cert = certify(IntPoly((1, -10**300, 3, -10**300, 1)))
        assert (cert.kind, cert.salem_value) == (SALEM, 1e300)
        assert cert.irreducibility.status == "irreducible"
        self.assert_same_as_full_profile(cert.poly)

    def test_collapsed_seeds_outside_roots_certify(self, count_calls):
        # (x^2 + 1)(x^2 - 10^300 x + 2): numpy seeds three roots at 0, which
        # all polish to the root near 2e-300, so the full classification
        # fails; the one outside root polishes from the seed 1e300
        p = IntPoly((2, -10**300, 3, -10**300, 1))
        classified = count_calls("roots._classify_squarefree")
        cert = MahlerCertificate.of(root_counts(p))
        assert classified == []
        assert cert.value == 1e300
        # p changes sign on [lower, upper], checked exactly
        lo, hi = Fraction(cert.lower), Fraction(cert.upper)
        assert 1 < lo <= hi and p(lo) * p(hi) <= 0
        with pytest.raises(CertificationError):
            refine_roots(p)

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

    def test_lehmer_negated_rejected(self):
        # L(-x) has outside root -1.176...: its x -> -x image L is the Salem one
        with pytest.raises(ValueError):
            complex_salem_from_salem(_negate_var(LEHMER))


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

    @pytest.mark.parametrize("degree_max, height, palindromic", [
        (6, 1, False), (4, 2, False), (3, 3, False), (12, 1, True), (8, 2, True),
    ])
    def test_first_enumerated_member_is_canonical(self, degree_max, height, palindromic):
        # search_box and beta_n analyse p iff canonical_form(p) == p.coeffs:
        # exactly the first member of each class that the box enumerates
        first = {}
        for p in _candidates(degree_max, height, palindromic):
            first.setdefault(canonical_form(p), p.coeffs)
        kept = [p.coeffs for p in _candidates(degree_max, height, palindromic)
                if canonical_form(p) == p.coeffs]
        assert kept == list(first.values())


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

    @pytest.mark.parametrize("filter_sr, count, values, radii", [
        (None, 460, "8f8bd166dfbb412092581d67d21ea403b23c0326e10c45118b977c55c825c626",
         "40287486ee26735146118170b8800ae09e3da6e6eb0395c1edd3bd6dde63b28e"),
        ((1, 1), 148, "88b11308bed1b176339b0ac1ff45fa95b5bacd60d8b5f5faae2a65e608c1a639",
         "06094b219b5572ab194648788289861309e5ff2dccaf20cea18fe1ed004e37dc"),
    ], ids=["all", "s1_r1"])
    def test_degree_12_box_pinned(self, filter_sr, count, values, radii):
        # `values` digests (coeffs, value) and `radii` (coeffs, error_radius),
        # so a change that moves only the certified radii re-pins `radii` alone
        result = search_box(12, 1, filter_sr=filter_sr, palindromic_only=True)
        digests = [hashlib.sha256(), hashlib.sha256()]
        for poly, cert in result.minima:
            for h, t in zip(digests, (cert.value, cert.error_radius)):
                h.update(repr((poly.coeffs, t.hex())).encode())
                h.update(b"\n")
        assert result.complete
        assert (len(result.minima), *(h.hexdigest() for h in digests)) == (count, values, radii)

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
        (10, 1, LEHMER.coeffs, "1.1762808182599176"),
        (12, 1, LEHMER.coeffs, "1.1762808182599176"),
        (14, 1, LEHMER.coeffs, "1.1762808182599176"),
        (16, 1, LEHMER.coeffs, "1.1762808182599176"),
    ])
    def test_recorded_minimum(self, n, height, coeffs, value):
        # values recorded before candidates were deduplicated under x -> -x;
        # the polynomial is the member of its class with p(1) < 0
        cert = beta_n(n, height)
        assert cert.poly == IntPoly(coeffs)
        assert repr(cert.salem_value) == value

    def test_one_count_per_class(self, count_calls):
        # a class is counted iff p(1) < 0 or p(-1) < 0, once, on the member
        # with p(1) < 0
        classes = {
            canonical_form(p)
            for degree in range(4, 11, 2)
            for p in _enumerate_palindromic(degree, 1)
            if p(1) < 0
        }
        calls = count_calls("roots.root_counts")
        beta_n(10, 1)
        keys = [canonical_form(p) for p in calls]
        assert len(keys) == len(set(keys))
        assert set(keys) == classes
        assert all(p(1) < 0 for p in calls)

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
