import numpy as np
import pytest

from mahlerlat.fields import (
    CIRCLE_COMPACT,
    COMPLEX_SPLIT,
    REAL_SPLIT,
    classify_Psr,
    field_summary,
    multiplication_matrix,
)
from mahlerlat.intpoly import LEHMER, SMYTH, IntPoly
from mahlerlat.roots import refine_roots, root_counts

COMPLEX_SALEM_OCTIC = IntPoly.of(1, 0, 1, 0, -1, 0, 1, 0, 1)
GOLDEN_SQUARE = IntPoly.of(1, -3, 1)
# -(x^12 - (30x - 1)^2) times its reciprocal: monic, palindromic, reducible,
# with clustered roots that polishing cannot certify
MIGNOTTE_12_30 = IntPoly.x_power(12) - IntPoly.of(-1, 30) ** 2
CLUSTERED = -(MIGNOTTE_12_30 * MIGNOTTE_12_30.reciprocal())


class TestClassifyPsr:
    def test_lehmer_member(self):
        cls = classify_Psr(LEHMER)
        assert cls.member
        assert (cls.s, cls.r) == (1, 1)
        assert cls.satisfies_L is True

    def test_golden_square_member_without_L(self):
        cls = classify_Psr(GOLDEN_SQUARE)
        assert cls.member
        assert (cls.s, cls.r) == (1, 1)
        assert cls.satisfies_L is False

    def test_complex_salem_member(self):
        cls = classify_Psr(COMPLEX_SALEM_OCTIC)
        assert cls.member
        assert (cls.s, cls.r) == (2, 0)
        assert cls.satisfies_L is True

    def test_satisfies_L_iff_degree_exceeds_2s(self):
        for p in (LEHMER, GOLDEN_SQUARE, COMPLEX_SALEM_OCTIC):
            cls = classify_Psr(p)
            assert cls.satisfies_L == (p.degree > 2 * cls.s)

    def test_member_carries_its_profile(self):
        cls = classify_Psr(LEHMER)
        assert cls.profile == refine_roots(LEHMER)

    def test_member_polishes_nothing(self, count_calls):
        classified = count_calls("roots._classify_squarefree")
        assert classify_Psr(LEHMER).member
        assert classified == []

    def test_reducible_decided_before_polishing(self, count_calls):
        classified = count_calls("roots._classify_squarefree")
        assert (CLUSTERED.is_monic, CLUSTERED.is_palindromic()) == (True, True)
        cls = classify_Psr(CLUSTERED)
        assert cls.reason == "reducible"
        assert classified == []

    def test_reducible_carries_its_record(self):
        p = IntPoly.of(1, 0, 1, 0, 1)
        cls = classify_Psr(p)
        assert cls.profile == root_counts(p)
        assert cls.profile.irreducibility is cls.irreducibility

    def test_non_palindromic_rejected(self):
        cls = classify_Psr(SMYTH)
        assert not cls.member
        assert cls.reason == "not palindromic"

    def test_reducible_rejected(self):
        cls = classify_Psr(IntPoly.of(1, 0, 1, 0, 1))
        assert not cls.member
        assert cls.reason == "reducible"

    def test_non_monic_rejected(self):
        assert classify_Psr(IntPoly.of(2, 3, 2)).reason == "not monic"

    def test_zero_rejected(self):
        assert not classify_Psr(IntPoly()).member


class TestFieldSummary:
    def test_one_root_refinement(self, count_calls):
        classified = count_calls("roots._classify_squarefree")
        outside = count_calls("roots._outside_squarefree")
        field_summary(LEHMER)
        assert classified == [LEHMER]
        assert outside == []

    def test_one_record(self, count_calls):
        counted = count_calls("roots.root_counts")
        field_summary(LEHMER)
        assert counted == [LEHMER]

    def test_lehmer_signature(self):
        summary = field_summary(LEHMER)
        assert summary.d == 5
        assert (summary.s, summary.r) == (1, 1)
        assert summary.signature_K == (5, 0)
        assert summary.t == 0

    def test_complex_salem_signature(self):
        summary = field_summary(COMPLEX_SALEM_OCTIC)
        assert summary.d == 4
        assert (summary.s, summary.r) == (2, 0)
        assert summary.signature_K == (2, 1)
        assert summary.t == 1

    def test_quadratic_member(self):
        summary = field_summary(GOLDEN_SQUARE)
        assert summary.d == 1
        assert summary.signature_K == (1, 0)
        assert summary.trace_poly == IntPoly.of(-3, 1)

    def test_embedding_class_counts(self):
        for p in (LEHMER, COMPLEX_SALEM_OCTIC, GOLDEN_SQUARE):
            summary = field_summary(p)
            classes = [e.klass for e in summary.embeddings]
            assert len(classes) == summary.d
            assert classes.count(REAL_SPLIT) == summary.r
            assert classes.count(COMPLEX_SPLIT) == summary.s - summary.r
            assert classes.count(CIRCLE_COMPACT) == summary.d - summary.s

    def test_embedding_ordering(self):
        summary = field_summary(LEHMER)
        assert summary.embeddings[0].klass == REAL_SPLIT
        assert all(e.klass == CIRCLE_COMPACT for e in summary.embeddings[1:])
        assert [e.index for e in summary.embeddings] == list(range(1, 6))

    def test_compact_trace_values_are_real(self):
        summary = field_summary(LEHMER)
        for e in summary.embeddings:
            if e.klass == CIRCLE_COMPACT:
                w = e.alpha_value + 1 / e.alpha_value
                assert abs(w.imag) < 1e-9
                assert abs(w.real) < 2 + 1e-9

    def test_trace_values_are_trace_poly_roots(self):
        summary = field_summary(LEHMER)
        q = summary.trace_poly
        for e in summary.embeddings:
            w = e.alpha_value + 1 / e.alpha_value
            value = sum(c * w**k for k, c in enumerate(q.coeffs))
            assert abs(value) < 1e-7

    def test_split_place_has_alpha_off_circle(self):
        summary = field_summary(COMPLEX_SALEM_OCTIC)
        for e in summary.embeddings:
            if e.klass == CIRCLE_COMPACT:
                assert abs(abs(e.alpha_value) - 1) < 1e-9
            else:
                assert abs(e.alpha_value) > 1 + 1e-9

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            field_summary(SMYTH)


class TestMultiplicationMatrix:
    @pytest.mark.parametrize("p", [LEHMER, GOLDEN_SQUARE, COMPLEX_SALEM_OCTIC])
    def test_charpoly_is_p(self, p):
        mat = np.array(multiplication_matrix(p), dtype=float)
        coeffs = np.poly(mat)[::-1]  # constant first
        assert np.allclose(coeffs, p.coeffs, atol=1e-6)

    @pytest.mark.parametrize("p", [LEHMER, GOLDEN_SQUARE, COMPLEX_SALEM_OCTIC])
    def test_determinant_is_one(self, p):
        mat = np.array(multiplication_matrix(p), dtype=float)
        assert abs(np.linalg.det(mat) - 1.0) < 1e-8

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            multiplication_matrix(IntPoly.of(1, 2))
