import math
import time

import numpy as np
import pytest

from adjoint_oracle import (
    adjoint_charpoly,
    adjoint_mahler,
    adjoint_matrix,
    rounded_global_product,
    sympy_global_poly,
)
from count_oracle import kronecker_test
from mahlerlat.adjoint import coefficient_bits_floor, global_integrality
from mahlerlat.fields import field_summary
from mahlerlat.intpoly import LEHMER, IntPoly
from mahlerlat.mahler import mahler_measure

COMPLEX_SALEM_OCTIC = IntPoly.of(1, 0, 1, 0, -1, 0, 1, 0, 1)
GOLDEN_SQUARE = IntPoly.of(1, -3, 1)
PHI3 = IntPoly.of(1, 1, 1)


class TestAdjointMatrix:
    def test_dimension(self):
        for n in (2, 3, 4):
            g = np.diag([2.0] + [1.0] * (n - 1))
            assert adjoint_matrix(g).shape == (n * n - 1, n * n - 1)

    def test_identity_gives_identity(self):
        adj = adjoint_matrix(np.eye(3))
        assert np.allclose(adj, np.eye(8))

    def test_diagonal_spectrum_is_ratios(self):
        lam = 1.75
        g = np.diag([lam, 1 / lam, 1.0])
        eigs = sorted(np.linalg.eigvals(adjoint_matrix(g)).real)
        expected = sorted(
            [
                lam**2,
                1 / lam**2,
                lam,
                1 / lam,
                lam,
                1 / lam,
                1.0,
                1.0,
            ]
        )
        assert np.allclose(eigs, expected, atol=1e-9)

    def test_conjugation_invariance(self):
        # Ad(g) spectrum is invariant under g -> h g h^-1
        rng = np.random.default_rng(7)
        g = np.diag([2.0, 0.5, 1.0])
        h = rng.standard_normal((3, 3))
        conj = h @ g @ np.linalg.inv(h)
        a = np.sort_complex(np.linalg.eigvals(adjoint_matrix(g)))
        b = np.sort_complex(np.linalg.eigvals(adjoint_matrix(conj)))
        assert np.allclose(a, b, atol=1e-7)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            adjoint_matrix(np.zeros((2, 2)))


class TestAdjointCharpoly:
    def test_monic_and_degree(self):
        coeffs = adjoint_charpoly(np.diag([3.0, 1 / 3.0]))
        assert len(coeffs) == 4  # degree n^2 - 1 = 3
        assert abs(coeffs[-1] - 1) < 1e-12

    def test_matches_ratio_roots(self):
        lam = 2.0
        coeffs = adjoint_charpoly(np.diag([lam, 1 / lam]))
        # roots should be lam^2, lam^-2, 1
        for root in (lam**2, lam**-2, 1.0):
            value = sum(c * root**k for k, c in enumerate(coeffs))
            assert abs(value) < 1e-9


def assert_matches_oracle(summary, report, n):
    oracle, err = rounded_global_product(summary, n)
    assert err < 1e-6
    assert report.global_poly == oracle


class TestGlobalIntegrality:
    def test_lehmer_n2(self):
        summary = field_summary(LEHMER)
        report = global_integrality(summary, 2)
        assert report.global_poly.degree == 15  # d * (n^2 - 1)
        assert_matches_oracle(summary, report, 2)
        assert report.s_global == 1
        assert report.s_bound == 3  # (n^2-1)(r + 2t) = 3 * 1
        assert report.s_bound_ok
        assert not report.torsion
        # f(gamma) at the split place is M(p)^2
        m = mahler_measure(LEHMER).value
        assert report.f_total == pytest.approx(m**2, rel=1e-9)

    def test_lehmer_n3(self):
        summary = field_summary(LEHMER)
        report = global_integrality(summary, 3)
        assert report.global_poly.degree == 40  # 5 * 8
        assert_matches_oracle(summary, report, 3)
        assert report.s_global == 3  # alpha^2, and alpha with multiplicity 2
        assert not report.torsion

    def test_complex_salem_n2(self):
        summary = field_summary(COMPLEX_SALEM_OCTIC)
        report = global_integrality(summary, 2)
        assert report.global_poly.degree == 12
        assert_matches_oracle(summary, report, 2)
        assert report.s_global == 2  # one outside eigenvalue per split place
        assert report.s_bound == 6  # 3 * (0 + 2)
        assert report.s_bound_ok
        assert not report.torsion

    def test_cyclotomic_is_torsion(self):
        report = global_integrality(field_summary(PHI3), 2)
        assert report.torsion
        assert report.s_global == 0

    def test_global_poly_constant_is_pm_one(self):
        # the adjoint of a determinant-1 diagonal block has reciprocal spectrum
        for p in (LEHMER, GOLDEN_SQUARE, COMPLEX_SALEM_OCTIC):
            report = global_integrality(field_summary(p), 2)
            g = report.global_poly
            assert g.coeffs[0] in (-1, 1)
            # spectrum closed under inversion: self-reciprocal up to sign
            assert g.coeffs in (tuple(reversed(g.coeffs)), tuple(-c for c in reversed(g.coeffs)))

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_size_below_two_rejected(self, n):
        with pytest.raises(ValueError):
            global_integrality(field_summary(LEHMER), n)

    def test_places_cover_all_embeddings(self):
        summary = field_summary(LEHMER)
        report = global_integrality(summary, 2)
        assert len(summary.embeddings) == summary.d
        assert len(report.f_values) == summary.s


class TestLargeN:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_matches_sympy_oracle(self, n):
        report = global_integrality(field_summary(LEHMER), n)
        assert report.global_poly.coeffs == sympy_global_poly(LEHMER.coeffs, n)

    def test_lehmer_n30(self):
        # (x - 1)^3925 from the binomial recurrence, not by repeated squaring
        summary = field_summary(LEHMER)
        start = time.perf_counter()
        g = global_integrality(summary, 30).global_poly
        assert time.perf_counter() - start < 10.0
        assert g.degree == 5 * (30 * 30 - 1)
        ones = 5 * (28 * 27 + 29)
        for x in (-2, 2, 3, 5):
            assert g(x) == LEHMER.graeffe()(x) * LEHMER(x) ** 56 * (x - 1) ** ones

    @pytest.mark.parametrize("p", [LEHMER, COMPLEX_SALEM_OCTIC, GOLDEN_SQUARE])
    def test_coefficient_bits_floor_is_a_lower_bound(self, p):
        summary = field_summary(p)
        assert coefficient_bits_floor(summary, 1) == 0
        for n in (2, 3, 6, 12):
            largest = max(abs(c) for c in global_integrality(summary, n).global_poly.coeffs)
            assert 2 ** coefficient_bits_floor(summary, n) <= largest
        assert coefficient_bits_floor(summary, 12) > 0


class TestTorsion:
    def test_cyclotomic_product(self):
        assert kronecker_test(IntPoly.of(1, 1, 1) * IntPoly.of(1, -1, 1))

    def test_salem_adjoint_not_torsion(self):
        report = global_integrality(field_summary(LEHMER), 2)
        assert not kronecker_test(report.global_poly)


class TestAdjointMahler:
    def test_matches_eigenvalue_product(self):
        lam = 1.9
        g = np.diag([lam, 1 / lam])
        assert adjoint_mahler(g) == pytest.approx(lam**2, rel=1e-9)

    def test_unitary_block_gives_one(self):
        theta = 0.7
        g = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
        assert adjoint_mahler(g) == pytest.approx(1.0, abs=1e-9)
