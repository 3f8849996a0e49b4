import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mahlerlat.intpoly import (
    IRREDUCIBLE,
    LEHMER,
    REDUCIBLE,
    IntPoly,
    irreducibility_report,
)

X_MINUS_1 = IntPoly.of(-1, 1)
X_PLUS_1 = IntPoly.of(1, 1)

small_polys = st.lists(st.integers(-3, 3), min_size=0, max_size=7).map(IntPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert X_MINUS_1 * X_PLUS_1 == IntPoly.of(-1, 0, 1)

    def test_pow_zero_is_one(self):
        assert X_PLUS_1**0 == IntPoly.of(1)

    def test_schoolbook_product(self):
        # (x^2+x+1)(x^2-x+1) expanded by hand
        assert IntPoly.of(1, 1, 1) * IntPoly.of(1, -1, 1) == IntPoly.of(1, 0, 1, 0, 1)

    @given(small_polys, small_polys)
    def test_mul_commutative(self, p, q):
        assert p * q == q * p

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=50)
    def test_mul_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(nonzero_polys, nonzero_polys)
    def test_degree_additive(self, p, q):
        assert (p * q).degree == p.degree + q.degree

    def test_normalization_drops_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).is_zero


class TestPalindromy:
    def test_lehmer_is_palindromic(self):
        assert LEHMER.is_palindromic()

    def test_smyth_is_not(self):
        assert not IntPoly.of(-1, -1, 0, 1).is_palindromic()

    def test_constant_is_palindromic(self):
        assert IntPoly.of(1).is_palindromic()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            IntPoly().is_palindromic()


class TestTracePolynomial:
    def test_quadratic(self):
        assert IntPoly.of(1, -3, 1).trace_polynomial() == IntPoly.of(-3, 1)

    def test_quartic(self):
        # y^2 ((y+1/y)^2 - (y+1/y) - 3) expands back to the input
        assert IntPoly.of(1, -1, -1, -1, 1).trace_polynomial() == IntPoly.of(-3, -1, 1)

    @staticmethod
    def reexpand(q: IntPoly, d: int) -> IntPoly:
        # independent oracle: y^d Q(y + 1/y) = sum q_k (y^2+1)^k y^(d-k)
        acc = IntPoly()
        for k, qk in enumerate(q.coeffs):
            acc = acc + qk * (IntPoly.of(1, 0, 1) ** k * IntPoly.x_power(d - k))
        return acc

    def test_lehmer_reexpansion(self):
        q = LEHMER.trace_polynomial()
        assert q.degree == 5
        assert self.reexpand(q, 5) == LEHMER

    @given(st.lists(st.integers(-2, 2), min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_reexpansion_roundtrip(self, interior):
        p = IntPoly((1,) + tuple(interior) + tuple(reversed(interior[:-1])) + (1,))
        q = p.trace_polynomial()
        assert self.reexpand(q, p.degree // 2) == p

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            IntPoly.of(1, 1).trace_polynomial()

    def test_non_palindromic_rejected(self):
        with pytest.raises(ValueError):
            IntPoly.of(-1, 0, 1).trace_polynomial()


class TestGraeffe:
    def test_fixed_point(self):
        assert X_MINUS_1.graeffe() == X_MINUS_1

    def test_golden(self):
        assert IntPoly.of(-1, -1, 1).graeffe() == IntPoly.of(1, -3, 1)

    def test_x2_plus_1(self):
        assert IntPoly.of(1, 0, 1).graeffe() == IntPoly.of(1, 2, 1)

    @given(st.lists(st.integers(-2, 2), min_size=1, max_size=8))
    @example(lower=[1, 0, 2, 0])  # (x^2 + 1)^2: a quadruple root after squaring
    @settings(max_examples=100)
    def test_roots_are_squared(self, lower):
        # q(x^2) = +/- p(x) p(-x) exactly, so q's roots are the squares of
        # p's, with multiplicity
        p = IntPoly(tuple(lower) + (1,))
        q = p.graeffe()
        x = sympy.Symbol("x")
        p_x = sum(c * x**k for k, c in enumerate(p.coeffs))
        q_x2 = sum(c * x ** (2 * k) for k, c in enumerate(q.coeffs))
        product = sympy.expand(p_x * p_x.subs(x, -x))
        assert sympy.expand(q_x2 - product) == 0 or sympy.expand(q_x2 + product) == 0
        assert q.is_monic and q.degree == p.degree


class TestComposeNegXSquared:
    def test_linear(self):
        assert IntPoly.of(-1, 1).compose_neg_x_squared() == IntPoly.of(-1, 0, -1)

    def test_quadratic(self):
        assert IntPoly.of(1, -3, 1).compose_neg_x_squared() == IntPoly.of(1, 0, 3, 0, 1)

    def test_palindromy_preserved_on_lehmer(self):
        q = LEHMER.compose_neg_x_squared()
        assert q.degree == 20
        assert q.is_palindromic()


class TestIrreducibility:
    def test_quadratic_cyclotomic(self):
        assert irreducibility_report(IntPoly.of(1, 1, 1)).status == IRREDUCIBLE

    def test_product_of_cyclotomics(self):
        report = irreducibility_report(IntPoly.of(1, 0, 1, 0, 1))
        assert report.status == REDUCIBLE
        assert report.witness in (IntPoly.of(1, 1, 1), IntPoly.of(1, -1, 1))

    def test_lehmer_irreducible(self):
        assert irreducibility_report(LEHMER).status == IRREDUCIBLE

    def test_rational_root_witness(self):
        report = irreducibility_report(IntPoly.of(-2, 1, 1))  # (x-1)(x+2)
        assert report.status == REDUCIBLE
        assert report.witness.degree == 1

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            irreducibility_report(IntPoly.of(1, 2))
