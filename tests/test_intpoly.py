import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mahlerlat
from mahlerlat.intpoly import (
    IRREDUCIBLE,
    LEHMER,
    REDUCIBLE,
    IntPoly,
    ZeroPolynomialError,
    _half_trace,
    cyclotomic_factor,
    exact_div,
    from_sympy,
    irreducibility_report,
    poly_gcd,
)
from mahlerlat.roots import root_counts
from mahlerlat.salem import _enumerate_palindromic

X_MINUS_1 = IntPoly.of(-1, 1)
X_PLUS_1 = IntPoly.of(1, 1)

small_polys = st.lists(st.integers(-3, 3), min_size=0, max_size=7).map(IntPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


@st.composite
def products(draw):
    """c x^k f1^m1 f2^m2 ...: content and sign, a factor of x^k, and
    repeated factors (which may share roots with each other)."""
    p = IntPoly.of(draw(st.sampled_from([1, -1, 2, -3, 6])))
    factors = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(IntPoly)
    for f, m in draw(st.lists(st.tuples(factors, st.integers(1, 3)), max_size=3)):
        p = p * f**m
    return p * IntPoly.x_power(draw(st.integers(0, 3)))


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

    @pytest.mark.parametrize("coeffs", [(2.9, 1), ("7", 1), (2.0, 1)], ids=str)
    def test_non_integral_coefficient_rejected(self, coeffs):
        with pytest.raises(TypeError):
            IntPoly(coeffs)

    def test_integer_like_coefficients_accepted(self):
        p = IntPoly((np.int64(-3), True, sympy.Integer(5), np.uint8(1)))
        assert p.coeffs == (-3, 1, 5, 1)
        assert all(type(c) is int for c in p.coeffs)


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

    @staticmethod
    def recurrence(coeffs) -> IntPoly:
        # reference: V_k built with IntPoly arithmetic, term by term
        d = (len(coeffs) - 1) // 2
        w = IntPoly.of(0, 1)
        v_prev, v = IntPoly.of(2), w
        q = IntPoly.of(coeffs[d])
        for k in range(1, d + 1):
            q = q + coeffs[d + k] * v
            v_prev, v = v, w * v - v_prev
        return q

    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=33))
    @example(half=[0] * 32 + [1])
    @settings(max_examples=300, deadline=None)
    def test_half_trace_matches_recurrence(self, half):
        # palindromic, degree <= 64, not necessarily monic
        coeffs = half[::-1] + half[1:]
        assert _half_trace(coeffs) == self.recurrence(coeffs)

    def test_half_trace_on_height_one_box(self):
        for degree in range(0, 19, 2):
            for p in _enumerate_palindromic(degree, 1):
                assert _half_trace(p.coeffs) == self.recurrence(p.coeffs), p

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


def report_of(p):
    return irreducibility_report(root_counts(p))


class TestIrreducibility:
    def test_quadratic_cyclotomic(self):
        assert report_of(IntPoly.of(1, 1, 1)).status == IRREDUCIBLE

    def test_product_of_cyclotomics(self):
        report = report_of(IntPoly.of(1, 0, 1, 0, 1))
        assert report.status == REDUCIBLE
        assert report.witness in (IntPoly.of(1, 1, 1), IntPoly.of(1, -1, 1))

    def test_lehmer_irreducible(self):
        assert report_of(LEHMER).status == IRREDUCIBLE

    def test_rational_root_witness(self):
        report = report_of(IntPoly.of(-2, 1, 1))  # (x-1)(x+2)
        assert report.status == REDUCIBLE
        assert report.witness.degree == 1

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            report_of(IntPoly.of(1, 2))


def sympy_gcd(p, q):
    """sympy's gcd over Z, made primitive with positive leading coefficient."""
    g = from_sympy(sympy.gcd(p.to_sympy(), q.to_sympy()))
    if g.is_zero:
        return g
    content = math.gcd(*g.coeffs) * (1 if g.leading > 0 else -1)
    return IntPoly(c // content for c in g.coeffs)


class TestExactArithmetic:
    @given(products(), products())
    @example(IntPoly(), IntPoly())
    @example(IntPoly.of(6, 4), IntPoly())
    @example(IntPoly(), IntPoly.of(-2, 0, -4))
    @example(IntPoly.of(-3), IntPoly.of(1, 2, 1))
    @settings(max_examples=200, deadline=None)
    def test_gcd_matches_sympy(self, p, q):
        g = poly_gcd(p, q)
        assert g == sympy_gcd(p, q)
        assert g == poly_gcd(q, p)

    @given(nonzero_polys, small_polys, small_polys, st.sampled_from([1, -1, 2, -3]))
    @example(IntPoly.of(-2), IntPoly(), IntPoly.of(3), 2)  # constants, zero dividend
    @example(IntPoly.of(1, 1), IntPoly.of(1, 1), IntPoly.of(0, 0, 1), 2)  # both errors
    @settings(max_examples=200, deadline=None)
    def test_exact_div_matches_sympy(self, b, r, s, k):
        for a, q in ((b * r, b), (b * r, k * b), (b * r + s, b)):
            quo, rem = sympy.div(a.to_sympy(), q.to_sympy(), domain="QQ")
            coeffs = sympy.Poly(quo, sympy.Symbol("x")).all_coeffs()
            if not rem.is_zero:
                with pytest.raises(ValueError, match="does not divide"):
                    exact_div(a, q)
            elif any(c.q != 1 for c in coeffs):
                with pytest.raises(ValueError, match="not integral"):
                    exact_div(a, q)
            else:
                assert exact_div(a, q) == IntPoly(int(c) for c in reversed(coeffs))

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            exact_div(IntPoly.of(1, 1), IntPoly())

    @given(products())
    @example(IntPoly())
    @example(IntPoly.of(-5))
    @example(IntPoly.of(0, 0, 0, -2))
    @example(-2 * IntPoly.x_power(2) * LEHMER**3 * X_MINUS_1)
    @settings(max_examples=300, deadline=None)
    def test_squarefree_matches_sympy(self, p):
        _, factors = p.to_sympy().sqf_list()
        expected = [(from_sympy(f), int(m)) for f, m in factors]
        assert p.squarefree_decomposition() == expected


def sympy_cyclotomic(k):
    return from_sympy(sympy.cyclotomic_poly(k, sympy.Symbol("x")))


@st.composite
def cyclotomic_products(draw):
    """A small nonzero factor times up to three cyclotomic polynomials."""
    p = draw(nonzero_polys.filter(lambda f: f.degree <= 4))
    for k in draw(st.lists(st.integers(1, 30), max_size=3)):
        p = p * sympy_cyclotomic(k)
    return p


def least_cyclotomic_divisor(p):
    """sympy's answer: None when no irreducible factor of p is cyclotomic,
    else Phi_k for the least k with gcd(p, x^k - 1) != 1 (a Phi_d with
    d | k divides p, and d = k by the minimality of k)."""
    _, factors = p.to_sympy().factor_list()
    if not any(f.is_cyclotomic for f, _ in factors):
        return None
    x = sympy.Symbol("x")
    k = 1
    while sympy.gcd(p.to_sympy(), sympy.Poly(x**k - 1, x)).degree() == 0:
        k += 1
    return sympy_cyclotomic(k)


class TestCyclotomicFactor:
    @given(st.one_of(products(), cyclotomic_products()))
    @example(IntPoly.of(-5))
    @example(IntPoly.of(0, 1))
    @example(LEHMER)
    @example(LEHMER * sympy_cyclotomic(30) * sympy_cyclotomic(7))
    @example(IntPoly([-1] + [0] * 59 + [1]))  # x^60 - 1
    @settings(max_examples=200, deadline=None)
    def test_least_order_matches_sympy(self, p):
        if p.is_zero:
            return
        assert cyclotomic_factor(p) == least_cyclotomic_divisor(p)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            cyclotomic_factor(IntPoly())


class TestLargeConstantTerm:
    # The rational-root scan would trial-divide up to 10^12 here; the
    # factorization decides instead.
    def timed_report(self, p):
        counts = root_counts(p)
        start = time.perf_counter()
        report = irreducibility_report(counts)
        assert time.perf_counter() - start < 1.0
        return report

    def test_reducible_cubic(self):
        p = IntPoly.of(10**24, 0, 0, 1)  # (x + 10^8)(x^2 - 10^8 x + 10^16)
        report = self.timed_report(p)
        assert report.status == REDUCIBLE
        assert 0 < report.witness.degree < p.degree
        assert report.witness * exact_div(p, report.witness) == p

    def test_irreducible_cubic(self):
        assert self.timed_report(IntPoly.of(2 * 10**24, 0, 0, 1)).status == IRREDUCIBLE


def fresh_interpreter(script):
    """The stderr of a fresh interpreter that imports mahlerlat from `src`
    and runs `script`, which must succeed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


LOADED = ("sys.stderr.write(repr(sorted({m if m.startswith('mahlerlat') else m.split('.')[0] "
          "for m in sys.modules} & %r)))\n")


def loaded_after(commands, modules):
    """The members of `modules` that a fresh interpreter has imported after
    running each CLI argv in `commands`, each of which must exit 0.  A
    module of mahlerlat is named in full, any other by its top-level
    package."""
    return fresh_interpreter("import sys\nfrom mahlerlat.cli import main\n" + "".join(
        f"assert main({argv!r}) == 0\n" for argv in commands) + LOADED % set(modules))


LEHMER_COMMANDS = [
    ["mahler", str(LEHMER)],
    ["trace-poly", str(LEHMER)],
    ["classify", str(LEHMER)],
    ["construct", str(LEHMER), "--m", "3"],
    ["adjoint", str(LEHMER)],
]


def test_cli_leaves_sympy_unloaded():
    """`mahler` and a palindromic `search` never decide irreducibility, and
    the other commands below decide it for a Salem member by the cyclotomic
    test, so sympy stays unimported."""
    searches = [["search", "--deg", "8", "--height", "1", "--palindromic"],
                ["beta-n", "--n", "10", "--height", "1"]]
    assert loaded_after(LEHMER_COMMANDS + searches, ["sympy"]) == "[]"


def test_cli_leaves_numeric_modules_unloaded():
    """Lehmer's polynomial has a totally real trace polynomial, so its roots
    are certified in integers, and `bounds` reads Smyth's threshold off its
    closed form: these commands load none of numpy, mpmath or sympy."""
    commands = LEHMER_COMMANDS + [["bounds", str(LEHMER)]]
    assert loaded_after(commands, ["numpy", "mpmath", "sympy"]) == "[]"


LIBRARY = ["mahlerlat"] + [f"mahlerlat.{m}" for m in (
    "adjoint", "cli", "fields", "intpoly", "lattice", "mahler", "roots", "salem")]


def test_commands_load_only_their_modules():
    """Each command imports the library modules it runs and no others."""
    mahler = ["mahlerlat", "mahlerlat.cli", "mahlerlat.intpoly", "mahlerlat.mahler",
              "mahlerlat.roots"]
    assert loaded_after([["mahler", str(LEHMER)]], LIBRARY + ["fractions"]) == repr(mahler)
    searches = [["search", "--deg", "8", "--height", "1", "--palindromic"],
                ["beta-n", "--n", "10", "--height", "1"]]
    unused = ["mahlerlat.adjoint", "mahlerlat.fields", "mahlerlat.lattice"]
    assert loaded_after(searches, unused) == "[]"


def test_bare_import_loads_no_submodule():
    assert fresh_interpreter("import sys, mahlerlat\n" + LOADED % set(LIBRARY)) == "['mahlerlat']"


class TestPackageExports:
    def test_each_name_is_its_modules_object(self):
        assert len(mahlerlat.__all__) == len(set(mahlerlat.__all__)) == 33
        for name in mahlerlat.__all__:
            obj = getattr(mahlerlat, name)
            assert vars(sys.modules[obj.__module__])[name] is obj

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from mahlerlat import *", namespace)
        assert all(namespace[name] is getattr(mahlerlat, name) for name in mahlerlat.__all__)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            mahlerlat.no_such_name
