import itertools
import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from count_oracle import reference_inside
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerlat import roots
from mahlerlat.intpoly import LEHMER, SMYTH, IntPoly, _half_trace, from_sympy
from mahlerlat.mahler import MahlerCertificate
from mahlerlat.roots import (
    ON_CIRCLE,
    OUTSIDE,
    REAL,
    refine_roots,
    root_counts,
)


def bisect_root(p, lo, hi, iters=100):
    """Independent oracle: plain bisection for a sign change of p on [lo, hi]."""
    flo = p(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        fmid = p(mid)
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return (lo + hi) / 2


class TestInsideCount:
    def test_golden(self):
        assert root_counts(IntPoly.of(-1, -1, 1)).inside == 1

    def test_cyclotomic(self):
        assert root_counts(IntPoly.of(1, -1, 1)).inside == 0

    def test_lehmer(self):
        assert root_counts(LEHMER).inside == 1

    def test_root_at_zero(self):
        assert root_counts(IntPoly.of(0, 0, 1)).inside == 2

    def test_multiplicity(self):
        p = IntPoly.of(-1, -1, 1) ** 2
        assert root_counts(p).inside == 2


class TestCircleCount:
    def test_cyclotomic(self):
        assert root_counts(IntPoly.of(1, -1, 1)).on_circle == 2

    def test_golden_square(self):
        assert root_counts(IntPoly.of(1, -3, 1)).on_circle == 0

    def test_lehmer(self):
        assert root_counts(LEHMER).on_circle == 8

    def test_roots_at_pm_one(self):
        assert root_counts(IntPoly.of(-1, 0, 1)).on_circle == 2

    def test_scaling_invariance(self):
        p = IntPoly.of(1, -1, 1)
        assert root_counts(3 * p).on_circle == 2


class TestRealOutside:
    def test_golden_square(self):
        assert root_counts(IntPoly.of(1, -3, 1)).r == 1

    def test_no_real_roots(self):
        assert root_counts(IntPoly.of(1, 0, 1)).r == 0

    def test_lehmer(self):
        assert root_counts(LEHMER).r == 1

    def test_pm_one_excluded(self):
        assert root_counts(IntPoly.of(-1, 0, 1)).r == 0


class TestRefineRoots:
    def test_golden_square_values(self):
        profile = refine_roots(IntPoly.of(1, -3, 1))
        values = sorted(z.approx.real for z in profile.roots)
        assert abs(values[0] - 0.3819660113) < 1e-9
        assert abs(values[1] - 2.6180339887) < 1e-9
        assert all(z.radius < 1e-12 for z in profile.roots)

    def test_salem_quartic_largest_root(self):
        p = IntPoly.of(1, -1, -1, -1, 1)
        expected = bisect_root(p, 1.5, 2.0)
        profile = refine_roots(p)
        largest = max(abs(z.approx) for z in profile.roots)
        assert abs(largest - expected) < 1e-9

    def test_lehmer_largest_root(self):
        profile = refine_roots(LEHMER)
        largest = max(abs(z.approx) for z in profile.roots)
        assert abs(largest - 1.17628082) < 1e-7

    def test_ordering_convention(self):
        profile = refine_roots(LEHMER)
        assert profile.roots[0].location == OUTSIDE
        assert profile.roots[0].realness == REAL
        assert all(z.location == ON_CIRCLE for z in profile.roots[1:9])
        assert profile.roots[9].location == "inside"

    def test_counts_attached(self):
        profile = refine_roots(LEHMER)
        assert (profile.s, profile.r, profile.on_circle) == (1, 1, 8)
        assert profile.inside == 1


@st.composite
def monic_polys(draw, max_degree=8, height=2):
    degree = draw(st.integers(1, max_degree))
    lower = draw(st.lists(st.integers(-height, height), min_size=degree, max_size=degree))
    return IntPoly(tuple(lower) + (1,))


class TestProfileInvariants:
    @given(monic_polys(max_degree=8, height=2))
    @settings(max_examples=150, deadline=None)
    def test_partition_of_degree(self, p):
        counts = root_counts(p)
        inside, on = counts.inside, counts.on_circle
        out = p.degree - inside - on
        assert inside >= 0 and on >= 0 and out >= 0
        profile = refine_roots(p)
        assert profile.s == out
        assert profile.on_circle == on
        assert counts.r == profile.r
        assert profile.r <= profile.s

    @given(st.lists(st.integers(-2, 2), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_palindromic_mirror(self, interior):
        p = IntPoly((1,) + tuple(interior) + tuple(reversed(interior[:-1])) + (1,))
        profile = refine_roots(p)
        assert profile.inside == profile.s
        outside = sorted(
            abs(1 / z.approx) for z in profile.roots if z.location == OUTSIDE
        )
        inside = sorted(abs(z.approx) for z in profile.roots if z.location == "inside")
        for a, b in zip(outside, inside):
            assert abs(a - b) < 1e-7

    @given(monic_polys(max_degree=6, height=2))
    @settings(max_examples=100, deadline=None)
    def test_conjugation_closure(self, p):
        profile = refine_roots(p)
        upper = sorted(
            (z.approx.real, z.approx.imag)
            for z in profile.roots
            if z.realness == "nonreal_upper"
        )
        lower = sorted(
            (z.approx.real, -z.approx.imag)
            for z in profile.roots
            if z.realness == "nonreal_lower"
        )
        assert len(upper) == len(lower)
        for (ar, ai), (br, bi) in zip(upper, lower):
            assert math.hypot(ar - br, ai - bi) < 1e-7


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        root_counts(IntPoly())


# ---------------------------------------------------------------------------
# Exact counts against two references
# ---------------------------------------------------------------------------


def sympy_sqf(p):
    """Squarefree factors of p with multiplicities, from sympy's sqf_list."""
    _, factors = p.to_sympy().sqf_list()
    return [(from_sympy(f), int(m)) for f, m in factors]


def sympy_gcd(p, q):
    return from_sympy(sympy.gcd(p.to_sympy(), q.to_sympy()))


def sympy_quo(p, q):
    return from_sympy(p.to_sympy().exquo(q.to_sympy()))


def gcd_route_factors(p):
    """The sympy route: each squarefree factor f of p from sympy, with its
    multiplicity and (inside, on_circle, real, real_outside), counted by the
    reference route: sympy's gcd(f, f*) and exact quotients, the reference
    inside count, and sympy's real-root counts on f at full degree (in
    closed intervals, so a root at 1 is taken off [1, oo))."""
    factors = []
    for f, m in sympy_sqf(p):
        k, h = roots._strip_x(f)
        inside, on = k, 0
        if h.degree > 0:
            g = sympy_gcd(h, h.reciprocal())
            u = sympy_quo(h, g) if g.degree > 0 else h
            c = g
            for a in (1, -1):
                if c(a) == 0:
                    on += 1
                    c = sympy_quo(c, IntPoly((-a, 1)))
            if c.degree > 0:
                on += 2 * _half_trace(c.coeffs).to_sympy().count_roots(-2, 2)
            inside += (g.degree - on) // 2
            inside += reference_inside(u)
        sf = f.to_sympy()
        real = sf.count_roots()
        real_outside = (sf.count_roots(None, -1) - (f(-1) == 0)
                        + sf.count_roots(1, None) - (f(1) == 0))
        factors.append((f, m, (inside, on, real, real_outside)))
    return tuple(factors)


def totals(factors):
    return tuple(sum(m * counts[i] for _, m, counts in factors) for i in range(4))


def gcd_route_counts(p):
    """(inside, on_circle, real, real_outside) of p with multiplicity, by the
    sympy route."""
    return totals(gcd_route_factors(p))


def polyroots_counts(p, dps=30):
    """The same counts read off mpmath.polyroots (Durand-Kerner, started from
    numpy's roots to save steps) on sympy's squarefree factors, with a
    tolerance far below every root separation here."""
    totals = [0, 0, 0, 0]
    _, factors = p.to_sympy().sqf_list()
    with mpmath.workdps(dps):
        tol = mpmath.mpf(10) ** (-dps // 2)
        for f, m in factors:
            cs = [int(c) for c in f.all_coeffs()]
            if len(cs) < 2:
                continue
            start = [complex(z) for z in np.roots(cs)]
            for z in mpmath.polyroots(cs, maxsteps=100, extraprec=dps, roots_init=start):
                z = mpmath.mpc(z)
                real = abs(z.imag) <= tol
                totals[0] += m * (abs(z) < 1 - tol)
                totals[1] += m * (abs(abs(z) - 1) <= tol)
                totals[2] += m * real
                totals[3] += m * (real and abs(z) > 1 + tol)
    return tuple(totals)


def factor_entries(p):
    """(f, multiplicity, (inside, on_circle, real, real_outside)) for each
    factor record of root_counts(p), in the shape of gcd_route_factors."""
    return tuple((f.poly, f.multiplicity, (f.inside, f.on_circle, f.real, f.real_outside))
                 for f in root_counts(p).factors)


def exact_counts(p):
    return totals(factor_entries(p))


def palindromic_box(degree_max, height):
    """Every monic palindromic polynomial of degree 1..degree_max, odd
    degrees included."""
    rng = range(-height, height + 1)
    for degree in range(1, degree_max + 1):
        for half in itertools.product(rng, repeat=degree // 2):
            mirrored = half[::-1] if degree % 2 else half[-2::-1]
            yield IntPoly((1,) + half + mirrored + (1,))


PHI3 = IntPoly.of(1, 1, 1)
X = IntPoly.of(0, 1)
MIGNOTTE = IntPoly([-2, 80, -800] + [0] * 11 + [1])  # x^14 - 2(20x - 1)^2
PRODUCTS = [
    LEHMER**2 * IntPoly.of(1, 1) * X,  # repeated factor, root -1, factor of x
    IntPoly.of(-1, 1) * LEHMER,  # anti-palindromic (x - 1) P
    IntPoly.of(-1, 1) ** 2 * IntPoly.of(1, 1) ** 3 * PHI3,  # roots at +/-1, repeated
    IntPoly.of(-1, 1) * IntPoly.of(1, 1) * IntPoly.of(1, -3, 1),  # both +/-1, squarefree
    X**3 * SMYTH**2,  # not self-reciprocal, repeated, x^3
    IntPoly.of(1, -3, 1) * SMYTH * IntPoly.of(1, -1, 1),  # mixed squarefree factor
    IntPoly.of(2, -5, 2) * IntPoly.of(-1, 0, 1),  # non-monic self-reciprocal
    3 * PHI3 * IntPoly.of(1, 0, 1, 0, -1, 0, 1, 0, 1),  # content, complex Salem octic
    IntPoly.of(1, -1, -1, -1, 1) ** 2 * IntPoly.of(-1, 1) ** 3 * X**2,
]


class TestExactCounts:
    def test_palindromic_box_agrees_with_references(self):
        checked = 0
        for p in palindromic_box(12, 1):
            factors = gcd_route_factors(p)
            assert factor_entries(p) == factors, p
            assert polyroots_counts(p) == totals(factors), p
            checked += 1
        assert checked == 1456

    def test_sympy_decomposes_only_repeated_roots(self, count_calls):
        polys = list(palindromic_box(12, 1)) + PRODUCTS
        repeated = [p for p in polys if not p.to_sympy().is_sqf]
        calls = count_calls("intpoly.IntPoly.squarefree_decomposition")
        for p in polys:
            root_counts(p)
        assert calls == repeated
        assert 0 < len(repeated) < len(polys)

    @given(monic_polys(max_degree=6, height=2), monic_polys(max_degree=4, height=2))
    @settings(max_examples=100, deadline=None)
    def test_random_products_agree_with_gcd_route(self, p, q):
        # q times its reversal is self-reciprocal; times p, usually not
        f = p * q * IntPoly(reversed(q.coeffs))
        assert exact_counts(f) == gcd_route_counts(f)

    @pytest.mark.parametrize("p", PRODUCTS, ids=str)
    def test_products_agree_with_references(self, p):
        factors = gcd_route_factors(p)
        assert factor_entries(p) == factors
        expected = totals(factors)
        assert polyroots_counts(p) == expected
        counts = root_counts(p)
        assert (counts.inside, counts.on_circle, counts.r) == (expected[0], expected[1], expected[3])

    @pytest.mark.parametrize("p", [
        LEHMER,
        IntPoly.of(-1, 1) * LEHMER,  # anti-palindromic
        IntPoly.of(1, 1) * LEHMER,  # odd degree
        IntPoly.of(-1, 0, 1) * LEHMER,  # anti-palindromic, both +/-1
        IntPoly.of(2, -5, 2),
    ], ids=str)
    def test_self_reciprocal_factor_takes_no_gcd(self, monkeypatch, p):
        expected = gcd_route_counts(p)

        def unused(*args):
            raise AssertionError("gcd route taken for a self-reciprocal factor")

        monkeypatch.setattr(roots, "poly_gcd", unused)
        assert exact_counts(p) == expected

    @pytest.mark.parametrize("p, factors", [
        (IntPoly.of(-1, 1, 1), ((IntPoly.of(-1, 1, 1), 1, (1, 0, 2, 1)),)),
        (SMYTH, ((SMYTH, 1, (2, 0, 1, 1)),)),
        (MIGNOTTE, ((MIGNOTTE, 1, (2, 0, 4, 2)),)),
        (IntPoly.of(-1, 1, 1) ** 2, ((IntPoly.of(-1, 1, 1), 2, (1, 0, 2, 1)),)),
        (IntPoly.of(-1, 1, 1) ** 3, ((IntPoly.of(-1, 1, 1), 3, (1, 0, 2, 1)),)),
        (SMYTH**2 * IntPoly.of(1, 0, 0, 0, 1),
         ((IntPoly.of(1, 0, 0, 0, 1), 1, (0, 4, 0, 0)), (SMYTH, 2, (2, 0, 1, 1)))),
    ], ids=str)
    def test_root_counts_never_polishes(self, monkeypatch, p, factors):
        # x^2 + x - 1 and x^3 - x - 1 (|a_0| = |a_n|) degenerate at the first
        # Schur-Cohn step, and the Mignotte polynomial has two roots about 1e-9
        # apart; all are counted without numeric roots.
        def unused(*args):
            raise AssertionError("root_counts polished roots")

        monkeypatch.setattr(roots, "_polished_roots", unused)
        assert factor_entries(p) == factors


# ---------------------------------------------------------------------------
# The Routh-Hurwitz inside count
# ---------------------------------------------------------------------------


def off_circle_part(f):
    """f with x and its common roots with f* divided out; no circle roots
    remain."""
    _, f = roots._strip_x(f)
    g = sympy_gcd(f, f.reciprocal())
    return sympy_quo(f, g) if g.degree > 0 else f


def polyroots_inside(u, dps=60):
    """Roots of u with |z| < 1, from mpmath.polyroots started at numpy's
    roots; each root must lie clear of the circle."""
    cs = list(reversed(u.coeffs))
    with mpmath.workdps(dps):
        start = [complex(z) for z in np.roots(cs)]
        zs = mpmath.polyroots(cs, maxsteps=400, extraprec=4 * dps, roots_init=start)
        assert all(abs(abs(z) - 1) > mpmath.mpf(10) ** (-dps // 2) for z in zs)
        return sum(1 for z in zs if abs(z) < 1)


# The degree 18-20 inputs on which the Schur-Cohn coefficients blew up.
CLIFF_PANEL = [IntPoly(cs) for cs in (
    (-2, -1, 0, 1, 0, 2, -3, 0, -1, 2, -2, -3, -1, -3, 3, -2, -2, 3, 1),
    (-1, 3, 1, 3, -2, 2, 1, -2, 3, 3, 0, 0, -2, 1, 2, 1, 2, 0, 3, 1),
    (-3, 1, -3, 3, -3, -2, 1, -3, 1, 3, 2, -3, 2, 3, 0, 1, 0, -1, 3, -1, 1),
    (2, 1, 2, -3, 3, 1, -2, 0, -1, 1, 1, -2, 1, -1, 3, -2, 0, 0, 1),
    (3, -2, 3, 2, -2, 3, -2, 0, -2, 2, 1, 0, 2, 2, -3, -3, -1, -1, -1, 1),
    (1, 3, 3, 1, 0, -2, 2, -1, -1, 3, 3, 3, 2, 2, -3, 1, -1, 3, -3, 0, 1),
)]


def seeded_high_degree(count=12, seed=24):
    """Degree 24-40, height 3, |a_0| >= 2, leading coefficient +/-1..3."""
    rng = random.Random(seed)
    for _ in range(count):
        degree = rng.randint(24, 40)
        a0 = rng.choice((-3, -2, 2, 3))
        lead = rng.choice((-3, -2, -1, 1, 2, 3))
        yield IntPoly([a0] + [rng.randint(-3, 3) for _ in range(degree - 1)] + [lead])


@st.composite
def integer_polys(draw, max_degree=10, height=3):
    degree = draw(st.integers(1, max_degree))
    lower = draw(st.lists(st.integers(-height, height), min_size=degree, max_size=degree))
    lead = draw(st.integers(-height, height).filter(bool))
    return IntPoly(tuple(lower) + (lead,))


class TestHurwitzInside:
    def test_agrees_with_reference_on_box(self):
        checked = 0
        for degree in range(1, 6):
            for lower in itertools.product(range(-1, 2), repeat=degree):
                f = IntPoly(lower + (1,))
                if f.reciprocal() in (f, -f) or not f.to_sympy().is_sqf:
                    continue
                u = off_circle_part(f)
                assert roots._hurwitz_inside(u) == reference_inside(u), f
                checked += 1
        assert checked == 277

    @pytest.mark.parametrize("p", CLIFF_PANEL + list(seeded_high_degree()), ids=str)
    def test_agrees_with_polyroots(self, p):
        u = off_circle_part(p)
        assert roots._hurwitz_inside(u) == polyroots_inside(u)

    @given(integer_polys())
    @settings(max_examples=200, deadline=None)
    def test_reversal_and_reflection(self, p):
        u = off_circle_part(p)
        inside = roots._hurwitz_inside(u)
        assert inside + roots._hurwitz_inside(u.reciprocal()) == u.degree
        # u u* is palindromic, so its Cayley transform is even (B = 0)
        assert roots._hurwitz_inside(u * u.reciprocal()) == u.degree
        reflected = IntPoly(c * (-1) ** k for k, c in enumerate(u.coeffs))
        assert roots._hurwitz_inside(reflected) == inside


# ---------------------------------------------------------------------------
# Outside roots only
# ---------------------------------------------------------------------------


def assert_same_disks(got, expected):
    """Certified roots from the two Newton kernels: equal count,
    multiplicity, location and realness, and centers that differ by at most
    the sum of the two radii plus one ulp in each component (each center is
    its disk's center rounded to a float).  The radii themselves differ."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.multiplicity, a.location, a.realness) == (
            b.multiplicity, b.location, b.realness)
        assert_centers_close((a.approx, a.radius), (b.approx, b.radius))


def assert_same_measure(a, b):
    """Two certificates of one measure from different disks: equal to 12
    digits, with overlapping intervals."""
    assert (a.poly, a.is_one_exact, f"{a.value:.12g}") == (b.poly, b.is_one_exact, f"{b.value:.12g}")
    assert a.lower <= b.upper and b.lower <= a.upper


def assert_centers_close(a, b):
    """Two (center, radius) disks around one root, with float centers."""
    (za, ra), (zb, rb) = a, b
    for u, v in ((za.real, zb.real), (za.imag, zb.imag)):
        assert abs(u - v) <= ra + rb + math.ulp(max(abs(u), abs(v)))


class TestRefineOutsideRoots:
    @pytest.mark.parametrize("p", [LEHMER, SMYTH, IntPoly.of(1, 0, 1, 0, -1, 0, 1, 0, 1)]
                             + PRODUCTS, ids=str)
    def test_same_roots_as_refine_roots(self, p):
        full = refine_roots(p)
        outside = root_counts(p)
        assert_same_disks(outside.outside_roots,
                          [z for z in full.roots if z.location == OUTSIDE])
        assert (outside.s, outside.r, outside.on_circle, outside.degree) == (
            full.s, full.r, full.on_circle, full.degree)
        if p.is_monic:
            assert_same_measure(MahlerCertificate.of(outside), MahlerCertificate.of(full))

    @pytest.mark.parametrize("p", [LEHMER, IntPoly.of(1, 0, 1, 0, -1, 0, 1, 0, 1),
                                   IntPoly.of(1, -3, 1) * SMYTH * IntPoly.of(1, -1, 1)],
                             ids=str)
    def test_circle_seed_first_falls_back(self, monkeypatch, p):
        fallbacks = []
        classify = roots._classify_squarefree

        def circle_first(f, k):
            seeds = roots._seeds(f)
            return seeds[np.argsort(np.abs(np.abs(seeds) - 1), kind="stable")[:k]]

        def counted(factor):
            fallbacks.append(factor.poly)
            return classify(factor)

        expected = root_counts(p)
        expected.outside_roots  # polished before the seeds are reordered
        monkeypatch.setattr(roots, "_largest_seeds", circle_first)
        monkeypatch.setattr(roots, "_classify_squarefree", counted)
        got = root_counts(p)
        assert_same_disks(got.outside_roots, expected.outside_roots)
        assert fallbacks
        assert (got.poly, got.s, got.r, got.on_circle, got.degree) == (
            expected.poly, expected.s, expected.r, expected.on_circle, expected.degree)
        assert_same_measure(MahlerCertificate.of(got), MahlerCertificate.of(expected))


# ---------------------------------------------------------------------------
# The fixed-point Newton kernel
# ---------------------------------------------------------------------------


def polyroots_60(f):
    """Every root of f from mpmath.polyroots at dps 60, started at numpy's
    roots."""
    cs = list(reversed(f.coeffs))
    with mpmath.workdps(60):
        start = [complex(z) for z in np.roots(cs)]
        return mpmath.polyroots(cs, maxsteps=100, extraprec=10, roots_init=start)


def fixed_point_disks(p):
    """(f, kernel output) for each squarefree factor f of p with outside
    roots, polished from its largest seeds as RootCounts.outside_roots does."""
    for factor in root_counts(p).factors:
        f = factor.poly
        s_f = f.degree - factor.inside - factor.on_circle
        if s_f:
            yield f, roots._fixed_point_roots(f, roots._largest_seeds(f, s_f))


def assert_disks_hold_roots(disks, reference):
    """Each disk holds a reference root, with no slack; every radius is a
    few ulps of max(1, |center|)."""
    with mpmath.workdps(60):
        for z, rad in disks:
            assert 0 <= rad <= 2.0**-46 * max(1, abs(z))
            nearest = min(abs(mpmath.mpc(z) - w) for w in reference)
            assert nearest <= rad, (z, rad, nearest)


class TestFixedPointRoots:
    def test_box_disks_hold_roots(self):
        # f(-x) has the negated roots of f, so one polyroots run serves both
        reference = {}
        checked = 0
        for p in palindromic_box(12, 1):
            for f, disks in fixed_point_disks(p):
                g = IntPoly(c * (-1) ** k for k, c in enumerate(f.coeffs))
                g = -g if g.leading < 0 else g
                if g.coeffs in reference:
                    zs = [-w for w in reference[g.coeffs]]
                else:
                    zs = reference.setdefault(f.coeffs, polyroots_60(f))
                assert_disks_hold_roots(disks, zs)
                checked += len(disks)
        assert checked == 2174

    @pytest.mark.parametrize("p", list(seeded_high_degree()), ids=str)
    def test_high_degree_disks_hold_roots(self, p):
        for f, disks in fixed_point_disks(p):
            assert_disks_hold_roots(disks, polyroots_60(f))

    @pytest.mark.parametrize("p", [LEHMER, SMYTH, IntPoly.of(1, 0, 1, 0, -1, 0, 1, 0, 1),
                                   IntPoly.of(1, -3, 1) * SMYTH * IntPoly.of(1, -1, 1)],
                             ids=str)
    @pytest.mark.parametrize("dps", [30, 60])
    def test_agrees_with_mpmath_kernel(self, monkeypatch, p, dps):
        monkeypatch.setattr(roots, "DPS", dps)
        seeds = roots._seeds(p)
        fixed = roots._fixed_point_roots(p, seeds)
        polished = roots._polished_roots(p, seeds)
        for seed, a, b in zip(seeds, fixed, polished, strict=True):
            assert_centers_close(a, b)
            if abs(seed.imag) < 1e-9:
                assert a[0].imag == 0.0

    @given(st.integers(0, 2**300), st.integers(1, 2**300), st.integers(-4000, 4000))
    @settings(max_examples=300, deadline=None)
    def test_sqrt_ratio_rounds_up(self, num, den, shift):
        num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
        r = roots._sqrt_ratio_up(num, den)
        if r == math.inf:
            assert num > Fraction(sys.float_info.max) ** 2 * den
            return
        assert Fraction(r) ** 2 * den >= num
        if num == 0:
            assert r == 0.0
        else:
            below = math.nextafter(math.nextafter(r, 0.0), 0.0)
            assert Fraction(below) ** 2 * den < num

    @pytest.mark.parametrize("dps", [30, 60, 1920])
    def test_zero_radius_only_at_exact_root(self, monkeypatch, dps):
        # more digits do not shrink a radius taken at the float center
        monkeypatch.setattr(roots, "DPS", dps)
        # the centers near 1e-300 are not roots
        f = IntPoly.of(1, -10**300, 3, -10**300, 1)
        seeds = roots._seeds(f)
        near_zero = [rad for z, rad in roots._polished_roots(f, seeds) if abs(z) < 1]
        assert len(near_zero) == 3 and all(rad > 0.0 for rad in near_zero)
        # 1/2 and -1/2 are dyadic, so the polished centers are the roots
        g = IntPoly.of(-1, 0, 4)
        polished = roots._polished_roots(g, [0.5 + 0j, -0.49 + 0j])
        assert polished == [(0.5 + 0j, 0.0), (-0.5 + 0j, 0.0)]

    def test_seeds_are_finite_and_snap_to_the_real_line(self, monkeypatch):
        monkeypatch.setattr(np, "roots", lambda cs: np.array([2 + 1e-10j, 2 - 1e-10j, 0.5j]))
        assert list(roots._seeds(SMYTH)) == [2, 2, 0.5j]
        monkeypatch.setattr(np, "roots", lambda cs: np.array([math.nan, 2.0, 0.5]))
        with pytest.raises(roots.CertificationError, match="not all finite"):
            root_counts(SMYTH).outside_roots

    def test_sqrt_ratio_never_underflows_to_zero(self):
        assert roots._sqrt_ratio_up(1, 1 << 5000) == math.ulp(0.0)


# ---------------------------------------------------------------------------
# The numeric route: disks at float centers
# ---------------------------------------------------------------------------


def seeded_dense(count=24, seed=8):
    """Monic, degree 8-17, height 3."""
    rng = random.Random(seed)
    for _ in range(count):
        degree = rng.randint(8, 17)
        yield IntPoly([rng.randint(-3, 3) for _ in range(degree)] + [1])


class TestNumericRoute:
    @pytest.mark.parametrize("p", list(seeded_dense()) + list(seeded_high_degree()), ids=str)
    def test_disks_hold_roots(self, count_calls, p):
        polished = count_calls("roots._polished_roots")
        reference = [w for f in root_counts(p).factors for w in polyroots_60(f.poly)]
        for certified in (refine_roots(p).roots, root_counts(p).outside_roots):
            assert certified
            assert_disks_hold_roots([(z.approx, z.radius) for z in certified], reference)
        assert polished

    def test_exact_circle_roots(self, count_calls):
        # (x^2 + 1)(x - 3) is not self-reciprocal, so +/-i are polished
        polished = count_calls("roots._polished_roots")
        _, up, down = refine_roots(IntPoly.of(-3, 1, -3, 1)).roots
        assert (up.approx, up.radius, up.location) == (1j, 0.0, ON_CIRCLE)
        assert (down.approx, down.radius, down.location) == (-1j, 0.0, ON_CIRCLE)
        assert polished

    def test_tiny_roots_keep_relative_centers(self):
        # roots 1e-40 and 2e-40: the centers keep the roots' relative
        # accuracy, so the two disks are apart and the factor certifies
        first, second = refine_roots(IntPoly.of(2, -3 * 10**40, 10**80)).roots
        assert (first.approx, second.approx) == (2e-40, 1e-40)
        assert 0.0 < first.radius < 1e-12 * 1e-40
        assert 0.0 < second.radius < 1e-12 * 1e-40

    def test_circle_disks_meet_the_circle(self):
        circle = [z for z in refine_roots(PHI3 * SMYTH).roots if z.location == ON_CIRCLE]
        assert len(circle) == 2
        for z in circle:
            x, y, r = (Fraction(t) for t in (z.approx.real, z.approx.imag, z.radius))
            # |c| - r <= 1 <= |c| + r
            assert x * x + y * y <= (1 + r) ** 2
            assert r >= 1 or x * x + y * y >= (1 - r) ** 2


# ---------------------------------------------------------------------------
# The exact route on a totally real trace polynomial
# ---------------------------------------------------------------------------

HUGE_SALEM = IntPoly.of(1, -10**300, 3, -10**300, 1)  # Q = w^2 - 10^300 w + 1


def trace_route_disks(p):
    """(f, disks) for each squarefree factor f of p that _classify_squarefree
    sends on the exact route: self-reciprocal, with inside == real_outside,
    isolated on the trace its count kept."""
    for factor in root_counts(p).factors:
        f = factor.poly
        if factor.inside == factor.real_outside and f.reciprocal() in (f, -f):
            yield f, roots._trace_roots(factor.trace)


def trace_roots(f):
    """_trace_roots on the trace kept by the count of the squarefree f."""
    (factor,) = root_counts(f).factors
    return roots._trace_roots(factor.trace)


def self_reciprocal_roots_60(f):
    """The roots of a self-reciprocal f from mpmath.polyroots at dps 60, with
    the inverse of each nonzero one: z -> 1/z permutes the roots of f, and the
    inverse of a huge root keeps its relative accuracy, which polyroots loses
    on its tiny partner."""
    cs = list(reversed(f.coeffs))
    with mpmath.workdps(60):
        extra = 10 + 4 * f.degree + 2 * max(c.bit_length() for c in cs)
        found = mpmath.polyroots(cs, maxsteps=200, extraprec=extra)
        return list(found) + [1 / z for z in found if z != 0]


class TestTraceRoute:
    def test_disks_hold_roots(self):
        # each disk holds a reference root, up to the reference's own error
        inputs = list(palindromic_box(10, 1)) + [
            LEHMER, IntPoly.of(-1, 0, 1) * LEHMER * PHI3, HUGE_SALEM]
        checked = 0
        for p in inputs:
            for f, disks in trace_route_disks(p):
                assert len(disks) == f.degree
                reference = self_reciprocal_roots_60(f)
                with mpmath.workdps(60):
                    for z, rad, _, _ in disks:
                        nearest = min(abs(mpmath.mpc(z) - w) for w in reference)
                        assert nearest <= rad + 1e-50 * max(1, abs(z)), (f, z, rad, nearest)
                checked += len(disks)
        assert checked == 2653

    def test_locations_from_trace_roots(self):
        # x^2 + 1 (w = 0), x^2 - x + 1 (w = 1), x^2 - 3x + 1 (w = 3) and
        # (x - 1)(x + 1): exact centers where the roots are dyadic
        got = trace_roots(IntPoly.of(1, 0, 1))
        assert got == [(1j, 0.0, ON_CIRCLE, "nonreal_upper"),
                       (-1j, 0.0, ON_CIRCLE, "nonreal_lower")]
        got = trace_roots(IntPoly.of(-1, 0, 1))
        assert got == [(1 + 0j, 0.0, ON_CIRCLE, REAL), (-1 + 0j, 0.0, ON_CIRCLE, REAL)]
        (z, rad, loc, realness), _ = trace_roots(IntPoly.of(1, -1, 1))
        assert (z.real, loc, realness) == (0.5, ON_CIRCLE, "nonreal_upper")
        assert abs(z.imag - math.sqrt(3) / 2) <= rad < 1e-16
        outer, inner = trace_roots(IntPoly.of(1, -3, 1))
        assert (outer[2:], inner[2:]) == ((OUTSIDE, REAL), ("inside", REAL))
        assert outer[0].real == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-15)

    def test_huge_root_is_certified(self):
        out, circle_up, circle_down, inside = refine_roots(HUGE_SALEM).roots
        assert (out.approx, out.location) == (1e300 + 0j, OUTSIDE)
        assert 0 < out.radius < 1e-15 * 1e300
        assert inside.approx == 1e-300 + 0j
        # each coordinate is known relative to itself: Re z = w/2 is about 5e-301
        assert (circle_up.approx, circle_down.approx) == (5e-301 + 1j, 5e-301 - 1j)
        assert (circle_up.location, circle_down.location) == (ON_CIRCLE, ON_CIRCLE)

    def test_root_beyond_float_range(self):
        p = IntPoly.of(1, -10**400, 3, -10**400, 1)
        with pytest.raises(roots.CertificationError, match="beyond the float range"):
            refine_roots(p)

    def test_trace_built_once(self, count_calls):
        # the count keeps the chain of Q, and the trace route isolates on it
        calls = [count_calls(name) for name in (
            "roots.sturm_chain", "intpoly._half_trace", "roots._split_pm_one")]
        refine_roots(LEHMER)
        assert [len(c) for c in calls] == [1, 1, 1]
        # only a self-reciprocal factor with no root at 0 keeps a trace
        assert [f.trace is None for f in root_counts(X * SMYTH * LEHMER**2).factors] == [
            True, False]
        assert root_counts(X * LEHMER).factors[0].trace is None

    def test_needs_no_seed(self, count_calls):
        seeded = count_calls("roots._seeds")
        classified = count_calls("roots._classify_squarefree")
        for p in (LEHMER, IntPoly.of(-1, 0, 1) * LEHMER * PHI3, LEHMER**2 * IntPoly.of(1, 1)):
            refine_roots(p)
        assert seeded == [] and len(classified) == 4
