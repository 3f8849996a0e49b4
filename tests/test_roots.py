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
from mahlerlat.mahler import mahler_measure
from mahlerlat.roots import (
    ON_CIRCLE,
    OUTSIDE,
    REAL,
    count_real_roots,
    refine_outside_roots,
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


class TestSturm:
    def test_simple_interval(self):
        # x^2 - 2: roots +/- sqrt(2)
        p = IntPoly.of(-2, 0, 1)
        assert count_real_roots(p) == 2
        assert count_real_roots(p, 0, 2) == 1
        assert count_real_roots(p, -2, 0) == 1


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
    inside count, and Sturm counts on f at full degree."""
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
                on += 2 * count_real_roots(_half_trace(c.coeffs), -2, 2)
            inside += (g.degree - on) // 2
            inside += reference_inside(u)
        real = count_real_roots(f)
        real_outside = (count_real_roots(f, None, -1) - (f(-1) == 0)
                        + count_real_roots(f, 1, None))
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


def exact_counts(p):
    return totals(root_counts(p).factors)


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
            assert root_counts(p).factors == factors, p
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
        assert root_counts(p).factors == factors
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
        monkeypatch.setattr(roots, "exact_div", unused)
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
        assert root_counts(p).factors == factors


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
        outside = refine_outside_roots(root_counts(p))
        assert_same_disks(outside.roots, [z for z in full.roots if z.location == OUTSIDE])
        assert (outside.s, outside.r, outside.on_circle, outside.degree) == (
            full.s, full.r, full.on_circle, full.degree)
        if p.is_monic:
            assert mahler_measure(p, profile=outside) == mahler_measure(p, profile=full)

    @pytest.mark.parametrize("p", [LEHMER, IntPoly.of(1, 0, 1, 0, -1, 0, 1, 0, 1),
                                   IntPoly.of(1, -3, 1) * SMYTH * IntPoly.of(1, -1, 1)],
                             ids=str)
    def test_circle_seed_first_falls_back(self, monkeypatch, p):
        fallbacks = []
        classify = roots._classify_squarefree

        def circle_first(f, k):
            seeds = roots._seeds(f)
            return seeds[np.argsort(np.abs(np.abs(seeds) - 1), kind="stable")[:k]]

        def counted(f, counts):
            fallbacks.append(f)
            return classify(f, counts)

        expected = refine_outside_roots(root_counts(p))
        monkeypatch.setattr(roots, "_largest_seeds", circle_first)
        monkeypatch.setattr(roots, "_classify_squarefree", counted)
        got = refine_outside_roots(root_counts(p))
        assert fallbacks
        assert_same_disks(got.roots, expected.roots)
        assert (got.poly, got.s, got.r, got.on_circle, got.degree) == (
            expected.poly, expected.s, expected.r, expected.on_circle, expected.degree)
        assert mahler_measure(p, profile=got) == mahler_measure(p, profile=expected)


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
    roots, polished from its largest seeds as refine_outside_roots does."""
    for f, _, (inside, on_circle, _, _) in root_counts(p).factors:
        s_f = f.degree - inside - on_circle
        if s_f:
            yield f, roots._fixed_point_roots(f, roots._largest_seeds(f, s_f), 30)


def assert_disks_hold_roots(disks, reference):
    """Each disk, widened by the float rounding of its center, holds a
    reference root; every radius is positive and far below the precision."""
    with mpmath.workdps(60):
        for z, rad in disks:
            assert 0 < rad < 1e-25
            nearest = min(abs(mpmath.mpc(z) - w) for w in reference)
            assert nearest <= rad + 2.0**-52 * abs(z), (z, rad, nearest)


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
    def test_agrees_with_mpmath_kernel(self, p, dps):
        seeds = roots._seeds(p)
        fixed = roots._fixed_point_roots(p, seeds, dps)
        polished = roots._polished_roots(p, seeds, dps)
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

    def test_sqrt_ratio_never_underflows_to_zero(self):
        assert roots._sqrt_ratio_up(1, 1 << 5000) == math.ulp(0.0)
