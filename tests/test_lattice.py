import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerlat.fields import CIRCLE_COMPACT, field_summary
from mahlerlat.intpoly import LEHMER, IntPoly
from mahlerlat.lattice import (
    build_gamma,
    counterexample_scan,
    dirichlet_c,
    eta,
    gamma_power_report,
)

COMPLEX_SALEM_OCTIC = IntPoly.of(1, 0, 1, 0, -1, 0, 1, 0, 1)
GOLDEN_SQUARE = IntPoly.of(1, -3, 1)
# a member with t = 1 whose Dirichlet target is irrational: c grows with m
T1_MEMBER = IntPoly.of(1, 0, 0, -1, 1, -1, 0, 0, 1)
# LEHMER(-x^2): t = 1, alpha purely imaginary, so its target is exactly 1/2
LEHMER_NEG_SQUARE = LEHMER.compose_neg_x_squared()


def brute_force_c(targets, m):
    """Independent oracle: linear scan for the minimal Dirichlet multiplier."""
    t = len(targets)
    for c in range(1, m**t + 1):
        ok = True
        for x in targets:
            r = math.fmod(float(c * x), 1.0)
            if r >= 0.5:
                r -= 1.0
            elif r < -0.5:
                r += 1.0
            if abs(r) > 1 / m + 1e-12:
                ok = False
                break
        if ok:
            return c
    return None


def noncompact(summary):
    return [e for e in summary.embeddings if e.klass != CIRCLE_COMPACT]


class TestBuildGamma:
    def test_lehmer_element(self):
        element = build_gamma(field_summary(LEHMER), 2)
        assert element.cocompact
        assert len(element.summary.embeddings) == 5
        assert len(noncompact(element.summary)) == 1

    @staticmethod
    def inverts_alpha(p: IntPoly, alpha_inv: IntPoly) -> bool:
        # independent oracle: x * alpha^-1 reduces to 1 modulo p in Q[x]
        x = sympy.Symbol("x")
        p_x = sympy.Poly(list(reversed(p.coeffs)), x)
        inv_x = sympy.Poly(list(reversed(alpha_inv.coeffs)), x)
        return sympy.rem(sympy.Poly(x, x) * inv_x, p_x) == sympy.Poly(1, x)

    def test_alpha_inv_lehmer(self):
        element = build_gamma(field_summary(LEHMER), 2)
        assert element.alpha_inv.coeffs == (-1, 0, 1, 1, 1, 1, 1, 0, -1, -1)
        assert self.inverts_alpha(LEHMER, element.alpha_inv)

    def test_alpha_inv_golden_square(self):
        element = build_gamma(field_summary(GOLDEN_SQUARE), 2)
        assert element.alpha_inv == IntPoly.of(3, -1)
        assert self.inverts_alpha(GOLDEN_SQUARE, element.alpha_inv)

    def test_alpha_inv_every_member(self, corpus_members):
        for entry in corpus_members:
            element = build_gamma(field_summary(entry.poly), 2)
            assert self.inverts_alpha(entry.poly, element.alpha_inv)

    def test_compact_blocks_are_unitary(self):
        summary = build_gamma(field_summary(LEHMER), 2).summary
        for e in summary.embeddings:
            if e.klass == CIRCLE_COMPACT:
                assert abs(abs(e.alpha_value) - 1) < 1e-9

    def test_not_cocompact_without_circle_roots(self):
        element = build_gamma(field_summary(GOLDEN_SQUARE), 2)
        assert not element.cocompact
        assert noncompact(element.summary) == list(element.summary.embeddings)

    def test_size_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_gamma(field_summary(LEHMER), 1)


class TestDirichlet:
    def test_empty_targets_gives_one(self):
        witness = dirichlet_c((), 5)
        assert witness.c == 1 and witness.t == 0

    def test_exact_fraction_target(self):
        witness = dirichlet_c((Fraction(1, 3),), 3)
        assert witness.c == brute_force_c((Fraction(1, 3),), 3)
        assert all(abs(r) <= Fraction(1, 3) for r in witness.residues)

    def test_known_small_case(self):
        # 2 * 0.4 = 0.8 == -0.2 mod 1, inside [-1/2, 1/2]... but m=4 window
        witness = dirichlet_c((0.4,), 4)
        assert witness.c == brute_force_c((0.4,), 4)

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=64),
            min_size=1,
            max_size=3,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_and_is_minimal(self, targets, m):
        targets = tuple(targets)
        witness = dirichlet_c(targets, m)
        oracle = brute_force_c(targets, m)
        assert oracle is not None, "pigeonhole guarantees existence"
        assert witness.c == oracle
        assert 1 <= witness.c <= m ** len(targets)

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            dirichlet_c((0.5,), 0)


class TestEta:
    def test_values(self):
        assert eta(3, 0) == Fraction(1, 6)
        assert eta(2, 1) == Fraction(1, 8)
        assert eta(1, 0) == Fraction(1, 2)

    def test_monotone(self):
        assert eta(10, 2) < eta(10, 1) < eta(2, 1) < eta(2, 0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            eta(0, 1)
        with pytest.raises(ValueError):
            eta(2, -1)


class TestGammaPowerReport:
    def test_lehmer_m1(self):
        element = build_gamma(field_summary(LEHMER), 2)
        report = gamma_power_report(element, 1)
        assert report.witness.c == 1 and report.power == 2
        assert report.eta == Fraction(1, 2)
        assert report.mahler_hypothesis_met  # 1.17628 < e^(1/2)
        assert report.all_argument_flags
        assert report.all_log_modulus_flags
        assert report.infinite_order
        # eigenvalues are alpha^2 and alpha^-2 at the single split place
        logs = sorted(e.log_modulus for e in report.eigenvalues)
        assert abs(logs[1] - 2 * math.log(1.17628082)) < 1e-6
        assert abs(logs[0] + logs[1]) < 1e-9

    def test_lehmer_m3_log_window_holds(self):
        # 2 log M(lehmer) = 0.325... < 1/3, so the window check passes
        element = build_gamma(field_summary(LEHMER), 2)
        report = gamma_power_report(element, 3)
        assert report.mahler_hypothesis_met  # 1.17628 < e^(1/6) = 1.1813
        assert report.all_log_modulus_flags
        assert report.all_argument_flags

    def test_lehmer_m10_hypothesis_fails(self):
        element = build_gamma(field_summary(LEHMER), 2)
        report = gamma_power_report(element, 10)
        assert not report.mahler_hypothesis_met  # 1.17628 > e^(1/20) = 1.0513

    def test_argument_window_always_holds(self):
        # unconditional: the Dirichlet choice of c controls the arguments
        element = build_gamma(field_summary(COMPLEX_SALEM_OCTIC), 2)
        for m in range(1, 9):
            report = gamma_power_report(element, m)
            assert report.all_argument_flags
            assert report.power == 2 * report.witness.c
            assert report.witness.c <= m**element.summary.t

    def test_distance_excludes_compact_factor(self):
        element = build_gamma(field_summary(LEHMER), 2)
        report = gamma_power_report(element, 1)
        expected = max(abs(e.value - 1) for e in report.eigenvalues)
        assert report.distance_to_identity == expected


class TestEigenvalueOracle:
    """log_modulus and argument of gamma^power against mpmath at 50 digits,
    on alpha taken from mpmath's own roots of p."""

    @pytest.mark.parametrize(
        "p", [LEHMER, COMPLEX_SALEM_OCTIC, T1_MEMBER, LEHMER_NEG_SQUARE]
    )
    def test_matches_mpmath(self, p):
        summary = field_summary(p)
        element = build_gamma(summary, 2)
        with mpmath.workdps(50):
            roots = mpmath.polyroots(list(reversed(p.coeffs)), maxsteps=200, extraprec=200)
            for m in (1, 2, 3, 3000, 100000):
                report = gamma_power_report(element, m)
                power = report.power
                tol = 4e-15 * power
                places = noncompact(summary)
                assert len(report.eigenvalues) == 2 * len(places)
                for i, emb in enumerate(places):
                    alpha = min(roots, key=lambda z: abs(z - emb.alpha_value))
                    pair = report.eigenvalues[2 * i : 2 * i + 2]
                    for eig, z in zip(pair, (alpha, 1 / alpha)):
                        assert abs(eig.log_modulus - power * mpmath.log(abs(z))) <= tol
                        turn = (eig.argument - power * mpmath.arg(z)) % (2 * mpmath.pi)
                        assert min(turn, 2 * mpmath.pi - turn) <= tol

    def test_window_edge_argument_flags(self):
        # at m = 2 every argument is +/-pi, on the window edge 2 pi / m
        report = gamma_power_report(build_gamma(field_summary(LEHMER_NEG_SQUARE), 2), 2)
        assert report.element.summary.t == 1
        assert report.power == 2
        assert all(abs(abs(e.argument) - math.pi) < 1e-12 for e in report.eigenvalues)
        assert all(e.argument_in_window for e in report.eigenvalues)


class TestCounterexampleScan:
    def test_lehmer_chain_and_gap(self):
        scan = counterexample_scan([LEHMER], 2, [1, 10])
        by_m = {e.m: e for e in scan.entries}
        assert by_m[1].hypothesis_met and by_m[1].chain_holds
        assert not by_m[10].hypothesis_met
        assert by_m[10].hypothesis_gap == pytest.approx(
            1.17628082 / math.exp(1 / 20), rel=1e-6
        )

    def test_mixed_classes_rejected(self):
        with pytest.raises(ValueError):
            counterexample_scan([LEHMER, COMPLEX_SALEM_OCTIC], 2, [1])

    def test_same_class_accepted(self):
        salems = [LEHMER, IntPoly.of(1, -1, -1, -1, 1)]
        scan = counterexample_scan(salems, 2, [1, 2])
        assert len(scan.entries) == 4
        assert all(e.hypothesis_met is not None for e in scan.entries)
