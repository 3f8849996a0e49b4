"""Acceptance suite: one test per criterion, each emitting a single
PASS/FAIL line on the real stderr stream (visible under pytest capture)."""
import functools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np

from adjoint_oracle import rounded_global_product
from count_oracle import kronecker_test
from mahlerlat.fields import classify_Psr, field_summary
from mahlerlat.intpoly import LEHMER, IntPoly
from mahlerlat.lattice import build_gamma, dirichlet_c, eta, gamma_power_report
from mahlerlat.mahler import (
    mahler_measure,
    schinzel_bound,
    smyth_threshold,
    voutier_bound,
)
from mahlerlat.roots import refine_roots, root_counts
from mahlerlat.salem import (
    COMPLEX_SALEM,
    SALEM,
    beta_n,
    canonical_form,
    certify,
    complex_salem_from_salem,
    search_box,
)
from mahlerlat.adjoint import global_integrality
from mahlerlat.cli import bundled_corpus

SALEM_QUARTIC = IntPoly.of(1, -1, -1, -1, 1)


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} [{label}]: FAIL", file=sys.__stderr__)
                raise
            print(f"criterion {num:2d} [{label}]: PASS", file=sys.__stderr__)

        return run

    return wrap


@criterion(1, "Lehmer value")
def test_criterion_01_lehmer_value():
    start = time.monotonic()
    cert = mahler_measure(LEHMER)
    elapsed = time.monotonic() - start
    assert abs(cert.value - 1.17628) < 1e-4
    assert cert.error_radius <= 1e-6
    assert not cert.is_one_exact
    assert elapsed < 1.0


@criterion(2, "Kronecker oracle equivalence")
def test_criterion_02_kronecker_oracle():
    import itertools

    start = time.monotonic()
    checked = 0
    for degree in range(1, 9):
        for lower in itertools.product((-1, 0, 1), repeat=degree):
            p = IntPoly(lower + (1,))
            roots = np.roots(list(reversed(p.coeffs)))
            numeric = all(abs(z) <= 1 + 1e-5 for z in roots)
            measure_one = root_counts(p).s == 0
            assert measure_one == kronecker_test(p), f"Graeffe oracle disagrees at {p}"
            assert measure_one == numeric, f"numpy disagrees at {p}"
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == sum(3**d for d in range(1, 9))
    assert elapsed < 120.0


@criterion(3, "exhaustive palindromic minimum is Lehmer")
def test_criterion_03_exhaustive_minimum():
    start = time.monotonic()
    result = search_box(10, 1, palindromic_only=True)
    elapsed = time.monotonic() - start
    assert result.complete
    best_poly, best_cert = result.minima[0]
    assert canonical_form(best_poly) == canonical_form(LEHMER)
    assert best_cert.value > 1
    # unique minimum up to the dedup group
    if len(result.minima) > 1:
        assert result.minima[1][1].value > best_cert.value + 1e-9
    assert elapsed < 300.0


@criterion(4, "Salem quartic and beta_4")
def test_criterion_04_salem_quartic():
    result = search_box(4, 1, filter_sr=(1, 1), palindromic_only=True)
    poly, cert = result.minima[0]
    assert canonical_form(poly) == canonical_form(SALEM_QUARTIC)
    assert abs(cert.value - 1.72208) <= 1e-4
    beta = beta_n(4, 1)
    assert abs(beta.log_value - math.log(cert.value)) < 1e-9


@criterion(5, "signature identity on corpus members")
def test_criterion_05_signature_identity():
    members = [e for e in bundled_corpus() if classify_Psr(e.poly).member]
    assert members
    for entry in members:
        summary = field_summary(entry.poly)
        s, r, d = summary.s, summary.r, summary.d
        assert summary.signature_K == (r - s + d, (s - r) // 2)
        # third, fully independent route: numeric real-root count of Q
        roots = np.roots(list(reversed(summary.trace_poly.coeffs)))
        numeric_real = sum(1 for z in roots if abs(z.imag) < 1e-7)
        assert numeric_real == summary.signature_K[0]
    lehmer_summary = field_summary(LEHMER)
    assert lehmer_summary.signature_K == (5, 0)


@criterion(6, "trace-polynomial re-expansion identity")
def test_criterion_06_trace_identity():
    members = [
        e
        for e in bundled_corpus()
        if e.poly.degree <= 16 and classify_Psr(e.poly).member
    ]
    assert members
    for entry in members:
        p = entry.poly
        d = p.degree // 2
        q = p.trace_polynomial()
        expand = IntPoly()
        for k, qk in enumerate(q.coeffs):
            expand = expand + qk * (IntPoly.of(1, 0, 1) ** k * IntPoly.x_power(d - k))
        assert expand == p, f"re-expansion failed for {p}"


@criterion(7, "Dirichlet property suite")
def test_criterion_07_dirichlet_suite():
    rng = random.Random(20260823)
    for _ in range(1000):
        t = rng.randint(0, 3)
        m = rng.randint(1, 6)
        targets = tuple(
            Fraction(rng.randint(0, 999), rng.randint(1, 1000)) for _ in range(t)
        )
        witness = dirichlet_c(targets, m)
        assert 1 <= witness.c <= m**t
        window = Fraction(1, m)
        assert all(abs(res) <= window for res in witness.residues)
        # exact brute-force minimality, implemented independently
        for c in range(1, witness.c):
            ok = True
            for x in targets:
                r = (c * x) % 1
                if r > Fraction(1, 2):
                    r -= 1
                if abs(r) > window:
                    ok = False
                    break
            assert not ok, f"c={c} beats witness {witness.c} for {targets}, m={m}"


@criterion(8, "conditional chain and unconditional argument window")
def test_criterion_08_conditional_chain():
    element = build_gamma(field_summary(LEHMER), 2)

    report1 = gamma_power_report(element, 1)
    assert report1.mahler_hypothesis_met  # M < exp(1/2)
    outside = [e for e in report1.eigenvalues if abs(e.value) > 1]
    assert outside
    for e in outside:
        assert 1 < abs(e.value) <= math.exp(1.0) + 1e-9

    report10 = gamma_power_report(element, 10)
    assert not report10.mahler_hypothesis_met
    gap = report10.mahler.value / math.exp(float(eta(10, element.summary.t)))
    assert gap > 1  # the hypothesis gap is real and reportable

    # unconditional argument window for every corpus member, all m <= 8
    members = [e for e in bundled_corpus() if classify_Psr(e.poly).member]
    for entry in members:
        el = build_gamma(field_summary(entry.poly), 2)
        for m in range(1, 9):
            rep = gamma_power_report(el, m)
            assert rep.all_argument_flags, f"{entry.poly} fails at m={m}"
            for e in rep.eigenvalues:
                assert abs(e.argument) <= 2 * math.pi / m + 1e-9


@criterion(9, "global adjoint integrality")
def test_criterion_09_adjoint_integrality():
    start = time.monotonic()
    members = [
        e
        for e in bundled_corpus()
        if e.poly.degree <= 12 and classify_Psr(e.poly).member
    ]
    assert members
    for entry in members:
        summary = field_summary(entry.poly)
        for n in (2, 3):
            report = global_integrality(summary, n)
            oracle, err = rounded_global_product(summary, n)
            assert err <= 1e-6 and report.global_poly == oracle
            assert report.s_global <= (n * n - 1) * (summary.r + 2 * summary.t)
            if certify(entry.poly).kind == SALEM:
                assert not report.torsion
    assert time.monotonic() - start < 60.0


@criterion(10, "measure preservation under P(-x^2)")
def test_criterion_10_measure_preservation():
    salems = [e for e in bundled_corpus() if certify(e.poly).kind == SALEM]
    assert salems
    for entry in salems:
        q, cert = complex_salem_from_salem(entry.poly)
        m_p = mahler_measure(entry.poly)
        m_q = mahler_measure(q)
        assert abs(m_p.value - m_q.value) <= m_p.error_radius + m_q.error_radius + 1e-12
        if cert.irreducibility.status == "irreducible":
            assert cert.kind == COMPLEX_SALEM


@criterion(11, "classical bound suite")
def test_criterion_11_bound_suite():
    from mahlerlat.intpoly import irreducibility_report
    from mahlerlat.mahler import is_totally_real

    entries = bundled_corpus()
    threshold = smyth_threshold()
    for entry in entries:
        p = entry.poly
        d = p.degree
        cert = mahler_measure(p)
        irr = irreducibility_report(p).status == "irreducible"
        cyclotomic = cert.is_one_exact
        if irr and not cyclotomic and d >= 3:
            assert cert.value > voutier_bound(d), f"{p} below Voutier"
        profile = refine_roots(p)
        if is_totally_real(profile) and d >= 2 and not cyclotomic:
            assert cert.upper >= schinzel_bound(d) - 1e-9, f"{p} below Schinzel"
        if 1 < cert.value < threshold:
            assert p.is_palindromic(), f"{p} small measure but not palindromic"
