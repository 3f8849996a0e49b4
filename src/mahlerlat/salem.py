"""Salem / complex-Salem certification and bounded exhaustive search."""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .intpoly import UNKNOWN, IntPoly, IrreducibilityReport, irreducibility_report
from .mahler import MahlerCertificate, mahler_measure
from .roots import RootProfile, refine_outside_roots, root_counts

SALEM = "salem"
COMPLEX_SALEM = "complex_salem"
NEITHER = "neither"


@dataclass(frozen=True)
class SalemCertificate:
    poly: IntPoly
    kind: str
    salem_value: Optional[float]
    profile: RootProfile
    irreducibility: IrreducibilityReport

    @property
    def irreducibility_unknown(self) -> bool:
        return self.irreducibility.status == UNKNOWN


def certify(p: IntPoly, *, profile: Optional[RootProfile] = None) -> SalemCertificate:
    """Classify p as Salem, complex Salem, or neither, from exact counts.

    Salem: s = 1, r = 1, at least one circle root, palindromic, irreducible,
    degree >= 4.  Complex Salem: exactly one conjugate pair outside the disk
    (s = 2, r = 0), at least one circle root, irreducible.  An Unknown
    irreducibility downgrades the kind to neither (flagged).

    The kind reads only the exact counts and the Salem number only the
    outside roots, so without a given profile only the outside roots are
    polished (refine_outside_roots) and the certificate's profile holds
    those alone; a profile from refine_roots(p) is used as given.
    """
    if p.is_zero or not p.is_monic or p.degree < 1:
        raise ValueError("certification requires a monic polynomial of degree >= 1")
    if profile is None:
        profile = refine_outside_roots(root_counts(p))
    report = irreducibility_report(p)
    kind = _salem_kind(p, profile) if report.is_irreducible else NEITHER
    value = _salem_value(profile) if kind != NEITHER else None
    return SalemCertificate(p, kind, value, profile, report)


def _salem_kind(p: IntPoly, counts) -> str:
    """The kind that the exact counts (s, r, on_circle) of p and its shape
    allow, before irreducibility is known; counts is a RootProfile or a
    RootCounts."""
    if counts.on_circle >= 1:
        if counts.s == 1 and counts.r == 1 and p.is_palindromic() and p.degree >= 4:
            return SALEM
        if counts.s == 2 and counts.r == 0:
            return COMPLEX_SALEM
    return NEITHER


def _salem_value(profile: RootProfile) -> float:
    return max(abs(z.approx) for z in profile.outside_roots())


def complex_salem_from_salem(p: IntPoly) -> tuple[IntPoly, SalemCertificate]:
    """p(-x^2) for a Salem p: a complex-Salem candidate with the same measure."""
    base = certify(p)
    if base.kind != SALEM:
        raise ValueError("input is not the minimal polynomial of a Salem number")
    q = p.compose_neg_x_squared()
    cert = certify(q)
    m_p = mahler_measure(p, profile=base.profile)
    m_q = mahler_measure(q, profile=cert.profile)
    if abs(m_p.value - m_q.value) > m_p.error_radius + m_q.error_radius:
        raise AssertionError("measure not preserved under p(-x^2)")
    return q, cert


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------


@dataclass
class SearchResult:
    minima: list[tuple[IntPoly, MahlerCertificate]] = field(default_factory=list)
    scanned: int = 0
    elapsed: float = 0.0
    complete: bool = True


def canonical_form(p: IntPoly) -> tuple[int, ...]:
    """Dedup key: lexicographically least monic representative among
    p, its reversal, p(-x), and the reversal of p(-x) (measure-preserving)."""
    candidates = []
    for q in (p, _negate_var(p)):
        candidates.append(q.coeffs)
        if abs(q.coeffs[0]) == 1:
            rev = q.reciprocal()
            if rev.leading < 0:
                rev = -rev
            candidates.append(rev.coeffs)
    return min(candidates)


def _negate_var(p: IntPoly) -> IntPoly:
    q = IntPoly(c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs))
    return -q if q.leading < 0 else q


def _enumerate_monic(degree: int, height: int) -> Iterator[IntPoly]:
    rng = range(-height, height + 1)
    for lower in itertools.product(rng, repeat=degree):
        yield IntPoly(lower + (1,))


def _enumerate_palindromic(degree: int, height: int) -> Iterator[IntPoly]:
    # monic palindromic: constant term 1, mirrored interior coefficients
    if degree % 2 != 0:
        return  # odd-degree palindromics are divisible by x + 1: never minima
    half = degree // 2
    rng = range(-height, height + 1)
    for interior in itertools.product(rng, repeat=half):
        yield IntPoly((1,) + interior + tuple(reversed(interior[:-1])) + (1,))


def _candidates(degree_max: int, height_max: int, palindromic_only: bool) -> Iterator[IntPoly]:
    gen = _enumerate_palindromic if palindromic_only else _enumerate_monic
    for degree in range(1, degree_max + 1):
        yield from gen(degree, height_max)


def search_box(
    degree_max: int,
    height_max: int,
    filter_sr: Optional[tuple[int, int]] = None,
    palindromic_only: bool = False,
    budget_seconds: Optional[float] = None,
) -> SearchResult:
    """Enumerate monic polynomials in the box and rank Mahler measures > 1.

    Candidates are deduplicated under coefficient reversal and x -> -x, and
    each is counted exactly once: measure 1 is s = 0 (Kronecker's theorem),
    and the (s, r) filter reads the same counts; only the outside roots of
    the polynomials kept are polished.  Results are sorted ascending by
    measure (deterministically, with the polynomial as tiebreaker).  A
    negative degree_max or height_max is a ValueError.
    """
    if degree_max < 0 or height_max < 0:
        raise ValueError("search box sizes must be >= 0")
    result = SearchResult()
    start = time.monotonic()
    seen: set[tuple[int, ...]] = set()
    found: list[tuple[IntPoly, MahlerCertificate]] = []
    for p in _candidates(degree_max, height_max, palindromic_only):
        if budget_seconds is not None and time.monotonic() - start > budget_seconds:
            result.complete = False
            break
        result.scanned += 1
        key = canonical_form(p)
        if key in seen:
            continue
        seen.add(key)
        counts = root_counts(p)
        if counts.s == 0:
            continue
        if filter_sr is not None and (counts.s, counts.r) != filter_sr:
            continue
        cert = mahler_measure(p, profile=refine_outside_roots(counts))
        found.append((p, cert))
    found.sort(key=lambda item: (item[1].value, item[0].coeffs))
    result.minima = found
    result.elapsed = time.monotonic() - start
    return result


@dataclass(frozen=True)
class BetaCertificate:
    n: int
    height_max: int
    poly: IntPoly
    salem_value: float
    log_value: float
    note: str = "upper bound for beta_n, certified minimal within the height box"


def beta_n(n: int, height_max: int) -> BetaCertificate:
    """min log(alpha) over certified Salem polynomials of degree <= n within
    the height box.  Global minimality over all heights is not decided.

    Candidates are deduplicated under x -> -x, which keeps the Salem number.
    Each is certified as certify would, exact counts first; only its one
    outside root is polished.  A negative height_max is a ValueError."""
    if n < 4 or n % 2 != 0:
        raise ValueError("beta_n requires an even n >= 4")
    if height_max < 0:
        raise ValueError("search box sizes must be >= 0")
    best: Optional[tuple[float, IntPoly, float]] = None
    seen: set[tuple[int, ...]] = set()
    for degree in range(4, n + 1, 2):
        for p in _enumerate_palindromic(degree, height_max):
            key = canonical_form(p)
            if key in seen:
                continue
            seen.add(key)
            counts = root_counts(p)
            if _salem_kind(p, counts) != SALEM or not irreducibility_report(p).is_irreducible:
                continue
            value = _salem_value(refine_outside_roots(counts))
            if best is None or value < best[0]:
                best = (value, p, math.log(value))
    if best is None:
        raise ValueError("no Salem polynomial in the search box")
    value, poly, logv = best
    return BetaCertificate(n, height_max, poly, value, logv)
