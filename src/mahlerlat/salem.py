"""Salem / complex-Salem certification and bounded exhaustive search."""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .intpoly import UNKNOWN, IntPoly, IrreducibilityReport
from .mahler import MahlerCertificate
from .roots import RootCounts, root_counts

SALEM = "salem"
COMPLEX_SALEM = "complex_salem"
NEITHER = "neither"


@dataclass(frozen=True)
class SalemCertificate:
    poly: IntPoly
    kind: str
    salem_value: Optional[float]
    profile: RootCounts
    irreducibility: IrreducibilityReport

    @property
    def irreducibility_unknown(self) -> bool:
        return self.irreducibility.status == UNKNOWN

    @classmethod
    def of(cls, counts: RootCounts) -> SalemCertificate:
        """Classify counts.poly as Salem, complex Salem, or neither.

        Salem: s = 1, r = 1, at least one circle root, palindromic,
        irreducible, degree >= 4, and p(1) < 0, i.e. the outside root is
        > 1 (its x -> -x image, with outside root < -1, is neither).
        Complex Salem: exactly one conjugate pair outside the disk (s = 2,
        r = 0), at least one circle root, irreducible.  The kind is read
        off the exact counts, and irreducibility is the record's own decision
        (`RootCounts.irreducibility`); for either Salem kind that is the
        cyclotomic-factor test of Kronecker's theorem, which never factors.
        A reducible or Unknown irreducibility downgrades the kind to neither
        (Unknown is flagged).  The Salem number reads only
        `counts.outside_roots`.
        """
        p = counts.poly
        if not p.is_monic or p.degree < 1:
            raise ValueError("certification requires a monic polynomial of degree >= 1")
        kind = _salem_kind(counts)
        report = counts.irreducibility
        if not report.is_irreducible:
            kind = NEITHER
        value = _salem_value(counts) if kind != NEITHER else None
        return cls(p, kind, value, counts, report)


def certify(p: IntPoly) -> SalemCertificate:
    """SalemCertificate.of root_counts(p): only the outside roots of p are
    polished, and only when p is of a Salem kind."""
    return SalemCertificate.of(root_counts(p))


def _salem_kind(counts: RootCounts) -> str:
    """The kind that the exact counts (s, r, on_circle) of p = counts.poly
    and its shape allow, before irreducibility is known.

    For a palindromic p with s = r = 1 and real outside root alpha, every
    other root but 1/alpha lies on the circle, so p(1) is
    (1 - alpha)(1 - 1/alpha) = 2 - alpha - 1/alpha times |1 - omega|^2 for
    each conjugate pair omega, 2 for each root at -1 and 0 for a root at 1:
    p(1) < 0 iff alpha > 1 and 1 is not a root."""
    p = counts.poly
    if counts.on_circle >= 1:
        if (counts.s == 1 and counts.r == 1 and p.is_palindromic() and p.degree >= 4
                and p(1) < 0):
            return SALEM
        if counts.s == 2 and counts.r == 0:
            return COMPLEX_SALEM
    return NEITHER


def _salem_value(counts: RootCounts) -> float:
    return max(abs(z.approx) for z in counts.outside_roots)


def complex_salem_from_salem(p: IntPoly) -> tuple[IntPoly, SalemCertificate]:
    """p(-x^2) for a Salem p, with its certificate: a complex-Salem
    candidate with the same measure, since M(p(-x^2)) = M(p) is a theorem
    (the tests compare the two certified measures)."""
    if certify(p).kind != SALEM:
        raise ValueError("input is not the minimal polynomial of a Salem number")
    q = p.compose_neg_x_squared()
    return q, certify(q)


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
    p, its reversal, p(-x), and the reversal of p(-x) (measure-preserving).

    Every representative of a box polynomial lies in the box at its degree,
    and the enumerators yield each degree in lexicographic order of coeffs,
    so the first member of a class enumerated is the one with
    canonical_form(p) == p.coeffs."""
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

    Candidates are deduplicated under coefficient reversal and x -> -x:
    only the one with canonical_form(p) == p.coeffs is analysed.  Each is
    counted exactly once: measure 1 is s = 0 (Kronecker's theorem), and the
    (s, r) filter reads the same counts; only the outside roots of
    the polynomials kept are polished.  Results are sorted ascending by
    measure (deterministically, with the polynomial as tiebreaker).  A
    negative degree_max or height_max is a ValueError.
    """
    if degree_max < 0 or height_max < 0:
        raise ValueError("search box sizes must be >= 0")
    result = SearchResult()
    start = time.monotonic()
    found: list[tuple[IntPoly, MahlerCertificate]] = []
    for p in _candidates(degree_max, height_max, palindromic_only):
        if budget_seconds is not None and time.monotonic() - start > budget_seconds:
            result.complete = False
            break
        result.scanned += 1
        if canonical_form(p) != p.coeffs:
            continue
        counts = root_counts(p)
        if counts.s == 0:
            continue
        if filter_sr is not None and (counts.s, counts.r) != filter_sr:
            continue
        found.append((p, MahlerCertificate.of(counts)))
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

    Candidates are enumerated once per class under x -> -x, which keeps the
    measure: the one with canonical_form(p) == p.coeffs stands for its
    class.  A Salem member has p(1) < 0 (`_salem_kind`), and p(-x) takes the
    value p(-1) at 1, so a class with p(1) >= 0 and p(-1) >= 0 holds none and
    is skipped, and otherwise the member with p(1) < 0 is analysed.  It is
    certified as certify would, exact counts first, then the irreducibility
    of those counts, which for a Salem kind is the cyclotomic-factor test and
    needs no factorisation; only its one outside root is polished.  A
    negative height_max is a ValueError."""
    if n < 4 or n % 2 != 0:
        raise ValueError("beta_n requires an even n >= 4")
    if height_max < 0:
        raise ValueError("search box sizes must be >= 0")
    best: Optional[tuple[float, IntPoly, float]] = None
    for degree in range(4, n + 1, 2):
        for p in _enumerate_palindromic(degree, height_max):
            if canonical_form(p) != p.coeffs:
                continue
            if p(1) >= 0:
                if p(-1) >= 0:
                    continue
                p = _negate_var(p)
            counts = root_counts(p)
            if _salem_kind(counts) != SALEM or not counts.irreducibility.is_irreducible:
                continue
            value = _salem_value(counts)
            if best is None or value < best[0]:
                best = (value, p, math.log(value))
    if best is None:
        raise ValueError("no Salem polynomial in the search box")
    value, poly, logv = best
    return BetaCertificate(n, height_max, poly, value, logv)
