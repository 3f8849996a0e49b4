"""The field tower L = Q(alpha) over K = Q(alpha + 1/alpha): membership
classification, embedding classes, signatures, and the multiplication matrix."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .intpoly import REDUCIBLE, IntPoly, IrreducibilityReport
from .roots import NONREAL_UPPER, ON_CIRCLE, OUTSIDE, REAL, RootCounts, root_counts

REAL_SPLIT = "real_split"
COMPLEX_SPLIT = "complex_split"
CIRCLE_COMPACT = "circle_compact"


@dataclass(frozen=True)
class PsrClassification:
    poly: IntPoly
    member: bool
    reason: Optional[str]
    s: Optional[int]
    r: Optional[int]
    satisfies_L: Optional[bool]
    irreducibility: Optional[IrreducibilityReport]
    profile: Optional[RootCounts] = None  # set for members and reducible inputs


def classify_Psr(p: IntPoly) -> PsrClassification:
    """Membership in the monic/irreducible/palindromic class with exact (s, r).

    satisfies_L records whether p has at least one root of absolute value 1
    (equivalently deg p > 2 s(p) for members).  Past the shape checks, one
    record root_counts(p) decides irreducibility (`RootCounts.irreducibility`)
    before any root is polished; an Unknown status (above DEGREE_CAP,
    squarefree, s >= 2 and (s, r) != (2, 0)) counts as a member.  The
    record is returned as `profile` for members and reducible inputs
    alike; this function polishes no root.
    """
    if p.is_zero:
        return PsrClassification(p, False, "zero polynomial", None, None, None, None)
    if not p.is_monic:
        return PsrClassification(p, False, "not monic", None, None, None, None)
    if not p.is_palindromic():
        return PsrClassification(p, False, "not palindromic", None, None, None, None)
    if p.degree < 2 or p.degree % 2 != 0:
        return PsrClassification(p, False, "degree not even >= 2", None, None, None, None)
    counts = root_counts(p)
    report = counts.irreducibility
    if report.status == REDUCIBLE:
        return PsrClassification(p, False, "reducible", None, None, None, report, counts)
    return PsrClassification(
        p, True, None, counts.s, counts.r, counts.on_circle >= 1, report, counts
    )


@dataclass(frozen=True)
class Embedding:
    index: int  # 1-based, following the root ordering convention
    alpha_value: complex
    radius: float
    klass: str


@dataclass(frozen=True)
class FieldSummary:
    poly: IntPoly
    trace_poly: IntPoly
    embeddings: tuple[Embedding, ...]
    signature_K: tuple[int, int]
    s: int
    r: int
    d: int

    @property
    def t(self) -> int:
        return (self.s - self.r) // 2


def field_summary(p: IntPoly) -> FieldSummary:
    """Build the embedding data of K = Q(alpha + 1/alpha) for a member p.

    The d embeddings of K are classified by the location of the chosen
    alpha-preimage: real split (i <= r), complex split (r < i <= s), circle
    compact (s < i <= d).  The signature is (r - s + d, (s - r)/2), read
    off the member's exact counts, whose Sturm chain is the trace
    polynomial's own, so it is not counted again.  The trace polynomial is
    checked by re-expanding it exactly.
    """
    cls = classify_Psr(p)
    if not cls.member:
        raise ValueError(f"not a member polynomial: {cls.reason}")
    profile = cls.profile
    s, r = profile.s, profile.r
    d = p.degree // 2
    trace_poly = p.trace_polynomial()

    # exact identity p(y) = y^d * Q(y + 1/y), re-expanded as
    # sum_k q_k (y^2 + 1)^k y^(d - k)
    expand = IntPoly()
    y2p1 = IntPoly((1, 0, 1))
    for k, qk in enumerate(trace_poly.coeffs):
        expand = expand + qk * (y2p1**k * IntPoly.x_power(d - k))
    if expand != p:
        raise AssertionError("trace-polynomial identity failed to re-expand")

    # profile.roots is in refine_roots' order: real outside roots, upper
    # outside roots then their conjugates (at r+1..r+t and after), then the
    # circle roots, of which the upper ones are kept
    embeddings: list[Embedding] = []
    for z in profile.roots:
        if z.location == OUTSIDE:
            klass = REAL_SPLIT if z.realness == REAL else COMPLEX_SPLIT
        elif z.location == ON_CIRCLE and z.realness == NONREAL_UPPER:
            klass = CIRCLE_COMPACT
        else:
            continue
        embeddings.append(Embedding(len(embeddings) + 1, z.approx, z.radius, klass))
    if sum(e.klass == CIRCLE_COMPACT for e in embeddings) != d - s:
        raise AssertionError("circle roots of an irreducible member must pair")

    return FieldSummary(
        poly=p,
        trace_poly=trace_poly,
        embeddings=tuple(embeddings),
        signature_K=(r - s + d, (s - r) // 2),
        s=s,
        r=r,
        d=d,
    )


def multiplication_matrix(p: IntPoly) -> list[list[int]]:
    """Companion matrix of p: multiplication by alpha on Q[x]/(p) in the
    power basis.  Determinant is +1 for palindromic p of even degree."""
    if p.is_zero or not p.is_monic:
        raise ValueError("multiplication matrix requires a monic polynomial")
    n = p.degree
    if n == 0:
        raise ValueError("degree must be >= 1")
    mat = [[0] * n for _ in range(n)]
    for k in range(n - 1):
        mat[k + 1][k] = 1
    for i in range(n):
        mat[i][n - 1] = -p.coeffs[i]
    return mat

