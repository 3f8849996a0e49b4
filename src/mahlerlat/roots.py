"""Certified complex roots and exact root-location counts.

The exact counts (inside / on / outside the unit circle, real roots beyond
[-1, 1]) are decided algebraically: Sturm sequences over exact rationals for
everything touching the real line or the circle, a Schur-Cohn recursion for
generic off-circle inside counts, and a certified-disk fallback where that
recursion degenerates.  The numeric refinement never decides a count; it only
has to agree with the exact ones.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath
import numpy as np

from .intpoly import IntPoly, _half_trace, exact_div, poly_gcd

INSIDE = "inside"
ON_CIRCLE = "on_circle"
OUTSIDE = "outside"

REAL = "real"
NONREAL_UPPER = "nonreal_upper"
NONREAL_LOWER = "nonreal_lower"

DEFAULT_PRECISION = 1e-12


class CertificationError(RuntimeError):
    """Root isolation could not be certified at the requested precision."""

    def __init__(self, message: str, achieved_radii=None):
        super().__init__(message)
        self.achieved_radii = achieved_radii or []


@dataclass(frozen=True)
class CertifiedRoot:
    approx: complex
    radius: float
    multiplicity: int
    location: str
    realness: str


@dataclass(frozen=True)
class RootProfile:
    poly: IntPoly
    roots: tuple[CertifiedRoot, ...]
    s: int
    r: int
    on_circle: int
    degree: int

    @property
    def inside(self) -> int:
        return self.degree - self.s - self.on_circle

    @property
    def is_squarefree(self) -> bool:
        return all(root.multiplicity == 1 for root in self.roots)

    def outside_roots(self) -> list[CertifiedRoot]:
        return [z for z in self.roots if z.location == OUTSIDE]


# ---------------------------------------------------------------------------
# Sturm sequences (exact, over Fraction)
# ---------------------------------------------------------------------------


def _to_q(p: IntPoly) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _q_normalize(a: list[Fraction]) -> list[Fraction]:
    """Scale by a positive rational to an integer primitive representative."""
    if not a:
        return a
    from math import gcd, lcm

    den = lcm(*(c.denominator for c in a)) if len(a) > 1 else a[0].denominator
    ints = [int(c * den) for c in a]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return [Fraction(c // g) for c in ints]


def sturm_chain(p: IntPoly) -> list[list[Fraction]]:
    if p.degree <= 0:
        return [_to_q(p)]
    chain = [_q_normalize(_to_q(p)), _q_normalize(_to_q(p.derivative()))]
    while chain[-1]:
        a, b = chain[-2], chain[-1]
        r = _q_rem(a, b)
        if not r:
            break
        chain.append(_q_normalize([-c for c in r]))
    return chain


def _q_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b) and a:
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        for i, bc in enumerate(b):
            a[k + i] -= c * bc
        while a and a[-1] == 0:
            a.pop()
    return a


def _eval_q(a: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _sign_at(a: list[Fraction], x) -> int:
    if x == "-inf":
        s = a[-1]
        return (1 if s > 0 else -1) * (1 if (len(a) - 1) % 2 == 0 else -1)
    if x == "+inf":
        return 1 if a[-1] > 0 else -1
    v = _eval_q(a, x)
    return 0 if v == 0 else (1 if v > 0 else -1)


def _variations(chain: list[list[Fraction]], x) -> int:
    signs = [s for s in (_sign_at(f, x) for f in chain) if s != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u * v < 0)


def count_real_roots(p: IntPoly, a=None, b=None) -> int:
    """Distinct real roots of p in the half-open interval (a, b].

    None stands for -inf / +inf.  p must be squarefree for the count to be a
    root count; callers handle multiplicities.
    """
    if p.degree <= 0:
        return 0
    chain = sturm_chain(p)
    lo = "-inf" if a is None else Fraction(a)
    hi = "+inf" if b is None else Fraction(b)
    return _variations(chain, lo) - _variations(chain, hi)


# ---------------------------------------------------------------------------
# Exact location counts
# ---------------------------------------------------------------------------


def _strip_x(p: IntPoly) -> tuple[int, IntPoly]:
    k = 0
    cs = p.coeffs
    while cs and cs[0] == 0:
        k += 1
        cs = cs[1:]
    return k, IntPoly(cs)


def _schur_cohn_inside(u: IntPoly) -> Optional[int]:
    """Schur-Cohn count of roots with |z| < 1, or None on a degenerate step.

    Recursion: p_{k+1} = a_0 p_k - a_n p_k^* with delta_{k+1} = a_0^2 - a_n^2;
    when every delta is nonzero and the degree drops by exactly one each step,
    the inside count is the number of negative partial products of the deltas.
    """
    coeffs = list(_to_q(u))
    n = len(coeffs) - 1
    if n <= 0:
        return 0
    deltas = []
    cur = coeffs
    for _ in range(n):
        a0, an = cur[0], cur[-1]
        delta = a0 * a0 - an * an
        if delta == 0:
            return None
        nxt = [a0 * c - an * r for c, r in zip(cur, reversed(cur))]
        while nxt and nxt[-1] == 0:
            nxt.pop()
        if len(nxt) != len(cur) - 1:
            return None
        deltas.append(delta)
        cur = nxt
    count = 0
    prod = Fraction(1)
    for d in deltas:
        prod *= 1 if d > 0 else -1
        if prod < 0:
            count += 1
    return count


def _certified_inside(u: IntPoly) -> int:
    """Inside count by certified disks; valid only when u has no circle roots."""
    if u.degree <= 0:
        return 0
    for dps in (30, 60, 120, 240):
        approx = _polished_roots(u, dps)
        if all(abs(abs(z) - 1) > rad for z, rad in approx):
            return sum(1 for z, rad in approx if abs(z) < 1)
    raise CertificationError(f"could not separate roots of {u} from the unit circle")


def _split_counts_squarefree(f: IntPoly) -> tuple[int, int]:
    """Exact (inside, on_circle) root counts of a squarefree integer polynomial.

    The circle roots of f are exactly the common roots of f and its
    reciprocal.  That gcd g is self-reciprocal: its off-circle roots pair as
    z, 1/z, half of them inside, and after removing roots at +/-1 its circle
    roots biject (in pairs) with the real roots of its trace transform in
    (-2, 2).  The cofactor f / g has no circle roots, so Schur-Cohn (or the
    certified-disk fallback) counts its inside roots.
    """
    k, f = _strip_x(f)
    if f.degree <= 0:
        return k, 0
    g = poly_gcd(f, f.reciprocal())
    u = exact_div(f, g) if g.degree > 0 else f
    h, on_circle = g, 0
    for root in (1, -1):
        if h(root) == 0:
            on_circle += 1
            h = exact_div(h, IntPoly((-root, 1)))
    if h.degree > 0:
        if not (h.coeffs == tuple(reversed(h.coeffs))):
            raise AssertionError("reciprocal gcd must be palindromic")
        q = _half_trace(h.coeffs)
        # endpoints +/-2 would force a double root of h at +/-1: impossible
        on_circle += 2 * count_real_roots(q, Fraction(-2), Fraction(2))
    inside = k + (g.degree - on_circle) // 2
    if u.degree > 0:
        sc = _schur_cohn_inside(u)
        inside += sc if sc is not None else _certified_inside(u)
    return inside, on_circle


def count_inside_unit_disk(p: IntPoly) -> int:
    """Exact count, with multiplicity, of roots with |z| < 1."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    return sum(m * _split_counts_squarefree(f)[0] for f, m in p.squarefree_decomposition())


def count_on_unit_circle(p: IntPoly) -> int:
    """Exact count, with multiplicity, of roots with |z| = 1."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    return sum(m * _split_counts_squarefree(f)[1] for f, m in p.squarefree_decomposition())


def count_real_outside(p: IntPoly) -> int:
    """r(P): real roots in (-inf, -1) or (1, inf), with multiplicity."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    total = 0
    for f, m in p.squarefree_decomposition():
        left = count_real_roots(f, None, Fraction(-1))
        if f(-1) == 0:
            left -= 1
        right = count_real_roots(f, Fraction(1), None)
        total += m * (left + right)
    return total


# ---------------------------------------------------------------------------
# Numeric refinement
# ---------------------------------------------------------------------------


def _polished_roots(f: IntPoly, dps: int) -> list[tuple[complex, float]]:
    """Newton-polished roots of a squarefree f with a posteriori radii.

    The radius bound is the classical deg * |f(z)/f'(z)|: the disk of that
    radius around z contains at least one root of f.
    """
    n = f.degree
    seeds = np.roots(list(reversed(f.coeffs)))
    out = []
    with mpmath.workdps(dps):
        coeffs = [mpmath.mpf(c) for c in reversed(f.coeffs)]
        dcoeffs = [mpmath.mpf(c) for c in reversed(f.derivative().coeffs)]
        for seed in seeds:
            z = mpmath.mpc(seed)
            if abs(z.imag) < 1e-9:
                z = mpmath.mpc(z.real, 0)
            for _ in range(80):
                fz = mpmath.polyval(coeffs, z)
                dz = mpmath.polyval(dcoeffs, z)
                if dz == 0:
                    break
                step = fz / dz
                z = z - step
                if abs(step) < mpmath.mpf(10) ** (-dps + 5):
                    break
            fz = mpmath.polyval(coeffs, z)
            dz = mpmath.polyval(dcoeffs, z)
            rad = float(n * abs(fz / dz)) if dz != 0 else float("inf")
            out.append((complex(z), rad))
    return out


def _classify_squarefree(
    f: IntPoly, precision: float
) -> list[tuple[complex, float, str, str]]:
    """Certified (approx, radius, location, realness) for each root of f."""
    n = f.degree
    n_inside, n_circle = _split_counts_squarefree(f)
    n_real = count_real_roots(f)
    achieved = None
    dps = max(30, int(-np.log10(precision)) + 15)
    while dps <= 2000:
        approx = _polished_roots(f, dps)
        achieved = [rad for _, rad in approx]
        ok = (
            len(approx) == n
            and all(rad < precision for _, rad in approx)
            and _pairwise_isolated(approx)
        )
        if ok:
            labelled = _assign_locations(approx, n_inside, n_circle)
            if labelled is not None:
                real_labelled = _assign_realness(labelled, n_real)
                if real_labelled is not None:
                    return real_labelled
        dps *= 2
    raise CertificationError(
        f"failed to certify roots of {f} at precision {precision}", achieved
    )


def _pairwise_isolated(approx: list[tuple[complex, float]]) -> bool:
    for i, (zi, ri) in enumerate(approx):
        for zj, rj in approx[i + 1 :]:
            if abs(zi - zj) <= ri + rj:
                return False
    return True


def _assign_locations(approx, n_inside, n_circle):
    ordered = sorted(range(len(approx)), key=lambda i: abs(abs(approx[i][0]) - 1))
    circle_idx = set(ordered[:n_circle])
    labelled = []
    counts = {INSIDE: 0, ON_CIRCLE: 0, OUTSIDE: 0}
    for i, (z, rad) in enumerate(approx):
        if i in circle_idx:
            if abs(abs(z) - 1) > max(10 * rad, 1e-15):
                return None
            loc = ON_CIRCLE
        elif abs(z) + rad < 1:
            loc = INSIDE
        elif abs(z) - rad > 1:
            loc = OUTSIDE
        else:
            return None
        counts[loc] += 1
        labelled.append((z, rad, loc))
    if counts[INSIDE] != n_inside or counts[ON_CIRCLE] != n_circle:
        return None
    return labelled


def _assign_realness(labelled, n_real):
    ordered = sorted(range(len(labelled)), key=lambda i: abs(labelled[i][0].imag))
    real_idx = set(ordered[:n_real])
    out = []
    for i, (z, rad, loc) in enumerate(labelled):
        if i in real_idx:
            if abs(z.imag) > max(10 * rad, 1e-15):
                return None
            out.append((complex(z.real, 0.0), rad, loc, REAL))
        else:
            if abs(z.imag) <= rad:
                return None
            out.append((z, rad, loc, NONREAL_UPPER if z.imag > 0 else NONREAL_LOWER))
    return out


_LOC_RANK = {OUTSIDE: 0, ON_CIRCLE: 1, INSIDE: 2}
_REALNESS_RANK = {REAL: 0, NONREAL_UPPER: 1, NONREAL_LOWER: 2}


def refine_roots(p: IntPoly, precision: float = DEFAULT_PRECISION) -> RootProfile:
    """Certified roots of p with exact location counts attached.

    Roots are ordered: real roots outside the unit circle first, then the
    non-real outside roots in conjugate-paired order (upper-half entries
    followed by their conjugates), then on-circle roots, then inside roots.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    entries: list[CertifiedRoot] = []
    for f, mult in p.squarefree_decomposition():
        if f.degree <= 0:
            continue
        for z, rad, loc, realness in _classify_squarefree(f, precision):
            entries.append(CertifiedRoot(z, rad, mult, loc, realness))

    def sort_key(root: CertifiedRoot):
        return (_LOC_RANK[root.location], _REALNESS_RANK[root.realness],
                -abs(root.approx), root.approx.real, root.approx.imag)

    entries.sort(key=sort_key)
    s = sum(z.multiplicity for z in entries if z.location == OUTSIDE)
    r = sum(
        z.multiplicity for z in entries if z.location == OUTSIDE and z.realness == REAL
    )
    on = sum(z.multiplicity for z in entries if z.location == ON_CIRCLE)
    return RootProfile(
        poly=p, roots=tuple(entries), s=s, r=r, on_circle=on, degree=p.degree
    )
