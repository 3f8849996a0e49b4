"""Certified complex roots and exact root-location counts.

The exact counts (inside / on / outside the unit circle, real roots beyond
[-1, 1]) are decided algebraically, over the integers: Sturm sequences for
everything touching the real line or the circle, and a Routh-Hurwitz count
(a Cauchy index read off a remainder sequence) on the Cayley transform for
the off-circle inside counts.  The numeric refinement never decides a count;
it only has to agree with the exact ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath
import numpy as np

from .intpoly import (
    IntPoly,
    _half_trace,
    _primitive_part,
    _remainder_chain,
    exact_div,
    poly_gcd,
)

INSIDE = "inside"
ON_CIRCLE = "on_circle"
OUTSIDE = "outside"

REAL = "real"
NONREAL_UPPER = "nonreal_upper"
NONREAL_LOWER = "nonreal_lower"

PRECISION = 1e-12  # every certified radius is below this
START_DPS = 30  # polishing starts at 30 digits (103 bits), doubling up to 2000


class CertificationError(RuntimeError):
    """Roots could not be certified to radii below PRECISION by 2000 digits."""

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
    """Certified roots of poly with its exact counts.  A profile made by
    `refine_outside_roots` holds the outside roots only; its counts are still
    those of the whole polynomial."""

    poly: IntPoly
    roots: tuple[CertifiedRoot, ...]
    s: int
    r: int
    on_circle: int

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def inside(self) -> int:
        return self.degree - self.s - self.on_circle

    def outside_roots(self) -> list[CertifiedRoot]:
        return [z for z in self.roots if z.location == OUTSIDE]


# ---------------------------------------------------------------------------
# Sturm sequences (exact, over the integers)
# ---------------------------------------------------------------------------


def sturm_chain(p: IntPoly) -> list[list[int]]:
    """Sturm sequence of p, each member scaled by a positive rational to a
    primitive integer polynomial (which keeps every sign)."""
    if p.degree <= 0:
        return [list(p.coeffs)]
    return _remainder_chain(list(p.coeffs), list(p.derivative().coeffs))


def _sign_at(a: list[int], x) -> int:
    if x == "-inf":
        s = a[-1]
        return (1 if s > 0 else -1) * (1 if (len(a) - 1) % 2 == 0 else -1)
    if x == "+inf":
        return 1 if a[-1] > 0 else -1
    v = 0
    for c in reversed(a):
        v = v * x + c
    return 0 if v == 0 else (1 if v > 0 else -1)


def _variations(chain: list[list[int]], x) -> int:
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


def _real_counts(chain: list[list[int]], a: int) -> tuple[int, int]:
    """(real roots, real roots in (-a, a]) of a squarefree p, read off its
    Sturm chain at -inf, -a, a and +inf."""
    v = [_variations(chain, x) for x in ("-inf", -a, a, "+inf")]
    return v[0] - v[3], v[1] - v[2]


def _has_repeated_root(chain: list[list[int]]) -> bool:
    """Whether p has a repeated root, read off its Sturm chain, whose last
    member is gcd(p, p') up to a constant."""
    return len(chain[-1]) > 1


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


def _deflate(p: IntPoly, a: int) -> IntPoly:
    """p / (x - a) for an integer root a of p, by synthetic division."""
    out = []
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * a + c
        out.append(acc)
    return IntPoly(reversed(out[:-1]))


def _cayley(coeffs: list[int]) -> list[int]:
    """(1 - w)^n u((1 + w)/(1 - w)) for u of degree n, by Horner's rule in
    z = (1 + w)/(1 - w); it maps |z| < 1 onto Re w < 0."""
    acc = [coeffs[-1]]
    minus = [1]  # (1 - w)^m
    for c in reversed(coeffs[:-1]):
        acc = [x + y for x, y in zip(acc + [0], [0] + acc)]
        minus = [x - y for x, y in zip(minus + [0], [0] + minus)]
        acc = [x + c * y for x, y in zip(acc, minus)]
    return acc


def _hurwitz_inside(u: IntPoly) -> int:
    """Exact count of the roots of u with |z| < 1; u must have no roots on
    the unit circle.

    The Cayley transform v of u has degree n, because u(-1) != 0, and no
    roots on the imaginary axis.  Write v(iy) = A(y) + i B(y); the argument
    of v(iy) turns by pi (inside - outside) as y runs over the real line, and
    the Cauchy index I of the lower-degree part over the higher-degree one,
    V(-inf) - V(+inf) on their signed remainder chain, gives that turn
    (Routh-Hurwitz): inside = (n - I)/2 for even n, (n + I)/2 for odd n.
    B = 0 with n even makes v even in w, so half its roots have Re w < 0.
    """
    n = u.degree
    if n <= 0:
        return 0
    v = _cayley(list(u.coeffs))
    unit = (1, 0, -1, 0)  # real part of i^k
    a = list(IntPoly(c * unit[k % 4] for k, c in enumerate(v)).coeffs)
    b = list(IntPoly(c * unit[(k - 1) % 4] for k, c in enumerate(v)).coeffs)
    if n % 2 == 0:
        if not b:
            return n // 2
        chain = _remainder_chain(a, b)
    else:
        chain = _remainder_chain(b, a)
    index = _variations(chain, "-inf") - _variations(chain, "+inf")
    return (n - index) // 2 if n % 2 == 0 else (n + index) // 2


def _self_reciprocal_counts(h: IntPoly) -> Optional[tuple[int, int, int, int]]:
    """(inside, on_circle, real, real_outside) of h with h* = +/-h and
    h(0) != 0, from one Sturm chain on its trace polynomial; None when h has
    a repeated root.

    Roots at +/-1 are divided out once each; they lie on the circle and are
    real, and a second one is a repeated root.  The remaining 2d roots pair
    as z, 1/z with z != 1/z, and w = z + 1/z maps the pairs to the d roots of
    the trace polynomial Q, with their multiplicities: w in (-2, 2) is a
    conjugate pair on the circle, real w beyond +/-2 a real pair with one
    root outside, and non-real w a non-real pair with one root outside.
    Q(+/-2) is h(+/-1) up to sign, so no w sits at an endpoint.
    """
    at_pm_one = 0
    for a in (1, -1):
        if h(a) == 0:
            h = _deflate(h, a)
            at_pm_one += 1
    if h(1) == 0 or h(-1) == 0:
        return None
    if h.coeffs != tuple(reversed(h.coeffs)):
        raise AssertionError("self-reciprocal factor must be palindromic")
    d = h.degree // 2
    chain = sturm_chain(_half_trace(h.coeffs))
    if _has_repeated_root(chain):
        return None
    real_q, circle_q = _real_counts(chain, 2)
    outside_q = real_q - circle_q
    return d - circle_q, 2 * circle_q + at_pm_one, 2 * outside_q + at_pm_one, outside_q


def _counts(f: IntPoly) -> Optional[tuple[int, int, int, int]]:
    """Exact (inside, on_circle, real, real_outside) root counts of an
    integer polynomial f of degree >= 1, or None when f has a repeated root.

    A self-reciprocal f (f* = +/-f) is counted on its trace polynomial alone.
    Otherwise one Sturm chain on f shows first whether f is squarefree, and
    then counts the real roots and those in [-1, 1].  The circle roots of a
    squarefree f are exactly the common roots of f and its reciprocal; that
    gcd g is self-reciprocal and counted the same way.  The cofactor f / g
    has no circle roots, so a Routh-Hurwitz count on its Cayley transform
    gives its inside roots exactly.
    """
    k, f = _strip_x(f)
    if k >= 2:
        return None
    if f.degree <= 0:
        return k, 0, k, 0
    rev = f.reciprocal()
    if rev == f or rev == -f:
        counts = _self_reciprocal_counts(f)
        if counts is None:
            return None
        inside, on_circle, real, real_outside = counts
        return k + inside, on_circle, k + real, real_outside
    chain = sturm_chain(f)
    if _has_repeated_root(chain):
        return None
    g = poly_gcd(f, rev)
    inside = on_circle = 0
    u = f
    if g.degree > 0:
        inside, on_circle, _, _ = _self_reciprocal_counts(g)
        u = exact_div(f, g)
    inside += _hurwitz_inside(u)
    real, real_in = _real_counts(chain, 1)
    real_outside = real - real_in - (f(-1) == 0)
    return k + inside, on_circle, k + real, real_outside


@dataclass(frozen=True)
class RootCounts:
    """Exact root counts of poly, with multiplicity.  `factors` holds each
    squarefree factor with its multiplicity and its own
    (inside, on_circle, real, real_outside)."""

    poly: IntPoly
    factors: tuple[tuple[IntPoly, int, tuple[int, int, int, int]], ...]

    def _total(self, i: int) -> int:
        return sum(m * counts[i] for _, m, counts in self.factors)

    @property
    def inside(self) -> int:
        return self._total(0)

    @property
    def on_circle(self) -> int:
        return self._total(1)

    @property
    def s(self) -> int:
        return self.poly.degree - self.inside - self.on_circle

    @property
    def r(self) -> int:
        return self._total(3)


def root_counts(p: IntPoly) -> RootCounts:
    """Exact counts of the roots of p inside, on and outside the unit circle
    and on the real line beyond [-1, 1], per squarefree factor.

    A squarefree p is one factor, its primitive part, counted in one pass;
    only a p with a repeated root is split by the squarefree decomposition.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree <= 0:
        return RootCounts(p, ())
    f = _primitive_part(p)
    counts = _counts(f)
    if counts is not None:
        return RootCounts(p, ((f, 1, counts),))
    factors = tuple(
        (f, m, _counts(f))
        for f, m in p.squarefree_decomposition()
        if f.degree > 0
    )
    return RootCounts(p, factors)


# ---------------------------------------------------------------------------
# Numeric refinement
# ---------------------------------------------------------------------------


def _seeds(f: IntPoly) -> np.ndarray:
    return np.roots(list(reversed(f.coeffs)))


def _largest_seeds(f: IntPoly, k: int) -> np.ndarray:
    """The k seeds of largest modulus."""
    seeds = _seeds(f)
    return seeds[np.argsort(-np.abs(seeds), kind="stable")[:k]]


def _polished_roots(f: IntPoly, seeds, dps: int) -> list[tuple[complex, float]]:
    """Newton-polished roots of a squarefree f, one per seed, with a
    posteriori radii.

    The radius bound is the classical deg * |f(z)/f'(z)|: the disk of that
    radius around z contains at least one root of f.
    """
    n = f.degree
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
            if dz == 0:
                rad = math.inf
            else:
                # a radius below the smallest float is clamped to it, not 0.0
                ratio = n * abs(fz / dz)
                rad = max(float(ratio), math.ulp(0.0)) if ratio else 0.0
            out.append((complex(z), rad))
    return out


def _fixed_point_roots(f: IntPoly, seeds, dps: int) -> list[tuple[complex, float]]:
    """`_polished_roots` in Gaussian-integer fixed point, without mpmath.

    z = (x + iy) / 2^bits with integers x, y, where bits is mpmath's
    precision at dps; each Newton step evaluates f and f' together by
    Horner's rule, truncating after every product.  A seed within 1e-9 of
    the real line stays on it (y = 0), and the iteration stops as
    `_polished_roots` does.  The radius n |f(z)/f'(z)| is computed exactly at
    the final z and rounded up to a float; the center is z rounded to the
    nearest float.
    """
    n = f.degree
    bits = round((dps + 1) * math.log2(10))
    one = 1 << bits
    cs = [c << bits for c in reversed(f.coeffs)]
    dcoeffs = f.derivative().coeffs
    tol = (one * one - 1) // 100 ** (dps - 5)  # |step| < 10^(5 - dps)
    out = []
    for seed in seeds:
        x = round(math.ldexp(seed.real, bits))
        y = 0 if abs(seed.imag) < 1e-9 else round(math.ldexp(seed.imag, bits))
        for _ in range(80):
            fr, fi, dr, di = cs[0], 0, 0, 0
            for c in cs[1:]:
                dr, di = ((dr * x - di * y) >> bits) + fr, ((dr * y + di * x) >> bits) + fi
                fr, fi = ((fr * x - fi * y) >> bits) + c, (fr * y + fi * x) >> bits
            den = dr * dr + di * di
            if den == 0:
                break
            sr = ((fr * dr + fi * di) << bits) // den
            si = ((fi * dr - fr * di) << bits) // den
            x, y = x - sr, y - si
            if sr * sr + si * si <= tol:
                break
        # f(z) = F / 2^(n bits) and f'(z) = F' / 2^((n - 1) bits), exactly
        fr, fi = _homogeneous(f.coeffs, x, y, bits)
        dr, di = _homogeneous(dcoeffs, x, y, bits)
        den = (dr * dr + di * di) << (2 * bits)
        rad = _sqrt_ratio_up(n * n * (fr * fr + fi * fi), den) if den else math.inf
        out.append((complex(x / one, y / one), rad))
    return out


def _homogeneous(coeffs, x: int, y: int, bits: int) -> tuple[int, int]:
    """(Re, Im) of sum_k c_k (x + iy)^k 2^(bits (m - k)), m = len(coeffs) - 1."""
    re, im = coeffs[-1], 0
    for j, c in enumerate(reversed(coeffs[:-1]), 1):
        re, im = re * x - im * y + (c << (bits * j)), re * y + im * x
    return re, im


def _sqrt_ratio_up(num: int, den: int) -> float:
    """A float >= sqrt(num / den), for integers num >= 0 and den > 0, at most
    one float above the least such; 0.0 only when num = 0."""
    t = max(0, 64 - (num.bit_length() - den.bit_length()) // 2)
    q = -(-(num << (2 * t)) // den)
    s = math.isqrt(q)
    if s * s < q:
        s += 1
    # sqrt(num / den) <= s / 2^t, which has at least 62 bits
    try:
        r = s / (1 << t)
    except OverflowError:
        return math.inf
    return math.nextafter(r, math.inf) if math.ldexp(r, t) < s else r


def _classify_squarefree(
    f: IntPoly, counts: tuple[int, int, int, int]
) -> list[tuple[complex, float, str, str]]:
    """Certified (approx, radius, location, realness) for each root of f,
    checked against its exact counts."""
    n = f.degree
    n_inside, n_circle, n_real, _ = counts
    seeds = _seeds(f)
    achieved = None
    dps = START_DPS
    while dps <= 2000:
        approx = _polished_roots(f, seeds, dps)
        achieved = [rad for _, rad in approx]
        ok = (
            len(approx) == n
            and all(rad < PRECISION for _, rad in approx)
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
        f"failed to certify roots of {f} at precision {PRECISION}", achieved
    )


def _outside_squarefree(
    f: IntPoly, counts: tuple[int, int, int, int]
) -> list[tuple[complex, float, str, str]]:
    """Certified (approx, radius, OUTSIDE, realness) for the outside roots of f.

    The s_f seeds of largest modulus are polished.  Disjoint disks lying
    strictly outside the circle, one per exact outside root, r_f of them
    meeting the real line, locate every outside root; when the polished
    seeds do not give that, the whole factor is classified instead.
    """
    n_inside, n_circle, _, n_real_outside = counts
    s_f = f.degree - n_inside - n_circle
    if s_f == 0:
        return []
    approx = _fixed_point_roots(f, _largest_seeds(f, s_f), START_DPS)
    if (
        all(rad < PRECISION and abs(z) - rad > 1 for z, rad in approx)
        and _pairwise_isolated(approx)
    ):
        labelled = _assign_realness([(z, rad, OUTSIDE) for z, rad in approx], n_real_outside)
        if labelled is not None:
            return labelled
    return [e for e in _classify_squarefree(f, counts) if e[2] == OUTSIDE]


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


def _profile(counts: RootCounts, classify) -> RootProfile:
    """The profile of counts.poly from classify(f, factor counts) on each
    squarefree factor, in the order refine_roots documents."""

    def sort_key(root: CertifiedRoot):
        return (_LOC_RANK[root.location], _REALNESS_RANK[root.realness],
                -abs(root.approx), root.approx.real, root.approx.imag)

    entries = [
        CertifiedRoot(z, rad, mult, loc, realness)
        for f, mult, factor_counts in counts.factors
        for z, rad, loc, realness in classify(f, factor_counts)
    ]
    entries.sort(key=sort_key)
    return RootProfile(
        poly=counts.poly, roots=tuple(entries), s=counts.s, r=counts.r,
        on_circle=counts.on_circle,
    )


def refine_roots(p: IntPoly) -> RootProfile:
    """Certified roots of p with exact location counts attached.

    Roots are ordered: real roots outside the unit circle first, then the
    non-real outside roots in conjugate-paired order (upper-half entries
    followed by their conjugates), then on-circle roots, then inside roots.
    """
    return _profile(root_counts(p), _classify_squarefree)


def refine_outside_roots(counts: RootCounts) -> RootProfile:
    """The outside roots of counts.poly, certified and ordered as in
    refine_roots, with the exact counts attached; only these are polished."""
    return _profile(counts, _outside_squarefree)
