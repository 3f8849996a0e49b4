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
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from .intpoly import (
    IntPoly,
    IrreducibilityReport,
    _half_trace,
    _primitive_part,
    _remainder_chain,
    exact_div,
    irreducibility_report,
    poly_gcd,
)

if TYPE_CHECKING:
    import numpy as np

INSIDE = "inside"
ON_CIRCLE = "on_circle"
OUTSIDE = "outside"

REAL = "real"
NONREAL_UPPER = "nonreal_upper"
NONREAL_LOWER = "nonreal_lower"

PRECISION = 1e-12  # every certified radius is at most PRECISION max(1, |center|)
DPS = 30  # the Newton kernels work at 30 digits (103 bits)


class CertificationError(RuntimeError):
    """Roots could not be certified: the disks at the float centers were wider
    than PRECISION, overlapped or did not match the exact counts."""

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


# ---------------------------------------------------------------------------
# Sturm sequences (exact, over the integers)
# ---------------------------------------------------------------------------


def sturm_chain(p: IntPoly) -> list[list[int]]:
    """Sturm sequence of p, each member scaled by a positive rational to a
    primitive integer polynomial (which keeps every sign)."""
    if p.degree <= 0:
        return [list(p.coeffs)]
    return _remainder_chain(list(p.coeffs), list(p.derivative().coeffs))


def _sign_at(a: list[int], x, k: int = 0) -> int:
    """Sign of a at "-inf", "+inf" or the dyadic x / 2^k, from the integer
    2^(k deg a) a(x / 2^k)."""
    if x == "-inf":
        s = a[-1]
        return (1 if s > 0 else -1) * (1 if (len(a) - 1) % 2 == 0 else -1)
    if x == "+inf":
        return 1 if a[-1] > 0 else -1
    v = 0
    if k:
        for j, c in enumerate(reversed(a)):
            v = v * x + (c << (k * j))
    else:  # an integer x, as in every exact count: no shifts
        for c in reversed(a):
            v = v * x + c
    return 0 if v == 0 else (1 if v > 0 else -1)


def _variations(chain: list[list[int]], x, k: int = 0) -> int:
    signs = [s for s in (_sign_at(f, x, k) for f in chain) if s != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u * v < 0)


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


def _split_pm_one(h: IntPoly) -> tuple[IntPoly, list[int]]:
    """h with x - a divided out once for each root a of 1 and -1, and those
    roots."""
    pm_one = []
    for a in (1, -1):
        if h(a) == 0:
            h = exact_div(h, IntPoly((-a, 1)))
            pm_one.append(a)
    return h, pm_one


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
    h, pm_one = _split_pm_one(h)
    at_pm_one = len(pm_one)
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
    """The one analysis record of poly.  `factors` holds each squarefree
    factor with its multiplicity and its own (inside, on_circle, real,
    real_outside), and every count is read off them, with multiplicity.
    `irreducibility`, `roots` and `outside_roots` are computed on first read
    and kept, so every reader of one record shares them."""

    poly: IntPoly
    factors: tuple[tuple[IntPoly, int, tuple[int, int, int, int]], ...]

    def _total(self, i: int) -> int:
        return sum(m * counts[i] for _, m, counts in self.factors)

    @property
    def degree(self) -> int:
        return self.poly.degree

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

    @cached_property
    def irreducibility(self) -> IrreducibilityReport:
        """irreducibility_report on these counts."""
        return irreducibility_report(self)

    @cached_property
    def roots(self) -> tuple[CertifiedRoot, ...]:
        """Every root of poly, certified against the exact counts and ordered
        as refine_roots documents."""
        return _certified(self, _classify_squarefree)

    @cached_property
    def outside_roots(self) -> tuple[CertifiedRoot, ...]:
        """The roots outside the closed unit disk, in the order of `roots`:
        read off `roots` when those are already kept, else only these are
        polished."""
        if "roots" in self.__dict__:
            return tuple(z for z in self.roots if z.location == OUTSIDE)
        return _certified(self, _outside_squarefree)


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
    """numpy's roots of f, each one within 1e-9 of the real line put on it;
    CertificationError when a coefficient of f does not fit a float or a
    seed is not finite."""
    import numpy as np

    if max(map(abs, f.coeffs)) > sys.float_info.max:
        raise CertificationError(f"coefficients of {f} do not fit a float")
    seeds = np.roots([float(c) for c in reversed(f.coeffs)]).astype(complex)
    if not np.isfinite(seeds).all():
        raise CertificationError(f"numpy's roots of {f} are not all finite")
    seeds.imag[abs(seeds.imag) < 1e-9] = 0.0
    return seeds


def _largest_seeds(f: IntPoly, k: int) -> np.ndarray:
    """The k seeds of largest modulus."""
    import numpy as np

    seeds = _seeds(f)
    return seeds[np.argsort(-np.abs(seeds), kind="stable")[:k]]


def _polished_roots(f: IntPoly, seeds) -> list[tuple[complex, float]]:
    """Newton-polished roots of a squarefree f, one per seed, each a
    `_float_disk`: mpmath at DPS digits, at most 80 steps, stopping once
    |step| < 10^(5 - DPS).  The iterate is rounded to the working precision
    relative to its modulus before it becomes a float, so noise in a
    coordinate far below |z| goes."""
    import mpmath

    out = []
    with mpmath.workdps(DPS):
        coeffs = [mpmath.mpf(c) for c in reversed(f.coeffs)]
        dcoeffs = [mpmath.mpf(c) for c in reversed(f.derivative().coeffs)]
        tol = mpmath.mpf(10) ** (5 - DPS)
        for seed in seeds:
            z = mpmath.mpc(seed)
            for _ in range(80):
                dz = mpmath.polyval(dcoeffs, z)
                if dz == 0:
                    break
                step = mpmath.polyval(coeffs, z) / dz
                z = z - step
                if abs(step) < tol:
                    break
            if z:
                unit = mpmath.mpf(2) ** (mpmath.mag(z) - mpmath.mp.prec)
                z = mpmath.mpc(*(mpmath.nint(t / unit) * unit for t in (z.real, z.imag)))
            out.append(_float_disk(f, complex(z)))
    return out


def _fixed_point_roots(f: IntPoly, seeds) -> list[tuple[complex, float]]:
    """`_polished_roots` in Gaussian-integer fixed point, without mpmath.

    z = (x + iy) / 2^bits with integers x, y, where bits is mpmath's
    precision at DPS, starting from each seed's dyadic value truncated to
    bits; each Newton step evaluates f and f' together by Horner's rule,
    truncating after every product.
    """
    bits = round((DPS + 1) * math.log2(10))
    one = 1 << bits
    cs = [c << bits for c in reversed(f.coeffs)]
    tol = (one * one - 1) // 100 ** (DPS - 5)  # |step| < 10^(5 - DPS)
    out = []
    for seed in seeds:
        (x, y), m = _dyadic((seed.real, seed.imag), bits)
        x, y = x >> (m - bits), y >> (m - bits)
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
        out.append(_float_disk(f, complex(x / one, y / one)))
    return out


def _float_disk(f: IntPoly, c: complex) -> tuple[complex, float]:
    """(c, radius) for an iterate rounded to the float center c: the radius
    n |f(c)/f'(c)|, n = deg f, is taken exactly at c's own dyadic value, so
    the disk holds a root of f, the rounding included, and more digits in
    the iterate cannot shrink it.  OverflowError when c is not finite."""
    (x, y), m = _dyadic((c.real, c.imag))
    return c, _exact_radius(f, x, y, m)


def _dyadic(ts, scale: int = 0) -> tuple[list[int], int]:
    """Integers a_i and m >= scale with t_i = a_i / 2^m exactly, for the
    floats t_i; OverflowError when one is infinite."""
    ratios = [t.as_integer_ratio() for t in ts]
    m = max(scale, *(den.bit_length() - 1 for _, den in ratios))
    return [num << (m - den.bit_length() + 1) for num, den in ratios], m


def _exact_radius(f: IntPoly, x: int, y: int, bits: int) -> float:
    """n |f(z)/f'(z)| at z = (x + iy) / 2^bits, n = deg f, computed exactly
    and rounded up to a float; 0.0 only at a root, inf where f'(z) = 0."""
    n = f.degree
    # f(z) = F / 2^(n bits) and f'(z) = F' / 2^((n - 1) bits), exactly
    fr, fi = _homogeneous(f.coeffs, x, y, bits)
    dr, di = _homogeneous(f.derivative().coeffs, x, y, bits)
    den = (dr * dr + di * di) << (2 * bits)
    return _sqrt_ratio_up(n * n * (fr * fr + fi * fi), den) if den else math.inf


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
    s = _isqrt_ceil(-(-(num << (2 * t)) // den))
    # sqrt(num / den) <= s / 2^t, which has at least 62 bits
    if s > int(sys.float_info.max) << t:
        return math.inf
    r = s / (1 << t)
    (a,), m = _dyadic((r,), t)
    return math.nextafter(r, math.inf) if a < s << (m - t) else r


def _isqrt_ceil(n: int) -> int:
    s = math.isqrt(n)
    return s + (s * s < n)


def _trace_roots(f: IntPoly) -> list[tuple[complex, float, str, str]]:
    """Certified (approx, radius, location, realness) for each root of a
    squarefree self-reciprocal f whose trace polynomial Q is totally real,
    in integers and with no numeric seed.

    Roots at +/-1 are divided out and reported exactly.  Every root w of Q
    is isolated by Sturm counts at dyadic points in (-inf, -2], (-2, 2] or
    (2, inf), and that interval alone fixes the location of the pair z, 1/z
    over w: beyond +/-2 a real pair with one root outside, inside (-2, 2)
    a conjugate pair on the circle.  OverflowError when a root lies beyond
    the float range.
    """
    h, pm_one = _split_pm_one(f)
    out = [(complex(a, 0.0), 0.0, ON_CIRCLE, REAL) for a in pm_one]
    chain = sturm_chain(_half_trace(h.coeffs))
    if len(chain[0]) < 2:
        return out
    for lo, hi, k in _isolated_roots(chain):
        out += _pair_disks(chain[0], lo, hi, k)
    return out


def _isolated_roots(chain: list[list[int]]):
    """(lo, hi, k) for each real root of the squarefree q = chain[0], which
    lies alone in (lo / 2^k, hi / 2^k]; no interval meets -2 or 2 inside.

    Every root is below 1 + max |q_i / q_n| < 2^e in modulus, and the Sturm
    counts on (-2^e, -2], (-2, 2] and (2, 2^e] are split at midpoints until
    each interval holds at most one root."""
    q = chain[0]
    e = (-(-max(map(abs, q[:-1])) // abs(q[-1])) + 1).bit_length()
    ends = (-(1 << e), -2, 2, 1 << e)
    v = [_variations(chain, x) for x in ends]
    stack = [(ends[i], ends[i + 1], 0, v[i], v[i + 1]) for i in range(3)]
    while stack:
        lo, hi, k, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            yield lo, hi, k
        elif v_lo - v_hi > 1:
            mid = lo + hi
            v_mid = _variations(chain, mid, k + 1)
            stack += [(2 * lo, mid, k + 1, v_lo, v_mid), (mid, 2 * hi, k + 1, v_mid, v_hi)]


TRACE_BITS = 64  # each coordinate of a trace-route box is known to 2^-64 of itself


def _narrow(lo: int, hi: int, bits: int) -> bool:
    """Whether [lo, hi] is a point, or excludes 0 and is narrower than
    2^-bits min(|lo|, |hi|)."""
    return lo == hi or (lo > 0 or hi < 0) and (hi - lo) << bits <= min(abs(lo), abs(hi))


def _pair_disks(q: list[int], lo: int, hi: int, k: int) -> list[tuple[complex, float, str, str]]:
    """The two certified roots over the one root w of q in (lo / 2^k, hi / 2^k].

    The interval is bisected on the sign of q, in integers, until it is
    `_narrow` to bits; its image box under z = (w +/- sqrt(w^2 - 4)) / 2 is
    then bounded with directed rounding, and bits grows until each
    coordinate of that box is `_narrow` to TRACE_BITS, which takes more bits
    where the map is steep, near w = +/-2."""
    side = -1 if hi <= -(2 << k) else (1 if lo >= (2 << k) else 0)
    s_hi = _sign_at(q, hi, k)
    if s_hi == 0:
        lo = hi
    bits = TRACE_BITS
    while True:
        while not _narrow(lo, hi, bits):
            lo, hi, mid, k = 2 * lo, 2 * hi, lo + hi, k + 1
            s = _sign_at(q, mid, k)
            lo, hi = (mid, mid) if s == 0 else ((lo, mid) if s == s_hi else (mid, hi))
        scale = max(k, bits) + 8
        w_lo, w_hi = lo << (scale - k), hi << (scale - k)
        four = 1 << (2 * scale + 2)  # 4 at scale 2 * scale
        if side:
            # z 2^(scale + 1) = |w| 2^scale + sqrt(w^2 4^scale - 4^(scale + 1))
            a_lo, a_hi = (w_lo, w_hi) if side > 0 else (-w_hi, -w_lo)
            z_lo = a_lo + math.isqrt(a_lo * a_lo - four)
            z_hi = a_hi + _isqrt_ceil(a_hi * a_hi - four)
            if _narrow(z_lo, z_hi, TRACE_BITS):
                # 1/z at scale m, rounded outward
                m = z_hi.bit_length() + TRACE_BITS + 8
                i_lo, i_hi = (1 << (scale + 1 + m)) // z_hi, -(-(1 << (scale + 1 + m)) // z_lo)
                if side < 0:
                    z_lo, z_hi, i_lo, i_hi = -z_hi, -z_lo, -i_hi, -i_lo
                outer = _disk(z_lo, z_hi, 0, 0, scale + 1)
                inner = _disk(i_lo, i_hi, 0, 0, m)
                return [(*outer, OUTSIDE, REAL), (*inner, INSIDE, REAL)]
        else:
            # x = w / 2, as narrow as w, and y = sqrt(4 - w^2) / 2, at scale + 1
            sq_max = max(w_lo * w_lo, w_hi * w_hi)
            sq_min = 0 if w_lo <= 0 <= w_hi else min(w_lo * w_lo, w_hi * w_hi)
            y_lo, y_hi = math.isqrt(four - sq_max), _isqrt_ceil(four - sq_min)
            if _narrow(y_lo, y_hi, TRACE_BITS):
                upper = _disk(w_lo, w_hi, y_lo, y_hi, scale + 1)
                lower = _disk(w_lo, w_hi, -y_hi, -y_lo, scale + 1)
                return [(*upper, ON_CIRCLE, NONREAL_UPPER), (*lower, ON_CIRCLE, NONREAL_LOWER)]
        bits += 16


def _disk(x_lo: int, x_hi: int, y_lo: int, y_hi: int, scale: int) -> tuple[complex, float]:
    """(center, radius) for the box [x_lo, x_hi] x [y_lo, y_hi] / 2^scale:
    the center is the box's midpoint rounded to floats, and the radius,
    rounded up, bounds the distance from it to every point of the box.
    OverflowError when the center is beyond the float range."""
    center = complex((x_lo + x_hi) / (2 << scale), (y_lo + y_hi) / (2 << scale))
    cs, m = _dyadic((center.real, center.imag), scale)
    far = [max(abs(c - (lo << (m - scale))), abs((hi << (m - scale)) - c))
           for c, lo, hi in zip(cs, (x_lo, y_lo), (x_hi, y_hi))]
    return center, _sqrt_ratio_up(far[0] ** 2 + far[1] ** 2, 1 << (2 * m))


def _classify_squarefree(
    f: IntPoly, counts: tuple[int, int, int, int]
) -> list[tuple[complex, float, str, str]]:
    """Certified (approx, radius, location, realness) for each root of f,
    checked against its exact counts.

    A self-reciprocal f with inside == real_outside, which holds exactly
    when its trace polynomial is totally real, takes the exact route
    `_trace_roots`; any other f is polished from numpy's seeds in mpmath,
    and its `_labelled` disks must match every count."""
    n_inside, n_circle, n_real, n_real_outside = counts
    if n_inside == n_real_outside and f.reciprocal() in (f, -f):
        return _trace_roots(f)
    approx = _polished_roots(f, _seeds(f))
    labelled = _labelled(approx, (n_inside, n_circle, f.degree - n_inside - n_circle, n_real))
    if labelled is None:
        raise CertificationError(
            f"failed to certify roots of {f} at precision {PRECISION}", [rad for _, rad in approx]
        )
    return labelled


def _outside_squarefree(
    f: IntPoly, counts: tuple[int, int, int, int]
) -> list[tuple[complex, float, str, str]]:
    """Certified (approx, radius, OUTSIDE, realness) for the outside roots of f.

    The s_f seeds of largest modulus are polished in fixed point, and their
    `_labelled` disks must all lie outside, r_f of them real; when they do
    not, the whole factor is classified instead.
    """
    n_inside, n_circle, _, n_real_outside = counts
    s_f = f.degree - n_inside - n_circle
    if s_f == 0:
        return []
    approx = _fixed_point_roots(f, _largest_seeds(f, s_f))
    labelled = _labelled(approx, (0, 0, s_f, n_real_outside))
    if labelled is not None:
        return labelled
    return [e for e in _classify_squarefree(f, counts) if e[2] == OUTSIDE]


def _labelled(
    approx: list[tuple[complex, float]], expected: tuple[int, int, int, int]
) -> Optional[list[tuple[complex, float, str, str]]]:
    """(approx, radius, location, realness) for each disk, or None unless
    every radius is at most PRECISION max(1, |approx|), the disks are
    pairwise disjoint, and the tallies (inside, on_circle, outside, real)
    equal `expected`, the exact counts of the roots the disks cover.

    A disk is INSIDE iff |c| + r < 1 and OUTSIDE iff |c| - r > 1, decided
    exactly on the dyadic values, else ON_CIRCLE; it is REAL iff
    |Im c| <= r.  Disjoint disks hold distinct roots, so when the tallies
    match, every inside and outside root lies in a disk labelled so, the
    circle roots lie in the rest, and each disk meeting the real line holds
    a real root, which stays in the disk when Im c is set to 0.
    """
    if not all(rad <= PRECISION * max(1.0, abs(z)) for z, rad in approx):
        return None
    if not _pairwise_isolated(approx):
        return None
    out = []
    for z, rad in approx:
        (x, y, r), m = _dyadic((z.real, z.imag, rad))
        sq, one = x * x + y * y, 1 << m
        loc = INSIDE if r < one and sq < (one - r) ** 2 else (
            OUTSIDE if sq > (one + r) ** 2 else ON_CIRCLE)
        if abs(z.imag) <= rad:
            out.append((complex(z.real, 0.0), rad, loc, REAL))
        else:
            out.append((z, rad, loc, NONREAL_UPPER if z.imag > 0 else NONREAL_LOWER))
    tallies = tuple(sum(e[2] == loc for e in out) for loc in (INSIDE, ON_CIRCLE, OUTSIDE))
    return out if tallies + (sum(e[3] == REAL for e in out),) == expected else None


def _pairwise_isolated(approx: list[tuple[complex, float]]) -> bool:
    """Whether the closed disks are pairwise disjoint.  A pair whose float
    distance exceeds twice the radii, far beyond its rounding, is apart;
    any other pair is decided exactly on the dyadic values."""
    for i, (zi, ri) in enumerate(approx):
        for zj, rj in approx[i + 1 :]:
            if abs(zi - zj) <= 2 * (ri + rj):
                (x, y, u, v, a, b), _ = _dyadic((zi.real, zi.imag, zj.real, zj.imag, ri, rj))
                if (x - u) ** 2 + (y - v) ** 2 <= (a + b) ** 2:
                    return False
    return True


_LOC_RANK = {OUTSIDE: 0, ON_CIRCLE: 1, INSIDE: 2}
_REALNESS_RANK = {REAL: 0, NONREAL_UPPER: 1, NONREAL_LOWER: 2}


def _certified(counts: RootCounts, classify) -> tuple[CertifiedRoot, ...]:
    """The roots of counts.poly from classify(f, factor counts) on each
    squarefree factor, in the order refine_roots documents; an OverflowError
    from classify, where a root leaves the float range, is a
    CertificationError."""

    def sort_key(root: CertifiedRoot):
        return (_LOC_RANK[root.location], _REALNESS_RANK[root.realness],
                -abs(root.approx), root.approx.real, root.approx.imag)

    entries = []
    for f, mult, factor_counts in counts.factors:
        try:
            disks = classify(f, factor_counts)
        except OverflowError:
            raise CertificationError(f"a root of {f} lies beyond the float range") from None
        entries += (CertifiedRoot(z, rad, mult, loc, realness) for z, rad, loc, realness in disks)
    return tuple(sorted(entries, key=sort_key))


def refine_roots(p: IntPoly) -> RootCounts:
    """root_counts(p) with every root certified (`RootCounts.roots`).

    Roots are ordered: real roots outside the unit circle first, then the
    non-real outside roots in conjugate-paired order (upper-half entries
    followed by their conjugates), then on-circle roots, then inside roots.
    """
    counts = root_counts(p)
    counts.roots  # certified on first read, then kept
    return counts
