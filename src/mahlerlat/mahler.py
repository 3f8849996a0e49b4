"""Mahler measure with certified error, the exact measure-1 decision, and
classical lower-bound formulas."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .intpoly import IntPoly
from .roots import CertificationError, RootCounts, _disk, _dyadic, _isqrt_ceil, root_counts


@dataclass(frozen=True)
class MahlerCertificate:
    value: float
    error_radius: float
    is_one_exact: bool
    poly: IntPoly

    @property
    def lower(self) -> float:
        """value - error_radius, rounded down."""
        return _rounded_sum(self.value, -self.error_radius, -1)

    @property
    def upper(self) -> float:
        """value + error_radius, rounded up."""
        return _rounded_sum(self.value, self.error_radius, 1)

    @classmethod
    def of(cls, counts: RootCounts) -> MahlerCertificate:
        """Product of max(1, |root|) over the outside roots of counts.poly,
        with a certified error radius.

        The measure-1 decision is exact and reads no numeric root: it is the
        exact count s = 0 (no root outside the closed disk, Kronecker's
        theorem).  Otherwise only `counts.outside_roots` is read: each disk
        (c, r) bounds its root's modulus by |c| - r and |c| + r, taken on
        their dyadic values with the square root of |c|^2 rounded down and
        up.  The bounds are multiplied exactly, and `value` is the midpoint
        of the product interval rounded to a float, with a radius, rounded
        up, that reaches both ends.  CertificationError when the measure
        lies beyond the float range."""
        p = counts.poly
        if not p.is_monic:
            raise ValueError("Mahler measure requires a monic polynomial")
        if counts.s == 0:
            return cls(1.0, 0.0, True, p)
        lo = hi = 1
        scale = 0
        for root in counts.outside_roots:
            # at least 64 bits below 1, so the integer square root keeps
            # |c| > 1 to 2^-64 of itself even at an exact center such as -1 + i
            (x, y, r), m = _dyadic((root.approx.real, root.approx.imag, root.radius), 64)
            sq = x * x + y * y
            lo *= max(1 << m, math.isqrt(sq) - r) ** root.multiplicity
            hi *= (_isqrt_ceil(sq) + r) ** root.multiplicity
            scale += m * root.multiplicity
        try:
            center, radius = _disk(lo, hi, 0, 0, scale)
        except OverflowError:
            raise CertificationError(f"the Mahler measure of {p} lies beyond the float range") from None
        return cls(center.real, radius, False, p)


def _rounded_sum(a: float, b: float, direction: int) -> float:
    """a + b rounded down (direction -1) or up (direction 1), decided
    exactly on the dyadic values."""
    s = a + b
    (x, y, t), _ = _dyadic((a, b, s))
    return math.nextafter(s, direction * math.inf) if (x + y - t) * direction > 0 else s


def mahler_measure(p: IntPoly) -> MahlerCertificate:
    """MahlerCertificate.of the record of p: s = 0 is decided on
    root_counts(p) before any root is refined; a monic p with s > 0 has
    every root of that record certified (`RootCounts.roots`)."""
    counts = root_counts(p)
    if counts.s and p.is_monic:
        counts.roots  # certified on first read, then kept
    return MahlerCertificate.of(counts)


def voutier_bound(d: int) -> float:
    """1 + (1/4) ((log log d)/(log d))^3; vacuous (< 1) at d = 2."""
    if d < 2:
        raise ValueError("degree must be >= 2")
    return 1 + 0.25 * (math.log(math.log(d)) / math.log(d)) ** 3


def dobrowolski_bound(d: int) -> float:
    """1 + (1/1200) ((log log d)/(log d))^3."""
    if d < 2:
        raise ValueError("degree must be >= 2")
    return 1 + (1 / 1200) * (math.log(math.log(d)) / math.log(d)) ** 3


def schinzel_bound(d: int) -> float:
    """((1 + sqrt 5)/2)^(d/2).

    Applies only to totally real algebraic integers distinct from 0, +/-1;
    checking that hypothesis (all roots real, see is_totally_real) is the
    caller's responsibility.
    """
    if d < 2:
        raise ValueError("degree must be >= 2")
    return ((1 + math.sqrt(5)) / 2) ** (d / 2)


def smyth_threshold() -> float:
    """M(x^3 - x - 1), the smallest measure among non-palindromic polynomials:
    the plastic number, x^3 - x - 1's one real root, by Cardano's formula
    a + b with a = cbrt((9 + sqrt 69)/18) and ab = 1/3."""
    a = ((9 + math.sqrt(69)) / 18) ** (1 / 3)
    return a + 1 / (3 * a)


def is_totally_real(counts: RootCounts) -> bool:
    """Hypothesis helper for the Schinzel bound: every root of counts.poly
    is real.  It compares the exact real-root count, with multiplicity, with
    the degree, and reads no numeric root."""
    return sum(f.multiplicity * f.real for f in counts.factors) == counts.degree
