"""Mahler measure with certified error, the exact measure-1 decision, and
classical lower-bound formulas."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .intpoly import IntPoly
from .roots import RootCounts, root_counts


@dataclass(frozen=True)
class MahlerCertificate:
    value: float
    error_radius: float
    is_one_exact: bool
    poly: IntPoly

    @property
    def lower(self) -> float:
        return self.value - self.error_radius

    @property
    def upper(self) -> float:
        return self.value + self.error_radius

    @classmethod
    def of(cls, counts: RootCounts) -> MahlerCertificate:
        """Product of max(1, |root|) over the outside roots of counts.poly,
        with an interval-propagated error radius.

        The measure-1 decision is exact and reads no numeric root: it is the
        exact count s = 0 (no root outside the closed disk, Kronecker's
        theorem).  Otherwise only `counts.outside_roots` is read."""
        p = counts.poly
        if not p.is_monic:
            raise ValueError("Mahler measure requires a monic polynomial")
        if counts.s == 0:
            return cls(1.0, 0.0, True, p)
        lo = hi = 1.0
        for root in counts.outside_roots:
            mag = abs(root.approx)
            for _ in range(root.multiplicity):
                lo *= max(1.0, math.nextafter(mag - root.radius, 0.0))
                hi *= max(1.0, math.nextafter(mag + root.radius, math.inf))
        value = (lo + hi) / 2
        radius = (hi - lo) / 2 + 1e-15 * hi
        return cls(value, radius, False, p)


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
    return sum(m * factor[2] for _, m, factor in counts.factors) == counts.degree
