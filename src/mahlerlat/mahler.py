"""Mahler measure with certified error, the exact measure-1 decision, and
classical lower-bound formulas."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .intpoly import IntPoly
from .roots import OUTSIDE, RootProfile, refine_roots, root_counts


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


def mahler_measure(p: IntPoly, *, profile: RootProfile | None = None) -> MahlerCertificate:
    """Product of max(1, |root|) with an interval-propagated error radius.

    The measure-1 decision is exact and independent of the numeric roots: it
    is the exact count s = 0 (no root outside the closed disk, Kronecker's
    theorem), read off the given profile of p or, without one, off
    root_counts(p) before any root is refined.
    """
    if p.is_zero or not p.is_monic:
        raise ValueError("Mahler measure requires a monic polynomial")
    if profile is None:
        if root_counts(p).s == 0:
            return MahlerCertificate(1.0, 0.0, True, p)
        profile = refine_roots(p)
    elif profile.s == 0:
        return MahlerCertificate(1.0, 0.0, True, p)
    lo = hi = 1.0
    for root in profile.roots:
        if root.location != OUTSIDE:
            continue
        mag = abs(root.approx)
        for _ in range(root.multiplicity):
            lo *= max(1.0, math.nextafter(mag - root.radius, 0.0))
            hi *= max(1.0, math.nextafter(mag + root.radius, math.inf))
    value = (lo + hi) / 2
    radius = (hi - lo) / 2 + 1e-15 * hi
    return MahlerCertificate(value, radius, False, p)


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
    checking that hypothesis (all roots real, via a RootProfile) is the
    caller's responsibility.
    """
    if d < 2:
        raise ValueError("degree must be >= 2")
    return ((1 + math.sqrt(5)) / 2) ** (d / 2)


@lru_cache(maxsize=1)
def smyth_threshold() -> float:
    """M(x^3 - x - 1), the smallest measure among non-palindromic polynomials."""
    return mahler_measure(IntPoly((-1, -1, 0, 1))).value


def is_totally_real(profile: RootProfile) -> bool:
    """Hypothesis helper for the Schinzel bound: every root is real."""
    return all(root.realness == "real" for root in profile.roots)
