"""gamma = diag(alpha, 1/alpha, 1, ..., 1), Dirichlet power selection, and
near-identity membership reports."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .fields import CIRCLE_COMPACT, COMPLEX_SPLIT, FieldSummary, field_summary
from .intpoly import IntPoly
from .mahler import MahlerCertificate, mahler_measure

Number = Union[float, Fraction]


@dataclass(frozen=True)
class GammaElement:
    summary: FieldSummary
    n: int
    alpha_inv: IntPoly  # power-basis coordinates of alpha^-1 in Z[x]/(P)
    cocompact: bool


def build_gamma(summary: FieldSummary, n: int = 2) -> GammaElement:
    """Symbolic diag(alpha, 1/alpha, 1, ..., 1).

    For monic palindromic P = x^(2d) + a_1 x^(2d-1) + ... + a_1 x + 1, the
    inverse has the closed form alpha^-1 = -(a_1 + a_2 alpha + ... +
    alpha^(2d-1)), checked exactly as x * alpha^-1 + P = 1; its power-basis
    coordinates are integers.  The noncompact places are the embeddings of
    `summary` that are not CIRCLE_COMPACT; at a compact place gamma is
    unitary, because |sigma(alpha)| = 1 there by the exact circle count.
    The cocompact flag records whether a compact place exists (s < d).
    """
    if n < 2:
        raise ValueError("matrix size must be >= 2")
    p = summary.poly
    alpha_inv = -IntPoly(p.coeffs[1:])
    if IntPoly.x_power(1) * alpha_inv + p != IntPoly((1,)):
        raise AssertionError("alpha * alpha^-1 != 1 modulo P")
    return GammaElement(summary, n, alpha_inv, summary.s < summary.d)


@dataclass(frozen=True)
class DirichletWitness:
    m: int
    t: int
    c: int
    targets: tuple[Number, ...]
    residues: tuple[Number, ...]


def _residue(x: Number) -> Number:
    """Fractional part mapped to [-1/2, 1/2)."""
    if isinstance(x, Fraction):
        r = x - x.__floor__()
        return r - 1 if r >= Fraction(1, 2) else r
    r = math.fmod(x, 1.0)
    if r < -0.5:
        r += 1.0
    elif r >= 0.5:
        r -= 1.0
    return r


def dirichlet_c(targets: Sequence[Number], m: int) -> DirichletWitness:
    """Smallest integer 0 < c <= m^t driving every c * target into the closed
    window [-1/m, 1/m] mod 1.  Existence is Dirichlet's pigeonhole lemma; a
    failed scan indicates a bug, not a user error."""
    if m < 1:
        raise ValueError("m must be >= 1")
    targets = tuple(targets)
    t = len(targets)
    if t == 0:
        return DirichletWitness(m, 0, 1, (), ())
    window = Fraction(1, m)
    for c in range(1, m**t + 1):
        residues = tuple(_residue(c * x) for x in targets)
        if all(abs(res) <= window for res in residues):
            return DirichletWitness(m, t, c, targets, residues)
    raise AssertionError("Dirichlet scan exhausted: contradicts the pigeonhole lemma")


def eta(m: int, t: int) -> Fraction:
    """The hypothesis scale 1 / (2 m^(t+1))."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    return Fraction(1, 2 * m ** (t + 1))


@dataclass(frozen=True)
class EigenvalueFlags:
    value: complex  # infinite components past the float range
    log_modulus: float
    argument: float
    log_modulus_in_window: bool
    argument_in_window: bool


@dataclass(frozen=True)
class GammaPowerReport:
    element: GammaElement
    witness: DirichletWitness
    m: int
    power: int
    eta: Fraction
    mahler: MahlerCertificate
    mahler_hypothesis_met: bool
    eigenvalues: tuple[EigenvalueFlags, ...]
    distance_to_identity: float
    infinite_order: bool

    @property
    def all_argument_flags(self) -> bool:
        return all(e.argument_in_window for e in self.eigenvalues)

    @property
    def all_log_modulus_flags(self) -> bool:
        return all(e.log_modulus_in_window for e in self.eigenvalues)


_TOL = 1e-9


def gamma_power_report(element: GammaElement, m: int) -> GammaPowerReport:
    """Raise gamma to the Dirichlet-selected even power 2c and report the
    per-eigenvalue U_m windows over the noncompact places.

    Each eigenvalue e^power is read off its entry e as power * log|e| and
    power * arg e reduced to [-pi, pi]; e^power itself is never formed, so
    every flag is decided at any m, and only `value` and the distance to the
    identity leave the float range.  The compact factor is the kernel of the
    projection and is excluded from the distance to the identity.  The
    argument window holds unconditionally by choice of c; the log-modulus
    window is conditional on the Mahler hypothesis M(p) < exp(eta)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    summary = element.summary
    t = summary.t
    targets = tuple(
        cmath.phase(emb.alpha_value**2) / (2 * math.pi)
        for emb in summary.embeddings
        if emb.klass == COMPLEX_SPLIT and emb.alpha_value.imag > 0
    )
    witness = dirichlet_c(targets, m)
    power = 2 * witness.c
    e = eta(m, t)
    cert = mahler_measure(summary.poly)
    hypothesis = cert.upper < math.exp(e)
    eigen: list[EigenvalueFlags] = []
    distance = 0.0
    for emb in summary.embeddings:
        if emb.klass == CIRCLE_COMPACT:
            continue
        a = emb.alpha_value
        for entry in (a, 1 / a) + (1 + 0j,) * (element.n - 2):
            logmod = power * math.log(abs(entry))
            arg = math.remainder(power * cmath.phase(entry), 2 * math.pi)
            try:
                value = cmath.rect(math.exp(logmod), arg)
            except OverflowError:
                value = cmath.rect(math.inf, arg)
            eigen.append(
                EigenvalueFlags(
                    value=value,
                    log_modulus=logmod,
                    argument=arg,
                    log_modulus_in_window=abs(logmod) <= 1 / m + _TOL,
                    argument_in_window=abs(arg) <= 2 * math.pi / m + _TOL,
                )
            )
            distance = max(distance, abs(value - 1))
    return GammaPowerReport(
        element=element,
        witness=witness,
        m=m,
        power=power,
        eta=e,
        mahler=cert,
        mahler_hypothesis_met=hypothesis,
        eigenvalues=tuple(eigen),
        distance_to_identity=distance,
        infinite_order=summary.s >= 1,
    )


@dataclass(frozen=True)
class ScanEntry:
    poly: IntPoly
    m: int
    hypothesis_met: bool
    hypothesis_gap: Optional[float]  # M / exp(eta) when the hypothesis fails
    report: Optional[GammaPowerReport]
    chain_holds: Optional[bool]  # 1 < |lambda^(2c)| <= exp(1/m) at outside places


@dataclass
class ScanReport:
    n: int
    entries: list[ScanEntry] = field(default_factory=list)


def counterexample_scan(
    polys: Sequence[IntPoly], n: int, m_values: Sequence[int]
) -> ScanReport:
    """Run the would-be counterexample pipeline over (poly, m) pairs.

    All polynomials must share the same (s, r) class.  When the hypothesis
    M < exp(eta) holds, the full power report is produced and the chain
    1 < |lambda^(2c)| <= exp(1/m) asserted at the outside places; otherwise
    the hypothesis gap is recorded."""
    report = ScanReport(n)
    summaries = [field_summary(p) for p in polys]
    classes = {(s.s, s.r) for s in summaries}
    if len(classes) > 1:
        raise ValueError(f"mixed (s, r) classes in scan input: {sorted(classes)}")
    for summary in summaries:
        element = build_gamma(summary, n)
        for m in m_values:
            power_report = gamma_power_report(element, m)
            if power_report.mahler_hypothesis_met:
                chain = all(
                    e.log_modulus_in_window
                    for e in power_report.eigenvalues
                    if e.log_modulus > 0
                )
                entry = ScanEntry(summary.poly, m, True, None, power_report, chain)
            else:
                gap = power_report.mahler.value / math.exp(float(power_report.eta))
                entry = ScanEntry(summary.poly, m, False, gap, power_report, None)
            report.entries.append(entry)
    return report
