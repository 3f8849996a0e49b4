"""The benchmark's workloads: seeded inputs, the op each input drives through
mahlerlat's public API, and the exact outputs each op produces.

Library functions are looked up on their module at call time
(``salem.search_box``), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field

from mahlerlat import adjoint, fields, lattice, mahler, salem
from mahlerlat.intpoly import IntPoly
from mahlerlat.roots import CertificationError
from oracles import is_irreducible

OK = "ok"
VALUE_ERROR = "value_error"
CERTIFICATION_ERROR = "certification_error"
ASSERTION_ERROR = "assertion_error"
OTHER = "other"
OUTCOMES = (OK, VALUE_ERROR, CERTIFICATION_ERROR, ASSERTION_ERROR, OTHER)
# A typed ValueError is the documented answer for a rejected input, not a
# failure; every other exception is.
FAILURES = (CERTIFICATION_ERROR, ASSERTION_ERROR, OTHER)


def outcome_of(exc: BaseException) -> str:
    if isinstance(exc, CertificationError):
        return CERTIFICATION_ERROR
    if isinstance(exc, AssertionError):
        return ASSERTION_ERROR
    if isinstance(exc, ValueError):
        return VALUE_ERROR
    return OTHER


@dataclass
class OpResult:
    """What one op produced.  `exact` maps a step label to its exact outputs
    (or to the outcome class when the step raised); `floats` holds certified
    values with their radii; `units` maps each input the op covered to its
    weight in ops_per_s and failed_frac."""

    exact: dict = field(default_factory=dict)
    floats: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)
    failed_units: set = field(default_factory=set)
    outcome: str = OK
    errors: list = field(default_factory=list)
    latency: float = 0.0
    # An intermediate value a known-failure probe reuses; not an output.
    state: object = None

    def attempt(self, label: str, fn, *args, unit=None, **kwargs):
        """Run one certificate step; record, never propagate, its failure.
        `unit` names the input the step covers; by default, all of the op's."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # every outcome is classified and counted
            kind = outcome_of(exc)
            self.exact[label] = (kind,)
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            if self.outcome == OK or (self.outcome == VALUE_ERROR and kind in FAILURES):
                self.outcome = kind
            if kind in FAILURES:
                self.failed_units.update(self.units if unit is None else [unit])
            return None

    @property
    def failed(self) -> bool:
        return self.outcome in FAILURES

    def digest(self) -> str:
        return hashlib.sha256(repr(sorted(self.exact.items())).encode()).hexdigest()


def _shuffled_cycle(rng: random.Random, values):
    """Every value once per block, in a fresh seeded order each block, so
    each run carries the same mix of values."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


# ---------------------------------------------------------------------------
# palindromic_box
# ---------------------------------------------------------------------------

BOX_DEGREE, BOX_HEIGHT, BETA_N = 12, 1, 10
# Candidates each op enumerates: interior coefficient vectors of the monic
# palindromic polynomials of even degree (search) and of degree 4..n (beta_n).
BOX_SEARCH_CANDIDATES = sum((2 * BOX_HEIGHT + 1) ** (d // 2) for d in range(2, BOX_DEGREE + 1, 2))
BOX_BETA_CANDIDATES = sum((2 * BOX_HEIGHT + 1) ** (d // 2) for d in range(4, BETA_N + 1, 2))


class PalindromicBox:
    name = "palindromic_box"
    description = {
        "why": "Exhaustive small-measure box traffic in the style of Mossinghoff-Rhin-Wu. "
        "Every candidate is seen once per op, so a per-polynomial cache can only cost; "
        "Kronecker/Graeffe, canonical_form dedup, gcd circle counts, Sturm counts and "
        "numeric polishing carry the time.",
        "op": f"search_box({BOX_DEGREE}, {BOX_HEIGHT}, palindromic_only=True) then "
        f"beta_n({BETA_N}, {BOX_HEIGHT}): {BOX_SEARCH_CANDIDATES} + {BOX_BETA_CANDIDATES} "
        "candidates. ops_per_s counts candidates enumerated per second. The box is the "
        "traffic, so the seed does not change it.",
        "cliffs": "None inside the box. Larger boxes grow as 3^(deg/2): degree 14 "
        "takes about 4x degree 12.",
    }
    tail_percentile = None  # a run holds a handful of ops: the tail is the maximum
    cycle_ops = 1

    def inputs(self, seed: int):
        return itertools.repeat(None)

    def known_failures(self, results) -> list:
        return []

    def warmup(self) -> None:
        salem.search_box(4, 1, palindromic_only=True)

    def run(self, _inp) -> OpResult:
        op = OpResult(units={"search": BOX_SEARCH_CANDIDATES, "beta_n": BOX_BETA_CANDIDATES})
        res = op.attempt("search", salem.search_box, BOX_DEGREE, BOX_HEIGHT,
                         palindromic_only=True, unit="search")
        if res is not None:
            op.exact["search"] = (res.scanned, res.complete,
                                  tuple(p.coeffs for p, _ in res.minima))
            op.floats["search"] = [(p.coeffs, c.value, c.error_radius) for p, c in res.minima]
        beta = op.attempt("beta_n", salem.beta_n, BETA_N, BOX_HEIGHT, unit="beta_n")
        if beta is not None:
            op.exact["beta_n"] = (beta.poly.coeffs,)
            op.floats["beta_n"] = beta.salem_value
        return op


# ---------------------------------------------------------------------------
# member_pipeline
# ---------------------------------------------------------------------------

MEMBER_DEGREES = range(4, 17, 2)
MEMBER_HEIGHTS = (1, 2, 3)
M_VALUES = range(1, 9)
ADJOINT_N = (2,)
# global_integrality fails its float integrality check (AssertionError) at
# n = 4 on most members of degree 8 or more, and at n = 3 on a few degree 16
# members (4 of 120 over 30 seeds); n = 2 never failed in 840 members.  Timed
# ops must not fail, so n = 3 and 4 run only as known-failure probes, on
# every member of the run, outside the timing.
KNOWN_FAILING_N = (3, 4)


def draw_member(rng: random.Random, degree: int) -> IntPoly:
    """A monic palindromic polynomial of the given degree, height at most a
    drawn h, redrawn until sympy finds it irreducible."""
    while True:
        h = rng.choice(MEMBER_HEIGHTS)
        half = [rng.randint(-h, h) for _ in range(degree // 2)]
        coeffs = [1] + half + half[-2::-1] + [1]
        if is_irreducible(coeffs):
            return IntPoly(coeffs)


class MemberPipeline:
    name = "member_pipeline"
    description = {
        "why": "The path behind construct, scan, trace-poly and adjoint. Each polynomial "
        "is analysed again and again (refine_roots about 10 times per polynomial), so "
        "memoisation and one analysis per polynomial show here.",
        "op": "One irreducible palindromic member (degree 4-16, one of each degree per "
        "block of 7 in seeded order, height 1-3, irreducibility decided by sympy): "
        "field_summary, build_gamma(n=2), gamma_power_report for m = 1..8, "
        "global_integrality for n = 2.",
        "cliffs": "global_integrality fails its float integrality check (AssertionError) "
        "at n = 4 on most members of degree 8 or more and at n = 3 on about 3% of degree "
        "16 members. Both run untimed, as known-failure probes on every member of the "
        "run, and their failures are reported as known_failures, not in failed_frac.",
    }
    tail_percentile = 90
    cycle_ops = 1

    def inputs(self, seed: int):
        rng = random.Random(f"member_pipeline/{seed}")
        for degree in _shuffled_cycle(rng, MEMBER_DEGREES):
            yield draw_member(rng, degree)

    def known_failures(self, results) -> list:
        """Each distinct member of the run through global_integrality at the
        known-failing n, reusing the op's field summary."""
        probes = {}
        for _, res in results:
            (coeffs,) = res.units
            if res.state is not None and coeffs not in probes:
                probes[coeffs] = op = OpResult(units={coeffs: 1})
                for n in KNOWN_FAILING_N:
                    self._adjoint(op, res.state, n)
        return list(probes.values())

    def warmup(self) -> None:
        self.run(IntPoly((1, -1, -1, -1, 1)))

    def run(self, p: IntPoly) -> OpResult:
        op = OpResult(units={p.coeffs: 1})
        summary = op.attempt("field_summary", fields.field_summary, p)
        if summary is None:
            return op
        op.state = summary
        circle = sum(1 for e in summary.embeddings if e.klass == fields.CIRCLE_COMPACT)
        op.exact["field_summary"] = (summary.s, summary.r, 2 * circle, summary.signature_K,
                                     summary.trace_poly.coeffs)
        gamma = op.attempt("build_gamma", lattice.build_gamma, summary, 2)
        if gamma is not None:
            op.exact["build_gamma"] = (gamma.cocompact,)
            for m in M_VALUES:
                rep = op.attempt(f"power m={m}", lattice.gamma_power_report, gamma, m)
                if rep is not None:
                    op.exact[f"power m={m}"] = (rep.witness.c, rep.power,
                                                rep.mahler_hypothesis_met,
                                                rep.mahler.is_one_exact)
                    op.floats["mahler"] = (rep.mahler.value, rep.mahler.error_radius)
        for n in ADJOINT_N:
            self._adjoint(op, summary, n)
        return op

    @staticmethod
    def _adjoint(op: OpResult, summary, n: int) -> None:
        rep = op.attempt(f"adjoint n={n}", adjoint.global_integrality, summary, n)
        if rep is not None:
            op.exact[f"adjoint n={n}"] = (rep.global_poly.coeffs, rep.s_global, rep.torsion)


# ---------------------------------------------------------------------------
# dense_general
# ---------------------------------------------------------------------------

DENSE_DEGREES = range(8, 18)
CLIFF_DEGREES = (18, 19, 20)
DENSE_HEIGHT = 3
# The constant term a0 decides the route: |a0| = 1 makes the first Schur-Cohn
# step degenerate, so the count falls back to certified disks (about 0.1 s at
# degree 20), while |a0| >= 2 mostly runs the recursion to the end and meets
# the bit-length cliff (0.09-0.23 s at degree 18, 0.2-0.8 s at 19, 0.7-1.9 s
# at 20; below 18 both routes take 0.02-0.11 s).  Each degree cycles through
# every nonzero a0, so each run carries the same share of inputs on each route.
DENSE_CONSTANTS = [c for c in range(-DENSE_HEIGHT, DENSE_HEIGHT + 1) if c]
# Mignotte-type inputs x^d - 2(ax - 1)^2: five evenly spaced levels of each of
# d = 8..20 and a = 5..20, each used once (a Latin design, pairing a level
# 2i mod 5 with d level i), not picked by outcome.  (14, 20) ends in
# CertificationError; timed ops must not fail, so it runs only as a
# known-failure probe, outside the timing.
MIGNOTTE_DESIGN = ((8, 5), (11, 13), (14, 20), (17, 9), (20, 16))
MIGNOTTE_FAILING = (14, 20)
MIGNOTTE_PANEL = tuple(da for da in MIGNOTTE_DESIGN if da != MIGNOTTE_FAILING)
CLIFF_PANEL_SIZE = 6
ROUND = 12  # ops per round: one panel input at a seeded slot, the rest seeded draws


def mignotte(d: int, a: int) -> IntPoly:
    """x^d - 2(ax - 1)^2: two real roots within about a^(-d/2) of 1/a."""
    return IntPoly([-2, 4 * a, -2 * a * a] + [0] * (d - 3) + [1])


def draw_dense(rng: random.Random, degree: int, constant: int) -> IntPoly:
    coeffs = [constant] + [rng.randint(-DENSE_HEIGHT, DENSE_HEIGHT) for _ in range(degree - 1)]
    return IntPoly(coeffs + [1])


def cliff_panel() -> list[IntPoly]:
    """Degree 18-20 inputs drawn once, from a fixed seed, by the same rule as
    the seeded ones."""
    rng = random.Random("dense_general/cliff-panel")
    constants = _shuffled_cycle(rng, DENSE_CONSTANTS)
    return [draw_dense(rng, CLIFF_DEGREES[i % len(CLIFF_DEGREES)], next(constants))
            for i in range(CLIFF_PANEL_SIZE)]


# The panel inputs are too slow and too few per run for per-seed draws to be
# steady: drawing the degree 19-20 inputs per seed moved op_tail_ms by 37%
# (IQR over median, five seeds, on a 2-vCPU VM), and a seeded draw of
# Mignotte parameters moves a run's time by seconds and its failures by
# several.  So each cycle of rounds carries every panel input once, and a
# run is whole cycles, which keeps the mix of inputs the same at any speed.
# The slow panel inputs stay under 10% of ops, so p90 falls among the seeded
# degree 16-17 inputs, whose costs lie close together.
PANEL = [mignotte(d, a) for d, a in MIGNOTTE_PANEL] + cliff_panel()


class DenseGeneral:
    name = "dense_general"
    description = {
        "why": "General dense inputs exercise the Schur-Cohn route, the certified-disk "
        "fallback, dps escalation and sympy factorisation at larger degree, which the "
        "palindromic box never reaches.",
        "op": "mahler_measure then certify on one monic polynomial. Seeded inputs: "
        "degree 8-17 (one of each degree per block of 10, seeded order), height 3, "
        "constant term cycling through the nonzero values per degree. Panel inputs, one "
        f"at a seeded slot of each round of {ROUND} ops, each once per cycle of "
        f"{len(PANEL)} rounds in seeded order: {len(MIGNOTTE_PANEL)} Mignotte inputs "
        f"x^d - 2(ax - 1)^2 for (d, a) in {MIGNOTTE_PANEL}, and {CLIFF_PANEL_SIZE} "
        "degree 18-20 inputs drawn once by the seeded rule from a fixed seed. A run is "
        "whole cycles. A failed mahler_measure ends the op: certify would repeat the "
        "same failing root refinement.",
        "cliffs": "Schur-Cohn coefficient bit-length doubles at each step (4 to 4149 bits "
        "in 12 steps at degree 30). Inputs with |a0| >= 2 take 0.09-0.23 s at degree 18, "
        "0.2-0.8 s at 19 and 0.7-1.9 s at 20, against about 0.1 s with |a0| = 1; at "
        "degree 22, 6 of 15 "
        "inputs took 1.4-6 s, and at degrees 24 and 30 about half ran past 20 s, so "
        "degrees stop at 20. Mignotte inputs escalate dps up to 2000 for up to 6 s; "
        f"{MIGNOTTE_FAILING} ends in CertificationError after about 2 s. It runs "
        "untimed, as a known-failure probe, and is reported as known_failures, not in "
        "failed_frac.",
    }
    tail_percentile = 90
    cycle_ops = ROUND * len(PANEL)

    def inputs(self, seed: int):
        rng = random.Random(f"dense_general/{seed}")
        degrees = _shuffled_cycle(rng, DENSE_DEGREES)
        constants = {d: _shuffled_cycle(rng, DENSE_CONSTANTS) for d in DENSE_DEGREES}
        for panel_input in _shuffled_cycle(rng, PANEL):
            slot = rng.randrange(ROUND)
            for i in range(ROUND):
                if i == slot:
                    yield panel_input
                else:
                    degree = next(degrees)
                    yield draw_dense(rng, degree, next(constants[degree]))

    def known_failures(self, results) -> list:
        return [self.run(mignotte(*MIGNOTTE_FAILING))]

    def warmup(self) -> None:
        self.run(IntPoly((-1, -1, 0, 1)))

    def run(self, p: IntPoly) -> OpResult:
        op = OpResult(units={p.coeffs: 1})
        cert = op.attempt("mahler_measure", mahler.mahler_measure, p)
        if cert is None:
            return op
        op.exact["mahler_measure"] = (cert.is_one_exact,)
        op.floats["mahler_measure"] = (cert.value, cert.error_radius)
        sc = op.attempt("certify", salem.certify, p)
        if sc is not None:
            prof = sc.profile
            op.exact["certify"] = (sc.kind, prof.s, prof.r, prof.on_circle,
                                   sc.irreducibility.status)
            op.floats["certify"] = sc.salem_value
        return op


WORKLOADS = {w.name: w for w in (PalindromicBox(), MemberPipeline(), DenseGeneral())}
