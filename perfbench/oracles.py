"""Independent oracles for the correctness gate.

None of these call mahlerlat.  Root counts come from sympy's squarefree
factorisation and high-precision ``mpmath.polyroots``; Dirichlet multipliers
from a brute-force scan; adjoint global polynomials from the closed form
graeffe(P) * P^(2(n-2)) * (x - 1)^(d((n-2)(n-3) + n - 1)) built with sympy.
Each check returns a list of problems; an empty list passes.
"""
from __future__ import annotations

import itertools
import random

import mpmath
import numpy as np
import sympy

_X = sympy.Symbol("x")
DPS = 60
TOL = mpmath.mpf(10) ** (-DPS // 2)

LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
LEHMER_M = 1.17628081826  # Lehmer's measure to 12 significant digits


def _sympy_poly(coeffs) -> sympy.Poly:
    return sympy.Poly(list(reversed(coeffs)), _X)


def is_irreducible(coeffs) -> bool:
    """Irreducibility over Q, decided by sympy."""
    return _sympy_poly(coeffs).is_irreducible


def _negate_var(coeffs) -> tuple:
    return tuple(c if i % 2 == 0 else -c for i, c in enumerate(coeffs))


def roots(coeffs) -> list:
    """Every complex root, repeated by multiplicity, at DPS digits."""
    out = []
    _, factors = _sympy_poly(coeffs).sqf_list()
    with mpmath.workdps(DPS):
        for f, mult in factors:
            cs = [int(c) for c in f.all_coeffs()]
            if len(cs) > 1:
                found = mpmath.polyroots(cs, maxsteps=800, extraprec=4 * DPS)
                out.extend([mpmath.mpc(z) for z in found] * mult)
    return out


def profile(coeffs) -> dict:
    """Exact location counts read off certified-precision roots: s (outside),
    r (real outside), on (on the circle), real (all real roots), measure."""
    zs = roots(coeffs)
    with mpmath.workdps(DPS):
        outside = [z for z in zs if abs(z) > 1 + TOL]
        return {
            "s": len(outside),
            "r": sum(1 for z in outside if abs(z.imag) < TOL),
            "on": sum(1 for z in zs if abs(abs(z) - 1) <= TOL),
            "real": sum(1 for z in zs if abs(z.imag) < TOL),
            "measure": float(mpmath.fprod(abs(z) for z in outside)) if outside else 1.0,
            "upper_outside": [z for z in outside if z.imag > TOL],
        }


def _within(value: float, radius: float, exact: float) -> bool:
    """|value - exact| within the certified radius, plus the last-digit
    rounding of converting the oracle to a float."""
    return abs(value - exact) <= radius + 4e-16 * abs(exact)


def dirichlet_c(upper_outside, m: int) -> int:
    """Smallest 0 < c <= m^t with every c * arg(alpha^2)/(2 pi) within 1/m of
    an integer, over the t upper-half outside roots alpha."""
    with mpmath.workdps(DPS):
        targets = [mpmath.arg(z * z) / (2 * mpmath.pi) for z in upper_outside]
        window = mpmath.mpf(1) / m
        for c in range(1, m ** len(targets) + 1):
            if all(abs(c * x - mpmath.nint(c * x)) <= window for x in targets):
                return c
    raise AssertionError("pigeonhole violated")


def adjoint_global_poly(coeffs, n: int) -> tuple:
    p = _sympy_poly(coeffs)
    d = p.degree() // 2
    prod = (p * sympy.Poly(p.as_expr().subs(_X, -_X), _X)).all_coeffs()[::-1]
    graeffe = sympy.Poly(list(reversed(prod[::2])), _X)
    if graeffe.LC() < 0:
        graeffe = -graeffe
    g = graeffe * p ** (2 * (n - 2)) * sympy.Poly(_X - 1, _X) ** (d * ((n - 2) * (n - 3) + n - 1))
    return tuple(int(c) for c in reversed(g.all_coeffs()))


def trace_identity_holds(coeffs, trace_coeffs) -> bool:
    """p(y) = y^d Q(y + 1/y), checked by sympy expansion."""
    d = (len(coeffs) - 1) // 2
    q = sum(c * (_X + 1 / _X) ** k for k, c in enumerate(trace_coeffs))
    return sympy.expand(_X**d * q - _sympy_poly(coeffs).as_expr()) == 0


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------


def check_member(coeffs, op) -> list[str]:
    got = op.exact
    prof = profile(coeffs)
    d = (len(coeffs) - 1) // 2
    problems = []
    summary = got.get("field_summary")
    if summary is not None and len(summary) > 1:
        s, r, on, sig, trace = summary
        n_real_k = (prof["real"] + prof["on"]) // 2
        want = (prof["s"], prof["r"], prof["on"], (n_real_k, (d - n_real_k) // 2))
        if (s, r, on, tuple(sig)) != want:
            problems.append(f"(s, r, on, signature_K) {(s, r, on, sig)} != oracle {want}")
        if not trace_identity_holds(coeffs, trace):
            problems.append("trace polynomial fails p(y) = y^d Q(y + 1/y)")
    for m in range(1, 9):
        power = got.get(f"power m={m}")
        if power is not None and len(power) > 1:
            c = dirichlet_c(prof["upper_outside"], m)
            if power[:2] != (c, 2 * c):
                problems.append(f"m={m}: (c, power) {power[:2]} != oracle {(c, 2 * c)}")
            if power[3] != (prof["s"] == 0):
                problems.append(f"m={m}: kronecker bit {power[3]} but s = {prof['s']}")
    if "mahler" in op.floats:
        value, radius = op.floats["mahler"]
        if not _within(value, radius, prof["measure"]):
            problems.append(f"measure {value} +/- {radius} misses oracle {prof['measure']}")
    for n in (2, 3, 4):
        adj = got.get(f"adjoint n={n}")
        if adj is not None and len(adj) > 1:
            want = (adjoint_global_poly(coeffs, n), (2 * n - 3) * prof["s"], prof["s"] == 0)
            if tuple(adj) != want:
                problems.append(f"n={n}: (global_poly, s_global, torsion) differs from oracle")
    return problems


def salem_kind(coeffs, prof) -> str:
    irreducible = is_irreducible(coeffs)
    palindromic = tuple(coeffs) == tuple(reversed(coeffs))
    if irreducible and prof["on"] >= 1:
        if prof["s"] == 1 and prof["r"] == 1 and palindromic and len(coeffs) >= 5:
            return "salem"
        if prof["s"] == 2 and prof["r"] == 0:
            return "complex_salem"
    return "neither"


def check_dense(coeffs, op) -> list[str]:
    got = op.exact
    prof = profile(coeffs)
    problems = []
    mm = got.get("mahler_measure")
    if mm is not None and len(mm) == 1 and isinstance(mm[0], bool):
        if mm[0] != (prof["s"] == 0):
            problems.append(f"kronecker bit {mm[0]} but oracle s = {prof['s']}")
        value, radius = op.floats["mahler_measure"]
        if not _within(value, radius, prof["measure"]):
            problems.append(f"measure {value} +/- {radius} misses oracle {prof['measure']}")
    cert = got.get("certify")
    if cert is not None and len(cert) > 1:
        kind, s, r, on, irr = cert
        want = (salem_kind(coeffs, prof), prof["s"], prof["r"], prof["on"],
                "irreducible" if is_irreducible(coeffs) else "reducible")
        if (kind, s, r, on, irr) != want:
            problems.append(f"(kind, s, r, on, irreducibility) {cert} != oracle {want}")
    return problems


def palindromic_box(degree_max: int, height: int):
    """Monic palindromic polynomials of even degree 2..degree_max."""
    for degree in range(2, degree_max + 1, 2):
        for interior in itertools.product(range(-height, height + 1), repeat=degree // 2):
            yield (1,) + interior + interior[-2::-1] + (1,)


def _numpy_measure(coeffs) -> float:
    zs = np.roots(list(reversed(coeffs)))
    return float(np.prod(np.maximum(1.0, np.abs(zs))))


def check_box(op, seed: int, degree_max: int, height: int) -> list[str]:
    """Exhaustive oracle over the box: the certified set must be exactly one
    representative per class {p, p(-x)} with measure > 1.  No measure of
    degree <= 12 lies in (1, 1.1] (Lehmer's 1.176 is the least), so float
    roots decide measure > 1 safely."""
    problems = []
    search = op.exact.get("search")
    if search is None or len(search) != 3:
        return [f"search_box produced no result: {search}"]
    scanned, complete, minima = search
    candidates = list(palindromic_box(degree_max, height))
    if (scanned, complete) != (len(candidates), True):
        problems.append(f"scanned {scanned}, complete {complete}; box has {len(candidates)}")
    want = {min(c, _negate_var(c)) for c in candidates if _numpy_measure(c) > 1.1}
    got = [min(c, _negate_var(c)) for c in minima]
    if len(set(got)) != len(got):
        problems.append("search returned two members of one class {p, p(-x)}")
    if set(got) != want:
        problems.append(f"certified classes {len(set(got))} != oracle {len(want)}")
    values = [v for _, v, _ in op.floats["search"]]
    if values != sorted(values):
        problems.append("minima not sorted by measure")
    best_coeffs, best, best_radius = op.floats["search"][0]
    best_poly = _sympy_poly(best_coeffs)
    if all(best_poly.rem(_sympy_poly(c)) for c in (LEHMER, _negate_var(LEHMER))):
        problems.append(f"minimum at {best_coeffs}, which Lehmer's polynomial does not divide")
    lehmer_m = profile(LEHMER)["measure"]
    if not (_within(best, best_radius, lehmer_m) and _within(best, best_radius + 5e-12, LEHMER_M)):
        problems.append(f"minimum {best} +/- {best_radius} is not Lehmer's M = {lehmer_m}")
    sample = random.Random(f"box-sample/{seed}").sample(op.floats["search"], 8)
    for c, value, radius in sample:
        exact = profile(c)["measure"]
        if not _within(value, radius, exact):
            problems.append(f"{c}: measure {value} +/- {radius} misses oracle {exact}")
    beta = op.exact.get("beta_n")
    if beta is None or beta[0] not in (LEHMER, _negate_var(LEHMER)):
        problems.append(f"beta_n(10, 1) returned {beta}, not Lehmer's polynomial")
    elif abs(op.floats["beta_n"] - lehmer_m) > 1e-10:
        problems.append(f"beta_n Salem value {op.floats['beta_n']} is not Lehmer's")
    return problems
