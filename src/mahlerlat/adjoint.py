"""Characteristic polynomials of the conjugation action on trace-zero
matrices, their global product over all embeddings, and whether their
spectrum is torsion."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import CIRCLE_COMPACT, FieldSummary
from .intpoly import IntPoly


@dataclass(frozen=True)
class AdjointReport:
    n: int
    global_poly: IntPoly
    f_values: tuple[float, ...]  # per noncompact place
    f_total: float
    s_global: int
    s_bound: int
    s_bound_ok: bool
    torsion: bool


def global_integrality(summary: FieldSummary, n: int = 2) -> AdjointReport:
    """The adjoint characteristic polynomial of gamma multiplied over all d
    embeddings, in exact closed form.

    At an embedding with gamma = diag(a, 1/a, 1, ..., 1) the adjoint
    eigenvalues are a^2 and a^-2 once, a and 1/a each 2(n - 2) times, and 1
    with multiplicity (n - 2)(n - 3) + n - 1.  The d embeddings take one root
    from each pair {a, 1/a} of roots of P, so the global product is
    graeffe(P) * P^(2(n - 2)) * (x - 1)^(d((n - 2)(n - 3) + n - 1)), with
    integer coefficients by construction.  Each of the s noncompact places
    has 2n - 3 eigenvalues outside the unit circle, and the spectrum is
    torsion iff P has measure 1, that is iff s = 0 (Kronecker's theorem).

    A place's product of max(1, |eigenvalue|) is therefore
    max(|a|, 1/|a|)^(2(n - 1)).  Compact places contribute only modulus-1
    roots, so the total Mahler measure is carried entirely by the noncompact
    places."""
    if n < 2:
        raise ValueError("matrix size must be >= 2")
    p = summary.poly
    global_poly = p.graeffe() * p ** (2 * (n - 2)) * _x_minus_one_power(_ones(summary.d, n))
    f_values = tuple(
        max(abs(e.alpha_value), 1 / abs(e.alpha_value)) ** (2 * (n - 1))
        for e in summary.embeddings
        if e.klass != CIRCLE_COMPACT
    )
    s_global = (2 * n - 3) * summary.s
    s_bound = (n * n - 1) * (summary.r + 2 * summary.t)
    return AdjointReport(
        n=n,
        global_poly=global_poly,
        f_values=f_values,
        f_total=math.prod(f_values, start=1.0),
        s_global=s_global,
        s_bound=s_bound,
        s_bound_ok=s_global <= s_bound,
        torsion=summary.s == 0,
    )


def coefficient_bits_floor(summary: FieldSummary, n: int) -> int:
    """A b >= 0 with 2^b <= the largest |coefficient| of the global
    polynomial h = graeffe(P) P^(2(n - 2)) (x - 1)^k of `global_integrality`,
    read off h(-1) without building h; 0 for n < 2, which has no h.

    max |h_i| >= |h(-1)| / (deg h + 1), and
    |h(-1)| = |graeffe(P)(-1)| |P(-1)|^(2(n - 2)) 2^k, each nonzero factor at
    least 2^(bit length - 1)."""
    if n < 2:
        return 0
    p = summary.poly
    g, q = abs(p.graeffe()(-1)), abs(p(-1))
    if not g or not q:
        return 0
    k = _ones(summary.d, n)
    size = p.degree * (2 * n - 3) + k + 1  # deg h + 1
    bits = g.bit_length() - 1 + 2 * (n - 2) * (q.bit_length() - 1) + k - size.bit_length()
    return max(bits, 0)


def _ones(d: int, n: int) -> int:
    """The multiplicity of the adjoint eigenvalue 1 over d embeddings."""
    return d * ((n - 2) * (n - 3) + n - 1)


def _x_minus_one_power(k: int) -> IntPoly:
    """(x - 1)^k, coefficient by coefficient from the binomial recurrence
    C(k, j + 1) = C(k, j) (k - j) / (j + 1)."""
    coeffs, c = [], 1
    for j in range(k + 1):
        coeffs.append(c if (k - j) % 2 == 0 else -c)
        c = c * (k - j) // (j + 1)
    return IntPoly(coeffs)
