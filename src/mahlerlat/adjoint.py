"""Characteristic polynomials of the conjugation action on trace-zero
matrices, their global product over all embeddings, and whether their
spectrum is torsion."""
from __future__ import annotations

from dataclasses import dataclass

from .fields import CIRCLE_COMPACT, FieldSummary
from .intpoly import IntPoly


@dataclass(frozen=True)
class PlaceCharPoly:
    index: int
    klass: str
    mahler: float  # product of max(1, |eigenvalue|)


@dataclass(frozen=True)
class AdjointReport:
    n: int
    places: tuple[PlaceCharPoly, ...]
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
    ones = summary.d * ((n - 2) * (n - 3) + n - 1)
    global_poly = p.graeffe() * p ** (2 * (n - 2)) * IntPoly((-1, 1)) ** ones
    places = []
    f_values = []
    for emb in summary.embeddings:
        a = abs(emb.alpha_value)
        mah = max(a, 1 / a) ** (2 * (n - 1))
        places.append(PlaceCharPoly(emb.index, emb.klass, mah))
        if emb.klass != CIRCLE_COMPACT:
            f_values.append(mah)
    s_global = (2 * n - 3) * summary.s
    s_bound = (n * n - 1) * (summary.r + 2 * summary.t)
    f_total = 1.0
    for v in f_values:
        f_total *= v
    return AdjointReport(
        n=n,
        places=tuple(places),
        global_poly=global_poly,
        f_values=tuple(f_values),
        f_total=f_total,
        s_global=s_global,
        s_bound=s_bound,
        s_bound_ok=s_global <= s_bound,
        torsion=summary.s == 0,
    )

