"""Reference counts, used by the tests as oracles.

The library counts the roots of a factor with no circle roots inside the
unit disk by one exact Routh-Hurwitz count on its Cayley transform.  These
are the two routes it replaced: the Schur-Cohn recursion, which degenerates
whenever |a_0| = |a_n| at some step, and the certified-disk count from
Newton-polished roots that took over in that case.

The library decides measure 1 as the exact count s = 0; `kronecker_test`
decides it independently, by Graeffe iteration.
"""
from __future__ import annotations

import math
from typing import Optional

from mahlerlat.intpoly import IntPoly
from mahlerlat.roots import CertificationError, _polished_roots, _seeds


def _schur_cohn_inside(u: IntPoly) -> Optional[int]:
    """Schur-Cohn count of roots with |z| < 1, or None on a degenerate step.

    Recursion: p_{k+1} = a_0 p_k - a_n p_k^* with delta_{k+1} = a_0^2 - a_n^2;
    when every delta is nonzero and the degree drops by exactly one each step,
    the inside count is the number of negative partial products of the deltas.
    """
    coeffs = list(u.coeffs)
    n = len(coeffs) - 1
    if n <= 0:
        return 0
    deltas = []
    cur = coeffs
    for _ in range(n):
        a0, an = cur[0], cur[-1]
        delta = a0 * a0 - an * an
        if delta == 0:
            return None
        nxt = [a0 * c - an * r for c, r in zip(cur, reversed(cur))]
        while nxt and nxt[-1] == 0:
            nxt.pop()
        if len(nxt) != len(cur) - 1:
            return None
        deltas.append(delta)
        cur = nxt
    count = 0
    prod = 1
    for d in deltas:
        prod *= 1 if d > 0 else -1
        if prod < 0:
            count += 1
    return count


def _certified_inside(u: IntPoly) -> int:
    """Inside count by certified disks; valid only when u has no circle roots."""
    if u.degree <= 0:
        return 0
    seeds = _seeds(u)
    for dps in (30, 60, 120, 240):
        approx = _polished_roots(u, seeds, dps)
        if all(abs(abs(z) - 1) > rad for z, rad in approx):
            return sum(1 for z, rad in approx if abs(z) < 1)
    raise CertificationError(f"could not separate roots of {u} from the unit circle")


def reference_inside(u: IntPoly) -> int:
    """Schur-Cohn, or certified disks where it degenerates."""
    sc = _schur_cohn_inside(u)
    return sc if sc is not None else _certified_inside(u)


def kronecker_test(p: IntPoly) -> bool:
    """True iff M(p) = 1 exactly.

    Factors of x are stripped; then Graeffe iteration either revisits a
    coefficient vector (all roots are roots of unity) or exceeds the binomial
    coefficient bound satisfied by measure-1 polynomials (some root has
    modulus > 1).  Terminates by pigeonhole on the bounded set.
    """
    if p.is_zero or not p.is_monic:
        raise ValueError("Kronecker test requires a monic polynomial")
    cs = p.coeffs
    while cs and cs[0] == 0:
        cs = cs[1:]
    q = IntPoly(cs)
    d = q.degree
    if d == 0:
        return True
    bound = math.comb(d, d // 2)
    seen = {q.coeffs}
    while True:
        if any(abs(c) > bound for c in q.coeffs):
            return False
        q = q.graeffe()
        if q.coeffs in seen:
            return True
        seen.add(q.coeffs)
