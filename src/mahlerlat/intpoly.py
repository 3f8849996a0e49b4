"""Exact integer-coefficient univariate polynomials.

Coefficients are stored constant-term first: ``(1, -3, 1)`` is ``x^2 - 3x + 1``.
The zero polynomial is the empty tuple.  All values are immutable and all
operations are pure.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from math import gcd
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    import sympy

    from .roots import RootCounts


class ZeroPolynomialError(ValueError):
    """Raised when an operation rejects the zero polynomial."""


@dataclass(frozen=True)
class IntPoly:
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(map(operator.index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of(cls, *coeffs: int) -> "IntPoly":
        return cls(coeffs)

    @classmethod
    def x_power(cls, k: int) -> "IntPoly":
        return cls([0] * k + [1])

    @classmethod
    def parse(cls, text: str) -> "IntPoly":
        """Parse space-separated integer coefficients, constant term first."""
        return cls(int(tok) for tok in text.split())

    # -- basic structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        """Evaluate by Horner's rule; works for int, Fraction, float, complex, mpc."""
        acc = 0 * x if self.is_zero else self.coeffs[-1] + 0 * x
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.coeffs) if self.coeffs else "0"

    # -- ring arithmetic ------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntPoly(x + y for x, y in zip(a, b))

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPoly((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- transforms -----------------------------------------------------------

    def derivative(self) -> "IntPoly":
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def reciprocal(self) -> "IntPoly":
        """x^deg * p(1/x): the coefficient sequence reversed."""
        if self.is_zero:
            raise ZeroPolynomialError("reciprocal of the zero polynomial")
        return IntPoly(reversed(self.coeffs))

    def is_palindromic(self) -> bool:
        if self.is_zero:
            raise ZeroPolynomialError("palindromy of the zero polynomial")
        return self.coeffs == tuple(reversed(self.coeffs))

    def compose_neg_x_squared(self) -> "IntPoly":
        """Exact composition p(-x^2); the degree doubles."""
        out = [0] * (2 * len(self.coeffs))
        for i, c in enumerate(self.coeffs):
            out[2 * i] = c if i % 2 == 0 else -c
        return IntPoly(out)

    def graeffe(self) -> "IntPoly":
        """Root-squaring step: returns q with q(x^2) = +/- p(x) p(-x).

        The sign is chosen so that a monic input yields a monic output.
        """
        if self.is_zero:
            raise ZeroPolynomialError("graeffe of the zero polynomial")
        neg = IntPoly(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs))
        prod = self * neg
        even = prod.coeffs[::2]
        q = IntPoly(even)
        return q if self.degree % 2 == 0 else -q

    def trace_polynomial(self) -> "IntPoly":
        """The unique monic Q of degree d with p(y) = y^d * Q(y + 1/y).

        Requires p monic, palindromic, of even degree 2d.
        """
        if self.is_zero or not self.is_monic:
            raise ValueError("trace polynomial requires a monic polynomial")
        if self.degree % 2 != 0:
            raise ValueError("palindromic polynomials of degree > 1 have even degree")
        if not self.is_palindromic():
            raise ValueError("trace polynomial requires a palindromic polynomial")
        return _half_trace(self.coeffs)

    def squarefree_decomposition(self) -> list[tuple["IntPoly", int]]:
        """Squarefree factors with multiplicities (primitive, positive leading),
        one per multiplicity in ascending order, by Yun's algorithm.

        With b = f / gcd(f, f') and c = f' / gcd(f, f'), each step takes
        a = gcd(b, c - b'), the product of the factors of multiplicity i, and
        continues on b / a and (c - b') / a.  f is primitive, so by Gauss's
        lemma every quotient is an integer polynomial.
        """
        if self.degree <= 0:
            return []
        f = _primitive_part(self)
        df = f.derivative()
        g = poly_gcd(f, df)
        b, c = exact_div(f, g), exact_div(df, g)
        factors = []
        i = 1
        while True:
            d = c - b.derivative()
            if d.is_zero:
                factors.append((b, i))
                return factors
            a = poly_gcd(b, d)
            if a.degree > 0:
                factors.append((a, i))
            b, c = exact_div(b, a), exact_div(d, a)
            i += 1

    # -- sympy bridge ---------------------------------------------------------

    def to_sympy(self) -> "sympy.Poly":
        import sympy

        return sympy.Poly(list(reversed(self.coeffs)) or [0], sympy.Symbol("x"), domain="ZZ")


def from_sympy(f) -> IntPoly:
    import sympy

    return IntPoly(reversed([int(c) for c in sympy.Poly(f, sympy.Symbol("x")).all_coeffs()]))


@cache
def _trace_basis(k: int) -> tuple[int, ...]:
    """Coefficients of V_k(w), constant term first: the monic polynomial with
    y^k + y^{-k} = V_k(y + 1/y), from V_0 = 2, V_1 = w and
    V_{k+1} = w V_k - V_{k-1}.  Only the coefficients of w^i with i = k mod 2
    are nonzero.  Callers read the table in order of k, so each new row finds
    the two before it kept."""
    if k < 2:
        return ((2,), (0, 1))[k]
    v, v_prev = _trace_basis(k - 1), _trace_basis(k - 2)
    return tuple(a - b for a, b in zip((0,) + v, v_prev + (0, 0)))


def _half_trace(coeffs: Sequence[int]) -> IntPoly:
    """Core of the trace transform, shared with internal non-monic callers.

    Writes p/y^d = a_d + sum_{k>=1} a_{d+k} (y^k + y^{-k}) and replaces each
    y^k + y^{-k} with V_k(w) (`_trace_basis`): one integer multiply-accumulate
    of the upper half of the coefficients against the table.
    """
    d = (len(coeffs) - 1) // 2
    q = [0] * (d + 1)
    q[0] = coeffs[d]
    for k in range(1, d + 1):
        c = coeffs[d + k]
        v = _trace_basis(k)
        if c:
            for i in range(k % 2, k + 1, 2):
                q[i] += c * v[i]
    return IntPoly(q)


# -- exact division and gcd (integer primitive remainder sequence) ------------


def _primitive(a: list[int]) -> list[int]:
    """Divide out the positive content of an integer coefficient list."""
    g = 0
    for c in a:
        g = gcd(g, c)
    return [c // g for c in a] if g > 1 else list(a)


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of the remainder of a divided by b."""
    a = list(a)
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(a) >= len(b) and a:
        c = sign * a[-1]
        k = len(a) - len(b)
        a = [scale * x for x in a]
        for i, bc in enumerate(b):
            a[k + i] -= c * bc
        while a and a[-1] == 0:
            a.pop()
    return a


def _remainder_chain(a: list[int], b: list[int]) -> list[list[int]]:
    """Signed remainder sequence of (a, b), b nonzero: a, b, -rem(a, b), ...,
    each member scaled by a positive rational to a primitive integer
    polynomial (which keeps every sign)."""
    chain = [_primitive(a), _primitive(b)]
    while True:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _primitive_part(p: IntPoly) -> IntPoly:
    """p divided by its content, with positive leading coefficient."""
    f = IntPoly(_primitive(list(p.coeffs)))
    return -f if f.coeffs and f.coeffs[-1] < 0 else f


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd over Q, normalized to positive leading coefficient: the
    last member of the remainder sequence of p and q.  gcd(p, 0) is the
    primitive part of p, and gcd(0, 0) is 0."""
    if p.is_zero or q.is_zero:
        return _primitive_part(p + q)
    return _primitive_part(IntPoly(_remainder_chain(list(p.coeffs), list(q.coeffs))[-1]))


def exact_div(p: IntPoly, q: IntPoly) -> IntPoly:
    """p / q by integer long division, for q dividing p with an integral
    quotient; ValueError otherwise."""
    if q.is_zero:
        raise ZeroPolynomialError("division by the zero polynomial")
    rem, b = list(p.coeffs), q.coeffs
    quo = [0] * max(len(rem) - len(b) + 1, 0)
    for k in reversed(range(len(quo))):
        c, r = divmod(rem[k + len(b) - 1], b[-1])
        if r:
            if _prem(list(p.coeffs), list(b)):
                raise ValueError(f"{q} does not divide {p}")
            raise ValueError(f"quotient of {p} by {q} is not integral")
        quo[k] = c
        for i, bc in enumerate(b):
            rem[k + i] -= c * bc
    if any(rem):
        raise ValueError(f"{q} does not divide {p}")
    return IntPoly(quo)


# -- cyclotomic factors --------------------------------------------------------


@cache
def _cyclotomic(k: int) -> IntPoly:
    """Phi_k = (x^k - 1) / prod_{d | k, d < k} Phi_d, in integers."""
    phi = IntPoly([-1] + [0] * (k - 1) + [1])
    for d in range(1, k):
        if k % d == 0:
            phi = exact_div(phi, _cyclotomic(d))
    return phi


@cache
def _cyclotomic_orders(n: int) -> tuple[int, ...]:
    """Every k with phi(k) <= n, ascending.  phi(k) >= sqrt(k/2) bounds k by
    2n^2; the totients come from a sieve."""
    bound = 2 * n * n
    totient = list(range(bound + 1))
    for i in range(2, bound + 1):
        if totient[i] == i:  # i is prime
            for j in range(i, bound + 1, i):
                totient[j] -= totient[j] // i
    return tuple(k for k in range(1, bound + 1) if totient[k] <= n)


def cyclotomic_factor(p: IntPoly) -> Optional[IntPoly]:
    """The cyclotomic polynomial Phi_k of least k that divides p, or None, by
    exact trial division by every Phi_k of degree at most deg p."""
    if p.is_zero:
        raise ZeroPolynomialError("cyclotomic factor of the zero polynomial")
    coeffs = list(p.coeffs)
    for k in _cyclotomic_orders(p.degree):
        phi = _cyclotomic(k)
        if not _prem(coeffs, list(phi.coeffs)):
            return phi
    return None


# -- irreducibility ----------------------------------------------------------

IRREDUCIBLE = "irreducible"
REDUCIBLE = "reducible"
UNKNOWN = "unknown"
DEGREE_CAP = 64
# The rational-root scan trial-divides up to sqrt|a0|: about 10^4 divisions.
RATIONAL_ROOT_CAP = 10**8


@dataclass(frozen=True)
class IrreducibilityReport:
    status: str
    witness: Optional[IntPoly] = None

    @property
    def is_irreducible(self) -> bool:
        return self.status == IRREDUCIBLE


def irreducibility_report(counts: "RootCounts") -> IrreducibilityReport:
    """Irreducibility over Q of monic p = counts.poly, degree >= 1, given its
    exact counts.  Callers read it through `RootCounts.irreducibility`,
    which decides it once per record.

    Degree 1, p(0) = 0 and, while |a0| <= RATIONAL_ROOT_CAP, rational roots
    and degree <= 3 are decided first.  When s <= 1 or (s, r) = (2, 0), the
    outside roots are conjugates, so by Kronecker's theorem every other factor
    is cyclotomic: p is irreducible iff no Phi_k other than p divides it, and
    the least such Phi_k is the witness, at any degree.  Any other p is
    factored in integers up to DEGREE_CAP.  Above it, a squarefree factor of
    multiplicity > 1 in the record is the witness, and any other p is
    reported Unknown.
    """
    p = counts.poly
    if p.is_zero or not p.is_monic:
        raise ValueError("irreducibility test requires a monic polynomial")
    if p.degree < 1:
        raise ValueError("irreducibility test requires degree >= 1")
    if p.degree == 1:
        return IrreducibilityReport(IRREDUCIBLE)
    # Rational roots of a monic integer polynomial are integers dividing a0.
    a0 = p.coeffs[0]
    if a0 == 0:
        return IrreducibilityReport(REDUCIBLE, IntPoly((0, 1)))
    if abs(a0) <= RATIONAL_ROOT_CAP:
        for root in _divisors_signed(a0):
            if p(root) == 0:
                return IrreducibilityReport(REDUCIBLE, IntPoly((-root, 1)))
        if p.degree <= 3:
            # no rational root and degree <= 3: any factorization has a linear factor
            return IrreducibilityReport(IRREDUCIBLE)
    if counts.s <= 1 or (counts.s, counts.r) == (2, 0):
        phi = cyclotomic_factor(p)
        if phi is None or phi == p:
            return IrreducibilityReport(IRREDUCIBLE)
        return IrreducibilityReport(REDUCIBLE, phi)
    if p.degree > DEGREE_CAP:
        for f, m, _ in counts.factors:
            if m > 1:
                return IrreducibilityReport(REDUCIBLE, f)
        return IrreducibilityReport(UNKNOWN)
    _, factors = p.to_sympy().factor_list()
    if len(factors) == 1 and factors[0][1] == 1:
        return IrreducibilityReport(IRREDUCIBLE)
    witness = from_sympy(factors[0][0])
    return IrreducibilityReport(REDUCIBLE, witness)


def _divisors_signed(n: int) -> list[int]:
    n = abs(n)
    divs = sorted(d for d in range(1, int(n**0.5) + 1) if n % d == 0)
    divs = divs + [n // d for d in reversed(divs) if d * d != n]
    return [s * d for d in divs for s in (1, -1)]


LEHMER = IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
SMYTH = IntPoly((-1, -1, 0, 1))
