"""Numeric reference for the adjoint action, used by the tests as an oracle.

The library computes the global adjoint polynomial in exact closed form;
these routines build the same objects in floating point from the matrices
themselves (the conjugation action on trace-zero matrices, its
characteristic polynomial, its Mahler measure, and the rounded product over
all embeddings) so the closed form can be checked against them.
"""
from __future__ import annotations

import numpy as np
import sympy

from mahlerlat.intpoly import IntPoly


def _trace_zero_basis(n: int) -> list[np.ndarray]:
    """E_ij (i != j) followed by H_k = E_kk - E_(k+1)(k+1).

    This basis diagonalizes the adjoint action of diagonal elements, so the
    expected spectrum (the entry ratios plus 1 with multiplicity n - 1) is
    exact there."""
    basis = []
    for i in range(n):
        for j in range(n):
            if i != j:
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = 1
                basis.append(e)
    for k in range(n - 1):
        h = np.zeros((n, n), dtype=complex)
        h[k, k] = 1
        h[k + 1, k + 1] = -1
        basis.append(h)
    return basis


def _coords(mat: np.ndarray) -> np.ndarray:
    """Coordinates of a trace-zero matrix in the basis above."""
    n = mat.shape[0]
    coords = [mat[i, j] for i in range(n) for j in range(n) if i != j]
    # diagonal d = sum c_k H_k  <=>  c_k = d_0 + ... + d_k
    acc = 0j
    for k in range(n - 1):
        acc += mat[k, k]
        coords.append(acc)
    return np.array(coords)


def adjoint_matrix(block: np.ndarray) -> np.ndarray:
    """Matrix of X -> g X g^-1 on the trace-zero subspace."""
    block = np.asarray(block, dtype=complex)
    n = block.shape[0]
    if abs(np.linalg.det(block)) < 1e-300:
        raise ValueError("block must be invertible")
    inv = np.linalg.inv(block)
    basis = _trace_zero_basis(n)
    cols = [_coords(block @ b @ inv) for b in basis]
    return np.column_stack(cols)


def adjoint_charpoly(block: np.ndarray) -> list[complex]:
    """Characteristic polynomial of the adjoint of an invertible n x n block,
    as complex coefficients, constant term first, monic."""
    m = adjoint_matrix(block)
    coeffs = np.poly(m)  # highest degree first
    return list(coeffs[::-1])


def adjoint_mahler(block: np.ndarray) -> float:
    """f(g): Mahler measure of the adjoint characteristic polynomial."""
    m = adjoint_matrix(block)
    eigs = np.linalg.eigvals(m)
    out = 1.0
    for e in eigs:
        out *= max(1.0, abs(e))
    return float(out)


def rounded_global_product(summary, n: int) -> tuple[IntPoly, float]:
    """The adjoint characteristic polynomials of diag(a, 1/a, 1, ..., 1) at
    every embedding, multiplied in floating point and rounded to integers;
    returned with the largest rounding deviation."""
    product = np.array([1 + 0j])
    for emb in summary.embeddings:
        block = np.diag((emb.alpha_value, 1 / emb.alpha_value) + (1,) * (n - 2))
        product = np.convolve(product, adjoint_charpoly(block))
    rounded = [round(c.real) for c in product]
    return IntPoly(rounded), float(max(abs(c - r) for c, r in zip(product, rounded)))


def sympy_global_poly(coeffs, n: int) -> tuple[int, ...]:
    """The closed form Res_y(P(y), x - y^2) * P^(2(n-2)) * (x-1)^(d((n-2)(n-3)+n-1))
    expanded by sympy from P's coefficients (constant term first), without
    IntPoly.  The resultant is the product of x - z^2 over the roots z of P."""
    x, y = sympy.symbols("x y")
    p_y = sum(c * y**k for k, c in enumerate(coeffs))
    d = (len(coeffs) - 1) // 2
    squares = sympy.resultant(p_y, x - y**2, y)
    ones = d * ((n - 2) * (n - 3) + n - 1)
    g = sympy.Poly(squares * p_y.subs(y, x) ** (2 * (n - 2)) * (x - 1) ** ones, x)
    return tuple(int(c) for c in reversed(g.all_coeffs()))
