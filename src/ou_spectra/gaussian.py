"""Centered Gaussian measures: exact moments and polynomial inner products.

Moments come from the pair-product recursion

    E[x_i * x^beta] = sum_j Sigma_ij * beta_j * E[x^(beta - e_j)],

memoized per covariance, which keeps the cost polynomial in the size of the
moment table instead of the double-factorial pair-partition enumeration.
When the covariance entries are rational every moment is an exact Fraction;
this is what makes the reported inner products exact rather than approximate.

Every pairing under N(0, Sigma) is a moment, <x^a, x^b> = E[x^(a + b)], so
the one pairing route is the moment matrix M of the exponents paired
(basis_moment_gram): the Gram matrix of a family with coefficient columns C
over its joint support is C^T M conj(C). inner_product pairs two polynomials
term by term; it is the reference the tests compare that route against.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt

import numpy as np

from .errors import DimensionMismatch
from .polynomials import EXACT_TYPES, SparsePolynomial, exponent_keys


def _normalize_sigma(sigma):
    """Return (rows, dim, exact_flag) with rows as tuple-of-tuples scalars."""
    if isinstance(sigma, np.ndarray):
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("covariance must be square")
        if sigma.dtype != object:  # an object array may hold Fractions
            rows = tuple(tuple(float(x) for x in row) for row in sigma)
            return rows, sigma.shape[0], False
    rows = tuple(tuple(x for x in row) for row in sigma)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("covariance must be square")
    exact = all(isinstance(x, EXACT_TYPES) for row in rows for x in row)
    if exact:
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
    else:
        rows = tuple(tuple(float(x) for x in row) for row in rows)
    return rows, n, exact


class MomentTable:
    """Per-covariance memo of monomial moments E[x^alpha].

    One table per evaluation context; tables are not shared across threads.
    """

    def __init__(self, sigma):
        self.rows, self.dim, self.is_exact = _normalize_sigma(sigma)
        one = Fraction(1) if self.is_exact else 1.0
        self._memo: dict[tuple[int, ...], object] = {(0,) * self.dim: one}

    def moment(self, alpha) -> object:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim:
            raise DimensionMismatch(f"index {alpha} vs dim {self.dim}")
        if any(a < 0 for a in alpha):
            raise ValueError("exponents must be nonnegative")
        return self._moment(alpha)

    def _moment(self, alpha: tuple[int, ...]):
        cached = self._memo.get(alpha)
        if cached is not None:
            return cached
        if sum(alpha) % 2 == 1:
            out = Fraction(0) if self.is_exact else 0.0
            self._memo[alpha] = out
            return out
        i = next(k for k, a in enumerate(alpha) if a > 0)
        beta = list(alpha)
        beta[i] -= 1
        total = Fraction(0) if self.is_exact else 0.0
        for j, bj in enumerate(beta):
            if bj > 0 and self.rows[i][j] != 0:
                gamma = list(beta)
                gamma[j] -= 1
                total += self.rows[i][j] * bj * self._moment(tuple(gamma))
        self._memo[alpha] = total
        return total


def inner_product(p: SparsePolynomial, q: SparsePolynomial, sigma):
    """L^2(gamma) pairing <p, q> = integral of p * conj(q) dgamma.

    Sesquilinear: the second argument is conjugated, matching the complex L^2
    convention; for real polynomials this is the plain symmetric pairing.
    """
    table = MomentTable(sigma)
    if p.dim != table.dim or q.dim != table.dim:
        raise DimensionMismatch(
            f"polynomials of dim {p.dim}/{q.dim} against measure of dim {table.dim}"
        )
    total = 0
    for a, ca in p.terms.items():
        for b, cb in q.terms.items():
            m = table.moment(tuple(x + y for x, y in zip(a, b)))
            if m != 0:
                cb = cb.conjugate() if isinstance(cb, complex) else cb
                total += ca * cb * m
    return total


def basis_moment_gram(exponents, sigma) -> np.ndarray:
    """Moment matrix E[x^(alpha_i + alpha_j)] over a list of exponent vectors,
    in sigma's arithmetic: an object array of Fractions when sigma is
    rational, floats otherwise.

    Each distinct exponent sum is computed once. Sums are keyed by their
    exponent_keys in base 2 m + 1, m the largest exponent, where no digit
    carries, so the key of alpha_i + alpha_j is the sum of the keys; each
    distinct sum is read off the first pair that has its key."""
    table = MomentTable(sigma)
    E = np.array(exponents, dtype=np.int64).reshape(len(exponents), table.dim)
    keys = exponent_keys(E, 2 * int(E.max(initial=0)) + 1)
    _, first, inverse = np.unique(
        keys[:, None] + keys[None, :], return_index=True, return_inverse=True
    )
    i, j = np.divmod(first, len(E))
    moments = np.array(
        [table.moment(a) for a in (E[i] + E[j]).tolist()],
        dtype=object if table.is_exact else float,
    )
    return moments[inverse].reshape(len(E), len(E))


def gram_matrix(fs, sigma):
    """Pairwise inner products G[i][j] = <f_i, f_j>, Hermitian by construction.

    G = C^T M conj(C), with C the family's coefficient columns over its joint
    support and M that support's moment matrix (basis_moment_gram). The
    arithmetic is exact when sigma and every coefficient are rational, real
    when no coefficient is complex (a family with no terms counts as
    complex); the array returned is that of finish_gram.
    """
    fs = list(fs)
    table = MomentTable(sigma)
    if any(f.dim != table.dim for f in fs):
        raise DimensionMismatch(f"polynomial dims {[f.dim for f in fs]} vs measure dim {table.dim}")
    support = sorted({alpha for f in fs for alpha in f.terms})
    row = {alpha: k for k, alpha in enumerate(support)}
    exact = table.is_exact and all(f.is_exact for f in fs)
    real = support and not any(isinstance(c, complex) for f in fs for c in f.terms.values())
    C = np.zeros((len(support), len(fs)), dtype=object if exact else float if real else complex)
    for j, f in enumerate(fs):
        for alpha, c in f.terms.items():
            C[row[alpha], j] = c
    M = basis_moment_gram(support, sigma)
    if exact:
        return finish_gram(C.T @ M @ C, False)
    G = C.T @ M.astype(float) @ C.conj()
    upper = np.triu(G, 1)
    return finish_gram(upper + upper.conj().T + np.diag(G.diagonal().real), False)


def finish_gram(g: np.ndarray, normalized: bool) -> np.ndarray:
    """A Gram matrix as gram_matrix returns it: an object array when every
    entry is exact, else a float array when no entry is complex, else a
    complex array.

    With ``normalized`` each entry is divided by sqrt(G_ii * G_jj); exact
    zeros and the unit diagonal survive the scaling exactly, so an orthogonal
    exact family normalizes to the literal identity matrix.
    """
    g = g.tolist()
    if normalized:
        # diagonal entries are <f, f>, real up to representation
        diag = [row[i].real if isinstance(row[i], complex) else row[i] for i, row in enumerate(g)]
        if any(d == 0 for d in diag):
            raise ValueError("cannot normalize a Gram matrix with a zero diagonal")
        g = [
            [
                d / d if i == j else x if x == 0 else x / sqrt(float(d) * float(e))
                for j, (x, e) in enumerate(zip(row, diag))
            ]
            for i, (row, d) in enumerate(zip(g, diag))
        ]
    if all(isinstance(x, EXACT_TYPES) for row in g for x in row):
        return np.array(g, dtype=object)
    if any(isinstance(x, complex) for row in g for x in row):
        return np.array([[complex(x) for x in row] for row in g], dtype=complex)
    return np.array(g, dtype=float)
