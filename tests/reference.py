"""Reference constructions the tests compare the library against.

None of these is on a library code path. The physicists' Hermite tensors
are the Wick powers W x^alpha of a normalized model up to scale (Janson,
Gaussian Hilbert Spaces, 1997, ch. 3), built here from the three-term
recurrence instead of the Wick recursion. The exact matrix sum and product
check identities such as the Lyapunov residual and L W = W D in Fractions.
The reduced row echelon kernel in Fractions is the oracle of the
fraction-free exact.nullspace, and the cofactor expansion of
cofactor_charpoly the oracle of exact.charpoly's Faddeev-LeVerrier
recursion. The nested loops of apply_part are the oracle of the
generator's exponent steps. The library multiplies
polynomials only by scalars; the product and power of two polynomials
below serve the oracles that expand products of linear forms. The library
builds no Wick map W, only the Wick powers of the forms it needs;
wick_matrix below runs the same recursion on the coordinates, as an
OperatorMatrix. polynomial_json is the
oracle of the JSON text the report writes for a polynomial.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import zip_longest
from math import factorial, isqrt, sqrt

import numpy as np

from ou_spectra.errors import DimensionMismatch
from ou_spectra.exact import Matrix, transpose
from ou_spectra.model import OUModel
from ou_spectra.operator import OperatorMatrix, integer_wick_powers, wick_powers
from ou_spectra.polynomials import EXACT_TYPES, SparsePolynomial, index_degree, monomial_basis


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def rref_nullspace(a: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel of a (m x n), via reduced row echelon form.

    Returns one vector per free column; empty list for full column rank.
    """
    m, n = len(a), len(a[0])
    rows = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in a]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, c in pivots:
            v[c] = -rows[r][free]
        basis.append(v)
    return basis


def cofactor_charpoly(a) -> list:
    """det(x I - a), coefficients highest degree first, by cofactor
    expansion along the first row on polynomial entries (coefficient lists,
    lowest degree first); n! terms, so for N <= 4."""

    def add(p, q):
        return [sum(c) for c in zip_longest(p, q, fillvalue=0)]

    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = [0]
        for j, entry in enumerate(m[0]):
            minor = det([row[:j] + row[j + 1 :] for row in m[1:]])
            total = add(total, [(-1) ** j * c for c in mul(entry, minor)])
        return total

    n = len(a)
    return det([[[-a[i][j], int(i == j)] for j in range(n)] for i in range(n)])[::-1]


def apply_part(model: OUModel, p: SparsePolynomial, diffusion: bool) -> SparsePolynomial:
    """x^a goes to sum_ij 1/2 a_i (a_j - delta_ij) Q_ij x^(a - e_i - e_j)
    under the diffusion part and to sum_ij a_i B_ij x^(a - e_i + e_j) under
    the drift part; exact when the model and p are."""
    if p.dim != model.dim:
        raise DimensionMismatch(f"polynomial dim {p.dim} vs model dim {model.dim}")
    exact = model.is_exact and p.is_exact
    if diffusion:
        M, half = (model.Q_exact, Fraction(1, 2)) if exact else (model.Q, 0.5)
    else:
        M = model.B_exact if exact else model.B
    out: dict = {}
    for alpha, c in p.terms.items():
        for i in range(model.dim):
            if alpha[i] == 0:
                continue
            for j in range(model.dim):
                factor = alpha[i] * (alpha[j] - (i == j)) if diffusion else alpha[i]
                if M[i][j] == 0 or factor == 0:
                    continue
                coef = half * M[i][j] * factor if diffusion else M[i][j] * factor
                beta = list(alpha)
                beta[i] -= 1
                beta[j] += -1 if diffusion else 1
                key = tuple(beta)
                out[key] = out.get(key, 0) + coef * c
    return SparsePolynomial(p.dim, out)


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None when irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


@lru_cache(maxsize=None)
def hermite_coefficients(k: int) -> tuple[int, ...]:
    """Integer coefficients of the physicists' H_k (weight e^(-x^2),
    H_(k+1) = 2x H_k - 2k H_(k-1)), constant term first."""
    if k == 0:
        return (1,)
    if k == 1:
        return (0, 2)
    prev2, prev = hermite_coefficients(k - 2), hermite_coefficients(k - 1)
    out = [0] * (k + 1)
    for j, c in enumerate(prev):
        out[j + 1] += 2 * c
    for j, c in enumerate(prev2):
        out[j] -= 2 * (k - 1) * c
    return tuple(out)


def hermite_tensor(k, dilations=None, normalized: bool = False) -> SparsePolynomial:
    """Product of dilated Hermite polynomials, prod_i H_{k_i}(d_i * x_i).

    With all dilations 1 and ``normalized``, this is H_k / sqrt(2^|k| k!),
    the family that is orthonormal for the centered Gaussian with covariance
    I/2. Exact coefficients are kept whenever the dilations are rational and
    the normalization constant is a perfect rational square; otherwise the
    result is a float polynomial.
    """
    k = tuple(int(x) for x in k)
    dim = len(k)
    if any(x < 0 for x in k):
        raise ValueError("Hermite orders must be nonnegative")
    if dilations is None:
        dilations = (1,) * dim
    dilations = tuple(dilations)
    if len(dilations) != dim:
        raise DimensionMismatch("one dilation per coordinate required")
    if any(
        (isinstance(d, EXACT_TYPES) and d <= 0)
        or (isinstance(d, float) and d <= 0)
        for d in dilations
    ):
        raise ValueError("dilations must be strictly positive")

    poly = SparsePolynomial.constant(dim, 1)
    for i, (ki, di) in enumerate(zip(k, dilations)):
        coeffs = hermite_coefficients(ki)
        if isinstance(di, EXACT_TYPES):
            di = Fraction(di)
        terms = {}
        for j, c in enumerate(coeffs):
            if c:
                alpha = [0] * dim
                alpha[i] = j
                terms[tuple(alpha)] = c * di**j
        poly = multiply(poly, SparsePolynomial(dim, terms))

    if normalized:
        scale_sq = Fraction(2) ** sum(k)
        for ki in k:
            scale_sq *= factorial(ki)
        root = rational_sqrt(scale_sq)
        if root is not None and poly.is_exact:
            poly = poly * (1 / root)
        else:
            poly = poly.to_float() * (1.0 / sqrt(float(scale_sq)))
    return poly


def multiply(p: SparsePolynomial, q: SparsePolynomial) -> SparsePolynomial:
    """p q, term by term."""
    if p.dim != q.dim:
        raise DimensionMismatch(f"dim {p.dim} vs {q.dim}")
    out: dict = {}
    for a, ca in p.terms.items():
        for b, cb in q.terms.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return SparsePolynomial(p.dim, out)


def power(p: SparsePolynomial, n: int) -> SparsePolynomial:
    """p^n as n products from the constant 1."""
    return reduce(multiply, [p] * n, SparsePolynomial.constant(p.dim, 1))


def wick_matrix(model: OUModel, n: int, exact: bool | None = None) -> OperatorMatrix:
    """Matrix of the Wick map W = exp(-K) on the graded-lex monomials of
    degree <= n, K = 1/2 tr(S D^2) the diffusion part with Q replaced by the
    stationary covariance S: the Wick powers of the coordinates x = I^T x
    under S (operator.wick_powers). The entries are Fractions when exact (by
    default: when the model is), from integer_wick_powers, and floats
    otherwise."""
    exact = model.is_exact if exact is None else exact
    basis = monomial_basis(model.dim, n)
    if not exact:
        W = wick_powers(np.eye(model.dim), model.covariance.sigma, basis)
        return OperatorMatrix(basis, W, False)
    eye = np.eye(model.dim, dtype=int).astype(object)
    W, scale = integer_wick_powers(eye, model.covariance.sigma_exact, basis)
    entries = [[Fraction(w, scale) for w in row] for row in W.tolist()]
    return OperatorMatrix(basis, entries, True)


def coefficient_json(c) -> tuple:
    """(re, im) of a coefficient in JSON: rationals keep exactness as a
    "p/q" string in re, with im "0"."""
    if isinstance(c, complex):
        return c.real, c.imag
    if not isinstance(c, float) and isinstance(c, EXACT_TYPES):
        return str(Fraction(c)), "0"
    return float(c), 0.0


def polynomial_json(p: SparsePolynomial) -> dict:
    """The report's object for p: {"dim", "terms", "text"}, the terms
    {"alpha", "re", "im"} in ascending (degree, exponent) order and the text
    p.render(). Rational coefficients keep exactness as "p/q" strings in
    "re"."""
    items = sorted(p.terms.items(), key=lambda kv: (index_degree(kv[0]), kv[0]))
    terms = []
    for alpha, c in items:
        re, im = coefficient_json(c)
        terms.append({"alpha": list(alpha), "re": re, "im": im})
    return {"dim": p.dim, "terms": terms, "text": p.render()}
