"""Reference constructions the tests compare the library against.

None of these is on a library code path. The physicists' Hermite tensors
are the Wick powers W x^alpha of a normalized model up to scale (Janson,
Gaussian Hilbert Spaces, 1997, ch. 3), built here from the three-term
recurrence instead of the Wick recursion. The exact matrix sum and product
check identities such as the Lyapunov residual and L W = W D in Fractions.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt, sqrt

from ou_spectra.errors import DimensionMismatch
from ou_spectra.exact import Matrix, transpose
from ou_spectra.polynomials import EXACT_TYPES, SparsePolynomial


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


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
        poly = poly * SparsePolynomial(dim, terms)

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
