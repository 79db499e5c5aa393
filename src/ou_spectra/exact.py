"""Small dense linear algebra over exact rationals.

Matrices are plain lists of lists of Fraction. Sizes stay tiny here (models
are N <= 12, the vectorized Lyapunov system is N^2 x N^2), so straightforward
Gaussian elimination with a nonzero pivot is all we need. Everything returns
fresh lists; nothing is mutated in place.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import SingularSystem

Scalar = Fraction
Matrix = list[list[Fraction]]


def as_fraction(x) -> Fraction:
    """Coerce int / Fraction / 'p/q' string to Fraction. Floats are refused
    (they belong to the float backend; silently rationalizing them would fake
    exactness)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, np.integer, Fraction)) or (
        isinstance(x, str) and _parses_as_fraction(x)
    )


def _parses_as_fraction(s: str) -> bool:
    try:
        Fraction(s)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def matrix(rows) -> Matrix:
    out = [[as_fraction(x) for x in row] for row in rows]
    if not out or any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged or empty matrix")
    return out


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(n: int, m: int) -> Matrix:
    return [[Fraction(0)] * m for _ in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def max_abs(a: Matrix) -> Fraction:
    return max((abs(x) for row in a for x in row), default=Fraction(0))


def det(a: Matrix) -> Fraction:
    """Determinant by fraction Gaussian elimination."""
    n = len(a)
    m = [row[:] for row in a]
    d = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            d = -d
        d *= m[col][col]
        inv = m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] / inv
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return d


def leading_minors(a: Matrix) -> list[Fraction]:
    """Determinants of the leading principal k x k submatrices, k = 1..n."""
    n = len(a)
    return [det([row[: k + 1] for row in a[: k + 1]]) for k in range(n)]


def solve(a: Matrix, b: list[Fraction]) -> list[Fraction]:
    """Solve a x = b exactly. Raises SingularSystem when a has no inverse."""
    n = len(a)
    m = [row[:] + [bi] for row, bi in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem(f"exact solve: column {col} has no pivot")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def nullspace(a: Matrix) -> list[list[Fraction]]:
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


def int_matrix_power(a: list[list[int]], k: int) -> list[list[int]]:
    """a^k for an integer matrix by repeated squaring (k >= 1)."""

    def mul(x, y):
        yt = list(zip(*y))
        return [[sum(p * q for p, q in zip(row, col)) for col in yt] for row in x]

    result = None
    base = a
    while k:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def common_denominator_scale(a: Matrix) -> tuple[list[list[int]], int]:
    """(s * a as an integer matrix, s) with s the lcm of all denominators."""
    from math import lcm

    s = 1
    for row in a:
        for x in row:
            s = lcm(s, x.denominator)
    return [[int(x * s) for x in row] for row in a], s


def to_float(a: Matrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in a], dtype=float)


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None when irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None
