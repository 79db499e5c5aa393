"""Small dense linear algebra over exact rationals.

Matrices are plain lists of lists of Fraction, or of Python ints where a
routine says so. Sizes stay tiny here (the spectral commands take N <= 12;
the Lyapunov system has one unknown per entry S_ij, i <= j, so N(N+1)/2 of
them), so Gaussian elimination with a nonzero pivot is all we need,
fraction-free where the entries are integers. Every public routine returns
fresh lists and leaves its arguments as they were.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import SingularSystem

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


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def _bareiss(m: list[list[int]], swap: bool) -> list[int]:
    """Fraction-free (Bareiss) elimination of the integer rows m, in place;
    returns the pivots, the k-th one the leading k x k minor of m as swapped.
    With swap, a zero pivot is traded for a lower row, and a column with none
    raises SingularSystem; without, elimination stops at a zero pivot."""
    n, prev, pivots = len(m), 1, []
    for col in range(n):
        if swap:
            r = next((r for r in range(col, n) if m[r][col] != 0), None)
            if r is None:
                raise SingularSystem(f"exact solve: column {col} has no pivot")
            m[col], m[r] = m[r], m[col]
        p, top = m[col][col], m[col]
        pivots.append(p)
        if p == 0:
            break
        for r in range(col + 1, n):
            f, tail = m[r][col], zip(m[r][col + 1 :], top[col + 1 :])
            m[r] = [0] * (col + 1) + [(p * x - f * y) // prev for x, y in tail]
        prev = p
    return pivots


def leading_minors(a: Matrix) -> list[Fraction]:
    """Determinants of the leading principal k x k submatrices, k = 1..n, up
    to the first that is zero: the Bareiss pivots of s a, s the common
    denominator, over s^k."""
    m, s = common_denominator_scale(a)
    return [Fraction(p, s ** (k + 1)) for k, p in enumerate(_bareiss(m, swap=False))]


def solve(a: list[list[int]], b: list[int]) -> list[Fraction]:
    """Solve a x = b exactly for integer a and b, in integers. The last
    Bareiss pivot d is +-det a, so each d x_i is an integer (Cramer's rule);
    back substitution finds them, and the Fractions x_i are formed at the
    end. Raises SingularSystem when a has no inverse."""
    n = len(a)
    m = [row[:] + [bi] for row, bi in zip(a, b)]
    d = _bareiss(m, swap=True)[-1]
    y = [0] * n
    for i in reversed(range(n)):
        y[i] = (m[i][n] * d - sum(m[i][j] * y[j] for j in range(i + 1, n))) // m[i][i]
    return [Fraction(v, d) for v in y]


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
