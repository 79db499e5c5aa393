"""Small dense linear algebra over exact rationals.

Matrices are plain lists of lists of Fraction, or of Python ints where a
routine says so. Sizes stay tiny here (the spectral commands take N <= 12;
the Lyapunov system has one unknown per entry S_ij, i <= j, so N(N+1)/2 of
them), so one elimination serves every exact solve, minor and kernel: the
fraction-free Bareiss elimination in Python ints, a rational matrix first
scaled to integers by its common denominator; eigenvalues are the integer
roots of the characteristic polynomial (charpoly, integer_roots), with no
elimination. Every public routine returns fresh lists and leaves its
arguments as they were.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

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


def _bareiss(m: list[list[int]], swap: bool) -> list[tuple[int, int]]:
    """Fraction-free (Bareiss, Math. Comp. 22, 1968) elimination of the
    integer rows m to echelon form, in place; returns (column, pivot) per
    pivot row, the k-th pivot the k x k minor of m as swapped, on its first
    k rows and the pivot columns. With swap, a zero pivot is traded for a
    lower row, and a column with none left is skipped as free; without,
    elimination stops at the first zero pivot, which is returned."""
    prev, r, pivots = 1, 0, []
    for col in range(len(m[0])):
        if r == len(m):
            break
        if swap:
            k = next((k for k in range(r, len(m)) if m[k][col] != 0), None)
            if k is None:
                continue
            m[r], m[k] = m[k], m[r]
        p, top = m[r][col], m[r]
        pivots.append((col, p))
        if p == 0:
            break
        for k in range(r + 1, len(m)):
            f, tail = m[k][col], zip(m[k][col + 1 :], top[col + 1 :])
            m[k] = [0] * (col + 1) + [(p * x - f * y) // prev for x, y in tail]
        prev, r = p, r + 1
    return pivots


def leading_minors(a: Matrix) -> list[Fraction]:
    """Determinants of the leading principal k x k submatrices, k = 1..n, up
    to the first that is zero: the Bareiss pivots of s a, s the common
    denominator, over s^k."""
    m, s = common_denominator_scale(a)
    return [Fraction(p, s ** (k + 1)) for k, (_, p) in enumerate(_bareiss(m, swap=False))]


def solve(a: list[list[int]], b: list[int]) -> list[Fraction]:
    """Solve a x = b exactly for integer a and b, in integers. The last
    Bareiss pivot d is +-det a, so each d x_i is an integer (Cramer's rule);
    back substitution finds them, and the Fractions x_i are formed at the
    end. Raises SingularSystem when a has no inverse."""
    n = len(a)
    m = [row[:] + [bi] for row, bi in zip(a, b)]
    missing = set(range(n)) - {col for col, _ in _bareiss(m, swap=True)}
    if missing:
        raise SingularSystem(f"exact solve: column {min(missing)} has no pivot")
    d = m[n - 1][n - 1]
    y = [0] * n
    for i in reversed(range(n)):
        y[i] = (m[i][n] * d - sum(m[i][j] * y[j] for j in range(i + 1, n))) // m[i][i]
    return [Fraction(v, d) for v in y]


def nullspace(a: Matrix) -> list[list[int]]:
    """Integer basis of the right kernel of the rational m x n matrix a, one
    vector per free column; the empty list for full column rank.

    Bareiss elimination of s a, s the common denominator, gives the pivot
    columns. With d the last pivot, the kernel vector that is 1 at the free
    column f and 0 at the other free columns is V / d, V an integer vector
    (Cramer's rule) that back substitution finds from V_f = d. The basis is
    each V times sign(d) / g, g the gcd of all their entries: the reduced row
    echelon kernel scaled by the least common denominator of its entries."""
    m, _ = common_denominator_scale(a)
    n = len(m[0])
    pivots = _bareiss(m, swap=True)
    cols = [col for col, _ in pivots]
    d = pivots[-1][1] if pivots else 1
    basis = []
    for free in sorted(set(range(n)) - set(cols)):
        v = [0] * n
        v[free] = d
        for i in reversed(range(len(cols))):
            c = cols[i]
            v[c] = -sum(m[i][j] * v[j] for j in range(c + 1, n)) // m[i][c]
        basis.append(v)
    g = math.gcd(*(x for v in basis for x in v)) * (1 if d > 0 else -1)
    return [[x // g for x in v] for v in basis]


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


def charpoly(a: list[list[int]]) -> list[int]:
    """Coefficients of det(x I - a), highest degree first, for an integer
    matrix a, by Faddeev-LeVerrier: c_k = -tr(a M_k) / k, M_1 = I and
    M_(k+1) = a M_k + c_k I. Each c_k is an integer, so the division is exact."""
    A, eye = np.array(a, dtype=object), np.identity(len(a), dtype=object)
    coefficients, AM = [1], 0 * eye
    for k in range(1, len(a) + 1):
        AM = A @ (AM + coefficients[-1] * eye)
        coefficients.append(-(AM.trace() // k))
    return coefficients


def integer_roots(chi: list[int]) -> dict[int, int] | None:
    """{root: multiplicity} of the monic integer polynomial chi (highest
    degree first), or None when some root is not an integer. Each root is
    simple in the squarefree part p = chi / gcd(chi, chi'), of degree n. The
    most nearly real float root of p(2^e y), e the least that puts every
    coefficient of p(2^e y) / 2^(e n) below 1 in size, times 2^e, rounded,
    starts at most n (e + 2) integer Newton steps; exact evaluation confirms
    the root r, p is divided by x - r, and chi as often as it goes."""
    g, h = chi, [Fraction(c * (len(chi) - 1 - i), len(chi) - 1) for i, c in enumerate(chi[:-1])]
    while h:  # monic remainders, whose coefficients stay far smaller
        g, h = h, _poly_divmod(g, h)[1]
        h = [c / h[0] for c in h]
    p, roots = _poly_divmod(chi, g)[0], {}
    while len(p) > 1:
        ints = [int(c) for c in p]  # a monic factor of chi over Q is integer (Gauss)
        n, dp = len(p) - 1, [c * (len(p) - 1 - i) for i, c in enumerate(ints[:-1])]
        e = max((abs(c).bit_length() + k - 1) // k for k, c in enumerate(ints[1:], 1))
        z = min(np.roots([c / 2 ** (e * k) for k, c in enumerate(ints)]), key=lambda z: abs(z.imag))
        r = round(Fraction(z.real) * 2**e)
        for _ in range(n * (e + 2)):
            v, d = _poly_value(ints, r), _poly_value(dp, r)
            if v == 0 or d == 0 or not (step := round(Fraction(v, d))):
                break
            r -= step
        if v != 0:
            return None
        p = _poly_divmod(p, [1, -r])[0]
        m, (q, rest) = 0, _poly_divmod(chi, [1, -r])
        while not rest:
            m, (q, rest) = m + 1, _poly_divmod(q, [1, -r])
        roots[r] = m
    return roots


def _poly_value(p: list, x: int):
    """p(x) by Horner's rule, p's coefficients highest degree first."""
    return reduce(lambda v, c: v * x + c, p, 0)


def _poly_divmod(p: list, q: list) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of the polynomials p and q over Q, as lists of
    Fractions, highest degree first. The remainder has no leading zeros, so
    it is [] when q divides p."""
    rest, quotient = [Fraction(c) for c in p], []
    while len(rest) >= len(q):
        quotient.append(rest[0] / q[0])
        rest = [a - quotient[-1] * b for a, b in zip(rest[1:], q[1:])] + rest[len(q) :]
    while rest and rest[0] == 0:
        rest.pop(0)
    return quotient, rest


def common_denominator_scale(a: Matrix) -> tuple[list[list[int]], int]:
    """(s * a as an integer matrix, s) with s the lcm of all denominators."""
    s = 1
    for row in a:
        for x in row:
            s = math.lcm(s, x.denominator)
    return [[int(x * s) for x in row] for row in a], s


def to_float(a: Matrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in a], dtype=float)
