"""Constructors for the two bundled example models.

``section4``: the rotation example, Q = I with drift [[-1, 1], [-1, -1]]
(eigenvalues -1 +/- i), whose stationary covariance is I/2 and whose
eigenspaces are mutually orthogonal.

``section5``: the triangular family B(a, d, c) = [[-a+d, 0], [c, -a-d]] with
a > d > 0 and c != 0 (real eigenvalues -a +/- d), which carries explicit
degree-2 eigenfunctions whose pairings under the stationary measure are
nonzero; the (v1, v3) pairing equals 1/(2 a^2) exactly. With d = a/2 an extra
degree-4 eigenfunction v4 shares the eigenvalue -2a with v2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParams
from .exact import as_fraction
from .model import CoordinateChange, OUModel, validate_model
from .polynomials import SparsePolynomial


@dataclass(frozen=True)
class Section5Params:
    """Rational parameters of the triangular drift family; a > d > 0, c != 0."""

    a: Fraction
    d: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "d", as_fraction(self.d))
        object.__setattr__(self, "c", as_fraction(self.c))
        if not self.d > 0:
            raise InvalidParams(f"need d > 0, got d = {self.d}")
        if not self.a > self.d:
            raise InvalidParams(f"need a > d, got a = {self.a}, d = {self.d}")
        if self.c == 0:
            raise InvalidParams("need c != 0")

    @property
    def resonant(self) -> bool:
        """True when d = a/2, the case with the extra quartic eigenfunction."""
        return self.d * 2 == self.a


def section4_model() -> OUModel:
    """Rotation example: Q = I, B = [[-1, 1], [-1, -1]]."""
    return validate_model([[1, 0], [0, 1]], [[-1, 1], [-1, -1]])


def section5_model(params: Section5Params) -> OUModel:
    """Triangular family: Q = I, B = [[-a+d, 0], [c, -a-d]]."""
    a, d, c = params.a, params.d, params.c
    return validate_model([[1, 0], [0, 1]], [[-a + d, 0], [c, -a - d]])


def section5_eigenfunctions(
    params: Section5Params,
) -> list[tuple[SparsePolynomial, Fraction]]:
    """Closed-form eigenfunctions with exact rational coefficients.

    Returns (v1, -2(a-d)), (v2, -2a), (v3, -2(a+d)) and, when d = a/2, also
    (v4, -2a) of degree four.
    """
    a, d, c = params.a, params.d, params.c
    v1 = SparsePolynomial(
        2, {(2, 0): Fraction(1), (0, 0): -1 / (2 * (a - d))}
    )
    v2 = SparsePolynomial(
        2,
        {
            (2, 0): Fraction(1),
            (1, 1): Fraction(-2) * d / c,
            (0, 0): -1 / (2 * a),
        },
    )
    v3 = SparsePolynomial(
        2,
        {
            (2, 0): Fraction(1),
            (1, 1): Fraction(-4) * d / c,
            (0, 2): 4 * d**2 / c**2,
            (0, 0): -(c**2 + 4 * d**2) / (2 * c**2 * (a + d)),
        },
    )
    out = [
        (v1, -2 * (a - d)),
        (v2, -2 * a),
        (v3, -2 * (a + d)),
    ]
    if params.resonant:
        v4 = SparsePolynomial(
            2,
            {
                (4, 0): Fraction(1),
                (2, 0): Fraction(-6) / a,
                (0, 0): 3 / a**2,
            },
        )
        out.append((v4, -2 * a))
    return out


def section5_whitening(params: Section5Params) -> CoordinateChange:
    """Linear change z = H x that pushes the stationary measure forward to
    density pi^(-1) exp(-z1^2 - z2^2): z1 = sqrt(a-d) x1,
    z2 = sqrt((a+d)/(c^2+4a^2)) (2a x2 - c x1)."""
    a, d, c = (float(params.a), float(params.d), float(params.c))
    # (-c, 2a) / hypot(c, 2a), on c and a scaled to at most one: neither
    # c^2 + 4 a^2 nor 2a itself need be a float
    k = max(abs(c), a)
    row = np.array([-c / k, 2 * (a / k)])
    H = np.array([[math.sqrt(a - d), 0.0], math.sqrt(a + d) / math.hypot(*row) * row])
    return CoordinateChange(H=H, H_inv=np.linalg.inv(H), kind="general-linear")
