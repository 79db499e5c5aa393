"""The generator on polynomial spaces and its matrix representations.

The generator is L f = (1/2) tr(Q D^2 f) + <Bx, grad f>. Applied to
polynomials it never raises the degree: the drift part D = <Bx, grad>
preserves homogeneous degree and the diffusion part lowers it by exactly two,
so every graded monomial basis yields a block upper triangular matrix. The
generator is one list of exponent steps (_generator_parts): D sends x^a to
a_i B_ij x^(a - e_i + e_j) and the diffusion part sends it to
1/2 a_i (a_j - delta_ij) Q_ij x^(a - e_i - e_j), summed over i and j. The
matrices scatter those steps on a basis's exponents; apply_L takes them on
one sparse polynomial's own exponents.

The Wick map W = exp(-K), where K = 1/2 tr(S D^2) is the diffusion part with
Q replaced by the stationary covariance S, intertwines the generator with its
drift part: L W = W D. One recursion, wick_powers, gives the Wick powers
:y^gamma:_P of linear forms y = T^T x under their pairing P: with T = I and
P = S they are the columns of W; with the drift's eigenforms and P = T^T S T
the images W y^gamma that span the eigenspaces; with T = e^(tB)^T and
P = -S_t, S_t the covariance accumulated up to time t, the semigroup
e^(tL) = Sub(e^(tB)) W_(-S_t). Monomial matrices are exact for exact models.
For a normalized model the Hermite tensors are the Wick powers W x^alpha up
to scale, so the matrix of L on them is a diagonal similarity of the drift
matrix, with no Gaussian integral.

The rotation machinery (split of A = 2L into a Hermite-diagonal part plus a
skew rotation) uses the doubled operator A = 2L throughout, matching the
convention under which the tridiagonal rotation matrices below are stated;
reports carry that flag so the factor of two never leaks into the generator
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BasisUnavailable,
    DimensionMismatch,
    NotNormalized,
    UnsupportedDimension,
)
from .exact import common_denominator_scale
from .model import OUModel, covariance_at, matrix_exponential
from .polynomials import GradedBasis, SparsePolynomial, monomial_basis

NORMALIZED_TOL = 1e-12


@dataclass(frozen=True)
class OperatorMatrix:
    """Matrix of an operator on a graded basis; column j holds the
    coordinates of the image of basis element j."""

    basis: GradedBasis
    entries: object  # list-of-lists (exact) or ndarray (float)
    is_exact: bool

    def as_array(self) -> np.ndarray:
        if self.is_exact:
            return np.array([[float(x) for x in row] for row in self.entries])
        return np.asarray(self.entries)

    @property
    def size(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class RotationSplit:
    """Data of the split A = A_1 + rotation for a normalized model:
    D_lambda holds the stationary variances, C = 2B + D_lambda^(-1) is skew."""

    D_lambda: np.ndarray
    C: np.ndarray


@dataclass(frozen=True)
class NormalCheck:
    normal: bool
    defect: float


# -- pointwise action ------------------------------------------------------


def apply_L(model: OUModel, p: SparsePolynomial) -> SparsePolynomial:
    """Full generator; constants map to zero and degree never increases."""
    return _apply(model, p, "L")


def _apply(model: OUModel, p: SparsePolynomial, operator: str) -> SparsePolynomial:
    """The generator parts of operator taken on p's own exponent rows, so the
    work is bounded by p's terms and needs no basis; exact when the model and
    p are. Each image term takes its contributions in part order."""
    if p.dim != model.dim:
        raise DimensionMismatch(f"polynomial dim {p.dim} vs model dim {model.dim}")
    exact = model.is_exact and p.is_exact
    q = p if exact else p.to_float()
    E = np.array(list(q.terms), dtype=int).reshape(len(q.terms), q.dim)
    c = np.array(list(q.terms.values()), dtype=object)
    dtype = object if exact else float
    keys, values = [], []
    for coef, factor, step in _generator_parts(model, E, operator, exact):
        rows = np.flatnonzero(factor)
        keys += map(tuple, (E[rows] + step).tolist())
        values += (coef * factor[rows].astype(dtype) * c[rows]).tolist()
    return SparsePolynomial(p.dim, zip(keys, values))


def _generator_parts(model: OUModel, E: np.ndarray, operator: str, exact: bool) -> list:
    """The generator as (coef, factor, step) parts on the exponent rows E: a
    part sends row a to coef * factor[a] x^(a + step). For each pair (i, j)
    the diffusion part gives 1/2 Q_ij, a_i (a_j - delta_ij) and -e_i - e_j,
    and the drift part B_ij, a_i and e_j - e_i; "drift" and "diffusion" take
    their own parts, any other operator both, diffusion first. Coefficients
    are Fractions when exact, floats otherwise; zero ones are left out."""
    Q, B = (model.Q_exact, model.B_exact) if exact else (model.Q, model.B)
    unit = np.eye(model.dim, dtype=int)
    pairs = [(i, j) for i in range(model.dim) for j in range(model.dim)]
    parts = []
    if operator != "drift":
        half = Fraction(1, 2) if exact else 0.5
        parts += [
            (half * Q[i][j], E[:, i] * (E[:, j] - (i == j)), -unit[i] - unit[j]) for i, j in pairs
        ]
    if operator != "diffusion":
        parts += [(B[i][j], E[:, i], unit[j] - unit[i]) for i, j in pairs]
    return [part for part in parts if part[0] != 0]


# -- coordinates -----------------------------------------------------------


def poly_coordinates(p: SparsePolynomial, basis: GradedBasis):
    """Coefficient vector of p in a monomial basis; rejects stray terms."""
    terms = list(p.terms)
    rows = basis.row_of(np.array(terms, dtype=int).reshape(len(terms), p.dim))
    if (rows < 0).any():
        raise BasisUnavailable(
            f"term {terms[int(np.argmin(rows))]} falls outside the basis (cap {basis.cap}, "
            f"homogeneous={basis.homogeneous})"
        )
    vec = [0] * len(basis)
    for row, coef in zip(rows.tolist(), p.terms.values()):
        vec[row] = coef
    return vec


# -- matrices --------------------------------------------------------------


def operator_matrix(
    model: OUModel,
    n: int,
    basis_kind: str = "monomial",
    operator: str = "L",
    homogeneous: bool = False,
) -> OperatorMatrix:
    """Assemble the operator's matrix on a degree-capped graded-lex basis.

    Monomial bases carry every operator tag; their entries are exact for
    exact models. The Hermite basis needs a normalized model (Q = I,
    stationary covariance S diagonal) and carries only "L" and "A". Its
    elements are the orthonormal Hermite tensors
    W x^alpha / sqrt(alpha! lambda^alpha), with lambda = diag S, so by
    L W = W D its matrix is R D R^(-1): D is the graded-lex drift matrix and
    R = diag(sqrt(alpha! lambda^alpha)). The entries are floats.
    """
    basis = monomial_basis(model.dim, n, homogeneous=homogeneous)
    if basis_kind == "monomial":
        return _monomial_matrix(model, basis, operator, model.is_exact)
    if basis_kind == "hermite-normal-form":
        return _hermite_matrix(model, basis, operator)
    raise ValueError(f"unknown basis kind {basis_kind!r}")


def _monomial_matrix(model: OUModel, basis: GradedBasis, operator: str, exact: bool):
    """Scatter the generator parts (_generator_parts) on the basis exponents
    into the matrix: for each pair (i, j) the map a -> a + step is one to
    one, so each part adds one entry to each column it reaches, in the order
    apply_L sums them. Entries are Fractions when exact, floats otherwise."""
    if operator not in ("L", "A", "drift", "diffusion"):
        raise ValueError(f"unknown operator tag {operator!r}")
    E = basis.exponents
    out = np.zeros((len(basis), len(basis)), dtype=object if exact else float)
    for coef, factor, step in _generator_parts(model, E, operator, exact):
        cols = np.flatnonzero(factor)
        if not cols.size:
            continue
        rows = basis.row_of(E[cols] + step)
        if (rows < 0).any():
            raise BasisUnavailable(
                f"operator {operator!r} leaves the homogeneous degree-{basis.cap} space; "
                "use the full basis"
            )
        out[rows, cols] += coef * factor[cols].astype(out.dtype)
    if operator == "A":
        out *= 2
    return OperatorMatrix(basis, out.tolist() if exact else out, exact)


def wick_powers(T: np.ndarray, P: np.ndarray, basis: GradedBasis) -> np.ndarray:
    """Column g holds the monomial coordinates of the Wick power :y^gamma:_P,
    gamma the g-th exponent of a full graded-lex basis, of the N forms
    y_k = sum_i T_ik x_i under their pairing P (T and P are N x N). The
    recursion :y^(gamma + e_k): = y_k :y^gamma: - sum_l P_kl gamma_l
    :y^(gamma - e_l):, k the first variable, runs once per degree (Janson,
    Gaussian Hilbert Spaces, 1997, ch. 3); P = 0 gives the plain products.
    The dtype of T and P sets the arithmetic: floats, complex, or Python ints
    in object arrays."""
    E, (first, parent, up), blocks = basis.exponents, basis.steps, basis.blocks
    dtype = np.result_type(T, P)
    unit = np.eye(basis.dim, dtype=int)
    out = np.zeros((len(basis), len(basis)), dtype=dtype)
    out[0, 0] = 1
    for d in range(1, basis.cap + 1):
        sl, low, lower = blocks[d], blocks[d - 1].stop, blocks[d - 1].start
        k, a = first[sl], E[parent[sl]]
        prev = out[:low, parent[sl]]
        for j in range(basis.dim):  # y_k :y^gamma:, over the rows of degree < d
            out[up[j, :low], sl] += prev * T[j, k]
        for l in np.flatnonzero(a.any(axis=0)):
            cols = np.flatnonzero(a[:, l])
            weight = P[k[cols], l] * a[cols, l].astype(dtype)
            down = basis.row_of(a[cols] - unit[l])
            out[:lower, sl.start + cols] -= out[:lower, down] * weight
    return out


def integer_wick_powers(T: np.ndarray, S_exact, basis: GradedBasis) -> tuple[np.ndarray, int]:
    """(scale * wick_powers(T, T^T S T) as Python ints, scale) for integer
    forms T (an object array) and a rational S, on a basis of cap n. The
    recursion runs on T^T (s S) T, s the common denominator of S, which
    scales a degree-e column's degree-d rows by s^((e - d) / 2), one factor
    per pairing; each block is brought to scale = s^(n // 2)."""
    S_int, s = common_denominator_scale(S_exact)
    out = wick_powers(T, T.T @ np.array(S_int, dtype=object) @ T, basis)
    for d, rows in enumerate(basis.blocks):  # zero below the block diagonal
        for e, cols in enumerate(basis.blocks[d:], d):
            out[rows, cols] *= s ** (basis.cap // 2 - (e - d) // 2)
    return out, s ** (basis.cap // 2)


def _check_normalized(model: OUModel):
    """Q = I and the stationary covariance diagonal: exactly for an exact
    model, else up to NORMALIZED_TOL."""
    if model.is_exact:
        S, n = model.covariance.sigma_exact, model.dim
        return all(
            model.Q_exact[i][j] == (i == j) and (i == j or S[i][j] == 0)
            for i in range(n)
            for j in range(n)
        )
    q = model.Q
    s = model.covariance.sigma
    ok_q = np.abs(q - np.eye(model.dim)).max() <= NORMALIZED_TOL
    off = s - np.diag(np.diag(s))
    ok_diag = np.abs(off).max() <= NORMALIZED_TOL * max(1.0, np.abs(np.diag(s)).max())
    return ok_q and ok_diag


def _hermite_matrix(model: OUModel, basis: GradedBasis, operator: str):
    if operator not in ("L", "A"):
        raise ValueError(f"the Hermite basis carries only 'L' and 'A', not {operator!r}")
    if not _check_normalized(model):
        raise BasisUnavailable(
            "Hermite normal-form basis needs Q = I and a diagonal stationary covariance; "
            "run normalize_model first"
        )
    drift = _monomial_matrix(model, basis, "drift", False)
    lam = np.diag(model.covariance.sigma)
    r = np.array(
        [
            math.sqrt(math.prod(math.factorial(a) * l**a for a, l in zip(alpha, lam)))
            for alpha in basis.indices
        ]
    )
    entries = r[:, None] * drift.entries / r[None, :]
    if operator == "A":
        entries = 2.0 * entries
    return OperatorMatrix(basis, entries, False)


def homogeneous_drift_matrix(model: OUModel, n: int) -> OperatorMatrix:
    """Matrix of the drift part on homogeneous degree-n monomials.

    The ordering sorts exponent vectors by the weighted sum
    sum_j j*alpha_j, oriented so a one-eigenvalue Jordan-type drift (the
    off-diagonal mass on one side of the diagonal) exposes its nilpotent part
    as a strictly upper triangular block.
    """
    B = model.B
    above = np.abs(np.triu(B, 1)).sum()
    below = np.abs(np.tril(B, -1)).sum()
    ordering = "v-nonincreasing" if above > 0 and below == 0 else "v-nondecreasing"
    basis = monomial_basis(model.dim, n, ordering, homogeneous=True)
    return _monomial_matrix(model, basis, "drift", model.is_exact)


# -- rotation machinery (doubled operator A = 2L) ---------------------------


def rotation_split(model: OUModel) -> RotationSplit:
    """Split data for A = 2L on a normalized model: D_lambda = diag of the
    stationary covariance, C = 2B + D_lambda^(-1).

    The Lyapunov equation forces C * D_lambda to be skew; C itself is skew
    exactly when the drift only mixes coordinates of equal stationary
    variance (as in the rotation example with D_lambda = I/2). Models outside
    that class are rejected because the split would not be a rotation.
    """
    if not _check_normalized(model):
        raise NotNormalized(
            "rotation split needs Q = I and diagonal stationary covariance"
        )
    lam = np.diag(model.covariance.sigma).copy()
    D = np.diag(lam)
    C = 2.0 * model.B + np.diag(1.0 / lam)
    skew_defect = np.abs(C + C.T).max()
    if skew_defect > 1e-12 * max(1.0, np.abs(C).max()):
        raise NotNormalized(
            f"C = 2B + D^-1 is not skew (defect {skew_defect:.2e}); the drift mixes "
            "coordinates with distinct stationary variances"
        )
    return RotationSplit(D_lambda=D, C=C)


def hermite_rotation_matrix(split: RotationSplit, n: int) -> OperatorMatrix:
    """Matrix of the rotation part on the degree-n Hermite space in two
    dimensions, basis ordered (n,0), (n-1,1), ..., (0,n).

    Nonzero entries sit on the two off-diagonals: with c the upper-right
    entry of C, entry (kappa+1, kappa) is c*sqrt((kappa+1)(n-kappa)) and the
    transpose entry is its negative, so the matrix is skew-symmetric.
    """
    if split.D_lambda.shape[0] != 2:
        raise UnsupportedDimension("the Hermite rotation matrix is a 2-D construction")
    if n < 0:
        raise ValueError("degree must be >= 0")
    c = float(split.C[0, 1])
    m = np.zeros((n + 1, n + 1))
    for kappa in range(n):
        v = c * math.sqrt((kappa + 1) * (n - kappa))
        m[kappa + 1, kappa] = v
        m[kappa, kappa + 1] = -v
    basis = monomial_basis(2, n, "graded-lex", homogeneous=True)
    return OperatorMatrix(basis, m, False)


# -- semigroup action on polynomials ----------------------------------------


def semigroup_apply(model: OUModel, t: float, p: SparsePolynomial) -> SparsePolynomial:
    """Closed-form action of the time-t semigroup on a polynomial.

    e^(tL) p (x) = E p(e^(tB) x + Z_t) with Z_t ~ N(0, S_t): on degree
    <= deg(p), e^(tL) = Sub(e^(tB)) W_(-S_t), the heat series
    exp(1/2 tr(S_t D^2)) and then the substitution x -> e^(tB) x. That
    substitution is a ring map, so it carries the Wick recursion on -S_t
    over to the rows of e^(tB) as forms: the matrix is
    wick_powers(e^(tB)^T, -S_t), applied to p's coefficient vector. The
    terms scale with S_t, not with the stationary covariance, so slow
    drifts over short times lose nothing to cancellation: the error is
    roundoff, not discretization. Degree never increases.
    """
    if p.dim != model.dim:
        raise DimensionMismatch(f"polynomial dim {p.dim} vs model dim {model.dim}")
    if not (t > 0):
        raise ValueError("t must be positive")
    if p.is_zero:
        return p
    basis = monomial_basis(model.dim, p.degree)
    c = np.array(poly_coordinates(p.to_float(), basis))
    moved = matrix_exponential(model.B, t).T
    out = wick_powers(moved, -covariance_at(model, t).sigma, basis) @ c
    return SparsePolynomial(model.dim, zip(basis.indices, out.tolist()))


def check_normal(M, tol: float = 1e-12) -> NormalCheck:
    """Normality defect max|M M* - M* M| and verdict against tol."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("check_normal needs a square matrix")
    D = A @ A.conj().T - A.conj().T @ A
    defect = float(np.abs(D).max())
    return NormalCheck(normal=defect <= tol, defect=defect)
