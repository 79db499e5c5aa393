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

The Hermite frame is the model's whitening (OUModel.whitening): with
S = R R^T, the coordinates w = R^(-1) x are standard Gaussian and carry the
drift B' = R^(-1) B R and the diffusion Q' = R^(-1) Q R^(-T). There the
Hermite tensors He_alpha(w) are the Wick powers of w^alpha, so the matrix of
L on the orthonormal ones is the drift matrix of B', conjugated by
diag(sqrt(alpha!)) (_hermite_drift), with no Gaussian integral. The Lyapunov
equation reads B' + B'^T = -Q', so the doubled operator A = 2L, the drift
field of 2B' = -Q' + C, splits on each Hermite space into a symmetric part,
the field of -Q', and a skew rotation, the field of C = B' - B'^T. Reports
carry the doubling as a flag, so the factor of two never leaks into the
generator itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BasisUnavailable, DimensionMismatch
from .exact import common_denominator_scale
from .model import OUModel, covariance_at, matrix_exponential
from .polynomials import GradedBasis, SparsePolynomial, monomial_basis


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
    """Data of the split 2B' = -Q' + C of the doubled whitened drift:
    D_lambda holds the stationary covariance S = R R^T of the frame
    (diag(lambda), the stationary variances, on a normalized model) and
    C = B' - B'^T is skew."""

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
    exact models. The Hermite basis serves every model and carries only "L"
    and "A". Its elements are the orthonormal Hermite tensors
    He_alpha(w) / sqrt(alpha!) of the whitened coordinates w = R^(-1) x,
    S = R R^T (OUModel.whitening), so by L W = W D its matrix is the drift
    matrix of B' = R^(-1) B R conjugated by diag(sqrt(alpha!)). The entries
    are floats.
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
    parts = _generator_parts(model, basis.exponents, operator, exact)
    out = _scatter(parts, basis, object if exact else float)
    if operator == "A":
        out *= 2
    return OperatorMatrix(basis, out.tolist() if exact else out, exact)


def _scatter(parts: list, basis: GradedBasis, dtype) -> np.ndarray:
    """The matrix of (coef, factor, step) parts on the basis: column a gets
    coef * factor[a] in the row of a + step. One lookup finds every part's
    rows, and each entry sums its parts in their order."""
    out = np.zeros((len(basis), len(basis)), dtype=dtype)
    if not parts:
        return out
    E = basis.exponents
    cols = [np.flatnonzero(factor) for _, factor, _ in parts]
    rows = basis.row_of(np.concatenate([E[c] + step for c, (*_, step) in zip(cols, parts)]))
    if (rows < 0).any():
        raise BasisUnavailable(
            f"the operator leaves the homogeneous degree-{basis.cap} space; use the full basis"
        )
    values = [coef * factor[c].astype(dtype) for c, (coef, factor, _) in zip(cols, parts)]
    np.add.at(out, (rows, np.concatenate(cols)), np.concatenate(values))
    return out


def _hermite_drift(X: np.ndarray, basis: GradedBasis) -> np.ndarray:
    """Matrix of the drift field <X w, grad> of an N x N matrix X on the
    orthonormal Hermite tensors He_alpha(w) / sqrt(alpha!), alpha over the
    basis: the monomial drift scatter of X conjugated by diag(sqrt(alpha!)).
    Its part w^a -> X_ij a_i w^(a - e_i + e_j) becomes
    X_ij sqrt(a_i (a_j + 1 - delta_ij)), so the matrix is linear in X, and
    skew, exactly, for a skew X."""
    E, unit = basis.exponents, np.eye(basis.dim, dtype=int)
    F = np.sqrt(E[:, :, None] * (E[:, None, :] + 1 - unit))  # F[a, i, j]
    parts = [(X[i, j], F[:, i, j], unit[j] - unit[i]) for i, j in zip(*np.nonzero(X))]
    return _scatter(parts, basis, float)


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


def _hermite_matrix(model: OUModel, basis: GradedBasis, operator: str):
    if operator not in ("L", "A"):
        raise ValueError(f"the Hermite basis carries only 'L' and 'A', not {operator!r}")
    _, drift = model.whitening
    if operator == "A":
        drift = 2.0 * drift
    return OperatorMatrix(basis, _hermite_drift(drift, basis), False)


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
    """Split data for A = 2L: D_lambda = S, the stationary covariance, and
    C = B' - B'^T, the skew part of the whitened drift B' = R^(-1) B R.

    The Lyapunov equation gives B' + B'^T = -Q', so on every Hermite space A
    is the symmetric field of -Q' plus the skew rotation of C
    (hermite_rotation_matrix). Where Q' is a multiple of the identity, as in
    the rotation example (S = I/2, C = 2B + 2I), the two parts commute and
    every block of A is normal.
    """
    _, drift = model.whitening
    return RotationSplit(D_lambda=model.covariance.sigma, C=drift - drift.T)


def hermite_rotation_matrix(split: RotationSplit, n: int) -> OperatorMatrix:
    """Matrix of the rotation part, the drift field of C, on the orthonormal
    Hermite tensors of homogeneous degree n, in graded-lex order. It is skew,
    exactly; in two dimensions entry (kappa+1, kappa) is
    C_01 sqrt((kappa+1)(n-kappa)) on the basis (n,0), (n-1,1), ..., (0,n).
    """
    basis = monomial_basis(len(split.C), n, homogeneous=True)
    return OperatorMatrix(basis, _hermite_drift(split.C, basis), False)


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
