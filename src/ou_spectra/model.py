"""Model definition and covariance machinery for the diffusion pair (Q, B).

A model is a symmetric positive-definite diffusion matrix Q together with a
Hurwitz drift matrix B (all eigenvalue real parts negative). The stationary
covariance solves the Lyapunov equation B*S + S*B^T + Q = 0; we solve it as
one symmetric linear system on both backends, which is exact in the rational
backend. Every consumer of the float drift eigenvalues calls
drift_eigenvalues; the exact route reads a rational model's from its
characteristic polynomial instead (spectral._rational_clusters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exact
from .errors import (
    ConvergenceFailure,
    InvalidParams,
    NotHurwitz,
    NotPositiveDefinite,
    NotSymmetric,
    SingularSystem,
    ValidationError,
)

HURWITZ_TOL = 1e-10
SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class OUModel:
    """Validated diffusion/drift pair.

    ``Q``/``B`` are float arrays; when every input entry was rational the
    exact copies are kept alongside and ``backend`` is "exact". Instances are
    immutable and safe to share.
    """

    dim: int
    Q: np.ndarray
    B: np.ndarray
    backend: str  # "exact" | "float"
    Q_exact: exact.Matrix | None = None
    B_exact: exact.Matrix | None = None

    @property
    def is_exact(self) -> bool:
        return self.backend == "exact"

    @cached_property
    def covariance(self) -> CovarianceMatrix:
        """The stationary covariance, solved on first read: every Gaussian
        quantity of the model is taken under this one N(0, S)."""
        cov = solve_lyapunov(self)
        cov.sigma.setflags(write=False)  # one array, shared by every reader
        return cov


@dataclass(frozen=True)
class CovarianceMatrix:
    """A covariance: the stationary one, or the one accumulated up to a time t."""

    sigma: np.ndarray
    sigma_exact: exact.Matrix | None = None

    @property
    def is_exact(self) -> bool:
        return self.sigma_exact is not None


@dataclass(frozen=True)
class CoordinateChange:
    """Invertible change of coordinates x -> H x."""

    H: np.ndarray
    H_inv: np.ndarray
    kind: str  # "general-linear": normalize_model's whitening and rotation


def _entries_exact(rows) -> bool:
    return all(exact.is_exact_scalar(x) for row in rows for x in row)


def _coerce_matrix(m, name: str):
    """Accept nested sequences / ndarray; return (float array, exact rows or None)."""
    if isinstance(m, np.ndarray):
        if m.dtype == object:
            rows = [list(r) for r in m]
        else:
            arr = np.array(m, dtype=float)
            if arr.ndim != 2:
                raise ValidationError(f"{name} must be a 2-D matrix")
            return _finite(arr, name), None
    else:
        rows = [list(r) for r in m]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValidationError(f"{name} must be rectangular and nonempty")
    if _entries_exact(rows):
        ex = exact.matrix(rows)
        try:
            return exact.to_float(ex), ex
        except OverflowError as e:
            raise ValidationError(f"{name} has an entry beyond the float range: {e}") from e
    try:
        arr = np.array([[float(x) for x in r] for r in rows], dtype=float)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{name} has a non-numeric entry: {e}") from e
    return _finite(arr, name), None


def _finite(arr: np.ndarray, name: str) -> np.ndarray:
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        i, j = bad[0]
        raise ValidationError(f"{name}[{i}][{j}] = {float(arr[i, j])} is not finite")
    return arr


def validate_model(Q, B, backend: str = "auto") -> OUModel:
    """Validate (Q, B) and fix the scalar backend.

    Checks, in order: shapes, finite 1-norms of Q and B, symmetry of Q,
    positive definiteness of Q via leading principal minors, and the Hurwitz
    property of B, on the last of drift_eigenvalues(B). Error messages name
    the offending norm, minor or eigenvalue. Any N is accepted.
    """
    Qf, Qx = _coerce_matrix(Q, "Q")
    Bf, Bx = _coerce_matrix(B, "B")
    if Qf.shape[0] != Qf.shape[1] or Bf.shape != Qf.shape:
        raise ValidationError(
            f"Q and B must be square and equally sized, got {Qf.shape} and {Bf.shape}"
        )
    n = Qf.shape[0]
    for name, arr in (("Q", Qf), ("B", Bf)):
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(arr, 1))
        if not math.isfinite(norm):
            raise ValidationError(f"the 1-norm of {name} is {norm}, beyond the float range")

    exact_available = Qx is not None and Bx is not None
    if backend == "exact" and not exact_available:
        raise ValidationError(
            "exact backend requested but some entries are not rational"
        )
    use_exact = exact_available if backend == "auto" else backend == "exact"
    if backend not in ("auto", "exact", "float"):
        raise ValidationError(f"unknown backend {backend!r}")

    # symmetry
    if use_exact:
        asym = [(i, j) for i in range(n) for j in range(i + 1, n) if Qx[i][j] != Qx[j][i]]
        if asym:
            i, j = asym[0]
            raise NotSymmetric(f"Q[{i}][{j}] = {Qx[i][j]} != Q[{j}][{i}] = {Qx[j][i]}")
    else:
        scale = max(np.abs(Qf).max(), 1.0)
        asym = np.abs(Qf - Qf.T)
        if asym.max() > SYMMETRY_RTOL * scale:
            i, j = np.unravel_index(np.argmax(asym), asym.shape)
            raise NotSymmetric(
                f"Q[{i}][{j}] = {Qf[i, j]!r} vs Q[{j}][{i}] = {Qf[j, i]!r}"
            )

    # positive definiteness via leading principal minors
    if use_exact:
        minors = exact.leading_minors(Qx)
    else:
        minors = [np.linalg.det(Qf[: k + 1, : k + 1]) for k in range(n)]
    for k, minor in enumerate(minors):
        if minor <= 0:
            raise NotPositiveDefinite(f"leading {k + 1}x{k + 1} minor of Q is {minor} <= 0")

    # Hurwitz drift
    worst = drift_eigenvalues(Bf)[-1]
    if worst.real >= -HURWITZ_TOL:
        raise NotHurwitz(
            f"drift eigenvalue {worst} has real part >= -{HURWITZ_TOL}"
        )

    return OUModel(
        dim=n,
        Q=Qf,
        B=Bf,
        backend="exact" if use_exact else "float",
        Q_exact=Qx if use_exact else None,
        B_exact=Bx if use_exact else None,
    )


def drift_eigenvalues(B) -> list[complex]:
    """Eigenvalues of the drift with algebraic multiplicity, ascending by
    (real, imag). An exactly triangular B is read off its diagonal, since a
    dense eigen-solver scatters a k-fold defective eigenvalue by about
    eps^(1/k); an eigen-solver that fails raises ConvergenceFailure."""
    B = np.asarray(B, dtype=float)
    if not (np.any(np.triu(B, 1)) and np.any(np.tril(B, -1))):
        vals = np.diag(B)
    else:
        try:
            vals = np.linalg.eigvals(B)
        except np.linalg.LinAlgError as e:
            raise ConvergenceFailure(f"eigen-solver failed on {B!r}") from e
    return sorted(map(complex, vals), key=lambda z: (z.real, z.imag))


# -- matrix exponential -------------------------------------------------

_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def matrix_exponential(M, s: float = 1.0) -> np.ndarray:
    """e^(s*M) by scaling-and-squaring with the order-13 Pade approximant.

    The order is fixed (no degree selection): at the matrix sizes this tool
    supports, the extra multiplications are irrelevant and a single code path
    is easier to trust. s = 0 returns the identity exactly. The squaring count
    comes from s = f 2^e, so it stays finite where s M overflows.
    """
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix_exponential needs a square matrix")
    if not math.isfinite(s):
        raise InvalidParams(f"e^(sM) needs a finite s, got {s}")
    n = M.shape[0]
    f, e = math.frexp(s)
    norm = np.linalg.norm(M * f, 1)  # ||s M|| / 2^e
    if norm == 0.0:
        return np.eye(n)
    squarings = max(0, math.ceil(math.log2(norm / _THETA13)) + e)
    A = M * math.ldexp(s, -squarings)

    b = _PADE13
    I = np.eye(n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6
        + b[5] * A4
        + b[3] * A2
        + b[1] * I
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6
        + b[4] * A4
        + b[2] * A2
        + b[0] * I
    )
    R = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        R = R @ R
    return R


# -- covariances ---------------------------------------------------------


def solve_lyapunov(model: OUModel) -> CovarianceMatrix:
    """Stationary covariance: the unique S with B*S + S*B^T + Q = 0.

    One linear system on both backends, for the N(N+1)/2 entries S_ij,
    i <= j, from B and Q times one exact factor c, which leaves S unchanged.
    On the exact backend c is the common denominator and the system is
    integers, solved by exact.solve; the residual is identically zero. On
    the float backend c is 2^-e, e >= 0 the binary exponent of B's largest
    entry, so every coefficient, at most 2 c |B_ij|, stays finite.
    """
    n = model.dim
    if model.is_exact:
        scaled, _ = exact.common_denominator_scale([*model.B_exact, *model.Q_exact])
    else:
        e = max(math.frexp(float(np.abs(model.B).max()))[1], 0)
        scaled = np.ldexp(np.vstack([model.B, model.Q]), -e).tolist()
    B, Q = scaled[:n], scaled[n:]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    unknown = {ij: k for k, (i, j) in enumerate(pairs) for ij in ((i, j), (j, i))}
    A = [[0] * len(pairs) for _ in pairs]
    for row, (i, j) in zip(A, pairs):  # (B S + S B^T)_ij = sum_k B_ik S_kj + S_ik B_jk
        for k in range(n):
            row[unknown[k, j]] += B[i][k]
            row[unknown[i, k]] += B[j][k]
    rhs = [-Q[i][j] for i, j in pairs]
    try:
        vec = exact.solve(A, rhs) if model.is_exact else np.linalg.solve(A, rhs).tolist()
    except (SingularSystem, np.linalg.LinAlgError) as e:
        raise SingularSystem("Lyapunov system singular; validation should have caught this") from e
    rows = [[vec[unknown[i, j]] for j in range(n)] for i in range(n)]
    try:
        sigma = np.array(rows, dtype=float)
    except OverflowError as e:  # an exact entry past the float range
        q, i, j = max((abs(x), i, j) for i, row in enumerate(rows) for j, x in enumerate(row))
        raise ValidationError(
            f"the stationary covariance entry S[{i}][{j}], about "
            f"10^{math.log10(q.numerator) - math.log10(q.denominator):.0f}, is beyond the float range"
        ) from e
    return CovarianceMatrix(sigma, rows if model.is_exact else None)


def covariance_at(model: OUModel, t: float) -> CovarianceMatrix:
    """Covariance accumulated up to finite time t > 0:
    S_t = int_0^t e^(sB) Q e^(sB^T) ds.

    Van Loan's block exponential of [[-B, Q], [0, B^T]] gives S_h on a step
    h = t / 2^m with |hB| <= 1/2, and S_2h = S_h + e^(hB) S_h e^(hB^T)
    doubles it back to t. No term is subtracted, so S_t is accurate to its
    own roundoff even when S_inf - e^(tB) S_inf e^(tB^T) would cancel to
    nothing (a slow drift over a short time).
    """
    if not (t > 0) or math.isinf(t):
        raise InvalidParams(f"t must be a positive finite number, got {t}")
    n = model.dim
    f, e = math.frexp(t)
    reach = float(np.linalg.norm(model.B, 1)) * f  # |tB| / 2^e: a long t does not overflow it
    doublings = max(0, math.ceil(math.log2(2.0 * reach)) + e)
    q = float(np.abs(model.Q).max())
    block = np.block([[-model.B, model.Q / q], [np.zeros((n, n)), model.B.T]])
    F = matrix_exponential(block, math.ldexp(t, -doublings))
    E = F[n:, n:].T  # e^(hB)
    sigma = E @ F[:n, n:] * q
    for _ in range(doublings):
        sigma = sigma + E @ sigma @ E.T
        E = E @ E
    return CovarianceMatrix(sigma=(sigma + sigma.T) / 2.0)


# -- coordinate changes ---------------------------------------------------


def normalize_model(model: OUModel) -> tuple[CoordinateChange, OUModel]:
    """Find H with H Q H^T = I and the transformed stationary covariance
    diagonal; return the change and the transformed model.

    Pipeline: whiten with Q^(-1/2) (symmetric PSD root), then rotate with the
    orthogonal eigenbasis of the whitened stationary covariance. The drift
    spectrum is untouched: B maps to H B H^(-1).
    """
    w, V = np.linalg.eigh(model.Q)
    if np.any(w <= 0):
        raise NotPositiveDefinite("Q has a non-positive eigenvalue")
    h1 = V @ np.diag(w**-0.5) @ V.T

    mid = h1 @ model.covariance.sigma @ h1.T
    mid = (mid + mid.T) / 2.0
    _, U = np.linalg.eigh(mid)
    h2 = U.T

    H = h2 @ h1
    H_inv = np.linalg.inv(H)
    change = CoordinateChange(H=H, H_inv=H_inv, kind="general-linear")
    new_Q = H @ model.Q @ H.T
    new_B = H @ model.B @ H_inv
    normalized = validate_model(new_Q, new_B, backend="float")
    return change, normalized
