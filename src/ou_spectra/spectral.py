"""Drift spectra, generalized eigenspaces, and orthogonality reports.

The generator's spectrum on polynomials of degree <= n is the set of sums
sum_j n_j * lambda_j over the distinct drift eigenvalues lambda_j with
sum n_j <= n (Metafune, Pallara and Priola, J. Funct. Anal. 196, 2002).

Generalized eigenspaces follow from the Wick intertwining L W = W D. Here
D = <Bx, grad> is the drift part, which keeps the degree, and
W = exp(-1/2 tr(S D^2)) is the Wick map of the stationary covariance S
(operator.wick_matrix). Every generalized eigenspace of L is therefore W
applied to generalized eigenspaces of the homogeneous drift blocks D_n, the
diagonal degree blocks of the operator matrix. Blocks that are exactly
triangular (Jordan-type drifts supplied in triangular form) have their
eigenvalues read off the diagonal, which keeps defective cases accurate where
a dense eigen-solver would scatter them. Rational models with triangular
blocks get exact kernels; all others get a staircase of SVD kernels, one
block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import acos, comb

import numpy as np

from . import exact
from .errors import (
    ComplexSpectrum,
    ConvergenceFailure,
    RankDecisionAmbiguous,
    RepeatedEigenvalue,
    UnsupportedDimension,
)
from .gaussian import MomentTable
from .model import OUModel, drift_eigenvalues_raw, solve_lyapunov
from .operator import (
    OperatorMatrix,
    degree_block_slices,
    operator_matrix,
    poly_from_coordinates,
    wick_matrix,
)
from .polynomials import GradedBasis, SparsePolynomial, monomial_basis

TOL_EIG = 1e-8
TOL_ORTH = 1e-9
TOL_NILP = 1e-9
RANK_RTOL = 1e-10
RANK_MIN_GAP = 1e4  # smallest singular-value ratio accepted as a rank gap


@dataclass(frozen=True)
class SpectrumPoint:
    value: complex
    witnesses: tuple[tuple[int, ...], ...]  # exponents against the distinct drift eigenvalues
    degrees: tuple[int, ...]


@dataclass(frozen=True)
class SpectrumSet:
    drift_eigenvalues: tuple[complex, ...]  # with multiplicity
    distinct: tuple[complex, ...]
    degree_cap: int
    points: tuple[SpectrumPoint, ...]
    tol: float = TOL_EIG

    def values(self) -> list[complex]:
        return [p.value for p in self.points]

    def multiset(self) -> list[complex]:
        """Eigenvalues with algebraic multiplicity: sums over the drift
        eigenvalues counted with multiplicity, one per exponent pattern.
        Matches the eigenvalue multiset of the degree-capped operator matrix.
        """
        from itertools import combinations_with_replacement

        out = []
        for n in range(self.degree_cap + 1):
            for combo in combinations_with_replacement(self.drift_eigenvalues, n):
                out.append(sum(combo, 0j))
        return out


@dataclass(frozen=True)
class EigenGroup:
    eigenvalue: complex
    multiplicity: int  # dimension of the generalized eigenspace at the cap
    nilpotency_index: int
    vectors: np.ndarray  # (basis size, multiplicity), coordinate columns
    polynomials: tuple[SparsePolynomial, ...]
    max_power_residual: float  # ||(M - mu I)^k u|| / ||u||, worst basis column


@dataclass(frozen=True)
class SpectralDecomposition:
    model: OUModel
    degree_cap: int
    basis: GradedBasis
    matrix: OperatorMatrix
    groups: tuple[EigenGroup, ...]
    tol_eig: float = TOL_EIG

    def group_at(self, value: complex, tol: float | None = None) -> EigenGroup:
        tol = self.tol_eig if tol is None else tol
        for g in self.groups:
            if abs(g.eigenvalue - value) <= tol:
                return g
        raise KeyError(f"no eigenvalue group within {tol} of {value}")


@dataclass(frozen=True)
class PairVerdict:
    i: int
    j: int
    max_normalized: float
    orthogonal: bool
    block: np.ndarray


@dataclass(frozen=True)
class OrthogonalityReport:
    pairs: tuple[PairVerdict, ...]
    tol_orth: float
    all_orthogonal: bool
    eigenvalues: tuple[complex, ...] = field(default=())


# -- drift spectrum ----------------------------------------------------------


def drift_eigenvalues(B) -> list[complex]:
    """Drift eigenvalues with algebraic multiplicity, conjugate-paired for
    real input."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("drift must be square")
    if B.shape[0] > 12:
        raise UnsupportedDimension(f"drift eigenvalues supported for N <= 12, got N = {B.shape[0]}")
    try:
        vals = drift_eigenvalues_raw(B)
    except np.linalg.LinAlgError as e:
        raise ConvergenceFailure(f"eigen-solver failed on {B!r}") from e
    return sorted(vals, key=lambda z: (z.real, z.imag))


def _cluster(values, tol: float):
    """Group complex values whose chain-distance is below tol; returns a list
    of (mean, member indices)."""
    order = sorted(range(len(values)), key=lambda i: (values[i].real, values[i].imag))
    clusters: list[list[int]] = []
    for i in order:
        if clusters and abs(values[i] - values[clusters[-1][-1]]) <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return [(sum(values[i] for i in c) / len(c), c) for c in clusters]


def spectrum(model: OUModel, degree_cap: int, tol_eig: float = TOL_EIG) -> SpectrumSet:
    """Enumerate sum_j n_j lambda_j over distinct drift eigenvalues,
    sum n_j <= cap, deduplicated within tol; witnesses are kept per value.

    The exponent vectors n are the compositions of each degree <= cap into
    r parts, enumerated directly: C(r + cap, cap) of them."""
    if degree_cap < 0:
        raise ValueError("degree cap must be >= 0")
    eigs = drift_eigenvalues(model.B)
    # distinct eigenvalues ordered with the slowest decay first, so witness
    # exponent vectors read off against (-a+d, -a-d)-style orderings
    distinct = sorted(
        (rep for rep, _ in _cluster(eigs, tol_eig)),
        key=lambda z: (-z.real, z.imag),
    )
    r = len(distinct)
    raw = [
        (sum(nj * lj for nj, lj in zip(n, distinct)), n)
        for n in monomial_basis(r, degree_cap).indices
    ]
    ordered = sorted(raw, key=lambda vw: (vw[0].real, vw[0].imag, vw[1]))
    clusters: list[list[tuple[complex, tuple[int, ...]]]] = []
    for v, n in ordered:
        if clusters and abs(v - clusters[-1][-1][0]) <= tol_eig:
            clusters[-1].append((v, n))
        else:
            clusters.append([(v, n)])
    points = []
    for members in clusters:
        rep = sum(v for v, _ in members) / len(members)
        witnesses = tuple(sorted(n for _, n in members))
        degrees = tuple(sum(n) for n in witnesses)
        points.append(SpectrumPoint(value=rep, witnesses=witnesses, degrees=degrees))
    points.sort(key=lambda p: (-p.value.real, p.value.imag))
    return SpectrumSet(
        drift_eigenvalues=tuple(eigs),
        distinct=tuple(distinct),
        degree_cap=degree_cap,
        points=tuple(points),
        tol=tol_eig,
    )


# -- operator eigenvalues and kernels ----------------------------------------


def _is_float_triangular(a: np.ndarray, lower: bool) -> bool:
    n = a.shape[0]
    idx = np.triu_indices(n, 1) if lower else np.tril_indices(n, -1)
    return not np.any(a[idx])


def _block_eigenvalues(block: np.ndarray) -> list[complex]:
    if _is_float_triangular(block, lower=True) or _is_float_triangular(block, lower=False):
        return [complex(x) for x in np.diag(block)]
    return [complex(z) for z in np.linalg.eigvals(block)]


def operator_eigenvalues(om: OperatorMatrix) -> list[complex]:
    """Eigenvalues of a degree-graded operator matrix, block by block."""
    arr = om.as_array()
    return [z for _, sl in degree_block_slices(om.basis) for z in _block_eigenvalues(arr[sl, sl])]


def _nullspace_bounded(
    mat: np.ndarray, lo_nullity: int, hi_nullity: int, rank_rtol: float, scale: float = 0.0
):
    """Nullity and an orthonormal kernel basis, with the nullity known a
    priori to lie in [lo_nullity, hi_nullity].

    The cut is placed at the largest relative gap in the ascending singular
    values inside that window (powers of non-normal matrices spread their
    genuine singular values too widely for a fixed threshold). A decision is
    only accepted when the winning gap is decisive; otherwise the rank call
    is reported as ambiguous rather than guessed.

    ``scale`` is the size of the operator that mat was taken from; singular
    values are judged against the larger of it and mat's own largest one, so
    a matrix that is roundoff at that scale has a full kernel. Singular values
    below a floor at rank_rtol * 1e-3 of it all count as zero, so the cut
    never falls between two roundoff values (an exact 0 and a 1e-18, say).
    """
    n = mat.shape[1]
    try:
        _, s, vh = np.linalg.svd(mat)
    except np.linalg.LinAlgError:
        # LAPACK's divide-and-conquer driver (gesdd) fails to converge on some
        # finite matrices that the QR-iteration driver (gesvd) handles
        import scipy.linalg

        try:
            _, s, vh = scipy.linalg.svd(mat, lapack_driver="gesvd")
        except (np.linalg.LinAlgError, ValueError) as e:
            raise ConvergenceFailure(
                f"SVD of a {mat.shape[0]}x{n} kernel matrix did not converge: {e}"
            ) from e
    asc = s[::-1]  # ascending
    if asc.size == 0 or asc[-1] <= rank_rtol * scale:
        return n, np.eye(n, dtype=complex)
    top = max(asc[-1], scale)
    hi_nullity = min(hi_nullity, n)
    lo_nullity = max(lo_nullity, 0)
    floor = top * max(rank_rtol * 1e-3, 1e-300)
    best_nullity, best_gap = None, 0.0
    for nu in range(lo_nullity, hi_nullity + 1):
        low = asc[nu - 1] if nu >= 1 else None  # largest singular value called zero
        high = asc[nu] if nu < asc.size else None  # smallest called nonzero
        if high is None:
            gap = math.inf if (low is None or low <= floor) else top / low
        elif low is None or low <= floor:
            gap = high / floor
        else:
            gap = high / low
        if gap > best_gap:
            best_gap, best_nullity = gap, nu
    if best_nullity is None or best_gap < RANK_MIN_GAP:
        window = asc[max(lo_nullity - 1, 0) : hi_nullity + 1]
        raise RankDecisionAmbiguous(
            f"singular values {window.tolist()} admit no decisive rank gap in "
            f"nullity window [{lo_nullity}, {hi_nullity}] (best gap {best_gap:.2e})"
        )
    if best_nullity == 0:
        return 0, np.zeros((n, 0), dtype=complex)
    return best_nullity, vh[-best_nullity:].conj().T


def _exact_block_eigenvalues(om: OperatorMatrix, blocks: list[slice]):
    """Diagonal of the exact operator matrix when every degree block is
    triangular (drifts supplied in triangular or Jordan-type form), so that
    it lists the eigenvalues in basis order; None otherwise."""
    if not om.is_exact:
        return None
    entries = om.entries
    out = []
    for sl in blocks:
        idx = range(sl.start, sl.stop)
        lower_ok = all(entries[i][j] == 0 for i in idx for j in idx if j > i)
        upper_ok = all(entries[i][j] == 0 for i in idx for j in idx if j < i)
        if not (lower_ok or upper_ok):
            return None
        out.extend(entries[i][i] for i in idx)
    return out


def _exact_block_kernel(entries, sl: slice, mu, mult: int):
    """Nilpotency index and exact kernel basis of (D_n - mu)^k on one degree
    block, mu having algebraic multiplicity mult there: binary search of the
    index on exact ranks, then the basis off an exact RREF."""
    idx = range(sl.start, sl.stop)
    P = [[entries[i][j] - (mu if i == j else 0) for j in idx] for i in idx]
    P_int, _ = exact.common_denominator_scale(P)
    cache: dict[int, list] = {}

    def kernel(k: int):
        if k not in cache:
            cache[k] = exact.nullspace(exact.int_matrix_power(P_int, k))
        return cache[k]

    lo, hi = 1, mult
    while lo < hi:
        mid = (lo + hi) // 2
        if len(kernel(mid)) >= mult:
            hi = mid
        else:
            lo = mid + 1
    return lo, kernel(lo)


def _float_block_kernel(D: np.ndarray, mu: complex, mult: int, rank_rtol: float):
    """Nilpotency index and orthonormal basis of ker (D - mu)^k on one degree
    block D, which has mult eigenvalues in the cluster at mu.

    Staircase: with P = D - mu, ker(P^(k+1)) = {v : P v in ker(P^k)} =
    ker((I - V V*) P), which keeps every rank decision at the conditioning
    of P itself. dim ker(P^k) grows strictly with k until it reaches mult,
    so the nullity window at step k is [previous + 1, mult]. Ranks are
    judged at the scale of D, so a block that is mu I up to roundoff has
    index 1.
    """
    P = D - mu * np.eye(D.shape[0])
    scale = float(np.linalg.norm(D))
    nullity, basis, k = 0, None, 0
    while nullity < mult:
        k += 1
        A = P if basis is None else P - basis @ (basis.conj().T @ P)
        nullity, basis = _nullspace_bounded(A, nullity + 1, mult, rank_rtol, scale)
    return k, basis


def generalized_eigenspaces(
    model: OUModel,
    degree_cap: int,
    tol_eig: float = TOL_EIG,
    rank_rtol: float = RANK_RTOL,
) -> SpectralDecomposition:
    """Generalized eigenspaces of L on polynomials of degree <= cap, through
    the Wick intertwining L W = W D (see operator.wick_matrix).

    D keeps the degree, so its matrix is the block diagonal of the operator
    matrix M, one homogeneous drift block D_n per degree. The eigenvalues of
    all blocks are clustered together, so a resonance across degrees lands
    in one group. For each cluster the generalized eigenspace is found inside
    every block where the cluster occurs and mapped through W; the group's
    multiplicity is the sum over blocks and its nilpotency index the largest.

    Exact models whose degree blocks are all triangular take an exact route:
    rational eigenvalues, exact ranks, exact kernel bases and W in Fractions,
    with zero residual. Otherwise the kernels come from the float staircase,
    and each group's residual ||(M - mu)^k u|| is measured on M itself.
    """
    om = operator_matrix(model, degree_cap, "monomial", "L")
    blocks = [sl for _, sl in degree_block_slices(om.basis)]  # blocks[n] holds degree n
    degrees = om.basis.degrees()
    W = wick_matrix(model, degree_cap)

    def per_block(members):
        """Multiplicity in each block of a cluster, from basis positions."""
        counts = [0] * len(blocks)
        for i in members:
            counts[degrees[i]] += 1
        return counts

    exact_eigs = _exact_block_eigenvalues(om, blocks)
    if exact_eigs is not None:
        clusters: dict = {}
        for i, v in enumerate(exact_eigs):
            clusters.setdefault(v, []).append(i)
        groups = [
            _exact_eigengroup(om, W, blocks, mu, per_block(m)) for mu, m in clusters.items()
        ]
    else:
        M, Wf = om.as_array().astype(complex), W.as_array()
        values = [z for sl in blocks for z in _block_eigenvalues(M[sl, sl])]
        groups = [
            _float_eigengroup(M, Wf, om.basis, blocks, mu, per_block(m), rank_rtol)
            for mu, m in _cluster(values, tol_eig)
        ]
    groups.sort(key=lambda g: (-g.eigenvalue.real, g.eigenvalue.imag))
    return SpectralDecomposition(
        model=model,
        degree_cap=degree_cap,
        basis=om.basis,
        matrix=om,
        groups=tuple(groups),
        tol_eig=tol_eig,
    )


def _exact_eigengroup(om: OperatorMatrix, W: OperatorMatrix, blocks, mu, counts) -> EigenGroup:
    index, coords = 1, []
    for sl, mult in zip(blocks, counts):
        if not mult:
            continue
        k, kernel = _exact_block_kernel(om.entries, sl, mu, mult)
        index = max(index, k)
        # W maps degree n into degrees <= n, so rows from sl.stop on are zero
        for v in kernel:
            head = [
                sum(w * x for w, x in zip(W.entries[i][sl], v) if x)
                for i in range(sl.stop)
            ]
            coords.append(head + [Fraction(0)] * (om.size - sl.stop))
    vectors = np.array([[float(x) for x in v] for v in coords], dtype=float).T
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    return EigenGroup(
        eigenvalue=complex(float(mu)),
        multiplicity=len(coords),
        nilpotency_index=index,
        vectors=vectors.astype(complex),
        polynomials=tuple(poly_from_coordinates(v, om.basis) for v in coords),
        max_power_residual=0.0,
    )


def _float_eigengroup(M, W, basis, blocks, mu, counts, rank_rtol) -> EigenGroup:
    index, parts = 1, []
    for sl, mult in zip(blocks, counts):
        if not mult:
            continue
        k, kernel = _float_block_kernel(M[sl, sl], mu, mult, rank_rtol)
        index = max(index, k)
        parts.append(W[:, sl] @ kernel)
    V = np.hstack(parts)
    V = V / np.linalg.norm(V, axis=0, keepdims=True)
    R = V
    for _ in range(index):
        R = M @ R - mu * R
    return EigenGroup(
        eigenvalue=mu,
        multiplicity=V.shape[1],
        nilpotency_index=index,
        vectors=V,
        polynomials=tuple(_tidy_poly(V[:, c], basis) for c in range(V.shape[1])),
        max_power_residual=float(np.linalg.norm(R, axis=0).max()),
    )


def _tidy_poly(vec: np.ndarray, basis: GradedBasis) -> SparsePolynomial:
    """The polynomial with coordinates vec, without coefficients at roundoff
    level and without the imaginary parts of coefficients that are real to
    machine precision."""
    mag = np.abs(vec)
    cut = 1e-13 * mag.max()
    terms = {}
    for k in np.flatnonzero(mag > cut):
        c = complex(vec[k])
        terms[basis.indices[k]] = c.real if abs(c.imag) <= cut else c
    return SparsePolynomial(basis.dim, terms)


# -- orthogonality -----------------------------------------------------------


def basis_moment_gram(basis: GradedBasis, sigma) -> np.ndarray:
    """Moment matrix E[x^(alpha_i + alpha_j)] over a monomial basis."""
    table = MomentTable(np.asarray(sigma, dtype=float) if not isinstance(sigma, np.ndarray) else sigma)
    size = len(basis)
    g = np.zeros((size, size))
    for i, a in enumerate(basis.indices):
        for j in range(i, size):
            b = basis.indices[j]
            g[i, j] = g[j, i] = float(table.moment(tuple(x + y for x, y in zip(a, b))))
    return g


def orthogonality_report(
    dec: SpectralDecomposition,
    sigma=None,
    tol_orth: float = TOL_ORTH,
) -> OrthogonalityReport:
    """Pairwise cross-Gram data between distinct-eigenvalue groups under the
    stationary measure; a pair is orthogonal when every normalized inner
    product stays below tol.

    Works in basis coordinates: with G the moment matrix of the monomial
    basis, <u, v> = u^T G conj(v) for coordinate vectors u, v. The group
    vectors are stacked into V and H = V^T G conj(V) is formed once; the
    norms are read off its diagonal and every pair's block is a slice of it.

    Each PairVerdict.block pairs the groups' coordinate vectors scaled to unit
    Euclidean norm (EigenGroup.vectors). On the float route those are the
    listed polynomials; on the exact route the listed polynomials are the
    unscaled exact ones, so a block entry is their pairing divided by both
    coordinate norms.
    """
    if sigma is None:
        sigma = solve_lyapunov(dec.model).sigma
    else:
        sigma = np.array(
            [[float(x) for x in row] for row in sigma], dtype=float
        )
    G = basis_moment_gram(dec.basis, sigma)
    groups = dec.groups
    mats = [np.asarray(g.vectors, dtype=complex) for g in groups]
    V = np.hstack(mats)
    H = V.T @ G @ V.conj()
    norms = np.sqrt(np.abs(np.diag(H).real))
    denom = np.outer(norms, norms)
    with np.errstate(invalid="ignore", divide="ignore"):
        normalized = np.where(denom > 0, np.abs(H) / denom, 0.0)
    ends = np.cumsum([m.shape[1] for m in mats])
    cols = [slice(end - m.shape[1], end) for m, end in zip(mats, ends)]
    pairs = []
    all_ok = True
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            block = H[cols[i], cols[j]]
            worst = float(normalized[cols[i], cols[j]].max())
            ok = worst < tol_orth
            all_ok = all_ok and ok
            pairs.append(PairVerdict(i=i, j=j, max_normalized=worst, orthogonal=ok, block=block))
    return OrthogonalityReport(
        pairs=tuple(pairs),
        tol_orth=tol_orth,
        all_orthogonal=all_ok,
        eigenvalues=tuple(g.eigenvalue for g in groups),
    )


# -- drift eigenvector geometry (N = 2) ---------------------------------------


def b_eigenvector_angle(B, tol: float = 1e-10) -> float:
    """Angle in [0, pi/2] between the two real eigenvector lines of a 2x2
    drift with distinct real eigenvalues."""
    B = np.asarray(B, dtype=float)
    if B.shape != (2, 2):
        raise UnsupportedDimension("eigenvector angle is a 2x2 construction")
    vals, vecs = np.linalg.eig(B)
    if np.abs(vals.imag).max() > tol:
        raise ComplexSpectrum(f"drift eigenvalues {vals} are not real")
    vals = vals.real
    if abs(vals[0] - vals[1]) <= tol * max(1.0, np.abs(vals).max()):
        raise RepeatedEigenvalue(f"drift eigenvalues {vals} coincide")
    v1, v2 = vecs[:, 0].real, vecs[:, 1].real
    cosang = abs(float(v1 @ v2)) / (np.linalg.norm(v1) * np.linalg.norm(v2))
    return acos(min(1.0, max(0.0, cosang)))


def polynomial_space_dimension(dim: int, cap: int) -> int:
    return comb(dim + cap, dim)
