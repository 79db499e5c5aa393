"""Drift spectra, generalized eigenspaces, and orthogonality reports.

Everything rests on one list: the drift eigenvalues, clustered once by rank
(_drift_clusters). For a rational model whose drift eigenvalues are all
rational, each cluster is confirmed exactly and the model takes the exact
route, whether or not B is triangular.

The generator's spectrum on polynomials of degree <= n is the set of sums
sum_j n_j lambda_j over these clusters with sum n_j <= n (Metafune, Pallara
and Priola, J. Funct. Anal. 196, 2002). Generalized eigenspaces follow from
the Wick intertwining L W = W D. Here D = <Bx, grad> is the drift part,
which keeps the degree, and W = exp(-1/2 tr(S D^2)) is the Wick map of the
stationary covariance S (operator.wick_matrix). Every generalized eigenspace
of L is therefore W applied to generalized eigenspaces of the drift blocks
D_n, one per spectrum point: exact kernels on the exact route, a staircase
of SVD kernels otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations
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
    exact: Fraction | None = None  # the value as a rational, on the exact route


@dataclass(frozen=True)
class SpectrumSet:
    distinct: tuple[complex, ...]  # the drift eigenvalue clusters
    multiplicities: tuple[int, ...]  # the algebraic multiplicity of each
    degree_cap: int
    points: tuple[SpectrumPoint, ...]

    def values(self) -> list[complex]:
        return [p.value for p in self.points]

    def block_multiplicities(self, point: SpectrumPoint) -> list[int]:
        """Algebraic multiplicity of a point in each drift block D_0..D_cap:
        a witness n counts prod_j C(m_j + n_j - 1, n_j), the number of
        monomials of degree n_j in m_j variables."""
        counts = [0] * (self.degree_cap + 1)
        for n in point.witnesses:
            counts[sum(n)] += math.prod(comb(m + k - 1, k) for m, k in zip(self.multiplicities, n))
        return counts

    def multiset(self) -> list[complex]:
        """Eigenvalues with algebraic multiplicity, as in the operator matrix."""
        return [p.value for p in self.points for _ in range(sum(self.block_multiplicities(p)))]


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
    groups: tuple[EigenGroup, ...]  # one per point of spectrum, in its order
    spectrum: SpectrumSet
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


def _drift_clusters(B: np.ndarray) -> list[tuple[complex, int]]:
    """The drift eigenvalues clustered by rank: (mean, size) per cluster.

    Clusters are read top down from the single-linkage dendrogram of the
    eigenvalues. A cluster of k values with mean mu is kept when the kernel
    staircase of B - mu reaches nullity k, calling only roundoff zero;
    otherwise it is split at its widest link, down to single eigenvalues.
    So a defective eigenvalue, whose computed copies scatter by about
    eps^(1/k), is one cluster, and close distinct ones stay apart, as they
    would not under (B - mu)^k."""
    eigs = drift_eigenvalues(B)
    floor = _roundoff_floor(float(np.linalg.norm(B)), RANK_RTOL)
    # Kruskal's merges, closest pair first; a merged cluster keeps its halves
    cluster_of = {i: (i,) for i in range(len(eigs))}
    halves = {}
    links = sorted(combinations(range(len(eigs)), 2), key=lambda ij: abs(eigs[ij[0]] - eigs[ij[1]]))
    for i, j in links:
        a, b = cluster_of[i], cluster_of[j]
        if a != b:
            halves[a + b] = (a, b)
            cluster_of.update(dict.fromkeys(a + b, a + b))
    out, todo = [], [cluster_of[0]]
    while todo:
        members = todo.pop()
        k = len(members)
        mu = sum(eigs[i] for i in members) / k
        try:
            passed = k == 1 or _float_block_kernel(B, mu, k, RANK_RTOL)[2] <= floor
        except RankDecisionAmbiguous:
            passed = False
        if passed:
            out.append((mu, k))
        else:
            todo.extend(halves[members])
    return out


def _rational_clusters(B_exact, clusters) -> list[tuple[Fraction, int]] | None:
    """The clusters as exact eigenvalues of a rational B with multiplicities,
    or None when some drift eigenvalue is not rational.

    The rational eigenvalues of s B, s the common denominator of B, are
    integers, so each mean is rounded to a multiple of 1/s; equal ones merge.
    Each value r of multiplicity m is confirmed by dim ker (B - r)^m = m,
    and the multiplicities sum to N."""
    _, s = exact.common_denominator_scale(B_exact)
    sizes: dict[Fraction, int] = {}
    for mu, m in clusters:
        r = Fraction(round(Fraction(mu.real) * s), s)
        sizes[r] = sizes.get(r, 0) + m
    whole = slice(0, len(B_exact))
    confirmed = all(len(_exact_block_kernel(B_exact, whole, r, m)[1]) == m for r, m in sizes.items())
    return list(sizes.items()) if confirmed else None


def spectrum(model: OUModel, degree_cap: int, tol_eig: float = TOL_EIG) -> SpectrumSet:
    """The sums sum_j n_j lambda_j over the drift eigenvalue clusters with
    sum n_j <= cap, each with its witnesses n: the compositions of each
    degree <= cap into r parts, C(r + cap, cap) of them. On the exact route
    (rational drift eigenvalues) equal sums merge exactly, otherwise sums
    within tol_eig, which joins resonances across degrees."""
    if degree_cap < 0:
        raise ValueError("degree cap must be >= 0")
    found = _drift_clusters(model.B)
    rational = _rational_clusters(model.B_exact, found) if model.is_exact else None
    # slowest decay first, so witness exponent vectors read off against
    # (-a+d, -a-d)-style orderings
    drift = sorted(rational or found, key=lambda vm: (-vm[0].real, vm[0].imag))
    tol = 0 if rational else tol_eig
    exponents = monomial_basis(len(drift), degree_cap).indices
    raw = [(sum(nj * lj for nj, (lj, _) in zip(n, drift)), n) for n in exponents]
    chains: list[list] = []
    for v, n in sorted(raw, key=lambda vw: (vw[0].real, vw[0].imag, vw[1])):
        if chains and abs(v - chains[-1][-1][0]) <= tol:
            chains[-1].append((v, n))
        else:
            chains.append([(v, n)])
    points = []
    for members in chains:
        rep = sum(v for v, _ in members) / len(members)
        ws = tuple(sorted(n for _, n in members))
        points.append(SpectrumPoint(complex(rep), ws, tuple(map(sum, ws)), rep if rational else None))
    points.sort(key=lambda p: (-p.value.real, p.value.imag))
    return SpectrumSet(
        distinct=tuple(complex(v) for v, _ in drift),
        multiplicities=tuple(m for _, m in drift),
        degree_cap=degree_cap,
        points=tuple(points),
    )


# -- operator eigenvalues and kernels ----------------------------------------


def operator_eigenvalues(om: OperatorMatrix) -> list[complex]:
    """Eigenvalues of a degree-graded operator matrix, block by block, with
    triangular blocks read off the diagonal. A test oracle for spectrum()."""
    arr = om.as_array()
    return [z for _, sl in degree_block_slices(om.basis) for z in drift_eigenvalues_raw(arr[sl, sl])]


def _roundoff_floor(top: float, rank_rtol: float) -> float:
    """Singular values at or below this are roundoff for an operator of size top."""
    return top * max(rank_rtol * 1e-3, 1e-300)


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
    floor = _roundoff_floor(top, rank_rtol)
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


def _exact_block_kernel(entries, sl: slice, mu, mult: int):
    """Nilpotency index and exact kernel basis of (D_n - mu)^k on one degree
    block, mu having algebraic multiplicity mult there: binary search of the
    index on exact ranks, then the basis off an exact RREF."""
    idx = range(sl.start, sl.stop)
    P = [[entries[i][j] - (mu if i == j else 0) for j in idx] for i in idx]
    P_int, _ = exact.common_denominator_scale(P)

    @cache
    def kernel(k: int):
        return exact.nullspace(exact.int_matrix_power(P_int, k))

    lo, hi = 1, mult
    while lo < hi:
        mid = (lo + hi) // 2
        if len(kernel(mid)) >= mult:
            hi = mid
        else:
            lo = mid + 1
    return lo, kernel(lo)


def _float_block_kernel(D: np.ndarray, mu: complex, mult: int, rank_rtol: float):
    """Nilpotency index and orthonormal basis of ker (D - mu)^k on one block
    D, which has mult eigenvalues in the cluster at mu, and the largest
    singular value called zero on the way.

    Staircase: with P = D - mu, ker(P^(k+1)) = {v : P v in ker(P^k)} =
    ker((I - V V*) P), which keeps every rank decision at the conditioning
    of P itself. dim ker(P^k) grows strictly with k until it reaches mult,
    so the nullity window at step k is [previous + 1, mult]. Ranks are
    judged at the scale of D, so a block that is mu I up to roundoff has
    index 1.
    """
    P = D - mu * np.eye(D.shape[0])
    scale = float(np.linalg.norm(D))
    nullity, basis, k, zero = 0, None, 0, 0.0
    while nullity < mult:
        k += 1
        A = P if basis is None else P - basis @ (basis.conj().T @ P)
        nullity, basis = _nullspace_bounded(A, nullity + 1, mult, rank_rtol, scale)
        # the kernel basis is right singular vectors, so these are the values called zero
        zero = max(zero, float(np.linalg.norm(A @ basis, axis=0).max()))
    return k, basis, zero


def generalized_eigenspaces(
    model: OUModel,
    degree_cap: int,
    tol_eig: float = TOL_EIG,
    rank_rtol: float = RANK_RTOL,
) -> SpectralDecomposition:
    """Generalized eigenspaces of L on polynomials of degree <= cap, one
    group per point of spectrum(model, cap, tol_eig), through the Wick
    intertwining L W = W D (see operator.wick_matrix).

    A point's generalized eigenspace is found inside each drift block D_n
    (a diagonal block of the operator matrix M) where it occurs, with the
    multiplicity the spectrum gives there, and mapped through W. On the exact
    route everything is exact, with zero residual; otherwise the kernels come
    from the float staircase, and the residual ||(M - mu)^k u|| is taken on M.
    """
    sp = spectrum(model, degree_cap, tol_eig)
    om = operator_matrix(model, degree_cap, "monomial", "L")
    blocks = [sl for _, sl in degree_block_slices(om.basis)]  # blocks[n] holds degree n
    W = wick_matrix(model, degree_cap)
    counts = [sp.block_multiplicities(p) for p in sp.points]
    if sp.points[0].exact is not None:
        groups = [_exact_eigengroup(om, W, blocks, p.exact, c) for p, c in zip(sp.points, counts)]
    else:
        M, Wf = om.as_array().astype(complex), W.as_array()
        groups = [
            _float_eigengroup(M, Wf, om.basis, blocks, p.value, c, rank_rtol)
            for p, c in zip(sp.points, counts)
        ]
    return SpectralDecomposition(
        model=model,
        degree_cap=degree_cap,
        basis=om.basis,
        matrix=om,
        groups=tuple(groups),
        spectrum=sp,
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
        k, kernel, _ = _float_block_kernel(M[sl, sl], mu, mult, rank_rtol)
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
    """Moment matrix E[x^(alpha_i + alpha_j)] over a monomial basis.

    Each distinct exponent sum is computed once. Sums are keyed by their
    mixed-radix value in base 2 cap + 1, where no digit carries, so the key
    of alpha_i + alpha_j is the sum of the keys. Keys that could pass int64
    (many variables at a low cap) are held as Python integers."""
    table = MomentTable(np.asarray(sigma, dtype=float) if not isinstance(sigma, np.ndarray) else sigma)
    radix = 2 * basis.cap + 1
    dtype = np.int64 if radix**basis.dim <= 2**63 else object
    weights = radix ** np.arange(basis.dim).astype(dtype)
    keys = np.array(basis.indices, dtype=dtype) @ weights
    distinct, inverse = np.unique(keys[:, None] + keys[None, :], return_inverse=True)
    exponents = (distinct[:, None] // weights) % radix
    moments = np.array([float(table.moment(tuple(a))) for a in exponents.tolist()])
    return moments[inverse].reshape(len(basis), len(basis))


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
    sizes = [m.shape[1] for m in mats]
    starts = np.cumsum(sizes) - sizes
    cols = [slice(start, start + size) for start, size in zip(starts, sizes)]
    # block maxima of the normalized table, one entry per pair of groups
    worst = np.maximum.reduceat(np.maximum.reduceat(normalized, starts, axis=0), starts, axis=1)
    upper = np.triu_indices(len(groups), 1)
    pairs = [
        PairVerdict(i=i, j=j, max_normalized=w, orthogonal=w < tol_orth, block=H[cols[i], cols[j]])
        for i, j, w in zip(upper[0].tolist(), upper[1].tolist(), worst[upper].tolist())
    ]
    all_ok = all(p.orthogonal for p in pairs)
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
