"""Drift spectra, generalized eigenspaces, and orthogonality reports.

Everything rests on one list: the drift's eigenvalue clusters, each with
the linear forms of its left generalized eigenspace. A rational model whose
drift eigenvalues are all rational takes the exact route, whether or not B
is triangular: its eigenvalues are the integer roots of the characteristic
polynomial of s B, s the common denominator, and each has integer forms
from one exact kernel, with no rank call (_rational_clusters). Any other
model's clusters are decided by rank on the float eigenvalues
(_drift_clusters, on model.drift_eigenvalues).

The generator's spectrum on polynomials of degree <= n is the set of sums
sum_j n_j lambda_j over these clusters with sum n_j <= n (Metafune, Pallara
and Priola, J. Funct. Anal. 196, 2002). Generalized eigenspaces follow from
the Wick intertwining L W = W D. Here D = <Bx, grad> is the drift part,
which keeps the degree, and W = exp(-1/2 tr(S D^2)) is the Wick map of the
stationary covariance S; the Lyapunov equation makes W D W^(-1) = L. D acts
on a linear form y = u . x as B^T acts on u, and it is a derivation. So a
product of forms, n_j of them from ker (B^T - lambda_j)^(k_j) for each
cluster j, lies in the generalized eigenspace of D at sum_j n_j lambda_j,
with nilpotency index 1 + sum_j n_j (k_j - 1). The products of a basis of
such forms are a basis of every degree, so each generalized eigenspace of L
is spanned by the images W y^gamma whose sum is its point: no kernel is
solved on any degree block. W y^gamma is the Wick power :y^gamma: under the
forms' own pairing T^T S T, T the stacked forms, so one recursion
(operator.wick_powers) builds every image, with no W and no product y^gamma.

The images are exact integers over one denominator on the exact route
(operator.integer_wick_powers), where no operator matrix is built; otherwise
they and the operator matrix for the residuals are floats, also for a
rational model with complex drift eigenvalues. Each group keeps its
coefficient columns; listed_mask picks the listed terms off them (for
listed_terms and the report alike), and EigenGroup.polynomials builds them
as SparsePolynomials only when read.

The groups are paired under N(0, S) from the same forms: by Wick's theorem
:y^gamma: and :y^delta: pair to zero unless |gamma| = |delta|, and otherwise
to a coefficient of a product of the forms' N x N pairing P = T^T S conj(T)
(orthogonality_report), so no moment matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import acos, comb

import numpy as np

from . import exact, gaussian
from .errors import (
    ComplexSpectrum,
    ConvergenceFailure,
    RankDecisionAmbiguous,
    RepeatedEigenvalue,
    UnsupportedDimension,
)
from .model import OUModel, drift_eigenvalues
from .operator import OperatorMatrix, _monomial_matrix, integer_wick_powers, wick_powers
from .polynomials import GradedBasis, SparsePolynomial, exponent_array, monomial_basis

TOL_EIG = 1e-8
TOL_ORTH = 1e-9
TOL_NILP = 1e-9
RANK_RTOL = 1e-10
RANK_MIN_GAP = 1e4  # smallest singular-value ratio accepted as a rank gap
NOT_FINITE = "a spectrum point is not finite, which JSON cannot hold"

# not called here: the benchmark harness (perfbench/spans.py) traces the
# moment matrix under this module's name
basis_moment_gram = gaussian.basis_moment_gram


@dataclass(frozen=True)
class SpectrumPoint:
    value: complex
    witnesses: tuple[tuple[int, ...], ...]  # exponents against the distinct drift eigenvalues
    degrees: tuple[int, ...]
    exact: Fraction | None = None  # the value as a rational, on the exact route


@dataclass(frozen=True)
class DriftCluster:
    """A cluster of drift eigenvalues with the linear forms y = u . x of its
    left generalized eigenspace ker (B^T - value)^index, on which the drift
    part D acts as B^T acts on u."""

    value: complex | Fraction  # the cluster mean; the exact eigenvalue on the exact route
    multiplicity: int
    index: int  # least k with dim ker (B^T - value)^k = multiplicity
    forms: np.ndarray  # (N, multiplicity) columns u; Python ints on the exact route


@dataclass(frozen=True)
class SpectrumSet:
    """The spectrum points as arrays, slowest decay first."""

    clusters: tuple[DriftCluster, ...]  # slowest decay first
    degree_cap: int
    point_values: np.ndarray  # complex, one per point
    witness_rows: np.ndarray  # (compositions, clusters) exponents, grouped per point
    bounds: np.ndarray  # point k's witnesses are witness_rows[bounds[k] : bounds[k + 1]]
    rationals: tuple[Fraction, ...] | None = None  # the values, on the exact route

    @cached_property
    def points(self) -> tuple[SpectrumPoint, ...]:
        """One SpectrumPoint per point, in order; built on first read."""
        rows, b = list(map(tuple, self.witness_rows.tolist())), self.bounds.tolist()
        exact = self.rationals or [None] * len(self.point_values)
        return tuple(
            SpectrumPoint(z, tuple(rows[lo:hi]), tuple(map(sum, rows[lo:hi])), q)
            for z, lo, hi, q in zip(self.point_values.tolist(), b, b[1:], exact)
        )

    @property
    def distinct(self) -> tuple[complex, ...]:
        return tuple(complex(c.value) for c in self.clusters)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(c.multiplicity for c in self.clusters)

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
    vectors: np.ndarray  # (basis size, multiplicity), coordinate columns of unit norm
    # coordinate columns of the listed polynomials, over `denominator`: integers
    # on the exact route, else the unit vectors themselves (denominator 1)
    coefficients: np.ndarray
    denominator: int
    basis: GradedBasis
    max_power_residual: float  # ||(M - mu I)^k u|| / ||u||, worst basis column

    @cached_property
    def polynomials(self) -> tuple[SparsePolynomial, ...]:
        """The listed polynomials, with the terms of listed_terms."""
        indices = self.basis.indices
        return tuple(
            SparsePolynomial(self.basis.dim, {indices[k]: c for k, c in zip(rows, values)})
            for rows, values in listed_terms(self.coefficients, self.denominator)
        )


def listed_mask(coefficients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which entries of coefficient columns are listed terms, and which are
    listed as real. Exact columns (integers) list every nonzero entry. Float
    columns drop coefficients at roundoff level, 1e-13 of the column's
    largest, and list a coefficient as real when its imaginary part is below
    that. A non-finite float entry is an error."""
    if coefficients.dtype == object:
        listed = coefficients != 0
        return listed, np.ones_like(listed)
    if not np.isfinite(coefficients).all():
        raise ConvergenceFailure("an eigen-group has a non-finite coefficient")
    mag = np.abs(coefficients)
    cut = 1e-13 * mag.max(axis=0)
    return mag > cut, np.abs(coefficients.imag) <= cut


def listed_terms(coefficients: np.ndarray, denominator: int) -> list[tuple[list, list]]:
    """The terms of the polynomial each column lists, as (rows, values) in
    row order, the entries of listed_mask: an exact column's over
    denominator as Fractions, a float column's real ones as floats."""
    listed, real = listed_mask(coefficients)
    out = []
    for j in range(coefficients.shape[1]):
        rows = np.flatnonzero(listed[:, j])
        col = coefficients[rows, j].tolist()
        if coefficients.dtype == object:
            values = [Fraction(x, denominator) for x in col]
        else:
            values = [z.real if r else z for z, r in zip(col, real[rows, j].tolist())]
        out.append((rows.tolist(), values))
    return out


@dataclass(frozen=True)
class SpectralDecomposition:
    model: OUModel
    degree_cap: int
    basis: GradedBasis
    groups: tuple[EigenGroup, ...]  # one per point of spectrum, in its order
    spectrum: SpectrumSet
    # the groups' columns side by side: the basis row of each column's
    # exponent gamma (the column is the Wick power :y^gamma:), a permutation
    # of the basis rows, and the Euclidean norm of :y^gamma:'s coordinates
    wick_rows: np.ndarray
    wick_norms: np.ndarray
    tol_eig: float = TOL_EIG

    def group_at(self, value: complex) -> EigenGroup:
        for g in self.groups:
            if abs(g.eigenvalue - value) <= self.tol_eig:
                return g
        raise KeyError(f"no eigenvalue group within {self.tol_eig} of {value}")


@dataclass(frozen=True)
class PairVerdict:
    i: int
    j: int
    max_normalized: float
    orthogonal: bool
    block: np.ndarray


@dataclass(frozen=True)
class OrthogonalityReport:
    """The pair Gram of the groups and its per-pair maxima, as arrays: pair
    (i, j), i < j, is the block of gram at group i's rows and group j's
    columns, and worst[i, j] its largest normalized entry. Columns of
    different degree pair to exactly +0.0 (orthogonality_report)."""

    gram: np.ndarray  # H, the pairings of the groups' unit columns side by side
    starts: np.ndarray  # first column of each group in gram
    worst: np.ndarray  # (groups, groups) block maxima of |H_ab| / sqrt(H_aa H_bb)
    # (groups, groups) True where two groups share no degree, so that their
    # block is exactly +0.0
    disjoint: np.ndarray
    tol_orth: float
    eigenvalues: tuple[complex, ...] = ()

    @property
    def all_orthogonal(self) -> bool:
        return bool((self.worst[np.triu_indices(len(self.starts), 1)] < self.tol_orth).all())

    @cached_property
    def pairs(self) -> tuple[PairVerdict, ...]:
        """One PairVerdict per pair i < j, row by row; built on first read."""
        bounds = [*self.starts.tolist(), self.gram.shape[0]]
        cols = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        upper = np.triu_indices(len(cols), 1)
        return tuple(
            PairVerdict(i, j, w, w < self.tol_orth, self.gram[cols[i], cols[j]])
            for i, j, w in zip(upper[0].tolist(), upper[1].tolist(), self.worst[upper].tolist())
        )


# -- drift spectrum ----------------------------------------------------------


def _drift_clusters(B: np.ndarray) -> list[DriftCluster]:
    """The drift eigenvalues clustered by rank, each cluster with its left
    generalized eigenspace from the kernel staircase of B^T - mu.

    Clusters are read top down from the single-linkage dendrogram of the
    eigenvalues. A cluster of k values with mean mu is kept when the
    staircase reaches nullity k, calling only roundoff zero; otherwise it is
    split at its widest link, down to single eigenvalues. So a defective
    eigenvalue, whose computed copies scatter by about eps^(1/k), is one
    cluster, and close distinct ones stay apart, as they would not under
    (B - mu)^k. B^T and B have the same nullity sequences."""
    eigs = drift_eigenvalues(B)
    floor = _roundoff_floor(float(_norm(B)))
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
        mu = _mean([eigs[i] for i in members])
        try:
            index, forms, zero = _float_block_kernel(B.T, mu, k)
        except RankDecisionAmbiguous:
            if k == 1:
                raise
            zero = math.inf
        if k == 1 or zero <= floor:
            out.append(DriftCluster(mu, k, index, forms))
        else:
            todo.extend(halves[members])
    return out


def _mean(values: list[complex]) -> complex:
    """sum(values) / len(values). Where that overflows, the sum is taken on
    the values times 2^-e, e the least that keeps it finite, and the mean
    scaled back by math.ldexp, as _norm does for norms."""
    mean = sum(values) / len(values)
    if math.isfinite(mean.real) and math.isfinite(mean.imag):
        return mean
    top = max(max(abs(z.real), abs(z.imag)) for z in values)
    e = math.frexp(top)[1] + len(values).bit_length() - 1023
    total = sum(complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in values)
    mean = total / len(values)
    return complex(math.ldexp(mean.real, e), math.ldexp(mean.imag, e))


def _rational_clusters(B_exact) -> list[DriftCluster] | None:
    """The drift eigenvalues of a rational B as exact clusters with integer
    forms, or None when some drift eigenvalue is not rational.

    The eigenvalues of s B, s the common denominator of B, are algebraic
    integers, so its rational ones are the integer roots of its
    characteristic polynomial (exact.charpoly, exact.integer_roots); no rank
    is called. Each root r of multiplicity m gives the value r / s, with the
    integer basis of ker (B^T - r / s)^m, of dimension m, as its forms."""
    a, s = exact.common_denominator_scale(B_exact)
    roots = exact.integer_roots(exact.charpoly(a))
    if roots is None:
        return None
    Bt = exact.transpose(B_exact)
    out = []
    for r, m in roots.items():
        index, kernel = _exact_block_kernel(Bt, Fraction(r, s), m)
        out.append(DriftCluster(Fraction(r, s), m, index, np.array(kernel, dtype=object).T))
    return out


def spectrum(model: OUModel, degree_cap: int, tol_eig: float = TOL_EIG) -> SpectrumSet:
    """The sums sum_j n_j lambda_j over the drift eigenvalue clusters with
    sum n_j <= cap, each with its witnesses n: the compositions of each
    degree <= cap into r parts, C(r + cap, cap) of them. On the exact route
    (rational drift eigenvalues) equal sums merge exactly, otherwise sums
    within tol_eig, which joins resonances across degrees.

    The sums are E times the cluster values, E the compositions in
    lexicographic order (integer numerators on the exact route). A stable
    sort chains them, breaking where consecutive sums are farther apart than
    the merge distance; a float point is its chain's mean in that order.
    Here alone N > 12 and a point past the float range are refused."""
    if degree_cap < 0:
        raise ValueError("degree cap must be >= 0")
    if model.dim > 12:
        raise UnsupportedDimension(f"spectra are supported for N <= 12, got N = {model.dim}")
    rational = model.is_exact and _rational_clusters(model.B_exact)
    # slowest decay first, so witness exponent vectors read off against
    # (-a+d, -a-d)-style orderings
    drift = sorted(rational or _drift_clusters(model.B), key=lambda c: (-c.value.real, c.value.imag))
    E = exponent_array(len(drift), degree_cap)
    if rational:  # Python ints over one denominator, which do not overflow
        den = math.lcm(*(c.value.denominator for c in drift))
        sums = E.astype(object) @ np.array([int(c.value * den) for c in drift], dtype=object)
        order = np.argsort(sums, kind="stable")
        sums = sums[order]
        new = np.r_[True, sums[1:] != sums[:-1]]
        rationals = [Fraction(n, den) for n in sums[new].tolist()]
        try:
            means = np.array([complex(q) for q in rationals])
        except OverflowError as e:
            raise ConvergenceFailure(NOT_FINITE) from e
    else:
        sums = np.zeros(len(E), dtype=complex)
        with np.errstate(over="ignore"):  # a sum past the float range is refused below
            for j, c in enumerate(drift):  # sum(n_j * value_j), term by term
                sums = sums + E[:, j] * c.value
        if not np.isfinite(sums).all():
            raise ConvergenceFailure(NOT_FINITE)
        order = np.argsort(sums, kind="stable")  # complex sorts by (real, imag)
        sums = sums[order]
        new = np.r_[True, ~(np.abs(np.diff(sums)) <= tol_eig)]
        bounds = np.r_[np.flatnonzero(new), len(sums)]
        means = sums[bounds[:-1]]  # a chain of one sum is its own mean
        for k in np.flatnonzero(np.diff(bounds) > 1).tolist():
            means[k] = _mean(sums[bounds[k] : bounds[k + 1]].tolist())
    final = np.argsort(-means.conj(), kind="stable")  # by (-real, imag); ties keep the chain order
    # the point of each row of E: its chain's rank in the final order
    point = np.argsort(final)[np.cumsum(new) - 1][np.argsort(order)]
    return SpectrumSet(
        clusters=tuple(drift),
        degree_cap=degree_cap,
        point_values=means[final],
        witness_rows=E[np.argsort(point, kind="stable")],
        bounds=np.r_[0, np.cumsum(np.bincount(point))],
        rationals=tuple(rationals[i] for i in final.tolist()) if rational else None,
    )


# -- operator eigenvalues and kernels ----------------------------------------


def operator_eigenvalues(om: OperatorMatrix) -> list[complex]:
    """Eigenvalues of a degree-graded operator matrix, block by block, with
    triangular blocks read off the diagonal. A test oracle for spectrum()."""
    arr = om.as_array()
    return [z for sl in om.basis.blocks for z in drift_eigenvalues(arr[sl, sl])]


def _norm(a: np.ndarray, axis=None):
    """np.linalg.norm(a, axis=axis) with no overflow in the squares: each
    vector the norm is taken over (all of a, or each column for axis=0) whose
    largest entry is 2^(e - 1) or more, e >= 1, is scaled by 2^-e, and its
    norm scaled back. Scaling by a power of two is exact, so wherever the
    plain norm is finite this is the same value, up to squares far below its
    roundoff; a column far below the largest keeps its own norm."""
    top = np.abs(a).max(axis=axis, initial=0.0, keepdims=True)
    e = np.maximum(np.frexp(top)[1], 0)
    norm = np.linalg.norm(a * np.ldexp(1.0, -e), axis=axis, keepdims=True)
    return np.ldexp(norm, e).squeeze(axis)


def _roundoff_floor(top: float) -> float:
    """Singular values at or below this are roundoff for an operator of size top."""
    return top * (RANK_RTOL * 1e-3)


def _nullspace_bounded(
    mat: np.ndarray, lo_nullity: int, hi_nullity: int, scale: float = 0.0
):
    """Nullity and an orthonormal kernel basis, with the nullity known a
    priori to lie in [lo_nullity, hi_nullity].

    The cut is placed at the largest relative gap in the ascending singular
    values inside that window (powers of non-normal matrices spread their
    genuine singular values too widely for a fixed threshold). A decision is
    only accepted when the winning gap is decisive; otherwise the rank call
    is reported as ambiguous rather than guessed.

    ``scale`` is the size of the operator that mat was taken from; singular
    values are judged against the larger of it and mat's own largest one.
    Singular values below a floor at RANK_RTOL * 1e-3 of it all count as
    zero, so the cut never falls between two roundoff values (an exact 0 and
    a 1e-18, say), and a matrix whose singular values all lie below the
    floor has a full kernel: the same floor at which _drift_clusters keeps
    a cluster.
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
    top = max(asc[-1] if asc.size else 0.0, scale)
    floor = _roundoff_floor(top)
    if asc.size == 0 or asc[-1] <= floor:
        return n, np.eye(n, dtype=complex)
    hi_nullity = min(hi_nullity, n)
    lo_nullity = max(lo_nullity, 0)
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


def _exact_block_kernel(entries, mu, mult: int):
    """Nilpotency index and integer kernel basis of (A - mu)^k for an N x N
    rational A in which mu has algebraic multiplicity mult.

    P = s (A - mu), s the common denominator, is integer; the kernel is
    exact.nullspace of P^mult, and the index the number of products by P
    that take it to zero. As ker P^index = ker P^mult, exact.nullspace of
    P^index gives the same basis: it depends on the kernel alone."""
    n = len(entries)
    P = [[entries[i][j] - (mu if i == j else 0) for j in range(n)] for i in range(n)]
    P_int, _ = exact.common_denominator_scale(P)
    kernel = exact.nullspace(exact.int_matrix_power(P_int, mult))
    index, images = 0, kernel
    while any(any(v) for v in images):
        index += 1
        images = [[sum(p * x for p, x in zip(row, v)) for row in P_int] for v in images]
    return index, kernel


def _float_block_kernel(D: np.ndarray, mu: complex, mult: int):
    """Nilpotency index and orthonormal basis of ker (D - mu)^k for a matrix
    D with mult eigenvalues in the cluster at mu, and the largest singular
    value called zero on the way. A real mu keeps the arithmetic real.

    Staircase: with P = D - mu, ker(P^(k+1)) = {v : P v in ker(P^k)} =
    ker((I - V V*) P), which keeps every rank decision at the conditioning
    of P itself. dim ker(P^k) grows strictly with k until it reaches mult,
    so the nullity window at step k is [previous + 1, mult]. Ranks are
    judged at the scale of D, so a matrix that is mu I up to roundoff has
    index 1.
    """
    P = D - (mu if mu.imag else mu.real) * np.eye(D.shape[0])
    scale = float(_norm(D))
    nullity, basis, k, zero = 0, None, 0, 0.0
    while nullity < mult:
        k += 1
        A = P if basis is None else P - basis @ (basis.conj().T @ P)
        nullity, basis = _nullspace_bounded(A, nullity + 1, mult, scale)
        # the kernel basis is right singular vectors, so these are the values called zero
        zero = max(zero, float(_norm(A @ basis, axis=0).max()))
    return k, basis, zero


def generalized_eigenspaces(
    model: OUModel, degree_cap: int, tol_eig: float = TOL_EIG
) -> SpectralDecomposition:
    """Generalized eigenspaces of L on polynomials of degree <= cap, one
    group per point of spectrum(model, cap, tol_eig), as the Wick powers of
    the drift's left generalized eigenforms.

    Stack the clusters' forms as y_1..y_N. For a witness n of a point, the
    products y^gamma with n_j factors from cluster j span the generalized
    eigenspace of the drift block D_|n| at the point's sum, so the group is
    their images W y^gamma = :y^gamma:, over its witnesses, from
    operator.wick_powers with the pairing T^T S T of the forms: its size is
    SpectrumSet.block_multiplicities by construction, and its nilpotency
    index is the largest 1 + sum_j n_j (k_j - 1). On the exact route
    everything is exact, with zero residual; otherwise the residual
    ||(M - mu)^k u|| is taken on the float operator matrix M. The
    decomposition keeps each column's exponent gamma (as its basis row) and
    the norm of :y^gamma:, from which orthogonality_report pairs them.
    """
    sp = spectrum(model, degree_cap, tol_eig)
    exact_route = sp.rationals is not None
    basis = monomial_basis(model.dim, degree_cap)
    T = np.hstack([c.forms for c in sp.clusters])  # the forms y_1..y_N, cluster by cluster
    if exact_route:  # scale times the Wick powers, in integers
        images, scale = integer_wick_powers(T, model.covariance.sigma_exact, basis)
    else:
        images, scale = wick_powers(T, T.T @ model.covariance.sigma @ T, basis), 1
        M = _monomial_matrix(model, basis, "L", False).entries.astype(complex)
    owner = [j for j, c in enumerate(sp.clusters) for _ in range(c.multiplicity)]  # cluster of each form
    patterns = {}  # the columns gamma with each cluster pattern n: n_j factors from cluster j
    for g, n in enumerate((basis.exponents @ np.eye(len(sp.clusters), dtype=int)[owner]).tolist()):
        patterns.setdefault(tuple(n), []).append(g)
    groups, wick_rows, wick_norms = [], [], []
    for p in sp.points:
        rows = [g for n in p.witnesses for g in patterns[n]]
        V = images[:, rows]
        index = max(
            1 + sum(nj * (c.index - 1) for nj, c in zip(n, sp.clusters)) for n in p.witnesses
        )
        try:  # the unit vectors are floats, so each column's norm must be one
            with np.errstate(over="raise"):
                unit = V.astype(complex)
                norms = np.linalg.norm(unit, axis=0)
                unit /= norms
                wick_norms.append(norms / float(scale))
        except (OverflowError, FloatingPointError) as e:
            at = p.value if p.exact is None else p.exact
            message = f"a coefficient column of the eigen-group at {at} has a norm beyond the float range"
            raise ConvergenceFailure(message) from e
        wick_rows += rows
        if exact_route:
            coefficients, residual = V, 0.0
        else:
            coefficients = R = unit
            for _ in range(index):
                R = M @ R - p.value * R
            residual = float(np.linalg.norm(R, axis=0).max())
        groups.append(
            EigenGroup(p.value, V.shape[1], index, unit, coefficients, scale, basis, residual)
        )
    return SpectralDecomposition(
        model=model,
        degree_cap=degree_cap,
        basis=basis,
        groups=tuple(groups),
        spectrum=sp,
        wick_rows=np.array(wick_rows),
        wick_norms=np.concatenate(wick_norms),
        tol_eig=tol_eig,
    )


# -- orthogonality -----------------------------------------------------------


def orthogonality_report(
    dec: SpectralDecomposition, tol_orth: float = TOL_ORTH
) -> OrthogonalityReport:
    """Pairwise cross-Gram data between distinct-eigenvalue groups under the
    model's stationary measure; a pair is orthogonal when every normalized
    inner product stays below tol.

    Each group column is a Wick power :y^gamma: of the drift forms, scaled to
    unit Euclidean norm (EigenGroup.vectors). By Wick's theorem (Janson,
    Gaussian Hilbert Spaces, 1997, ch. 1 and 3) two Wick powers pair to zero
    under N(0, S) unless |gamma| = |delta|, and then to
    gamma! [z^gamma] (P^T z)^delta, with P = T^T S conj(T) the N x N pairing
    of the forms, T the forms side by side. Those coefficients are the Wick
    powers of the forms P^T z under a zero pairing, the plain products
    (operator.wick_powers(P, 0, basis)), so the pair Gram H of the unit
    columns is block diagonal by degree and needs no moment matrix: H[a, b]
    is gamma_a! Z[gamma_a, gamma_b] / (n_a n_b), n the norms of the Wick
    powers (SpectralDecomposition.wick_norms), where the degrees match, and
    +0.0 elsewhere.

    The report keeps H as `gram`, each group's first column in it as
    `starts`, the block maxima of the normalized table as `worst`, and the
    pairs of groups that share no degree, whose blocks are exactly zero, as
    `disjoint`; `all_orthogonal` is read off worst's upper triangle. Its
    `pairs`, one PairVerdict per pair, are built from these arrays on first
    read. On the float route the unit columns are the listed polynomials; on
    the exact route the listed polynomials are the unscaled exact ones, so a
    block entry is their pairing divided by both coordinate norms.
    """
    basis, E = dec.basis, dec.basis.exponents
    try:  # the exact route's forms are Python ints
        T = np.hstack([c.forms for c in dec.spectrum.clusters]).astype(complex)
    except OverflowError as e:
        raise ConvergenceFailure("a drift form has an entry beyond the float range") from e
    P = T.T @ dec.model.covariance.sigma @ T.conj()
    Z = wick_powers(P, np.zeros_like(P), basis)
    rows, n = dec.wick_rows, dec.wick_norms
    factorials = np.cumprod(np.r_[1.0, np.arange(1, basis.cap + 1)])
    weight = factorials[E[rows]].prod(axis=1) / n
    degree = E[rows].sum(axis=1)
    H = np.zeros((len(rows), len(rows)), dtype=complex)
    for d in range(basis.cap + 1):
        a = np.flatnonzero(degree == d)
        H[np.ix_(a, a)] = Z[np.ix_(rows[a], rows[a])] * weight[a, None] / n[a]
    norms = np.sqrt(np.abs(np.diag(H).real))
    denom = np.outer(norms, norms)
    with np.errstate(invalid="ignore", divide="ignore"):
        normalized = np.where(denom > 0, np.abs(H) / denom, 0.0)
    sizes = [g.vectors.shape[1] for g in dec.groups]
    starts = np.cumsum(sizes) - sizes
    # block maxima of the normalized table, one entry per pair of groups
    worst = np.maximum.reduceat(np.maximum.reduceat(normalized, starts, axis=0), starts, axis=1)
    held = np.zeros((len(sizes), basis.cap + 1), dtype=bool)  # the degrees of each group
    held[np.repeat(np.arange(len(sizes)), sizes), degree] = True
    return OrthogonalityReport(
        gram=H,
        starts=starts,
        worst=worst,
        disjoint=~(held @ held.T),
        tol_orth=tol_orth,
        eigenvalues=tuple(g.eigenvalue for g in dec.groups),
    )


# -- drift eigenvector geometry (N = 2) ---------------------------------------


def b_eigenvector_angle(B) -> float:
    """Angle in [0, pi/2] between the two real eigenvector lines of a 2x2
    drift with distinct real eigenvalues; eigenvalues count as real, and as
    distinct, to 1e-10."""
    tol = 1e-10
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
