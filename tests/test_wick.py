"""Properties of the Wick intertwining L W = W D and of what is built on it.

The oracle for the eigenspaces is the full operator matrix M: each group's
span must equal ker (M - mu)^k, computed here from M directly (the exact
kernel of the matrix power for rational models, a kernel staircase of SVDs on
all of M for float ones), with k the reported nilpotency index and k - 1 too
small.
The oracle for the Hermite-basis matrix projects images of the dilated
Hermite tensors by Gaussian inner products. The oracles for the semigroup are
its Taylor series on a generalized eigenvector, which is finite, and on any
polynomial the binomial expansion against the moments of the time-t
Gaussian, whose covariance is summed as a Taylor series too.
"""

import math
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ou_spectra import exact
from ou_spectra.gaussian import MomentTable, inner_product
from ou_spectra.model import OUModel, solve_lyapunov, validate_model
from ou_spectra.operator import (
    _apply,
    apply_L,
    operator_matrix,
    poly_coordinates,
    integer_wick_powers,
    semigroup_apply,
    wick_powers,
)
from ou_spectra.polynomials import SparsePolynomial, monomial_basis
from ou_spectra.spectral import (
    _exact_block_kernel,
    _nullspace_bounded,
    generalized_eigenspaces,
    spectrum,
)
from ou_spectra.worked_examples import section4_model
from reference import hermite_tensor, identity, mat_add, mat_mul, multiply, power, wick_matrix

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def rational_models(draw, dims=(1, 2, 3)):
    """Q = I + A A^T and B = -c I + E with small rational A, E; c is raised
    until B is Hurwitz."""
    n = draw(st.sampled_from(dims))
    A = [[draw(small_fractions) for _ in range(n)] for _ in range(n)]
    E = [[draw(small_fractions) for _ in range(n)] for _ in range(n)]
    Q = mat_add(identity(n), mat_mul(A, exact.transpose(A)))
    c = Fraction(1) + sum(abs(x) for row in E for x in row)  # Gershgorin bound
    B = [[E[i][j] - (c if i == j else 0) for j in range(n)] for i in range(n)]
    return validate_model(Q, B)


@st.composite
def float_models(draw, dims=(1, 2, 3)):
    n = draw(st.sampled_from(dims))
    entries = st.floats(min_value=-1, max_value=1, allow_nan=False)
    A = np.array([[draw(entries) for _ in range(n)] for _ in range(n)])
    E = np.array([[draw(entries) for _ in range(n)] for _ in range(n)])
    B = E - (0.5 + np.abs(E).sum(axis=1).max()) * np.eye(n)
    return validate_model(np.eye(n) + A @ A.T, B)


@st.composite
def triangular_rational_models(draw):
    """Lower-triangular drifts with integer diagonals from a small set, so
    that repeated eigenvalues, Jordan-type blocks and resonances across
    degrees all occur."""
    n = draw(st.sampled_from((2, 3)))
    diag = [Fraction(draw(st.sampled_from((-1, -2, -3)))) for _ in range(n)]
    B = [
        [diag[i] if i == j else (draw(small_fractions) if j < i else Fraction(0)) for j in range(n)]
        for i in range(n)
    ]
    Q = [[Fraction(draw(st.integers(1, 3))) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return validate_model(Q, B)


@st.composite
def resonant_float_models(draw):
    """B = V diag(lambda) V^-1 with distinct lambda from a small set, so that
    the sums of drift eigenvalues collide within and across degrees, under a
    well-conditioned similarity V.

    The full-matrix staircase reads roundoff in one block as a rank gap
    against a smaller one in another block. So B has no repeated eigenvalue
    (V diag(-1, -1) V^-1 is -I plus roundoff), and V - I lies on a grid of
    1/20, far above roundoff."""
    n = draw(st.sampled_from((2, 3)))
    lam = draw(st.permutations((-1.0, -1.5, -2.0, -3.0)))[:n]
    entries = st.integers(-6, 6).map(lambda k: k / 20)
    V = np.eye(n) + np.array([[draw(entries) for _ in range(n)] for _ in range(n)])
    Qh = np.array([[draw(entries) for _ in range(n)] for _ in range(n)])
    return validate_model(np.eye(n) + Qh @ Qh.T, V @ np.diag(lam) @ np.linalg.inv(V))


@st.composite
def rotated_jordan_models(draw):
    """(Q, R J R^T) with J a real Jordan form, R a random rotation and Q = I
    or a random SPD matrix. J is J_2, J_3, J_2 + J_2 at one eigenvalue, a
    complex J_2 (4x4), or J_2 plus a simple eigenvalue. Returns the model
    and J's eigenvalues with multiplicity."""
    kind = draw(st.sampled_from(("J2", "J3", "J2+J2", "complex J2", "J2+1")))
    lam = draw(st.sampled_from((-1.0, -1.5, -2.5)))
    if kind == "complex J2":
        omega = draw(st.sampled_from((0.5, 2.0)))
        C = np.array([[lam, omega], [-omega, lam]])
        J = np.block([[C, np.eye(2)], [np.zeros((2, 2)), C]])
        eigs = [complex(lam, omega)] * 2 + [complex(lam, -omega)] * 2
    else:
        size = {"J2": 2, "J3": 3, "J2+J2": 4, "J2+1": 3}[kind]
        J = lam * np.eye(size) + np.eye(size, k=1)
        if kind == "J2+J2":
            J[1, 2] = 0.0
        eigs = [complex(lam)] * size
        if kind == "J2+1":
            J[2, 2] = eigs[2] = lam - draw(st.sampled_from((0.5, 1.0, 1.25)))
    n = J.shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = rng.standard_normal((n, n)) / (2 * n) if draw(st.booleans()) else np.zeros((n, n))
    return validate_model(np.eye(n) + A @ A.T, R @ J @ R.T), [complex(z) for z in eigs]


@st.composite
def normalized_rational_models(draw):
    """Q = I, stationary covariance Lambda diagonal rational and
    B = (-1/2 I + K) Lambda^-1 with K skew rational, which solves the
    Lyapunov equation B Lambda + Lambda B^T + I = 0."""
    n = draw(st.sampled_from((2, 3)))
    variances = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)
    lam = [draw(variances) for _ in range(n)]
    K = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            K[i][j] = draw(small_fractions)
            K[j][i] = -K[i][j]
    B = [
        [((Fraction(-1, 2) if i == j else 0) + K[i][j]) / lam[j] for j in range(n)]
        for i in range(n)
    ]
    return validate_model(identity(n), B)


class TestIntertwining:
    @SETTINGS
    @given(rational_models(), st.integers(0, 4))
    def test_exact_in_fractions(self, model, cap):
        cap = min(cap, 3) if model.dim == 3 else cap
        M = operator_matrix(model, cap, "monomial", "L").entries
        D = operator_matrix(model, cap, "monomial", "drift").entries
        W = wick_matrix(model, cap)
        assert W.is_exact
        assert mat_mul(M, W.entries) == mat_mul(W.entries, D)

    @SETTINGS
    @given(float_models(), st.integers(0, 5))
    def test_float_relative_error(self, model, cap):
        M = operator_matrix(model, cap, "monomial", "L").as_array()
        D = operator_matrix(model, cap, "monomial", "drift").as_array()
        W = wick_matrix(model, cap).as_array()
        scale = np.linalg.norm(M) * np.linalg.norm(W)
        assert np.linalg.norm(M @ W - W @ D) <= 1e-12 * scale

    def test_section5_v1(self, model5):
        # W(x1^2) = x1^2 - S_11, the paper's v1 at (a, d, c) = (2, 1, 1)
        W = wick_matrix(model5, 2)
        column = W.basis.indices.index((2, 0))
        image = {W.basis.indices[i]: W.entries[i][column] for i in range(len(W.basis))}
        assert {a: c for a, c in image.items() if c} == {(2, 0): 1, (0, 0): Fraction(-1, 2)}


def _wick_series(wick_model: OUModel, p: SparsePolynomial, sign: int) -> SparsePolynomial:
    """exp(sign * K) p with K = 1/2 tr(Q D^2) the diffusion part of
    wick_model, whose Q is a covariance: S_t for the semigroup. K lowers the
    degree by two, so the series stops after deg(p) // 2 terms; it is exact
    when the model and p are."""
    term = total = p
    for k in range(1, p.degree // 2 + 1):
        term = _apply(wick_model, term, "diffusion") * Fraction(sign, k)
        total = total + term
    return total


class TestWickRecursion:
    @SETTINGS
    @given(rational_models(), st.integers(0, 6))
    def test_matches_the_series_in_fractions(self, model, cap):
        """Column alpha is exp(-K) x^alpha, K = 1/2 tr(S D^2), summed as the
        finite diffusion series on the polynomial x^alpha."""
        cov = solve_lyapunov(model)
        wick_model = replace(model, Q=cov.sigma, Q_exact=cov.sigma_exact)
        W = wick_matrix(model, cap)
        assert W.is_exact
        for j, alpha in enumerate(W.basis.indices):
            x = SparsePolynomial(model.dim, {alpha: Fraction(1)})
            expected = poly_coordinates(_wick_series(wick_model, x, -1), W.basis)
            assert [row[j] for row in W.entries] == expected

    def test_float_recursion_rounds_the_exact_one(self):
        """Up to cap 12 on the rotation model, each float column is the exact
        one rounded, to 1e-12 of its norm."""
        model = section4_model()
        for cap in (4, 8, 12):
            exact_W = np.array(wick_matrix(model, cap).entries, dtype=float)
            float_W = wick_matrix(model, cap, exact=False)
            assert not float_W.is_exact
            error = np.linalg.norm(float_W.entries - exact_W, axis=0)
            assert (error <= 1e-12 * np.linalg.norm(exact_W, axis=0)).all()


def _exact_kernel(M, mu, k):
    size = len(M)
    P = [[M[i][j] - (mu if i == j else 0) for j in range(size)] for i in range(size)]
    P_int, _ = exact.common_denominator_scale(P)
    return exact.nullspace(exact.int_matrix_power(P_int, k)) if k else []


def _float_kernel(M, mu, mult):
    """Orthonormal basis of the generalized eigenspace of the full matrix and
    its index, by the kernel staircase on all of M."""
    P = M - mu * np.eye(M.shape[0])
    nullity, basis, k = 0, None, 0
    while nullity < mult:
        k += 1
        A = P if basis is None else P - basis @ (basis.conj().T @ P)
        nullity, basis = _nullspace_bounded(A, nullity + 1, mult)
    return k, basis


# the identity and the 3-4-5 and 5-12-13 rotations, as (cos, sin)
RATIONAL_ROTATIONS = [
    (Fraction(1), Fraction(0)),
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
]


class TestEigenspacesMatchFullMatrix:
    @SETTINGS
    @given(triangular_rational_models(), st.integers(1, 4), st.sampled_from(RATIONAL_ROTATIONS))
    def test_exact_route(self, model, cap, rotation):
        """Also after a rational rotation R in the (x1, x2) plane: then
        (R Q R^T, R B R^T) is dense, keeps B's rational eigenvalues and takes
        the exact route too."""
        cap = min(cap, 3) if model.dim == 3 else cap
        c, s = rotation
        R = identity(model.dim)
        R[0][:2], R[1][:2] = [c, -s], [s, c]
        Q, B = (
            mat_mul(mat_mul(R, A), exact.transpose(R)) for A in (model.Q_exact, model.B_exact)
        )
        model = validate_model(Q, B)
        dec = generalized_eigenspaces(model, cap)
        assert all(p.is_exact for g in dec.groups for p in g.polynomials)
        M = operator_matrix(dec.model, dec.degree_cap).entries
        assert sum(g.multiplicity for g in dec.groups) == len(dec.basis)
        for g in dec.groups:
            mu = Fraction(g.eigenvalue.real)
            k = g.nilpotency_index
            kernel = _exact_kernel(M, mu, k)
            assert len(kernel) == g.multiplicity
            assert len(_exact_kernel(M, mu, k - 1)) < g.multiplicity
            coords = [poly_coordinates(p, dec.basis) for p in g.polynomials]
            stacked = exact.transpose(coords + kernel)
            assert len(exact.nullspace(stacked)) == g.multiplicity  # rank equals mult

    @SETTINGS
    @given(resonant_float_models(), st.integers(1, 3))
    def test_float_route(self, model, cap):
        dec = generalized_eigenspaces(model, cap)
        M = operator_matrix(dec.model, dec.degree_cap).as_array().astype(complex)
        assert sum(g.multiplicity for g in dec.groups) == len(dec.basis)
        for g in dec.groups:
            k, basis = _float_kernel(M, g.eigenvalue, g.multiplicity)
            assert basis.shape[1] == g.multiplicity
            assert k == g.nilpotency_index
            V = np.asarray(g.vectors)
            outside = V - basis @ (basis.conj().T @ V)
            assert np.linalg.norm(outside, axis=0).max() <= 1e-8


@st.composite
def exact_jordan_models(draw):
    """(I, R J R^T) with J one of J_2, J_3 and J_2 plus a simple eigenvalue,
    all rational, and R the identity or the 3-4-5 rotation in the (x1, x2)
    plane. The simple eigenvalue may sit at twice the Jordan one, so that
    witnesses of different indices meet at one point."""
    kind = draw(st.sampled_from(("J2", "J3", "J2+1")))
    lam = draw(st.sampled_from((Fraction(-1), Fraction(-3, 2), Fraction(-2))))
    size = 2 if kind == "J2" else 3
    J = [[lam if i == j else Fraction(int(j == i + 1)) for j in range(size)] for i in range(size)]
    if kind == "J2+1":
        J[1][2] = Fraction(0)
        J[2][2] = draw(st.sampled_from((2 * lam, lam - Fraction(1, 2))))
    c, s = draw(st.sampled_from(RATIONAL_ROTATIONS[:2]))
    R = identity(size)
    R[0][:2], R[1][:2] = [c, -s], [s, c]
    return validate_model(identity(size), mat_mul(mat_mul(R, J), exact.transpose(R)))


class TestNilpotencyIndex:
    @SETTINGS
    @given(exact_jordan_models(), st.integers(1, 5))
    @example(validate_model(identity(3), [[-1, 1, 0], [0, -1, 1], [0, 0, -1]]), 4)
    def test_index_is_least_power(self, model, cap):
        """Each group's index, 1 + sum_j n_j (k_j - 1) at its worst witness,
        is the least k with dim ker (M - mu)^k equal to its multiplicity on
        the full operator matrix M. For J_3(-1) the index at -n is 2n + 1.
        3-D drifts stop at cap 4, where M is 35 x 35: the oracle's Fraction
        RREF of the 56 x 56 cap-5 matrix takes seconds an example."""
        cap = min(cap, 4) if model.dim == 3 else cap
        dec = generalized_eigenspaces(model, cap)
        M = operator_matrix(dec.model, dec.degree_cap).entries
        for g in dec.groups:
            mu, k = Fraction(g.eigenvalue.real), g.nilpotency_index
            assert len(_exact_kernel(M, mu, k)) == g.multiplicity
            assert len(_exact_kernel(M, mu, k - 1)) < g.multiplicity


@st.composite
def similar_jordan_matrices(draw):
    """(V J V^-1, lam, m): J holds Jordan blocks of sizes 1-3 at the rational
    lam, m rows in all, and up to two simple eigenvalues elsewhere; V = L U
    with L, U unit triangular and small rational, so V^-1 = U^-1 L^-1 is a
    finite Neumann series and V J V^-1 is dense and rational."""
    lam = draw(st.sampled_from((Fraction(-1), Fraction(-3, 2), Fraction(2, 3))))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: sum(s) <= 5))
    others = draw(st.lists(st.sampled_from((Fraction(-2), Fraction(1, 2))), max_size=2))
    n = sum(sizes) + len(others)
    diagonal = [lam] * sum(sizes) + others
    J = [[diagonal[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    block_ends = set(accumulate(sizes))
    for i in range(sum(sizes) - 1):
        if i + 1 not in block_ends:
            J[i][i + 1] = Fraction(1)
    N_low, N_up = (
        [[draw(small_fractions) if j < i else Fraction(0) for j in range(n)] for i in range(n)]
        for _ in range(2)
    )
    N_up = exact.transpose(N_up)
    L, U = mat_add(identity(n), N_low), mat_add(identity(n), N_up)
    L_inv, U_inv = _unit_triangular_inverse(N_low), _unit_triangular_inverse(N_up)
    V, V_inv = mat_mul(L, U), mat_mul(U_inv, L_inv)
    return mat_mul(mat_mul(V, J), V_inv), lam, sum(sizes)


def _unit_triangular_inverse(N):
    """(I + N)^-1 = sum_k (-N)^k for a nilpotent N."""
    n = len(N)
    total, term = identity(n), identity(n)
    for _ in range(n):
        term = [[-x for x in row] for row in mat_mul(term, N)]
        total = mat_add(total, term)
    return total


class TestExactBlockKernel:
    @SETTINGS
    @given(similar_jordan_matrices())
    def test_least_power_and_its_kernel(self, case):
        """The index is the least k with dim ker (A - lam)^k = m, here the
        largest Jordan block, and the kernel is exact.nullspace of that
        power itself."""
        A, lam, m = case
        P = [[x - (lam if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(A)]
        power, k = P, 1
        while len(exact.nullspace(power)) < m:
            power, k = mat_mul(power, P), k + 1
        index, kernel = _exact_block_kernel(A, lam, m)
        assert index == k
        assert kernel == exact.nullspace(power)


class TestGroupsAreSpectrumPoints:
    @SETTINGS
    @given(rotated_jordan_models(), st.integers(2, 3))
    def test_rotated_jordan_drifts(self, model_eigs, cap):
        """One group per spectrum point, with the same value, and with the
        multiplicity of its composition sums: the multisets of at most cap of
        J's eigenvalues that sum to it. A defective eigenvalue scatters under
        a dense eigen-solver, so this fails if the clusters come out wrong."""
        model, eigs = model_eigs
        sp = spectrum(model, cap)
        dec = generalized_eigenspaces(model, cap)
        assert [g.eigenvalue for g in dec.groups] == sp.point_values.tolist()
        sums = [sum(c, 0j) for n in range(cap + 1) for c in combinations_with_replacement(eigs, n)]
        for g, p in zip(dec.groups, sp.points):
            count = sum(abs(z - g.eigenvalue) < 1e-6 for z in sums)
            assert g.multiplicity == sum(sp.block_multiplicities(p)) == count
        assert sum(g.multiplicity for g in dec.groups) == math.comb(model.dim + cap, cap)


class TestRankFloor:
    def test_roundoff_values_count_as_zero(self):
        # the ratio 1e31 between the two smallest values is no rank gap
        nullity, _ = _nullspace_bounded(np.diag([1e-49, 1e-18, 0.4, 1.0]), 1, 2)
        assert nullity == 2

    def test_float_route_on_diagonal_drift(self):
        """V = I in resonant_float_models. At the resonance x1^3 ~ x2^2 the
        full matrix M + 3 has singular values about 1e-49 and 1e-18, and the
        oracle's staircase once cut between them, reading index 2. W x1^3 and
        W x2^2 are eigenfunctions, so the index is 1."""
        dec = generalized_eigenspaces(validate_model(np.eye(2), np.diag([-1.0, -1.5])), 3)
        M = operator_matrix(dec.model, dec.degree_cap).as_array().astype(complex)
        for g in dec.groups:
            k, basis = _float_kernel(M, g.eigenvalue, g.multiplicity)
            assert k == g.nilpotency_index == 1
            V = np.asarray(g.vectors)
            assert np.linalg.norm(V - basis @ (basis.conj().T @ V), axis=0).max() <= 1e-8


def _hermite_projection(model, n, operator, homogeneous):
    """Matrix of the operator on the orthonormal Hermite tensors, each entry
    <L h_j, h_i> / sqrt(<h_i, h_i> <h_j, h_j>) by Gaussian inner products,
    with h_alpha = prod_i H_(alpha_i)(x_i / sqrt(2 lambda_i))."""
    sigma = solve_lyapunov(model).sigma
    dilations = [1 / math.sqrt(2 * sigma[i, i]) for i in range(model.dim)]
    basis = monomial_basis(model.dim, n, "graded-lex", homogeneous)
    polys = [hermite_tensor(a, dilations) for a in basis.indices]
    norms = [inner_product(h, h, sigma) for h in polys]
    factor = 2 if operator == "A" else 1
    images = [apply_L(model, h) * factor for h in polys]
    return np.array(
        [
            [
                inner_product(img, h, sigma) / math.sqrt(ni * nj)
                for img, nj in zip(images, norms)
            ]
            for h, ni in zip(polys, norms)
        ]
    )


class TestHermiteMatrix:
    @SETTINGS
    @given(
        normalized_rational_models(),
        st.integers(0, 4),
        st.sampled_from(("L", "A")),
        st.booleans(),
    )
    def test_matches_projection(self, model, n, operator, homogeneous):
        n = min(n, 3) if model.dim == 3 else n
        om = operator_matrix(model, n, "hermite-normal-form", operator, homogeneous)
        oracle = _hermite_projection(model, n, operator, homogeneous)
        assert np.abs(om.as_array() - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())

    def test_rejects_drift_tag(self):
        with pytest.raises(ValueError):
            operator_matrix(section4_model(), 2, "hermite-normal-form", "drift")


class TestSemigroup:
    @SETTINGS
    @given(
        st.one_of(triangular_rational_models(), rational_models(dims=(1, 2))),
        st.integers(1, 3),
        st.floats(min_value=0.05, max_value=2.0),
    )
    @example(validate_model([[1, 0], [0, 1]], [[-1, 0], [1, -1]]), 3, 1.0)  # Jordan block
    def test_generalized_eigenvectors(self, model, cap, s):
        """e^(tL) u = e^(t mu) sum_(j < k) t^j / j! (L - mu)^j u for u in
        ker (L - mu)^k. Time is scaled so that |t mu| <= s <= 2, which keeps
        e^(t mu) above e^(-2); at long times the result would shrink to the
        roundoff of u, and a relative bound would measure only that."""
        t = s / (1 + cap * np.abs(np.linalg.eigvals(model.B)).max())
        for g in generalized_eigenspaces(model, cap).groups:
            mu = g.eigenvalue
            for u in g.polynomials:
                term = u.to_float()
                expected = term
                for j in range(1, g.nilpotency_index):
                    term = (apply_L(model, term) - term * mu) * (t / j)
                    expected = expected + term
                expected = expected * complex(np.exp(t * mu))
                scale = max(abs(complex(c)) for c in expected.terms.values())
                out = semigroup_apply(model, t, u)
                assert out.max_coeff_diff(expected) <= 1e-9 * scale

    @pytest.mark.parametrize(("b", "t", "n"), [(-1 / 200, 0.01, 8), (-1e-9, 1.0, 4), (-1.0, 3.0, 6)])
    def test_closed_form_scalar(self, b, t, n):
        """e^(tL) x^n = sum_k C(n, 2k) a^(n-2k) x^(n-2k) (2k-1)!! S_t^k with
        a = e^(bt), Q = 1. The first two drifts are slow: the stationary
        variance (100, 5e8) dwarfs S_t, and each coefficient must still be
        right to roundoff of its own size."""
        a = math.exp(b * t)
        s_t = math.expm1(2 * b * t) / (2 * b)
        out = semigroup_apply(validate_model([[1]], [[b]]), t, SparsePolynomial(1, {(n,): 1.0}))
        for k in range(n // 2 + 1):
            expected = math.comb(n, 2 * k) * a ** (n - 2 * k) * math.prod(range(1, 2 * k, 2)) * s_t**k
            assert out.terms[(n - 2 * k,)] == pytest.approx(expected, rel=1e-13)

    @SETTINGS
    @given(
        rational_models(),
        st.sampled_from((1, Fraction(1, 200), Fraction(1, 10**6))),
        st.floats(min_value=1e-3, max_value=1.0),
        st.data(),
    )
    def test_matches_moment_expansion(self, model, slowdown, s, data):
        """On random polynomials of degree <= 4, also for slow drifts (B scaled
        down, so that S is up to about 10^6) over short times (|tB| <= 1),
        where S_t is far smaller than S."""
        model = validate_model(model.Q_exact, [[b * slowdown for b in row] for row in model.B_exact])
        t = s / max(1.0, np.linalg.norm(model.B, 2))
        basis = monomial_basis(model.dim, data.draw(st.integers(0, 4)))
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
        p = SparsePolynomial(model.dim, {a: float(c) for a, c in zip(basis.indices, coeffs) if c})
        expected = _moment_semigroup(model, t, p)
        scale = max((abs(c) for c in expected.terms.values()), default=0.0)
        assert semigroup_apply(model, t, p).max_coeff_diff(expected) <= 1e-9 * scale


@st.composite
def form_matrices(draw):
    """(T, exact): an N x N matrix of small integers in an object array, or
    of complex floats, N = 1-3."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        entries = [draw(st.integers(-3, 3)) for _ in range(n * n)]
        return np.array(entries, dtype=object).reshape(n, n), True
    part = st.floats(min_value=-2, max_value=2, allow_nan=False)
    entries = [complex(draw(part), draw(part)) for _ in range(n * n)]
    return np.array(entries).reshape(n, n), False


def _form_products(T, basis):
    """The coordinates of y^gamma, y_k = sum_i T_ik x_i, for every gamma of
    the basis, by SparsePolynomial arithmetic."""
    n = T.shape[0]
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    y = [SparsePolynomial(n, {unit[i]: T[i, k] for i in range(n)}) for k in range(n)]
    one = SparsePolynomial.constant(n, 1)
    return [reduce(multiply, map(power, y, gamma), one) for gamma in basis.indices]


class TestWickPowers:
    """wick_powers(T, T^T S T) is W applied to the products y^gamma: the one
    recursion on the forms against W and the products built apart."""

    @SETTINGS
    @given(rational_models(), st.integers(0, 4), st.data())
    def test_integer_forms_in_fractions(self, model, cap, data):
        n = model.dim
        entries = data.draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
        T = np.array(entries, dtype=object).reshape(n, n)
        basis = monomial_basis(n, cap)
        images, scale = integer_wick_powers(T, model.covariance.sigma_exact, basis)
        W = wick_matrix(model, cap).entries
        for g, product_ in enumerate(_form_products(T, basis)):
            c = poly_coordinates(product_, basis)
            expected = [sum(w * x for w, x in zip(row, c)) for row in W]
            assert [Fraction(v, scale) for v in images[:, g].tolist()] == expected

    @SETTINGS
    @given(float_models(), st.integers(0, 4), st.data())
    def test_complex_forms(self, model, cap, data):
        """Against exp(-K) y^gamma summed as the diffusion series, to 1e-12
        of the same series taken with |S|, |T| and every sign +, which bounds
        every sum of terms, or to the smallest normal float."""
        n = model.dim
        part = st.floats(min_value=-2, max_value=2, allow_nan=False)
        T = np.array([complex(data.draw(part), data.draw(part)) for _ in range(n * n)]).reshape(n, n)
        S = model.covariance.sigma
        basis = monomial_basis(n, cap)
        images = wick_powers(T, T.T @ S @ T, basis)
        series, bound_series = replace(model, Q=S), replace(model, Q=np.abs(S))
        products = zip(_form_products(T, basis), _form_products(np.abs(T), basis))
        for g, (product_, bound) in enumerate(products):
            expected = poly_coordinates(_wick_series(series, product_, -1), basis)
            scale = np.array(poly_coordinates(_wick_series(bound_series, bound, 1), basis))
            error = np.abs(images[:, g] - np.array(expected, dtype=complex))
            assert (error <= 1e-12 * scale + np.finfo(float).tiny).all()


class TestSymmetricPower:
    @SETTINGS
    @given(form_matrices(), st.integers(0, 5))
    @example((np.array([[0, 0, 0], [0, 1.16553959e-81j, 2j], [0, 0, 0]]), False), 5)
    def test_blocks_are_the_products(self, T_exact, cap):
        """With the pairing P = 0 the Wick powers are the plain products:
        diagonal block d, column gamma of wick_powers(T, 0) holds the
        degree-d coordinates of prod_k y_k^gamma_k, y_k = sum_i T_ik x_i, as
        SparsePolynomial arithmetic gives them, and every other block is
        zero. Exactly for integer forms, and for complex ones to 1e-12 of the
        same product taken with |T|, which bounds every sum of terms, or to
        the smallest normal float where a product of tiny entries underflows
        (the bound then rounds to 0, a term to 5e-324)."""
        T, is_exact = T_exact
        n = T.shape[0]
        basis = monomial_basis(n, cap)
        powers = wick_powers(T, np.zeros((n, n), dtype=T.dtype), basis)
        blocks = [powers[sl, sl] for sl in basis.blocks]
        diagonal = np.zeros(powers.shape, dtype=bool)
        for sl in basis.blocks:
            diagonal[sl, sl] = True
        assert not powers[~diagonal].any()
        expected = [poly_coordinates(q, basis) for q in _form_products(T, basis)]
        if not is_exact:
            bound = [poly_coordinates(q, basis) for q in _form_products(np.abs(T), basis)]
        assert len(blocks) == cap + 1
        for sl, Y in zip(basis.blocks, blocks):
            for g, column in enumerate(range(sl.start, sl.stop)):
                if is_exact:
                    assert Y[:, g].tolist() == expected[column][sl]
                else:
                    error = np.abs(Y[:, g] - np.array(expected[column][sl], dtype=complex))
                    scale = np.array(bound[column][sl], dtype=float)
                    assert (error <= 1e-12 * scale + np.finfo(float).tiny).all()


class TestSemigroupRoute:
    def test_builds_no_product_of_polynomials(self, monkeypatch):
        """e^(tL) = Sub(e^(tB)) W_(-S_t) on a dense degree-6 polynomial in
        three variables multiplies no SparsePolynomial: both act on its
        coefficient vector."""
        model = validate_model(
            [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]],
            [[-1.0, 0.4, 0.1], [-0.3, -2.0, 0.5], [0.2, 0.0, -1.5]],
        )
        basis = monomial_basis(3, 6)
        p = SparsePolynomial(3, {a: 1.0 + k / 10 for k, a in enumerate(basis.indices)})
        calls = []
        original = SparsePolynomial.__mul__

        def counting(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(SparsePolynomial, "__mul__", counting)
        out = semigroup_apply(model, 0.5, p)
        assert calls == [] and out.degree == 6

    def test_time_past_the_float_range(self):
        """At t = 1e308, |tB| overflows and e^(tB) is 0: e^(tL) p is the
        stationary mean of p, E x^4 = 3 S^2 with S = 1/(2 b) for B = -b."""
        x = SparsePolynomial(1, {(4,): 1.0, (1,): 2.0})
        for b in (1, 2):
            out = semigroup_apply(validate_model([[1]], [[-b]]), 1e308, x)
            assert list(out.terms) == [(0,)]
            assert out.terms[(0,)] == pytest.approx(3 / (2 * b) ** 2, rel=1e-13)


def _moment_semigroup(model, t, p):
    """E p(e^(tB) x + Z_t) with Z_t ~ N(0, S_t): each monomial expanded
    binomially, with the moments of Z_t for the y-powers. e^(tB) and
    S_t = sum_(k >= 1) t^k / k! L^(k-1)(Q), L(X) = BX + XB^T, are Taylor
    series, which converge fast for |tB| <= 1 and subtract nothing from S."""
    dim = model.dim
    E, term = np.eye(dim), np.eye(dim)
    cov = X = model.Q * t
    for k in range(1, 40):
        term = term @ model.B * (t / k)
        E = E + term
        X = (model.B @ X + X @ model.B.T) * (t / (k + 1))
        cov = cov + X
    table = MomentTable(cov)
    rows = [
        SparsePolynomial(dim, {tuple(int(j == k) for k in range(dim)): E[i, j] for j in range(dim)})
        for i in range(dim)
    ]
    result = SparsePolynomial.zero(dim)
    for alpha, coeff in p.terms.items():
        for beta in product(*(range(a + 1) for a in alpha)):
            weight = coeff * float(table.moment(beta))
            piece = SparsePolynomial.constant(dim, 1.0)
            for row, a, b in zip(rows, alpha, beta):
                weight *= math.comb(a, b)
                piece = multiply(piece, power(row, a - b))
            result = result + piece * weight
    return result
