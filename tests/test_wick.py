"""Properties of the Wick intertwining L W = W D and of the eigenspaces
built on it.

The oracle for the eigenspaces is the full operator matrix M: each group's
span must equal ker (M - mu)^k, computed here from M directly (exact RREF of
the matrix power for rational models, a kernel staircase of SVDs on all of M
for float ones), with k the reported nilpotency index and k - 1 too small.
"""

from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ou_spectra import exact
from ou_spectra.model import validate_model
from ou_spectra.operator import operator_matrix, poly_coordinates, wick_matrix
from ou_spectra.spectral import _nullspace_bounded, generalized_eigenspaces

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
    Q = exact.mat_add(exact.identity(n), exact.mat_mul(A, exact.transpose(A)))
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


class TestIntertwining:
    @SETTINGS
    @given(rational_models(), st.integers(0, 4))
    def test_exact_in_fractions(self, model, cap):
        cap = min(cap, 3) if model.dim == 3 else cap
        M = operator_matrix(model, cap, "monomial", "L").entries
        D = operator_matrix(model, cap, "monomial", "drift").entries
        W = wick_matrix(model, cap)
        assert W.is_exact
        assert exact.mat_mul(M, W.entries) == exact.mat_mul(W.entries, D)

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
        column = W.basis.position((2, 0))
        image = {W.basis.indices[i]: W.entries[i][column] for i in range(len(W.basis))}
        assert {a: c for a, c in image.items() if c} == {(2, 0): 1, (0, 0): Fraction(-1, 2)}


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
        nullity, basis = _nullspace_bounded(A, nullity + 1, mult, 1e-10)
    return k, basis


class TestEigenspacesMatchFullMatrix:
    @SETTINGS
    @given(triangular_rational_models(), st.integers(1, 4))
    def test_exact_route(self, model, cap):
        cap = min(cap, 3) if model.dim == 3 else cap
        dec = generalized_eigenspaces(model, cap)
        M = dec.matrix.entries
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
        M = dec.matrix.as_array().astype(complex)
        assert sum(g.multiplicity for g in dec.groups) == len(dec.basis)
        for g in dec.groups:
            k, basis = _float_kernel(M, g.eigenvalue, g.multiplicity)
            assert basis.shape[1] == g.multiplicity
            assert k == g.nilpotency_index
            V = np.asarray(g.vectors)
            outside = V - basis @ (basis.conj().T @ V)
            assert np.linalg.norm(outside, axis=0).max() <= 1e-8
