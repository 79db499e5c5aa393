from fractions import Fraction

import numpy as np
import pytest

from ou_spectra.errors import InvalidParams
from ou_spectra.gaussian import gram_matrix, inner_product
from ou_spectra.model import solve_lyapunov
from ou_spectra.operator import apply_L
from ou_spectra.polynomials import SparsePolynomial
from ou_spectra.worked_examples import (
    Section5Params,
    section4_model,
    section5_eigenfunctions,
    section5_model,
    section5_whitening,
)

SWEEP = [
    (2, 1, 1),
    (3, 1, 2),
    (5, 2, 3),
    (3, 2, 1),
    (4, 1, 1),
    (5, 1, 2),
    (7, 3, 2),
    (9, 4, 5),
    (4, 2, -3),
    (Fraction(5, 2), Fraction(1, 2), Fraction(3, 2)),
    (Fraction(7, 2), Fraction(3, 2), -2),
    (6, 1, Fraction(1, 3)),
]


class TestConstructors:
    def test_rotation_model(self):
        m = section4_model()
        assert np.array_equal(m.Q, np.eye(2))
        assert np.array_equal(m.B, np.array([[-1.0, 1.0], [-1.0, -1.0]]))
        assert m.is_exact
        cov = solve_lyapunov(m)
        assert cov.sigma_exact == [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
        # invariant density is proportional to exp(-x1^2 - x2^2)
        inv = np.linalg.inv(cov.sigma)
        assert np.allclose(inv / 2.0, np.eye(2))

    def test_triangular_model_211(self):
        m = section5_model(Section5Params(2, 1, 1))
        assert np.array_equal(m.B, np.array([[-1.0, 0.0], [1.0, -3.0]]))

    def test_drift_eigenvalues_are_minus_a_plus_minus_d(self):
        for a, d, c in SWEEP:
            m = section5_model(Section5Params(a, d, c))
            eigs = sorted(np.linalg.eigvals(m.B).real)
            assert eigs == pytest.approx([float(-a - d), float(-a + d)])

    def test_invalid_params(self):
        with pytest.raises(InvalidParams, match="a > d"):
            Section5Params(1, 2, 1)
        with pytest.raises(InvalidParams, match="d > 0"):
            Section5Params(1, 0, 1)
        with pytest.raises(InvalidParams, match="c != 0"):
            Section5Params(2, 1, 0)


class TestEigenfunctions:
    def test_exact_eigen_relations_across_sweep(self):
        for a, d, c in SWEEP:
            params = Section5Params(a, d, c)
            model = section5_model(params)
            funcs = section5_eigenfunctions(params)
            mus = [mu for _, mu in funcs]
            assert mus[:3] == [-2 * (params.a - params.d), -2 * params.a, -2 * (params.a + params.d)]
            for v, mu in funcs:
                assert apply_L(model, v) == v * mu

    def test_constant_term_of_v3_at_211(self):
        v3 = section5_eigenfunctions(Section5Params(2, 1, 1))[2][0]
        assert v3.terms[(0, 0)] == Fraction(-5, 6)

    def test_quartic_only_in_resonant_case(self):
        assert len(section5_eigenfunctions(Section5Params(2, 1, 1))) == 4
        assert len(section5_eigenfunctions(Section5Params(3, 1, 1))) == 3

    def test_quartic_shares_eigenvalue_with_v2(self):
        params = Section5Params(4, 2, 3)
        assert params.resonant
        funcs = section5_eigenfunctions(params)
        assert funcs[3][1] == funcs[1][1] == -2 * params.a
        assert funcs[3][0].degree == 4


class TestPairings:
    def test_headline_pairing_exact_across_sweep(self):
        for a, d, c in SWEEP:
            params = Section5Params(a, d, c)
            sigma = solve_lyapunov(section5_model(params)).sigma_exact
            funcs = section5_eigenfunctions(params)
            value = inner_product(funcs[0][0], funcs[2][0], sigma)
            assert value == 1 / (2 * params.a**2)

    def test_all_quadratic_pairs_nonzero(self):
        for a, d, c in SWEEP:
            params = Section5Params(a, d, c)
            sigma = solve_lyapunov(section5_model(params)).sigma_exact
            fs = [v for v, _ in section5_eigenfunctions(params)[:3]]
            g = gram_matrix(fs, sigma)
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert g[i][j] != 0

    def test_eigenfunctions_have_zero_mean(self):
        for a, d, c in SWEEP[:6]:
            params = Section5Params(a, d, c)
            sigma = solve_lyapunov(section5_model(params)).sigma_exact
            one = SparsePolynomial.constant(2, Fraction(1))
            for v, _ in section5_eigenfunctions(params):
                assert inner_product(one, v, sigma) == 0

    def test_v2_v4_pairing_recorded_exactly(self):
        # both sit in the -2a eigenvalue group when d = a/2; the value is
        # computed, not asserted against any external target
        for a in (2, 4, Fraction(3, 1)):
            params = Section5Params(a, Fraction(a, 2), 1)
            sigma = solve_lyapunov(section5_model(params)).sigma_exact
            funcs = section5_eigenfunctions(params)
            value = inner_product(funcs[1][0], funcs[3][0], sigma)
            assert isinstance(value, Fraction)

    def test_v2_v4_pairing_against_monte_carlo(self):
        params = Section5Params(2, 1, 1)
        sigma = solve_lyapunov(section5_model(params)).sigma
        funcs = section5_eigenfunctions(params)
        exact = float(inner_product(funcs[1][0], funcs[3][0], solve_lyapunov(section5_model(params)).sigma_exact))
        rng = np.random.default_rng(17)
        draws = rng.multivariate_normal([0, 0], sigma, size=400_000)
        vals = funcs[1][0].evaluate_rows(draws) * funcs[3][0].evaluate_rows(draws)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - exact) < 4 * se


class TestWhitening:
    def test_pushforward_is_half_identity(self):
        for a, d, c in SWEEP:
            params = Section5Params(a, d, c)
            change = section5_whitening(params)
            sigma = solve_lyapunov(section5_model(params)).sigma
            pushed = change.H @ sigma @ change.H.T
            assert np.abs(pushed - np.eye(2) / 2).max() < 1e-12

    def test_structure_at_211(self):
        change = section5_whitening(Section5Params(2, 1, 1))
        assert change.H[0, 0] == pytest.approx(1.0)
        assert change.H[0, 1] == 0.0
        s = np.sqrt(3.0 / 17.0)
        assert change.H[1, :] == pytest.approx([-s, 4 * s])

    def test_invertible(self):
        change = section5_whitening(Section5Params(3, 1, 2))
        assert abs(np.linalg.det(change.H)) > 0
        assert np.abs(change.H @ change.H_inv - np.eye(2)).max() < 1e-12
