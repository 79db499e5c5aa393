import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import isserlis_bruteforce, small_test_models
from ou_spectra.errors import DimensionMismatch
from ou_spectra.gaussian import (
    MomentTable,
    basis_moment_gram,
    finish_gram,
    gram_matrix,
    inner_product,
)
from ou_spectra.model import solve_lyapunov
from ou_spectra.polynomials import SparsePolynomial, monomial_basis
from ou_spectra.worked_examples import section5_eigenfunctions

HALF_I2 = [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]

small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def rational_families(draw):
    """(polynomials, S): one to four rational polynomials of degree <= 3 in
    N = 1..3 variables, some of them zero, and S = I + A A^T rational."""
    n = draw(st.integers(1, 3))
    A = [[draw(small_fractions) for _ in range(n)] for _ in range(n)]
    S = [
        [(i == j) + sum(A[i][k] * A[j][k] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    exponent = st.tuples(*[st.integers(0, 3)] * n).filter(lambda a: sum(a) <= 3)
    polys = st.dictionaries(exponent, small_fractions, max_size=5)
    fs = [SparsePolynomial(n, terms) for terms in draw(st.lists(polys, min_size=1, max_size=4))]
    return fs, S


class TestMoments:
    def test_odd_moments_vanish(self):
        rng = random.Random(11)
        sigma = [[Fraction(2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1)]]
        for _ in range(20):
            alpha = (rng.randint(0, 5), rng.randint(0, 5))
            if sum(alpha) % 2 == 1:
                assert MomentTable(sigma).moment(alpha) == 0

    def test_half_identity_values(self):
        # 1-D: E[x^2] = 1/2, E[x^4] = 3 sigma^4 = 3/4; independence gives E[x^2 y^2] = 1/4
        table = MomentTable(HALF_I2)
        assert table.moment((2, 0)) == Fraction(1, 2)
        assert table.moment((4, 0)) == Fraction(3, 4)
        assert table.moment((2, 2)) == Fraction(1, 4)

    def test_against_1d_quadrature(self):
        var = 0.5
        for k in (2, 4, 6):
            oracle, _ = integrate.quad(
                lambda x: x**k * np.exp(-(x**2) / (2 * var)) / np.sqrt(2 * np.pi * var),
                -12,
                12,
            )
            value = MomentTable(np.array([[var]])).moment((k,))
            assert value == pytest.approx(oracle, abs=1e-10)

    def test_section5_cross_moment(self, model5):
        sigma = solve_lyapunov(model5).sigma_exact
        assert MomentTable(sigma).moment((1, 1)) == Fraction(1, 8)

    def test_total_mass_one(self):
        for model in small_test_models():
            cov = solve_lyapunov(model)
            sigma = cov.sigma_exact if cov.is_exact else cov.sigma
            assert MomentTable(sigma).moment((0,) * model.dim) == 1

    def test_recursion_matches_pair_partition_enumeration(self):
        rng = random.Random(5)
        for _ in range(12):
            a, b, c = (Fraction(rng.randint(1, 4)) for _ in range(3))
            d = Fraction(rng.randint(-2, 2))
            sigma = [[a + b, d], [d, b + c]]  # diagonally dominant, PD
            for _ in range(6):
                alpha = (rng.randint(0, 4), rng.randint(0, 4))
                if sum(alpha) > 8 or sum(alpha) % 2:
                    continue
                assert MomentTable(sigma).moment(alpha) == isserlis_bruteforce(sigma, alpha)

    def test_recursion_identity_exact(self):
        # E[x_i x^alpha] = sum_j Sigma_ij alpha_j E[x^(alpha - e_j)]
        sigma = [[Fraction(3, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(5, 4)]]
        table = MomentTable(sigma)
        rng = random.Random(1)
        for _ in range(25):
            alpha = (rng.randint(0, 8), rng.randint(0, 8))
            for i in range(2):
                lhs = table.moment((alpha[0] + (i == 0), alpha[1] + (i == 1)))
                rhs = Fraction(0)
                for j in range(2):
                    if alpha[j] > 0:
                        shifted = list(alpha)
                        shifted[j] -= 1
                        rhs += sigma[i][j] * alpha[j] * table.moment(tuple(shifted))
                assert lhs == rhs

    def test_object_array_of_rationals_stays_exact(self):
        sigma = np.array([[Fraction(1, 3)]], dtype=object)
        value = MomentTable(sigma).moment((2,))
        assert value == Fraction(1, 3) and isinstance(value, Fraction)
        assert MomentTable(sigma).is_exact

    def test_monte_carlo_oracle_section5(self, model5):
        sigma = solve_lyapunov(model5).sigma
        rng = np.random.default_rng(20230901)
        draws = rng.multivariate_normal([0, 0], sigma, size=1_000_000)
        for alpha in [(2, 0), (1, 1), (0, 2), (4, 0), (2, 2), (1, 3), (0, 4)]:
            samples = draws[:, 0] ** alpha[0] * draws[:, 1] ** alpha[1]
            mean, se = samples.mean(), samples.std(ddof=1) / np.sqrt(len(samples))
            exact = float(MomentTable(sigma).moment(alpha))
            assert abs(mean - exact) < 4 * se


class TestInnerProducts:
    def test_constant_pairing(self):
        sigma = [[Fraction(2), 0], [0, Fraction(3)]]
        one = SparsePolynomial.constant(2, Fraction(1))
        assert inner_product(one, one, sigma) == 1

    def test_headline_pairing(self, params5, model5):
        sigma = solve_lyapunov(model5).sigma_exact
        vs = section5_eigenfunctions(params5)
        assert inner_product(vs[0][0], vs[2][0], sigma) == Fraction(1, 8)

    def test_mean_zero_eigenfunctions(self, params5, model5):
        sigma = solve_lyapunov(model5).sigma_exact
        one = SparsePolynomial.constant(2, Fraction(1))
        for v, _ in section5_eigenfunctions(params5):
            assert inner_product(one, v, sigma) == 0

    def test_sesquilinearity_conjugates_second_argument(self):
        sigma = np.array([[1.0]])
        p = SparsePolynomial(1, {(1,): 1.0 + 0j})
        q = SparsePolynomial(1, {(1,): 0.0 + 1.0j})
        val = inner_product(p, q, sigma)
        assert val == pytest.approx(-1j)  # <x, i x> = conj(i) E[x^2]

    def test_positive_definite_pairing(self):
        rng = random.Random(23)
        sigma = [[Fraction(1), Fraction(1, 4)], [Fraction(1, 4), Fraction(1)]]
        for _ in range(20):
            terms = {}
            for _ in range(4):
                alpha = (rng.randint(0, 2), rng.randint(0, 2))
                terms[alpha] = Fraction(rng.randint(-5, 5))
            p = SparsePolynomial(2, terms)
            if p.is_zero:
                continue
            assert inner_product(p, p, sigma) > 0

    def test_dimension_mismatch(self):
        p = SparsePolynomial(1, {(1,): 1})
        with pytest.raises(DimensionMismatch):
            inner_product(p, p, np.eye(2))


class TestGram:
    def test_single_constant(self):
        g = gram_matrix([SparsePolynomial.constant(1, Fraction(1))], [[Fraction(1)]])
        assert g.shape == (1, 1) and g[0][0] == 1

    def test_section5_family_not_orthogonal(self, params5, model5):
        sigma = solve_lyapunov(model5).sigma_exact
        fs = [v for v, _ in section5_eigenfunctions(params5)[:3]]
        g = gram_matrix(fs, sigma)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert g[i][j] != 0

    def test_normalized_complex_family(self):
        sigma = np.eye(2)
        fs = [
            SparsePolynomial(2, {(1, 0): 1.0 + 1.0j}),
            SparsePolynomial(2, {(1, 0): 2.0 - 0.5j, (0, 1): 1.0}),
        ]
        g = finish_gram(gram_matrix(fs, sigma), True)
        assert g[0][0] == g[1][1] == 1
        assert 0 < abs(g[0][1]) <= 1

    def test_hermitian(self):
        sigma = np.array([[1.0, 0.2], [0.2, 2.0]])
        fs = [
            SparsePolynomial(2, {(1, 0): 1.0 + 1.0j}),
            SparsePolynomial(2, {(0, 1): 2.0 - 0.5j, (0, 0): 0.3}),
        ]
        g = gram_matrix(fs, sigma)
        assert np.allclose(g, g.conj().T)
        assert g[0][0].imag == pytest.approx(0.0)

    def test_real_float_gram_stays_real(self):
        """A float moment matrix is real: finish_gram returns it as floats,
        normalized or not."""
        M = basis_moment_gram(monomial_basis(2, 3).indices, np.array([[1.0, 0.2], [0.2, 2.0]]))
        g = finish_gram(M, False)
        assert g.dtype == float
        np.testing.assert_array_equal(g, M)
        g = finish_gram(M, True)
        assert g.dtype == float
        np.testing.assert_allclose(g.diagonal(), 1.0, rtol=1e-15)


class TestGramMatchesPairings:
    """gram_matrix takes one moment-matrix product; inner_product pairs term
    by term and is the oracle."""

    SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

    @SETTINGS
    @given(rational_families())
    def test_exact_family(self, family):
        fs, S = family
        g = gram_matrix(fs, S)
        assert g.dtype == object
        assert g.tolist() == [[inner_product(f, h, S) for h in fs] for f in fs]

    @SETTINGS
    @given(rational_families(), st.data())
    def test_complex_float_family(self, family, data):
        fs, S = family
        parts = st.floats(-2, 2)
        phases = st.builds(complex, parts, parts).filter(lambda z: abs(z) >= 0.25)
        fs = [
            SparsePolynomial(f.dim, {a: float(c) * data.draw(phases) for a, c in f.terms.items()})
            for f in fs
        ]
        sigma = np.array(S, dtype=float)
        g = gram_matrix(fs, sigma)
        oracle = np.array([[complex(inner_product(f, h, sigma)) for h in fs] for f in fs])
        assert g.dtype == complex
        scale = np.sqrt(np.outer(np.abs(oracle.diagonal()), np.abs(oracle.diagonal())))
        assert np.all(np.abs(g - oracle) <= 1e-12 * scale)
        np.testing.assert_array_equal(g, g.conj().T)

    @SETTINGS
    @given(rational_families())
    @example(
        (
            [SparsePolynomial(2, {(1, 0): 1}), SparsePolynomial(2, {(0, 1): 2, (1, 0): Fraction(1, 2)})],
            [[1, 0], [0, 1]],
        )
    )
    def test_real_float_family(self, family):
        """A real family pairs to a real Gram; one with no terms stays complex."""
        fs, S = family
        fs = [f.to_float() for f in fs]
        sigma = np.array(S, dtype=float)
        g = gram_matrix(fs, sigma)
        oracle = np.array([[inner_product(f, h, sigma) for h in fs] for f in fs], dtype=float)
        assert g.dtype == (float if any(f.terms for f in fs) else complex)
        scale = np.sqrt(np.outer(np.abs(oracle.diagonal()), np.abs(oracle.diagonal())))
        assert np.all(np.abs(g - oracle) <= 1e-12 * scale)
        np.testing.assert_array_equal(g, g.T)


class TestGaussianMeasure:
    def test_moment_shortcut(self):
        table = MomentTable([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
        assert table.moment((2, 0)) == Fraction(1, 2)
        assert table.is_exact
