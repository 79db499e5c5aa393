import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from conftest import simpson_covariance, small_test_models
from ou_spectra.errors import (
    InvalidParams,
    NotHurwitz,
    NotPositiveDefinite,
    NotSymmetric,
    ValidationError,
)
from ou_spectra.model import (
    covariance_at,
    matrix_exponential,
    normalize_model,
    schur_triangularize,
    solve_lyapunov,
    validate_model,
)
from ou_spectra.worked_examples import Section5Params, section5_model


class TestValidation:
    def test_rotation_model_is_valid(self, model4):
        assert model4.dim == 2
        assert model4.backend == "exact"
        eigs = sorted(np.linalg.eigvals(model4.B), key=lambda z: z.imag)
        assert eigs == pytest.approx([-1 - 1j, -1 + 1j])

    def test_not_hurwitz(self):
        with pytest.raises(NotHurwitz):
            validate_model([[1, 0], [0, 1]], [[1, 0], [0, 1]])

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            validate_model([[1, 2], [0, 1]], [[-1, 0], [0, -1]])

    def test_not_positive_definite_names_minor(self):
        with pytest.raises(NotPositiveDefinite, match="2x2"):
            validate_model([[1, 2], [2, 1]], [[-1, 0], [0, -1]])

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            validate_model([[1, 0]], [[-1, 0]])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            validate_model([[1]], [[-1, 0], [0, -1]])

    def test_float_entries_select_float_backend(self):
        m = validate_model(np.eye(2), np.array([[-1.0, 0.5], [0.5, -2.0]]))
        assert m.backend == "float"
        assert m.Q_exact is None

    def test_exact_backend_requires_rational_entries(self):
        with pytest.raises(ValidationError):
            validate_model(np.eye(2), np.array([[-1.5, 0.0], [0.0, -2.0]]), backend="exact")

    def test_one_dimensional_model(self, model_1d):
        assert model_1d.dim == 1
        assert solve_lyapunov(model_1d).sigma_exact == [[Fraction(1, 2)]]


class TestMatrixExponential:
    def test_rotation_closed_form(self, model4):
        for s in (0.25, 1.0, 2.5):
            expected = math.exp(-s) * np.array(
                [[math.cos(s), math.sin(s)], [-math.sin(s), math.cos(s)]]
            )
            assert np.abs(matrix_exponential(model4.B, s) - expected).max() < 1e-14

    def test_zero_time_is_identity(self):
        M = np.array([[3.0, -1.0], [2.0, 5.0]])
        assert np.array_equal(matrix_exponential(M, 0.0), np.eye(2))

    def test_triangular_family_closed_form(self):
        a, d, c = 2.0, 1.0, 1.0
        B = np.array([[-a + d, 0.0], [c, -a - d]])
        M = np.array([[d, 0.0], [c, -d]])
        for s in (0.1, 0.7, 1.9):
            expected = math.exp(-a * s) * (
                math.cosh(s * d) * np.eye(2) + math.sinh(s * d) / d * M
            )
            assert np.abs(matrix_exponential(B, s) - expected).max() < 1e-13

    def test_semigroup_property(self):
        rng = random.Random(99)
        B = np.array([[-1.0, 2.0, 0.0], [0.5, -3.0, 1.0], [0.0, -1.0, -2.0]])
        for _ in range(10):
            s, t = rng.uniform(0, 2), rng.uniform(0, 2)
            lhs = matrix_exponential(B, s + t)
            rhs = matrix_exponential(B, s) @ matrix_exponential(B, t)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_time_past_the_float_range(self):
        """s M overflows to -inf at s = 1e308, the squaring count does not;
        a non-finite s is a typed error."""
        B = np.array([[-2.0, 1.0], [0.0, -3.0]])
        assert np.array_equal(matrix_exponential(B, 1e308), np.zeros((2, 2)))
        with pytest.raises(InvalidParams):
            matrix_exponential(B, math.inf)

    def test_against_scipy(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            M = rng.normal(size=(4, 4)) * 2.0
            ours = matrix_exponential(M, 1.0)
            ref = scipy.linalg.expm(M)
            assert np.abs(ours - ref).max() < 1e-11 * max(1.0, np.abs(ref).max())


class TestLyapunov:
    def test_rotation_example(self, model4):
        cov = solve_lyapunov(model4)
        assert cov.sigma_exact == [
            [Fraction(1, 2), Fraction(0)],
            [Fraction(0), Fraction(1, 2)],
        ]

    def test_scalar_drift(self):
        m = validate_model(np.eye(3), (-np.eye(3)).astype(int).tolist())
        assert solve_lyapunov(m).sigma == pytest.approx(np.eye(3) / 2)

    def test_triangular_family_211(self, model5):
        cov = solve_lyapunov(model5)
        assert cov.sigma_exact == [
            [Fraction(1, 2), Fraction(1, 8)],
            [Fraction(1, 8), Fraction(5, 24)],
        ]

    def test_exact_residual_is_zero(self):
        for model in small_test_models():
            if not model.is_exact:
                continue
            from ou_spectra import exact

            S = solve_lyapunov(model).sigma_exact
            resid = exact.mat_add(
                exact.mat_add(
                    exact.mat_mul(model.B_exact, S),
                    exact.mat_mul(S, exact.transpose(model.B_exact)),
                ),
                model.Q_exact,
            )
            assert exact.max_abs(resid) == 0

    def test_float_residual_small(self):
        m = validate_model(np.eye(2) * 1.0, np.array([[-1.3, 0.7], [-0.2, -2.1]]))
        S = solve_lyapunov(m).sigma
        resid = m.B @ S + S @ m.B.T + m.Q
        assert np.abs(resid).max() < 1e-12 * np.abs(m.Q).max()

    def test_float_matches_scipy_oracle(self):
        m = validate_model(np.eye(2) * 1.0, np.array([[-1.3, 0.7], [-0.2, -2.1]]))
        ref = scipy.linalg.solve_continuous_lyapunov(m.B, -m.Q)
        assert solve_lyapunov(m).sigma == pytest.approx(ref, abs=1e-12)


class TestCovarianceAt:
    def test_scalar_closed_form(self, model_1d):
        for t in (0.2, 1.0, 4.0):
            expected = (1 - math.exp(-2 * t)) / 2
            assert covariance_at(model_1d, t).sigma[0, 0] == pytest.approx(expected, abs=1e-14)

    def test_long_time_limit(self, model5):
        q_inf = solve_lyapunov(model5).sigma
        assert np.abs(covariance_at(model5, 40.0).sigma - q_inf).max() < 1e-12

    def test_rotation_t1_matches_quadrature(self, model4):
        oracle = simpson_covariance(model4, 1.0)
        assert np.abs(covariance_at(model4, 1.0).sigma - oracle).max() < 1e-9

    def test_quadrature_agreement_across_models(self):
        for model in small_test_models():
            for t in (0.1, 1.0, 5.0):
                oracle = simpson_covariance(model, t)
                assert np.abs(covariance_at(model, t).sigma - oracle).max() < 1e-8

    @pytest.mark.parametrize(("rates", "t"), [((1e-9, 2e-9), 1.0), ((1 / 200, 1 / 300), 0.01)])
    def test_slow_drift_short_time_relative(self, rates, t):
        # diagonal B: S_t[i, j] = Q[i, j] (1 - e^((b_i + b_j) t)) / -(b_i + b_j), far
        # below the stationary covariance, which is 5e8 and 100 for the first rates
        Q = np.array([[1.0, 0.5], [0.5, 2.0]])
        b = -np.array(rates)
        rate = b[:, None] + b[None, :]
        expected = Q * -np.expm1(rate * t) / -rate
        sigma = covariance_at(validate_model(Q, np.diag(b)), t).sigma
        assert np.abs(sigma / expected - 1).max() < 1e-13

    def test_monotonicity_in_time(self, model5):
        for s, t in [(0.1, 0.5), (0.5, 1.0), (1.0, 3.0)]:
            diff = covariance_at(model5, t).sigma - covariance_at(model5, s).sigma
            assert np.linalg.eigvalsh(diff).min() > -1e-12

    def test_rejects_bad_times(self, model5):
        with pytest.raises(ValueError):
            covariance_at(model5, 0.0)
        with pytest.raises(ValueError):
            covariance_at(model5, math.inf)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_bad_time_is_invalid_params(self, model5, t):
        with pytest.raises(InvalidParams):
            covariance_at(model5, t)

    def test_longest_time_is_stationary(self, model5):
        """At t = 1e308, |tB| overflows; the doubling count does not."""
        sigma = covariance_at(model5, 1e308).sigma
        assert np.abs(sigma - model5.covariance.sigma).max() < 1e-14


class TestNormalize:
    def test_already_normalized(self, model4):
        change, normalized = normalize_model(model4)
        assert np.abs(change.H - np.eye(2)).max() < 1e-12
        assert np.abs(normalized.Q - np.eye(2)).max() < 1e-12

    def test_diagonal_rescaling(self):
        m = validate_model([[4, 0], [0, 1]], [[-1, 0], [0, -1]])
        change, normalized = normalize_model(m)
        assert np.abs(np.abs(change.H) - np.diag([0.5, 1.0])).max() < 1e-12
        assert np.abs(normalized.Q - np.eye(2)).max() < 1e-12

    def test_postconditions_on_triangular_family(self):
        model = section5_model(Section5Params(2, 1, 1))
        change, normalized = normalize_model(model)
        assert np.abs(normalized.Q - np.eye(2)).max() < 1e-12
        q_inf = solve_lyapunov(normalized).sigma
        off = q_inf - np.diag(np.diag(q_inf))
        assert np.abs(off).max() < 1e-12
        assert np.abs(change.H @ change.H_inv - np.eye(2)).max() < 1e-12

    def test_drift_spectrum_preserved(self):
        for model in small_test_models():
            _, normalized = normalize_model(model)
            before = np.sort_complex(np.linalg.eigvals(model.B))
            after = np.sort_complex(np.linalg.eigvals(normalized.B))
            assert np.abs(before - after).max() < 1e-10

    def test_transformation_law(self):
        model = section5_model(Section5Params(3, 1, 2))
        change, normalized = normalize_model(model)
        H = change.H
        assert np.abs(H @ model.Q @ H.T - normalized.Q).max() < 1e-12
        assert np.abs(H @ model.B @ change.H_inv - normalized.B).max() < 1e-12


class TestSchur:
    def test_lower_triangular_passthrough(self):
        B = np.array([[-1.0, 0.0], [1.0, -3.0]])
        res = schur_triangularize(B)
        assert np.array_equal(res.change.H, np.eye(2))
        assert np.array_equal(res.lower, B)
        assert not res.complex_spectrum

    def test_symmetric_becomes_diagonal(self):
        B = np.array([[-2.0, 1.0], [1.0, -2.0]])
        res = schur_triangularize(B)
        H = res.change.H
        assert np.abs(H @ H.T - np.eye(2)).max() < 1e-12
        assert np.abs(res.lower - np.diag(np.diag(res.lower))).max() < 1e-10
        assert sorted(np.diag(res.lower)) == pytest.approx([-3.0, -1.0])

    def test_upper_input_gets_lowered(self):
        B = np.array([[-1.0, 1.0], [0.0, -2.0]])
        res = schur_triangularize(B)
        assert not res.complex_spectrum
        assert np.abs(np.triu(res.lower, 1)).max() < 1e-12
        H = res.change.H
        assert np.abs(H @ B @ H.T - res.lower).max() < 1e-12

    def test_complex_spectrum_flagged(self, model4):
        res = schur_triangularize(model4.B)
        assert res.complex_spectrum
