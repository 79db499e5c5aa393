import io
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import simpson_covariance, small_test_models
from reference import cofactor_charpoly, identity, mat_add, mat_mul, rref_nullspace
from ou_spectra import cli, exact
from ou_spectra.errors import (
    InvalidParams,
    NotHurwitz,
    NotPositiveDefinite,
    NotSymmetric,
    SingularSystem,
    ValidationError,
)
from ou_spectra.model import (
    covariance_at,
    matrix_exponential,
    normalize_model,
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
            S = solve_lyapunov(model).sigma_exact
            resid = mat_add(
                mat_add(mat_mul(model.B_exact, S), mat_mul(S, exact.transpose(model.B_exact))),
                model.Q_exact,
            )
            assert all(x == 0 for row in resid for x in row)

    def test_float_residual_small(self):
        m = validate_model(np.eye(2) * 1.0, np.array([[-1.3, 0.7], [-0.2, -2.1]]))
        S = solve_lyapunov(m).sigma
        resid = m.B @ S + S @ m.B.T + m.Q
        assert np.abs(resid).max() < 1e-12 * np.abs(m.Q).max()

    def test_float_matches_scipy_oracle(self):
        m = validate_model(np.eye(2) * 1.0, np.array([[-1.3, 0.7], [-0.2, -2.1]]))
        ref = scipy.linalg.solve_continuous_lyapunov(m.B, -m.Q)
        assert solve_lyapunov(m).sigma == pytest.approx(ref, abs=1e-12)


small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def rational_hurwitz_pairs(draw):
    """(Q, B) with Q = I + A A^T and B = -c I + E for small rational A, E,
    N from 1 to 5; c = 1 + sum |E_ij| makes B Hurwitz (Gershgorin)."""
    n = draw(st.integers(1, 5))
    A = [[draw(small_fractions) for _ in range(n)] for _ in range(n)]
    E = [[draw(small_fractions) for _ in range(n)] for _ in range(n)]
    Q = mat_add(identity(n), mat_mul(A, exact.transpose(A)))
    c = 1 + sum(abs(x) for row in E for x in row)
    return Q, [[E[i][j] - (c if i == j else 0) for j in range(n)] for i in range(n)]


class TestLyapunovAcrossBackends:
    """Both backends solve the one symmetric system on the entries S_ij,
    i <= j: in integers on the exact one, in floats on the float one."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rational_hurwitz_pairs())
    def test_float_solve_matches_exact(self, pair):
        """B = -c I + E with ||E|| < c - 1 keeps the Lyapunov operator's
        condition number below about 2 c, so the float solve is within a
        few hundred roundoffs of the exact S, and backward stable."""
        Q, B = pair
        exact_sigma = exact.to_float(validate_model(Q, B).covariance.sigma_exact)
        model = validate_model(Q, B, backend="float")
        S = model.covariance.sigma
        assert np.array_equal(S, S.T)
        assert np.abs(S - exact_sigma).max() <= 1e-11 * np.abs(exact_sigma).max()
        residual = model.B @ S + S @ model.B.T + model.Q
        scale = model.dim * np.abs(model.B).max() * np.abs(S).max() + np.abs(model.Q).max()
        assert np.abs(residual).max() <= 1e-13 * scale

    @pytest.mark.filterwarnings("error")
    def test_drift_near_the_float_range(self):
        """2 B_11 = -2e308 overflows; 2 c B_11, c a power of two, does not,
        so S_11 = 1 / 2e308 comes out, a subnormal, and not 0."""
        out, err = io.StringIO(), io.StringIO()
        argv = ["analyze", "--Q", "[[1,0],[0,1]]", "--B", "[[-1e308,0],[0,-1e307]]", "--degree", "1"]
        assert cli.run(argv, stream=out, err_stream=err) == 0, err.getvalue()
        q_inf = np.array(json.loads(out.getvalue())["q_infinity"])
        expected = np.diag([5e-309, 5e-308])
        assert q_inf[0, 1] == q_inf[1, 0] == 0.0
        assert np.abs(np.diag(q_inf) / np.diag(expected) - 1).max() <= 1e-15


def _fraction_solve(a, b):
    """a x = b by Gauss-Jordan elimination in Fractions; None when a is
    singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def _leibniz_det(a):
    return sum(
        (-1) ** sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
        * math.prod(a[i][p[i]] for i in range(len(p)))
        for p in itertools.permutations(range(len(a)))
    )


class TestExactElimination:
    def test_solve_matches_fraction_elimination(self):
        """Fraction-free elimination in integers gives the solution that
        elimination in Fractions gives, also where a zero pivot forces a
        row swap, and a singular system raises SingularSystem."""
        rng = random.Random(3)
        solved = singular = 0
        for _ in range(200):
            n = rng.randint(1, 6)
            a = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n)]
            b = [rng.randint(-9, 9) for _ in range(n)]
            expected = _fraction_solve(a, b)
            if expected is None:
                with pytest.raises(SingularSystem):
                    exact.solve(a, b)
                singular += 1
            else:
                assert exact.solve(a, b) == expected
                solved += 1
        assert solved > 30 and singular > 30

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_nullspace_is_the_scaled_rref_kernel(self, data):
        """On rank-deficient integer matrices L R, exact.nullspace is the
        reduced row echelon kernel in Fractions scaled by the least common
        denominator of its entries, in Python ints."""
        rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        rank, entries = data.draw(st.integers(0, 8)), st.integers(-4, 4)
        L = [[data.draw(entries) for _ in range(rank)] for _ in range(rows)]
        R = [[data.draw(entries) for _ in range(cols)] for _ in range(rank)]
        a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*R)] or [0] * cols for row in L]
        kernel = exact.nullspace(a)
        assert kernel == exact.common_denominator_scale(rref_nullspace(a))[0]
        assert all(type(x) is int for v in kernel for x in v)

    def test_leading_minors_up_to_the_first_zero(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(1, 4)
            a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            expected = [_leibniz_det([row[: k + 1] for row in a[: k + 1]]) for k in range(n)]
            if 0 in expected:
                expected = expected[: expected.index(0) + 1]
            assert exact.leading_minors(a) == expected


def mul_linear(shifts):
    """prod (x + c) over the shifts c, coefficients highest degree first."""
    p = [1]
    for c in shifts:
        p = [x + c * y for x, y in zip(p + [0], [0] + p)]
    return p


class TestCharacteristicPolynomial:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_charpoly_is_the_cofactor_determinant(self, data):
        """Faddeev-LeVerrier gives det(x I - a) as cofactor expansion does,
        in Python ints, on integer matrices with N <= 4."""
        n = data.draw(st.integers(1, 4))
        a = [[data.draw(st.integers(-50, 50)) for _ in range(n)] for _ in range(n)]
        chi = exact.charpoly(a)
        assert chi == cofactor_charpoly(a)
        assert all(type(c) is int for c in chi)

    @pytest.mark.parametrize(
        ("roots", "chi"),
        [
            ({-1: 3, -5: 1}, mul_linear([1, 1, 1, 5])),
            (None, [1, 2, 2]),
            ({2**64: 1, 2**64 + 1: 1}, mul_linear([-(2**64), -(2**64) - 1])),
            ({-12345678901234567891: 1}, [1, 12345678901234567891]),
            ({0: 2, 3: 1}, mul_linear([0, 0, -3])),
        ],
        ids=["(x+1)^3(x+5)", "x^2+2x+2", "(x-2^64)(x-2^64-1)", "past-2^53", "x^2(x-3)"],
    )
    def test_integer_roots(self, roots, chi):
        assert exact.integer_roots(chi) == roots

    def test_integer_roots_of_a_charpoly_with_one_irrational_pair(self):
        """(x + 2) (x^2 - 2): one integer root is not enough."""
        assert exact.integer_roots(exact.charpoly([[-2, 0, 0], [1, 0, 2], [0, 1, 0]])) is None


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
