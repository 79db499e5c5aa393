import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import small_test_models
from ou_spectra.errors import (
    BasisUnavailable,
    DimensionMismatch,
    NotNormalized,
    UnsupportedDimension,
)
from ou_spectra.gaussian import inner_product
from ou_spectra.model import solve_lyapunov, validate_model
from ou_spectra.operator import (
    _monomial_matrix,
    apply_L,
    apply_diffusion,
    apply_drift,
    check_normal,
    hermite_rotation_matrix,
    homogeneous_drift_matrix,
    operator_matrix,
    poly_coordinates,
    rotation_split,
    semigroup_apply,
)
from ou_spectra.polynomials import ORDERINGS, SparsePolynomial, monomial_basis
from ou_spectra.worked_examples import section5_eigenfunctions
from reference import apply_part


def random_float_poly(rng, dim, max_degree):
    terms = {}
    for _ in range(5):
        alpha = tuple(rng.randint(0, max_degree) for _ in range(dim))
        if sum(alpha) <= max_degree:
            terms[alpha] = rng.uniform(-2, 2)
    return SparsePolynomial(dim, terms)


class TestApply:
    def test_constants_in_kernel(self, model4, model5):
        one = SparsePolynomial.constant(2, Fraction(1))
        assert apply_L(model4, one).is_zero
        assert apply_L(model5, one).is_zero

    def test_closed_form_eigenfunctions(self, params5, model5):
        for v, mu in section5_eigenfunctions(params5):
            assert apply_L(model5, v) == v * mu

    def test_linear_monomial(self, model5):
        x1 = SparsePolynomial(2, {(1, 0): 1})
        assert apply_L(model5, x1) == x1 * Fraction(-1)  # -a + d at (2,1,1)

    def test_degree_never_increases(self):
        rng = random.Random(17)
        for model in small_test_models():
            for _ in range(5):
                p = random_float_poly(rng, model.dim, 4)
                if p.is_zero:
                    continue
                assert apply_L(model, p).degree <= p.degree

    def test_drift_preserves_and_diffusion_lowers(self, model5):
        rng = random.Random(31)
        for n in (1, 2, 3, 4):
            terms = {}
            for alpha in monomial_basis(2, n, homogeneous=True).indices:
                terms[alpha] = Fraction(rng.randint(-3, 3))
            p = SparsePolynomial(2, terms)
            if p.is_zero:
                continue
            drifted = apply_drift(model5, p)
            if not drifted.is_zero:
                assert {sum(a) for a in drifted.terms} == {n}
            diffused = apply_diffusion(model5, p)
            if not diffused.is_zero:
                assert {sum(a) for a in diffused.terms} == {n - 2}

    def test_dimension_mismatch(self, model5):
        with pytest.raises(DimensionMismatch):
            apply_L(model5, SparsePolynomial(3, {(1, 0, 0): 1}))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_matches_the_nested_loops(self, data):
        """On multi-term exact polynomials, apply_L, apply_drift and
        apply_diffusion equal the nested loops of reference.apply_part, and
        on each float monomial apply_L gives the same floats: one term's
        image takes its contributions in the same order on both routes."""
        model = data.draw(rational_models())
        p = data.draw(exact_polys(model.dim))
        assert apply_drift(model, p) == apply_part(model, p, diffusion=False)
        assert apply_diffusion(model, p) == apply_part(model, p, diffusion=True)
        assert apply_L(model, p) == reference_L(model, p)
        for alpha, c in p.terms.items():
            x = SparsePolynomial(model.dim, {alpha: float(c)})
            assert apply_L(model, x) == reference_L(model, x)


class TestOperatorMatrix:
    def test_degree_zero_is_scalar_zero(self, model5):
        om = operator_matrix(model5, 0)
        assert om.size == 1
        assert om.entries == [[Fraction(0)]]

    def test_triangular_family_quadratic_eigenvalues(self, model5):
        om = operator_matrix(model5, 2)
        eigs = sorted(np.linalg.eigvals(om.as_array()).real)
        for target in (-6.0, -4.0, -2.0, 0.0):
            assert min(abs(e - target) for e in eigs) < 1e-9

    def test_block_upper_triangular_with_drift_blocks(self):
        for model in small_test_models():
            if not model.is_exact:
                continue
            om = operator_matrix(model, 3)
            arr = om.as_array()
            slices = list(enumerate(om.basis.blocks))
            # entries from lower-degree columns into higher-degree rows vanish
            for di, si in slices:
                for dj, sj in slices:
                    if di > dj:
                        assert np.abs(arr[si, sj]).max() == 0.0
            # diagonal blocks equal the homogeneous drift restriction, exactly
            for dk, sk in slices:
                block = [
                    row[sk] for row in (np.array(om.entries, dtype=object)[sk])
                ]
                drift = operator_matrix(model, dk, "monomial", "drift", homogeneous=True)
                assert [list(r) for r in block] == drift.entries

    def test_rotation_model_doubled_operator_on_hermite(self, model4):
        split = rotation_split(model4)
        for n in range(0, 9):
            om = operator_matrix(
                model4, n, "hermite-normal-form", operator="A", homogeneous=True
            )
            expected = -2.0 * n * np.eye(n + 1) + hermite_rotation_matrix(split, n).as_array()
            assert np.abs(om.as_array() - expected).max() < 1e-12

    def test_hermite_requires_normalized_model(self):
        skew = validate_model([[2, 1], [1, 3]], [[-2, 1], [0, -1]])
        with pytest.raises(BasisUnavailable):
            operator_matrix(skew, 2, "hermite-normal-form")

    def test_homogeneous_monomial_with_full_generator_rejected(self, model5):
        with pytest.raises(BasisUnavailable):
            operator_matrix(model5, 2, "monomial", operator="L", homogeneous=True)


small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def rational_models(draw):
    """Q = I + A A^T and B = E - c I for small rational A, E with N from 1 to
    3; c = 1 + sum |E_ij| makes B Hurwitz (Gershgorin). Zero entries are
    common, so some generator steps drop out."""
    n = draw(st.integers(1, 3))
    entry = st.one_of(st.just(Fraction(0)), small_fractions)
    A = [[draw(entry) for _ in range(n)] for _ in range(n)]
    E = [[draw(entry) for _ in range(n)] for _ in range(n)]
    Q = [[int(i == j) + sum(a * b for a, b in zip(A[i], A[j])) for j in range(n)] for i in range(n)]
    c = 1 + sum(abs(x) for row in E for x in row)
    return validate_model(Q, [[E[i][j] - (c if i == j else 0) for j in range(n)] for i in range(n)])


def exact_polys(dim):
    """Up to eight terms, each exponent 0-3, with rational coefficients."""
    alpha = st.lists(st.integers(0, 3), min_size=dim, max_size=dim).map(tuple)
    return st.dictionaries(alpha, small_fractions, max_size=8).map(lambda t: SparsePolynomial(dim, t))


def reference_L(model, p):
    return apply_part(model, p, diffusion=True) + apply_part(model, p, diffusion=False)


APPLY = {
    "L": reference_L,
    "A": lambda model, p: reference_L(model, p) * 2,
    "drift": lambda model, p: apply_part(model, p, diffusion=False),
    "diffusion": lambda model, p: apply_part(model, p, diffusion=True),
}


class TestMonomialMatrixColumns:
    @pytest.mark.parametrize("operator", sorted(APPLY))
    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_column_is_the_image(self, operator, ordering, homogeneous):
        """Column alpha holds the coordinates of the operator applied to
        x^alpha by the nested loops of reference.apply_part, exactly:
        Fractions for the exact models, and the same floats for a float one.
        Where an image leaves the homogeneous space, both raise. The
        v-orderings are reached through the basis that _monomial_matrix takes."""
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3))
        models = small_test_models() + [
            validate_model(np.eye(3) + A @ A.T, rng.standard_normal((3, 3)) - 4 * np.eye(3))
        ]
        for model in models:
            one = Fraction(1) if model.is_exact else 1.0
            for n in range(5):
                basis = monomial_basis(model.dim, n, ordering, homogeneous)
                try:
                    expected = [
                        poly_coordinates(
                            APPLY[operator](model, SparsePolynomial(model.dim, {a: one})), basis
                        )
                        for a in basis.indices
                    ]
                except BasisUnavailable:
                    with pytest.raises(BasisUnavailable):
                        _monomial_matrix(model, basis, operator, model.is_exact)
                    continue
                om = _monomial_matrix(model, basis, operator, model.is_exact)
                assert om.basis == basis and om.is_exact == model.is_exact
                entries = om.entries if om.is_exact else om.entries.tolist()
                assert [list(col) for col in zip(*entries)] == expected


class TestHomogeneousDrift:
    def test_scalar_drift_gives_euler_identity(self):
        lam = Fraction(-3, 2)
        model = validate_model([[1, 0], [0, 1]], [[lam, 0], [0, lam]])
        for n in (0, 1, 2, 3):
            om = homogeneous_drift_matrix(model, n)
            size = om.size
            for i in range(size):
                for j in range(size):
                    assert om.entries[i][j] == (lam * n if i == j else 0)

    def test_subdiagonal_jordan_strictly_upper(self):
        lam = Fraction(-1)
        model = validate_model([[1, 0], [0, 1]], [[lam, 0], [1, lam]])
        om = homogeneous_drift_matrix(model, 2)
        assert om.basis.ordering == "v-nondecreasing"
        for i in range(om.size):
            assert om.entries[i][i] == lam * 2
            for j in range(i):
                assert om.entries[i][j] == 0

    def test_superdiagonal_jordan_strictly_upper(self, jordan2):
        om = homogeneous_drift_matrix(jordan2, 3)
        assert om.basis.ordering == "v-nonincreasing"
        for i in range(om.size):
            assert om.entries[i][i] == -3
            for j in range(i):
                assert om.entries[i][j] == 0

    def test_nilpotent_part_action(self):
        # with B = lambda I + R, R x^alpha = sum alpha_i x^(alpha shifted down)
        model = validate_model([[1, 0], [0, 1]], [[-1, 0], [1, -1]])
        x2sq = SparsePolynomial(2, {(0, 2): Fraction(1)})
        image = apply_drift(model, x2sq) - x2sq * (Fraction(-1) * 2)
        assert image == SparsePolynomial(2, {(1, 1): Fraction(2)})

    def test_nilpotent_part_matrix(self):
        # the drift matrix minus n lambda I is R's: strictly upper triangular, nonzero
        model = validate_model([[1, 0], [0, 1]], [[-1, 0], [1, -1]])
        om = homogeneous_drift_matrix(model, 2)
        arr = om.as_array() - (-1) * 2 * np.eye(om.size)
        assert np.abs(np.tril(arr)).max() == 0.0
        assert np.abs(arr).max() > 0


class TestRotationSplit:
    def test_rotation_example(self, model4):
        split = rotation_split(model4)
        assert np.array_equal(split.D_lambda, np.eye(2) / 2)
        assert np.array_equal(split.C, np.array([[0.0, 2.0], [-2.0, 0.0]]))

    def test_selfadjoint_case_has_no_rotation(self):
        model = validate_model([[1, 0], [0, 1]], [[-1, 0], [0, -1]])
        split = rotation_split(model)
        assert np.abs(split.C).max() == 0.0
        assert np.array_equal(split.D_lambda, np.eye(2) / 2)

    def test_distinct_variances_without_mixing(self):
        model = validate_model([[1, 0], [0, 1]], [[-1, 0], [0, -2]])
        split = rotation_split(model)
        assert np.abs(split.C).max() == 0.0
        assert np.abs(split.D_lambda - np.diag([0.5, 0.25])).max() < 1e-15

    def test_not_normalized_rejected(self, model5):
        with pytest.raises(NotNormalized):
            rotation_split(model5)

    def test_non_diagonal_stationary_covariance_rejected(self):
        model = validate_model([[1, 0], [0, 1]], [[-1, 1], [0, -2]])
        with pytest.raises(NotNormalized):
            rotation_split(model)

    def test_mixing_distinct_variances_rejected(self):
        # Q = I with stationary covariance diag(1/2, 1/4), but the drift mixes
        # the two coordinates, so C = 2B + D^-1 cannot be skew
        model = validate_model([[1, 0], [0, 1]], [[-1, -2], [1, -2]])
        cov = solve_lyapunov(model).sigma_exact
        assert cov == [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 4)]]
        with pytest.raises(NotNormalized, match="skew"):
            rotation_split(model)


class TestHermiteRotation:
    def test_degree_one(self, model4):
        split = rotation_split(model4)
        assert np.array_equal(
            hermite_rotation_matrix(split, 1).as_array(), np.array([[0.0, -2.0], [2.0, 0.0]])
        )

    def test_degree_two(self, model4):
        split = rotation_split(model4)
        r = 2 * math.sqrt(2)
        expected = np.array([[0, -r, 0], [r, 0, -r], [0, r, 0]])
        assert np.abs(hermite_rotation_matrix(split, 2).as_array() - expected).max() < 1e-14

    def test_skew_symmetry(self, model4):
        split = rotation_split(model4)
        for n in range(0, 9):
            m = hermite_rotation_matrix(split, n).as_array()
            assert np.abs(m + m.T).max() == 0.0

    def test_entry_formula(self, model4):
        split = rotation_split(model4)
        n = 6
        m = hermite_rotation_matrix(split, n).as_array()
        for kappa in range(n):
            assert m[kappa + 1, kappa] == pytest.approx(
                2 * math.sqrt(kappa + 1) * math.sqrt(n - kappa)
            )

    def test_dimension_guard(self):
        model = validate_model(np.eye(3), (-np.eye(3)).astype(int).tolist())
        split = rotation_split(model)
        with pytest.raises(UnsupportedDimension):
            hermite_rotation_matrix(split, 2)


class TestSemigroup:
    def test_conservative(self, model5):
        one = SparsePolynomial.constant(2, 1.0)
        out = semigroup_apply(model5, 0.7, one)
        assert out.max_coeff_diff(one) < 1e-14

    def test_scalar_linear_decay(self, model_1d):
        x = SparsePolynomial(1, {(1,): 1})
        for t in (0.3, 1.0):
            out = semigroup_apply(model_1d, t, x)
            assert out.max_coeff_diff(x * math.exp(-t)) < 1e-14

    def test_eigenfunction_decay(self, params5, model5):
        for v, mu in section5_eigenfunctions(params5)[:3]:
            out = semigroup_apply(model5, 1.0, v)
            expected = v.to_float() * math.exp(float(mu))
            assert out.max_coeff_diff(expected) < 1e-10

    def test_composition(self, model4):
        rng = random.Random(5)
        for _ in range(5):
            s, t = rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)
            p = random_float_poly(rng, 2, 4)
            lhs = semigroup_apply(model4, s, semigroup_apply(model4, t, p))
            rhs = semigroup_apply(model4, s + t, p)
            assert lhs.max_coeff_diff(rhs) < 1e-9

    def test_generator_consistency_first_order(self, model5):
        p = SparsePolynomial(2, {(2, 0): 1.0, (1, 1): -0.5, (0, 0): 0.25})
        Lp = apply_L(model5, p.to_float())
        errors = []
        for h in (1e-3, 1e-4, 1e-5):
            diff = (semigroup_apply(model5, h, p) - p) * (1.0 / h)
            errors.append(diff.max_coeff_diff(Lp))
        assert errors[0] / errors[1] == pytest.approx(10.0, rel=1.0)
        assert errors[1] / errors[2] == pytest.approx(10.0, rel=1.0)

    def test_mean_invariance(self, model5):
        rng = random.Random(13)
        sigma = solve_lyapunov(model5).sigma
        one = SparsePolynomial.constant(2, 1.0)
        for _ in range(5):
            p = random_float_poly(rng, 2, 4)
            before = inner_product(one, p, sigma)
            after = inner_product(one, semigroup_apply(model5, 0.8, p), sigma)
            assert abs(after - before) < 1e-10

    def test_degree_never_increases(self, model4):
        p = SparsePolynomial(2, {(3, 1): 1.0, (0, 2): -2.0})
        assert semigroup_apply(model4, 0.5, p).degree <= 4


class TestCheckNormal:
    def test_rotation_spaces_are_normal(self, model4):
        split = rotation_split(model4)
        for n in range(0, 9):
            m = -2.0 * n * np.eye(n + 1) + hermite_rotation_matrix(split, n).as_array()
            result = check_normal(m)
            assert result.normal and result.defect < 1e-12

    def test_hermitian_is_normal(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        assert check_normal(h).normal

    def test_jordan_block_defect_one(self):
        result = check_normal(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not result.normal
        assert result.defect == pytest.approx(1.0)
