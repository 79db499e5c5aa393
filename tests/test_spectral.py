import dataclasses
import io
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import small_test_models
from reference import identity, mat_mul
from ou_spectra import cli, exact
from ou_spectra.errors import (
    ComplexSpectrum,
    ConvergenceFailure,
    RankDecisionAmbiguous,
    RepeatedEigenvalue,
)
from ou_spectra.gaussian import MomentTable, basis_moment_gram, inner_product
from ou_spectra.model import solve_lyapunov, validate_model
from ou_spectra.operator import operator_matrix, poly_coordinates, wick_powers
from ou_spectra.polynomials import GradedBasis, SparsePolynomial, monomial_basis
from ou_spectra.spectral import (
    TOL_EIG,
    SpectrumPoint,
    _drift_clusters,
    _norm,
    _nullspace_bounded,
    _rational_clusters,
    b_eigenvector_angle,
    drift_eigenvalues,
    generalized_eigenspaces,
    listed_terms,
    operator_eigenvalues,
    orthogonality_report,
    spectrum,
)
from ou_spectra.worked_examples import (
    Section5Params,
    section4_model,
    section5_eigenfunctions,
    section5_model,
)


def _sorted(vals):
    return sorted(vals, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def assert_multisets_close(xs, ys, tol):
    xs, ys = _sorted(xs), _sorted(ys)
    assert len(xs) == len(ys)
    assert max(abs(x - y) for x, y in zip(xs, ys)) <= tol


class TestDriftEigenvalues:
    def test_rotation_example(self, model4):
        assert _sorted(drift_eigenvalues(model4.B)) == [(-1 - 1j), (-1 + 1j)]

    def test_triangular_family(self):
        for a, d, c in [(2, 1, 1), (3, 1, 2), (5, 2, 3)]:
            B = section5_model(Section5Params(a, d, c)).B
            assert_multisets_close(
                drift_eigenvalues(B), [complex(-a - d), complex(-a + d)], 1e-12
            )

    def test_scalar_matrix(self):
        vals = drift_eigenvalues(-3 * np.eye(4))
        assert vals == [(-3 + 0j)] * 4

    def test_defective_triangular_read_exactly(self, jordan3):
        assert drift_eigenvalues(jordan3.B) == [(-2 + 0j)] * 3


class TestSpectrum:
    def test_rotation_cap2(self, model4):
        sp = spectrum(model4, 2)
        expected = [0, -1 + 1j, -1 - 1j, -2, -2 + 2j, -2 - 2j]
        assert_multisets_close(sp.point_values.tolist(), [complex(v) for v in expected], 1e-12)

    def test_triangular_cap2(self, model5):
        sp = spectrum(model5, 2)
        expected = [0, -1, -3, -2, -4, -6]
        assert_multisets_close(sp.point_values.tolist(), [complex(v) for v in expected], 1e-12)

    def test_cap_zero(self, model5):
        sp = spectrum(model5, 0)
        assert sp.point_values.tolist() == [0j]
        assert sp.points[0].witnesses == ((0, 0),)

    def test_witnesses_record_resonance(self, model5):
        sp = spectrum(model5, 4)
        point = next(p for p in sp.points if abs(p.value + 4) < 1e-9)
        assert set(point.witnesses) == {(4, 0), (1, 1)}
        assert set(point.degrees) == {4, 2}

    def test_single_eigenvalue_drift(self, jordan2):
        sp = spectrum(jordan2, 3)
        assert_multisets_close(sp.point_values.tolist(), [0j, -1 + 0j, -2 + 0j, -3 + 0j], 1e-12)

    def test_twelve_distinct_eigenvalues_cap3(self):
        # base-4 digits keep every sum of at most three eigenvalues distinct
        lam = [-(4**j) for j in range(12)]
        model = validate_model(np.eye(12, dtype=int).tolist(), np.diag(lam).tolist())
        sp = spectrum(model, 3)
        assert sp.distinct == tuple(complex(v) for v in lam)
        assert len(sp.points) == math.comb(15, 3) == 455
        witnesses = set()
        for p in sp.points:
            (n,) = p.witnesses
            assert len(n) == 12 and min(n) >= 0 and p.degrees == (sum(n),) and sum(n) <= 3
            assert p.value == sum(nj * lj for nj, lj in zip(n, lam))
            witnesses.add(n)
        # 455 distinct exponent vectors of degree <= 3 are all of them
        assert len(witnesses) == 455


def _spectrum_oracle(model, degree_cap, tol_eig=TOL_EIG):
    """spectrum() as one Python loop over the compositions, one tuple each:
    the (clusters, points) that the array route must give bit for bit."""
    rational = model.is_exact and _rational_clusters(model.B_exact)
    drift = sorted(rational or _drift_clusters(model.B), key=lambda c: (-c.value.real, c.value.imag))
    tol = 0 if rational else tol_eig
    exponents = monomial_basis(len(drift), degree_cap).indices
    raw = [(sum(nj * c.value for nj, c in zip(n, drift)), n) for n in exponents]
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
    return tuple(drift), tuple(points)


@st.composite
def float_drifts(draw):
    """A real drift, N 1-4, under a random orthogonal similarity: real
    eigenvalues and complex pairs a +- bi on a grid of halves, distinct real
    parts, each moved by at most 2e-10, well inside TOL_EIG. So the sums of
    some compositions fall within TOL_EIG of each other without being equal,
    across degrees and through the pairs (a + bi) + (a - bi) = 2a."""
    n = draw(st.integers(1, 4))
    reals = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n, unique=True))
    blocks, k = [], 0
    while k < n:
        a = -reals[k] / 2 + draw(st.sampled_from([0.0, 3e-11, -2e-10]))
        if n - k >= 2 and draw(st.booleans()):
            b = draw(st.integers(1, 4)) / 2
            blocks.append(np.array([[a, b], [-b, a]]))
            k += 2
        else:
            blocks.append(np.array([[a]]))
            k += 1
    q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((n, n)))
    return validate_model(np.eye(n), q @ scipy.linalg.block_diag(*blocks) @ q.T)


@st.composite
def exact_drifts(draw):
    """A rational drift, N 1-4, upper triangular with a diagonal from a few
    small values, so that many sums coincide exactly and some eigenvalues
    repeat; or with a leading rotation block [[a, b], [-b, a]], whose
    eigenvalues a +- bi are not rational and send the model down the float
    route."""
    n = draw(st.integers(1, 4))
    values = st.sampled_from([Fraction(-1), Fraction(-2), Fraction(-3), Fraction(-1, 2), Fraction(-3, 2)])
    B = [
        [draw(values) if i == j else draw(st.integers(-2, 2)) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    if n >= 2 and draw(st.booleans()):
        B[1][0] = -B[0][1] if B[0][1] else -1
        B[0][1] = -B[1][0]
        B[1][1] = B[0][0]
    return validate_model(identity(n), B)


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


class TestArraySpectrum:
    """spectrum() on arrays gives the loop's points exactly: the values bit
    for bit, the witnesses in order, the degrees and the exact values."""

    SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

    @staticmethod
    def check(model, cap):
        drift, expected = _spectrum_oracle(model, cap)
        sp = spectrum(model, cap)
        assert sp.distinct == tuple(complex(c.value) for c in drift)
        assert [(_bits(p.value), p.witnesses, p.degrees, p.exact) for p in sp.points] == [
            (_bits(p.value), p.witnesses, p.degrees, p.exact) for p in expected
        ]

    @SETTINGS
    @given(float_drifts(), st.integers(0, 6))
    def test_float_drifts(self, model, cap):
        self.check(model, cap)

    @SETTINGS
    @given(exact_drifts(), st.integers(0, 6))
    def test_exact_drifts(self, model, cap):
        self.check(model, cap)

    def test_near_resonant_sums_merge(self):
        """2 (-1 + 3e-11) and -2 lie within TOL_EIG: one point with two
        witnesses, at the mean of the two sums."""
        model = validate_model(np.eye(2), [[-1 + 3e-11, 0.0], [0.0, -2.0]])
        self.check(model, 3)
        point = next(p for p in spectrum(model, 3).points if abs(p.value + 2) < 1e-6)
        assert point.witnesses == ((0, 1), (2, 0))


class TestDriftClusters:
    """Drift eigenvalues are clustered by rank at roundoff, not by distance."""

    @staticmethod
    def rotated(values, seed):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(values),) * 2))
        n = len(values)
        return validate_model(np.eye(n), q @ np.diag(values) @ q.T)

    def test_close_pair_stays_split(self):
        # B - mu, mu the pair's mean, has the decisive gap 2e4 at nullity 2,
        # but its two small singular values (5e-5) are not roundoff
        values = [-1.0, -1.0001, -2.0]
        sp = spectrum(self.rotated(values, 3), 1)
        assert len(sp.distinct) == 3 and sp.multiplicities == (1, 1, 1)
        assert_multisets_close(sp.distinct, [complex(v) for v in values], 1e-12)

    def test_twelve_close_eigenvalues_stay_split(self):
        # (B - mu)^12 is roundoff for the mean mu of these, so a rank test on
        # the 12th power would merge them into one cluster
        values = [-1 - 0.01 * k for k in range(12)]
        sp = spectrum(self.rotated(values, 12), 1)
        assert len(sp.distinct) == 12
        assert_multisets_close(sp.distinct, [complex(v) for v in values], 1e-12)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.one_of(
            float_drifts(),
            st.sampled_from([0.0, 1e-14, 1e-13, 1e-12, 1e-9, 1e-4, 1.0]).map(
                lambda gap: validate_model(np.eye(2), np.diag([-1.0, -1.0 - gap]))
            ),
        )
    )
    def test_forms_match_the_multiplicity(self, model):
        """Each cluster has one linear form per eigenvalue it holds, where
        the rank calls are decisive."""
        try:
            clusters = _drift_clusters(model.B)
        except RankDecisionAmbiguous:
            return
        for c in clusters:
            assert c.forms.shape == (model.dim, c.multiplicity)

    @pytest.mark.parametrize("gap", [1e-12, 1e-9])
    def test_gap_between_roundoff_and_rank_gap_is_ambiguous(self, gap):
        """diag(-1, -1 - gap): the pair's zero, gap / 2, is above the
        roundoff floor, so the pair splits; each single then has one
        singular value of about gap, neither roundoff nor a decisive rank
        gap, and the spectrum exits with the ambiguity code."""
        B = json.dumps([[-1.0, 0.0], [0.0, -1.0 - gap]])
        argv = ["spectrum", "--Q", "[[1, 0], [0, 1]]", "--B", B, "--degree", "1"]
        assert cli.run(argv, io.StringIO(), io.StringIO()) == cli.EXIT_AMBIGUOUS

    @pytest.mark.parametrize(
        ("second", "code"),
        [("-1000000001/1000000000", 0), (-1.000000001, cli.EXIT_AMBIGUOUS)],
        ids=["rational", "float"],
    )
    def test_close_rational_pair_is_confirmed_exactly(self, second, code):
        """diag(-1, -1 - 1e-9) is ambiguous to the float rank calls. As a
        rational model its eigenvalues are the roots of the characteristic
        polynomial, so its spectrum is exact; as a float model it exits with
        the ambiguity code."""
        B = json.dumps([[-1, 0], [0, second]])
        out = io.StringIO()
        argv = ["spectrum", "--Q", "[[1, 0], [0, 1]]", "--B", B, "--degree", "1"]
        assert cli.run(argv, out, io.StringIO()) == code
        if code == 0:
            report = json.loads(out.getvalue())
            assert report["backend"] == "exact"
            values = [p["value"]["re"] for p in report["spectrum"]]
            assert values == [0.0, -1.0, -1.000000001]

    def test_jordan_block_is_one_cluster(self):
        """A 3-D Jordan block at -1 is one exact cluster of multiplicity 3
        and index 3, whose float eigenvalues scatter by about eps^(1/3)."""
        B = [[-1, 0, 0], [1, -1, 0], [0, 1, -1]]
        sp = spectrum(validate_model(identity(3), B), 1)
        assert [(c.value, c.multiplicity, c.index) for c in sp.clusters] == [(Fraction(-1), 3, 3)]


DRIFT_VALUES = [Fraction(-1), Fraction(-2), Fraction(-3), Fraction(-1, 2), Fraction(-3, 2)]


@st.composite
def similar_triangular_drifts(draw, max_dim: int):
    """(B, diagonal): B = P T P^-1 over the rationals, N from 1 to max_dim.
    T is lower triangular with its diagonal drawn from a few values, so that
    some repeat, and entries in [-2, 2] below it, so that some repeated
    values are defective. P = L U, with L and U unit triangular with entries
    in [-1, 1], is an integer matrix with an integer inverse."""
    n = draw(st.integers(1, max_dim))
    diagonal = draw(st.lists(st.sampled_from(DRIFT_VALUES), min_size=n, max_size=n))

    def lower(diag, entries):
        return [[diag[i] if i == j else draw(entries) if j < i else 0 for j in range(n)] for i in range(n)]

    T = lower(diagonal, st.integers(-2, 2))
    P = mat_mul(lower([1] * n, st.integers(-1, 1)), exact.transpose(lower([1] * n, st.integers(-1, 1))))
    P_inv = exact.transpose([exact.solve(P, [int(i == j) for i in range(n)]) for j in range(n)])
    return mat_mul(mat_mul(P, T), P_inv), diagonal


class TestRationalRoute:
    """A rational model reaches its drift eigenvalues from the characteristic
    polynomial of s B, s the common denominator, with no float rank call."""

    SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

    @SETTINGS
    @given(similar_triangular_drifts(12))
    def test_similar_triangular_drifts_are_exact(self, drift):
        B, diagonal = drift
        sp = spectrum(validate_model(identity(len(B)), B), 1)
        expected = sorted(Counter(diagonal).items(), reverse=True)
        assert [(c.value, c.multiplicity) for c in sp.clusters] == expected
        assert all(type(x) is int for c in sp.clusters for x in c.forms.flat)

    @SETTINGS
    @given(similar_triangular_drifts(6), st.integers(0, 3))
    def test_exact_and_float_routes_agree(self, drift, cap):
        """The exact and the float spectrum of one rational model list the
        same points within TOL_EIG, where the float rank calls are decisive.
        N stops at 6: from N = 7 on, the float eigenvalues of defective
        blocks of index 3 or more under these similarities can miss TOL_EIG."""
        B, _ = drift
        Q = identity(len(B))
        exact_points = spectrum(validate_model(Q, B), cap).point_values
        try:
            float_points = spectrum(validate_model(Q, B, backend="float"), cap).point_values
        except RankDecisionAmbiguous:
            return
        assert len(float_points) == len(exact_points)
        assert np.abs(float_points - exact_points).max() <= TOL_EIG

    def test_eigenvalue_past_the_double_range_is_exact(self):
        """-12345678901234567891 is no double; it is an exact drift
        eigenvalue, and analyze writes the exact eigenfunctions."""
        big = -12345678901234567891
        assert spectrum(validate_model([[1]], [[str(big)]]), 1).rationals == (0, big)
        out = io.StringIO()
        argv = ["analyze", "--Q", "[[1]]", "--B", f'[["{big}"]]', "--degree", "2"]
        assert cli.run(argv, out, io.StringIO()) == 0
        report = json.loads(out.getvalue())
        assert report["backend"] == "exact"
        terms = [t for g in report["groups"] for p in g["basis"] for t in p["terms"]]
        assert all(isinstance(t["re"], str) for t in terms)
        assert report["groups"][-1]["basis"][0]["terms"][0]["re"] == str(Fraction(1, 2 * big))

    def test_close_rational_pair_takes_no_rank_call(self, monkeypatch):
        """-1 and -1000000001/1000000000 are exact with no call of the float
        clustering; the rotation model, whose eigenvalues are not rational,
        still makes one."""
        from ou_spectra import spectral

        calls = []

        def counted(B):
            calls.append(B)
            return _drift_clusters(B)

        monkeypatch.setattr(spectral, "_drift_clusters", counted)
        second = Fraction(-1000000001, 1000000000)
        sp = spectrum(validate_model(identity(2), [[-1, 0], [0, second]]), 1)
        assert sp.rationals == (0, -1, second)
        assert calls == []
        spectrum(section4_model(), 1)
        assert len(calls) == 1


class TestWorkBoundedByDrift:
    def test_kernels_only_on_the_drift(self, monkeypatch):
        """Every kernel is taken on an N x N staircase matrix of B^T - mu, the
        same ones at cap 2 and at cap 6. A dendrogram over N values has N
        leaves and clusters of sizes at most N, N - 1, ..., 2 above them, and
        a cluster's staircase takes at most as many steps as its size."""
        from ou_spectra import spectral

        rng = np.random.default_rng(1)
        A, E = rng.standard_normal((2, 4, 4))
        model = validate_model(np.eye(4) + A @ A.T / 4, E - (1 + np.abs(E).sum()) * np.eye(4))
        calls = []

        def counted(mat, *args, **kwargs):
            calls.append(mat.shape)
            return _nullspace_bounded(mat, *args, **kwargs)

        monkeypatch.setattr(spectral, "_nullspace_bounded", counted)
        counts = []
        for cap in (2, 6):
            calls.clear()
            dec = generalized_eigenspaces(model, cap)
            assert sum(g.multiplicity for g in dec.groups) == math.comb(4 + cap, 4)
            assert set(calls) == {(4, 4)}
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 4 + sum(range(2, 5))


class TestSpectrumConsistency:
    def test_operator_matrix_eigenvalues_match_formula(self):
        for model in small_test_models():
            for cap in (2, 3, 5):
                om = operator_matrix(model, cap)
                sp = spectrum(model, cap)
                assert_multisets_close(operator_eigenvalues(om), sp.multiset(), 1e-8)


class TestGeneralizedEigenspaces:
    @pytest.mark.parametrize(
        "model",
        [
            validate_model(np.eye(3), [[-1.0, 2.0, 0.3], [-1.5, -1.0, 0.0], [0.2, 0.1, -2.5]]),
            validate_model([[2, 1], [1, 3]], [["-1/3", 1], [0, "-2/7"]]),
        ],
        ids=["float", "exact"],
    )
    def test_one_basis_per_decomposition(self, model, monkeypatch):
        """The Wick map, the operator matrix and the groups all live on the
        decomposition's own basis: one GradedBasis is built."""
        built = []
        original = GradedBasis.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(GradedBasis, "__init__", counting)
        dec = generalized_eigenspaces(model, 4)
        assert (dec.spectrum.rationals is not None) == model.is_exact
        assert len(built) == 1

    def test_rotation_model_all_plain_eigenfunctions(self, model4):
        dec = generalized_eigenspaces(model4, 4)
        assert all(g.nilpotency_index == 1 for g in dec.groups)
        assert sum(g.multiplicity for g in dec.groups) == math.comb(2 + 4, 2)

    def test_power_residuals_within_tolerance(self):
        for model in small_test_models():
            dec = generalized_eigenspaces(model, 3)
            assert all(g.max_power_residual <= 1e-9 for g in dec.groups)

    def test_resonant_group_holds_two_degrees(self):
        params = Section5Params(2, 1, 1)  # d = a/2
        model = section5_model(params)
        dec = generalized_eigenspaces(model, 4)
        group = dec.group_at(-4)
        assert group.multiplicity >= 2
        degrees = sorted(u.degree for u in group.polynomials)
        assert 2 in degrees and 4 in degrees
        # the closed-form directions lie inside the group's span
        vs = section5_eigenfunctions(params)
        V = np.asarray(group.vectors, dtype=complex)
        for poly in (vs[1][0], vs[3][0]):
            coords = np.array(
                [complex(x) for x in poly_coordinates(poly, dec.basis)]
            )
            proj = V @ np.linalg.lstsq(V, coords, rcond=None)[0]
            assert np.linalg.norm(coords - proj) < 1e-10 * np.linalg.norm(coords)

    def test_single_eigenvalue_degrees_map_to_n_lambda(self, jordan2):
        lam = -1.0
        dec = generalized_eigenspaces(jordan2, 3)
        assert_multisets_close(
            [g.eigenvalue for g in dec.groups], [0j, -1 + 0j, -2 + 0j, -3 + 0j], 1e-10
        )
        for g in dec.groups:
            for u in g.polynomials:
                assert abs(g.eigenvalue - u.degree * lam) < 1e-10

    def test_exact_route_produces_exact_kernels(self, jordan3):
        from ou_spectra.operator import apply_L

        dec = generalized_eigenspaces(jordan3, 4)
        assert all(g.max_power_residual == 0.0 for g in dec.groups)
        group = dec.group_at(-4)
        mu = Fraction(-4)
        for u in group.polynomials:
            assert u.is_exact
            r = u
            for _ in range(group.nilpotency_index):
                r = apply_L(jordan3, r) - r * mu
            assert r.is_zero

    def test_kernel_group_is_constants(self):
        for model in small_test_models():
            dec = generalized_eigenspaces(model, 3)
            kernel = dec.group_at(0)
            assert kernel.multiplicity == 1
            u = kernel.polynomials[0]
            assert u.degree == 0

    def test_completeness_at_cap(self):
        for model in small_test_models():
            for cap in (2, 4):
                dec = generalized_eigenspaces(model, cap)
                assert sum(g.multiplicity for g in dec.groups) == math.comb(model.dim + cap, cap)

    def test_mean_zero_for_nonzero_eigenvalues(self):
        for model in small_test_models():
            dec = generalized_eigenspaces(model, 3)
            cov = solve_lyapunov(model)
            sigma = cov.sigma_exact if cov.is_exact else cov.sigma
            one = SparsePolynomial.constant(model.dim, 1.0)
            for g in dec.groups:
                if abs(g.eigenvalue) < 1e-12:
                    continue
                for u in g.polynomials:
                    val = inner_product(one, u, sigma)
                    assert abs(complex(val)) < 1e-10


class TestListedTerms:
    def test_non_finite_column_is_an_error(self):
        """A NaN coefficient is no polynomial: listed_terms, and so
        EigenGroup.polynomials, fail instead of listing the zero one."""
        with pytest.raises(ConvergenceFailure, match="non-finite"):
            listed_terms(np.array([[np.nan + 0j], [1 + 0j]]), 1)
        g = generalized_eigenspaces(section4_model(), 2).groups[-1]
        bad = g.coefficients.copy()
        bad[-1, 0] = np.inf
        with pytest.raises(ConvergenceFailure, match="non-finite"):
            dataclasses.replace(g, coefficients=bad).polynomials


class TestNorm:
    @pytest.mark.filterwarnings("error")
    def test_each_column_keeps_its_norm(self):
        """_norm(a, axis=0) scales each column by its own power of two, so a
        column 2^600 or more below the largest keeps its norm, with no
        underflow in its squares."""
        a = np.array([[2.0**600, 3.0], [2.0**600, 4.0]])
        np.testing.assert_array_equal(_norm(a, axis=0), [math.ldexp(math.sqrt(2), 600), 5.0])
        assert _norm(a) == math.hypot(*a.flat)
        # the products of the exact forms of B = [[-1, 0], [1e100, -2]] at
        # degree 2: y_2^2 = (x_2 - 1e100 x_1)^2 has coefficients near 1e200,
        # y_1^2 = x_1^2 has one coefficient 1
        model = validate_model(identity(2), [[-1, 0], ["1e100", -2]])
        T = np.hstack([c.forms for c in spectrum(model, 2).clusters]).astype(float)
        Y = wick_powers(T, np.zeros((2, 2)), monomial_basis(2, 2))
        expected = [math.hypot(*col) for col in np.abs(Y).T.tolist()]
        assert max(expected) > 2.0**600 * min(expected)
        np.testing.assert_allclose(_norm(Y, axis=0), expected, rtol=1e-15)


class TestNullspaceWindow:
    def test_ambiguous_when_no_gap_in_window(self):
        mat = np.diag([3.0, 2.0, 1.0])
        with pytest.raises(RankDecisionAmbiguous):
            _nullspace_bounded(mat, 1, 2)

    def test_clean_kernel(self):
        mat = np.diag([1.0, 0.0, 2.0])
        nullity, basis = _nullspace_bounded(mat, 0, 3)
        assert nullity == 1
        assert np.abs(np.abs(basis[:, 0]) - np.array([0, 1, 0])).max() < 1e-14


class TestOrthogonalityReport:
    def test_single_eigenvalue_models_orthogonal(self, jordan2, jordan3):
        for model, cap in ((jordan2, 5), (jordan3, 5)):
            dec = generalized_eigenspaces(model, cap)
            rep = orthogonality_report(dec)
            assert rep.all_orthogonal

    def test_rotation_model_orthogonal_cap6(self, model4):
        dec = generalized_eigenspaces(model4, 6)
        rep = orthogonality_report(dec)
        assert rep.all_orthogonal
        assert all(g.nilpotency_index == 1 for g in dec.groups)

    def test_triangular_family_not_orthogonal(self, model5):
        dec = generalized_eigenspaces(model5, 2)
        rep = orthogonality_report(dec)
        assert not rep.all_orthogonal
        pair = next(
            p
            for p in rep.pairs
            if {round(rep.eigenvalues[p.i].real), round(rep.eigenvalues[p.j].real)} == {-2, -6}
        )
        assert not pair.orthogonal
        # the non-normalized pairing on the (v1, v3) directions equals 1/8
        vs = section5_eigenfunctions(Section5Params(2, 1, 1))
        sigma = solve_lyapunov(model5).sigma_exact
        assert inner_product(vs[0][0], vs[2][0], sigma) == Fraction(1, 8)

    def test_diagonal_blocks_excluded(self, model5):
        dec = generalized_eigenspaces(model5, 2)
        rep = orthogonality_report(dec)
        assert all(p.i != p.j for p in rep.pairs)

    @pytest.mark.parametrize("model_index", range(len(small_test_models())))
    def test_verdicts_match_per_pair_slices(self, model_index):
        # reference: each pair's maximum taken from its own slice of the
        # normalized cross-Gram table of the moment matrix, pair by pair;
        # the report pairs the forms instead, so the two agree to roundoff
        dec = generalized_eigenspaces(small_test_models()[model_index], 4)
        rep = orthogonality_report(dec)
        H, norms, _ = moment_pair_gram(dec)
        normalized = np.abs(H) / np.outer(norms, norms)
        ends = np.cumsum([g.multiplicity for g in dec.groups])
        cols = [slice(end - g.multiplicity, end) for g, end in zip(dec.groups, ends)]
        expected = [
            (i, j, float(normalized[cols[i], cols[j]].max()), H[cols[i], cols[j]])
            for i in range(len(cols))
            for j in range(i + 1, len(cols))
        ]
        assert [(p.i, p.j) for p in rep.pairs] == [e[:2] for e in expected]
        for p, (i, j, worst, block) in zip(rep.pairs, expected):
            assert abs(p.max_normalized - worst) <= 1e-12
            assert (np.abs(p.block - block) <= 1e-12 * np.outer(norms[cols[i]], norms[cols[j]])).all()
            if abs(worst - rep.tol_orth) > 1e-12:
                assert p.orthogonal == (worst < rep.tol_orth)
        assert all(p.orthogonal == (p.max_normalized < rep.tol_orth) for p in rep.pairs)
        assert rep.all_orthogonal == all(p.orthogonal for p in rep.pairs)


def moment_pair_gram(dec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reference pair Gram V^T G conj(V) of the groups' unit columns V,
    with G the moment matrix of the basis; the norms on its diagonal; and
    the bound 64 eps |V|^T |G| |V| on its own roundoff, which the
    cancellation in the product can make far larger than those norms."""
    G = basis_moment_gram(dec.basis.exponents, dec.model.covariance.sigma)
    V = np.hstack([g.vectors for g in dec.groups])
    H = V.T @ G @ V.conj()
    roundoff = 64 * np.finfo(float).eps * (np.abs(V).T @ np.abs(G) @ np.abs(V))
    return H, np.sqrt(np.abs(np.diag(H).real)), roundoff


@st.composite
def dense_float_models(draw):
    """A dense float model, N 1-4, with Q = I + A A^T / N and B = E - (1 + sum
    |E_ij|) I, which is Hurwitz."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    A, E = rng.uniform(-1, 1, (2, n, n))
    return validate_model(np.eye(n) + A @ A.T / n, E - (1 + np.abs(E).sum()) * np.eye(n))


def exact_pair_gram(dec) -> np.ndarray:
    """The reference pair Gram of an exact-route decomposition in rational
    arithmetic: C^T G C, with C the groups' integer coefficient columns and
    G the exact moment matrix of the basis (brought to one denominator),
    each entry divided by both columns' Euclidean norms and rounded once to
    a float."""
    G = basis_moment_gram(dec.basis.exponents, dec.model.covariance.sigma_exact)
    den = math.lcm(*(x.denominator for x in G.flat))
    G = np.array([[x.numerator * (den // x.denominator) for x in row] for row in G.tolist()], dtype=object)
    C = np.hstack([g.coefficients for g in dec.groups])
    H = C.T @ G @ C  # den times the pairings, in integers
    sq = (C * C).sum(axis=0).tolist()
    out = np.empty(H.shape)
    for (a, b), h in np.ndenumerate(H):
        out[a, b] = math.copysign(math.sqrt(Fraction(h * h, den * den * sq[a] * sq[b])), h)
    return out


class TestPairGramMatchesMoments:
    """The pair Gram from the forms' pairing P agrees with the moment-matrix
    pairing of the groups' columns: every entry within 1e-12 of
    sqrt(H_aa H_bb), every entry between columns of different degree
    exactly +0.0, and the same verdict wherever the reference's worst is
    farther from tol_orth than 1e-12.

    On the exact route the reference is exact (exact_pair_gram). On the
    float route it is the float product V^T G conj(V), whose own roundoff
    bound 64 eps |V|^T |G| |V| is added to both margins: under a defective
    drift's similarity that bound reaches 1e-1 sqrt(H_aa H_bb), and there
    the reference, not the report, is off."""

    SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

    @staticmethod
    def check(model, cap):
        try:
            dec = generalized_eigenspaces(model, cap)
        except RankDecisionAmbiguous:
            assume(False)
        rep = orthogonality_report(dec)
        if dec.spectrum.rationals is not None:
            H, roundoff = exact_pair_gram(dec), 0.0
        else:
            H, _, roundoff = moment_pair_gram(dec)
        norms = np.sqrt(np.abs(np.diag(H).real))
        scale = np.outer(norms, norms)
        assert (np.abs(rep.gram - H) <= 1e-12 * scale + roundoff).all()
        # a column's degree is that of its highest nonzero coefficient row
        row_degree = dec.basis.exponents.sum(axis=1)
        V = np.hstack([g.vectors for g in dec.groups])
        degree = np.array([row_degree[np.flatnonzero(v)].max() for v in V.T])
        cross = rep.gram[degree[:, None] != degree[None, :]]
        assert (cross == 0).all() and not np.signbit(cross.real).any() and not np.signbit(cross.imag).any()

        def block_maxima(table):
            return np.maximum.reduceat(np.maximum.reduceat(table, rep.starts, axis=0), rep.starts, axis=1)

        worst = block_maxima(np.abs(H) / scale)
        upper = np.triu(np.ones(worst.shape, dtype=bool), 1)
        clear = upper & (np.abs(worst - rep.tol_orth) > 1e-12 + block_maxima(roundoff / scale))
        assert ((rep.worst < rep.tol_orth) == (worst < rep.tol_orth))[clear].all()

    @SETTINGS
    @given(dense_float_models(), st.integers(0, 5))
    def test_dense_float_drifts(self, model, cap):
        self.check(model, cap)

    @SETTINGS
    @given(float_drifts(), st.integers(0, 5))
    def test_complex_pairs(self, model, cap):
        self.check(model, cap)

    @SETTINGS
    @given(similar_triangular_drifts(4), st.sampled_from(["exact", "float"]), st.integers(0, 5))
    def test_defective_drifts(self, drift, backend, cap):
        """Rational similarities of triangular drifts with repeated
        eigenvalues, on both routes: many are defective."""
        self.check(validate_model(identity(len(drift[0])), drift[0], backend=backend), cap)

    @SETTINGS
    @given(exact_drifts(), st.integers(0, 5))
    def test_exact_triangular_drifts(self, model, cap):
        self.check(model, cap)

    @pytest.mark.parametrize("cap", range(6))
    def test_exact_jordan_drifts(self, cap):
        for B in (
            [[-1, 0, 0], [1, -1, 0], [0, 1, -1]],
            [[-2, 0, 0], ["1/2", -2, 0], [-1, 2, -2]],
            [["-3/2", 0], [3, "-3/2"]],
        ):
            self.check(validate_model(identity(len(B)), B), cap)

    def test_large_exact_forms(self):
        """The exact forms of B = [[-1, 0], [1e100, -2]] reach 1e100, and
        their pairing 1e200."""
        self.check(validate_model(identity(2), [[-1, 0], ["1e100", -2]]), 1)


class TestBasisMomentGram:
    @pytest.mark.parametrize("dim, cap", [(1, 5), (2, 4), (3, 3), (4, 2), (45, 1)])
    def test_equals_entrywise_moments(self, dim, cap):
        # reference: one moment per entry, in the order the entries are read;
        # a float covariance gives floats, a rational one exact Fractions
        rng = np.random.default_rng(dim * 10 + cap)
        a = rng.standard_normal((dim, dim))
        sigma = a @ a.T + dim * np.eye(dim)
        b = rng.integers(-3, 4, (dim, dim))
        rational = np.vectorize(lambda x: Fraction(int(x), 4), otypes=[object])(
            b @ b.T + 4 * np.eye(dim, dtype=int)
        )
        basis = monomial_basis(dim, cap)
        for cov, kind in ((sigma, float), (rational, Fraction)):
            table = MomentTable(cov)
            expected = np.array([
                [kind(table.moment(tuple(x + y for x, y in zip(a_i, a_j)))) for a_j in basis.indices]
                for a_i in basis.indices
            ], dtype=object if kind is Fraction else float)
            G = basis_moment_gram(basis.indices, cov)
            assert G.dtype == expected.dtype
            assert all(isinstance(x, kind) for x in G.flat)
            np.testing.assert_array_equal(G, expected)


class TestEigenvectorAngle:
    def test_symmetric_is_right_angle(self):
        assert b_eigenvector_angle(np.diag([-1.0, -2.0])) == pytest.approx(math.pi / 2)

    def test_triangular_family_angle(self, model5):
        # eigenvectors (1, c/(2d)) = (1, 1/2) and (0, 1)
        expected = math.acos((0.5) / math.sqrt(1.25))
        assert b_eigenvector_angle(model5.B) == pytest.approx(expected, abs=1e-12)
        assert abs(b_eigenvector_angle(model5.B) - math.pi / 2) > 0.1

    def test_complex_spectrum_flagged(self, model4):
        with pytest.raises(ComplexSpectrum):
            b_eigenvector_angle(model4.B)

    def test_repeated_eigenvalue_rejected(self):
        with pytest.raises(RepeatedEigenvalue):
            b_eigenvector_angle(np.diag([-1.0, -1.0]))


class TestOrthogonalityMatchesDriftGeometry:
    def test_sweep_instances(self):
        # N = 2, Q = I, distinct real drift eigenvalues: the operator's
        # eigenspaces are orthogonal precisely when the drift's are
        rng = np.random.default_rng(8)
        cases = []
        for lam1, lam2 in [(-1, -2), (-0.5, -3), (-2, -5)]:
            for theta in (0.0, 0.4, 1.1):
                c, s = math.cos(theta), math.sin(theta)
                R = np.array([[c, -s], [s, c]])
                cases.append(R @ np.diag([lam1, lam2]) @ R.T)  # symmetric
            for coupling in (0.5, 1.0, 2.0):
                cases.append(np.array([[lam1, 0.0], [coupling, lam2]]))  # triangular
        assert len(cases) >= 18
        for B in cases:
            model = validate_model(np.eye(2), B)
            dec = generalized_eigenspaces(model, 3)
            rep = orthogonality_report(dec)
            angle = b_eigenvector_angle(B)
            assert rep.all_orthogonal == (abs(angle - math.pi / 2) < 1e-8)
