"""Tests of the benchmark's reference computations and checks.

    python3 -m pytest perfbench/selftest.py -q

Each oracle must reproduce the paper's values, and each check built on the
oracles must pass a real CLI report and reject the same report perturbed:
a pairing off by 1e-6, a dropped eigen-group, a bare NaN.
"""

import copy
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

F = Fraction
I2 = [[F(1), F(0)], [F(0), F(1)]]


def section5(a, d, c):
    """The paper's section-5 drift and its eigenfunctions v1, v2, v3."""
    a, d, c = F(a), F(d), F(c)
    B = [[-a + d, F(0)], [c, -a - d]]
    v1 = {(2, 0): F(1), (0, 0): -1 / (2 * (a - d))}
    v2 = {(2, 0): F(1), (1, 1): -2 * d / c, (0, 0): -1 / (2 * a)}
    v3 = {
        (2, 0): F(1), (1, 1): -4 * d / c, (0, 2): 4 * d**2 / c**2,
        (0, 0): -(c**2 + 4 * d**2) / (2 * c**2 * (a + d)),
    }
    return B, [(v1, -2 * (a - d)), (v2, -2 * a), (v3, -2 * (a + d))]


def cli_report(argv) -> dict:
    from ou_spectra import cli

    out = io.StringIO()
    assert cli.run(argv, stream=out, err_stream=io.StringIO()) == 0
    return json.loads(out.getvalue())


# -- oracles reproduce the paper ---------------------------------------------------


@pytest.mark.parametrize("a,d,c", [(2, 1, 1), (3, 1, 2), ("5/2", "3/2", "-1/2")])
def test_generator_has_the_section5_eigenfunctions(a, d, c):
    B, funcs = section5(a, d, c)
    for v, mu in funcs:
        assert oracles.exact_power_residual(I2, B, v, mu, 1) == {}


def test_generator_rejects_a_perturbed_eigenfunction():
    B, [(v1, mu), *_] = section5(2, 1, 1)
    v1 = dict(v1)
    v1[(0, 0)] += F(1, 10**6)
    assert oracles.exact_power_residual(I2, B, v1, mu, 1) != {}


def test_generator_on_a_jordan_block_is_nilpotent_after_the_index():
    B = [[F(-1), F(0)], [F(1), F(-1)]]
    # x2 is a generalized eigenfunction of index 2 at -1: (L + 1) x2 = x1
    assert oracles.exact_power_residual(I2, B, {(0, 1): F(1)}, F(-1), 1) == {(1, 0): F(1)}
    assert oracles.exact_power_residual(I2, B, {(0, 1): F(1)}, F(-1), 2) == {}


@pytest.mark.parametrize("a,d,c", [(2, 1, 1), (3, 1, 2), (4, 2, -1)])
def test_pairing_v1_v3_is_one_over_2a2(a, d, c):
    B, funcs = section5(a, d, c)
    S = oracles.solve_lyapunov_exact(I2, B)
    v1, v3 = funcs[0][0], funcs[2][0]
    target = F(1) / (2 * F(a) ** 2)
    assert oracles.exact_pairing(S, v1, v3) == target
    G = oracles.quadrature_gram(np.array(S, dtype=float), oracles.graded_monomials(2, 2))
    cu = workloads.coordinates(v1, oracles.graded_monomials(2, 2))
    cv = workloads.coordinates(v3, oracles.graded_monomials(2, 2))
    assert abs(cu @ G @ cv.conj() - float(target)) < 1e-13
    assert abs(cu @ G @ cv.conj() - float(target) - 1e-6) > 1e-7


def test_quadrature_matches_pair_partitions():
    S = [[F(2), F(1, 2), F(0)], [F(1, 2), F(1), F(1, 3)], [F(0), F(1, 3), F(3, 2)]]
    monomials = oracles.graded_monomials(3, 4)
    G = oracles.quadrature_gram(np.array(S, dtype=float), monomials)
    for i, a in enumerate(monomials):
        for j, b in enumerate(monomials):
            exact = oracles.pair_partition_moment(S, [x + y for x, y in zip(a, b)])
            assert abs(G[i, j] - float(exact)) <= 1e-11 * max(1.0, abs(float(exact)))
    # Isserlis on four factors: E[x1^2 x2^2] = S11 S22 + 2 S12^2
    assert oracles.pair_partition_moment(S, (2, 2, 0)) == S[0][0] * S[1][1] + 2 * S[0][1] ** 2


def test_lyapunov_residual_is_exactly_zero_and_sees_1e6():
    B, _ = section5(2, 1, 1)
    S = oracles.solve_lyapunov_exact(I2, B)
    # closed form: S11 = 1/(2(a-d)), S12 = c S11 / (2a), S22 = (1 + 2c S12) / (2(a+d))
    assert S == [[F(1, 2), F(1, 8)], [F(1, 8), F(5, 24)]]
    assert all(x == 0 for row in oracles.lyapunov_residual(I2, B, S) for x in row)
    S[0][1] += F(1, 10**6)
    assert any(x != 0 for row in oracles.lyapunov_residual(I2, B, S) for x in row)


def test_spectrum_compositions_count_and_witnesses():
    # section5 at (2, 1, 1): drift eigenvalues -1, -3; degree 2
    points = oracles.spectrum_compositions([-3, -1], 2, 1e-9)
    assert [(v.real, w) for v, w in points] == [
        (0.0, [(0, 0)]), (-1.0, [(1, 0)]), (-2.0, [(2, 0)]),
        (-3.0, [(0, 1)]), (-4.0, [(1, 1)]), (-6.0, [(0, 2)]),
    ]
    eigs = np.linalg.eigvals(np.random.default_rng(0).standard_normal((5, 5)) - 3 * np.eye(5))
    assert len(oracles.spectrum_compositions(eigs, 4, 1e-9)) == math.comb(5 + 4, 4)


def test_eigenvalue_multiset_of_a_single_eigenvalue():
    # one drift eigenvalue -1 in 3-D: -n with multiplicity C(n+2, 2)
    groups = oracles.eigenvalue_multiset([-1, -1, -1], 3, 1e-9)
    assert [(v.real, m) for v, m in groups] == [(0.0, 1), (-1.0, 3), (-2.0, 6), (-3.0, 10)]


def test_hermite_rotation_closed_form():
    r = oracles.hermite_rotation(2.0, 3)
    s3 = 2 * math.sqrt(3)
    assert np.allclose(r, [[0, -s3, 0, 0], [s3, 0, -4, 0], [0, 4, 0, -s3], [0, 0, s3, 0]])


# -- checks pass real reports and reject perturbed ones -------------------------------


@pytest.fixture(scope="module")
def float_report():
    Q = [[1.0, 0.25], [0.25, 1.5]]
    B = [[-1.1, 0.4], [-0.3, -2.2]]
    return Q, B, cli_report(["analyze", "--Q", json.dumps(Q), "--B", json.dumps(B), "--degree", "3"])


def check_float(Q, B, report):
    import scipy.linalg

    S = scipy.linalg.solve_continuous_lyapunov(np.array(B), -np.array(Q))
    expected = oracles.eigenvalue_multiset(np.linalg.eigvals(B), 3, 1e-6)
    workloads.check_groups_match(report["groups"], expected, "test")
    workloads.check_power_residuals(report["groups"], Q, B, 2, 3, "test")
    workloads.check_pairings(report, S, 2, 3, "test")


def test_float_checks_pass_a_cli_report(float_report):
    check_float(*float_report)


def test_float_checks_reject_a_pairing_off_by_1e6(float_report):
    Q, B, report = float_report
    bad = copy.deepcopy(report)
    bad["orthogonality"]["pairs"][3]["gram_block"][0][0]["re"] += 1e-6
    with pytest.raises(CheckFailed, match="Gram block"):
        check_float(Q, B, bad)


def test_float_checks_reject_a_dropped_group(float_report):
    Q, B, report = float_report
    bad = copy.deepcopy(report)
    del bad["groups"][4]
    with pytest.raises(CheckFailed, match="do not match"):
        check_float(Q, B, bad)


def test_float_checks_reject_a_wrong_basis_polynomial(float_report):
    Q, B, report = float_report
    bad = copy.deepcopy(report)
    bad["groups"][2]["basis"][0]["terms"][0]["re"] += 1e-6
    with pytest.raises(CheckFailed):
        check_float(Q, B, bad)


def test_report_with_nan_is_rejected(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"x": NaN}')
    with pytest.raises(CheckFailed, match="NaN"):
        workloads.load_report(str(path))


def test_section5_check_rejects_a_pairing_off_by_1e6():
    wl = workloads.ExactTriangular(0)
    a, d, c = wl.section5[1]
    report = cli_report(["paper-example", "section5", f"--a={a}", f"--d={d}", f"--c={c}"])
    wl.check("section5-1", report, ".")
    bad = copy.deepcopy(report)
    bad["example"]["pairings"]["<v1,v3>"] = str(Fraction(bad["example"]["pairings"]["<v1,v3>"]) + F(1, 10**6))
    with pytest.raises(CheckFailed, match="v1, v3"):
        wl.check("section5-1", bad, ".")


def test_exact_analyze_check_rejects_a_dropped_group(monkeypatch):
    monkeypatch.setattr(workloads, "DEGREE_TRIANGULAR", 2)  # keeps the test fast
    wl = workloads.ExactTriangular(0)
    label, argv = wl.calls(".")[0]
    report = cli_report(argv)
    wl.check(label, report, ".")
    bad = copy.deepcopy(report)
    del bad["groups"][1]
    with pytest.raises(CheckFailed, match="groups"):
        wl.check(label, bad, ".")


def test_spectrum_check_rejects_a_dropped_point(monkeypatch):
    monkeypatch.setattr(workloads, "DEGREE_SPECTRUM", 3)
    wl = workloads.HermiteSpectrum(0)
    label, argv = wl.calls(".")[1]
    report = cli_report(argv)
    wl.check(label, report, ".")
    bad = copy.deepcopy(report)
    del bad["spectrum"][7]
    with pytest.raises(CheckFailed, match="spectrum"):
        wl.check(label, bad, ".")
