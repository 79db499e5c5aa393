"""Bad command-line input ends in a one-line error and a documented exit
code, never a traceback; numerical failures inside the SVD are typed."""

import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ou_spectra import cli
from ou_spectra.errors import ConvergenceFailure
from ou_spectra.spectral import _nullspace_bounded

MODEL_1D = ["--Q", "[[1]]", "--B", "[[-1]]"]

# a drift with spectrum -1..-4 under a random similarity: 25 eigen-groups
# with multiplicities up to 18 at degree 6
RESONANT_Q = (
    "[[1.1256263188786682, 0.028631246766305622, 0.10813569642560385, -0.08959759592805361],"
    " [0.028631246766305622, 1.1329829145666068, -0.07192377473891776, 0.08984463559369438],"
    " [0.10813569642560385, -0.07192377473891776, 1.2463488090844514, -0.04503914286488522],"
    " [-0.08959759592805361, 0.08984463559369438, -0.04503914286488522, 1.3413231370672711]]"
)
RESONANT_B = (
    "[[-3.3398970105906596, 0.5680087185936008, -0.14274424995895094, 0.7916705017044011],"
    " [0.6560114699930193, -2.583008000241997, -0.3916923771098272, 0.0808878689373872],"
    " [-0.2773622931585019, -0.3446346908076018, -1.2878470971385065, 0.5640958209067051],"
    " [0.5432344658799004, 0.04504274515056864, 0.6850659478403766, -2.789247892028837]]"
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stream=out, err_stream=err)
    return code, out.getvalue(), err.getvalue()


def assert_validation_error(argv):
    code, out, err = run_cli(argv)
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert err.startswith("validation error: ") and err.count("\n") == 1


class TestBadInput:
    def test_nan_diffusion(self):
        assert_validation_error(["analyze", "--Q", "[[NaN]]", "--B", "[[-1]]"])

    def test_infinite_drift(self):
        assert_validation_error(["analyze", "--Q", "[[1]]", "--B", "[[-Infinity]]"])

    def test_zero_step(self):
        assert_validation_error(["simulate", *MODEL_1D, "--step", "0"])

    def test_negative_paths(self):
        assert_validation_error(["simulate", *MODEL_1D, "--paths", "-5"])

    def test_single_path(self):
        assert_validation_error(["simulate", *MODEL_1D, "--paths", "1"])

    def test_drift_too_slow_for_burn_in(self):
        # e^(m h alpha) bounds ||e^(m h B)|| from below, so no step count under
        # the search cap reaches the decay target; rejected before the search
        assert_validation_error(["simulate", "--Q", "[[1]]", "--B", "[[-1e-9]]", "--paths", "10"])

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    def test_thirteen_dimensional_model(self, command):
        eye = np.eye(13, dtype=int)
        Q, B = json.dumps(eye.tolist()), json.dumps((-eye).tolist())
        code, out, err = run_cli([command, "--Q", Q, "--B", B, "--degree", "1"])
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestLongSteps:
    """A step, or a whole burn-in, at the edge of the float range: a time
    that overflows is rejected, and a finite one is one exact transition,
    whose counts of halvings are read off its binary exponent."""

    @pytest.mark.parametrize(
        "flags",
        [["--step", "inf"], ["--step", "1e300", "--burn-in", "1000000000"]],
        ids=["infinite-step", "overflowing-burn-in"],
    )
    def test_non_finite_time_is_rejected(self, flags):
        assert_validation_error(["simulate", *MODEL_1D, "--paths", "10", *flags])

    @pytest.mark.parametrize("step", ["1e308", "1e200"])
    def test_long_step_draws_the_stationary_law(self, step):
        """e^(hB) is 0 at such a step, so one step reaches N(0, 1/2)."""
        code, out, err = run_cli(["simulate", *MODEL_1D, "--paths", "4000", "--step", step])
        assert code == 0, err
        simulation = json.loads(out)["simulation"]
        assert simulation["burn_in"] == 1
        assert simulation["max_relative_covariance_error"] < 0.2


class TestFloatRange:
    """A model at the edge of the float range is refused at validation, and
    a spectrum sum past it is a typed error, not an invalid JSON number."""

    BIG_B = "[[-1e308, 1e308], [0, -1e308]]"  # finite entries, but ||B||_1 overflows

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [["simulate", "--paths", "10"], ["analyze"]])
    def test_overflowing_norm_is_a_validation_error(self, command):
        argv = [command[0], "--Q", "[[1,0],[0,1]]", "--B", self.BIG_B, *command[1:]]
        code, out, err = run_cli(argv)
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert err == "validation error: the 1-norm of B is inf, beyond the float range\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "B", ["[[-1e308, 0], [0, -1e307]]", "[[-1e308, 1e308], [0, -1e307]]", "[[-1e308, 5e307], [0, -1e307]]"]
    )
    def test_spectrum_of_a_drift_whose_frobenius_squares_overflow(self, B):
        """The rank path's norms are taken on the drift scaled by a power of
        two, so distinct eigenvalues near the float range stay apart."""
        code, out, err = run_cli(["spectrum", "--Q", "[[1,0],[0,1]]", "--B", B, "--degree", "1"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["drift_eigenvalues"] == [{"re": -1e308, "im": 0.0}, {"re": -1e307, "im": 0.0}]
        assert [p["value"]["re"] for p in report["spectrum"]] == [0.0, -1e307, -1e308]

    def test_exact_entry_past_the_float_range(self):
        huge = "-1" + "0" * 400
        assert_validation_error(["spectrum", "--Q", "[[1]]", "--B", f'[["{huge}"]]'])

    @pytest.mark.filterwarnings("error")
    def test_mean_of_a_repeated_eigenvalue_near_the_float_range(self):
        """The cluster mean of -1e308 twice is summed on the values scaled by
        a power of two, so it does not overflow."""
        B = "[[-1e308, 0], [0, -1e308]]"
        code, out, err = run_cli(["spectrum", "--Q", "[[1,0],[0,1]]", "--B", B, "--degree", "1"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["drift_eigenvalues"] == [{"re": -1e308, "im": 0.0}] * 2
        assert [p["value"]["re"] for p in report["spectrum"]] == [0.0, -1e308]

    @pytest.mark.filterwarnings("error")
    def test_spectrum_sum_past_the_float_range(self):
        """The sums are refused before any later stage sees them, and the
        Lyapunov solve of analyze, on the scaled drift, does not overflow."""
        for command in ("spectrum", "analyze"):
            code, out, err = run_cli([command, "--Q", "[[1]]", "--B", "[[-1e308]]", "--degree", "2"])
            assert code == cli.EXIT_VALIDATION
            assert out == ""
            assert err == "error: a spectrum point is not finite, which JSON cannot hold\n"


    def test_exact_spectrum_sum_past_the_float_range(self):
        """-2^1023 is a float, and so the exact route's eigenvalue; twice it
        is not. The exact sums are integers and do not overflow, but the
        point cannot be written as a JSON number."""
        B = f'[["-{2**1023}"]]'
        code, out, err = run_cli(["spectrum", "--Q", "[[1]]", "--B", B, "--degree", "2"])
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert err == "error: a spectrum point is not finite, which JSON cannot hold\n"


class TestNegativeFraction:
    def test_separate_argument_parses_like_equals_form(self):
        reports = []
        for argv in (["--c", "-1/2"], ["--c=-1/2"]):
            code, out, err = run_cli(["paper-example", "section5", *argv])
            assert code == 0, err
            reports.append(json.loads(out))
        assert reports[0]["example"]["params"]["c"] == "-1/2"
        assert reports[0] == reports[1]


class TestPaperExampleBackend:
    @pytest.mark.parametrize("example", ["section4", "section5"])
    def test_backend_flag_is_a_usage_error(self, example):
        """The bundled examples fix their own backend, so --backend is not
        one of their flags: it ends in a usage error, not in a report that
        ignores it."""
        code, out, err = run_cli(["paper-example", example, "--backend", "float", "--degree", "1"])
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.startswith("usage error: ") and "--backend" in err


class TestImportCost:
    def test_cli_import_does_not_load_scipy(self):
        code = "import sys, ou_spectra.cli; print('scipy' in sys.modules)"
        # the child imports the package these tests import, however it was found
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.stdout.strip() == "False"


class TestSvdConvergence:
    def test_resonant_dense_drift_degree_6(self):
        code, out, err = run_cli(
            ["analyze", "--Q", RESONANT_Q, "--B", RESONANT_B, "--degree", "6"]
        )
        assert code == 0, err
        groups = json.loads(out)["groups"]
        assert len(groups) == 25
        assert sum(g["multiplicity"] for g in groups) == 210
        assert all(g["residual_within_tol"] for g in groups)

    def test_falls_back_to_gesvd(self, monkeypatch):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fails)
        nullity, basis = _nullspace_bounded(np.diag([1.0, 0.0, 2.0]), 0, 3)
        assert nullity == 1
        assert np.abs(np.abs(basis[:, 0]) - np.array([0, 1, 0])).max() < 1e-14

    def test_both_drivers_failing_is_typed(self, monkeypatch):
        import scipy.linalg

        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fails)
        monkeypatch.setattr(scipy.linalg, "svd", fails)
        with pytest.raises(ConvergenceFailure):
            _nullspace_bounded(np.diag([1.0, 0.0, 2.0]), 0, 3)
        code, out, err = run_cli(
            ["analyze", "--Q", "[[1, 0], [0, 1]]", "--B", "[[-1, 0.5], [0.25, -2]]"]
        )
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("error: SVD") and out == ""


class TestRotatedJordanDrift:
    def test_exact_groups_are_orthogonal(self):
        """B = R diag(-1, J_2(-5/2)) R^T with R the 3-4-5 rotation in the
        (x1, x2) plane and Q = I. The drift eigenvalues are rational, so the
        model takes the exact route although B is not triangular; S is
        block-diagonal in the rotated frame, so every pair is orthogonal."""
        B = '[["-49/25","-18/25","4/5"],["-18/25","-77/50","3/5"],[0,0,"-5/2"]]'
        Q = "[[1,0,0],[0,1,0],[0,0,1]]"
        code, out, err = run_cli(["analyze", "--Q", Q, "--B", B, "--degree", "2"])
        assert code == 0, err
        report = json.loads(out)
        assert report["backend"] == "exact"
        groups = report["groups"]
        assert [g["eigenvalue"] for g in groups] == [
            {"re": float(v), "im": 0.0} for v in (0, -1, -2, -2.5, -3.5, -5)
        ]
        assert [g["multiplicity"] for g in groups] == [1, 1, 1, 2, 2, 3]
        assert all(g["max_power_residual"] == 0 for g in groups)
        assert report["orthogonality"]["all_orthogonal"] is True

    def test_exact_groups_at_degree_six(self):
        """The same drift at --degree 6: 25 exact groups, all orthogonal."""
        B = '[["-49/25","-18/25","4/5"],["-18/25","-77/50","3/5"],[0,0,"-5/2"]]'
        Q = "[[1,0,0],[0,1,0],[0,0,1]]"
        code, out, err = run_cli(["analyze", "--Q", Q, "--B", B, "--degree", "6"])
        assert code == 0, err
        report = json.loads(out)
        assert report["backend"] == "exact"
        groups = report["groups"]
        assert len(groups) == 25 and sum(g["multiplicity"] for g in groups) == 84
        assert all(g["max_power_residual"] == 0 for g in groups)
        # exact coefficients are written as "p/q" strings
        assert all(isinstance(t["re"], str) for g in groups for p in g["basis"] for t in p["terms"])
        assert report["orthogonality"]["all_orthogonal"] is True

    def test_float_drift_lists_its_clusters(self):
        """With float entries an eigen-solver scatters the defective -5/2 to
        about -5/2 +/- 2e-8 i. The reports list the clusters the spectrum is
        built on instead: -5/2 twice, with imaginary part 0."""
        R, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        J = np.array([[-1.0, 0.0, 0.0], [0.0, -2.5, 1.0], [0.0, 0.0, -2.5]])
        argv = ["--Q", json.dumps(np.eye(3).tolist()), "--B", json.dumps((R @ J @ R.T).tolist())]
        for command, cap in (("spectrum", "1"), ("analyze", "2")):
            code, out, err = run_cli([command, *argv, "--degree", cap])
            assert code == 0, err
            report = json.loads(out)
            drift = [complex(z["re"], z["im"]) for z in report["drift_eigenvalues"]]
            assert [z.imag for z in drift] == [0.0, 0.0, 0.0]
            assert [z.real for z in drift] == pytest.approx([-2.5, -2.5, -1.0], abs=1e-12)
            # the degree-1 points of the spectrum are the distinct drift values
            linear = [
                complex(p["value"]["re"], p["value"]["im"])
                for p in report["spectrum"]
                if 1 in p["degrees"]
            ]
            assert sorted(linear, key=lambda z: z.real) == sorted(set(drift), key=lambda z: z.real)
