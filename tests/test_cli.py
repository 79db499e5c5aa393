import io
import json
from fractions import Fraction

import jsonschema
import numpy as np
import pytest

from ou_spectra import cli
from ou_spectra.errors import RankDecisionAmbiguous, SchemaError
from ou_spectra.model import validate_model
from ou_spectra.polynomials import SparsePolynomial
from ou_spectra.spectral import generalized_eigenspaces
from ou_spectra.worked_examples import Section5Params, section4_model, section5_model


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stream=out, err_stream=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    report = json.loads(out)
    jsonschema.validate(report, cli.REPORT_SCHEMA)
    return report


SECTION4_FLAGS = ["--Q", "[[1,0],[0,1]]", "--B", "[[-1,1],[-1,-1]]"]


class TestModelFile:
    def test_parse_rotation_model(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"Q": [[1, 0], [0, 1]], "B": [["-1", "1"], ["-1", "-1"]]}))
        Q, B = cli.parse_model_file(str(path))
        assert B[0][0] == -1 and B[0][1] == 1

    def test_parse_one_dimensional(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"Q": [[1]], "B": [["-1"]]}))
        Q, B = cli.parse_model_file(str(path))
        assert len(Q) == len(B) == 1

    def test_missing_field(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"Q": [[1]]}))
        with pytest.raises(SchemaError, match='missing field "B"'):
            cli.parse_model_file(str(path))

    def test_bad_entry_diagnoses_position(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"Q": [[1, 0], [0, {"oops": 1}]], "B": [[-1, 0], [0, -1]]}))
        with pytest.raises(SchemaError, match="row 1, column 1"):
            cli.parse_model_file(str(path))

    def test_rational_strings_stay_exact(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"Q": [["1/2"]], "B": [["-1/3"]]}))
        code, out, _ = run_cli(["spectrum", "--model", str(path), "--degree", "1"])
        assert code == 0
        report = json.loads(out)
        assert report["model"]["Q"] == [["1/2"]]
        assert report["backend"] == "exact"


class TestExitCodes:
    def test_usage_error_unknown_subcommand(self):
        code, _, err = run_cli(["frobnicate"])
        assert code == 1 and "usage" in err

    def test_usage_error_missing_model(self):
        code, _, err = run_cli(["analyze"])
        assert code == 1

    def test_usage_error_conflicting_sources(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"Q": [[1]], "B": [[-1]]}))
        code, _, err = run_cli(
            ["analyze", "--model", str(path), "--Q", "[[1]]", "--B", "[[-1]]"]
        )
        assert code == 1

    def test_validation_error_not_hurwitz(self):
        code, _, err = run_cli(["analyze", "--Q", "[[1,0],[0,1]]", "--B", "[[1,0],[0,1]]"])
        assert code == 2 and "eigenvalue" in err

    def test_validation_error_bad_params(self):
        code, _, err = run_cli(["paper-example", "section5", "--a", "1", "--d", "2", "--c", "1"])
        assert code == 2 and "a > d" in err

    def test_schema_error_exit(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json")
        code, _, err = run_cli(["analyze", "--model", str(path)])
        assert code == 2

    def test_ambiguity_exit_code(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RankDecisionAmbiguous("no decisive gap")

        monkeypatch.setattr(cli, "generalized_eigenspaces", boom)
        code, _, err = run_cli(["analyze", *SECTION4_FLAGS])
        assert code == 3 and "ambiguity" in err


class TestAnalyze:
    def test_float_backend_model(self):
        report = run_json(
            ["analyze", "--Q", "[[1.0,0.0],[0.0,1.0]]", "--B", "[[-1.5,0.25],[0.0,-2.0]]",
             "--backend", "float", "--degree", "2"]
        )
        assert report["backend"] == "float"
        assert all(g["residual_within_tol"] for g in report["groups"])

    def test_rotation_model_full_pipeline(self):
        report = run_json(["analyze", *SECTION4_FLAGS, "--degree", "4"])
        assert report["orthogonality"]["all_orthogonal"] is True
        assert all(g["nilpotency_index"] == 1 for g in report["groups"])
        assert report["q_infinity"] == [["1/2", "0"], ["0", "1/2"]]
        assert report["tolerances"] == {
            "tol_eig": 1e-8,
            "tol_orth": 1e-9,
            "tol_nilp": 1e-9,
        }

    def test_tolerance_flags_echoed(self):
        report = run_json(["analyze", *SECTION4_FLAGS, "--degree", "2", "--tol-orth", "1e-6"])
        assert report["tolerances"]["tol_orth"] == 1e-6
        assert report["orthogonality"]["tol_orth"] == 1e-6


class TestSpectrum:
    def test_cap_zero(self):
        report = run_json(["spectrum", *SECTION4_FLAGS, "--degree", "0"])
        assert len(report["spectrum"]) == 1
        assert report["spectrum"][0]["value"] == {"re": 0.0, "im": 0.0}


class TestGram:
    def test_json_output(self):
        report = run_json(["gram", *SECTION4_FLAGS, "--degree", "2"])
        entries = report["gram"]["entries"]
        assert len(entries) == 6
        assert entries[0][0] == "1"
        # every exact entry is a "p/q" string, the odd-moment zeros too
        assert all(isinstance(x, str) for row in entries for x in row)

    def test_csv_output(self):
        code, out, _ = run_cli(["gram", *SECTION4_FLAGS, "--degree", "1", "--format", "csv"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 3 and rows[0][0] == "1"

    def test_csv_rejected_elsewhere(self):
        code, _, err = run_cli(["spectrum", *SECTION4_FLAGS, "--format", "csv"])
        assert code == 1


class TestNormalize:
    def test_diagonal_rescale(self):
        report = run_json(["normalize", "--Q", "[[4,0],[0,1]]", "--B", "[[-1,0],[0,-1]]"])
        H = np.array(report["normalization"]["H"], dtype=float)
        assert np.abs(np.abs(H) - np.diag([0.5, 1.0])).max() < 1e-12
        Qt = np.array(report["normalization"]["Q_transformed"], dtype=float)
        assert np.abs(Qt - np.eye(2)).max() < 1e-12


class TestSimulate:
    def test_report_and_files(self, tmp_path):
        out_path = str(tmp_path / "ens.f64")
        report = run_json(
            [
                "simulate",
                *SECTION4_FLAGS,
                "--paths",
                "2000",
                "--seed",
                "11",
                "--step",
                "0.5",
                "--out",
                out_path,
            ]
        )
        sim = report["simulation"]
        assert sim["paths"] == 2000 and sim["seed"] == 11
        assert len(sim["config_sha256"]) == 64
        raw = np.fromfile(out_path, dtype="<f8").reshape(2000, 2)
        assert np.isfinite(raw).all()
        sidecar = json.loads((tmp_path / "ens.f64.json").read_text())
        assert sidecar["config_sha256"] == sim["config_sha256"]

    def test_determinism_across_runs(self):
        r1 = run_json(["simulate", *SECTION4_FLAGS, "--paths", "500", "--seed", "3"])
        r2 = run_json(["simulate", *SECTION4_FLAGS, "--paths", "500", "--seed", "3"])
        assert r1["simulation"]["empirical_covariance"] == r2["simulation"]["empirical_covariance"]

    def test_csv_samples_for_small_runs(self, tmp_path):
        out_path = str(tmp_path / "small.f64")
        code, out, _ = run_cli(
            [
                "simulate",
                *SECTION4_FLAGS,
                "--paths",
                "50",
                "--seed",
                "2",
                "--format",
                "csv",
                "--out",
                out_path,
            ]
        )
        assert code == 0
        report = json.loads(out)
        csv_path = report["simulation"]["written"]["csv"]
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        assert rows.shape == (50, 2)

    def test_csv_simulate_needs_out(self):
        code, _, err = run_cli(["simulate", *SECTION4_FLAGS, "--paths", "50", "--format", "csv"])
        assert code == 1


class TestPaperExample:
    def test_section5_report_contains_exact_values(self):
        report = run_json(["paper-example", "section5", "--a", "2", "--d", "1", "--c", "1"])
        ex = report["example"]
        assert ex["pairings"]["<v1,v3>"] == "1/8"
        assert ex["v1_v3_closed_form"] == "1/8"
        eigs = [f["eigenvalue"] for f in ex["eigenfunctions"]]
        assert eigs[:3] == ["-2", "-4", "-6"]
        assert all(f["generator_residual_zero"] for f in ex["eigenfunctions"])
        assert ex["resonant"] is True
        assert "<v2,v4>" in ex["pairings"]
        out = json.dumps(report)
        assert "1/8" in out

    def test_section5_nonresonant(self):
        report = run_json(["paper-example", "section5", "--a", "3", "--d", "1", "--c", "2"])
        assert report["example"]["resonant"] is False
        assert len(report["example"]["eigenfunctions"]) == 3
        assert report["example"]["pairings"]["<v1,v3>"] == "1/18"

    def test_section4_report(self):
        report = run_json(["paper-example", "section4", "--degree", "4"])
        ex = report["example"]
        assert report["q_infinity"] == [["1/2", "0"], ["0", "1/2"]]
        assert ex["rotation_split"]["C"] == [[0.0, 2.0], [-2.0, 0.0]]
        assert ex["orthogonality"]["all_orthogonal"] is True
        assert all(n == 1 for n in ex["nilpotency_indices"])
        for space in ex["hermite_spaces"]:
            assert space["max_deviation_from_split"] < 1e-12
            assert space["normality_defect"] < 1e-12


class TestFormats:
    def test_human_contains_same_numbers(self):
        code, human, _ = run_cli(
            ["paper-example", "section5", "--a", "2", "--d", "1", "--c", "1", "--format", "human"]
        )
        assert code == 0
        assert "1/8" in human
        assert "-2" in human and "-6" in human

    def test_json_round_trip_schema(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"Q": [[1]], "B": [[-1]]}))
        for argv in (
            ["analyze", "--model", str(path), "--degree", "3"],
            ["spectrum", "--model", str(path), "--degree", "2"],
            ["gram", "--model", str(path), "--degree", "2"],
            ["normalize", "--model", str(path)],
            ["simulate", "--model", str(path), "--paths", "100", "--seed", "1"],
            ["paper-example", "section4", "--degree", "2"],
            ["paper-example", "section5"],
        ):
            run_json(argv)


def _reject_constant(name):
    raise ValueError(f"bare {name} is not valid JSON")


EMITTED = {
    "analyze-float": ["analyze", "--Q", "[[1.0,0.0],[0.0,1.0]]", "--B", "[[-1.5,0.25],[0.0,-2.0]]",
                      "--backend", "float", "--degree", "3"],
    "analyze-exact": ["analyze", "--Q", "[[2,0,0],[0,1,0],[0,0,3]]",
                      "--B", "[[-2,0,0],[\"1/2\",-3,0],[-2,-1,-5]]", "--degree", "3"],
    "spectrum": ["spectrum", *SECTION4_FLAGS, "--degree", "4"],
    "gram": ["gram", "--Q", "[[2,1],[1,3]]", "--B", "[[-2,1],[0,-1]]", "--degree", "3"],
    "normalize": ["normalize", "--Q", "[[4,1],[1,1]]", "--B", "[[-1,0.5],[0,-1]]"],
    "simulate": ["simulate", *SECTION4_FLAGS, "--paths", "200", "--seed", "4"],
    "section4": ["paper-example", "section4", "--degree", "4"],
    "section5": ["paper-example", "section5"],
}


class TestEmission:
    @staticmethod
    def emitted(argv, monkeypatch):
        """(the report dict handed to emit, the text written)."""
        seen = []
        original = cli.emit

        def recording_emit(report, fmt, stream):
            seen.append(report)
            original(report, fmt, stream)

        monkeypatch.setattr(cli, "emit", recording_emit)
        code, out, err = run_cli(argv)
        assert code == 0, err
        assert len(seen) == 1
        return seen[0], out

    @pytest.mark.parametrize("name", sorted(EMITTED))
    def test_output_is_the_report(self, name, monkeypatch):
        report, out = self.emitted(EMITTED[name], monkeypatch)
        parsed = json.loads(out, parse_constant=_reject_constant)
        assert parsed == json.loads(json.dumps(report))
        jsonschema.validate(parsed, cli.REPORT_SCHEMA)

    def test_one_pair_per_line(self, monkeypatch):
        _, out = self.emitted(EMITTED["analyze-exact"], monkeypatch)
        pairs = json.loads(out)["orthogonality"]["pairs"]
        lines = [
            json.loads(line.strip().rstrip(","))
            for line in out.splitlines()
            if line.lstrip().startswith('{"eigenvalue_i"')
        ]
        assert len(pairs) > 1 and lines == pairs


class TestBurnInSearch:
    def test_searched_once_per_simulate(self, tmp_path, monkeypatch):
        from ou_spectra import simulate

        calls = []
        original = simulate.default_burn_in

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(simulate, "default_burn_in", counting)
        out_path = str(tmp_path / "ens.f64")
        report = run_json(["simulate", *SECTION4_FLAGS, "--paths", "10", "--out", out_path])
        assert len(calls) == 1
        sidecar = json.loads((tmp_path / "ens.f64.json").read_text())
        assert report["simulation"]["burn_in"] == sidecar["burn_in"] == original(*calls[0])


class TestCovarianceSolvedOnce:
    """Each command solves the Lyapunov equation at most once per model:
    every consumer reads OUModel.covariance."""

    TRIANGULAR = ["--Q", "[[1,0],[0,2]]", "--B", "[[-1,0],[1,-3]]"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", *TRIANGULAR],
            ["analyze", *TRIANGULAR, "--backend", "float"],
            ["gram", *TRIANGULAR],
            ["normalize", *TRIANGULAR],
            ["paper-example", "section4", "--degree", "12"],
            ["paper-example", "section5"],
        ],
        ids=["analyze-exact", "analyze-float", "gram", "normalize", "section4", "section5"],
    )
    def test_at_most_once_per_model(self, argv, monkeypatch):
        from ou_spectra import model as model_module

        solved = []  # holding each model keeps its id unique
        original = model_module.solve_lyapunov

        def counting(model):
            solved.append(model)
            return original(model)

        monkeypatch.setattr(model_module, "solve_lyapunov", counting)
        run_json(argv)
        ids = [id(m) for m in solved]
        assert ids and len(ids) == len(set(ids))


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_share_no_state(self):
        """The parser is kept across calls, its defaults are not: a spectrum
        call after an analyze call at degree 2 has the default cap 4."""
        run_json(["analyze", *SECTION4_FLAGS, "--degree", "2"])
        report = run_json(["spectrum", "--Q", "[[1]]", "--B", "[[-1]]"])
        assert [p["value"]["re"] for p in report["spectrum"]] == [0.0, -1.0, -2.0, -3.0, -4.0]


def _tidy_poly(vec, basis):
    """The float route's listed polynomial as SparsePolynomial: coefficients
    at roundoff level (1e-13 of the largest) dropped, and those real to that
    level made real."""
    mag = np.abs(vec)
    cut = 1e-13 * mag.max()
    terms = {}
    for k in np.flatnonzero(mag > cut):
        c = complex(vec[k])
        terms[basis.indices[k]] = c.real if abs(c.imag) <= cut else c
    return SparsePolynomial(basis.dim, terms)


class TestGroupsWriter:
    @pytest.mark.parametrize(
        ("model", "exact_route"),
        [
            (section4_model(), False),  # rational, but its drift eigenvalues are -1 +/- i
            (validate_model(np.eye(3), [[-1.0, 2.0, 0.3], [-1.5, -1.0, 0.0], [0.2, 0.1, -2.5]]), False),
            (section5_model(Section5Params(2, 1, 1)), True),
            (validate_model([[2, 1], [1, 3]], [[-2, 1], [0, -1]]), True),
        ],
        ids=["section4", "complex-float", "section5", "exact-dense"],
    )
    def test_columns_match_the_polynomials(self, model, exact_route):
        """Each listed polynomial is written as SparsePolynomial.to_json and
        render write it: with Fraction coefficients on the exact route, and
        on the float route as the tidied unit vector, with real and complex
        coefficients."""
        dec = generalized_eigenspaces(model, 4)
        assert (dec.spectrum.points[0].exact is not None) == exact_route
        written = cli._groups_json(dec, 1e-9)
        kinds = set()
        for g, out in zip(dec.groups, written):
            for k, poly in enumerate(out["basis"]):
                if exact_route:
                    expected = SparsePolynomial(
                        model.dim,
                        {
                            a: Fraction(x, g.denominator)
                            for a, x in zip(dec.basis.indices, g.coefficients[:, k])
                            if x
                        },
                    )
                else:
                    expected = _tidy_poly(g.vectors[:, k], dec.basis)
                assert poly == {**expected.to_json(), "text": expected.render()}
                assert g.polynomials[k] == expected
                kinds.update(type(c) for c in expected.terms.values())
        assert kinds == ({Fraction} if exact_route else {float, complex})

    def test_float_analyze_builds_no_polynomial(self, monkeypatch):
        """analyze on a dense 4-D float model goes from the coefficient
        columns to the report without a SparsePolynomial."""
        built = []
        original = SparsePolynomial.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SparsePolynomial, "__init__", counting)
        A, E = np.random.default_rng(7).standard_normal((2, 4, 4))
        Q, B = np.eye(4) + A @ A.T / 4, E - (1 + np.abs(E).sum()) * np.eye(4)
        report = run_json(
            ["analyze", "--Q", json.dumps(Q.tolist()), "--B", json.dumps(B.tolist()), "--degree", "4"]
        )
        assert report["backend"] == "float" and len(report["groups"]) == 70
        assert built == []
