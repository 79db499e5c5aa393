import dataclasses
import io
import json
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import small_test_models
from ou_spectra import cli, gaussian, spectral
from ou_spectra.errors import ConvergenceFailure, RankDecisionAmbiguous, SchemaError
from ou_spectra.model import validate_model
from ou_spectra.polynomials import (
    SparsePolynomial,
    coefficient_text,
    index_degree,
    monomial_text,
    render_terms,
)
from ou_spectra.spectral import (
    OrthogonalityReport,
    generalized_eigenspaces,
    listed_terms,
    orthogonality_report,
)
from ou_spectra.worked_examples import (
    Section5Params,
    section4_model,
    section5_eigenfunctions,
    section5_model,
)
from reference import coefficient_json, plain_json, polynomial_json


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stream=out, err_stream=err)
    return code, out.getvalue(), err.getvalue()


def decoded(value):
    """value with the pre-encoded lines of every cli.EncodedLines decoded."""
    if isinstance(value, cli.EncodedLines):
        return [json.loads(line) for line in value]
    if isinstance(value, dict):
        return {k: decoded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decoded(v) for v in value]
    return value


def run_json(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    report = json.loads(out)
    jsonschema.validate(report, cli.REPORT_SCHEMA)
    return report


SECTION4_FLAGS = ["--Q", "[[1,0],[0,1]]", "--B", "[[-1,1],[-1,-1]]"]


def dense_4d_argv(degree: int) -> list[str]:
    """analyze on a dense 4-D float drift, Hurwitz by diagonal dominance."""
    A, E = np.random.default_rng(7).standard_normal((2, 4, 4))
    Q, B = np.eye(4) + A @ A.T / 4, E - (1 + np.abs(E).sum()) * np.eye(4)
    return ["analyze", "--Q", json.dumps(Q.tolist()), "--B", json.dumps(B.tolist()), "--degree", str(degree)]


class CountingStream(io.StringIO):
    """A text stream that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


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

    def test_real_float_gram_is_plain_numbers(self):
        """The Gram of a real float model is real: its entries are written as
        numbers, not {"re": .., "im": ..}, and its csv cells as x, not x+0.0j."""
        flags = ["gram", "--Q", "[[1.0,0.2],[0.2,2.0]]", "--B", "[[-1.0,0.5],[0.0,-2.0]]", "--degree", "3"]
        report = run_json(flags)
        assert report["backend"] == "float"
        entries = report["gram"]["entries"]
        assert len(entries) == 10 and all(type(x) is float for row in entries for x in row)
        code, out, _ = run_cli([*flags, "--format", "csv"])
        assert code == 0 and "j" not in out
        assert np.loadtxt(io.StringIO(out), delimiter=",").tolist() == entries

    def test_csv_rejected_elsewhere(self, monkeypatch):
        """csv is refused right after parsing, before any work: analyze
        builds no eigenspaces."""
        code, _, err = run_cli(["spectrum", *SECTION4_FLAGS, "--format", "csv"])
        assert code == 1

        def refused(*args):
            raise AssertionError("generalized_eigenspaces was called")

        monkeypatch.setattr(cli, "generalized_eigenspaces", refused)
        code, _, err = run_cli(["analyze", *SECTION4_FLAGS, "--format", "csv"])
        assert code == 1 and "csv" in err


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

    def test_csv_simulate_needs_out(self, monkeypatch):
        """Without --out, csv is refused before any path is drawn."""

        def refused(*args):
            raise AssertionError("stationary_ensemble was called")

        monkeypatch.setattr(cli, "stationary_ensemble", refused)
        code, _, err = run_cli(["simulate", *SECTION4_FLAGS, "--paths", "50", "--format", "csv"])
        assert code == 1 and "--out" in err


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

    @pytest.mark.parametrize("params", [("2", "1", "1"), ("3", "1", "2"), ("5/2", "1/3", "-3/4")])
    def test_eigenfunction_lines(self, params):
        """Each eigenfunction's line is the text json.dumps writes for its
        object, with the polynomial as reference.polynomial_json writes it."""
        a, d, c = params
        code, out, err = run_cli(["paper-example", "section5", "--a", a, "--d", d, "--c", c])
        assert code == 0, err
        funcs = section5_eigenfunctions(Section5Params(*map(Fraction, params)))
        expected = [
            json.dumps(
                {
                    "name": f"v{k + 1}",
                    "polynomial": polynomial_json(v),
                    "eigenvalue": str(mu),
                    "generator_residual_zero": True,
                }
            )
            for k, (v, mu) in enumerate(funcs)
        ]
        lines = [line.strip().rstrip(",") for line in out.splitlines()]
        start = lines.index('"eigenfunctions": [') + 1
        assert lines[start : start + len(funcs) + 1] == [*expected, "]"]

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
    "analyze-complex": ["analyze", *SECTION4_FLAGS, "--backend", "float", "--degree", "3"],
    "analyze-one-group": ["analyze", "--Q", "[[1]]", "--B", "[[-1]]", "--degree", "0"],  # no pairs
    "spectrum": ["spectrum", *SECTION4_FLAGS, "--degree", "4"],
    "gram": ["gram", "--Q", "[[2,1],[1,3]]", "--B", "[[-2,1],[0,-1]]", "--degree", "3"],
    "normalize": ["normalize", "--Q", "[[4,1],[1,1]]", "--B", "[[-1,0.5],[0,-1]]"],
    "simulate": ["simulate", *SECTION4_FLAGS, "--paths", "200", "--seed", "4"],
    "section4": ["paper-example", "section4", "--degree", "4"],
    "section5": ["paper-example", "section5"],
}


class TestEmission:
    @staticmethod
    def emitted(argv, monkeypatch, stream=None):
        """(the report dict handed to emit, the text written to stream)."""
        seen = []
        original = cli.emit

        def recording_emit(report, fmt, stream):
            seen.append(report)
            original(report, fmt, stream)

        monkeypatch.setattr(cli, "emit", recording_emit)
        stream, err = io.StringIO() if stream is None else stream, io.StringIO()
        code = cli.run(argv, stream=stream, err_stream=err)
        assert code == 0, err.getvalue()
        assert len(seen) == 1
        return seen[0], stream.getvalue()

    @pytest.mark.parametrize("name", sorted(EMITTED))
    def test_output_is_the_report(self, name, monkeypatch):
        report, out = self.emitted(EMITTED[name], monkeypatch)
        parsed = json.loads(out, parse_constant=_reject_constant)
        # the groups and the pairs are handed to emit as JSON text, one line each
        assert parsed == json.loads(json.dumps(decoded(report)))
        jsonschema.validate(parsed, cli.REPORT_SCHEMA)

    @pytest.mark.parametrize("name", sorted(EMITTED))
    def test_json_is_the_plain_layout(self, name, monkeypatch):
        """The JSON written is byte for byte the documented layout of the
        decoded report, one json.dumps per item (reference.plain_json); the
        human format is checked the same way by the test below."""
        report, out = self.emitted(EMITTED[name], monkeypatch)
        assert out == plain_json(decoded(report)) + "\n"

    def test_lists_are_written_in_chunks(self, monkeypatch):
        """A report of 70 groups and 2,415 pairs, past cli.CHUNK characters,
        goes out in a few dozen writes, not one per line, with the same bytes
        as the plain layout."""
        stream = CountingStream()
        report, out = self.emitted(dense_4d_argv(4), monkeypatch, stream)
        groups = len(decoded(report)["groups"])
        assert groups == 70 and len(out) > 2 * cli.CHUNK
        assert stream.writes <= groups + 50
        assert out == plain_json(decoded(report)) + "\n"

    @pytest.mark.parametrize("name", sorted(EMITTED))
    def test_human_is_the_decoded_report(self, name, monkeypatch):
        report, out = self.emitted([*EMITTED[name], "--format", "human"], monkeypatch)
        assert out == cli.render_human(decoded(report)) + "\n"

    def test_one_pair_per_line(self, monkeypatch):
        _, out = self.emitted(EMITTED["analyze-exact"], monkeypatch)
        pairs = json.loads(out)["orthogonality"]["pairs"]
        lines = [
            json.loads(line.strip().rstrip(","))
            for line in out.splitlines()
            if line.lstrip().startswith('{"eigenvalue_i"')
        ]
        assert len(pairs) > 1 and lines == pairs


DENSE_FLOAT_DRAWS = st.integers(2, 3).flatmap(
    lambda n: hnp.arrays(float, (2, n, n), elements=st.floats(-1, 1))
)


def dense_float_decomposition(draws):
    """The eigenspaces at cap 3 of a dense 2-D or 3-D float model made from
    two drawn matrices; a draw without a decisive rank gap is discarded."""
    A, E = draws
    n = len(A)
    Q, B = np.eye(n) + A @ A.T / n, E - (1 + np.abs(E).sum()) * np.eye(n)  # B is Hurwitz
    try:
        dec = generalized_eigenspaces(validate_model(Q, B), 3)
    except RankDecisionAmbiguous:
        assume(False)
    assert dec.model.backend == "float"
    return dec


def pair_dicts(rep) -> list[dict]:
    """One object per PairVerdict of rep, as the report wrote each pair
    before its lines were encoded from the pair Gram directly."""
    eigenvalues = [cli.scalar_json(complex(z)) for z in rep.eigenvalues]
    return [
        {
            "eigenvalue_i": eigenvalues[p.i],
            "eigenvalue_j": eigenvalues[p.j],
            "max_normalized": p.max_normalized,
            "orthogonal": p.orthogonal,
            "gram_block": [[{"re": z.real, "im": z.imag} for z in row] for row in p.block.tolist()],
        }
        for p in rep.pairs
    ]


class TestPairLines:
    """Each pair line is the text json.dumps writes for the pair's object."""

    @staticmethod
    def check(dec):
        rep = orthogonality_report(dec)
        orth = cli._orthogonality_json(rep)
        assert isinstance(orth["pairs"], cli.EncodedLines)
        assert list(orth["pairs"]) == [json.dumps(d) for d in pair_dicts(rep)]
        assert orth["all_orthogonal"] == all(p.orthogonal for p in rep.pairs)

    @pytest.mark.parametrize("model_index", range(len(small_test_models())))
    def test_small_models(self, model_index):
        self.check(generalized_eigenspaces(small_test_models()[model_index], 4))

    def test_small_models_have_wide_blocks(self):
        """The models above include pairs of groups with several columns each."""
        shapes = {
            p.block.shape
            for model in small_test_models()
            for p in orthogonality_report(generalized_eigenspaces(model, 4)).pairs
        }
        assert any(a > 1 and b > 1 for a, b in shapes)

    def test_section4(self):
        self.check(generalized_eigenspaces(section4_model(), 6))

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(DENSE_FLOAT_DRAWS)
    def test_dense_float_drift(self, draws):
        self.check(dense_float_decomposition(draws))

    def test_no_pair_object_on_the_cli_path(self, monkeypatch):
        """analyze builds no PairVerdict: the lines come from the arrays."""
        built = []
        original = spectral.PairVerdict

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(spectral, "PairVerdict", counting)
        report = run_json(EMITTED["analyze-exact"])
        assert len(report["orthogonality"]["pairs"]) > 1 and built == []

    def test_hand_built_blocks(self):
        """Blocks of 1 x 2 and 2 x 1 entries, one with an imaginary part -0.0
        (not a real block), one with a real part -0.0, and a pair that shares
        no degree, against the object of each PairVerdict."""
        H = np.zeros((4, 4), dtype=complex)
        H[0, 1:3] = [complex(0.5, -0.0), complex(0.25, 0.0)]
        H[1:3, 3] = [complex(-0.0, 0.25), complex(0.125, 0.0)]
        disjoint = np.zeros((3, 3), bool)
        disjoint[0, 2] = disjoint[2, 0] = True
        rep = OrthogonalityReport(
            gram=H,
            starts=np.array([0, 1, 3]),
            worst=np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 1e-12], [0.0, 1e-12, 1.0]]),
            disjoint=disjoint,
            tol_orth=1e-9,
            eigenvalues=(-1 + 0j, complex(-2, 0.5), complex(-3, -0.0)),
        )
        lines = list(cli._orthogonality_json(rep)["pairs"])
        assert lines == [json.dumps(d) for d in pair_dicts(rep)]
        assert '"im": -0.0' in lines[0] and '"re": -0.0' in lines[2]

    def test_non_finite_gram_is_an_error(self, monkeypatch):
        """JSON has no NaN: a pair Gram with one is a typed failure, exit 2."""
        rep = OrthogonalityReport(
            gram=np.array([[1, np.nan], [np.nan, 1]], dtype=complex),
            starts=np.array([0, 1]),
            worst=np.array([[1.0, 0.5], [0.5, 1.0]]),
            disjoint=np.zeros((2, 2), bool),
            tol_orth=1e-9,
            eigenvalues=(0j, -1 + 0j),
        )
        with pytest.raises(ConvergenceFailure, match="non-finite"):
            cli._orthogonality_json(rep)
        monkeypatch.setattr(cli, "orthogonality_report", lambda dec, tol_orth: rep)
        code, out, err = run_cli(["analyze", *SECTION4_FLAGS, "--degree", "1"])
        assert code == 2 and out == "" and "non-finite" in err


def group_dicts(dec, tol_nilp: float) -> list[dict]:
    """One object per group of dec, as the report wrote each group before
    its lines were encoded from the coefficient columns directly: terms in
    ascending (degree, exponent) order, text in the reverse order."""
    indices = dec.basis.indices
    order = sorted(range(len(indices)), key=lambda k: (index_degree(indices[k]), indices[k]))
    alphas = [list(indices[k]) for k in order]
    monomials = [monomial_text(indices[k]) for k in order]
    out = []
    for g in dec.groups:
        polys = []
        for rows, values in listed_terms(g.coefficients[order], g.denominator):
            terms = []
            for r, c in zip(rows, values):
                re, im = coefficient_json(c)
                terms.append({"alpha": alphas[r], "re": re, "im": im})
            text = render_terms(
                (monomials[r], coefficient_text(c)) for r, c in zip(rows[::-1], values[::-1])
            )
            polys.append({"dim": dec.basis.dim, "terms": terms, "text": text})
        out.append(
            {
                "eigenvalue": cli.scalar_json(complex(g.eigenvalue)),
                "multiplicity": g.multiplicity,
                "nilpotency_index": g.nilpotency_index,
                "max_power_residual": g.max_power_residual,
                "residual_within_tol": g.max_power_residual <= tol_nilp,
                "basis": polys,
            }
        )
    return out


GOLDEN_EXACT_GROUPS = Path(__file__).parent / "data" / "analyze_exact_groups.txt"


class TestNoMomentTable:
    """The pair Gram comes from the forms' N x N pairing: analyze builds no
    moment table, on the float route or the exact one."""

    B4 = [[-1.5, 0.4, -0.3, 0.2], [0.1, -2.0, 0.5, -0.4], [-0.2, 0.3, -2.6, 0.6], [0.5, -0.1, 0.2, -3.1]]

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--Q", json.dumps(np.eye(4).tolist()), "--B", json.dumps(B4), "--degree", "3"],
            EMITTED["analyze-exact"],
        ],
        ids=["float-4d", "analyze-exact"],
    )
    def test_analyze_builds_no_moment_table(self, argv, monkeypatch):
        built = []
        original = gaussian.MomentTable.__init__

        def counting(self, *args):
            built.append(args)
            original(self, *args)

        monkeypatch.setattr(gaussian.MomentTable, "__init__", counting)
        report = run_json(argv)
        assert len(report["orthogonality"]["pairs"]) > 1 and built == []
        assert run_json(["gram", *argv[1:5], "--degree", "1"]) and built  # the gram command does


class TestGroupLines:
    """Each group line is the text json.dumps writes for the group's object."""

    @staticmethod
    def check(dec):
        lines = cli._group_lines(dec, 1e-9)
        assert isinstance(lines, cli.EncodedLines)
        assert list(lines) == [json.dumps(d) for d in group_dicts(dec, 1e-9)]

    @pytest.mark.parametrize("model_index", range(len(small_test_models())))
    def test_small_models(self, model_index):
        self.check(generalized_eigenspaces(small_test_models()[model_index], 4))

    def test_section4(self):
        """Complex coefficients: "(a+bj)" texts and a nonzero "im"."""
        dec = generalized_eigenspaces(section4_model(), 6)
        coefficients = [c for g in dec.groups for p in g.polynomials for c in p.terms.values()]
        assert any(isinstance(c, complex) for c in coefficients)
        self.check(dec)

    def test_exact_jordan(self):
        """An exact single-eigenvalue Jordan-type drift: groups of several
        polynomials with rational coefficients."""
        model = validate_model(
            [[1, 0, 0], [0, 2, 0], [0, 0, 3]], [[-1, 0, 0], [1, -1, 0], [Fraction(1, 2), 2, -1]]
        )
        dec = generalized_eigenspaces(model, 4)
        assert model.is_exact and max(g.nilpotency_index for g in dec.groups) > 1
        assert any(g.multiplicity > 1 and g.denominator > 1 for g in dec.groups)
        self.check(dec)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(DENSE_FLOAT_DRAWS)
    def test_dense_float_drift(self, draws):
        self.check(dense_float_decomposition(draws))

    def test_exact_lines_match_the_golden_file(self):
        """The exact group lines of EMITTED["analyze-exact"] are byte for byte
        those in tests/data: Fractions, floats made from Fractions and zero
        residuals, none of which depends on the BLAS in use."""
        code, out, err = run_cli(EMITTED["analyze-exact"])
        assert code == 0, err
        lines = out.splitlines(keepends=True)
        start = lines.index('  "groups": [\n')
        end = lines.index("  ],\n", start)
        assert "".join(lines[start : end + 1]).encode() == GOLDEN_EXACT_GROUPS.read_bytes()

    @staticmethod
    def nan_in_last_group(field: str):
        """cli.generalized_eigenspaces with a NaN in field of the last group."""
        original = cli.generalized_eigenspaces

        def broken(*args, **kwargs):
            dec = original(*args, **kwargs)
            g = dec.groups[-1]
            if field == "coefficients":
                bad = g.coefficients.copy()
                bad[0, 0] = np.nan
            else:
                bad = float("nan")
            groups = (*dec.groups[:-1], dataclasses.replace(g, **{field: bad}))
            return dataclasses.replace(dec, groups=groups)

        return broken

    @pytest.mark.parametrize("field", ["max_power_residual", "coefficients"])
    def test_non_finite_group_is_an_error(self, field, monkeypatch):
        """JSON has no NaN: a group with one is a typed failure, exit 2."""
        monkeypatch.setattr(cli, "generalized_eigenspaces", self.nan_in_last_group(field))
        code, out, err = run_cli(["analyze", *SECTION4_FLAGS, "--backend", "float", "--degree", "2"])
        assert code == 2 and out == "" and "non-finite" in err

    @pytest.mark.parametrize("field", ["max_power_residual", "coefficients"])
    def test_non_finite_group_is_refused_before_any_byte(self, field, monkeypatch):
        """The groups are made while written, but a NaN in the last of 70
        groups, past the first chunk, is refused when the section is built:
        analyze exits 2 without a single write."""
        broken = self.nan_in_last_group(field)
        with pytest.raises(ConvergenceFailure, match="non-finite"):
            cli._group_lines(broken(section4_model(), 3), 1e-9)
        monkeypatch.setattr(cli, "generalized_eigenspaces", broken)
        stream, err = CountingStream(), io.StringIO()
        code = cli.run(dense_4d_argv(4), stream=stream, err_stream=err)
        assert code == 2 and stream.writes == 0 and "non-finite" in err.getvalue()


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
        """Each listed polynomial is written as reference.polynomial_json
        writes it: with Fraction coefficients on the exact route, and
        on the float route as the tidied unit vector, with real and complex
        coefficients."""
        dec = generalized_eigenspaces(model, 4)
        assert (dec.spectrum.points[0].exact is not None) == exact_route
        written = [json.loads(line) for line in cli._group_lines(dec, 1e-9)]
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
                assert poly == polynomial_json(expected)
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
        report = run_json(dense_4d_argv(4))
        assert report["backend"] == "float" and len(report["groups"]) == 70
        assert built == []


class TestSpectrumWriter:
    @pytest.mark.parametrize(
        "model",
        [
            section4_model(),  # rational, but its drift eigenvalues are -1 +/- i
            validate_model(np.eye(3), [[-1.0, 2.0, 0.3], [-1.5, -1.0, 0.0], [0.2, 0.1, -2.5]]),
            validate_model(np.eye(2), [[-1.5, 0.5], [0.5, -1.5]]),  # float resonances -1, -2
            section5_model(Section5Params(2, 1, 1)),
            validate_model([[2, 1], [1, 3]], [["-1/3", 1], [0, "-2/7"]]),
        ],
        ids=["section4", "complex-float", "float-resonant", "section5", "exact-fractions"],
    )
    def test_lines_are_the_point_dicts(self, model):
        """Each point's line is the text json.dumps writes for its dict."""
        sp = spectral.spectrum(model, 6)
        assert list(cli._spectrum_json(sp)) == [
            json.dumps(
                {
                    "value": cli.scalar_json(complex(p.value)),
                    "witnesses": [list(w) for w in p.witnesses],
                    "degrees": list(p.degrees),
                }
            )
            for p in sp.points
        ]

    def test_spectrum_builds_no_point(self, monkeypatch):
        """spectrum on a 9-D float drift at degree 5 goes from the exponent
        array to the report lines without a SpectrumPoint."""
        built = []
        original = spectral.SpectrumPoint.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(spectral.SpectrumPoint, "__init__", counting)
        E = np.random.default_rng(9).standard_normal((9, 9))
        B = E / 6 - 1.5 * np.eye(9)
        Q = json.dumps(np.eye(9).tolist())
        report = run_json(["spectrum", "--Q", Q, "--B", json.dumps(B.tolist()), "--degree", "5"])
        assert len(report["spectrum"]) == 2002
        assert built == []
