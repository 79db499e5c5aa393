"""Command line front end: subcommand dispatch and report emission.

Reports are JSON by default ("human" renders the same payload as text,
"csv" is available for Gram matrices and small sample dumps). Rational
values serialize as "p/q" strings because JSON numbers are doubles and
exactness is the point; complex values serialize as {"re": .., "im": ..}.
A JSON report puts each object key on its own line, and each item of a list
of objects or arrays (a pair, a group, a spectrum point, a matrix row) on its
own line as compact JSON; everything else is compact. The spectrum points,
eigen-groups and orthogonality pairs are written pre-encoded (EncodedLines):
as JSON text made straight from the spectrum's arrays, each group's
coefficient columns and the pair Gram, with the bytes json.dumps would write.

Exit codes: 0 success, 1 usage error, 2 validation error or another typed
failure, 3 numerical rank ambiguity. Only a float rank call exits 3: a
rational model whose drift eigenvalues are all rational makes none.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import (
    ConvergenceFailure,
    InvalidParams,
    OUSpectraError,
    RankDecisionAmbiguous,
    SchemaError,
    UsageError,
    ValidationError,
)
from .gaussian import basis_moment_gram, finish_gram, gram_matrix
from .model import OUModel, normalize_model, validate_model
from .operator import (
    apply_L,
    check_normal,
    hermite_rotation_matrix,
    operator_matrix,
    rotation_split,
)
from .polynomials import (
    SparsePolynomial,
    coefficient_text,
    index_degree,
    monomial_basis,
    monomial_text,
    render_terms,
)
from .simulate import (
    Ensemble,
    SimConfig,
    ensemble_to_csv,
    save_ensemble,
    stationary_ensemble,
)
from .spectral import (
    TOL_EIG,
    TOL_NILP,
    TOL_ORTH,
    generalized_eigenspaces,
    listed_terms,
    orthogonality_report,
    spectrum,
)
from .worked_examples import (
    Section5Params,
    section4_model,
    section5_eigenfunctions,
    section5_model,
    section5_whitening,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_AMBIGUOUS = 3

SUBCOMMANDS = ("analyze", "spectrum", "gram", "normalize", "simulate", "paper-example")

_SCALAR_SCHEMA = {
    "oneOf": [
        {"type": "number"},
        {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"},
        {
            "type": "object",
            "required": ["re", "im"],
            "properties": {"re": {}, "im": {}},
        },
    ]
}
_MATRIX_SCHEMA = {
    "type": "array",
    "items": {"type": "array", "items": _SCALAR_SCHEMA},
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["tool", "subcommand", "tolerances", "conventions"],
    "properties": {
        "tool": {"const": "ou-spectra"},
        "subcommand": {"enum": list(SUBCOMMANDS)},
        "backend": {"enum": ["exact", "float"]},
        "tolerances": {
            "type": "object",
            "required": ["tol_eig", "tol_orth", "tol_nilp"],
            "properties": {
                "tol_eig": {"type": "number", "exclusiveMinimum": 0},
                "tol_orth": {"type": "number", "exclusiveMinimum": 0},
                "tol_nilp": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "conventions": {"type": "object"},
        "model": {
            "type": "object",
            "required": ["dim", "Q", "B"],
            "properties": {
                "dim": {"type": "integer", "minimum": 1},
                "Q": _MATRIX_SCHEMA,
                "B": _MATRIX_SCHEMA,
            },
        },
        "q_infinity": _MATRIX_SCHEMA,
        "drift_eigenvalues": {"type": "array"},
        "spectrum": {"type": "array"},
        "groups": {"type": "array"},
        "orthogonality": {"type": "object"},
        "gram": {"type": "object"},
        "normalization": {"type": "object"},
        "simulation": {"type": "object"},
        "example": {"type": "object"},
    },
}


# -- serialization helpers ---------------------------------------------------


def scalar_json(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (complex, np.complexfloating)):
        x = complex(x)
        return {"re": x.real, "im": x.imag}
    return float(x)


def matrix_json(m):
    return [[scalar_json(x) for x in row] for row in m]


# -- model file parsing --------------------------------------------------------


def _parse_entry(x, where: str):
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise SchemaError(f"{where}: entry {x!r} is not a number or 'p/q' string")
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise SchemaError(f"{where}: cannot parse rational {x!r}: {e}") from e
    return x


def _parse_matrix_data(data, name: str):
    if not isinstance(data, list) or not data:
        raise SchemaError(f'field "{name}" must be a nonempty array of rows')
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or not row:
            raise SchemaError(f'field "{name}", row {i}: must be a nonempty array')
        rows.append([_parse_entry(x, f'field "{name}", row {i}, column {j}') for j, x in enumerate(row)])
    if any(len(r) != len(rows[0]) for r in rows):
        raise SchemaError(f'field "{name}" is ragged')
    return rows


def parse_model_file(path: str):
    """Read {"Q": [[...]], "B": [[...]]}; "p/q" strings stay exact."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read model file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be an object")
    for key in ("Q", "B"):
        if key not in data:
            raise SchemaError(f'{path}: missing field "{key}"')
    return _parse_matrix_data(data["Q"], "Q"), _parse_matrix_data(data["B"], "B")


# -- config ------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    degree: int
    tol_eig: float
    tol_orth: float
    tol_nilp: float
    fmt: str

    def __post_init__(self):
        if self.degree < 0:
            raise UsageError("--degree must be >= 0")
        for name in ("tol_eig", "tol_orth", "tol_nilp"):
            if not getattr(self, name) > 0:
                raise UsageError(f"--{name.replace('_', '-')} must be positive")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1/2" as an option unless it looks like a negative
        # number; negative fractions count as numbers here, so "--c -1/2" works
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise UsageError(message)


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", help="path to a JSON model file {'Q': [[..]], 'B': [[..]]}")
    p.add_argument("--Q", help="inline JSON for Q (alternative to --model)")
    p.add_argument("--B", help="inline JSON for B (alternative to --model)")
    p.add_argument("--backend", choices=["auto", "exact", "float"], default="auto")


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--degree", type=int, default=4, help="degree cap (default 4)")
    p.add_argument("--format", choices=["json", "human", "csv"], default="json")
    p.add_argument("--tol-eig", type=float, default=TOL_EIG, help="merge distance of float spectrum "
                   "sums (resonances across degrees); drift eigenvalue clusters are decided by rank")
    p.add_argument("--tol-orth", type=float, default=TOL_ORTH)
    p.add_argument("--tol-nilp", type=float, default=TOL_NILP)


@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, as every parse fills a fresh namespace."""
    parser = _Parser(prog="ou-spectra", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand")
    for name, helptext in [
        ("analyze", "full pipeline: validate, stationary covariance, eigenspaces, orthogonality"),
        ("spectrum", "enumerate the generator's spectrum up to the degree cap"),
        ("gram", "Gram matrix of the graded monomial basis under the stationary measure"),
        ("normalize", "change of coordinates making Q = I and the stationary covariance diagonal"),
        ("simulate", "stationary ensemble by exact-discretization sampling"),
        ("paper-example", "reproduce a bundled worked example"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_common_flags(p)
        if name == "paper-example":
            p.add_argument("example", choices=["section4", "section5"])
            p.add_argument("--a", default="2", help="rational, a > d > 0")
            p.add_argument("--d", default="1", help="rational, d > 0")
            p.add_argument("--c", default="1", help="rational, c != 0")
        else:
            _add_model_flags(p)
        if name == "simulate":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--paths", type=int, default=100_000)
            p.add_argument("--step", type=float, default=0.5)
            p.add_argument("--burn-in", type=int, default=None)
            p.add_argument("--out", help="write raw samples here plus a .json sidecar")
        if name == "gram":
            p.add_argument(
                "--normalized", action="store_true", help="scale entries by the diagonal"
            )
    return parser


def _load_model(args) -> OUModel:
    sources = [args.model is not None, args.Q is not None or args.B is not None]
    if sum(sources) != 1:
        raise UsageError("provide exactly one model source: --model or --Q/--B")
    if args.model:
        Q, B = parse_model_file(args.model)
    else:
        if args.Q is None or args.B is None:
            raise UsageError("--Q and --B must be given together")
        try:
            Q = _parse_matrix_data(json.loads(args.Q), "Q")
            B = _parse_matrix_data(json.loads(args.B), "B")
        except json.JSONDecodeError as e:
            raise UsageError(f"inline matrix is not valid JSON: {e}") from e
    return validate_model(Q, B, backend=args.backend)


# -- report assembly -----------------------------------------------------------


def _base_report(config: RunConfig, model: OUModel | None) -> dict:
    report = {
        "tool": "ou-spectra",
        "subcommand": config.subcommand,
        "conventions": {
            "generator": "L f = 1/2 tr(Q D2 f) + <B x, grad f>",
            "doubled_operator": "A = 2 L (rotation machinery only)",
            "hermite": "physicists' convention, weight exp(-x^2)",
        },
        "tolerances": {
            "tol_eig": config.tol_eig,
            "tol_orth": config.tol_orth,
            "tol_nilp": config.tol_nilp,
        },
    }
    if model is not None:
        report["backend"] = model.backend
        report["model"] = {
            "dim": model.dim,
            "Q": matrix_json(model.Q_exact if model.is_exact else model.Q),
            "B": matrix_json(model.B_exact if model.is_exact else model.B),
        }
    return report


class EncodedLines(list):
    """Items already encoded as JSON text: _write_json writes each on its own
    line as it stands, render_human decodes them."""


def _drift_json(sp) -> list:
    """The drift eigenvalues the spectrum sp is built on: each cluster mean
    repeated by its multiplicity, ascending as model.drift_eigenvalues."""
    values = [z for z, m in zip(sp.distinct, sp.multiplicities) for _ in range(m)]
    return [scalar_json(complex(z)) for z in sorted(values, key=lambda z: (z.real, z.imag))]


def _spectrum_json(sp) -> EncodedLines:
    """The points, each as the text json.dumps writes for its object, made
    straight from the arrays of sp; each witness and degree text once."""
    rows = list(map(str, sp.witness_rows.tolist()))  # str of an int list is its JSON text
    degrees = list(map(str, sp.witness_rows.sum(axis=1).tolist()))
    z, b = sp.point_values, sp.bounds.tolist()
    return EncodedLines(
        f'{{"value": {{"re": {x!r}, "im": {y!r}}}, "witnesses": [{", ".join(rows[lo:hi])}], '
        f'"degrees": [{", ".join(degrees[lo:hi])}]}}'
        for x, y, lo, hi in zip(z.real.tolist(), z.imag.tolist(), b, b[1:])
    )


def _term_heads(alphas) -> tuple[list[str], list[str]]:
    """For each exponent vector, its term's JSON text up to the "re" value
    and its monomial text."""
    heads = [f'{{"alpha": [{", ".join(map(str, a))}], "re": ' for a in alphas]
    return heads, [monomial_text(a) for a in alphas]


def _polynomial_text(dim: int, heads: list[str], monomials: list[str], values: list) -> str:
    """The text json.dumps writes for a polynomial's object, with the terms
    in ascending (degree, exponent) order: heads and monomials are their
    _term_heads, values their coefficients, and "text" renders them in the
    reverse order. A float is written by float.__repr__, as the json encoder
    writes it; a rational keeps exactness as a "p/q" string in "re", with
    "im" "0"."""
    texts = [coefficient_text(c) for c in values]
    terms = ", ".join(
        [
            head
            + (
                f'{c!r}, "im": 0.0}}'
                if type(c) is float
                else f'{c.real!r}, "im": {c.imag!r}}}'
                if type(c) is complex
                else f'"{t}", "im": "0"}}'
            )
            for head, c, t in zip(heads, values, texts)
        ]
    )
    text = render_terms(zip(reversed(monomials), reversed(texts)))
    # monomial and coefficient texts hold no character JSON escapes
    return f'{{"dim": {dim}, "terms": [{terms}], "text": "{text}"}}'


def _group_lines(dec, tol_nilp: float) -> EncodedLines:
    """The groups, each encoded as JSON text straight from its coefficient
    columns: the text json.dumps writes for the group's object, floats by
    float.__repr__ as the json encoder writes them. Each listed polynomial
    is written by _polynomial_text, whose ascending (degree, exponent) order
    is, on the graded-lex basis, each degree block reversed. The order and
    each basis row's term heads are made once."""
    indices = dec.basis.indices
    order = [k for sl in dec.basis.blocks for k in reversed(range(sl.start, sl.stop))]
    heads, monomials = _term_heads([indices[k] for k in order])
    lines = EncodedLines()
    for g in dec.groups:
        z, residual = complex(g.eigenvalue), float(g.max_power_residual)
        if not math.isfinite(residual):  # listed_terms rejects non-finite coefficients
            raise ConvergenceFailure("an eigen-group has a non-finite value, which JSON cannot hold")
        polys = [
            _polynomial_text(
                dec.basis.dim, [heads[r] for r in rows], [monomials[r] for r in rows], values
            )
            for rows, values in listed_terms(g.coefficients[order], g.denominator)
        ]
        lines.append(
            f'{{"eigenvalue": {{"re": {z.real!r}, "im": {z.imag!r}}}, '
            f'"multiplicity": {g.multiplicity}, "nilpotency_index": {g.nilpotency_index}, '
            f'"max_power_residual": {residual!r}, '
            f'"residual_within_tol": {"true" if residual <= tol_nilp else "false"}, '
            f'"basis": [{", ".join(polys)}]}}'
        )
    return lines


def _orthogonality_json(report) -> dict:
    """The verdict, with each pair encoded as JSON text straight from the
    pair Gram: the text json.dumps writes for the pair's object, floats by
    float.__repr__ as the json encoder writes them. Each group's eigenvalue
    text is made once, and each entry of the Gram's upper triangle once."""
    H, worst, tol = report.gram, report.worst, report.tol_orth
    if not (np.isfinite(H).all() and np.isfinite(worst).all()):
        raise ConvergenceFailure("the pair Gram has a non-finite entry, which JSON cannot hold")
    eigenvalues = [json.dumps(scalar_json(complex(z))) for z in report.eigenvalues]
    bounds = [*report.starts.tolist(), len(H)]
    pairs = EncodedLines()
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        # group i's rows against the columns of every later group
        cells = [
            [f'{{"re": {x!r}, "im": {y!r}}}' for x, y in zip(re_row, im_row)]
            for re_row, im_row in zip(H.real[a:b, b:].tolist(), H.imag[a:b, b:].tolist())
        ]
        head = f'{{"eigenvalue_i": {eigenvalues[i]}, "eigenvalue_j": '
        for j, w in enumerate(worst[i, i + 1 :].tolist(), i + 1):
            c, d = bounds[j] - b, bounds[j + 1] - b
            block = "], [".join([", ".join(row[c:d]) for row in cells])
            pairs.append(
                f'{head}{eigenvalues[j]}, "max_normalized": {w!r}, '
                f'"orthogonal": {"true" if w < tol else "false"}, "gram_block": [[{block}]]}}'
            )
    return {"tol_orth": tol, "all_orthogonal": report.all_orthogonal, "pairs": pairs}


def _q_infinity_json(model: OUModel):
    cov = model.covariance
    return matrix_json(cov.sigma_exact if cov.is_exact else cov.sigma)


def _cmd_analyze(args, config: RunConfig) -> dict:
    model = _load_model(args)
    report = _base_report(config, model)
    report["q_infinity"] = _q_infinity_json(model)
    dec = generalized_eigenspaces(model, config.degree, config.tol_eig)
    report["drift_eigenvalues"] = _drift_json(dec.spectrum)
    report["spectrum"] = _spectrum_json(dec.spectrum)
    report["groups"] = _group_lines(dec, config.tol_nilp)
    orth = orthogonality_report(dec, tol_orth=config.tol_orth)
    report["orthogonality"] = _orthogonality_json(orth)
    return report


def _cmd_spectrum(args, config: RunConfig) -> dict:
    model = _load_model(args)
    report = _base_report(config, model)
    sp = spectrum(model, config.degree, config.tol_eig)
    report["drift_eigenvalues"] = _drift_json(sp)
    report["spectrum"] = _spectrum_json(sp)
    return report


def _cmd_gram(args, config: RunConfig) -> dict:
    model = _load_model(args)
    report = _base_report(config, model)
    cov = model.covariance
    basis = monomial_basis(model.dim, config.degree)
    # the Gram matrix of the monomials is their moment matrix
    moments = basis_moment_gram(basis.exponents, cov.sigma_exact if cov.is_exact else cov.sigma)
    g = finish_gram(moments, args.normalized)
    report["q_infinity"] = _q_infinity_json(model)
    report["gram"] = {
        "basis": basis.exponents.tolist(),
        "normalized": bool(args.normalized),
        "entries": matrix_json(g),
    }
    return report


def _cmd_normalize(args, config: RunConfig) -> dict:
    model = _load_model(args)
    change, normalized = normalize_model(model)
    report = _base_report(config, model)
    report["normalization"] = {
        "H": matrix_json(change.H),
        "H_inv": matrix_json(change.H_inv),
        "kind": change.kind,
        "Q_transformed": matrix_json(normalized.Q),
        "B_transformed": matrix_json(normalized.B),
        "q_infinity_transformed": matrix_json(normalized.covariance.sigma),
    }
    return report


def _cmd_simulate(args, config: RunConfig) -> tuple[dict, Ensemble]:
    model = _load_model(args)
    if args.paths < 2:
        raise InvalidParams(
            f"--paths must be at least 2 for an empirical covariance, got {args.paths}"
        )
    sim = SimConfig(
        model=model, step=args.step, paths=args.paths, seed=args.seed, burn_in=args.burn_in
    )
    ensemble = stationary_ensemble(sim)
    q_inf = model.covariance.sigma
    emp = np.cov(ensemble.samples, rowvar=False, bias=False).reshape(model.dim, model.dim)
    report = _base_report(config, model)
    report["simulation"] = {
        "paths": sim.paths,
        "step": sim.step,
        "seed": sim.seed,
        "burn_in": ensemble.config.burn_in,
        "config_sha256": ensemble.provenance,
        "empirical_mean": [float(x) for x in ensemble.samples.mean(axis=0)],
        "empirical_covariance": matrix_json(emp),
        "q_infinity": matrix_json(q_inf),
        "max_relative_covariance_error": float(
            np.abs(emp - q_inf).max() / np.abs(q_inf).max()
        ),
    }
    if args.out:
        sidecar = save_ensemble(ensemble, args.out)
        report["simulation"]["written"] = {"data": args.out, "sidecar": args.out + ".json"}
        report["simulation"]["sidecar"] = sidecar
    return report, ensemble


def _cmd_paper_example(args, config: RunConfig) -> dict:
    if args.example == "section4":
        return _example_section4(config)
    params = Section5Params(Fraction(args.a), Fraction(args.d), Fraction(args.c))
    return _example_section5(config, params)


def _example_section4(config: RunConfig) -> dict:
    model = section4_model()
    report = _base_report(config, model)
    report["q_infinity"] = _q_infinity_json(model)
    dec = generalized_eigenspaces(model, config.degree, config.tol_eig)
    report["drift_eigenvalues"] = _drift_json(dec.spectrum)
    split = rotation_split(model)
    per_degree = []
    for n in range(config.degree + 1):
        ln = hermite_rotation_matrix(split, n).as_array()
        a_matrix = operator_matrix(
            model, n, "hermite-normal-form", operator="A", homogeneous=True
        ).as_array()
        expected = -2.0 * n * np.eye(n + 1) + ln
        per_degree.append(
            {
                "degree": n,
                "rotation_matrix": matrix_json(ln),
                "doubled_operator_matrix": matrix_json(a_matrix),
                "max_deviation_from_split": float(np.abs(a_matrix - expected).max()),
                "normality_defect": check_normal(a_matrix).defect,
            }
        )
    orth = orthogonality_report(dec, tol_orth=config.tol_orth)
    report["example"] = {
        "name": "section4",
        "rotation_split": {
            "D_lambda": matrix_json(split.D_lambda),
            "C": matrix_json(split.C),
        },
        "hermite_spaces": per_degree,
        "nilpotency_indices": [g.nilpotency_index for g in dec.groups],
        "orthogonality": _orthogonality_json(orth),
    }
    return report


def _example_section5(config: RunConfig, params: Section5Params) -> dict:
    model = section5_model(params)
    report = _base_report(config, model)
    report["q_infinity"] = _q_infinity_json(model)
    # the spectrum at cap 0 holds the drift clusters alone
    report["drift_eigenvalues"] = _drift_json(spectrum(model, 0))
    eigenfunctions = section5_eigenfunctions(params)
    names = ["v1", "v2", "v3", "v4"][: len(eigenfunctions)]
    funcs = EncodedLines()
    for name, (v, mu) in zip(names, eigenfunctions):
        alphas = sorted(v.terms, key=lambda a: (index_degree(a), a))
        poly = _polynomial_text(v.dim, *_term_heads(alphas), [v.terms[a] for a in alphas])
        residual_zero = (apply_L(model, v) - v * mu).is_zero
        funcs.append(
            f'{{"name": "{name}", "polynomial": {poly}, "eigenvalue": {json.dumps(scalar_json(mu))}, '
            f'"generator_residual_zero": {json.dumps(residual_zero)}}}'
        )
    # g[0] pairs the constant 1 with each eigenfunction, g[i + 1] pairs v_(i+1)
    one = SparsePolynomial.constant(2, Fraction(1))
    g = gram_matrix([one] + [v for v, _ in eigenfunctions], model.covariance.sigma_exact)
    pairings = {}
    for i in range(len(eigenfunctions)):
        pairings[f"<1,{names[i]}>"] = scalar_json(g[0, i + 1])
        for j in range(i + 1, len(eigenfunctions)):
            pairings[f"<{names[i]},{names[j]}>"] = scalar_json(g[i + 1, j + 1])
    a = params.a
    whitening = section5_whitening(params)
    pushforward = whitening.H @ model.covariance.sigma @ whitening.H.T
    report["example"] = {
        "name": "section5",
        "params": {"a": scalar_json(params.a), "d": scalar_json(params.d), "c": scalar_json(params.c)},
        "resonant": params.resonant,
        "eigenfunctions": funcs,
        "pairings": pairings,
        "v1_v3_closed_form": scalar_json(1 / (2 * a * a)),
        "whitening": {
            "H": matrix_json(whitening.H),
            "covariance_after": matrix_json(pushforward),
        },
    }
    return report


# -- emission ------------------------------------------------------------------


def _human_lines(value, indent: int = 0, key: str | None = None, out=None):
    if isinstance(value, EncodedLines):
        value = [json.loads(x) for x in value]
    pad = "  " * indent
    label = f"{key}: " if key is not None else ""
    if isinstance(value, dict):
        if key is not None:
            out.append(f"{pad}{key}:")
        for k, v in value.items():
            _human_lines(v, indent + (key is not None), k, out)
    elif isinstance(value, list):
        if value and all(isinstance(x, list) for x in value):
            out.append(f"{pad}{label}")
            for row in value:
                out.append(f"{pad}  [" + ", ".join(str(x) for x in row) + "]")
        elif value and all(isinstance(x, dict) for x in value):
            out.append(f"{pad}{label}")
            for i, x in enumerate(value):
                out.append(f"{pad}  - [{i}]")
                _human_lines(x, indent + 2, None, out)
        else:
            out.append(f"{pad}{label}[" + ", ".join(str(x) for x in value) + "]")
    else:
        out.append(f"{pad}{label}{value}")


def render_human(report: dict) -> str:
    lines: list[str] = []
    _human_lines(report, 0, None, lines)
    return "\n".join(lines)


def _csv_cell(x) -> str:
    if isinstance(x, dict):
        return f"{x['re']}+{x['im']}j"
    return str(x)


def _write_json(value, stream, indent: str = "") -> None:
    """Write value as JSON piece by piece: an object one key per line, a list
    of objects or arrays one item per line. The items of EncodedLines (the
    spectrum points, the groups and the pairs) are written as they stand;
    every other item and value is one json.dumps call, which takes the C
    encoder. Each piece goes to the stream at once, so the whole report
    never sits in memory as one string."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        sep = "{\n"
        for key, item in value.items():
            stream.write(f"{sep}{inner}{json.dumps(key)}: ")
            _write_json(item, stream, inner)
            sep = ",\n"
        stream.write(f"\n{indent}}}")
    elif isinstance(value, list) and value and (
        isinstance(value, EncodedLines) or all(isinstance(x, (dict, list)) for x in value)
    ):
        sep = "[\n"
        for item in value if isinstance(value, EncodedLines) else map(json.dumps, value):
            stream.write(f"{sep}{inner}{item}")
            sep = ",\n"
        stream.write(f"\n{indent}]")
    else:
        stream.write(json.dumps(value))


def emit(report: dict, fmt: str, stream) -> None:
    if fmt == "json":
        _write_json(report, stream)
        stream.write("\n")
    elif fmt == "human":
        stream.write(render_human(report) + "\n")
    elif fmt == "csv":  # the Gram matrix of a gram report, one row per line
        for row in report["gram"]["entries"]:
            stream.write(",".join(_csv_cell(x) for x in row) + "\n")
    else:
        raise UsageError(f"unknown format {fmt!r}")


# -- entry point -----------------------------------------------------------------


def run(argv, stream=None, err_stream=None) -> int:
    """Parse argv, dispatch, and emit; returns the exit code."""
    stream = sys.stdout if stream is None else stream
    err_stream = sys.stderr if err_stream is None else err_stream
    try:
        args = build_parser().parse_args(argv)
        if args.subcommand is None:
            raise UsageError("a subcommand is required: " + ", ".join(SUBCOMMANDS))
        csv_allowed = args.subcommand == "gram" or (args.subcommand == "simulate" and args.out)
        if args.format == "csv" and not csv_allowed:
            raise UsageError("csv output is only available for gram, and for simulate with --out")
        config = RunConfig(
            subcommand=args.subcommand,
            degree=args.degree,
            tol_eig=args.tol_eig,
            tol_orth=args.tol_orth,
            tol_nilp=args.tol_nilp,
            fmt=args.format,
        )
        if args.subcommand == "analyze":
            report = _cmd_analyze(args, config)
        elif args.subcommand == "spectrum":
            report = _cmd_spectrum(args, config)
        elif args.subcommand == "gram":
            report = _cmd_gram(args, config)
        elif args.subcommand == "normalize":
            report = _cmd_normalize(args, config)
        elif args.subcommand == "simulate":
            report, ensemble = _cmd_simulate(args, config)
            if config.fmt == "csv":
                ensemble_to_csv(ensemble, args.out + ".csv")
                report["simulation"]["written"]["csv"] = args.out + ".csv"
                emit(report, "json", stream)
                return EXIT_OK
        else:
            report = _cmd_paper_example(args, config)
        emit(report, config.fmt, stream)
    except UsageError as e:
        err_stream.write(f"usage error: {e}\n")
        return EXIT_USAGE
    except RankDecisionAmbiguous as e:
        err_stream.write(f"numerical ambiguity: {e}\n")
        return EXIT_AMBIGUOUS
    except ValidationError as e:
        err_stream.write(f"validation error: {e}\n")
        return EXIT_VALIDATION
    except OUSpectraError as e:
        err_stream.write(f"error: {e}\n")
        return EXIT_VALIDATION
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
