"""Command line front end: subcommand dispatch and report emission.

Reports are JSON by default ("human" renders the same payload as text,
"csv" is available for Gram matrices and small sample dumps). Rational
values serialize as "p/q" strings because JSON numbers are doubles and
exactness is the point; complex values serialize as {"re": .., "im": ..}.
A JSON report puts each object key on its own line, and each item of a list
of objects or arrays (a pair, a group, a spectrum point, a matrix row) on its
own line as compact JSON; everything else is compact. The spectrum points,
eigen-groups, orthogonality pairs and section 5 eigenfunctions are sections
(EncodedLines) whose JSON text, the bytes json.dumps would write, is made
from the arrays while it is written, in chunks of about CHUNK characters.

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
    index_degree,
    monomial_basis,
    monomial_text,
    signed_terms,
    term_text,
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
    listed_mask,
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
CHUNK = 1 << 18  # characters of a list that _write_json joins into one write

SUBCOMMANDS = ("analyze", "spectrum", "gram", "normalize", "simulate", "paper-example")

_SCALAR_SCHEMA = {
    "oneOf": [
        {"type": "number"},
        {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"},
        {"type": "object", "required": ["re", "im"], "properties": {"re": {}, "im": {}}},
    ]
}
_MATRIX_SCHEMA = {"type": "array", "items": {"type": "array", "items": _SCALAR_SCHEMA}}

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
                t: {"type": "number", "exclusiveMinimum": 0} for t in ("tol_eig", "tol_orth", "tol_nilp")
            },
        },
        "conventions": {"type": "object"},
        "model": {
            "type": "object",
            "required": ["dim", "Q", "B"],
            "properties": {"dim": {"type": "integer", "minimum": 1}, "Q": _MATRIX_SCHEMA,
                           "B": _MATRIX_SCHEMA},
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
            if not 0 < getattr(self, name) < math.inf:
                raise UsageError(f"--{name.replace('_', '-')} must be finite and positive")


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


class EncodedLines:
    """A list whose items are JSON text made while the report is written:
    texts(joint) yields pieces of the list's text, each one item or several
    joined by joint. _write_json writes them joined by ",\\n" and its indent;
    iterating gives the items, one per line, and render_human decodes them."""

    def __init__(self, texts):
        self.texts = texts

    def __iter__(self):
        text = "\n".join(self.texts("\n"))
        return iter(text.split("\n") if text else ())


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
    return EncodedLines(lambda joint: [joint.join(
        f'{{"value": {{"re": {x!r}, "im": {y!r}}}, "witnesses": [{", ".join(rows[lo:hi])}], '
        f'"degrees": [{", ".join(degrees[lo:hi])}]}}'
        for x, y, lo, hi in zip(z.real.tolist(), z.imag.tolist(), b, b[1:])
    )])


def _polynomial_texts(dim: int, alphas: list, columns: np.ndarray, denominators):
    """The writer of every polynomial of a report: columns lists them on the
    exponent rows alphas, ascending by (degree, exponent), each over its
    denominator (floats over 1). texts(lo, hi) is the text json.dumps writes
    for the objects of columns lo..hi-1, joined by ", ": the terms of
    listed_mask in row order, floats by float.__repr__ and rationals as "p/q"
    strings, and "text" rendering them reversed, as render_terms does. Each
    polynomial's terms and text are one % over per-row templates, picked
    here with their values, so a non-finite value is refused before any text."""
    listed, real = (np.ascontiguousarray(m.T) for m in listed_mask(columns))  # [k, r]
    counts = listed.sum(axis=1)
    if columns.dtype == object:
        kind, parts = np.full(listed.shape, 2), np.zeros((*listed.shape, 2), dtype=object)
        dens = np.repeat(denominators, counts).tolist()
        parts[listed, 0] = [str(Fraction(x, d)) for x, d in zip(columns.T[listed].tolist(), dens)]
        near, written = listed, parts[listed, 0].tolist()
    else:
        Z = columns.T.copy()
        kind, parts = np.where(real, 0, 1), np.stack([Z.real, Z.imag], axis=-1)
        # the few coefficients '%g' may write as 1 or -1, which term_text writes as a sign
        near = listed & real & (np.abs(np.abs(Z.real) - 1) < 1e-5)
        written = ["%g" % x for x in Z.real[near].tolist()]
    sign = np.zeros(listed.shape, int)
    sign[near] = [(t == "1") - (t == "-1") for t in written]
    # the values of the terms in row order, and of the text terms reversed
    imag, shown = listed & ~real, listed & (sign == 0)
    term_values = parts[np.stack([listed, imag], -1)].tolist()
    text_values = parts[:, ::-1][np.stack([shown, imag], -1)[:, ::-1]].tolist()
    term_ends = [0, *np.cumsum(counts + imag.sum(axis=1)).tolist()]
    text_ends = [0, *np.cumsum(shown.sum(axis=1) + imag.sum(axis=1)).tolist()]
    row = np.arange(len(alphas))
    term_keys = (3 * row + kind)[listed].tolist()
    text_keys = (5 * row + np.where(sign == 0, kind, np.where(sign > 0, 3, 4)))[listed].tolist()
    bounds = [0, *np.cumsum(counts).tolist()]
    # the % templates in use: a row's term by kind (real, complex, rational), and
    # its text term by kind and for the coefficients written 1 and -1
    heads = [f'{{"alpha": [{", ".join(map(str, a))}], "re": ' for a in alphas]
    term_kinds = ('%r, "im": 0.0}', '%r, "im": %r}', '"%s", "im": "0"}')
    term_table = {k: heads[k // 3] + term_kinds[k % 3] for k in set(term_keys)}
    monomials, text_kinds = list(map(monomial_text, alphas)), ("%g", "(%g%+gj)", "%s", "1", "-1")
    text_table = {k: term_text(monomials[k // 5], text_kinds[k % 5]) for k in set(text_keys)}

    def polynomial(k: int) -> str:
        a, b = bounds[k], bounds[k + 1]
        terms = ", ".join(map(term_table.__getitem__, term_keys[a:b]))
        text = " + ".join(map(text_table.__getitem__, reversed(text_keys[a:b])))
        terms %= tuple(term_values[term_ends[k] : term_ends[k + 1]])
        text %= tuple(text_values[text_ends[k] : text_ends[k + 1]])
        # monomial and coefficient texts hold no character JSON escapes
        return f'{{"dim": {dim}, "terms": [{terms}], "text": "{signed_terms(text) or "0"}"}}'

    return lambda lo, hi: ", ".join(map(polynomial, range(lo, hi)))


def _group_lines(dec, tol_nilp: float) -> EncodedLines:
    """The groups, each the text json.dumps writes for its object, made while
    written. All groups' columns go to one _polynomial_texts, rows ascending
    by (degree, exponent): on the graded-lex basis, each degree block
    reversed. A non-finite value is refused before any text is made."""
    indices, groups = dec.basis.indices, dec.groups
    order = [k for sl in dec.basis.blocks for k in reversed(range(sl.start, sl.stop))]
    residuals = [float(g.max_power_residual) for g in groups]
    if not all(map(math.isfinite, residuals)):
        raise ConvergenceFailure("an eigen-group has a non-finite value, which JSON cannot hold")
    sizes = [g.coefficients.shape[1] for g in groups]
    columns = np.hstack([g.coefficients for g in groups])[order]
    denominators = np.repeat([g.denominator for g in groups], sizes)
    polynomials = _polynomial_texts(dec.basis.dim, [indices[k] for k in order], columns, denominators)
    bounds = [0, *np.cumsum(sizes).tolist()]
    return EncodedLines(lambda joint: (
        f'{{"eigenvalue": {{"re": {z.real!r}, "im": {z.imag!r}}}, '
        f'"multiplicity": {g.multiplicity}, "nilpotency_index": {g.nilpotency_index}, '
        f'"max_power_residual": {residual!r}, '
        f'"residual_within_tol": {"true" if residual <= tol_nilp else "false"}, '
        f'"basis": [{polynomials(lo, hi)}]}}'
        for g, z, residual, lo, hi in zip(groups, map(complex, (g.eigenvalue for g in groups)),
                                          residuals, bounds, bounds[1:])
    ))


def _orthogonality_json(report) -> dict:
    """The verdict, with the pairs made from the pair Gram while written,
    each the text json.dumps writes for its object. Group i's pairs are one
    % template: per pair its head, an eigenvalue text and a tail by block
    shape and kind (_pair_tail). One tuple cut from H fills it: per pair the
    largest normalized entry, then the block row by row, re and im, or re
    alone where each im is +0.0; a pair that shares no degree
    (report.disjoint) is +0.0 and takes none. Non-finite entries are refused
    here, before any text is made."""
    H, worst, disjoint, tol = report.gram, report.worst, report.disjoint, report.tol_orth
    if not (np.isfinite(H).all() and np.isfinite(worst).all()):
        raise ConvergenceFailure("the pair Gram has a non-finite entry, which JSON cannot hold")
    eigenvalues = [f'{{"re": {z.real!r}, "im": {z.imag!r}}}' for z in map(complex, report.eigenvalues)]
    starts = report.starts
    sizes = np.diff([*starts.tolist(), len(H)])
    group = np.repeat(np.arange(len(sizes)), sizes)[:, None]  # the group of each row
    offset = np.arange(len(H)) - starts[group[:, 0]]
    complex_cells = (H.imag != 0) | np.signbit(H.imag)
    real = ~np.logical_or.reduceat(np.logical_or.reduceat(complex_cells, starts, 0), starts, 1)
    live = np.triu(~disjoint, 1)
    width = 2 - real  # values per block entry
    length = np.where(live, 1 + width * np.outer(sizes, sizes), 0)  # values per pair
    first = (np.cumsum(length) - length.ravel()).reshape(length.shape)
    values = np.empty(length.sum())
    values[first[live]] = worst[live]
    cells, w = live[group, group.T], width[group, group.T]
    at = first[group, group.T] + 1 + w * (offset[:, None] * sizes[group.T] + offset)
    values[at[cells]] = H.real[cells]
    values[at[cells & (w == 2)] + 1] = H.imag[cells & (w == 2)]
    values, ends = values.tolist(), [0, *np.cumsum(length.sum(axis=1)).tolist()]
    keys = 4 * disjoint + 2 * (worst < tol) + real + 8 * np.arange(len(sizes))  # 8 j + kind
    upper = np.triu(np.ones(keys.shape, bool), 1)
    # by the rows of group i, the pair texts after its head that its pairs use
    tables = {
        rows: {k: eigenvalues[k // 8] + _pair_tail(rows, sizes[k // 8], k % 8)
               for k in np.flatnonzero(np.bincount(keys[upper & (sizes == rows)[:, None]])).tolist()}
        for rows in set(sizes[:-1].tolist())
    }
    keys, sizes = keys.tolist(), sizes.tolist()

    def texts(joint: str):
        for i, rows in enumerate(sizes[:-1]):
            head = f'{{"eigenvalue_i": {eigenvalues[i]}, "eigenvalue_j": '
            template = head + (joint + head).join(map(tables[rows].__getitem__, keys[i][i + 1 :]))
            yield template % tuple(values[ends[i] : ends[i + 1]])

    return {"tol_orth": tol, "all_orthogonal": report.all_orthogonal, "pairs": EncodedLines(texts)}


@cache
def _pair_tail(rows: int, cols: int, kind: int) -> str:
    """A pair's text after its eigenvalues as a % template, for a rows x cols
    block whose kind bits say zero (all +0.0, written out), orthogonal and
    real (each im +0.0)."""
    zero, orthogonal, real = kind & 4, kind & 2, kind & 1
    cell = '{"re": 0.0, "im": 0.0}' if zero else '{"re": %r, "im": 0.0}' if real else '{"re": %r, "im": %r}'
    block = "], [".join([", ".join([cell] * cols)] * rows)
    return (f', "max_normalized": {"0.0" if zero else "%r"}, "orthogonal": '
            f'{"true" if orthogonal else "false"}, "gram_block": [[{block}]]}}')


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
    report["gram"] = {"basis": basis.exponents.tolist(), "normalized": bool(args.normalized),
                      "entries": matrix_json(g)}
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
        raise InvalidParams(f"--paths must be at least 2 for an empirical covariance, got {args.paths}")
    sim = SimConfig(model=model, step=args.step, paths=args.paths, seed=args.seed, burn_in=args.burn_in)
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
        "max_relative_covariance_error": float(np.abs(emp - q_inf).max() / np.abs(q_inf).max()),
    }
    if args.out:
        sidecar = save_ensemble(ensemble, args.out)
        report["simulation"]["written"] = {"data": args.out, "sidecar": args.out + ".json"}
        report["simulation"]["sidecar"] = sidecar
    return report, ensemble


def _cmd_paper_example(args, config: RunConfig) -> dict:
    if args.example == "section4":
        return _example_section4(config)
    params = Section5Params(*(_rational_flag(args, name) for name in "adc"))
    return _example_section5(config, params)


def _rational_flag(args, name: str) -> Fraction:
    """The value of --name as a rational; a usage error names the flag."""
    text = getattr(args, name)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"--{name} must be a rational such as 3/2, got {text!r}") from e


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
        a_matrix = operator_matrix(model, n, "hermite-normal-form", operator="A", homogeneous=True).as_array()
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
        "rotation_split": {"D_lambda": matrix_json(split.D_lambda), "C": matrix_json(split.C)},
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
    alphas = sorted({a for v, _ in eigenfunctions for a in v.terms}, key=lambda a: (index_degree(a), a))
    columns = np.array([[v.terms.get(a, 0) for v, _ in eigenfunctions] for a in alphas], dtype=object)
    polynomials = _polynomial_texts(2, alphas, columns, [1] * len(names))
    funcs = [
        f'{{"name": "{name}", "polynomial": {polynomials(k, k + 1)}, '
        f'"eigenvalue": {json.dumps(scalar_json(mu))}, '
        f'"generator_residual_zero": {json.dumps((apply_L(model, v) - v * mu).is_zero)}}}'
        for k, (name, (v, mu)) in enumerate(zip(names, eigenfunctions))
    ]
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
        "eigenfunctions": EncodedLines(lambda joint: funcs),
        "pairings": pairings,
        "v1_v3_closed_form": scalar_json(1 / (2 * a * a)),
        "whitening": {"H": matrix_json(whitening.H), "covariance_after": matrix_json(pushforward)},
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
    of objects or arrays one item per line, joined by ",\\n" and the indent
    in writes of about CHUNK characters. EncodedLines make their items'
    text while written; every other item and value is one json.dumps call,
    which takes the C encoder. The report never sits whole in memory."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        sep = "{\n"
        for key, item in value.items():
            stream.write(f"{sep}{inner}{json.dumps(key)}: ")
            _write_json(item, stream, inner)
            sep = ",\n"
        stream.write(f"\n{indent}}}")
    elif isinstance(value, EncodedLines) or (
        isinstance(value, list) and value and all(isinstance(x, (dict, list)) for x in value)
    ):
        joint = ",\n" + inner
        texts = value.texts(joint) if isinstance(value, EncodedLines) else map(json.dumps, value)
        sep, pieces, size = "[\n" + inner, [], 0
        for text in texts:
            pieces += (sep, text)
            sep, size = joint, size + len(text)
            if size >= CHUNK:
                stream.write("".join(pieces))
                pieces, size = [], 0
        pieces.append("[]" if sep != joint else f"\n{indent}]")
        stream.write("".join(pieces))
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
            args.subcommand, args.degree, args.tol_eig, args.tol_orth, args.tol_nilp, args.format
        )
        if args.subcommand == "simulate":
            report, ensemble = _cmd_simulate(args, config)
            if config.fmt == "csv":
                ensemble_to_csv(ensemble, args.out + ".csv")
                report["simulation"]["written"]["csv"] = args.out + ".csv"
                emit(report, "json", stream)
                return EXIT_OK
        else:
            command = {"analyze": _cmd_analyze, "spectrum": _cmd_spectrum, "gram": _cmd_gram,
                       "normalize": _cmd_normalize, "paper-example": _cmd_paper_example}
            report = command[args.subcommand](args, config)
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
