"""The four workloads: inputs made from the seed, the CLI calls of one job,
and the checks of each call's report.

Building inputs needs only numpy and fractions, so that a set-up probe can
time it apart from importing ou_spectra. Every job of a run repeats the same
calls on the same inputs, so every job costs the same.

The families are chosen so that a job's cost does not depend on the seed:
the float drifts have a fixed number of eigen-groups and well separated
eigenvalue sums, the exact drifts vary only in signs and in the order of
fixed entries, and every simulated model has the same burn-in (28 steps of
0.5) and the same slowest decay rate.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

import oracles

DEGREE_DENSE = 6
DEGREE_TRIANGULAR = 4
DEGREE_JORDAN = 5
DEGREE_GRAM = 5
DEGREE_SECTION4 = 12
DEGREE_SPECTRUM = 5
SIM_PATHS = 100_000
SIM_STEP = 0.5
Z_LIMIT = 5.0  # Monte Carlo checks allow 5 standard errors


class CheckFailed(Exception):
    """A report disagrees with the reference computation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def exact_rows(m) -> list[list[str]]:
    """A rational matrix as the CLI reads it exactly: "p/q" strings."""
    return [[str(Fraction(x)) for x in row] for row in m]


def to_float(m) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in m])


def model_args(Q, B) -> list[str]:
    return ["--Q", json.dumps(Q), "--B", json.dumps(B)]


def random_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def min_gap(values) -> float:
    ordered = sorted(values, key=lambda z: (z.real, z.imag))
    return min(abs(b - a) for a, b in zip(ordered, ordered[1:]))


def pattern_sums(eigs, cap: int) -> list[complex]:
    return [
        sum(combo, 0j)
        for n in range(cap + 1)
        for combo in combinations_with_replacement([complex(z) for z in eigs], n)
    ]


# -- report parsing ------------------------------------------------------------


def load_report(path: str) -> dict:
    """Parse a report as strict JSON: a bare NaN or Infinity fails."""

    def reject(token):
        raise CheckFailed(f"report holds the non-JSON constant {token}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def as_complex(z) -> complex:
    return complex(z["re"], z["im"])


def as_fraction_matrix(m) -> list[list[Fraction]]:
    """Exact entries: "p/q" strings, or integers where the value is whole."""
    expect(
        all(isinstance(x, (str, int)) and not isinstance(x, bool) for row in m for x in row),
        "matrix is not exact",
    )
    return [[Fraction(x) for x in row] for row in m]


def as_polynomial(p: dict) -> dict:
    """{alpha: coefficient}; Fractions when the report is exact."""
    out = {}
    for t in p["terms"]:
        if isinstance(t["re"], str):
            expect(t["im"] in ("0", 0), "exact coefficient with an imaginary part")
            out[tuple(t["alpha"])] = Fraction(t["re"])
        else:
            out[tuple(t["alpha"])] = complex(t["re"], t["im"])
    return out


def coordinates(poly: dict, monomials) -> np.ndarray:
    pos = {a: k for k, a in enumerate(monomials)}
    v = np.zeros(len(monomials), dtype=complex)
    for a, c in poly.items():
        v[pos[a]] = complex(c)
    return v


# -- checks shared by the analyze-style reports ---------------------------------


def match_values(reported, expected, tol: float, what: str, one_to_one=True) -> list[int]:
    """Index into ``expected`` of the value nearest each reported one; every
    distance must be within tol * max(1, |v|) and, unless told otherwise, the
    match one to one."""
    from scipy.spatial import cKDTree

    r = np.array(reported, dtype=complex)
    e = np.array(expected, dtype=complex)
    dist, idx = cKDTree(np.column_stack([e.real, e.imag])).query(np.column_stack([r.real, r.imag]))
    if one_to_one:
        expect(
            len(r) == len(e) == len(set(idx.tolist())),
            f"{what}: {len(r)} values do not match the {len(e)} expected one to one",
        )
    worst = dist / np.maximum(1.0, np.abs(e[idx]))
    expect(float(worst.max(initial=0.0)) <= tol, f"{what}: a value is {worst.max():.2e} off")
    return idx.tolist()


def check_groups_match(groups, expected, what: str) -> None:
    """Group eigenvalues and multiplicities against (value, multiplicity)."""
    idx = match_values(
        [as_complex(g["eigenvalue"]) for g in groups], [v for v, _ in expected], 1e-6, what
    )
    for g, k in zip(groups, idx):
        value, mult = expected[k]
        expect(
            g["multiplicity"] == mult == len(g["basis"]),
            f"{what}: group at {value} has multiplicity {g['multiplicity']} and "
            f"{len(g['basis'])} basis polynomials, expected {mult}",
        )


def check_power_residuals(groups, Q, B, dim: int, cap: int, what: str) -> None:
    """(L - mu)^k v ~ 0 for every basis polynomial, under the benchmark's
    own generator matrix."""
    monomials = oracles.graded_monomials(dim, cap)
    M = oracles.generator_matrix(Q, B, monomials)
    norm_m = np.linalg.norm(M, 2)
    for g in groups:
        mu = as_complex(g["eigenvalue"])
        k = g["nilpotency_index"]
        P = M - mu * np.eye(len(monomials))
        V = np.array([coordinates(as_polynomial(p), monomials) for p in g["basis"]]).T
        R = np.linalg.matrix_power(P, k) @ V
        scale = (norm_m + abs(mu)) ** k * np.linalg.norm(V, axis=0)
        worst = float(np.max(np.linalg.norm(R, axis=0) / scale))
        expect(worst <= 1e-10, f"{what}: (L - {mu})^{k} v is {worst:.2e} from zero")


def check_pairings(report, S, dim: int, cap: int, what: str, all_orthogonal=False) -> None:
    """Every pair's Gram block, normalized maximum and verdict against
    Gauss-Hermite quadrature of the reported basis polynomials; groups at a
    nonzero eigenvalue must have mean zero."""
    groups = report["groups"]
    monomials = oracles.graded_monomials(dim, cap)
    G = oracles.quadrature_gram(S, monomials)
    one = np.zeros(len(monomials))
    one[0] = 1.0
    coords, norms = [], []
    for g in groups:
        V = np.array([coordinates(as_polynomial(p), monomials) for p in g["basis"]]).T
        n = np.sqrt(np.abs(np.einsum("ia,ij,ja->a", V, G, V.conj())))
        coords.append(V)
        norms.append(n)
        if abs(as_complex(g["eigenvalue"])) > 1e-9:
            mean = np.abs(one @ G @ V.conj()) / n
            expect(
                float(mean.max()) <= 1e-9,
                f"{what}: group at {as_complex(g['eigenvalue'])} has mean {mean.max():.2e}",
            )
    orth = report["orthogonality"]
    tol = orth["tol_orth"]
    pairs = orth["pairs"]
    expect(
        len(pairs) == len(groups) * (len(groups) - 1) // 2,
        f"{what}: {len(pairs)} pairs for {len(groups)} groups",
    )
    k = 0
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            p = pairs[k]
            k += 1
            expect(
                as_complex(p["eigenvalue_i"]) == as_complex(groups[i]["eigenvalue"])
                and as_complex(p["eigenvalue_j"]) == as_complex(groups[j]["eigenvalue"]),
                f"{what}: pair {k - 1} is not groups ({i}, {j})",
            )
            # Gram blocks are reported for coefficient vectors of unit
            # Euclidean norm; the listed exact polynomials are not scaled so
            block = coords[i].T @ G @ coords[j].conj()
            unit = np.outer(np.linalg.norm(coords[i], axis=0), np.linalg.norm(coords[j], axis=0))
            reported = np.array([[as_complex(x) for x in row] for row in p["gram_block"]])
            scale = np.outer(norms[i], norms[j])
            err = float(np.max(np.abs(block - reported * unit) / scale))
            expect(err <= 1e-9, f"{what}: Gram block ({i}, {j}) off by {err:.2e}")
            worst = float(np.max(np.abs(block) / scale))
            expect(
                abs(worst - p["max_normalized"]) <= 1e-9,
                f"{what}: pair ({i}, {j}) max_normalized {p['max_normalized']:.3e}, "
                f"quadrature gives {worst:.3e}",
            )
            expect(
                p["orthogonal"] == (worst < tol),
                f"{what}: pair ({i}, {j}) verdict {p['orthogonal']} at {worst:.3e}",
            )
            if all_orthogonal:
                expect(p["orthogonal"], f"{what}: pair ({i}, {j}) is not orthogonal")
    expect(
        orth["all_orthogonal"] == all(p["orthogonal"] for p in pairs),
        f"{what}: all_orthogonal disagrees with the pairs",
    )


# -- float_dense -----------------------------------------------------------------


class FloatDense:
    """analyze --degree 6 on a dense non-resonant 4-D float drift.

    A resonant drift (spectrum -1..-4 under a random similarity) is left
    out: on some seeds the SVD in spectral._nullspace_bounded does not
    converge and the call ends in a LinAlgError traceback, and an operation
    that fails on some seeds only cannot be counted steadily."""

    name = "float_dense"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        dim = 4
        # drift eigenvalues whose 210 pattern sums stay 0.005 apart
        while True:
            lam = -np.sort(rng.uniform(0.5, 2.5, dim))
            if min_gap(pattern_sums(lam, DEGREE_DENSE)) >= 0.005:
                break
        # a random similarity V = R (I + 0.1 G), R orthogonal, cond(V) < 4
        while True:
            V = random_orthogonal(rng, dim) @ (np.eye(dim) + 0.1 * rng.standard_normal((dim, dim)))
            if np.linalg.cond(V) < 4:
                break
        self.B = V @ np.diag(lam) @ np.linalg.inv(V)
        W = rng.standard_normal((dim, dim))
        self.Q = np.eye(dim) + W @ W.T / (2 * dim)

    def calls(self, out: str) -> list[tuple[str, list[str]]]:
        return [("dense", ["analyze", *model_args(self.Q.tolist(), self.B.tolist()),
                           "--degree", str(DEGREE_DENSE)])]

    def check(self, label: str, report: dict, out: str) -> None:
        import scipy.linalg

        B = self.B
        dim = B.shape[0]
        expect(report["backend"] == "float", f"{label}: backend {report['backend']}")
        S = scipy.linalg.solve_continuous_lyapunov(B, -self.Q)
        q_inf = np.array(report["q_infinity"], dtype=float)
        expect(
            np.abs(q_inf - S).max() <= 1e-9 * np.abs(S).max(),
            f"{label}: q_infinity differs from scipy's Lyapunov solution",
        )
        expected = oracles.eigenvalue_multiset(np.linalg.eigvals(B), DEGREE_DENSE, 1e-6)
        groups = report["groups"]
        check_groups_match(groups, expected, label)
        expect(
            sum(g["multiplicity"] for g in groups) == math.comb(dim + DEGREE_DENSE, dim),
            f"{label}: total multiplicity is not C(N+d, d)",
        )
        check_power_residuals(groups, self.Q.tolist(), B.tolist(), dim, DEGREE_DENSE, label)
        check_pairings(report, S, dim, DEGREE_DENSE, label)


# -- exact_triangular ---------------------------------------------------------------


class ExactTriangular:
    """Exact analyze on a lower-triangular 3-D drift with distinct eigenvalues
    and on a single-eigenvalue Jordan-type one, paper-example section5 with
    resonant and non-resonant (a, d, c), and gram on a dense rational model."""

    name = "exact_triangular"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])

        def signs(k):
            return [int(s) for s in rng.choice([-1, 1], k)]

        def shuffled(values):
            return [values[i] for i in rng.permutation(len(values))]

        F = Fraction
        d1, d2, d3 = shuffled([F(-2), F(-3), F(-5)])
        o = [s * v for s, v in zip(signs(3), shuffled([F(1, 2), F(1), F(2)]))]
        self.tri_B = [[d1, 0, 0], [o[0], d2, 0], [o[1], o[2], d3]]
        self.tri_Q = self._diagonal(shuffled([F(1), F(2), F(3)]))
        o = [s * v for s, v in zip(signs(3), shuffled([F(1, 2), F(1), F(2)]))]
        self.jordan_B = [[F(-1), 0, 0], [o[0], F(-1), 0], [o[1], o[2], F(-1)]]
        self.jordan_Q = self._diagonal(shuffled([F(1), F(2), F(3)]))
        a = [F(2), F(4)][rng.integers(2)]
        self.section5 = [
            (a, a / 2, F(signs(1)[0] * [1, 2][rng.integers(2)])),
            (F(3), [F(1), F(1, 2)][rng.integers(2)], F(signs(1)[0], [1, 2][rng.integers(2)])),
        ]
        off = [s * v for s, v in zip(signs(3), shuffled([F(1, 2), F(1, 2), F(1)]))]
        g1, g2, g3 = shuffled([F(-3), F(-4), F(-5)])
        self.gram_B = [[g1, off[0], off[1]], [off[2], g2, off[0]], [off[1], off[2], g3]]
        q = [s * F(1, 2) for s in signs(2)]
        self.gram_Q = [[F(2), q[0], 0], [q[0], F(2), q[1]], [0, q[1], F(1)]]

    @staticmethod
    def _diagonal(values):
        return [[values[i] if i == j else Fraction(0) for j in range(3)] for i in range(3)]

    def calls(self, out: str) -> list[tuple[str, list[str]]]:
        out_calls = [
            ("triangular", ["analyze", *model_args(exact_rows(self.tri_Q), exact_rows(self.tri_B)),
                            "--degree", str(DEGREE_TRIANGULAR)]),
            ("jordan", ["analyze", *model_args(exact_rows(self.jordan_Q), exact_rows(self.jordan_B)),
                        "--degree", str(DEGREE_JORDAN)]),
        ]
        for k, (a, d, c) in enumerate(self.section5):
            # "--c=-1/2": argparse takes a separate "-1/2" for an option
            out_calls.append((f"section5-{k}", ["paper-example", "section5", f"--a={a}",
                                                f"--d={d}", f"--c={c}"]))
        out_calls.append(("gram", ["gram", *model_args(exact_rows(self.gram_Q), exact_rows(self.gram_B)),
                                   "--degree", str(DEGREE_GRAM)]))
        return out_calls

    def check(self, label: str, report: dict, out: str) -> None:
        if label in ("triangular", "jordan"):
            self._check_analyze(label, report)
        elif label.startswith("section5"):
            self._check_section5(label, report, *self.section5[int(label[-1])])
        else:
            self._check_gram(report)

    def _exact_covariance(self, label, report, Q, B):
        S = as_fraction_matrix(report["q_infinity"])
        residual = oracles.lyapunov_residual(Q, B, S)
        expect(
            all(x == 0 for row in residual for x in row),
            f"{label}: Lyapunov residual of q_infinity is not exactly zero",
        )
        return S

    def _check_analyze(self, label, report):
        Q, B, cap = (
            (self.tri_Q, self.tri_B, DEGREE_TRIANGULAR)
            if label == "triangular"
            else (self.jordan_Q, self.jordan_B, DEGREE_JORDAN)
        )
        expect(report["backend"] == "exact", f"{label}: backend {report['backend']}")
        S = self._exact_covariance(label, report, Q, B)
        diag = [B[i][i] for i in range(3)]
        sums: dict = {}
        for n in range(cap + 1):
            for combo in combinations_with_replacement(diag, n):
                v = sum(combo, Fraction(0))
                sums[v] = sums.get(v, 0) + 1
        expected = sorted(sums.items(), key=lambda vm: -vm[0])
        groups = report["groups"]
        expect(len(groups) == len(expected), f"{label}: {len(groups)} groups, expected {len(expected)}")
        for g, (mu, mult) in zip(groups, expected):
            expect(
                as_complex(g["eigenvalue"]) == complex(float(mu)),
                f"{label}: group eigenvalue {g['eigenvalue']} is not exactly {mu}",
            )
            expect(
                g["multiplicity"] == mult == len(g["basis"]),
                f"{label}: group at {mu} has multiplicity {g['multiplicity']}, expected {mult}",
            )
            k = g["nilpotency_index"]
            polys = [as_polynomial(p) for p in g["basis"]]
            for p in polys:
                expect(
                    not oracles.exact_power_residual(Q, B, p, mu, k),
                    f"{label}: (L - {mu})^{k} v is not exactly zero",
                )
            expect(
                k == 1 or any(oracles.exact_power_residual(Q, B, p, mu, k - 1) for p in polys),
                f"{label}: nilpotency index {k} at {mu} is not the least",
            )
        # the paper's theorem: one drift eigenvalue makes every pair orthogonal
        check_pairings(report, to_float(S), 3, cap, label, all_orthogonal=label == "jordan")

    def _check_section5(self, label, report, a, d, c):
        Q = [[Fraction(1), 0], [0, Fraction(1)]]
        B = [[-a + d, 0], [c, -a - d]]
        S = self._exact_covariance(label, report, Q, B)
        ex = report["example"]
        resonant = d * 2 == a
        expect(ex["resonant"] == resonant, f"{label}: resonant flag {ex['resonant']}")
        funcs = {f["name"]: f for f in ex["eigenfunctions"]}
        expected_mu = {"v1": -2 * (a - d), "v2": -2 * a, "v3": -2 * (a + d)}
        if resonant:
            expected_mu["v4"] = -2 * a
        expect(sorted(funcs) == sorted(expected_mu), f"{label}: eigenfunctions {sorted(funcs)}")
        polys = {}
        for name, mu in expected_mu.items():
            f = funcs[name]
            expect(Fraction(f["eigenvalue"]) == mu, f"{label}: {name} eigenvalue {f['eigenvalue']}")
            p = as_polynomial(f["polynomial"])
            expect(
                f["generator_residual_zero"] and not oracles.exact_power_residual(Q, B, p, mu, 1),
                f"{label}: L {name} is not exactly {mu} {name}",
            )
            polys[name] = p
        target = Fraction(1) / (2 * a * a)
        expect(
            Fraction(ex["pairings"]["<v1,v3>"]) == target == Fraction(ex["v1_v3_closed_form"]),
            f"{label}: <v1, v3> = {ex['pairings']['<v1,v3>']}, expected {target}",
        )
        names = sorted(polys)
        for i, u in enumerate(names):
            expect(
                Fraction(ex["pairings"][f"<1,{u}>"]) == 0,
                f"{label}: <1, {u}> is not zero",
            )
            for v in names[i + 1 :]:
                expect(
                    Fraction(ex["pairings"][f"<{u},{v}>"]) == oracles.exact_pairing(S, polys[u], polys[v]),
                    f"{label}: <{u}, {v}> differs from the pair-partition value",
                )

    def _check_gram(self, report):
        S = self._exact_covariance("gram", report, self.gram_Q, self.gram_B)
        expect(S == oracles.solve_lyapunov_exact(self.gram_Q, self.gram_B), "gram: q_infinity is wrong")
        basis = [tuple(a) for a in report["gram"]["basis"]]
        expect(
            sorted(basis) == sorted(oracles.graded_monomials(3, DEGREE_GRAM)),
            "gram: basis is not every monomial up to the degree",
        )
        entries = as_fraction_matrix(report["gram"]["entries"])
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                expect(
                    entries[i][j] == oracles.pair_partition_moment(S, [x + y for x, y in zip(a, b)]),
                    f"gram: entry ({i}, {j}) differs from the pair-partition moment",
                )


# -- simulate ----------------------------------------------------------------------


class Simulate:
    """simulate --paths 100000 --out on a section5 model, then the Monte Carlo
    pairing <v1, v3> from the written samples."""

    name = "simulate"
    # (a, d, c): slowest decay a - d = 1 and the same burn-in for every choice
    FAMILY = [
        (Fraction(a), Fraction(d), Fraction(c))
        for a, d in (("2", "1"), ("3", "2"), ("5/2", "3/2"), ("4", "3"))
        for c in ("1", "-1", "1/2")
    ]

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.a, self.d, self.c = self.FAMILY[rng.integers(len(self.FAMILY))]
        self.sim_seed = int(rng.integers(2**31))
        self.estimates: dict = {}
        a, d, c = self.a, self.d, self.c
        self.Q = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        self.B = [[-a + d, Fraction(0)], [c, -a - d]]
        # v1 and v3 of the paper's section 5, whose pairing is 1/(2 a^2)
        self.v1 = {(2, 0): Fraction(1), (0, 0): -1 / (2 * (a - d))}
        self.v3 = {
            (2, 0): Fraction(1),
            (1, 1): -4 * d / c,
            (0, 2): 4 * d**2 / c**2,
            (0, 0): -(c**2 + 4 * d**2) / (2 * c**2 * (a + d)),
        }

    def argv(self, data_path: str) -> list[str]:
        return [
            "simulate", *model_args(exact_rows(self.Q), exact_rows(self.B)), "--paths", str(SIM_PATHS),
            "--seed", str(self.sim_seed), "--step", str(SIM_STEP), "--out", data_path,
        ]

    def calls(self, out: str) -> list[tuple[str, list[str]]]:
        return [("simulate", self.argv(os.path.join(out, "samples.f64")))]

    def check(self, label: str, report: dict, out: str) -> None:
        sim = report["simulation"]
        n = SIM_PATHS
        expect(sim["paths"] == n, f"simulate: {sim['paths']} paths, expected {n}")
        S = to_float(oracles.solve_lyapunov_exact(self.Q, self.B))
        emp = np.array(sim["empirical_covariance"], dtype=float)
        # sample covariance of a Gaussian: Var(x_i x_j) = S_ii S_jj + S_ij^2
        se = np.sqrt((np.outer(np.diag(S), np.diag(S)) + S**2) / n)
        z = float(np.max(np.abs(emp - S) / se))
        expect(z <= Z_LIMIT, f"simulate: empirical covariance is {z:.1f} standard errors off")
        mean = np.array(sim["empirical_mean"])
        z = float(np.max(np.abs(mean) / np.sqrt(np.diag(S) / n)))
        expect(z <= Z_LIMIT, f"simulate: empirical mean is {z:.1f} standard errors off")
        size = os.path.getsize(os.path.join(out, "samples.f64"))
        expect(size == n * 2 * 8, f"simulate: sample file holds {size} bytes")

    def after_calls(self, out: str) -> None:
        """The job's last step: the Monte Carlo pairing <v1, v3> from the
        samples the CLI wrote."""
        from ou_spectra import SparsePolynomial, validate_model
        from ou_spectra import simulate

        data = os.path.join(out, "samples.f64")
        with open(data + ".json") as fh:
            sidecar = json.load(fh)
        samples = np.fromfile(data, dtype="<f8").reshape(sidecar["paths"], sidecar["dim"])
        config = simulate.SimConfig(
            model=validate_model(self.Q, self.B), step=SIM_STEP, paths=SIM_PATHS, seed=self.sim_seed
        )
        ensemble = simulate.Ensemble(samples, config, sidecar["config_sha256"])
        self.estimates[out] = simulate.estimate_pairing(
            ensemble, SparsePolynomial(2, self.v1), SparsePolynomial(2, self.v3)
        )

    def check_job(self, out: str) -> None:
        estimate = self.estimates[out]
        target = float(1 / (2 * self.a * self.a))
        z = abs(estimate.estimate - target) / estimate.std_error
        expect(
            z <= Z_LIMIT,
            f"simulate: <v1, v3> = {estimate.estimate:.5f} +- {estimate.std_error:.5f}, "
            f"{z:.1f} jackknife errors from {target}",
        )

    def check_run(self, cli, out: str, log) -> bool:
        """Outside the timed jobs: the same call with one worker must write
        byte-identical samples."""
        one = os.path.join(out, "one-worker")
        os.mkdir(one)
        os.environ["OU_SPECTRA_THREADS"] = "1"
        try:
            with open(os.path.join(one, "simulate.json"), "w") as fh:
                code = cli.run(self.argv(os.path.join(one, "samples.f64")), stream=fh, err_stream=log)
        finally:
            del os.environ["OU_SPECTRA_THREADS"]
        with open(os.path.join(out, "samples.f64"), "rb") as a, open(os.path.join(one, "samples.f64"), "rb") as b:
            same = code == 0 and a.read() == b.read()
        if not same:
            log.write("simulate: samples differ between one worker and the default pool\n")
        return same


# -- hermite_spectrum ------------------------------------------------------------------


class HermiteSpectrum:
    """paper-example section4 --degree 12 and spectrum --degree 5 on a dense
    9-D float drift."""

    name = "hermite_spectrum"
    DIM = 9

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        n = self.DIM
        # nine distinct drift eigenvalues whose 2002 pattern sums stay apart
        while True:
            B = -1.5 * np.eye(n) + rng.standard_normal((n, n)) / math.sqrt(2 * n)
            eigs = np.linalg.eigvals(B)
            if eigs.real.max() < -0.2 and min_gap(pattern_sums(eigs, DEGREE_SPECTRUM)) >= 1e-4:
                break
        self.B = B

    def calls(self, out: str) -> list[tuple[str, list[str]]]:
        return [
            ("section4", ["paper-example", "section4", "--degree", str(DEGREE_SECTION4)]),
            ("spectrum", ["spectrum", *model_args(np.eye(self.DIM).tolist(), self.B.tolist()),
                          "--degree", str(DEGREE_SPECTRUM)]),
        ]

    def check(self, label: str, report: dict, out: str) -> None:
        if label == "spectrum":
            self._check_spectrum(report)
        else:
            self._check_section4(report)

    def _check_spectrum(self, report):
        expected = oracles.spectrum_compositions(np.linalg.eigvals(self.B), DEGREE_SPECTRUM, 1e-8)
        points = report["spectrum"]
        expect(
            len(points) == len(expected) == math.comb(self.DIM + DEGREE_SPECTRUM, self.DIM),
            f"spectrum: {len(points)} points, expected {len(expected)}",
        )
        idx = match_values(
            [as_complex(p["value"]) for p in points], [v for v, _ in expected], 1e-9, "spectrum"
        )
        for p, k in zip(points, idx):
            value, witnesses = expected[k]
            expect(
                [tuple(w) for w in p["witnesses"]] == witnesses,
                f"spectrum: witnesses of {value} are {p['witnesses']}, expected {witnesses}",
            )
            expect(p["degrees"] == [sum(w) for w in witnesses], f"spectrum: degrees of {value}")

    def _check_section4(self, report):
        Q = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        B = [[Fraction(-1), Fraction(1)], [Fraction(-1), Fraction(-1)]]
        S = oracles.solve_lyapunov_exact(Q, B)
        # C = 2B + D^-1 with D the diagonal of the stationary covariance
        c = float(2 * B[0][1])
        expect(S[0][1] == 0, "section4: stationary covariance is not diagonal")
        spaces = report["example"]["hermite_spaces"]
        expect(len(spaces) == DEGREE_SECTION4 + 1, f"section4: {len(spaces)} Hermite spaces")
        for space in spaces:
            n = space["degree"]
            R = oracles.hermite_rotation(c, n)
            A = np.array(space["doubled_operator_matrix"], dtype=float)
            expected = -2.0 * n * np.eye(n + 1) + R
            err = float(np.abs(A - expected).max())
            expect(err <= 1e-9 * max(1.0, np.abs(expected).max()),
                   f"section4: degree-{n} doubled operator is {err:.2e} from -2nI + rotation")
            err = float(np.abs(np.array(space["rotation_matrix"], dtype=float) - R).max())
            expect(err <= 1e-12 * max(1.0, np.abs(R).max()), f"section4: degree-{n} rotation matrix")
        # eigenvalues -(n1 + n2) + i(n1 - n2), each simple, all pairwise orthogonal
        expected = oracles.eigenvalue_multiset([complex(-1, 1), complex(-1, -1)], DEGREE_SECTION4, 1e-6)
        expect(all(m == 1 for _, m in expected), "section4: oracle eigenvalues are not simple")
        expect(
            report["example"]["nilpotency_indices"] == [1] * len(expected),
            "section4: generalized eigenspaces are not eigenspaces",
        )
        orth = report["example"]["orthogonality"]
        pairs = orth["pairs"]
        values = [v for v, _ in expected]
        seen = set()
        for p in pairs:
            i, j = (
                match_values([as_complex(p[key])], values, 1e-6, "section4", one_to_one=False)[0]
                for key in ("eigenvalue_i", "eigenvalue_j")
            )
            seen.add(frozenset((i, j)))
            expect(
                p["orthogonal"] and p["max_normalized"] < orth["tol_orth"],
                f"section4: pair ({values[i]}, {values[j]}) is not orthogonal "
                f"({p['max_normalized']:.2e})",
            )
        expect(
            len(pairs) == len(seen) == len(values) * (len(values) - 1) // 2,
            f"section4: {len(pairs)} pairs cover {len(seen)} of the eigenvalue pairs",
        )
        expect(orth["all_orthogonal"], "section4: all_orthogonal is false")


WORKLOADS = {w.name: w for w in (FloatDense, ExactTriangular, Simulate, HermiteSpectrum)}
