"""Reference computations the benchmark checks ou-spectra's outputs against.

Nothing here imports ou_spectra. Each oracle takes a different route from
the package:

- the generator is applied to monomials term by term from its definition;
- pairings under N(0, S) come from tensor Gauss-Hermite quadrature, not from
  the moment recursion;
- exact moments are sums over pair partitions of the index multiset;
- the Lyapunov equation is solved, and its residual taken, in Fractions;
- the spectrum is enumerated as compositions with
  ``itertools.combinations_with_replacement``;
- the Hermite rotation matrix is written from its closed-form entries.

Polynomials are dicts {exponent tuple: coefficient}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np


# -- the generator L f = 1/2 tr(Q D^2 f) + <Bx, grad f> ----------------------


def apply_generator(Q, B, poly: dict) -> dict:
    """L applied to a polynomial, term by term from the definition."""
    n = len(Q)
    out: dict = {}

    def add(alpha, c):
        if c != 0:
            out[alpha] = out.get(alpha, 0) + c

    for alpha, c in poly.items():
        for i in range(n):
            if alpha[i] == 0:
                continue
            lowered = list(alpha)
            lowered[i] -= 1
            # drift: (Bx)_i d/dx_i x^alpha = sum_j B_ij alpha_i x^(alpha - e_i + e_j)
            for j in range(n):
                if B[i][j] != 0:
                    beta = list(lowered)
                    beta[j] += 1
                    add(tuple(beta), B[i][j] * alpha[i] * c)
            # diffusion: 1/2 sum_j Q_ij d^2/dx_i dx_j x^alpha
            for j in range(n):
                if Q[i][j] == 0 or lowered[j] == 0:
                    continue
                beta = list(lowered)
                beta[j] -= 1
                add(tuple(beta), Q[i][j] * alpha[i] * lowered[j] * c / 2)
    return {a: c for a, c in out.items() if c != 0}


def graded_monomials(dim: int, cap: int) -> list[tuple[int, ...]]:
    """Every exponent vector of total degree <= cap, lowest degree first."""
    out = []
    for n in range(cap + 1):
        for combo in combinations_with_replacement(range(dim), n):
            alpha = [0] * dim
            for i in combo:
                alpha[i] += 1
            out.append(tuple(alpha))
    return out


def generator_matrix(Q, B, monomials) -> np.ndarray:
    """Float matrix of L on the given monomials (column j: image of monomial j)."""
    pos = {a: k for k, a in enumerate(monomials)}
    Qf = [[float(x) for x in row] for row in Q]
    Bf = [[float(x) for x in row] for row in B]
    m = np.zeros((len(monomials), len(monomials)))
    for j, alpha in enumerate(monomials):
        for beta, c in apply_generator(Qf, Bf, {alpha: 1.0}).items():
            m[pos[beta], j] = c
    return m


def exact_power_residual(Q, B, poly: dict, mu: Fraction, k: int) -> dict:
    """(L - mu)^k applied to an exact polynomial, in Fractions."""
    for _ in range(k):
        image = apply_generator(Q, B, poly)
        for a, c in poly.items():
            image[a] = image.get(a, 0) - mu * c
        poly = {a: c for a, c in image.items() if c != 0}
    return poly


# -- Gaussian pairings -------------------------------------------------------


def quadrature_rule(S, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (m, N) and weights (m,) that integrate every polynomial of total
    degree <= degree exactly against N(0, S): a tensor Gauss-Hermite rule in
    whitened coordinates x = chol(S) z."""
    S = np.asarray(S, dtype=float)
    dim = S.shape[0]
    k = degree // 2 + 1  # k nodes are exact up to degree 2k - 1
    z, w = np.polynomial.hermite_e.hermegauss(k)
    w = w / math.sqrt(2.0 * math.pi)
    grid = np.array(list(product(z, repeat=dim)))
    weights = np.prod(np.array(list(product(w, repeat=dim))), axis=1)
    return grid @ np.linalg.cholesky(S).T, weights


def monomial_values(nodes: np.ndarray, monomials) -> np.ndarray:
    """(m, len(monomials)) table of x^alpha at each node."""
    out = np.ones((nodes.shape[0], len(monomials)))
    for j, alpha in enumerate(monomials):
        for i, e in enumerate(alpha):
            if e:
                out[:, j] *= nodes[:, i] ** e
    return out


def quadrature_gram(S, monomials) -> np.ndarray:
    """G[i, j] = E[x^alpha_i x^alpha_j] under N(0, S) by quadrature."""
    degree = 2 * max(sum(a) for a in monomials)
    nodes, weights = quadrature_rule(S, degree)
    vals = monomial_values(nodes, monomials)
    return vals.T @ (weights[:, None] * vals)


def pair_partition_moment(S, alpha) -> Fraction:
    """E[x^alpha] under N(0, S) as the sum over pair partitions of the index
    multiset of products of covariances (Isserlis). Exact for rational S."""
    rows = tuple(tuple(Fraction(x) for x in row) for row in S)
    idx = tuple(i for i, a in enumerate(alpha) for _ in range(a))
    return _pairings(rows, idx)


@lru_cache(maxsize=None)
def _pairings(rows, idx) -> Fraction:
    if not idx:
        return Fraction(1)
    if len(idx) % 2:
        return Fraction(0)
    first, rest = idx[0], idx[1:]
    total = Fraction(0)
    for k, partner in enumerate(rest):
        if rows[first][partner]:
            total += rows[first][partner] * _pairings(rows, rest[:k] + rest[k + 1 :])
    return total


def exact_pairing(S, p: dict, q: dict) -> Fraction:
    """<p, q> under N(0, S) for exact real polynomials, by pair partitions."""
    total = Fraction(0)
    for a, ca in p.items():
        for b, cb in q.items():
            total += ca * cb * pair_partition_moment(S, [x + y for x, y in zip(a, b)])
    return total


# -- Lyapunov equation B S + S B^T + Q = 0 ------------------------------------


def lyapunov_residual(Q, B, S) -> list[list[Fraction]]:
    n = len(Q)
    return [
        [
            sum(Fraction(B[i][k]) * S[k][j] + S[i][k] * Fraction(B[j][k]) for k in range(n))
            + Fraction(Q[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def solve_lyapunov_exact(Q, B) -> list[list[Fraction]]:
    """Stationary covariance in Fractions, by Gauss-Jordan elimination on the
    symmetric unknowns S_ij, i <= j."""
    n = len(Q)
    unknowns = [(i, j) for i in range(n) for j in range(i, n)]
    col = {u: k for k, u in enumerate(unknowns)}

    def var(i, j):
        return col[(min(i, j), max(i, j))]

    rows = []
    for i, j in unknowns:
        row = [Fraction(0)] * (len(unknowns) + 1)
        for k in range(n):
            row[var(k, j)] += Fraction(B[i][k])
            row[var(i, k)] += Fraction(B[j][k])
        row[-1] = -Fraction(Q[i][j])
        rows.append(row)
    m = len(unknowns)
    for c in range(m):
        p = next(r for r in range(c, m) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(m):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    S = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), k in col.items():
        S[i][j] = S[j][i] = rows[k][-1]
    return S


# -- spectrum ----------------------------------------------------------------


def cluster_values(values, tol: float) -> list[tuple[complex, list]]:
    """Chain-cluster (value, payload) pairs sorted by (re, im); returns
    (mean value, payloads) per cluster."""
    ordered = sorted(values, key=lambda vp: (vp[0].real, vp[0].imag))
    clusters: list[list] = []
    for v, p in ordered:
        if clusters and abs(v - clusters[-1][-1][0]) <= tol:
            clusters[-1].append((v, p))
        else:
            clusters.append([(v, p)])
    return [(sum(v for v, _ in c) / len(c), [p for _, p in c]) for c in clusters]


def spectrum_compositions(eigs, cap: int, tol: float) -> list[tuple[complex, list]]:
    """Spectrum points sum_j n_j lambda_j over the distinct drift eigenvalues
    (slowest decay first), |n| <= cap, with their exponent witnesses sorted;
    ordered like the CLI report (slowest decay first)."""
    distinct = sorted(
        (v for v, _ in cluster_values([(complex(z), None) for z in eigs], tol)),
        key=lambda z: (-z.real, z.imag),
    )
    r = len(distinct)
    raw = []
    for n in range(cap + 1):
        for combo in combinations_with_replacement(range(r), n):
            counts = [0] * r
            for i in combo:
                counts[i] += 1
            raw.append((sum((c * z for c, z in zip(counts, distinct)), 0j), tuple(counts)))
    points = [(v, sorted(w)) for v, w in cluster_values(raw, tol)]
    return sorted(points, key=lambda vw: (-vw[0].real, vw[0].imag))


def eigenvalue_multiset(eigs, cap: int, tol: float) -> list[tuple[complex, int]]:
    """(value, multiplicity) of L on polynomials of degree <= cap: sums over
    the drift eigenvalues with multiplicity, one per exponent pattern."""
    raw = [
        (sum(combo, 0j), None)
        for n in range(cap + 1)
        for combo in combinations_with_replacement([complex(z) for z in eigs], n)
    ]
    groups = [(v, len(p)) for v, p in cluster_values(raw, tol)]
    return sorted(groups, key=lambda vm: (-vm[0].real, vm[0].imag))


# -- Hermite rotation --------------------------------------------------------


def hermite_rotation(c: float, n: int) -> np.ndarray:
    """Skew rotation matrix on the degree-n Hermite space in two dimensions:
    entry (kappa+1, kappa) is c sqrt((kappa+1)(n-kappa))."""
    m = np.zeros((n + 1, n + 1))
    for kappa in range(n):
        m[kappa + 1, kappa] = c * math.sqrt((kappa + 1) * (n - kappa))
        m[kappa, kappa + 1] = -m[kappa + 1, kappa]
    return m
