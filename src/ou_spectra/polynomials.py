"""Sparse multivariate polynomials and graded monomial bases.

Coefficients are either exact (int / Fraction) or floating (float / complex);
one polynomial never mixes the two families unless the caller explicitly
converts with :meth:`SparsePolynomial.to_float`. Exponent vectors are plain
tuples of nonnegative ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations_with_replacement
from math import comb

import numpy as np

from .errors import DimensionMismatch

EXACT_TYPES = (int, np.integer, Fraction)

MultiIndex = tuple[int, ...]


def index_degree(alpha: MultiIndex) -> int:
    return sum(alpha)


def v_order(alpha: MultiIndex) -> int:
    """Weighted exponent sum with 1-based coordinate weights: sum_j j*alpha_j."""
    return sum((j + 1) * a for j, a in enumerate(alpha))


def _is_exact_coeff(c) -> bool:
    return isinstance(c, EXACT_TYPES)


class SparsePolynomial:
    """Immutable sparse polynomial keyed by exponent tuple.

    Zero coefficients are never stored. Arithmetic between two exact
    polynomials stays exact; anything involving a float/complex coefficient
    degrades to floating point by ordinary Python scalar promotion.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "dim", int(dim))
        clean: dict[MultiIndex, object] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for alpha, c in items:
                alpha = tuple(int(a) for a in alpha)
                if len(alpha) != dim or any(a < 0 for a in alpha):
                    raise ValueError(f"bad exponent vector {alpha} for dim {dim}")
                if isinstance(c, np.generic):
                    c = c.item()
                if c == 0:
                    continue
                prev = clean.get(alpha)
                c = c if prev is None else prev + c
                if c == 0:
                    clean.pop(alpha, None)
                else:
                    clean[alpha] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("SparsePolynomial is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, dim: int) -> "SparsePolynomial":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, c) -> "SparsePolynomial":
        return cls(dim, {tuple([0] * dim): c})

    # -- structure ----------------------------------------------------
    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return max((index_degree(a) for a in self.terms), default=-1)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_exact(self) -> bool:
        return all(_is_exact_coeff(c) for c in self.terms.values())

    # -- ring operations ----------------------------------------------
    def _check_dim(self, other: "SparsePolynomial"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, SparsePolynomial):
            other = SparsePolynomial.constant(self.dim, other)
        self._check_dim(other)
        out = dict(self.terms)
        for a, c in other.terms.items():
            s = out.get(a, 0) + c
            if s == 0:
                out.pop(a, None)
            else:
                out[a] = s
        return SparsePolynomial(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePolynomial(self.dim, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SparsePolynomial):
            other = SparsePolynomial.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product with a scalar."""
        if isinstance(other, SparsePolynomial):
            return NotImplemented
        if other == 0:
            return SparsePolynomial.zero(self.dim)
        return SparsePolynomial(self.dim, {a: c * other for a, c in self.terms.items()})

    def __rmul__(self, other):
        return self * other

    def to_float(self) -> "SparsePolynomial":
        """Explicit exact -> floating conversion. Lossy for rationals whose
        denominator is not a power of two."""
        out = {}
        for a, c in self.terms.items():
            out[a] = complex(c) if isinstance(c, complex) else float(c)
        return SparsePolynomial(self.dim, out)

    # -- evaluation ---------------------------------------------------
    def evaluate_rows(self, X: np.ndarray) -> np.ndarray:
        """Evaluate on each row of an (m, dim) array."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DimensionMismatch(f"expected (m, {self.dim}) array, got {X.shape}")
        any_complex = any(isinstance(c, complex) for c in self.terms.values())
        out = np.zeros(X.shape[0], dtype=complex if any_complex else float)
        for a, c in self.terms.items():
            term = np.ones(X.shape[0])
            for i, e in enumerate(a):
                if e:
                    term = term * X[:, i] ** e
            out += (complex(c) if any_complex else float(c)) * term
        return out

    # -- comparison / display -------------------------------------------
    def __eq__(self, other):
        if isinstance(other, SparsePolynomial):
            return self.dim == other.dim and self.terms == other.terms
        return (not self.terms and other == 0) or self.terms == {
            tuple([0] * self.dim): other
        }

    def max_coeff_diff(self, other: "SparsePolynomial") -> float:
        """Largest |coefficient difference| across the union of supports."""
        self._check_dim(other)
        keys = set(self.terms) | set(other.terms)
        return max(
            (abs(complex(self.terms.get(k, 0)) - complex(other.terms.get(k, 0))) for k in keys),
            default=0.0,
        )

    def render(self) -> str:
        """Human text form, e.g. '4*x1^2 - 2'."""
        ordered = sorted(
            self.terms.items(),
            key=lambda kv: (index_degree(kv[0]), kv[0]),
            reverse=True,
        )
        return render_terms((monomial_text(alpha), coefficient_text(c)) for alpha, c in ordered)

    def __repr__(self):
        return f"SparsePolynomial({self.dim}, {self.render()!r})"


def monomial_text(alpha: MultiIndex) -> str:
    """x^alpha as text, e.g. 'x1^2*x3'; the empty string for alpha = 0."""
    return "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(alpha) if e)


def render_terms(terms) -> str:
    """Text of a polynomial from (monomial_text, coefficient_text) pairs in
    display order, e.g. '4*x1^2 - 2': the first term as it is, each later
    one as '+ t', or '- t' for a term '-t'. Neither text holds a space, so
    once the terms are joined by ' + ', ' + -' marks exactly the terms '-t'."""
    bodies = [
        (mono if cs == "1" else f"-{mono}" if cs == "-1" else f"{cs}*{mono}") if mono else cs
        for mono, cs in terms
    ]
    return " + ".join(bodies).replace(" + -", " - ") or "0"


def coefficient_text(c) -> str:
    """A coefficient as render_terms shows it: '%g' for floats, '(a+bj)' for
    complex numbers, 'p/q' for rationals."""
    if isinstance(c, float):
        return f"{c:g}"
    if isinstance(c, complex):
        return f"({c.real:g}{c.imag:+g}j)"
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, EXACT_TYPES):
        return str(int(c))
    return f"{float(c):g}"


# -- graded bases ------------------------------------------------------


@dataclass(frozen=True)
class GradedBasis:
    """Ordered enumeration of exponent vectors with |alpha| <= cap (or == cap).

    The basis owns its exponent index, each part built once on first read:
    the exponents as an array, the row slice of each degree, the row lookup
    and, for a full graded basis, the steps that build it one variable at a
    time. Equality compares the fields alone."""

    dim: int
    cap: int
    ordering: str
    homogeneous: bool
    indices: tuple[MultiIndex, ...]

    def __len__(self):
        return len(self.indices)

    @cached_property
    def exponents(self) -> np.ndarray:
        """The exponent vectors as the rows of a read-only (size, N) int array."""
        E = np.array(self.indices, dtype=int).reshape(len(self.indices), self.dim)
        E.flags.writeable = False
        return E

    @cached_property
    def blocks(self) -> tuple[slice, ...]:
        """The rows of each degree d <= cap as blocks[d], empty for a degree
        the basis lacks; the rows are sorted by degree."""
        ends = np.cumsum(np.bincount(self.exponents.sum(axis=1), minlength=self.cap + 1)).tolist()
        return tuple(slice(a, b) for a, b in zip([0, *ends], ends))

    @cached_property
    def _sorted_keys(self) -> tuple[np.ndarray, np.ndarray]:
        keys = exponent_keys(self.exponents, self.cap + 1)
        order = np.argsort(keys, kind="stable")
        return keys[order], order

    def row_of(self, targets: np.ndarray) -> np.ndarray:
        """The row of each exponent vector of targets, an (..., N) int array,
        and -1 for one outside the basis. A vector with an entry outside
        [0, cap] is never in the basis; the others are told apart by their
        keys in base cap + 1."""
        sorted_keys, order = self._sorted_keys
        k = exponent_keys(targets, self.cap + 1)
        at = np.minimum(np.searchsorted(sorted_keys, k), len(order) - 1)
        inside = (sorted_keys[at] == k) & ((targets >= 0) & (targets <= self.cap)).all(axis=-1)
        return np.where(inside, order[at], -1)

    @cached_property
    def steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """How a full graded basis is built one variable at a time: each
        monomial's first variable i, the row of x^alpha / x_i (-1 for
        alpha = 0), and the (N, size) array of the rows of x_j x^alpha (-1
        past the cap)."""
        E, unit = self.exponents, np.eye(self.dim, dtype=int)
        first = (E > 0).argmax(axis=1)
        steps = (first, self.row_of(E - unit[first]), self.row_of(E + unit[:, None]))
        for a in steps:
            a.flags.writeable = False
        return steps


def exponent_keys(E: np.ndarray, radix: int) -> np.ndarray:
    """The mixed-radix keys sum_j E[..., j] radix^j of exponent vectors, one
    per vector; distinct for vectors whose entries lie in [0, radix). They
    are int64 when every such key fits, else Python ints."""
    dim = E.shape[-1]
    dtype = np.int64 if radix**dim <= 2**63 else object
    return np.asarray(E).astype(dtype) @ radix ** np.arange(dim).astype(dtype)


# the weight of the v-order in each ordering's key (degree, weight * v_order, descending lex)
_V_WEIGHT = {"graded-lex": 0, "v-nondecreasing": 1, "v-nonincreasing": -1}
ORDERINGS = tuple(_V_WEIGHT)


def monomial_basis(
    dim: int, cap: int, ordering: str = "graded-lex", homogeneous: bool = False
) -> GradedBasis:
    """Enumerate exponent vectors of degree == cap (homogeneous) or <= cap,
    by degree; graded-lex orders each degree descending lexicographically,
    the v-orderings by v_order first, ascending or descending.

    Cardinalities: C(dim+cap-1, cap) homogeneous, C(dim+cap, cap) full.
    """
    if dim < 1 or cap < 0:
        raise ValueError("need dim >= 1 and cap >= 0")
    if ordering not in _V_WEIGHT:
        raise ValueError(f"unknown ordering {ordering!r}; pick one of {ORDERINGS}")
    rows = exponent_array(dim, cap)[::-1]  # descending lexicographic order
    v = rows @ np.arange(1, dim + 1) * _V_WEIGHT[ordering]  # v_order of each row, weighted
    rows = rows[np.lexsort((v, rows.sum(axis=1)))]  # stable: ties keep descending lex
    if homogeneous:
        rows = rows[-comb(dim + cap - 1, cap) :]
    return GradedBasis(dim, cap, ordering, homogeneous, tuple(map(tuple, rows.tolist())))


def exponent_array(dim: int, cap: int) -> np.ndarray:
    """Every exponent vector of degree <= cap as one row, in ascending
    lexicographic order: the counts of the degree-cap multisets of dim + 1
    variables, read backwards, the last variable taking up the slack."""
    m = comb(dim + cap, cap)
    picks = combinations_with_replacement(range(dim + 1), cap)
    flat = np.fromiter(chain.from_iterable(picks), np.intp, m * cap)  # row i's picks, i (dim + 1) apart
    flat += np.repeat(np.arange(m) * (dim + 1), cap)
    return np.bincount(flat, minlength=m * (dim + 1)).reshape(m, dim + 1)[::-1, :dim]
