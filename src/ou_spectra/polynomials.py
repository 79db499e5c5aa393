"""Sparse multivariate polynomials and graded monomial bases.

Coefficients are either exact (int / Fraction) or floating (float / complex);
one polynomial never mixes the two families unless the caller explicitly
converts with :meth:`SparsePolynomial.to_float`. Exponent vectors are plain
tuples of nonnegative ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _conj(c):
    return c.conjugate() if isinstance(c, complex) else c


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

    @classmethod
    def variable(cls, dim: int, i: int) -> "SparsePolynomial":
        alpha = [0] * dim
        alpha[i] = 1
        return cls(dim, {tuple(alpha): 1})

    @classmethod
    def monomial(cls, dim: int, alpha, c=1) -> "SparsePolynomial":
        return cls(dim, {tuple(alpha): c})

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

    def coefficient(self, alpha) -> object:
        return self.terms.get(tuple(alpha), 0)

    def graded_part(self, n: int) -> "SparsePolynomial":
        return SparsePolynomial(
            self.dim, {a: c for a, c in self.terms.items() if index_degree(a) == n}
        )

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
        if not isinstance(other, SparsePolynomial):
            if other == 0:
                return SparsePolynomial.zero(self.dim)
            return SparsePolynomial(
                self.dim, {a: c * other for a, c in self.terms.items()}
            )
        self._check_dim(other)
        out: dict[MultiIndex, object] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                s = out.get(key, 0) + ca * cb
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return SparsePolynomial(self.dim, out)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = SparsePolynomial.constant(self.dim, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def conjugate(self) -> "SparsePolynomial":
        return SparsePolynomial(self.dim, {a: _conj(c) for a, c in self.terms.items()})

    def to_float(self) -> "SparsePolynomial":
        """Explicit exact -> floating conversion. Lossy for rationals whose
        denominator is not a power of two."""
        out = {}
        for a, c in self.terms.items():
            out[a] = complex(c) if isinstance(c, complex) else float(c)
        return SparsePolynomial(self.dim, out)

    # -- evaluation ---------------------------------------------------
    def __call__(self, point):
        total = 0
        for a, c in self.terms.items():
            v = c
            for x, e in zip(point, a):
                if e:
                    v = v * x**e
            total += v
        return total

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

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

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

    def to_json(self) -> dict:
        """Canonical JSON form: {"terms": [{"alpha": [...], "re": .., "im": ..}]}.

        Rational coefficients keep exactness as "p/q" strings in "re".
        """
        items = sorted(
            self.terms.items(), key=lambda kv: (index_degree(kv[0]), kv[0])
        )
        out = []
        for alpha, c in items:
            re, im = coefficient_json(c)
            out.append({"alpha": list(alpha), "re": re, "im": im})
        return {"dim": self.dim, "terms": out}

    @classmethod
    def from_json(cls, data: dict) -> "SparsePolynomial":
        terms = {}
        for t in data["terms"]:
            re, im = t["re"], t.get("im", 0)
            if isinstance(re, str):
                c = Fraction(re)
                if im not in (0, "0"):
                    c = float(c) + 1j * float(Fraction(str(im)))
            else:
                c = complex(re, im) if im else float(re)
            terms[tuple(t["alpha"])] = c
        return cls(data["dim"], terms)


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


def coefficient_json(c) -> tuple:
    """(re, im) of a coefficient in JSON: rationals keep exactness as a
    "p/q" string in re, with im "0"."""
    if isinstance(c, complex):
        return c.real, c.imag
    if not isinstance(c, float) and isinstance(c, EXACT_TYPES):
        return str(Fraction(c)), "0"
    return float(c), 0.0


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

ORDERINGS = ("graded-lex", "v-nondecreasing", "v-nonincreasing")


@dataclass(frozen=True)
class GradedBasis:
    """Ordered enumeration of exponent vectors with |alpha| <= cap (or == cap)."""

    dim: int
    cap: int
    ordering: str
    homogeneous: bool
    indices: tuple[MultiIndex, ...]

    def __len__(self):
        return len(self.indices)

    def position(self, alpha: MultiIndex) -> int:
        return self.indices.index(tuple(alpha))

    def degrees(self) -> tuple[int, ...]:
        return tuple(index_degree(a) for a in self.indices)


def _sort_key(ordering: str):
    if ordering == "graded-lex":
        return lambda a: (index_degree(a), tuple(-e for e in a))
    if ordering == "v-nondecreasing":
        return lambda a: (index_degree(a), v_order(a), tuple(-e for e in a))
    if ordering == "v-nonincreasing":
        return lambda a: (index_degree(a), -v_order(a), tuple(-e for e in a))
    raise ValueError(f"unknown ordering {ordering!r}; pick one of {ORDERINGS}")


def monomial_basis(
    dim: int, cap: int, ordering: str = "graded-lex", homogeneous: bool = False
) -> GradedBasis:
    """Enumerate exponent vectors of degree == cap (homogeneous) or <= cap,
    by degree; graded-lex orders each degree descending lexicographically.

    Cardinalities: C(dim+cap-1, cap) homogeneous, C(dim+cap, cap) full.
    """
    if dim < 1 or cap < 0:
        raise ValueError("need dim >= 1 and cap >= 0")
    key = _sort_key(ordering)
    rows = exponent_array(dim, cap)[::-1]  # descending lexicographic order
    rows = rows[np.argsort(rows.sum(axis=1), kind="stable")]  # graded-lex
    if homogeneous:
        rows = rows[-comb(dim + cap - 1, cap) :]
    indices = list(map(tuple, rows.tolist()))
    if ordering != "graded-lex":
        indices.sort(key=key)  # each key leads with the degree
    return GradedBasis(dim, cap, ordering, homogeneous, tuple(indices))


def exponent_array(dim: int, cap: int) -> np.ndarray:
    """Every exponent vector of degree <= cap as one row, in ascending
    lexicographic order: the counts of the degree-cap multisets of dim + 1
    variables, read backwards, the last variable taking up the slack."""
    m = comb(dim + cap, cap)
    picks = combinations_with_replacement(range(dim + 1), cap)
    flat = np.fromiter(chain.from_iterable(picks), np.intp, m * cap)  # row i's picks, i (dim + 1) apart
    flat += np.repeat(np.arange(m) * (dim + 1), cap)
    return np.bincount(flat, minlength=m * (dim + 1)).reshape(m, dim + 1)[::-1, :dim]
