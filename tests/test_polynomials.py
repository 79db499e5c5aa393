import random
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ou_spectra.errors import DimensionMismatch
from ou_spectra.gaussian import finish_gram, gram_matrix, inner_product
from ou_spectra.polynomials import (
    ORDERINGS,
    SparsePolynomial,
    coefficient_text,
    exponent_array,
    monomial_basis,
    monomial_text,
    render_terms,
    v_order,
)
from reference import hermite_coefficients, hermite_tensor


def random_poly(rng, dim=2, max_degree=3, terms=4):
    out = {}
    for _ in range(terms):
        alpha = tuple(rng.randint(0, max_degree) for _ in range(dim))
        out[alpha] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return SparsePolynomial(dim, out)


class TestRingAxioms:
    def test_exact_ring_axioms(self):
        rng = random.Random(20240817)
        for _ in range(30):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p + q) * Fraction(3, 2) == p * Fraction(3, 2) + q * Fraction(3, 2)
            assert p - p == SparsePolynomial.zero(2)

    def test_zero_coefficients_never_stored(self):
        rng = random.Random(7)
        for _ in range(20):
            p, q = random_poly(rng), random_poly(rng)
            for poly in (p + q, p - q):
                assert all(c != 0 for c in poly.terms.values())

    def test_exactness_tracking(self):
        p = SparsePolynomial(2, {(1, 0): Fraction(1, 3)})
        assert p.is_exact
        assert not p.to_float().is_exact
        assert (p * 0.5).is_exact is False


class TestStructure:
    def test_degree(self):
        p = SparsePolynomial(2, {(2, 1): 1, (0, 0): 5})
        assert p.degree == 3
        assert SparsePolynomial.zero(2).degree == -1

    def test_dimension_mismatch(self):
        p = SparsePolynomial(2, {(1, 0): 1})
        q = SparsePolynomial(3, {(1, 0, 0): 1})
        with pytest.raises(DimensionMismatch):
            p + q

    def test_evaluate_matches_rows(self):
        p = SparsePolynomial(2, {(2, 0): 4, (0, 0): -2})
        X = np.array([[0.5, 1.0], [2.0, -1.0]])
        assert p.evaluate_rows(X) == pytest.approx([4 * 0.5**2 - 2, 4 * 2.0**2 - 2])

    def test_render(self):
        p = SparsePolynomial(1, {(2,): 4, (0,): -2})
        assert p.render() == "4*x1^2 - 2"
        assert SparsePolynomial.zero(2).render() == "0"

    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                st.one_of(
                    st.sampled_from([1, -1, 1.0, -1.0, Fraction(-1, 2)]),
                    st.fractions(max_denominator=9).filter(bool),
                    st.floats(-1e6, 1e6).filter(bool),
                    st.complex_numbers(max_magnitude=1e3).filter(bool),
                ),
            ),
            max_size=6,
        )
    )
    def test_render_terms_is_the_piecewise_rule(self, terms):
        """render_terms writes the first term as it is and each later one as
        '+ t', or '- t' for a term '-t'."""
        texts = [(monomial_text(alpha), coefficient_text(c)) for alpha, c in terms]
        pieces = []
        for mono, cs in texts:
            body = (mono if cs == "1" else f"-{mono}" if cs == "-1" else f"{cs}*{mono}") if mono else cs
            if not pieces:
                pieces.append(body)
            else:
                pieces.append(f"- {body[1:]}" if body.startswith("-") else f"+ {body}")
        assert render_terms(texts) == (" ".join(pieces) if pieces else "0")


def _every_exponent(dim, cap):
    """Every exponent vector in dim variables of degree <= cap, by recursion
    on the first exponent."""
    if dim == 1:
        return [(k,) for k in range(cap + 1)]
    return [(k, *rest) for k in range(cap + 1) for rest in _every_exponent(dim - 1, cap - k)]


class TestMonomialBasis:
    def test_homogeneous_graded_lex_example(self):
        basis = monomial_basis(2, 2, "graded-lex", homogeneous=True)
        assert basis.indices == ((2, 0), (1, 1), (0, 2))

    def test_full_basis_size(self):
        basis = monomial_basis(2, 2, "graded-lex")
        assert len(basis) == 6

    def test_cardinalities(self):
        for dim in range(1, 5):
            for cap in range(0, 9):
                assert len(monomial_basis(dim, cap)) == comb(dim + cap, cap)
                assert len(monomial_basis(dim, cap, homogeneous=True)) == comb(
                    dim + cap - 1, cap
                )

    def test_v_ordering_is_nondecreasing(self):
        basis = monomial_basis(3, 2, "v-nondecreasing", homogeneous=True)
        values = [v_order(a) for a in basis.indices]
        assert values == sorted(values)
        order = [basis.indices.index(a) for a in ((2, 0, 0), (0, 2, 0), (0, 0, 2))]
        assert order == sorted(order)

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_graded_lex_is_the_sorted_enumeration(self, dim):
        """The graded-lex blocks, taken unsorted from the multiset
        enumeration, are every exponent vector sorted by degree, then by
        descending lexicographic order; exponent_array lists the same
        vectors in ascending lexicographic order."""
        for cap in range(8):
            every = _every_exponent(dim, cap)
            assert list(monomial_basis(dim, cap).indices) == sorted(
                every, key=lambda a: (sum(a), tuple(-e for e in a))
            )
            assert monomial_basis(dim, cap, homogeneous=True).indices == tuple(
                a for a in monomial_basis(dim, cap).indices if sum(a) == cap
            )
            assert exponent_array(dim, cap).tolist() == sorted(map(list, every))

    def test_orderings_are_strict_enumerations(self):
        for ordering in ("graded-lex", "v-nondecreasing", "v-nonincreasing"):
            basis = monomial_basis(3, 3, ordering)
            assert len(set(basis.indices)) == len(basis)


def _key_sort(dim, cap, ordering, homogeneous):
    """The basis as the sort of every exponent vector by a key that leads
    with the degree and ends with descending lexicographic order."""
    sign = {"graded-lex": 0, "v-nondecreasing": 1, "v-nonincreasing": -1}[ordering]
    every = [a for a in _every_exponent(dim, cap) if not homogeneous or sum(a) == cap]
    return sorted(every, key=lambda a: (sum(a), sign * v_order(a), tuple(-e for e in a)))


class TestExponentIndex:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 6), st.sampled_from(ORDERINGS), st.booleans())
    def test_the_basis_owns_its_index(self, dim, cap, ordering, homogeneous):
        basis = monomial_basis(dim, cap, ordering, homogeneous)
        assert list(basis.indices) == _key_sort(dim, cap, ordering, homogeneous)
        E = basis.exponents
        assert E.tolist() == [list(a) for a in basis.indices] and not E.flags.writeable
        assert basis.row_of(E).tolist() == list(range(len(basis)))
        unit = np.eye(dim, dtype=int)
        outside = [
            unit[0] - 2 * unit[-1],  # a negative entry
            (cap + 1) * unit[0],  # above the cap, with the key of x_2 in base cap + 1
            cap * unit[0] + unit[-1],  # above the cap
            *([np.zeros(dim, dtype=int)] if homogeneous and cap else []),  # below a homogeneous cap
        ]
        assert basis.row_of(np.array(outside)).tolist() == [-1] * len(outside)
        assert len(basis.blocks) == cap + 1
        assert [sl.start for sl in basis.blocks] == [0] + [sl.stop for sl in basis.blocks[:-1]]
        assert basis.blocks[-1].stop == len(basis)
        for d, sl in enumerate(basis.blocks):
            assert (E[sl].sum(axis=1) == d).all()
        assert basis == monomial_basis(dim, cap, ordering, homogeneous)

    def test_steps_build_the_full_basis(self):
        for dim, cap in ((1, 4), (3, 3), (4, 2)):
            basis = monomial_basis(dim, cap)
            E, unit = basis.exponents, np.eye(dim, dtype=int)
            first, parent, up = basis.steps
            assert parent[0] == -1
            assert (E[parent[1:]] + unit[first[1:]] == E[1:]).all()
            assert all(a[: first[k]] == (0,) * first[k] for k, a in enumerate(basis.indices))
            for j in range(dim):
                inside = up[j] >= 0
                assert (E[up[j][inside]] == E[inside] + unit[j]).all()
                assert (E[~inside].sum(axis=1) == cap).all()


class TestVOrder:
    def test_extremes(self):
        assert v_order((5, 0, 0)) == 5
        assert v_order((0, 0, 5)) == 15


class TestHermite:
    """The reference Hermite tensors that the Wick tests compare against."""

    def test_low_orders(self):
        assert hermite_coefficients(0) == (1,)
        assert hermite_coefficients(1) == (0, 2)
        assert hermite_coefficients(2) == (-2, 0, 4)

    def test_constant_and_h2(self):
        assert hermite_tensor((0, 0)) == SparsePolynomial.constant(2, 1)
        h2 = hermite_tensor((2, 0))
        assert h2 == SparsePolynomial(2, {(2, 0): 4, (0, 0): -2})

    def test_normalized_h11(self):
        h = hermite_tensor((1, 1), normalized=True)
        assert h == SparsePolynomial(2, {(1, 1): Fraction(2)})
        assert h.is_exact

    def test_orthogonality_exact_under_half_identity(self):
        sigma = [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
        ks = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0)]
        fams = [hermite_tensor(k) for k in ks]
        g = gram_matrix(fams, sigma)
        for i in range(len(ks)):
            for j in range(len(ks)):
                if i != j:
                    assert g[i][j] == 0

    def test_normalized_gram_is_identity_exactly(self):
        sigma = [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
        ks = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        g = finish_gram(gram_matrix([hermite_tensor(k) for k in ks], sigma), True)
        for i in range(len(ks)):
            for j in range(len(ks)):
                assert g[i][j] == (1 if i == j else 0)

    def test_normalized_norm_is_one_exactly(self):
        sigma = [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
        for k in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 4)]:
            h = hermite_tensor(k)
            scale_sq = Fraction(2) ** sum(k) * factorial(k[0]) * factorial(k[1])
            assert inner_product(h, h, sigma) / scale_sq == 1

    def test_dilation_matches_substitution(self):
        h = hermite_tensor((2,), dilations=(Fraction(1, 2),))
        # H_2(x/2) = 4 (x/2)^2 - 2 = x^2 - 2
        assert h == SparsePolynomial(1, {(2,): Fraction(1), (0,): Fraction(-2)})

    def test_rejects_bad_dilations(self):
        with pytest.raises(ValueError):
            hermite_tensor((1,), dilations=(0,))
