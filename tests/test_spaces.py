from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubeforms import exactla
from cubeforms.forms import DiffForm
from cubeforms.spaces import (
    FormSpace,
    build_P,
    build_Qminus,
    build_SrLambda1_2d,
    build_serendipity,
    contains,
    dim_Qminus,
    in_span,
    predict_rates,
    superlinear_degree,
    zero_space,
)


def coords_of(space):
    return {
        (sigma, exps)
        for f in space.basis
        for sigma, poly in f.components.items()
        for exps in poly.terms
    }


class TestBuildP:
    def test_linear_scalars(self):
        space = build_P(1, 0, 2)
        assert space.dim == 3
        assert coords_of(space) == {((), (0, 0)), ((), (1, 0)), ((), (0, 1))}

    def test_quadratic_one_forms(self):
        assert build_P(2, 1, 2).dim == 12

    def test_constant_volume_form(self):
        space = build_P(0, 3, 3)
        assert space.dim == 1
        assert space.basis[0] == DiffForm.basis_form(3, (1, 2, 3))

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            build_P(1, 3, 2)


class TestBuildQminus:
    def test_lowest_order_edge_space(self):
        space = build_Qminus(1, 1, 2)
        want = {
            ((1,), (0, 0)),
            ((1,), (0, 1)),
            ((2,), (0, 0)),
            ((2,), (1, 0)),
        }
        assert space.dim == 4
        assert coords_of(space) == want

    def test_r0_positive_degree_is_zero(self):
        assert build_Qminus(0, 1, 2).is_zero

    def test_trilinears(self):
        assert build_Qminus(1, 0, 3).dim == 8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dimension_formula(self, n):
        for k in range(n + 1):
            for r in range(4):
                assert build_Qminus(r, k, n).dim == dim_Qminus(r, k, n)

    def test_dim_examples(self):
        assert dim_Qminus(1, 1, 2) == 4
        assert dim_Qminus(2, 2, 3) == 36
        for r, n in product(range(4), (1, 2, 3)):
            assert dim_Qminus(r, 0, n) == (r + 1) ** n

    def test_exact_independence(self):
        space = build_Qminus(2, 1, 2)
        assert space.rank() == space.dim


class TestSuperlinearDegree:
    def test_mixed_exponents(self):
        assert superlinear_degree((2, 1, 3)) == 5

    def test_multilinear_monomial(self):
        assert superlinear_degree((1, 1, 1)) == 0

    def test_pure_square(self):
        assert superlinear_degree((2,)) == 2


class TestSerendipity:
    def test_s1_is_q1(self):
        assert coords_of(build_serendipity(1, 2)) == coords_of(build_Qminus(1, 0, 2))

    def test_s2_2d_brute_force(self):
        # Oracle: enumerate a larger exponent box and filter, confirming the
        # builder's [0, r]^n box is exhaustive.
        want = {
            e for e in product(range(6), repeat=2) if superlinear_degree(e) <= 2
        }
        space = build_serendipity(2, 2)
        assert {exps for _, exps in coords_of(space)} == want
        assert space.dim == 8

    def test_fourth_degree_excluded(self):
        space = build_serendipity(3, 2)
        assert not in_span(space, DiffForm.monomial_form(2, (), (2, 2)))

    def test_r_zero_rejected(self):
        with pytest.raises(ValueError):
            build_serendipity(0, 2)


class TestSerendipityOneForms:
    def test_contains_gradient_extension(self):
        space = build_SrLambda1_2d(1)
        dxy2 = DiffForm.monomial_form(2, (1,), (1, 1), 2) + DiffForm.monomial_form(
            2, (2,), (2, 0)
        )
        assert in_span(space, dxy2)

    def test_dimension_and_independence(self):
        space = build_SrLambda1_2d(1)
        assert space.dim == 8
        assert space.rank() == 8

    def test_contains_full_polynomials(self):
        for r in (1, 2, 3):
            assert contains(build_SrLambda1_2d(r), build_P(r, 1, 2))


class TestContains:
    def test_constants_in_q1(self):
        assert contains(build_Qminus(1, 0, 2), build_P(0, 0, 2))

    def test_p1_not_in_qminus1(self):
        assert not contains(build_Qminus(1, 1, 2), build_P(1, 1, 2))

    def test_qminus1_in_p2(self):
        assert contains(build_P(2, 1, 2), build_Qminus(1, 1, 2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            contains(build_P(1, 0, 2), build_P(1, 1, 2))

    @pytest.mark.parametrize(
        "space",
        [build_Qminus(1, 1, 2), build_SrLambda1_2d(1)],
        ids=["monomial", "row-reduction"],
    )
    def test_zero_form_of_wrong_shape_rejected(self, space):
        with pytest.raises(ValueError):
            in_span(space, DiffForm.zero(3, 0))
        with pytest.raises(ValueError):
            in_span(space, DiffForm.zero(2, 0))
        assert in_span(space, DiffForm.zero(2, 1))

    def test_partial_order(self):
        spaces = [build_Qminus(1, 1, 2), build_P(1, 1, 2), build_P(2, 1, 2)]
        for s in spaces:
            assert contains(s, s)
        # transitivity along a known chain
        assert contains(build_P(2, 1, 2), build_Qminus(1, 1, 2))
        assert contains(build_P(3, 1, 2), build_P(2, 1, 2))
        assert contains(build_P(3, 1, 2), build_Qminus(1, 1, 2))

    def test_antisymmetry_up_to_span(self):
        # In one dimension the tensor and total-degree scalar spaces agree.
        a = build_Qminus(2, 0, 1)
        b = build_P(2, 0, 1)
        assert contains(a, b) and contains(b, a)


class TestPredictRates:
    def test_golden_examples(self):
        assert predict_rates(build_Qminus(2, 0, 2)) == predict_rates(
            build_Qminus(2, 0, 2)
        ).__class__(3, 3)
        pred = predict_rates(build_Qminus(2, 2, 2))
        assert (pred.s_affine, pred.s_multilinear) == (2, 1)
        pred = predict_rates(build_P(4, 2, 2))
        assert (pred.s_affine, pred.s_multilinear) == (5, 2)
        pred = predict_rates(build_SrLambda1_2d(3))
        assert (pred.s_affine, pred.s_multilinear) == (4, 2)

    def test_zero_space_rejected(self):
        with pytest.raises(ValueError):
            predict_rates(zero_space(2, 1))

    def test_ordering_invariant(self):
        for n in (2, 3):
            for k in range(n + 1):
                for r in (1, 2, 3):
                    pred = predict_rates(build_Qminus(r, k, n))
                    assert pred.s_multilinear <= pred.s_affine


class TestSubcomplex:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_d_maps_into_next_space(self, n):
        for k in range(n):
            for r in (1, 2, 3):
                target = build_Qminus(r, k + 1, n)
                for f in build_Qminus(r, k, n).basis:
                    assert in_span(target, f.d())


# Monomial spaces of every builder, for the two membership paths.
_MONOMIAL_SPACES = [
    build_P(2, 1, 2),
    build_Qminus(2, 1, 2),
    build_Qminus(1, 2, 3),
    build_P(1, 0, 3),
    build_serendipity(2, 2),
    zero_space(2, 1),
]


@st.composite
def space_and_form(draw):
    """A monomial space and a form that is a random combination of some of
    its basis forms plus, sometimes, monomials from outside it."""
    space = draw(st.sampled_from(_MONOMIAL_SPACES))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    f = DiffForm.zero(space.n, space.k)
    if space.basis:
        for b in draw(st.lists(st.sampled_from(space.basis), max_size=4)):
            f = f + b * draw(coeff)
    for _ in range(draw(st.integers(0, 2))):
        sigma = draw(st.sampled_from(list(combinations(range(1, space.n + 1), space.k))))
        exps = draw(st.tuples(*[st.integers(0, 3)] * space.n))
        f = f + DiffForm.monomial_form(space.n, sigma, exps, draw(coeff))
    return space, f


def _rank_path(space):
    """A space with the span of space whose membership test takes the rank
    path: its basis plus the sum of its first two forms, a two-term form
    (the zero form for the zero space)."""
    extra = sum(space.basis[:2], DiffForm.zero(space.n, space.k))
    plain = FormSpace(space.n, space.k, space.basis + [extra], space.label)
    assert space.monomial_coords is not None and plain.monomial_coords is None
    return plain


class TestInSpanPaths:
    @given(case=space_and_form())
    def test_monomial_path_agrees_with_rank_path(self, case):
        space, f = case
        plain = _rank_path(space)
        assert in_span(space, f) == in_span(plain, f)

    def test_both_verdicts_occur(self):
        space = build_Qminus(1, 1, 2)
        plain = _rank_path(space)
        inside = space.basis[0] * Fraction(2, 3) - space.basis[-1]
        outside = DiffForm.monomial_form(2, (1,), (1, 0))
        assert in_span(space, inside) and in_span(plain, inside)
        assert not in_span(space, outside) and not in_span(plain, outside)

    @pytest.mark.parametrize("space", _MONOMIAL_SPACES, ids=lambda space: space.label)
    def test_rebuilt_space_equals_the_builders(self, space, monkeypatch):
        """A space made from a builder's basis equals the builder's space and
        takes the same, monomial, membership path."""
        rebuilt = FormSpace(space.n, space.k, space.basis, space.label)
        assert rebuilt == space
        assert space.monomial_coords is not None
        assert rebuilt.monomial_coords == space.monomial_coords
        # The rank path would need a row echelon form.
        monkeypatch.setattr(exactla, "rref", None)
        assert all(in_span(rebuilt, f) for f in space.basis)

    def test_single_terms_of_any_coefficient_are_monomial(self):
        f = DiffForm.monomial_form(2, (1,), (1, 0), Fraction(-2, 5))
        g = DiffForm.monomial_form(2, (2,), (0, 1), 3)
        assert FormSpace(2, 1, [f, g]).monomial_coords == {(1,): {(1, 0)}, (2,): {(0, 1)}}
        assert FormSpace(2, 1, [f, f + g]).monomial_coords is None
