from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeforms.dofs import (
    DofFunctional,
    _signs,
    _terms,
    _trace,
    apply_dof,
    build_dofs,
    dof_count_by_faces,
    dual_basis,
    enumerate_faces,
    unisolvence_matrix,
)
from cubeforms.forms import (
    DiffForm,
    Face,
    Polynomial,
    integrate_unit_box,
    permutation_sign,
    trace,
)
from cubeforms.spaces import build_Qminus, dim_Qminus

from conftest import form_strategy


def textbook_dof(face, weight, v):
    """The functional's definition, built from forms: the integral over the
    face of the wedge of v's trace with the weight."""
    return integrate_unit_box(trace(v, face).wedge(weight))


class TestEnumerateFaces:
    def test_edges_of_square(self):
        assert len(enumerate_faces(2, 1)) == 4

    def test_two_faces_of_cube(self):
        assert len(enumerate_faces(3, 2)) == 6

    def test_vertices_of_cube(self):
        assert len(enumerate_faces(3, 0)) == 8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_and_partition(self, n):
        for d in range(n + 1):
            faces = enumerate_faces(n, d)
            assert len(faces) == 2 ** (n - d) * comb(n, d)
            assert len(set(map(repr, faces))) == len(faces)
            for face in faces:
                assert sorted(face.free + tuple(face.fixed)) == list(range(1, n + 1))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_faces(2, 3)


class TestHashing:
    def test_face_hash_ignores_insertion_order(self):
        a = Face(3, {1: 0, 3: 1})
        b = Face(3, {3: 1, 1: 0})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Face(3, {1: 1, 3: 1})}) == 2

    def test_dof_functional_is_hashable(self):
        dofs = build_dofs(2, 1, 2)
        assert len(set(dofs.functionals)) == dofs.count
        xi = dofs.functionals[0]
        twin = DofFunctional(Face(xi.face.n, dict(reversed(list(xi.face.fixed.items())))), xi.weight)
        assert {xi: 1}[twin] == 1


class TestBuildDofs:
    def test_edge_element(self):
        dofs = build_dofs(1, 1, 2)
        assert dofs.count == 4
        assert all(xi.face.dim == 1 for xi in dofs.functionals)

    def test_bilinear_vertices(self):
        dofs = build_dofs(1, 0, 2)
        assert dofs.count == 4
        assert all(xi.face.dim == 0 for xi in dofs.functionals)

    def test_interior_only_top_forms(self):
        dofs = build_dofs(2, 2, 2)
        assert dofs.count == 4
        assert all(xi.face.dim == 2 for xi in dofs.functionals)

    def test_count_identity(self):
        for n in range(1, 5):
            for k in range(n + 1):
                for r in range(1, 5):
                    assert dof_count_by_faces(r, k, n) == dim_Qminus(r, k, n)

    def test_r_zero_rejected(self):
        with pytest.raises(ValueError):
            build_dofs(0, 0, 2)


class TestApplyDof:
    def test_bottom_edge_tangential_moment(self):
        face = Face(2, {2: 0})
        weight = DiffForm(1, 0, {(): Polynomial.constant(1, 1)})
        xi = DofFunctional(face, weight)
        assert apply_dof(xi, DiffForm.basis_form(2, (1,))) == 1

    def test_vertex_evaluation(self):
        face = Face(2, {1: 0, 2: 0})
        weight = DiffForm(0, 0, {(): Polynomial.constant(0, 1)})
        xi = DofFunctional(face, weight)
        v = DiffForm.monomial_form(2, (), (1, 0)) + DiffForm.monomial_form(2, (), (0, 1))
        assert apply_dof(xi, v) == 0

    def test_interior_moment_of_volume_form(self):
        face = Face(2)
        weight = DiffForm(2, 0, {(): Polynomial.constant(2, 1)})
        xi = DofFunctional(face, weight)
        v = DiffForm.monomial_form(2, (1, 2), (1, 0))
        assert apply_dof(xi, v) == Fraction(1, 2)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_matches_textbook_definition(self, data):
        n = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(0, n))
        d = data.draw(st.integers(k, n))
        face = data.draw(st.sampled_from(enumerate_faces(n, d)))
        v = data.draw(form_strategy(n, k, max_exp=3, max_terms=4))
        r = data.draw(st.integers(2, 3))
        weights = build_Qminus(r - 1, d - k, d).basis + [
            data.draw(form_strategy(d, d - k, max_exp=2, max_terms=3))
        ]
        for weight in weights:
            assert apply_dof(DofFunctional(face, weight), v) == textbook_dof(face, weight, v)

    def test_weight_must_pair_with_trace(self):
        face = Face(2, {2: 0})
        v = DiffForm.basis_form(2, (1,))
        with pytest.raises(ValueError):
            apply_dof(DofFunctional(face, DiffForm.basis_form(1, (1,))), v)
        with pytest.raises(ValueError):
            apply_dof(DofFunctional(face, DiffForm.basis_form(2, ())), v)

    def test_degree_mismatch(self):
        face = Face(2, {1: 0, 2: 0})
        weight = DiffForm(0, 0, {(): Polynomial.constant(0, 1)})
        with pytest.raises(ValueError):
            apply_dof(DofFunctional(face, weight), DiffForm.basis_form(2, (1,)))


def table_forms(terms, k):
    """The forms of a term table, rebuilt term by term as DiffForms."""
    n = terms.exps.shape[1]
    forms = [DiffForm.zero(n, k) for _ in range(terms.count)]
    for e, m, c, i in zip(terms.exps.tolist(), terms.mask, terms.coeffs, terms.owner):
        sigma = tuple(int(j) + 1 for j in np.flatnonzero(m))
        forms[i] = forms[i] + DiffForm.monomial_form(n, sigma, e, Fraction(c, terms.denom))
    return forms


class TestTermTables:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_trace_matches_diffform_trace(self, data):
        n = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(0, n))
        forms = data.draw(st.lists(form_strategy(n, k, max_exp=3, max_terms=4), min_size=1, max_size=3))
        terms = _terms(forms, n)
        assert table_forms(terms, k) == forms
        for d in range(n + 1):
            for face in enumerate_faces(n, d):
                assert table_forms(_trace(terms, face), k) == [f.trace(face) for f in forms]

    @pytest.mark.parametrize("dim", range(5))
    def test_signs_match_permutation_sign(self, dim):
        masks = np.array(list(product((False, True), repeat=dim)), bool).reshape(2**dim, dim)
        want = []
        for m in masks:
            sigma = tuple(j + 1 for j in range(dim) if m[j])
            tau = tuple(j + 1 for j in range(dim) if not m[j])
            want.append(permutation_sign(sigma, tau))
        assert _signs(masks).tolist() == want

    def test_pairing_past_int64_matches_textbook(self):
        """Coefficients whose products pass 2^63 take the Python int path."""
        big = Fraction(2**70 + 1, 3)
        v = DiffForm.monomial_form(3, (1,), (2, 0, 1), big) + DiffForm.monomial_form(
            3, (2,), (1, 1, 0), -big
        )
        weight = DiffForm.monomial_form(2, (2,), (1, 0), 2**65) + DiffForm.monomial_form(
            2, (1,), (0, 2), Fraction(-(2**64), 7)
        )
        for face in (Face(3, {3: 0}), Face(3, {3: 1})):
            got = apply_dof(DofFunctional(face, weight), v)
            assert got == textbook_dof(face, weight, v) != 0


class TestUnisolvence:
    def test_bilinear_lagrange(self):
        _, ok = unisolvence_matrix(1, 0, 2)
        assert ok

    def test_quadratic_edge_element(self):
        matrix, ok = unisolvence_matrix(2, 1, 2)
        assert len(matrix) == 12 and ok

    def test_lowest_order_3d_edges(self):
        matrix, ok = unisolvence_matrix(1, 1, 3)
        assert len(matrix) == 12 and ok

    @pytest.mark.parametrize(
        "r,k,n",
        [(r, k, n) for n in (1, 2, 3) for k in range(n + 1) for r in (1, 2, 3) if r <= 2 or n <= 2],
    )
    def test_entries_match_textbook_definition(self, r, k, n):
        matrix, ok = unisolvence_matrix(r, k, n)
        basis = build_Qminus(r, k, n).basis
        want = [
            [textbook_dof(xi.face, xi.weight, b) for b in basis]
            for xi in build_dofs(r, k, n).functionals
        ]
        assert matrix == want
        assert ok


class TestDualBasis:
    def test_bilinear_lagrange_duals(self):
        duals = dual_basis(1, 0, 2)
        dofs = build_dofs(1, 0, 2)
        corner = next(
            i
            for i, xi in enumerate(dofs.functionals)
            if xi.face.fixed == {1: 0, 2: 0}
        )
        want = DiffForm(
            2,
            0,
            {(): Polynomial(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})},
        )
        assert duals[corner] == want

    def test_delta_property(self):
        duals = dual_basis(2, 1, 2)
        dofs = build_dofs(2, 1, 2)
        for i, xi in enumerate(dofs.functionals):
            for j, phi in enumerate(duals):
                assert apply_dof(xi, phi) == (1 if i == j else 0)

    def test_partition_of_unity(self):
        duals = dual_basis(2, 0, 2)
        dofs = build_dofs(2, 0, 2)
        one = DiffForm(2, 0, {(): Polynomial.constant(2, 1)})
        total = DiffForm.zero(2, 0)
        for xi, phi in zip(dofs.functionals, duals):
            total = total + phi * apply_dof(xi, one)
        assert total == one

    def test_reproduction(self):
        r, k, n = 2, 1, 2
        duals = dual_basis(r, k, n)
        dofs = build_dofs(r, k, n)
        v = DiffForm.monomial_form(n, (1,), (1, 2), Fraction(3, 7)) + DiffForm.monomial_form(
            n, (2,), (2, 1), Fraction(-1, 2)
        )
        rebuilt = DiffForm.zero(n, k)
        for xi, phi in zip(dofs.functionals, duals):
            rebuilt = rebuilt + phi * apply_dof(xi, v)
        assert rebuilt == v

    def test_trace_locality(self):
        r, k, n = 2, 1, 2
        dofs = build_dofs(r, k, n)
        for v in build_Qminus(r, k, n).basis:
            for xi in dofs.functionals:
                if trace(v, xi.face).is_zero:
                    assert apply_dof(xi, v) == 0
