import random
import time
from fractions import Fraction
from itertools import permutations, product
from math import comb, gcd, lcm

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubeforms.forms import (
    DiffForm,
    Polynomial,
    _slot_mask,
    enumerate_sigma,
    l2_inner_box,
    l2_inner_reference,
)
from cubeforms.mapping import (
    MultilinearMap,
    _bernstein_positive,
    _bernstein_table,
    _corners,
    _det_bernstein,
    _halve,
    _pull_all,
    _pullbacks,
    check_diffeo,
    jacobian,
    map_from_vertices,
    pullback_polynomial,
)
from cubeforms import exactla, verify
from cubeforms.meshlab import build_mesh
from cubeforms.spaces import build_P, build_Qminus, in_span
from cubeforms.verify import random_rational_affine, random_rational_multilinear

from conftest import form_strategy, naive_product, vertex_strategy
from oracles import target_from_reference


def reference_jacobian(fmap):
    """(components, DF entries, det of a square block) of the textbook
    formulas, multiplying by a Fraction double loop."""
    n = fmap.n
    comps = [Polynomial(n, {a: vec[i] for a, vec in fmap.coeffs.items()}) for i in range(n)]
    entries = [[c.partial(j) for j in range(1, n + 1)] for c in comps]

    def det(rows):
        total = Polynomial.zero(n)
        for perm in permutations(range(len(rows))):
            inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
            term = Polynomial.constant(n, -1 if inversions % 2 else 1)
            for row, j in zip(rows, perm):
                term = Polynomial(n, naive_product(term, row[j]))
            total = total + term
        return total

    return comps, entries, det


def reference_pullback(fmap, v):
    """F*v = sum over sigma, tau of (v_sigma o F) det DF[sigma, tau] dx^tau."""
    n = fmap.n
    comps, entries, det = reference_jacobian(fmap)
    out = DiffForm.zero(n, v.k)
    for sigma, poly in v.components.items():
        pulled = Polynomial.zero(n)
        for exps, c in poly.terms.items():
            term = Polynomial.constant(n, c)
            for comp, e in zip(comps, exps):
                for _ in range(e):
                    term = Polynomial(n, naive_product(term, comp))
            pulled = pulled + term
        for tau in enumerate_sigma(v.k, n):
            minor = det([[entries[s - 1][t - 1] for t in tau] for s in sigma])
            out = out + DiffForm(n, v.k, {tau: Polynomial(n, naive_product(pulled, minor))})
    return out


def trapezoid_map(d=Fraction(1, 2)):
    return map_from_vertices(
        {(0, 0): (0, 0), (1, 0): (1, 0), (0, 1): (0, 1 - d), (1, 1): (1, 1 + d)}
    )


class TestMapFromVertices:
    def test_identity(self):
        fmap = map_from_vertices(
            {a: a for a in [(0, 0), (1, 0), (0, 1), (1, 1)]}
        )
        assert fmap.coeffs == MultilinearMap.identity(2).coeffs
        assert fmap.is_affine

    def test_dilation(self):
        h = Fraction(1, 3)
        fmap = map_from_vertices(
            {a: (h * a[0], h * a[1]) for a in [(0, 0), (1, 0), (0, 1), (1, 1)]}
        )
        assert fmap.coeffs == MultilinearMap.dilation(2, h).coeffs

    def test_trapezoid_coefficients(self):
        d = Fraction(1, 2)
        fmap = trapezoid_map(d)
        # F(x, y) = (x, y (1 - d + 2 d x))
        assert fmap.coeffs == {
            (0, 0): (0, 0),
            (1, 0): (1, 0),
            (0, 1): (0, 1 - d),
            (1, 1): (0, 2 * d),
        }
        assert not fmap.is_affine

    def test_missing_corner(self):
        with pytest.raises(ValueError):
            map_from_vertices({(0, 0): (0, 0), (1, 0): (1, 0), (0, 1): (0, 1)})

    def test_corner_interpolation_exact(self, rng):
        fmap = random_rational_multilinear(3, rng)
        for alpha in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
            vals = fmap.eval_exact(alpha)
            assert all(isinstance(v, Fraction) for v in vals)

    @pytest.mark.parametrize("n", [2, 3])
    @given(data=st.data())
    def test_interpolates_mixed_denominators(self, n, data):
        verts = data.draw(vertex_strategy(n, spread=4, max_denominator=30))
        fmap = map_from_vertices(verts)
        for alpha, v in verts.items():
            assert fmap.eval_exact(alpha) == v


def assert_lowest_terms(fmap):
    """ints are Python ints over denom with gcd(all ints, denom) = 1, so
    denom is the lcm of the reduced denominators of coeffs."""
    ints = [c for vec in fmap.ints.values() for c in vec]
    assert all(type(c) is int for c in ints)
    assert gcd(fmap.denom, *ints) == 1
    assert fmap.denom == lcm(*(c.denominator for vec in fmap.coeffs.values() for c in vec))


class TestRepresentation:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @given(data=st.data())
    def test_vertex_maps_in_lowest_terms(self, n, data):
        fmap = map_from_vertices(data.draw(vertex_strategy(n, spread=4, max_denominator=30)))
        assert_lowest_terms(fmap)

    @pytest.mark.parametrize(
        "family, n, kw",
        [
            ("uniform", 1, {}),
            ("uniform", 2, {}),
            ("uniform", 3, {}),
            ("parallelotope", 2, {"shear": [[0, Fraction(1, 2)], [Fraction(-1, 3), 0]]}),
            (
                "parallelotope",
                3,
                {"shear": [[0, Fraction(1, 4), 0], [0, 0, Fraction(2, 5)], [0, 0, 0]]},
            ),
            ("trapezoidal", 2, {"d": Fraction(3, 10)}),
            ("trapezoidal", 2, {"d": 0.5}),
            ("trapezoidal", 2, {"d": Fraction(2, 5)}),
            ("trilinear3d", 3, {"d": Fraction(3, 10)}),
        ],
    )
    def test_mesh_cells_in_lowest_terms(self, family, n, kw):
        for el in build_mesh(family, n, 4, **kw).elements:
            assert_lowest_terms(el)

    def test_float_arrays_round_correctly(self):
        # float(c) / float(denom) rounds twice and misses on this coordinate.
        big = Fraction(2**54 + 1, 3)
        fmap = map_from_vertices(
            {
                a: (big + a[0], Fraction(a[1], 7) + Fraction(a[0] * a[1], 5))
                for a in product((0, 1), repeat=2)
            }
        )
        coeffs = fmap.float_arrays()
        for row, alpha in zip(coeffs, _corners(2)):
            assert list(row) == [float(c) for c in fmap.coeffs[tuple(alpha)]]
        assert coeffs[0, 0] == float(big)

    def test_constructor_reduces(self):
        fmap = MultilinearMap(2, {(0, 0): (2, -8), (1, 0): (6, 0), (0, 1): [0, 4]}, 10)
        assert fmap.denom == 5
        assert fmap.ints == {(0, 0): (1, -4), (1, 0): (3, 0), (0, 1): (0, 2), (1, 1): (0, 0)}
        assert fmap.coeffs[(1, 0)] == (Fraction(3, 5), 0)
        assert MultilinearMap(1, {}, 7).denom == 1
        assert MultilinearMap.dilation(2, Fraction(4, 6)).ints[(1, 0)] == (2, 0)

    def test_eval_exact_arity(self):
        fmap = MultilinearMap.identity(2)
        for point in ([1], [1, 2, 3]):
            with pytest.raises(ValueError, match="point arity mismatch"):
                fmap.eval_exact(point)
        assert fmap.eval_exact([1, Fraction(1, 2)]) == (1, Fraction(1, 2))

    def test_call_arity(self):
        fmap = MultilinearMap.identity(2)
        for point in ((0.5,), (0.5, 0.5, 0.5)):
            with pytest.raises(ValueError, match="point arity mismatch"):
                fmap(point)
        assert list(fmap((0.5, 0.25))) == [0.5, 0.25]

    def test_constructor_rejects_non_corner_key(self):
        with pytest.raises(ValueError, match=r"keys must be corners of \{0,1\}\^2"):
            MultilinearMap(2, {(2, 0): (1, 1), (1, 0): (1, 0)}, 1)
        with pytest.raises(ValueError, match="keys must be corners"):
            MultilinearMap(2, {(0, 0, 1): (1, 1)}, 1)

    def test_constructor_rejects_bad_input(self):
        with pytest.raises(TypeError):
            MultilinearMap(1, {(1,): (Fraction(1, 2),)}, 1)
        with pytest.raises(ValueError):
            MultilinearMap(1, {(1,): (1,)}, 0)
        with pytest.raises(ValueError):
            MultilinearMap(2, {(1, 0): (1,)}, 1)


class TestJacobian:
    def test_identity(self):
        jac = jacobian(MultilinearMap.identity(2))
        assert jac.det_poly == Polynomial.constant(2, 1)

    def test_dilation(self):
        h = Fraction(2)
        jac = jacobian(MultilinearMap.dilation(2, h))
        assert jac.entries[0][0] == Polynomial.constant(2, h)
        assert jac.entries[0][1].is_zero
        assert jac.det_poly == Polynomial.constant(2, h * h)

    def test_trapezoid_det(self):
        d = Fraction(1, 2)
        jac = jacobian(trapezoid_map(d))
        assert jac.det_poly == Polynomial(2, {(0, 0): 1 - d, (1, 0): 2 * d})

    def test_entries_independent_of_own_variable(self, rng):
        fmap = random_rational_multilinear(3, rng)
        jac = jacobian(fmap)
        for i in range(3):
            for j in range(3):
                assert jac.entries[i][j].degree_in(j + 1) <= 0


def old_screen_points(n):
    """The corners and the 5^n grid of ticks i/4 that check_diffeo once sampled."""
    ticks = [Fraction(i, 4) for i in range(5)]
    return list(product((0, 1), repeat=n)) + list(product(ticks, repeat=n))


def bernstein_eval(coeffs, scale, n, point):
    d = n - 1
    total = Fraction(0)
    for t, b in coeffs.items():
        w = Fraction(b)
        for ti, x in zip(t, point):
            w *= comb(d, ti) * x**ti * (1 - x) ** (d - ti)
        total += w
    return total / scale


def pointwise_det(fmap, point):
    """det DF at a point from the corner coefficients alone, independent of
    the map's cached minors: dF_i/dx_j sums c_alpha[i] prod_(m != j) x_m^alpha_m
    over alpha with alpha_j = 1, and the determinant is the Leibniz sum."""
    n = fmap.n
    df = [[Fraction(0)] * n for _ in range(n)]
    for alpha, vec in fmap.ints.items():
        for j in range(n):
            if alpha[j]:
                w = Fraction(1, fmap.denom)
                for m in range(n):
                    if m != j and alpha[m]:
                        w *= point[m]
                for i in range(n):
                    df[i][j] += vec[i] * w
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= df[i][j]
        total += term
    return total


# Valid, but two of its 27 Bernstein coefficients are negative, so the
# proof needs one subdivision.
SUBDIVIDED_VERTICES = {
    (0, 0, 0): (Fraction(1, 2), Fraction(-5, 8), 0),
    (0, 0, 1): (Fraction(-1, 8), Fraction(1, 8), Fraction(13, 8)),
    (0, 1, 0): (Fraction(3, 8), Fraction(7, 8), Fraction(-3, 8)),
    (0, 1, 1): (Fraction(1, 4), Fraction(7, 8), Fraction(5, 4)),
    (1, 0, 0): (Fraction(5, 8), Fraction(1, 4), Fraction(3, 8)),
    (1, 0, 1): (Fraction(3, 8), Fraction(-1, 8), Fraction(11, 8)),
    (1, 1, 0): (Fraction(1, 2), Fraction(3, 2), Fraction(1, 8)),
    (1, 1, 1): (Fraction(1, 2), 1, Fraction(1, 2)),
}


class TestDetBernstein:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @given(data=st.data())
    def test_matches_det_poly(self, n, data):
        fmap = map_from_vertices(data.draw(vertex_strategy(n, spread=4)))
        det = jacobian(fmap).det_poly
        coeffs, scale = _det_bernstein(fmap)
        assert len(coeffs) == n**n
        coord = st.fractions(min_value=-1, max_value=2, max_denominator=20)
        for point in data.draw(st.lists(st.tuples(*([coord] * n)), min_size=1, max_size=4)):
            assert bernstein_eval(coeffs, scale, n, point) == det.eval_exact(point)
        assert Fraction(sum(coeffs.values()), n**n * scale) == det.integral_box(1)

    @pytest.mark.parametrize("d", range(5))
    def test_table_reproduces_monomials(self, d):
        # A degree-d identity that holds at d + 1 points holds everywhere.
        table, big_l = _bernstein_table(d)
        for x in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(-3, 7), Fraction(5, 2)):
            for i in range(d + 1):
                got = sum(
                    table[t][i] * comb(d, t) * x**t * (1 - x) ** (d - t) for t in range(d + 1)
                )
                assert got == big_l * x**i

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @given(data=st.data())
    def test_matches_pointwise_det(self, n, data):
        fmap = map_from_vertices(data.draw(vertex_strategy(n, spread=4)))
        coeffs, scale = _det_bernstein(fmap)
        assert len(coeffs) == n**n
        coord = st.fractions(min_value=-1, max_value=2, max_denominator=20)
        for point in data.draw(st.lists(st.tuples(*([coord] * n)), min_size=1, max_size=3)):
            assert bernstein_eval(coeffs, scale, n, point) == pointwise_det(fmap, point)

    def test_collapsed_map(self):
        fmap = map_from_vertices({alpha: (1, 2, 3) for alpha in product((0, 1), repeat=3)})
        coeffs, _ = _det_bernstein(fmap)
        assert coeffs == dict.fromkeys(product(range(3), repeat=3), 0)
        assert not check_diffeo(fmap)

    def test_four_dimensions(self, rng):
        # n = 4: the top minor expands four rows deep and the table has d = 3.
        fmap = map_from_vertices(
            {
                alpha: tuple(a + Fraction(rng.randint(-1, 1), 16) for a in alpha)
                for alpha in product((0, 1), repeat=4)
            }
        )
        det = jacobian(fmap).det_poly
        coeffs, scale = _det_bernstein(fmap)
        point = (Fraction(1, 3), Fraction(-1, 2), Fraction(5, 7), 2)
        assert bernstein_eval(coeffs, scale, 4, point) == det.eval_exact(point)
        assert det.eval_exact(point) == pointwise_det(fmap, point)
        assert Fraction(sum(coeffs.values()), 4**4 * scale) == det.integral_box(1)
        assert check_diffeo(fmap)

    @pytest.mark.parametrize("n", [2, 3])
    @given(data=st.data())
    def test_halves_are_restrictions(self, n, data):
        fmap = map_from_vertices(data.draw(vertex_strategy(n, spread=4)))
        det = jacobian(fmap).det_poly
        coeffs, scale = _det_bernstein(fmap)
        axis = data.draw(st.integers(0, n - 1))
        unit = st.fractions(min_value=0, max_value=1, max_denominator=20)
        point = data.draw(st.tuples(*([unit] * n)))
        for half, shift in zip(_halve(coeffs, axis, n - 1), (0, 1)):
            inner = list(point)
            inner[axis] = (shift + point[axis]) / 2
            got = bernstein_eval(half, scale * 2 ** (n - 1), n, point)
            assert got == det.eval_exact(inner)


class TestCheckDiffeo:
    def test_identity(self):
        assert check_diffeo(MultilinearMap.identity(2))

    def test_trapezoid(self):
        assert check_diffeo(trapezoid_map(Fraction(1, 2)))

    def test_crossed_corners(self):
        fmap = map_from_vertices(
            {(0, 0): (1, 0), (1, 0): (0, 0), (0, 1): (0, 1), (1, 1): (1, 1)}
        )
        assert not check_diffeo(fmap)

    def test_sampled_screen_was_unsound(self, screen_counterexample):
        det = jacobian(screen_counterexample).det_poly
        assert all(det.eval_exact(p) > 0 for p in old_screen_points(3))
        assert det.eval_exact((Fraction(1, 8), 0, 0)) == Fraction(-169, 16384)
        assert not check_diffeo(screen_counterexample)

    def test_subdivision_proves_and_depth_caps(self):
        fmap = map_from_vertices(SUBDIVIDED_VERTICES)
        coeffs, _ = _det_bernstein(fmap)
        assert min(coeffs.values()) < 0
        assert check_diffeo(fmap)
        assert not _bernstein_positive(coeffs, 3, depth=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @given(h=st.fractions(min_value=Fraction(1, 100), max_value=100))
    def test_identity_and_dilations(self, n, h):
        assert check_diffeo(MultilinearMap.identity(n))
        assert check_diffeo(MultilinearMap.dilation(n, h))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_rational_multilinear(self, n, seed):
        assert check_diffeo(random_rational_multilinear(n, random.Random(seed)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @given(data=st.data())
    def test_agrees_with_det_poly(self, n, data):
        fmap = map_from_vertices(data.draw(vertex_strategy(n, spread=3)))
        det = jacobian(fmap).det_poly
        ok = check_diffeo(fmap)
        if n <= 2:
            # det DF has degree <= 1 per variable, so its corner values decide.
            assert ok == all(det.eval_exact(c) > 0 for c in product((0, 1), repeat=n))
        unit = st.fractions(min_value=0, max_value=1, max_denominator=50)
        points = old_screen_points(n) + data.draw(st.lists(st.tuples(*([unit] * n)), max_size=4))
        if ok:
            assert all(det.eval_exact(p) > 0 for p in points)


class TestPullback:
    def test_identity(self):
        v = DiffForm.monomial_form(2, (1,), (1, 2), Fraction(3, 2))
        assert pullback_polynomial(MultilinearMap.identity(2), v) == v

    def test_dilation_volume(self):
        h = Fraction(1, 2)
        vol = DiffForm.basis_form(2, (1, 2))
        got = pullback_polynomial(MultilinearMap.dilation(2, h), vol)
        assert got == DiffForm.monomial_form(2, (1, 2), (0, 0), h * h)

    def test_trapezoid_volume(self):
        d = Fraction(1, 2)
        got = pullback_polynomial(trapezoid_map(d), DiffForm.basis_form(2, (1, 2)))
        want = DiffForm(2, 2, {(1, 2): Polynomial(2, {(0, 0): 1 - d, (1, 0): 2 * d})})
        assert got == want

    def test_multilinear_pullback_lands_in_qminus(self, rng):
        fmap = random_rational_multilinear(2, rng)
        v = DiffForm.monomial_form(2, (1,), (1, 0))
        assert in_span(build_Qminus(2, 1, 2), pullback_polynomial(fmap, v))

    def test_affine_pullback_stays_polynomial(self, rng):
        amap = random_rational_affine(2, rng)
        for v in build_P(2, 1, 2).basis:
            assert in_span(build_P(2, 1, 2), pullback_polynomial(amap, v))

    def test_naturality(self, rng):
        fmap = random_rational_multilinear(2, rng)
        v = DiffForm.monomial_form(2, (2,), (2, 1)) + DiffForm.monomial_form(
            2, (1,), (0, 2), Fraction(-1, 3)
        )
        assert pullback_polynomial(fmap, v.d()) == pullback_polynomial(fmap, v).d()

    def test_wedge_preservation(self, rng):
        fmap = random_rational_multilinear(3, rng)
        v = DiffForm.monomial_form(3, (1,), (1, 0, 1))
        w = DiffForm.monomial_form(3, (2,), (0, 1, 0), Fraction(2, 5))
        lhs = pullback_polynomial(fmap, v.wedge(w))
        rhs = pullback_polynomial(fmap, v).wedge(pullback_polynomial(fmap, w))
        assert lhs == rhs

    def test_functoriality_with_affine_outer(self, rng):
        inner = random_rational_multilinear(2, rng)
        outer = random_rational_affine(2, rng)
        # An affine image of a multilinear interpolant interpolates the
        # images of its corners, so this is the exact composite.
        comp = map_from_vertices(
            {a: outer.eval_exact(inner.eval_exact(a)) for a in product((0, 1), repeat=2)}
        )
        v = DiffForm.monomial_form(2, (1, 2), (1, 1), Fraction(1, 2))
        lhs = pullback_polynomial(comp, v)
        rhs = pullback_polynomial(inner, pullback_polynomial(outer, v))
        assert lhs == rhs

    @pytest.mark.parametrize("n", [1, 2, 3])
    @given(data=st.data())
    def test_matches_textbook_formula(self, n, data):
        f = map_from_vertices(data.draw(vertex_strategy(n)))
        g = map_from_vertices(data.draw(vertex_strategy(n, spread=4)))
        v = data.draw(form_strategy(n, data.draw(st.integers(0, n)), max_terms=4))
        w = data.draw(form_strategy(n, data.draw(st.integers(0, n)), max_terms=4))
        # Repeats hit each map's cache; alternating maps checks they stay apart.
        for fmap, form in [(f, v), (g, w), (f, w), (g, v), (f, v), (g, w)]:
            assert pullback_polynomial(fmap, form) == reference_pullback(fmap, form)
        for fmap in (f, g):
            _, entries, det = reference_jacobian(fmap)
            jac = jacobian(fmap)
            assert jac.entries == entries
            assert jac.det_poly == det(entries)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @given(data=st.data())
    def test_wide_slots_match_textbook_formula(self, n, data):
        # Corner offsets over the primes 2^61 - 1 and 2^89 - 1 give a map
        # denominator above 2^64, so D^(m+k) and the packed slots span
        # several 64-bit limbs.
        offset = st.builds(
            Fraction,
            st.integers(-(2**85), 2**85),
            st.sampled_from([2**61 - 1, 2**89 - 1]),
        )
        verts = {
            alpha: tuple(a + data.draw(offset) for a in alpha)
            for alpha in product((0, 1), repeat=n)
        }
        verts[(0,) * n] = (Fraction(1, 2**89 - 1),) * n
        fmap = map_from_vertices(verts)
        assert fmap.denom > 2**64
        for _ in range(2):
            v = data.draw(form_strategy(n, data.draw(st.integers(0, n)), max_terms=3))
            assert pullback_polynomial(fmap, v) == reference_pullback(fmap, v)

    def test_dilation_l2_scaling(self):
        for n in (1, 2, 3):
            for h in (Fraction(1, 2), Fraction(1, 3), Fraction(2)):
                fmap = MultilinearMap.dilation(n, h)
                for k in range(n + 1):
                    v = DiffForm.monomial_form(
                        n, tuple(range(1, k + 1)), tuple(range(n)), Fraction(2, 3)
                    )
                    lhs = l2_inner_reference(
                        pullback_polynomial(fmap, v), pullback_polynomial(fmap, v)
                    )
                    assert lhs == h ** (2 * k - n) * l2_inner_box(v, v, h)


# Scales for the forms of a batched pullback: mixed denominators, and 2^70,
# whose products need slots wider than 64 bits.
FORM_SCALES = st.sampled_from(
    [1, Fraction(1, 3), Fraction(-5, 7), 2**70, Fraction(3, 2**67 - 1)]
)


def scaled_forms(n, k, size=6):
    """Lists of multi-term rational k-forms of mixed degrees and scales."""
    scaled = st.tuples(form_strategy(n, k, max_terms=4), FORM_SCALES).map(lambda p: p[0] * p[1])
    return st.lists(scaled, min_size=1, max_size=size)


def assert_batched(fmap, forms):
    """_pullbacks decodes, form by form, to the one-form pullbacks; returns
    the table."""
    table = _pullbacks(fmap, forms)
    assert len(table.denoms) == len(forms)
    for i, v in enumerate(forms):
        assert table.form(i) == pullback_polynomial(fmap, v)
    return table


class TestBatchedPullback:
    """mapping._pullbacks, which pulls back a list of forms in one layout,
    against the one-form case and the textbook formula."""

    @pytest.mark.parametrize("seed", [2024, 7])
    @pytest.mark.parametrize("n", [2, 3])
    def test_support_masks_of_check_draws(self, n, seed):
        # The maps and bases of check_pullback_inclusions(n, 3, 5, seed).
        rng = random.Random(seed)
        for _ in range(5):
            pair = random_rational_multilinear(n, rng), random_rational_affine(n, rng)
            for fmap in pair:
                for k in range(n + 1):
                    basis = build_P(3, k, n).basis
                    table = assert_batched(fmap, basis)
                    for i in range(len(basis)):
                        decoded = table.form(i)
                        for tau, coeffs in table.parts.items():
                            monomials = decoded.component(tau).ints
                            mask = _slot_mask(monomials, table.layout)
                            assert mask.sum() == len(monomials)
                            assert np.array_equal(coeffs[i] != 0, mask)

    @pytest.mark.parametrize("n", [2, 3])
    def test_inclusion_verdicts_match_in_span(self, n):
        # check's mask verdict against in_span on each decoded form, for the
        # check's own targets and for two that must fail somewhere.
        rng = random.Random(2024)
        maps = random_rational_multilinear(n, rng), random_rational_affine(n, rng)
        verdicts = []
        for k in range(n + 1):
            basis = build_P(3, k, n).basis
            by_degree = {}
            for i, v in enumerate(basis):
                by_degree.setdefault(v.max_degree(), []).append(i)
            families = [
                {r: build_Qminus(r + k, k, n) for r in range(4)},
                {r: build_Qminus(r + k - 1, k, n) for r in range(4)},
                {r: build_P(r, k, n) for r in range(4)},
            ]
            for fmap in maps:
                table = _pullbacks(fmap, basis)
                for targets, (r, rows) in product(families, by_degree.items()):
                    want = all(in_span(targets[r], table.form(i)) for i in rows)
                    assert verify._lands_in(table, {r: rows}, targets, {}) == want
                    verdicts.append(want)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("n", [1, 2, 3])
    @given(data=st.data())
    def test_matches_one_at_a_time(self, n, data):
        # Maps of any sign of det DF: the pullback is algebra either way.
        fmap = map_from_vertices(data.draw(vertex_strategy(n, spread=3)))
        k = data.draw(st.integers(0, n))
        forms = data.draw(scaled_forms(n, k))
        for _ in range(data.draw(st.integers(0, 2))):
            forms.insert(data.draw(st.integers(0, len(forms))), DiffForm.zero(n, k))
        table = assert_batched(fmap, forms)
        coeffs = [c for v in forms for p in v.components.values() for c in p.ints.values()]
        if any(abs(c) >= 2**70 for c in coeffs):
            assert all(c.dtype == object for c in table.parts.values())
        assert table.form(0) == reference_pullback(fmap, forms[0])

    @pytest.mark.parametrize("n", [2, 3])
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_components_that_cancel(self, n, seed, data):
        # For an affine map with DF = M / D, c = e_1^T M^-1 gives
        # F*(sum_i c_i dx_i) = dx_1 / D: each other component is a sum over
        # sigma that cancels, slot for slot.
        amap = random_rational_affine(n, random.Random(seed))
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        c = exactla.invert([[amap.ints[u][i] for u in units] for i in range(n)])[0]
        exps = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=4))
        scale = data.draw(FORM_SCALES)
        cancelling = [
            DiffForm(
                n, 1, {(i + 1,): Polynomial.monomial(n, e, x * scale) for i, x in enumerate(c) if x}
            )
            for e in exps
        ]
        forms = cancelling + data.draw(scaled_forms(n, 1, size=2))
        table = assert_batched(amap, forms)
        for i in range(len(cancelling)):
            assert list(table.form(i).components) == [(1,)]
            assert not any(table.parts[tau][i].any() for tau in table.parts if tau != (1,))
        assert table.form(0) == reference_pullback(amap, cancelling[0])

    def test_zero_forms_between_forms(self, rng):
        fmap = random_rational_multilinear(3, rng)
        v = DiffForm.monomial_form(3, (1,), (1, 0, 2), Fraction(2, 3))
        w = DiffForm.monomial_form(3, (3,), (0, 1, 0), -5)
        zero = DiffForm.zero(3, 1)
        table = assert_batched(fmap, [zero, v, zero, zero, w, zero, v])
        assert table.form(2) == zero
        assert table.form(6) == table.form(1) == reference_pullback(fmap, v)

    @pytest.mark.parametrize(
        "c, dtype",
        [(2**62 - 1, np.int64), (2**62, object), (2**62 + 1, object)],
        ids=["bound 2^63-2", "bound 2^63", "bound 2^63+2"],
    )
    def test_int64_only_below_two_to_the_63(self, c, dtype):
        # Through F(x) = 2x, D = 1, the 1-form c dx is one operand slot c
        # and one minor term 2, so the engine's bound is 2c, reached by
        # the output coefficient itself: int64 would wrap from 2^63 on.
        fmap = MultilinearMap.dilation(1, 2)
        v = DiffForm.monomial_form(1, (1,), (0,), c)
        table = _pullbacks(fmap, [v])
        assert all(part.dtype == dtype for part in table.parts.values())
        assert table.form(0) == reference_pullback(fmap, v)
        assert table.form(0).component((1,)).ints == {(0,): 2 * c}

    def test_mixed_degrees_match_textbook_formula(self, rng):
        # The list the naturality and wedge checks pull back: one _pullbacks
        # call per degree, and degrees above n give the zero form.
        fmap = random_rational_multilinear(2, rng)
        forms = verify._sample_forms(2)
        forms += [f.d() for f in forms] + [f.wedge(g) for f in forms for g in forms]
        for v, pulled in zip(forms, _pull_all(fmap, forms), strict=True):
            assert pulled == (DiffForm.zero(2, v.k) if v.k > 2 else reference_pullback(fmap, v))

    def test_rejects_forms_of_another_shape(self, rng):
        fmap = random_rational_multilinear(2, rng)
        with pytest.raises(ValueError, match="k-forms on the map's cube"):
            _pullbacks(fmap, [DiffForm.basis_form(2, (1,)), DiffForm.basis_form(2, (1, 2))])


class TestRandomMaps:
    @pytest.mark.parametrize("draw", [random_rational_multilinear, random_rational_affine])
    def test_gives_up_when_every_draw_is_rejected(self, draw, monkeypatch):
        monkeypatch.setattr(verify, "check_diffeo", lambda fmap: False)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match=f"dimension 3 in {verify._MAX_DRAWS} draws"):
            draw(3, random.Random(0))
        assert time.perf_counter() - t0 < 10


class TestPushforward:
    """(F^-1)* of a reference form, evaluated by oracles.target_from_reference
    at the physical points F(xref)."""

    @staticmethod
    def pushforward(fmap, w, xrefs):
        xref = np.array(xrefs, dtype=np.float64)
        xphys = np.array([fmap(x) for x in xref])
        return target_from_reference(fmap, w).values(xphys, xref)

    def test_form_and_map_dimensions_must_match(self):
        with pytest.raises(ValueError, match="3D form cannot be pushed forward by a 2D map"):
            target_from_reference(MultilinearMap.identity(2), DiffForm.basis_form(3, (1,)))
        with pytest.raises(ValueError, match="1D form cannot be pushed forward by a 2D map"):
            target_from_reference(MultilinearMap.identity(2), DiffForm.basis_form(1, ()))

    def test_identity(self):
        w = DiffForm.monomial_form(2, (1,), (1, 1), Fraction(1, 2))
        got = self.pushforward(MultilinearMap.identity(2), w, [(0.5, 0.25)])
        assert got[0, 0] == pytest.approx(0.5 * 0.5 * 0.25)
        assert got[0, 1] == 0.0

    def test_dilation_scaling(self):
        h = 0.5
        fmap = MultilinearMap.dilation(2, Fraction(1, 2))
        w = DiffForm.basis_form(2, (1,)) + DiffForm.basis_form(2, (2,)) * 2
        got = self.pushforward(fmap, w, [(0.3, 0.7)])
        assert got[0, 0] == pytest.approx(1 / h)
        assert got[0, 1] == pytest.approx(2 / h)

    def test_round_trip_on_grid(self, rng):
        fmap = random_rational_multilinear(2, rng)
        w = DiffForm.monomial_form(2, (1,), (1, 1)) + DiffForm.monomial_form(
            2, (2,), (0, 2), Fraction(-2, 3)
        )
        jac = jacobian(fmap)
        sigmas = enumerate_sigma(1, 2)
        xrefs = [(0.1, 0.2), (0.5, 0.5), (0.9, 0.3)]
        phys = self.pushforward(fmap, w, xrefs)
        for vals, xh in zip(phys, xrefs):
            df = np.array(
                [[jac.entries[i][j].eval_float(xh) for j in range(2)] for i in range(2)]
            )
            # contract back: (F^* v)_tau = sum_sigma v_sigma det(DF[sigma, tau])
            for tau in sigmas:
                val = sum(
                    vals[m] * df[sigma[0] - 1, tau[0] - 1] for m, sigma in enumerate(sigmas)
                )
                want = w.components.get(tau, Polynomial.zero(2)).eval_float(xh)
                assert val == pytest.approx(want, abs=1e-12)
