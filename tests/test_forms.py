import random
from fractions import Fraction
from itertools import permutations
from math import comb, gcd
from operator import add, mul, sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubeforms.forms import (
    DiffForm,
    Face,
    Polynomial,
    _int_mul,
    enumerate_sigma,
    evaluate,
    exterior_derivative,
    l2_inner_reference,
    trace,
    wedge,
)
from cubeforms.dofs import enumerate_faces
from cubeforms.mapping import jacobian, map_from_vertices, pullback_polynomial
from cubeforms.spaces import build_P

from conftest import form_strategy, naive_product, nk_pairs, vertex_strategy


def mono(n, sigma, exps, c=1):
    return DiffForm.monomial_form(n, sigma, exps, c)


class TestEnumerateSigma:
    def test_zero_selection(self):
        assert enumerate_sigma(0, 3) == [()]

    def test_one_forms_2d(self):
        assert enumerate_sigma(1, 2) == [(1,), (2,)]

    def test_two_forms_3d(self):
        assert enumerate_sigma(2, 3) == [(1, 2), (1, 3), (2, 3)]

    @pytest.mark.parametrize("n,k", nk_pairs(4))
    def test_cardinality_and_order(self, n, k):
        sigmas = enumerate_sigma(k, n)
        assert len(sigmas) == comb(n, k)
        assert sigmas == sorted(set(sigmas))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            enumerate_sigma(-1, 2)
        with pytest.raises(ValueError):
            enumerate_sigma(3, 2)


class TestWedge:
    def test_basis_wedge(self):
        assert wedge(mono(2, (1,), (0, 0)), mono(2, (2,), (0, 0))) == mono(2, (1, 2), (0, 0))

    def test_anticommute_one_forms(self):
        assert wedge(mono(2, (2,), (0, 0)), mono(2, (1,), (0, 0))) == mono(
            2, (1, 2), (0, 0), -1
        )

    def test_repeated_index_annihilates(self):
        f = mono(2, (1,), (1, 0))
        g = mono(2, (1,), (0, 1))
        assert wedge(f, g).is_zero

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wedge(mono(2, (1,), (0, 0)), mono(3, (1,), (0, 0, 0)))

    @pytest.mark.parametrize("n", [2, 3])
    @given(data=st.data())
    def test_graded_anticommutativity(self, n, data):
        k = data.draw(st.integers(0, n))
        l = data.draw(st.integers(0, n))
        f = data.draw(form_strategy(n, k))
        g = data.draw(form_strategy(n, l))
        sign = -1 if (k * l) % 2 else 1
        assert wedge(f, g) == sign * wedge(g, f)


class TestExteriorDerivative:
    def test_zero_form(self):
        got = exterior_derivative(mono(2, (), (2, 1)))
        want = mono(2, (1,), (1, 1), 2) + mono(2, (2,), (2, 0))
        assert got == want

    def test_one_form(self):
        assert exterior_derivative(mono(2, (2,), (1, 0))) == mono(2, (1, 2), (0, 0))

    def test_dd_zero_example(self):
        assert mono(2, (), (3, 2)).d().d().is_zero

    @pytest.mark.parametrize("n,k", nk_pairs(3))
    @given(data=st.data())
    def test_dd_zero(self, n, k, data):
        f = data.draw(form_strategy(n, k))
        assert f.d().d().is_zero

    @pytest.mark.parametrize("n", [2, 3])
    @given(data=st.data())
    def test_leibniz(self, n, data):
        k = data.draw(st.integers(0, n))
        l = data.draw(st.integers(0, n))
        f = data.draw(form_strategy(n, k))
        g = data.draw(form_strategy(n, l))
        sign = -1 if k % 2 else 1
        assert f.wedge(g).d() == f.d().wedge(g) + sign * f.wedge(g.d())


class TestTrace:
    def test_edge_trace(self):
        f = mono(2, (1,), (1, 0)) + mono(2, (2,), (0, 1))
        got = trace(f, Face(2, {2: 1}))
        assert got == mono(1, (1,), (1,))

    def test_top_form_on_edge_vanishes(self):
        assert trace(mono(2, (1, 2), (0, 0)), Face(2, {2: 0})).is_zero

    def test_vertex_trace(self):
        f = mono(2, (), (1, 0)) + mono(2, (), (0, 1))
        got = trace(f, Face(2, {1: 1, 2: 0}))
        assert got == DiffForm(0, 0, {(): Polynomial.constant(0, 1)})

    @pytest.mark.parametrize("n,k", nk_pairs(3))
    @given(data=st.data())
    def test_trace_commutes_with_d(self, n, k, data):
        f = data.draw(form_strategy(n, k))
        fixed_count = data.draw(st.integers(0, n))
        coords = data.draw(
            st.permutations(list(range(1, n + 1))).map(lambda p: p[:fixed_count])
        )
        values = data.draw(st.tuples(*([st.sampled_from([0, 1])] * fixed_count)))
        face = Face(n, dict(zip(coords, values)))
        assert trace(f.d(), face) == trace(f, face).d()


@pytest.mark.parametrize("n", [2, 3])
def test_calculus_identities_on_a_basis(n):
    """d.d = 0, anticommutativity, Leibniz and trace.d = d.trace on every
    monomial basis form, and every pair of them, of P_2 Lambda^k for all k.
    Each identity is linear or bilinear, so this proves it for every form
    whose coefficients have degree at most 2, where the hypothesis tests
    above and ``check_calculus`` sample."""
    basis = [f for k in range(n + 1) for f in build_P(2, k, n).basis]
    faces = [face for d in range(n) for face in enumerate_faces(n, d)]
    for f in basis:
        df = f.d()
        assert df.d().is_zero
        for face in faces:
            assert df.trace(face) == f.trace(face).d()
        for g in basis:
            fg = f.wedge(g)
            assert fg == g.wedge(f) * (-1) ** (f.k * g.k)
            assert fg.d() == df.wedge(g) + f.wedge(g.d()) * (-1) ** f.k


class TestL2Inner:
    def test_constants(self):
        one = mono(2, (), (0, 0))
        assert l2_inner_reference(one, one) == 1

    def test_linear_pairing(self):
        assert l2_inner_reference(mono(2, (1,), (1, 0)), mono(2, (1,), (0, 0))) == Fraction(1, 2)

    def test_distinct_components_orthogonal(self):
        assert l2_inner_reference(mono(2, (1,), (0, 0)), mono(2, (2,), (0, 0))) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            l2_inner_reference(mono(2, (1,), (0, 0)), mono(2, (1, 2), (0, 0)))

    @pytest.mark.parametrize("n,k", nk_pairs(3))
    @given(data=st.data())
    def test_symmetric_bilinear_positive(self, n, k, data):
        f = data.draw(form_strategy(n, k))
        g = data.draw(form_strategy(n, k))
        h = data.draw(form_strategy(n, k))
        c = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
        assert l2_inner_reference(f, g) == l2_inner_reference(g, f)
        assert l2_inner_reference(f + g * c, h) == l2_inner_reference(
            f, h
        ) + c * l2_inner_reference(g, h)
        if not f.is_zero:
            assert l2_inner_reference(f, f) > 0


class TestEvaluate:
    def test_linear_component(self):
        assert evaluate(mono(2, (1,), (1, 0)), (0.5, 0.0)) == {(1,): 0.5}

    def test_zero_form_empty(self):
        assert evaluate(DiffForm.zero(2, 1), (0.3, 0.7)) == {}

    def test_scalar_product(self):
        assert evaluate(mono(2, (), (1, 1)), (1.0, 1.0)) == {(): 1.0}


class TestPolynomial:
    def test_canonical_form_drops_zeros(self):
        p = Polynomial(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
        assert (1, 0) in p.terms and (0, 1) not in p.terms

    def test_exact_arithmetic(self):
        third = Polynomial.constant(1, Fraction(1, 3))
        assert (third + third + third) == Polynomial.constant(1, 1)

    def test_integral_box(self):
        p = Polynomial.monomial(2, (1, 2))
        assert p.integral_box() == Fraction(1, 6)
        assert p.integral_box(Fraction(1, 2)) == Fraction(1, 8) * Fraction(1, 24)

    def test_storage_is_integers_over_one_denominator(self):
        p = Polynomial(2, {(1, 0): Fraction(2, 3), (0, 1): Fraction(-1, 6), (0, 0): 0})
        assert (p.ints, p.denom) == ({(1, 0): 4, (0, 1): -1}, 6)
        assert p.terms == {(1, 0): Fraction(2, 3), (0, 1): Fraction(-1, 6)}
        assert (Polynomial.zero(3).ints, Polynomial.zero(3).denom) == ({}, 1)
        # Scaling by 3/2 cancels the denominator entirely.
        q = p * Fraction(6)
        assert (q.ints, q.denom) == ({(1, 0): 4, (0, 1): -1}, 1)

    @pytest.mark.parametrize("exps", [(1,), (1, 0, 0), (-1, 0)])
    def test_rejects_bad_exponents_with_zero_coefficient(self, exps):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            Polynomial(2, {exps: 0})

    @pytest.mark.parametrize("i", [0, 3, -1])
    def test_partial_index_out_of_range(self, i):
        with pytest.raises(ValueError, match="out of range"):
            Polynomial.monomial(2, (1, 1)).partial(i)

    @pytest.mark.parametrize(
        "fixed, keep", [({3: 0}, [1, 2]), ({0: 1}, [1, 2]), ({1: 0}, [2, 3]), ({1: 0}, [0])]
    )
    def test_restrict_index_out_of_range(self, fixed, keep):
        with pytest.raises(ValueError, match="out of range"):
            Polynomial.monomial(2, (1, 1)).restrict(fixed, keep)

    @pytest.mark.parametrize("i", [0, 3, -1])
    def test_degree_in_index_out_of_range(self, i):
        with pytest.raises(ValueError, match="out of range"):
            Polynomial.monomial(2, (1, 3)).degree_in(i)

    def test_restrict_keeps_every_free_variable_once(self):
        p = Polynomial.monomial(2, (1, 1), 3)
        with pytest.raises(ValueError, match="every variable must be fixed or kept"):
            p.restrict({}, [1])
        with pytest.raises(ValueError, match="strictly increasing"):
            p.restrict({}, [1, 1])
        with pytest.raises(ValueError, match="strictly increasing"):
            p.restrict({}, [2, 1])
        assert p.restrict({}, [1, 2]) == p
        assert p.restrict({2: 2}, [1]) == Polynomial.monomial(1, (1,), 6)

    def test_restrict_fixed_and_kept_overlap(self):
        with pytest.raises(ValueError, match="both fixed and kept"):
            Polynomial.monomial(2, (1, 1)).restrict({1: 2}, [1, 2])

    def test_eval_float_arity(self):
        p = Polynomial(2, {(1, 1): 1})
        with pytest.raises(ValueError, match="point arity mismatch"):
            p.eval_float([1])
        with pytest.raises(ValueError, match="point arity mismatch"):
            p.eval_float([1, 2, 3])
        assert p.eval_float([0.5, 3]) == 1.5


def poly_strategy(nvars: int, max_terms: int = 4):
    """Polynomials with mixed-denominator coefficients of both signs."""
    term = st.tuples(
        st.tuples(*([st.integers(0, 3)] * nvars)),
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
    )
    return st.lists(term, max_size=max_terms).map(lambda ts: Polynomial(nvars, dict(ts)))


class TestPolynomialProduct:
    @pytest.mark.parametrize("nvars", [0, 1, 2, 3])
    @given(data=st.data())
    def test_matches_fraction_double_loop(self, nvars, data):
        p = data.draw(poly_strategy(nvars))
        q = data.draw(poly_strategy(nvars))
        # (p + q)(p - q) makes cross terms that cancel exactly.
        for a, b in [(p, q), (q, p), (p + q, p - q), (p, p), (p, -p)]:
            got = a * b
            assert got.terms == naive_product(a, b)
            assert got.nvars == nvars

    def test_cancelled_terms_are_not_stored(self):
        x = Polynomial.variable(2, 1)
        y = Polynomial.variable(2, 2) * Fraction(2, 3)
        got = (x + y) * (x - y)
        assert got.terms == {(2, 0): 1, (0, 2): Fraction(-4, 9)}

    @pytest.mark.parametrize("nvars", [0, 2])
    @given(data=st.data())
    def test_zero_and_constants(self, nvars, data):
        p = data.draw(poly_strategy(nvars))
        c = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=12))
        assert (p * Polynomial.zero(nvars)).terms == {}
        assert (Polynomial.zero(nvars) * p).terms == {}
        const = Polynomial.constant(nvars, c)
        assert (p * const).terms == (const * p).terms == naive_product(p, const)

    @given(p=poly_strategy(2), c=st.fractions(min_value=-5, max_value=5, max_denominator=12))
    def test_scalar_multiplication(self, p, c):
        want = {e: v * c for e, v in p.terms.items() if c != 0}
        assert (p * c).terms == want
        assert (c * p).terms == want
        assert (p * 3).terms == {e: 3 * v for e, v in p.terms.items()}
        assert (p * 0).is_zero

    @pytest.mark.parametrize("other", [1.5, "x", None], ids=["float", "str", "none"])
    def test_unsupported_operands_raise_type_error(self, other):
        p = Polynomial.variable(2, 1)
        for form in (DiffForm.basis_form(2, (1,)), DiffForm.zero(2, 1)):
            with pytest.raises(TypeError):
                form * other
            with pytest.raises(TypeError):
                other * form
            for op in (add, sub):
                for x in (other, 1, Polynomial.constant(2, 2)):
                    with pytest.raises(TypeError):
                        op(form, x)
                    with pytest.raises(TypeError):
                        op(x, form)
        for op in (mul, add, sub):
            with pytest.raises(TypeError):
                op(p, other)
            with pytest.raises(TypeError):
                op(other, p)


def double_loop_mul(a, b, out=None):
    """The term-pair double loop that the scatter in _int_mul replaces,
    kept as its oracle.  Terms that cancel stay as zeros."""
    if out is None:
        out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def nonzero(terms):
    return {e: c for e, c in terms.items() if c}


def int_poly_strategy(nvars: int, max_terms: int = 6):
    """Integer polynomials whose coefficients run from 0 (kept as explicit
    zero terms) to beyond +-2^200."""
    coeff = st.one_of(st.integers(-3, 3), st.integers(-(2**210), 2**210))
    term = st.tuples(st.tuples(*([st.integers(0, 3)] * nvars)), coeff)
    return st.lists(term, max_size=max_terms).map(dict)


class TestIntMul:
    @pytest.mark.parametrize("nvars", [0, 1, 2, 3, 4])
    @given(data=st.data())
    def test_matches_double_loop(self, nvars, data):
        a = data.draw(int_poly_strategy(nvars))
        b = data.draw(int_poly_strategy(nvars))
        assert _int_mul(a, b) == nonzero(double_loop_mul(a, b))
        assert _int_mul(b, a) == nonzero(double_loop_mul(b, a))

    @pytest.mark.parametrize("nvars", [0, 1, 2, 3, 4])
    @given(data=st.data())
    def test_accumulates_into_out(self, nvars, data):
        a = data.draw(int_poly_strategy(nvars))
        b = data.draw(int_poly_strategy(nvars))
        extra = data.draw(int_poly_strategy(nvars))
        # Part of out cancels the product exactly, the rest is unrelated.
        cancel = {e: -c for e, c in nonzero(double_loop_mul(a, b)).items() if e[:1] != (1,)}
        start = nonzero({**extra, **cancel})
        out = dict(start)
        assert _int_mul(a, b, out) is out
        assert out == nonzero(double_loop_mul(a, b, dict(start)))

    @pytest.mark.parametrize("nvars", [0, 1, 3])
    def test_empty_operands(self, nvars):
        a = {(1,) * nvars: 5}
        out = {(0,) * nvars: 7}
        assert _int_mul({}, a) == _int_mul(a, {}) == _int_mul({}, {}) == {}
        assert _int_mul({}, a, out) is out and out == {(0,) * nvars: 7}

    def test_all_terms_cancel(self):
        a = {(1, 0): 3, (0, 1): -2**205}
        b = {(2, 1): 2**201 + 1, (0, 0): -7}
        out = {e: -c for e, c in double_loop_mul(a, b).items()}
        assert _int_mul(a, b, out) == {}
        # (x + y)(x - y): the mixed term cancels inside one product.
        assert _int_mul({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}) == {(2, 0): 1, (0, 2): -1}

    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficient_at_power_of_two_bound(self, sign):
        """Products whose bound min(|a|,|b|) max|a| max|b| is exactly 2^s
        and is reached by an output coefficient, for every s up to 300."""
        for s in range(301):
            # A single pair: bound 2^s, product coefficient sign 2^s.
            assert _int_mul({(2, 0): sign * 2**s}, {(0, 1): 1}) == {(2, 1): sign * 2**s}
            if s:
                # Two terms each: the middle coefficient is 2 * 2^(s-1).
                a = {(0,): 2 ** (s - 1), (1,): 2 ** (s - 1)}
                b = {(0,): sign, (1,): sign}
                want = {(0,): sign * 2 ** (s - 1), (1,): sign * 2**s, (2,): sign * 2 ** (s - 1)}
                assert _int_mul(a, b) == want

    @pytest.mark.parametrize("s", [7, 15, 31, 63])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficients_around_slot_size_switch(self, s, delta, sign):
        """Output coefficients of magnitude 2^s - 1, 2^s and 2^s + 1, around
        the fixed-width integer sizes; at s = 63 the product's array
        switches from int64 to Python ints."""
        c = sign * (2**s + delta)
        assert _int_mul({(1, 0, 2): c}, {(0, 3, 0): 1}) == {(1, 3, 2): c}
        a = {(0, 0, 0): c, (2, 1, 0): -c, (0, 0, 3): 1}
        b = {(0, 0, 0): 1, (1, 0, 1): -1, (0, 2, 0): sign}
        assert _int_mul(a, b) == nonzero(double_loop_mul(a, b))
        assert _int_mul(b, a) == nonzero(double_loop_mul(b, a))

    def test_zero_operand_beside_a_large_coefficient(self):
        """An all-zero operand makes every product zero, so only the
        operands' own maxima keep 2^200 out of an int64 array."""
        big = {(1, 0): 2**200, (0, 2): 3}
        zeros = {(0, 0): 0, (2, 1): 0}
        for a, b in ((big, zeros), (zeros, big)):
            assert _int_mul(a, b) == {}
            out = {(1, 1): 5}
            assert _int_mul(a, b, out) is out and out == {(1, 1): 5}

    @pytest.mark.parametrize("nvars", [3, 4])
    @pytest.mark.parametrize("bits", [6, 14, 30, 62, 100])
    def test_sparse_products(self, nvars, bits):
        """Ten-term operands with exponents up to 3: most slots of the
        product's layout are zero."""
        rng = random.Random(1000 * nvars + bits)
        top = 2**bits
        for _ in range(10):
            a, b = (
                {
                    tuple(rng.randint(0, 3) for _ in range(nvars)): rng.randint(-top, top)
                    for _ in range(10)
                }
                for _ in range(2)
            )
            assert _int_mul(a, b) == nonzero(double_loop_mul(a, b))


# A Fraction-dict oracle: polynomials as {exponents: nonzero Fraction}, one
# Fraction per term, with no shared code with Polynomial.


def o_clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def o_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return o_clean(out)


def o_mul(a, b):
    return nonzero(double_loop_mul(a, b))


def o_partial(a, i):
    out = {}
    for e, c in a.items():
        if e[i - 1]:
            out[e[: i - 1] + (e[i - 1] - 1,) + e[i:]] = c * e[i - 1]
    return out


def o_restrict(a, fixed, keep):
    out = {}
    for e, c in a.items():
        for i, v in fixed.items():
            c *= Fraction(v) ** e[i - 1]
        key = tuple(e[i - 1] for i in keep)
        out[key] = out.get(key, 0) + c
    return o_clean(out)


def o_det(rows, nvars):
    total = {}
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        term = {(0,) * nvars: Fraction(-1 if inversions % 2 else 1)}
        for row, j in zip(rows, perm):
            term = o_mul(term, row[j])
        total = o_add(total, term)
    return total


def o_jacobian(fmap):
    """(components F^i, entries dF^i/dx^j) of the map."""
    n = fmap.n
    comps = [o_clean({a: vec[i] for a, vec in fmap.coeffs.items()}) for i in range(n)]
    return comps, [[o_partial(c, j) for j in range(1, n + 1)] for c in comps]


def o_pullback(fmap, v):
    """{tau: terms} of sum over sigma, tau of (v_sigma o F) det DF[sigma, tau]."""
    n = fmap.n
    comps, entries = o_jacobian(fmap)
    out = {}
    for sigma, poly in v.components.items():
        pulled = {}
        for exps, c in poly.terms.items():
            term = {(0,) * n: c}
            for comp, e in zip(comps, exps):
                for _ in range(e):
                    term = o_mul(term, comp)
            pulled = o_add(pulled, term)
        for tau in enumerate_sigma(v.k, n):
            minor = o_det([[entries[s - 1][t - 1] for t in tau] for s in sigma], n)
            out[tau] = o_add(out.get(tau, {}), o_mul(pulled, minor))
    return {tau: t for tau, t in out.items() if t}


def assert_canonical(p, want=None):
    """p's storage is ints over a positive denominator in lowest terms with
    no zero coefficient, and its Fraction view equals want (when given)."""
    assert p.denom > 0
    assert gcd(p.denom, *p.ints.values()) == 1
    assert all(p.ints.values())
    assert all(len(e) == p.nvars for e in p.ints)
    if want is not None:
        assert p.terms == want
    # The same terms given to the public constructor store the same way.
    again = Polynomial(p.nvars, p.terms)
    assert (again.ints, again.denom) == (p.ints, p.denom)
    assert again == p and hash(again) == hash(p)


def assert_form_canonical(f, want):
    assert set(f.components) == set(want)
    for sigma, p in f.components.items():
        assert_canonical(p, want[sigma])


fraction = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def raw_terms(nvars, max_terms=5):
    """Exponents to coefficients, zeros and mixed denominators included."""
    term = st.tuples(st.tuples(*([st.integers(0, 3)] * nvars)), st.one_of(st.just(0), fraction))
    return st.lists(term, max_size=max_terms).map(dict)


class TestCanonicalStorage:
    """Every operation keeps Polynomial's storage canonical and matches the
    Fraction-dict oracle above; equal polynomials hash equal."""

    @pytest.mark.parametrize("nvars", [0, 1, 2, 3])
    @given(data=st.data())
    def test_arithmetic(self, nvars, data):
        ta = data.draw(raw_terms(nvars))
        tb = data.draw(raw_terms(nvars))
        c = data.draw(st.one_of(st.integers(-3, 3), fraction))
        a, b = Polynomial(nvars, ta), Polynomial(nvars, tb)
        wa, wb = o_clean(ta), o_clean(tb)
        assert_canonical(a, wa)
        assert_canonical(b, wb)
        neg_b = {e: -x for e, x in wb.items()}
        assert_canonical(a + b, o_add(wa, wb))
        assert_canonical(a - b, o_add(wa, neg_b))
        assert_canonical(-b, neg_b)
        assert_canonical(a * c, o_clean({e: x * c for e, x in wa.items()}))
        assert_canonical(c * a, o_clean({e: x * c for e, x in wa.items()}))
        assert_canonical(a * b, o_mul(wa, wb))
        assert_canonical((a + b) * (a - b), o_mul(o_add(wa, wb), o_add(wa, neg_b)))
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert a * b == b * a and hash(a * b) == hash(b * a)
        assert a - a == Polynomial.zero(nvars) and hash(a - a) == hash(Polynomial.zero(nvars))
        for i in range(1, nvars + 1):
            assert_canonical(a.partial(i), o_partial(wa, i))

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @given(data=st.data())
    def test_restrict(self, nvars, data):
        terms = data.draw(raw_terms(nvars))
        order = data.draw(st.permutations(range(1, nvars + 1)))
        count = data.draw(st.integers(0, nvars))
        fixed_vars = order[:count]
        values = [data.draw(st.one_of(st.sampled_from([0, 1]), fraction)) for _ in fixed_vars]
        fixed = dict(zip(fixed_vars, values))
        keep = sorted(order[count:])
        got = Polynomial(nvars, terms).restrict(fixed, keep)
        assert got.nvars == len(keep)
        assert_canonical(got, o_restrict(o_clean(terms), fixed, keep))

    @pytest.mark.parametrize("n,k", nk_pairs(3))
    @given(data=st.data())
    def test_trace(self, n, k, data):
        f = data.draw(form_strategy(n, k))
        order = data.draw(st.permutations(range(1, n + 1)))
        count = data.draw(st.integers(0, n))
        values = data.draw(st.tuples(*([st.sampled_from([0, 1])] * count)))
        face = Face(n, dict(zip(order[:count], values)))
        local = {i: pos + 1 for pos, i in enumerate(face.free)}
        want = {}
        for sigma, p in f.components.items():
            if any(s in face.fixed for s in sigma):
                continue
            key = tuple(local[s] for s in sigma)
            want[key] = o_add(want.get(key, {}), o_restrict(p.terms, face.fixed, face.free))
        assert_form_canonical(trace(f, face), {s: t for s, t in want.items() if t})

    @pytest.mark.parametrize("n", [1, 2, 3])
    @given(data=st.data())
    def test_pullback_and_jacobian(self, n, data):
        fmap = map_from_vertices(data.draw(vertex_strategy(n, spread=4)))
        k = data.draw(st.integers(0, n))
        v = data.draw(form_strategy(n, k, max_exp=1 if n == 3 else 2))
        assert_form_canonical(pullback_polynomial(fmap, v), o_pullback(fmap, v))
        comps, entries = o_jacobian(fmap)
        jac = jacobian(fmap)
        for row, want_row in zip(jac.entries, entries):
            for entry, want in zip(row, want_row):
                assert_canonical(entry, want)
        assert_canonical(jac.det_poly, o_det(entries, n))
