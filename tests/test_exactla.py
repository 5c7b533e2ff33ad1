"""exactla against a plain Fraction Gauss-Jordan reference.

The reference and the generated matrices are rational; exactla takes
integer rows, so each matrix is cleared row by row at the boundary."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeforms import dofs, exactla

small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
entry = st.one_of(st.just(Fraction(0)), small)


def gauss_jordan(rows):
    """Reduced row echelon form by Fraction Gauss-Jordan: (nonzero rows,
    pivot columns).  The reference for every routine under test."""
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][col]
        m[r] = [x / p for x in m[r]]
        for i in range(len(m)):
            if i != r:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m[: len(pivots)], pivots


def cleared(rows):
    """(integer rows, scales): each row times the lcm of its denominators,
    which keeps the rank and the row span; row i is the rational row i
    times scales[i]."""
    scales = [lcm(*(Fraction(x).denominator for x in row)) for row in rows]
    return [[int(x * s) for x in row] for row, s in zip(rows, scales)], scales


def rational_inverse(a):
    """The inverse of a rational matrix through exactla.invert.  a = D^-1 M
    with M the cleared rows and D = diag(scales), so a^-1 = M^-1 D."""
    m, scales = cleared(a)
    return [[x * s for x, s in zip(row, scales)] for row in exactla.invert(m)]


def reference_rank(rows):
    return len(gauss_jordan(rows)[1])


def reference_inverse(a):
    """Inverse from the reference echelon form of [a | I], or None if singular."""
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    echelon, pivots = gauss_jordan(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in echelon]


@st.composite
def matrices(draw, max_rows=6, max_cols=6, square=False):
    """Rational matrices, often rank deficient: some rows are zero or linear
    combinations of the others, and one column may be zero."""
    nrows = draw(st.integers(1 if square else 0, max_rows))
    ncols = nrows if square else draw(st.integers(0, max_cols))
    m = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if ncols and draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in m:
            row[j] = Fraction(0)
    for i in range(nrows):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "combination")))
        if kind == "zero":
            m[i] = [Fraction(0)] * ncols
        elif kind == "combination":
            coeffs = [draw(small) if r != i else 0 for r in range(nrows)]
            m[i] = [sum((c * row[j] for c, row in zip(coeffs, m)), Fraction(0)) for j in range(ncols)]
    return m


@settings(max_examples=100)
@given(matrices())
def test_rank_and_rref_match_reference(m):
    ints, _ = cleared(m)
    echelon, pivots, d = exactla.rref(ints)
    want_rows, want_pivots = gauss_jordan(m)
    assert pivots == want_pivots
    assert [[Fraction(x, d) for x in row] for row in echelon] == want_rows
    assert all(isinstance(x, int) for row in echelon for x in row)
    assert exactla.rank(ints) == len(want_pivots)


@settings(max_examples=100)
@given(st.data())
def test_in_row_span_matches_reference(data):
    m = data.draw(matrices())
    ncols = len(m[0]) if m else data.draw(st.integers(0, 6))
    if m and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(small, min_size=len(m), max_size=len(m)))
        vec = [sum((c * row[j] for c, row in zip(coeffs, m)), Fraction(0)) for j in range(ncols)]
    else:
        vec = data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
    echelon, pivots, d = exactla.rref(cleared(m)[0])
    want = reference_rank(m + [vec]) == reference_rank(m)
    assert exactla.in_row_span(echelon, pivots, d, cleared([vec])[0][0]) == want


@settings(max_examples=100)
@given(matrices(square=True))
def test_invert_matches_reference(a):
    want = reference_inverse(a)
    assert exactla.is_invertible(cleared(a)[0]) == (want is not None)
    if want is None:
        with pytest.raises(ZeroDivisionError):
            exactla.invert(cleared(a)[0])
    else:
        assert rational_inverse(a) == want


@given(matrices())
def test_is_invertible_matches_reference(m):
    square = all(len(row) == len(m) for row in m)
    assert exactla.is_invertible(cleared(m)[0]) == (square and reference_rank(m) == len(m))


def test_empty_and_degenerate_inputs():
    assert exactla.rank([]) == 0
    assert exactla.rref([]) == ([], [], 1)
    assert exactla.rank([[], []]) == 0
    assert exactla.rref([[], []]) == ([], [], 1)
    assert exactla.in_row_span([], [], 1, [])
    assert exactla.in_row_span([], [], 1, [0, 0])
    assert not exactla.in_row_span([], [], 1, [0, 1])
    assert exactla.is_invertible([])
    assert not exactla.is_invertible([[], []])
    assert not exactla.is_invertible([[1, 2, 3], [4, 5, 6]])


def test_invert_hilbert_and_integer_entries():
    hilbert = [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]
    assert rational_inverse(hilbert) == [[9, -36, 30], [-36, 192, -180], [30, -180, 180]]
    assert exactla.invert([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    assert exactla.rank([[1, 2], [2, 4]]) == 1


def test_invert_rejects_singular_and_non_square():
    with pytest.raises(ZeroDivisionError):
        exactla.invert([[1, 2], [2, 4]])
    with pytest.raises(ZeroDivisionError):
        exactla.invert(cleared([[Fraction(1, 3), 0, 1], [0, 0, 0], [1, 2, 3]])[0])
    with pytest.raises(ValueError):
        exactla.invert([[1, 2, 3], [4, 5, 6]])


P = exactla._PRIME


def fraction_det(a):
    """The determinant of a rational matrix by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return det


def _count_eliminations(monkeypatch):
    """Counts calls of the Bareiss fallback behind is_invertible."""
    calls = []
    original = exactla._eliminate

    def spy(m, above):
        calls.append(len(m))
        return original(m, above)

    monkeypatch.setattr(exactla, "_eliminate", spy)
    return calls


@pytest.mark.parametrize(
    "a, det",
    [
        ([[P]], P),
        ([[P, 0], [0, 1]], P),
        # det = 2p; clearing the rows to integers multiplies it by 2 * 3 * 3
        ([[Fraction(1, 2), 1, 0], [0, 2, Fraction(1, 3)], [1, 0, Fraction(6 * P - 1, 3)]], 2 * P),
    ],
    ids=["p", "diag(p,1)", "det=2p"],
)
def test_determinant_multiple_of_prime_takes_fallback(a, det, monkeypatch):
    assert fraction_det(a) == det
    calls = _count_eliminations(monkeypatch)
    assert exactla.is_invertible(cleared(a)[0])
    assert calls == [len(a)]


def test_singular_takes_fallback_and_stays_singular(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    assert not exactla.is_invertible([[1, 2, 3], [4, 5, 6], [5, 7, 9]])
    assert not exactla.is_invertible([[P, 2 * P], [1, 2]])
    assert calls == [3, 2]


def test_nonzero_determinant_mod_prime_needs_no_fallback(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    hilbert = [[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)]
    assert exactla.is_invertible(cleared(hilbert)[0])
    assert exactla.is_invertible([[0, 1], [P + 1, 0]])
    assert calls == []


# Entries far past int64, of either sign: a small entry plus a multiple of
# p (same residue), or any integer below 2^80 in absolute value.
wide_entry = st.one_of(
    st.builds(lambda x, q: x + q * P, st.integers(-3, 3), st.integers(-(2**60), 2**60)),
    st.integers(-(2**80), 2**80),
)


def wide_square(n):
    return st.lists(st.lists(wide_entry, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=100)
@given(st.integers(1, 5).flatmap(wide_square))
def test_wide_entries_reduce_exactly(a):
    assert exactla._nonzero_det_mod_p(a) == (fraction_det(a) % P != 0)
    assert exactla.is_invertible(a) == (exactla.rank(a) == len(a))


def test_largest_unisolvence_matrix_certified_like_rank():
    rows = dofs._int_matrix(3, 1, 3)[1]
    assert len(rows) == 144
    assert exactla._nonzero_det_mod_p(rows) == (exactla.rank(rows) == 144)
    assert exactla.is_invertible(rows)
