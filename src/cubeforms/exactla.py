"""Small dense exact linear algebra on integer rows.

Callers scale each row of a rational matrix to integers, which changes
neither its rank nor its row span.  Every routine runs one fraction-free
(Bareiss) elimination on a copy.  Rank clears each pivot column below the
pivot only; the reduced echelon form clears it above the pivot too
(fraction-free Gauss-Jordan), which leaves every pivot equal to the last
one, d: the integer rows over d are the rational echelon form.  The
inverse is read from the echelon form of [A | I], and is the one routine
that makes Fractions.  Invertibility is first certified modulo the prime
p = 2^31 - 1, by an int64 numpy elimination: a determinant that is nonzero
mod p is nonzero over the rationals.  A zero one proves nothing, so the
Bareiss elimination then decides, and singular verdicts stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

_PRIME = 2**31 - 1


def _eliminate(m: list[list[int]], above: bool) -> tuple[list[int], int]:
    """Fraction-free elimination of the integer rows m, in place.

    Each step swaps a pivot p into row r and updates the rows it clears by
    x -> (p x - f y) // prev, with prev the previous pivot; the division is
    exact (Bareiss).  Below the pivot the columns before it are already
    zero, so those rows update from the pivot column on.  With ``above``
    the rows above are cleared as well and are updated in full.  Returns
    (pivot columns, last pivot); m[:rank] are the pivot rows.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        pr = m[r]
        p = pr[col]
        for i in range(0 if above else r + 1, nrows):
            if i == r:
                continue
            ri = m[i]
            f = ri[col]
            for j in range(col if i > r else 0, ncols):
                ri[j] = (p * ri[j] - f * pr[j]) // prev
        prev = p
        pivots.append(col)
    return pivots, prev


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of integer rows."""
    pivots, _ = _eliminate([list(row) for row in rows], above=False)
    return len(pivots)


def rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form of integer rows: (nonzero rows, pivot
    columns, d).  Each row is d at its own pivot and 0 at the others, so
    the rows over d are the rational reduced echelon form."""
    m = [list(row) for row in rows]
    pivots, d = _eliminate(m, above=True)
    return m[: len(pivots)], pivots, d


def in_row_span(echelon: list[list[int]], pivots: list[int], d: int, vec: list[int]) -> bool:
    """Whether the integer vector vec lies in the span of ``rref``'s rows.
    Each row is d at its own pivot and 0 at the others, so vec is in the
    span iff d vec = sum over the pivot columns of vec[col] times its row."""
    coeffs = [(vec[col], row) for row, col in zip(echelon, pivots) if vec[col] != 0]
    return all(d * x == sum(c * row[j] for c, row in coeffs) for j, x in enumerate(vec))


def invert(a: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Exact inverse of a square integer matrix, as Fractions; ZeroDivisionError if singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    m, pivots, d = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [[Fraction(x, d) for x in row[n:]] for row in m]


def _nonzero_det_mod_p(a: Sequence[Sequence[int]]) -> bool:
    """Whether the square integer matrix a has a nonzero determinant modulo
    _PRIME, by elimination on int64 residues, each entry reduced once with
    Python ints: residues are below 2^31, so a product of two fits in int64.
    Only the rows below a pivot that are nonzero in its column are updated."""
    p = _PRIME
    m = np.array([[x % p for x in row] for row in a], np.int64)
    for col in range(len(m)):
        nonzero = col + np.flatnonzero(m[col:, col])
        if not nonzero.size:
            return False
        m[[col, nonzero[0]]] = m[[nonzero[0], col]]
        below = nonzero[1:]
        pivot_row = m[col, col:] * pow(int(m[col, col]), -1, p) % p
        m[below, col:] = (m[below, col:] - m[below, col, None] * pivot_row) % p
    return True


def is_invertible(a: Sequence[Sequence[int]]) -> bool:
    """Exact invertibility of a square integer matrix: certified modulo
    _PRIME, else decided by the fraction-free elimination of ``rank``."""
    n = len(a)
    if any(len(r) != n for r in a):
        return False
    return _nonzero_det_mod_p(a) or rank(a) == n
