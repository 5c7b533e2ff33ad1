"""Affine and multilinear maps of the unit cube and form transport.

A multilinear map is stored by its monomial corner coefficients, kept as
exact rationals whenever it was built from rational vertices.  Pullback of
polynomial forms is fully symbolic and exact; pushforward evaluation (the
transport of reference shape functions onto a physical element) is a
pointwise floating-point operation built on the Jacobian inverse, since
the inverse of a multilinear map is not polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Mapping, Sequence

import numpy as np

from .forms import DiffForm, IndexMap, Polynomial, Scalar, enumerate_sigma

__all__ = [
    "MultilinearMap",
    "JacobianPoly",
    "SingularMapError",
    "map_from_vertices",
    "jacobian",
    "check_diffeo",
    "pullback_polynomial",
    "pushforward_eval",
    "compose_affine",
]


class SingularMapError(ArithmeticError):
    """Jacobian not invertible at a requested point."""


def _corner_index_tuples(n: int) -> list[tuple[int, ...]]:
    return list(product((0, 1), repeat=n))


class MultilinearMap:
    """F: [0,1]^n -> R^n with F(x) = sum_alpha c_alpha prod_i x_i^alpha_i,
    alpha running over the corner multi-indices {0,1}^n."""

    __slots__ = ("n", "coeffs", "_float_cache")

    def __init__(self, n: int, coeffs: Mapping[tuple[int, ...], Sequence[Scalar]]):
        self.n = n
        full: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
        for alpha in _corner_index_tuples(n):
            vec = coeffs.get(alpha, (0,) * n)
            if len(vec) != n:
                raise ValueError("coefficient vectors must have length n")
            full[alpha] = tuple(Fraction(x) for x in vec)
        self.coeffs = full
        self._float_cache = None

    @classmethod
    def identity(cls, n: int) -> "MultilinearMap":
        coeffs = {}
        for i in range(n):
            alpha = tuple(1 if j == i else 0 for j in range(n))
            vec = [0] * n
            vec[i] = 1
            coeffs[alpha] = vec
        return cls(n, coeffs)

    @classmethod
    def dilation(cls, n: int, h: Scalar) -> "MultilinearMap":
        h = Fraction(h)
        coeffs = {}
        for i in range(n):
            alpha = tuple(1 if j == i else 0 for j in range(n))
            vec = [Fraction(0)] * n
            vec[i] = h
            coeffs[alpha] = vec
        return cls(n, coeffs)

    @property
    def is_affine(self) -> bool:
        return all(
            all(c == 0 for c in vec)
            for alpha, vec in self.coeffs.items()
            if sum(alpha) >= 2
        )

    def component_poly(self, i: int) -> Polynomial:
        """Component F^i (1-based) as an exact polynomial in n variables."""
        terms = {}
        for alpha, vec in self.coeffs.items():
            if vec[i - 1] != 0:
                terms[alpha] = vec[i - 1]
        return Polynomial(self.n, terms)

    def eval_exact(self, point: Sequence[Scalar]) -> tuple[Fraction, ...]:
        pt = [Fraction(x) for x in point]
        out = [Fraction(0)] * self.n
        for alpha, vec in self.coeffs.items():
            w = Fraction(1)
            for x, a in zip(pt, alpha):
                if a:
                    w *= x
            if w != 0:
                for i in range(self.n):
                    out[i] += vec[i] * w
        return tuple(out)

    def float_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(coeff matrix (2^n, n) float64, alpha matrix (2^n, n) int64)."""
        if self._float_cache is None:
            alphas = _corner_index_tuples(self.n)
            coeffs = np.array(
                [[float(c) for c in self.coeffs[a]] for a in alphas], dtype=np.float64
            )
            self._float_cache = (coeffs, np.array(alphas, dtype=np.int64))
        return self._float_cache

    def __call__(self, point: Sequence[float]) -> np.ndarray:
        pt = np.asarray(point, dtype=np.float64)
        coeffs, alphas = self.float_arrays()
        mono = np.prod(np.where(alphas == 1, pt[None, :], 1.0), axis=1)
        return mono @ coeffs

    def __repr__(self) -> str:
        kind = "affine" if self.is_affine else "multilinear"
        return f"MultilinearMap(n={self.n}, {kind})"


@dataclass
class JacobianPoly:
    """Exact Jacobian of a multilinear map: entries[i][j] = dF^(i+1)/dx^(j+1)."""

    n: int
    entries: list[list[Polynomial]]
    det_poly: Polynomial


def map_from_vertices(
    vertices: Mapping[tuple[int, ...], Sequence[Scalar]]
) -> MultilinearMap:
    """Multilinear interpolant of corner positions: F(alpha) = vertices[alpha].

    Monomial coefficients come from inclusion-exclusion over sub-corners.
    """
    alphas = list(vertices.keys())
    if not alphas:
        raise ValueError("no vertices supplied")
    n = len(alphas[0])
    expected = _corner_index_tuples(n)
    if set(alphas) != set(expected):
        raise ValueError(f"need all {2**n} corners of the {n}-cube")
    coeffs: dict[tuple[int, ...], list[Fraction]] = {}
    for alpha in expected:
        total = [Fraction(0)] * n
        support = [i for i, a in enumerate(alpha) if a]
        for sub in product(*((0, 1) for _ in support)):
            beta = list(alpha)
            for pos, bit in zip(support, sub):
                beta[pos] = bit
            sign = -1 if (sum(alpha) - sum(sub)) % 2 else 1
            v = vertices[tuple(beta)]
            for i in range(n):
                total[i] += sign * Fraction(v[i])
        coeffs[alpha] = total
    return MultilinearMap(n, coeffs)


def jacobian(fmap: MultilinearMap) -> JacobianPoly:
    n = fmap.n
    entries = [
        [fmap.component_poly(i).partial(j) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return JacobianPoly(n, entries, _poly_matrix_det(entries, n))


def check_diffeo(fmap: MultilinearMap, grid: int = 5) -> bool:
    """Positivity screen for the Jacobian determinant: exact evaluation at
    the 2^n corners and at a uniform grid per axis.  A failure anywhere
    rejects the map; success certifies orientation at the samples only."""
    det = jacobian(fmap).det_poly
    n = fmap.n
    for corner in _corner_index_tuples(n):
        if det.eval_exact(corner) <= 0:
            return False
    ticks = [Fraction(i, grid - 1) for i in range(grid)]
    for point in product(ticks, repeat=n):
        if det.eval_exact(point) <= 0:
            return False
    return True


def _poly_matrix_det(rows: Sequence[Sequence[Polynomial]], nvars: int) -> Polynomial:
    k = len(rows)
    if k == 0:
        return Polynomial.constant(nvars, 1)
    det = Polynomial.zero(nvars)
    for perm in permutations(range(k)):
        inversions = sum(
            1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b]
        )
        term = Polynomial.constant(nvars, 1)
        for i in range(k):
            term = term * rows[i][perm[i]]
        det = det + (term if inversions % 2 == 0 else -term)
    return det


def pullback_polynomial(fmap: MultilinearMap, v: DiffForm) -> DiffForm:
    """Exact pullback F*v of a polynomial k-form through a multilinear map.

    Expands (v_sigma o F) det(DF[sigma, tau]) over increasing tau, which is
    the component form of the coordinate pullback formula.
    """
    n = fmap.n
    if v.n != n:
        raise ValueError("form dimension does not match the map")
    if v.k > n:
        return DiffForm.zero(n, v.k)
    jac = jacobian(fmap)
    comps = [fmap.component_poly(i) for i in range(1, n + 1)]
    taus = enumerate_sigma(v.k, n)
    out = DiffForm.zero(n, v.k)
    for sigma, poly in v.components.items():
        pulled_coeff = poly.compose(comps)
        parts = {}
        for tau in taus:
            minor = _poly_matrix_det(
                [[jac.entries[s - 1][t - 1] for t in tau] for s in sigma], n
            )
            if not minor.is_zero:
                term = pulled_coeff * minor
                if not term.is_zero:
                    parts[tau] = term
        out = out + DiffForm(n, v.k, parts)
    return out


def pushforward_eval(
    fmap: MultilinearMap, what: DiffForm, xhat: Sequence[float]
) -> dict[IndexMap, float]:
    """Components of (F^-1)* what at the physical point F(xhat).

    Component sigma equals sum_tau what_tau(xhat) * minor_(tau,sigma) of
    DF(xhat)^-1, the rows-tau / columns-sigma determinant.  Floating point.
    """
    n = fmap.n
    if what.n != n:
        raise ValueError("form dimension does not match the map")
    jac = jacobian(fmap)
    pt = [float(x) for x in xhat]
    a = np.array(
        [[jac.entries[i][j].eval_float(pt) for j in range(n)] for i in range(n)]
    )
    det = float(np.linalg.det(a))
    if abs(det) < 1e-14:
        raise SingularMapError(f"Jacobian singular at xhat={tuple(pt)} (det={det:g})")
    ainv = np.linalg.inv(a)
    k = what.k
    hat_vals = {sigma: poly.eval_float(pt) for sigma, poly in what.components.items()}
    out: dict[IndexMap, float] = {}
    for sigma in enumerate_sigma(k, n):
        cols = [s - 1 for s in sigma]
        total = 0.0
        for tau, w in hat_vals.items():
            rows = [t - 1 for t in tau]
            minor = float(np.linalg.det(ainv[np.ix_(rows, cols)])) if k else 1.0
            total += w * minor
        out[sigma] = total
    return out


def compose_affine(outer: MultilinearMap, inner: MultilinearMap) -> MultilinearMap:
    """Composition G o F with G affine, so the result stays multilinear."""
    if outer.n != inner.n:
        raise ValueError("dimension mismatch in composition")
    if not outer.is_affine:
        raise ValueError("outer map must be affine to keep the composite multilinear")
    n = outer.n
    zero_alpha = (0,) * n
    b = outer.coeffs[zero_alpha]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            alpha = tuple(1 if m == j else 0 for m in range(n))
            row.append(outer.coeffs[alpha][i])
        rows.append(row)
    coeffs: dict[tuple[int, ...], list[Fraction]] = {}
    for alpha, vec in inner.coeffs.items():
        new = [sum((rows[i][j] * vec[j] for j in range(n)), Fraction(0)) for i in range(n)]
        if alpha == zero_alpha:
            new = [x + b[i] for i, x in enumerate(new)]
        coeffs[alpha] = new
    return MultilinearMap(n, coeffs)
