"""Faces of the n-cube, tensor-product degrees of freedom, unisolvence.

Each functional integrates the trace of a form over a face against a
weight from the matching tensor-product space one degree down; vertex
functionals degenerate to point evaluation through the same code path.
All verdicts (counts, matrix invertibility, dual bases) are exact.

One private routine pairs a trace with a weight.  Both arrive as integer
polynomials over one denominator each, the components' own format
(``forms.Polynomial``) brought to their lcm, and the integral of their
wedge over the face is an integer sum over term pairs, with a common
moment denominator M for the face: the sign of the complementary index
maps, times the two coefficients, times M / prod(a_i + b_i + 1).  One
Fraction is made per nonzero entry; the zero entries, most of them, share
one.  The unisolvence matrix traces each basis form onto each face once
and converts each weight once, then pairs the cached integer forms;
``apply_dof`` runs the same pairing on one form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, lcm, prod
from operator import add

from . import exactla
from .forms import DiffForm, Face, IndexMap, Monomial, enumerate_sigma, permutation_sign, trace
from .spaces import build_Qminus, dim_Qminus

__all__ = [
    "Face",
    "DofFunctional",
    "DofSet",
    "enumerate_faces",
    "build_dofs",
    "apply_dof",
    "unisolvence_matrix",
    "dual_basis",
    "dof_count_by_faces",
]


def enumerate_faces(n: int, d: int) -> list[Face]:
    """All d-dimensional faces of [0,1]^n, ordered by the pattern of fixed
    coordinates and then by their 0/1 values.  Count is 2^(n-d) binom(n,d)."""
    if d < 0 or d > n:
        raise ValueError(f"face dimension {d} out of range for n={n}")
    faces = []
    for fixed_coords in combinations(range(1, n + 1), n - d):
        for values in product((0, 1), repeat=n - d):
            faces.append(Face(n, dict(zip(fixed_coords, values))))
    return faces


@dataclass(frozen=True)
class DofFunctional:
    """v -> integral over the face of tr v wedge weight (point evaluation
    when the face is a vertex)."""

    face: Face
    weight: DiffForm

    def __call__(self, v: DiffForm) -> Fraction:
        return apply_dof(self, v)


@dataclass
class DofSet:
    r: int
    k: int
    n: int
    functionals: list[DofFunctional]

    @property
    def count(self) -> int:
        return len(self.functionals)


# (components as (exponents, integer coefficient) terms, common denominator,
# largest exponent)
_Cleared = tuple[dict[IndexMap, tuple[tuple[Monomial, int], ...]], int, int]
_ZERO: _Cleared = ({}, 1, 0)
# The value of every pairing whose integer sum is 0.
_NIL = Fraction(0)


def _cleared_form(f: DiffForm) -> _Cleared:
    """The components of f over one denominator, the lcm of theirs, with
    the largest exponent of any variable in any term.  Zero forms share _ZERO: most
    traces of a basis form onto a face vanish."""
    if f.is_zero:
        return _ZERO
    polys = f.components.values()
    d = lcm(*(p.denom for p in polys))
    ints = {
        sigma: tuple((e, c * (d // p.denom)) for e, c in p.ints.items())
        for sigma, p in f.components.items()
    }
    top = max((x for p in polys for e in p.ints for x in e), default=0)
    return ints, d, top


@lru_cache(maxsize=None)
def _complements(k: int, dim: int) -> tuple[tuple[IndexMap, IndexMap, int], ...]:
    """(sigma, its complement tau in 1..dim, sign of dx^sigma ^ dx^tau) for
    every k-index map sigma."""
    full = set(range(1, dim + 1))
    pairs = [(sigma, tuple(sorted(full - set(sigma)))) for sigma in enumerate_sigma(k, dim)]
    return tuple((sigma, tau, permutation_sign(sigma, tau)) for sigma, tau in pairs)


@lru_cache(maxsize=None)
def _moment_table(top: int) -> tuple[int, tuple[int, ...]]:
    """(L, (L // 1, ..., L // (top + 1))) with L = lcm(1..top+1), so that
    M = L^dim is a common denominator of the monomial moments on [0,1]^dim
    when no exponent sum exceeds top."""
    base = lcm(*range(1, top + 2))
    return base, tuple(base // j for j in range(1, top + 2))


def _pair(dim: int, k: int, tr: _Cleared, weight: _Cleared) -> Fraction:
    """Integral over [0,1]^dim of tr ^ weight, tr a k-form and weight a
    (dim-k)-form: the integer sum of sign * c_a * c_b * M / prod(a_i + b_i + 1)
    over M times both denominators.  A sum of 0, which every _ZERO trace
    gives, returns the shared _NIL."""
    if tr is _ZERO or weight is _ZERO:
        return _NIL
    tr_ints, tr_denom, tr_top = tr
    w_ints, w_denom, w_top = weight
    base, moments = _moment_table(tr_top + w_top)
    at = moments.__getitem__
    total = 0
    for sigma, tau, sign in _complements(k, dim):
        pa = tr_ints.get(sigma)
        pb = w_ints.get(tau)
        if pa is None or pb is None:
            continue
        s = 0
        for ea, ca in pa:
            for eb, cb in pb:
                s += ca * cb * prod(map(at, map(add, ea, eb)))
        total += sign * s
    return Fraction(total, base**dim * tr_denom * w_denom) if total else _NIL


def apply_dof(xi: DofFunctional, v: DiffForm) -> Fraction:
    """The integral over xi's face of tr v ^ weight, by the integer pairing."""
    face, weight = xi.face, xi.weight
    if v.n != face.n:
        raise ValueError("form does not live on the functional's cube")
    if v.k > face.dim:
        raise ValueError("form degree exceeds the face dimension")
    if weight.n != face.dim or weight.k != face.dim - v.k:
        raise ValueError("weight does not pair with the form's trace on this face")
    return _pair(face.dim, v.k, _cleared_form(trace(v, face)), _cleared_form(weight))


def build_dofs(r: int, k: int, n: int) -> DofSet:
    """Degrees of freedom for the tensor-product k-form space of order r:
    one functional per weight-space basis element on each face of dimension
    d >= k, weights drawn from the order r-1 space of (d-k)-forms on the
    face.  Total count equals the space dimension."""
    if r < 1:
        raise ValueError("degrees of freedom are defined for r >= 1")
    if k < 0 or k > n:
        raise ValueError(f"form degree k={k} invalid for n={n}")
    functionals: list[DofFunctional] = []
    for d in range(k, n + 1):
        weight_space = build_Qminus(r - 1, d - k, d)
        if weight_space.is_zero:
            continue
        for face in enumerate_faces(n, d):
            for q in weight_space.basis:
                functionals.append(DofFunctional(face, q))
    dofset = DofSet(r, k, n, functionals)
    assert dofset.count == dim_Qminus(r, k, n)
    return dofset


def dof_count_by_faces(r: int, k: int, n: int) -> int:
    """The face-by-face counting sum: over dimensions d = k..n, faces
    contribute binom(d,k) r^k (r-1)^(d-k) functionals each."""
    return sum(
        2 ** (n - d) * comb(n, d) * comb(d, k) * r**k * (r - 1) ** (d - k)
        for d in range(k, n + 1)
    )


def unisolvence_matrix(r: int, k: int, n: int) -> tuple[list[list[Fraction]], bool]:
    """Matrix of all functionals applied to the monomial basis, plus the
    exact invertibility verdict.  Each basis form is traced onto each face
    once and each weight put over one denominator once."""
    space = build_Qminus(r, k, n)
    dofs = build_dofs(r, k, n)
    traces: dict[Face, list[_Cleared]] = {}
    weights: dict[DiffForm, _Cleared] = {}
    matrix = []
    for xi in dofs.functionals:
        face = xi.face
        row_traces = traces.get(face)
        if row_traces is None:
            row_traces = traces[face] = [_cleared_form(trace(b, face)) for b in space.basis]
        weight = weights.get(xi.weight)
        if weight is None:
            weight = weights[xi.weight] = _cleared_form(xi.weight)
        dim = face.dim
        matrix.append([_pair(dim, k, t, weight) for t in row_traces])
    return matrix, exactla.is_invertible(matrix)


def dual_basis(r: int, k: int, n: int) -> list[DiffForm]:
    """Forms phi_j with xi_i(phi_j) = delta_ij, solved exactly against the
    unisolvence matrix."""
    space = build_Qminus(r, k, n)
    matrix, ok = unisolvence_matrix(r, k, n)
    if not ok:
        raise ArithmeticError(f"unisolvence matrix singular for (r,k,n)=({r},{k},{n})")
    inv = exactla.invert(matrix)
    duals = []
    for j in range(len(space.basis)):
        phi = DiffForm.zero(n, k)
        for m, b in enumerate(space.basis):
            c = inv[m][j]
            if c != 0:
                phi = phi + b * c
        duals.append(phi)
    return duals
