"""Faces of the n-cube, tensor-product degrees of freedom, unisolvence.

Each functional integrates the trace of a form over a face against a
weight from the matching tensor-product space one degree down; vertex
functionals degenerate to point evaluation through the same code path.
All verdicts (counts, matrix invertibility, dual bases) are exact.

One private routine pairs a trace with a weight.  Both arrive as integer
polynomials, the components' own format (``forms.Polynomial``) brought to
one denominator: one for all traces onto a face, one per weight.  The
integral of their wedge is an integer sum over term pairs, with one moment
denominator M per face and weight: the sign of the complementary index
maps, times the two coefficients, times M / prod(a_i + b_i + 1).  So a
row of the unisolvence matrix is integers over one row denominator, and
``exactla`` decides invertibility and inverts on those rows.  Fractions
are made only for the public matrix, whose zeros share one, and at the end
of ``apply_dof``, which runs the same pairing on one form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby, product
from math import comb, lcm, prod
from operator import add, attrgetter
from typing import Sequence

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


# Forms over one denominator: each one's components as (exponents, integer
# coefficient) terms, the denominator, and the largest exponent in any term.
_IntForms = tuple[list[dict[IndexMap, tuple[tuple[Monomial, int], ...]]], int, int]
# The value of every zero entry of the unisolvence matrix.
_NIL = Fraction(0)


def _int_forms(forms: Sequence[DiffForm]) -> _IntForms:
    """The forms over the lcm of all their components' denominators."""
    polys = [p for f in forms for p in f.components.values()]
    d = lcm(*(p.denom for p in polys))
    ints = [
        {
            sigma: tuple((e, c * (d // p.denom)) for e, c in p.ints.items())
            for sigma, p in f.components.items()
        }
        for f in forms
    ]
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


def _pair(dim: int, k: int, tr: dict, weight: dict, moments: tuple[int, ...]) -> int:
    """M times the integral over [0,1]^dim of tr ^ weight, a k-form and a
    (dim-k)-form in integer terms: the sum of sign * c_a * c_b * M /
    prod(a_i + b_i + 1) over term pairs, with moments from _moment_table."""
    at = moments.__getitem__
    total = 0
    for sigma, tau, sign in _complements(k, dim):
        pa = tr.get(sigma)
        pb = weight.get(tau)
        if pa is None or pb is None:
            continue
        s = 0
        for ea, ca in pa:
            for eb, cb in pb:
                s += ca * cb * prod(map(at, map(add, ea, eb)))
        total += sign * s
    return total


def _pair_row(dim: int, k: int, traces: _IntForms, weight: _IntForms) -> tuple[list[int], int]:
    """Each trace paired with one weight: integers over one row
    denominator, M times the traces' and the weight's denominators.  A
    trace that vanishes on the face, about half of them, pairs to 0."""
    tr_ints, tr_denom, tr_top = traces
    (w_ints,), w_denom, w_top = weight
    base, moments = _moment_table(tr_top + w_top)
    row = [_pair(dim, k, t, w_ints, moments) if t else 0 for t in tr_ints]
    return row, base**dim * tr_denom * w_denom


def apply_dof(xi: DofFunctional, v: DiffForm) -> Fraction:
    """The integral over xi's face of tr v ^ weight, by the integer pairing."""
    face, weight = xi.face, xi.weight
    if v.n != face.n:
        raise ValueError("form does not live on the functional's cube")
    if v.k > face.dim:
        raise ValueError("form degree exceeds the face dimension")
    if weight.n != face.dim or weight.k != face.dim - v.k:
        raise ValueError("weight does not pair with the form's trace on this face")
    (value,), denom = _pair_row(face.dim, v.k, _int_forms([trace(v, face)]), _int_forms([weight]))
    return Fraction(value, denom)


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


def _int_matrix(r: int, k: int, n: int) -> tuple[list[DiffForm], list[list[int]], list[int]]:
    """(monomial basis, integer rows, row denominators) of the unisolvence
    matrix.  ``build_dofs`` lists a face's functionals together, so each
    basis form is traced onto each face once."""
    basis = build_Qminus(r, k, n).basis
    rows, denoms = [], []
    for face, functionals in groupby(build_dofs(r, k, n).functionals, attrgetter("face")):
        traces = _int_forms([trace(b, face) for b in basis])
        for xi in functionals:
            row, denom = _pair_row(face.dim, k, traces, _int_forms([xi.weight]))
            rows.append(row)
            denoms.append(denom)
    return basis, rows, denoms


def unisolvence_matrix(r: int, k: int, n: int) -> tuple[list[list[Fraction]], bool]:
    """Matrix of all functionals applied to the monomial basis, plus the
    exact invertibility verdict, decided on the integer rows."""
    _, rows, denoms = _int_matrix(r, k, n)
    matrix = [[Fraction(x, d) if x else _NIL for x in row] for row, d in zip(rows, denoms)]
    return matrix, exactla.is_invertible(rows)


def dual_basis(r: int, k: int, n: int) -> list[DiffForm]:
    """Forms phi_j with xi_i(phi_j) = delta_ij, solved exactly against the
    unisolvence matrix A = D^-1 M, M the integer rows and D their
    denominators: A^-1 = M^-1 D scales column j by row j's denominator."""
    basis, rows, denoms = _int_matrix(r, k, n)
    if not exactla.is_invertible(rows):
        raise ArithmeticError(f"unisolvence matrix singular for (r,k,n)=({r},{k},{n})")
    inv = exactla.invert(rows)
    duals = []
    for j, denom in enumerate(denoms):
        phi = DiffForm.zero(n, k)
        for m, b in enumerate(basis):
            c = inv[m][j]
            if c != 0:
                phi = phi + b * (c * denom)
        duals.append(phi)
    return duals
