"""Faces of the n-cube, tensor-product degrees of freedom, unisolvence.

Each functional integrates the trace of a form over a face against a
weight from the matching tensor-product space one degree down; vertex
functionals degenerate to point evaluation through the same code path.
All verdicts (counts, matrix invertibility, dual bases) are exact.

One private routine, ``_pair``, integrates traces against weights, both as
integer term tables (``_Terms``); tracing a table is one mask and one
column drop.  The unisolvence tables are read from the (sigma, exponent)
items of the monomial spaces, so no basis form is made for them.  A row
of the unisolvence matrix is integers over one row denominator, on which
``exactla`` decides invertibility and inverts.
Fractions are made only for the public matrix, whose zeros share one, and
at the end of ``apply_dof``, which runs the same pairing on one form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, lcm
from typing import NamedTuple, Sequence

import numpy as np

from . import exactla
from .forms import DiffForm, Face, IndexMap, Monomial
from .spaces import FormSpace, build_Qminus, dim_Qminus

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


class _Terms(NamedTuple):
    """``count`` forms on [0,1]^n as one table of terms c x^e dx^sigma over
    ``denom``: exponent and sigma mask rows, Python int c, each term's form."""

    exps: np.ndarray
    mask: np.ndarray
    coeffs: np.ndarray
    owner: np.ndarray
    count: int
    denom: int


# The value of every zero entry of the unisolvence matrix.
_NIL = Fraction(0)


def _terms(forms: Sequence[DiffForm], n: int) -> _Terms:
    """The term table of forms on [0,1]^n, over the lcm of all their
    components' denominators."""
    denom = lcm(*(p.denom for f in forms for p in f.components.values()))
    items = [
        (e, [j in sigma for j in range(1, n + 1)], c * (denom // p.denom), i)
        for i, f in enumerate(forms)
        for sigma, p in f.components.items()
        for e, c in p.ints.items()
    ]
    exps, mask, coeffs, owner = zip(*items) if items else ((),) * 4
    shape = (len(items), n)
    exps, mask = np.array(exps, np.int64).reshape(shape), np.array(mask, bool).reshape(shape)
    return _Terms(exps, mask, np.array(coeffs, object), np.array(owner, np.intp), len(forms), denom)


def _item_terms(items: Sequence[tuple[IndexMap, Monomial]], n: int) -> _Terms:
    """The term table of the forms x^e dx^sigma on [0,1]^n of (sigma, e)
    items, each its own form with coefficient 1, over 1: the table _terms
    makes of a monomial space's basis, read from its items."""
    count = len(items)
    exps = np.array([e for _, e in items], np.int64).reshape(count, n)
    mask = np.array([[j in sigma for j in range(1, n + 1)] for sigma, _ in items], bool)
    return _Terms(exps, mask.reshape(count, n), np.ones(count, object), np.arange(count), count, 1)


def _trace(terms: _Terms, face: Face) -> _Terms:
    """The table traced onto a face: a term survives, coefficient and all,
    iff its sigma avoids the fixed coordinates and its exponent is 0 where
    the face fixes 0 (x = 1 gives 1^e); the fixed columns are dropped."""
    value = np.array([face.fixed.get(i, -1) for i in range(1, face.n + 1)])
    keep = ~((terms.mask & (value >= 0)) | ((terms.exps > 0) & (value == 0))).any(1)
    free = value < 0
    exps, mask, coeffs, owner = (column[keep] for column in terms[:4])
    return _Terms(exps[:, free], mask[:, free], coeffs, owner, terms.count, terms.denom)


def _signs(mask: np.ndarray) -> np.ndarray:
    """Per sigma mask row, the sign of dx^sigma ^ dx^tau, tau the complement:
    the parity of the sum over i in sigma of #{j not in sigma : j < i}."""
    return 1 - 2 * ((mask * np.cumsum(~mask, axis=1)).sum(1) % 2)


@lru_cache(maxsize=None)
def _moment_table(top: int) -> tuple[int, tuple[int, ...]]:
    """(L, (L // 1, ..., L // (top + 1))) with L = lcm(1..top+1), so that
    M = L^dim is a common denominator of the monomial moments on [0,1]^dim
    when no exponent sum exceeds top."""
    base = lcm(*range(1, top + 2))
    return base, tuple(base // j for j in range(1, top + 2))


def _pair(traces: _Terms, weights: _Terms) -> tuple[np.ndarray, list[int]]:
    """M times the integral over a face of each trace form ^ each weight
    form: a (weights, traces) block of integers, and per weight M times both
    tables' denominators, M = L^dim with L from ``_moment_table`` of the
    largest trace exponent plus the weight's own.  Each term pair whose
    index maps are complementary adds sign * c * c' * M / prod(a_i + b_i + 1),
    by one gather and one product over the axes.  The block is int64 when
    the coefficient sums times M bound every entry below 2^63."""
    dim = traces.exps.shape[1]
    top = int(traces.exps.max(initial=0))
    wtop = np.zeros(weights.count, np.int64)
    np.maximum.at(wtop, weights.owner, weights.exps.max(1, initial=0))
    tables = [_moment_table(top + t) for t in wtop.tolist()]
    width = top + int(wtop.max(initial=0)) + 1
    bound = max(b for b, _ in tables) ** dim * sum(map(abs, traces.coeffs))
    dtype = np.int64 if bound * sum(map(abs, weights.coeffs)) < 2**63 else object
    moments = np.array([m + (0,) * (width - len(m)) for _, m in tables], dtype)
    ti, wi = np.nonzero((traces.mask[:, None] != weights.mask).all(-1))
    coeffs = _signs(traces.mask)[ti] * traces.coeffs[ti].astype(dtype)
    vals = coeffs * weights.coeffs[wi].astype(dtype)
    vals *= np.prod(moments[weights.owner[wi, None], traces.exps[ti] + weights.exps[wi]], -1)
    block = np.zeros((weights.count, traces.count), dtype)
    np.add.at(block, (weights.owner[wi], traces.owner[ti]), vals)
    return block, [b**dim * traces.denom * weights.denom for b, _ in tables]


def apply_dof(xi: DofFunctional, v: DiffForm) -> Fraction:
    """The integral over xi's face of tr v ^ weight, by the integer pairing."""
    face, weight = xi.face, xi.weight
    if v.n != face.n:
        raise ValueError("form does not live on the functional's cube")
    if v.k > face.dim:
        raise ValueError("form degree exceeds the face dimension")
    if weight.n != face.dim or weight.k != face.dim - v.k:
        raise ValueError("weight does not pair with the form's trace on this face")
    block, (denom,) = _pair(_trace(_terms([v], v.n), face), _terms([weight], face.dim))
    return Fraction(block.item(), denom)


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
        weights = build_Qminus(r - 1, d - k, d).basis
        functionals += [DofFunctional(face, q) for face in enumerate_faces(n, d) for q in weights]
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


def _int_matrix(r: int, k: int, n: int) -> tuple[FormSpace, list[list[int]], list[int]]:
    """(monomial space, integer rows, row denominators) of the unisolvence
    matrix, rows in the order of ``build_dofs``.  All faces of one dimension
    share one weight table; the basis table is traced onto each face once
    and paired with all its weights at once.  Both tables are read from the
    spaces' items, so no basis form is made."""
    space = build_Qminus(r, k, n)
    terms = _item_terms(space.items, n)
    rows, denoms = [], []
    for d in range(k, n + 1):
        weights = build_Qminus(r - 1, d - k, d).items
        if not weights:
            continue
        table = _item_terms(weights, d)
        for face in enumerate_faces(n, d):
            block, block_denoms = _pair(_trace(terms, face), table)
            rows += block.tolist()
            denoms += block_denoms
    return space, rows, denoms


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
    space, rows, denoms = _int_matrix(r, k, n)
    if not exactla.is_invertible(rows):
        raise ArithmeticError(f"unisolvence matrix singular for (r,k,n)=({r},{k},{n})")
    inv = exactla.invert(rows)
    basis = space.basis
    return [
        sum((b * (row[j] * denom) for b, row in zip(basis, inv) if row[j]), DiffForm.zero(n, k))
        for j, denom in enumerate(denoms)
    ]
