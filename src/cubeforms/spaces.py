"""Reference shape-function spaces on the unit n-cube and the rate predictor.

Builders produce monomial-form spaces for the tensor-product family
Q_r^- Lambda^k, the full polynomial family P_r Lambda^k and the scalar
serendipity family, and an explicit basis for the 2D serendipity 1-form
family.  A monomial space is made from its (sigma, exponent) items; its
basis forms x^e dx^sigma are made only when a caller reads ``basis``.
Inclusion testing is exact: spaces whose basis forms are single terms
c x^e dx^sigma are compared by coordinate-set inclusion, one set test per
component (equivalent to the rank test and much faster), so ``contains``
between two such spaces reads no basis form; anything else falls back to
fraction-free row reduction in ``exactla``, on each form's coefficients as
integers over the lcm of its components' denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import comb, lcm
from typing import Callable, Iterable, Mapping

from . import exactla
from .forms import DiffForm, IndexMap, Monomial, _form, _from_ints, enumerate_sigma

__all__ = [
    "FormSpace",
    "RatePrediction",
    "build_P",
    "build_Qminus",
    "dim_Qminus",
    "superlinear_degree",
    "build_serendipity",
    "build_SrLambda1_2d",
    "contains",
    "in_span",
    "predict_rates",
    "zero_space",
]


class FormSpace:
    """A finite-dimensional span of differential k-forms on [0,1]^n.

    A space is given by its basis, or, by the builders, by distinct
    (sigma, exponent) ``items``, each the form x^e dx^sigma.  A space of
    items takes its dim and monomial_coords from them and makes its basis
    forms, in item order, only when ``basis`` is first read; for a space
    given by its basis, items is None and what in_span reads of it is
    derived from the basis.  Spaces are equal when their n, k, basis and
    label are."""

    def __init__(self, n: int, k: int, basis: list[DiffForm], label: str = ""):
        for f in basis:
            if f.n != n or f.k != k:
                raise ValueError(f"basis form with (n,k)=({f.n},{f.k}) in space ({n},{k})")
        self.n, self.k, self.label = n, k, label
        self.items: list[tuple[IndexMap, Monomial]] | None = None
        self._basis: list[DiffForm] | None = basis
        self._coords = _single_term_coords(basis)

    @classmethod
    def _from_items(
        cls, n: int, k: int, items: list[tuple[IndexMap, Monomial]], label: str
    ) -> "FormSpace":
        """The span of the forms x^e dx^sigma over distinct (sigma, e) items."""
        space = cls.__new__(cls)
        space.n, space.k, space.label = n, k, label
        space.items = items
        space._basis = None
        space._coords = _group(items)
        return space

    @property
    def basis(self) -> list[DiffForm]:
        """The basis forms; a space of items makes them on first read."""
        if self._basis is None:
            n, k = self.n, self.k
            self._basis = [
                _form(n, k, {sigma: _from_ints(n, ((exps, 1),), 1)}) for sigma, exps in self.items
            ]
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.basis if self.items is None else self.items)

    @property
    def is_zero(self) -> bool:
        return not self.dim

    @property
    def monomial_coords(self) -> Mapping[IndexMap, frozenset[Monomial]] | None:
        """The exponents spanned in each component, by index map, if every
        basis form is a single term c x^e dx^sigma, else None.  Enables the
        fast membership path in in_span()."""
        return self._coords

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormSpace):
            return NotImplemented
        return (self.n, self.k, self.label) == (other.n, other.k, other.label) and (
            self.basis == other.basis
        )

    def __repr__(self) -> str:
        return f"FormSpace(n={self.n}, k={self.k}, dim={self.dim}, label={self.label!r})"

    @cached_property
    def _echelon(self) -> tuple:
        """(coordinate index, *exactla.rref) of the basis coefficient rows,
        as integers."""
        index = {c: j for j, c in enumerate(self.coordinates())}
        return (index, *exactla.rref([_int_row(f, index) for f in self.basis]))

    def coordinates(self) -> list[tuple[tuple[int, ...], Monomial]]:
        """Sorted union of (sigma, monomial) coordinates over the basis."""
        coords = set()
        for f in self.basis:
            for sigma, poly in f.components.items():
                for exps in poly.ints:
                    coords.add((sigma, exps))
        return sorted(coords)

    def rank(self) -> int:
        """Exact rank of the basis as vectors of rational coefficients."""
        return len(self._echelon[2])


def _group(items: Iterable[tuple[IndexMap, Monomial]]) -> dict[IndexMap, frozenset[Monomial]]:
    """The exponents of (sigma, exponent) pairs, grouped by index map."""
    coords: dict[IndexMap, set[Monomial]] = {}
    for sigma, exps in items:
        coords.setdefault(sigma, set()).add(exps)
    return {sigma: frozenset(group) for sigma, group in coords.items()}


def _single_term_coords(basis: list[DiffForm]) -> dict[IndexMap, frozenset[Monomial]] | None:
    """The exponents of each index map in a basis of single-term forms,
    None if a form has another number of terms."""
    terms = [[(s, e) for s, poly in f.components.items() for e in poly.ints] for f in basis]
    if any(len(t) != 1 for t in terms):
        return None
    return _group(t for (t,) in terms)


def zero_space(n: int, k: int, label: str = "zero") -> FormSpace:
    return FormSpace._from_items(n, k, [], label)


def build_P(r: int, k: int, n: int) -> FormSpace:
    """P_r Lambda^k(I^n): coefficients of total degree at most r.

    Negative r yields the zero space (the convention the rate predictor
    relies on).
    """
    if k < 0 or k > n:
        raise ValueError(f"form degree k={k} invalid for n={n}")
    label = f"P r={r} k={k} n={n}"
    if r < 0:
        return zero_space(n, k, label)
    sigmas = enumerate_sigma(k, n)
    monos = [e for e in product(range(r + 1), repeat=n) if sum(e) <= r]
    monos.sort()
    items = [(s, e) for s in sigmas for e in monos]
    space = FormSpace._from_items(n, k, items, label)
    assert space.dim == comb(n, k) * comb(n + r, n)
    return space


def dim_Qminus(r: int, k: int, n: int) -> int:
    """Closed-form dimension binom(n,k) (r+1)^(n-k) r^k."""
    if k < 0 or k > n:
        raise ValueError(f"form degree k={k} invalid for n={n}")
    if r < 0:
        return 0
    return comb(n, k) * (r + 1) ** (n - k) * r**k


def build_Qminus(r: int, k: int, n: int) -> FormSpace:
    """Q_r^- Lambda^k(I^n): degree <= r in every variable, <= r-1 in the
    variables selected by the index map.  Zero space for r = 0, k > 0 and
    for negative r."""
    if k < 0 or k > n:
        raise ValueError(f"form degree k={k} invalid for n={n}")
    label = f"Qminus r={r} k={k} n={n}"
    if r < 0 or (r == 0 and k > 0):
        return zero_space(n, k, label)
    items: list[tuple[tuple[int, ...], Monomial]] = []
    for sigma in enumerate_sigma(k, n):
        sset = set(sigma)
        caps = [r - 1 if i in sset else r for i in range(1, n + 1)]
        for exps in product(*(range(c + 1) for c in caps)):
            items.append((sigma, exps))
    space = FormSpace._from_items(n, k, items, label)
    assert space.dim == dim_Qminus(r, k, n)
    return space


def superlinear_degree(exponents: Monomial) -> int:
    """Total degree ignoring variables that enter linearly."""
    return sum(e for e in exponents if e >= 2)


def build_serendipity(r: int, n: int) -> FormSpace:
    """Scalar serendipity space S_r(I^n): monomials of superlinear degree
    at most r.  Exponents above r cannot pass the filter, so the box
    [0, r]^n is an exhaustive enumeration domain."""
    if r < 1:
        raise ValueError("serendipity spaces need r >= 1")
    label = f"S r={r} n={n}"
    items = [
        ((), e)
        for e in sorted(product(range(r + 1), repeat=n))
        if superlinear_degree(e) <= r
    ]
    return FormSpace._from_items(n, 0, items, label)


def build_SrLambda1_2d(r: int) -> FormSpace:
    """2D serendipity 1-forms: P_r Lambda^1(I^2) plus the span of
    d(x1^(r+1) x2) and d(x1 x2^(r+1))."""
    if r < 1:
        raise ValueError("serendipity 1-form spaces need r >= 1")
    base = build_P(r, 1, 2)
    extras = [
        DiffForm.monomial_form(2, (), (r + 1, 1)).d(),
        DiffForm.monomial_form(2, (), (1, r + 1)).d(),
    ]
    return FormSpace(2, 1, base.basis + extras, f"SLambda1 r={r} n=2")


def _int_row(f: DiffForm, index: Mapping) -> list[int] | None:
    """f's coefficients in the columns of index, as integers over the lcm of
    its components' denominators; None if a term of f has no column."""
    denom = lcm(*(poly.denom for poly in f.components.values()))
    row = [0] * len(index)
    for sigma, poly in f.components.items():
        scale = denom // poly.denom
        for exps, c in poly.ints.items():
            col = index.get((sigma, exps))
            if col is None:
                return None
            row[col] = c * scale
    return row


_NOTHING: frozenset[Monomial] = frozenset()


def in_span(space: FormSpace, f: DiffForm) -> bool:
    """Exact membership of a single form in the span of a space's basis."""
    if f.n != space.n or f.k != space.k:
        raise ValueError("form and space live on different (n, k)")
    if f.is_zero:
        return True
    allowed = space.monomial_coords
    if allowed is not None:
        return all(
            poly.ints.keys() <= allowed.get(sigma, _NOTHING)
            for sigma, poly in f.components.items()
        )
    index, echelon, pivots, d = space._echelon
    vec = _int_row(f, index)
    return vec is not None and exactla.in_row_span(echelon, pivots, d, vec)


def contains(v: FormSpace, w: FormSpace) -> bool:
    """True iff every basis element of w lies in span(v).  Exact; when both
    spaces are single-term, one set inclusion per index map of w."""
    if v.n != w.n or v.k != w.k:
        raise ValueError("spaces live on different (n, k)")
    have, want = v.monomial_coords, w.monomial_coords
    if have is not None and want is not None:
        return all(exps <= have.get(sigma, _NOTHING) for sigma, exps in want.items())
    return all(in_span(v, f) for f in w.basis)


@dataclass(frozen=True)
class RatePrediction:
    """Largest guaranteed L2 orders: s_affine on parallelotope meshes,
    s_multilinear on general multilinear (curvilinear cubic) meshes."""

    s_affine: int
    s_multilinear: int


# Largest affine order predict_rates tries.
_MAX_S = 64


def _largest_contained(v: FormSpace, probe: Callable[[int], FormSpace], top: int) -> int:
    """The largest s <= top with probe(1), ..., probe(s) all inside v."""
    for s in range(1, top + 1):
        space = probe(s)
        if space.dim > v.dim or not contains(v, space):
            return s - 1
    return top


def predict_rates(v: FormSpace) -> RatePrediction:
    """Largest s with P_(s-1) Lambda^k inside V, and with
    Q_(s+k-1)^- Lambda^k inside V.  s = 0 is always admissible since both
    test spaces degenerate to zero there."""
    if v.is_zero:
        raise ValueError("rate prediction needs a nonzero space")
    n, k = v.n, v.k
    s_affine = _largest_contained(v, lambda s: build_P(s - 1, k, n), _MAX_S)
    s_multi = _largest_contained(v, lambda s: build_Qminus(s + k - 1, k, n), s_affine)
    return RatePrediction(s_affine, s_multi)
