"""Exact algebra of polynomial differential forms on coordinate boxes.

Polynomials carry arbitrary-precision rational coefficients, so wedge
products, exterior derivatives, traces and L2 pairings on the unit cube
are computed without rounding.  Floating point enters only through
``evaluate``.  Variables are numbered 1..n to match the usual dx^i
notation; a 0-form in zero variables (n = 0) is a plain constant, which
keeps vertex traces on the same code path as everything else.

A Polynomial is an integer polynomial (``IntPoly``, exponents to nonzero
ints) over one positive denominator, in lowest terms: the one exact
format that maps, pullbacks and DOF pairings also use.  ``_from_ints``
makes every Polynomial; it drops zero terms and divides by one gcd.
Products run on the integer parts as one scatter into a mixed-radix
layout (``_strides``): ``_int_mul`` adds the product of each pair of
terms at the sum of their offsets, and ``_slot_terms`` turns only the
nonzero slots into (exponents, int) pairs.  Terms that cancel are
dropped, never kept as zeros.  The dense integer arrays of
``mapping._pullbacks`` use the same layout, which ``_slot_terms`` and
``_slot_mask`` read, and the same dtype rule, ``_int_dtype``: int64 while
an exact bound stays below 2^63, Python ints above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Mapping, Sequence

import numpy as np

Monomial = tuple[int, ...]
IndexMap = tuple[int, ...]
Scalar = Fraction | int
IntPoly = dict[Monomial, int]

__all__ = [
    "Monomial",
    "IndexMap",
    "Polynomial",
    "DiffForm",
    "Face",
    "enumerate_sigma",
    "wedge",
    "exterior_derivative",
    "trace",
    "l2_inner_reference",
    "l2_inner_box",
    "integrate_unit_box",
    "evaluate",
    "permutation_sign",
]


def enumerate_sigma(k: int, n: int) -> list[IndexMap]:
    """All increasing k-index selections from 1..n, in lexicographic order.

    This ordering is the canonical component ordering used by every matrix
    and basis downstream.
    """
    if k < 0 or k > n:
        raise ValueError(f"form degree k={k} out of range for n={n}")
    return [tuple(c) for c in combinations(range(1, n + 1), k)]


def permutation_sign(left: IndexMap, right: IndexMap) -> int:
    """Sign of sorting the concatenation of two increasing index maps."""
    inversions = sum(1 for s in left for t in right if s > t)
    return -1 if inversions % 2 else 1


class Polynomial:
    """Polynomial in ``nvars`` variables with exact rational coefficients.

    Stored as integer coefficients ``ints`` (exponent tuple -> nonzero int)
    over one positive denominator ``denom`` in lowest terms, that is with
    gcd(denom, all ints) = 1: the format of ``mapping.MultilinearMap``.  The
    form is canonical, so equal polynomials store equal ints and denom.
    ``terms`` is a derived view as Fractions.  Instances are treated as
    immutable.
    """

    __slots__ = ("nvars", "ints", "denom")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Scalar] | None = None):
        merged: dict[Monomial, Fraction] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for nvars={nvars}")
            exps = tuple(int(e) for e in exps)
            merged[exps] = merged.get(exps, 0) + Fraction(c)
        denom = lcm(*(c.denominator for c in merged.values()))
        ints = ((e, c.numerator * (denom // c.denominator)) for e, c in merged.items())
        _from_ints(nvars, ints, denom, self)

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        """The coordinate polynomial x_i (1-based i)."""
        _check_index(i, nvars)
        exps = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(nvars, {exps: 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Monomial, c: Scalar = 1) -> "Polynomial":
        exps = tuple(map(int, exps))
        if len(exps) != nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple {exps} for nvars={nvars}")
        if not isinstance(c, int):
            c = Fraction(c)
        return _from_ints(nvars, ((exps, c.numerator),), c.denominator)

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The coefficients as exact rationals (a derived view)."""
        return {e: Fraction(c, self.denom) for e, c in self.ints.items()}

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.ints), default=-1)

    def degree_in(self, i: int) -> int:
        """Degree in variable x_i (1-based); -1 for the zero polynomial."""
        _check_index(i, self.nvars)
        return max((e[i - 1] for e in self.ints), default=-1)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("polynomial arity mismatch")
        denom = lcm(self.denom, other.denom)
        sa, sb = denom // self.denom, denom // other.denom
        out = {e: c * sa for e, c in self.ints.items()}
        get = out.get
        for e, c in other.ints.items():
            out[e] = get(e, 0) + c * sb
        return _from_ints(self.nvars, out.items(), denom)

    def __neg__(self) -> "Polynomial":
        return _from_ints(self.nvars, ((e, -c) for e, c in self.ints.items()), self.denom)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            ints = ((e, v * other.numerator) for e, v in self.ints.items())
            return _from_ints(self.nvars, ints, self.denom * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("polynomial arity mismatch")
        return _from_ints(
            self.nvars, _int_mul(self.ints, other.ints).items(), self.denom * other.denom
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.denom == other.denom
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.nvars, self.denom, frozenset(self.ints.items())))

    def partial(self, i: int) -> "Polynomial":
        """Exact partial derivative with respect to x_i (1-based)."""
        _check_index(i, self.nvars)
        pos = i - 1
        ints = (
            (exps[:pos] + (exps[pos] - 1,) + exps[pos + 1 :], c * exps[pos])
            for exps, c in self.ints.items()
            if exps[pos]
        )
        return _from_ints(self.nvars, ints, self.denom)

    def restrict(self, fixed: Mapping[int, Scalar], keep: Sequence[int]) -> "Polynomial":
        """Substitute values for the ``fixed`` variables, keep the rest.

        ``keep`` lists the surviving variable indices (1-based, strictly
        increasing), and every variable is either fixed or kept; the result
        is a polynomial in ``len(keep)`` variables, reindexed in that order.
        A fixed value p/q raised to the power e enters term e as
        p^e q^(top - e) over q^top, top the degree in that variable.
        """
        keep = tuple(keep)
        for i in (*fixed, *keep):
            _check_index(i, self.nvars)
        if not fixed.keys().isdisjoint(keep):
            raise ValueError("a variable cannot be both fixed and kept")
        if any(a >= b for a, b in zip(keep, keep[1:])):
            raise ValueError("kept variables must be strictly increasing")
        if len(fixed) + len(keep) != self.nvars:
            raise ValueError("every variable must be fixed or kept")
        subs = []
        denom = self.denom
        for i, val in fixed.items():
            if not isinstance(val, int):
                val = Fraction(val)
            p, q = val.numerator, val.denominator
            top = max((e[i - 1] for e in self.ints), default=0)
            subs.append((i - 1, p, q, top))
            denom *= q**top
        kept = [i - 1 for i in keep]
        out: IntPoly = {}
        for exps, c in self.ints.items():
            for pos, p, q, top in subs:
                e = exps[pos]
                c *= p**e * q ** (top - e)
            if c:
                key = tuple([exps[i] for i in kept])
                out[key] = out.get(key, 0) + c
        return _from_ints(len(keep), out.items(), denom)

    def eval_exact(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        vals = [Fraction(x) for x in point]
        total = sum(c * prod(x**e for x, e in zip(vals, exps)) for exps, c in self.ints.items())
        return Fraction(total) / self.denom

    def eval_float(self, point: Sequence[float]) -> float:
        """The value at a float point; each coefficient is the int true
        division c / denom, which Python rounds correctly."""
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        total = 0.0
        for exps, c in self.ints.items():
            term = c / self.denom
            for x, e in zip(point, exps):
                if e:
                    term *= float(x) ** e
            total += term
        return total

    def integral_box(self, edge: Scalar = 1) -> Fraction:
        """Exact integral over the box [0, edge]^nvars."""
        h = Fraction(edge)
        total = Fraction(0)
        for exps, c in self.ints.items():
            term = Fraction(c)
            for e in exps:
                term *= h ** (e + 1) / (e + 1)
            total += term
        return total / self.denom

    def __repr__(self) -> str:
        if not self.ints:
            return "0"
        parts = []
        for exps, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            parts.append(f"{c}" if not mono else (mono if c == 1 else f"{c}*{mono}"))
        return " + ".join(parts)


def _check_index(i: int, nvars: int) -> None:
    if not 1 <= i <= nvars:
        raise ValueError(f"variable index {i} out of range 1..{nvars}")


def _from_ints(
    nvars: int,
    ints: Iterable[tuple[Monomial, int]],
    denom: int,
    out: Polynomial | None = None,
) -> Polynomial:
    """The Polynomial sum c x^e / denom over (e, c) pairs with distinct
    exponents, denom > 0: zero terms are dropped and the rest reduced to
    lowest terms by one gcd.  Fills ``out`` (a new Polynomial when None).
    Every Polynomial is made here."""
    if out is None:
        out = Polynomial.__new__(Polynomial)
    clean = {e: c for e, c in ints if c}
    g = gcd(denom, *clean.values())
    if g > 1:
        clean = {e: c // g for e, c in clean.items()}
        denom //= g
    out.nvars = nvars
    out.ints = clean
    out.denom = denom
    return out


def _int_mul(a: IntPoly, b: IntPoly, out: IntPoly | None = None) -> IntPoly:
    """Adds the product of two integer polynomials into ``out`` (a new dict
    when None) and returns it, dropping every term that cancels to zero.

    The product is one scatter into the layout whose radix per variable is
    the product's degree in it plus one: each pair of terms adds ca cb at
    the sum of their offsets.  A coefficient of the product sums at most
    min(#a, #b) pairs, so no operand coefficient or partial sum exceeds
    max(max|a|, max|b|, min(#a, #b) max|a| max|b|), the bound that picks
    the arrays' dtype."""
    if out is None:
        out = {}
    if a and b:
        layout = tuple(x + y + 1 for x, y in zip(map(max, zip(*a)), map(max, zip(*b))))
        top_a, top_b = max(map(abs, a.values())), max(map(abs, b.values()))
        dtype = _int_dtype(max(top_a, top_b, min(len(a), len(b)) * top_a * top_b))
        strides = _strides(layout)[0]
        oa = np.array([sum(map(mul, e, strides)) for e in a])
        ob = np.array([sum(map(mul, e, strides)) for e in b])
        ca = np.fromiter(a.values(), dtype, len(a))
        cb = np.fromiter(b.values(), dtype, len(b))
        acc = np.zeros(prod(layout), dtype)
        np.add.at(acc, (oa[:, None] + ob).ravel(), np.multiply.outer(ca, cb).ravel())
        terms = _slot_terms(acc, layout)
        if not out:
            out.update(terms)
            return out
        get = out.get
        for e, c in terms:
            c += get(e, 0)
            if c:
                out[e] = c
            else:
                del out[e]
    return out


def _int_dtype(bound: int) -> type:
    """The dtype of exact integer arrays whose values never exceed
    ``bound`` in absolute value: int64 below 2^63, Python ints (object)
    otherwise."""
    return np.int64 if bound < 2**63 else object


@lru_cache(maxsize=128)
def _strides(layout: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[Monomial, ...]]:
    """(strides, exponents) of a mixed-radix layout: exponent tuple e sits
    in slot sum_i e_i strides[i], the last variable varying fastest, and
    exponents lists the tuples slot by slot."""
    strides = []
    step = 1
    for r in reversed(layout):
        strides.append(step)
        step *= r
    return tuple(reversed(strides)), tuple(product(*map(range, layout)))


def _slot_terms(coeffs: np.ndarray, layout: tuple[int, ...]) -> Iterable[tuple[Monomial, int]]:
    """The nonzero (exponents, coefficient) pairs of a slot array in
    ``layout``, in slot order."""
    nonzero = coeffs.nonzero()[0]
    exponents = _strides(layout)[1]
    return zip(map(exponents.__getitem__, nonzero.tolist()), coeffs[nonzero].tolist())


def _slot_mask(monomials: Iterable[Monomial], layout: tuple[int, ...]) -> np.ndarray:
    """A boolean array over the slots of ``layout``, True at each of the
    monomials that fits it (a monomial outside the layout has no slot)."""
    strides = _strides(layout)[0]
    mask = np.zeros(prod(layout), bool)
    mask[[sum(map(mul, e, strides)) for e in monomials if all(map(int.__lt__, e, layout))]] = True
    return mask


@dataclass(frozen=True)
class Face:
    """A face of the unit n-cube: some coordinates fixed at 0 or 1.

    ``fixed`` maps coordinate index (1-based) to its value; ``free`` lists
    the remaining coordinates in increasing order.  Together they must
    partition 1..n.
    """

    n: int
    fixed: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        fixed = dict(self.fixed)
        if any(v not in (0, 1) for v in fixed.values()):
            raise ValueError("face coordinates must be fixed at 0 or 1")
        if any(not 1 <= i <= self.n for i in fixed):
            raise ValueError("fixed coordinate index out of range")
        object.__setattr__(self, "fixed", fixed)

    def __hash__(self):
        return hash((self.n, frozenset(self.fixed.items())))

    @property
    def free(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if i not in self.fixed)

    @property
    def dim(self) -> int:
        return self.n - len(self.fixed)

    def __repr__(self) -> str:
        inside = ", ".join(f"x{i}={v}" for i, v in sorted(self.fixed.items()))
        return f"Face(n={self.n}, {{{inside}}})" if inside else f"Face(n={self.n})"


class DiffForm:
    """Polynomial differential k-form sum_sigma f_sigma dx^sigma on a box.

    ``components`` maps increasing index tuples to coefficient polynomials;
    zero components are never stored.
    """

    __slots__ = ("n", "k", "components")

    def __init__(
        self,
        n: int,
        k: int,
        components: Mapping[IndexMap, Polynomial] | None = None,
    ):
        if k < 0:
            raise ValueError("form degree must be non-negative")
        self.n = n
        self.k = k
        clean: dict[IndexMap, Polynomial] = {}
        if components:
            for sigma, poly in components.items():
                sigma = tuple(sigma)
                if len(sigma) != k:
                    raise ValueError(f"index map {sigma} has wrong length for k={k}")
                if any(not 1 <= s <= n for s in sigma) or list(sigma) != sorted(set(sigma)):
                    raise ValueError(f"index map {sigma} not strictly increasing in 1..{n}")
                if poly.nvars != n:
                    raise ValueError("component polynomial arity mismatch")
                _accumulate(clean, sigma, poly)
        self.components = clean

    @classmethod
    def zero(cls, n: int, k: int) -> "DiffForm":
        return cls(n, k)

    @classmethod
    def monomial_form(
        cls, n: int, sigma: IndexMap, exps: Monomial, c: Scalar = 1
    ) -> "DiffForm":
        return cls(n, len(sigma), {tuple(sigma): Polynomial.monomial(n, exps, c)})

    @classmethod
    def basis_form(cls, n: int, sigma: IndexMap) -> "DiffForm":
        """The constant form dx^sigma."""
        return cls.monomial_form(n, sigma, (0,) * n, 1)

    @property
    def is_zero(self) -> bool:
        return not self.components

    def component(self, sigma: IndexMap) -> Polynomial:
        return self.components.get(tuple(sigma), Polynomial.zero(self.n))

    def __add__(self, other: "DiffForm") -> "DiffForm":
        if not isinstance(other, DiffForm):
            return NotImplemented
        if self.n != other.n or self.k != other.k:
            raise ValueError("form shape mismatch in addition")
        out = dict(self.components)
        for sigma, poly in other.components.items():
            _accumulate(out, sigma, poly)
        return _form(self.n, self.k, out)

    def __neg__(self) -> "DiffForm":
        return _form(self.n, self.k, {s: -p for s, p in self.components.items()})

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        if not isinstance(other, DiffForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, c: Scalar) -> "DiffForm":
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        return DiffForm(self.n, self.k, {s: p * c for s, p in self.components.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiffForm)
            and self.n == other.n
            and self.k == other.k
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.n, self.k, frozenset(self.components.items())))

    def wedge(self, other: "DiffForm") -> "DiffForm":
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch in wedge")
        n = self.n
        deg = self.k + other.k
        out: dict[IndexMap, Polynomial] = {}
        if deg <= n:
            for s, ps in self.components.items():
                sset = set(s)
                for t, pt in other.components.items():
                    if sset & set(t):
                        continue
                    sign = permutation_sign(s, t)
                    key = tuple(sorted(s + t))
                    term = ps * pt
                    if sign < 0:
                        term = -term
                    _accumulate(out, key, term)
        return _form(n, deg, out)

    def d(self) -> "DiffForm":
        """Exterior derivative; a (k+1)-form, zero for top-degree forms."""
        n = self.n
        out: dict[IndexMap, Polynomial] = {}
        for sigma, poly in self.components.items():
            sset = set(sigma)
            for i in range(1, n + 1):
                if i in sset:
                    continue
                dp = poly.partial(i)
                below = sum(1 for s in sigma if s < i)
                if below % 2:
                    dp = -dp
                _accumulate(out, tuple(sorted(sigma + (i,))), dp)
        return _form(n, self.k + 1, out)

    def trace(self, face: Face) -> "DiffForm":
        """Restrict to a face: substitute its fixed coordinates and drop
        every component whose index map touches one of them."""
        if face.n != self.n:
            raise ValueError("face does not belong to this form's cube")
        free = face.free
        local = {i: pos + 1 for pos, i in enumerate(free)}
        out = {
            tuple(local[s] for s in sigma): poly.restrict(face.fixed, free)
            for sigma, poly in self.components.items()
            if not any(s in face.fixed for s in sigma)
        }
        return _form(len(free), self.k, out)

    def evaluate(self, point: Sequence[float]) -> dict[IndexMap, float]:
        if len(point) != self.n:
            raise ValueError("point arity mismatch")
        return {s: p.eval_float(point) for s, p in self.components.items()}

    def max_degree(self) -> int:
        """Largest total degree over all components; -1 if zero."""
        return max((p.degree() for p in self.components.values()), default=-1)

    def __repr__(self) -> str:
        if not self.components:
            return f"DiffForm(0; n={self.n}, k={self.k})"
        parts = []
        for sigma in sorted(self.components):
            dx = "^".join(f"dx{s}" for s in sigma) or "1"
            parts.append(f"({self.components[sigma]}) {dx}".strip())
        return " + ".join(parts)


def _form(n: int, k: int, components: Mapping[IndexMap, Polynomial]) -> DiffForm:
    """The DiffForm of components already valid for (n, k), made without
    checking them; zero polynomials are dropped."""
    f = DiffForm.__new__(DiffForm)
    f.n, f.k = n, k
    f.components = {s: p for s, p in components.items() if p.ints}
    return f


def _accumulate(out: dict[IndexMap, Polynomial], key: IndexMap, poly: Polynomial) -> None:
    """Adds poly into out[key]; an entry whose sum is zero is removed."""
    merged = out[key] + poly if key in out else poly
    if merged.is_zero:
        out.pop(key, None)
    else:
        out[key] = merged


def wedge(f: DiffForm, g: DiffForm) -> DiffForm:
    return f.wedge(g)


def exterior_derivative(f: DiffForm) -> DiffForm:
    return f.d()


def trace(f: DiffForm, face: Face) -> DiffForm:
    return f.trace(face)


def l2_inner_box(f: DiffForm, g: DiffForm, edge: Scalar = 1) -> Fraction:
    """Exact L2 pairing of two k-forms over the box [0, edge]^n."""
    if f.n != g.n or f.k != g.k:
        raise ValueError("form shape mismatch in L2 pairing")
    total = Fraction(0)
    for sigma, pf in f.components.items():
        pg = g.components.get(sigma)
        if pg is not None:
            total += (pf * pg).integral_box(edge)
    return total


def l2_inner_reference(f: DiffForm, g: DiffForm) -> Fraction:
    """Exact L2 inner product on the unit cube, summed over components."""
    return l2_inner_box(f, g, 1)


def integrate_unit_box(f: DiffForm) -> Fraction:
    """Integrate a top-degree form (k = n) over the unit cube.

    For n = 0 this is evaluation of the constant.
    """
    if f.k != f.n:
        raise ValueError("only top-degree forms can be integrated")
    top = tuple(range(1, f.n + 1))
    poly = f.components.get(top)
    return Fraction(0) if poly is None else poly.integral_box(1)


def evaluate(f: DiffForm, point: Sequence[float]) -> dict[IndexMap, float]:
    return f.evaluate(point)
