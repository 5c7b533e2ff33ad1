"""Affine and multilinear maps of the unit cube and exact form pullback.

A multilinear map is stored by its monomial corner coefficients as
Python ints over one positive denominator D, in lowest terms, the format
of ``forms.Polynomial``; ``coeffs`` is a derived view of them as
rationals and ``float_arrays`` a correctly rounded float one, built on
each call.  ``_moebius`` turns corner positions into these coefficients,
one difference per axis, for one map or a whole mesh at once.  Validity
(det DF > 0 on the closed cube) is proved in integer arithmetic from the
Bernstein coefficients of det DF.  The pushforward (F^-1)* of
reference shape functions is not polynomial, since the inverse of a
multilinear map is not; the numeric lab evaluates it at quadrature
points through the numpy kernels (``meshlab._pushforward``).

Pullback of polynomial forms is fully symbolic and exact.  On first use a
map builds one cache, kept for its lifetime: its components as integer
polynomials D F^i, the entries of D DF, memos of the minors
det((D DF)[sigma, tau]) and of the monomial images D^|e| F^e (each one
image of lower degree times one D F^i), the l1 norm of each image and the
max norm of each minor.  One engine, ``_pullbacks``, pulls back a list of
k-forms at once, on dense integer arrays in one mixed-radix layout shared
by the list: per sigma, the forms with a sigma component are one block of
rows, each row the form's sum of scaled images, and multiplying a block by
a minor is one shifted add per minor term.  The arrays are int64 when the
cached norms bound every value below 2^63 and hold Python ints otherwise.
The result is one (forms, slots) array per tau of integers over one
denominator per form.  ``_pull_all`` reads back forms of mixed degrees as
DiffForms, with one ``_pullbacks`` call per degree, and
``pullback_polynomial`` is its one-form case; ``verify`` reads the nonzero
slots of a whole basis without building a Polynomial.  ``jacobian`` and
the validity proof read D DF and det(D DF), its top minor, from the same
cache.  A map is never changed after construction, so the cache never
goes stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import comb, gcd, lcm, prod
from operator import index, mul
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .forms import (
    DiffForm,
    IndexMap,
    IntPoly,
    Monomial,
    Polynomial,
    Scalar,
    _form,
    _from_ints,
    _int_dtype,
    _int_mul,
    _slot_terms,
    _strides,
    enumerate_sigma,
)

__all__ = [
    "MultilinearMap",
    "JacobianPoly",
    "map_from_vertices",
    "jacobian",
    "check_diffeo",
    "pullback_polynomial",
]


@lru_cache(maxsize=None)
def _corners(n: int) -> tuple[tuple[int, ...], ...]:
    """The corner multi-indices {0,1}^n in lexicographic order."""
    return tuple(product((0, 1), repeat=n))


class MultilinearMap:
    """F: [0,1]^n -> R^n with F(x) = sum_alpha c_alpha prod_i x_i^alpha_i,
    alpha running over the corner multi-indices {0,1}^n.  The coefficients
    are stored as c_alpha = ints[alpha] / denom in lowest terms, that is with
    gcd(all ints, denom) = 1."""

    __slots__ = ("n", "ints", "denom", "_int_cache")

    def __init__(self, n: int, ints: Mapping[tuple[int, ...], Sequence[int]], denom: int):
        if denom <= 0:
            raise ValueError("the denominator must be positive")
        corners = _corners(n)
        if not ints.keys() <= set(corners):
            raise ValueError(f"coefficient keys must be corners of {{0,1}}^{n}")
        vecs = [tuple(map(index, ints.get(alpha, (0,) * n))) for alpha in corners]
        if any(len(vec) != n for vec in vecs):
            raise ValueError("coefficient vectors must have length n")
        g = gcd(denom, *chain.from_iterable(vecs))
        if g > 1:
            vecs = [tuple([c // g for c in vec]) for vec in vecs]
            denom //= g
        self.n = n
        self.ints = dict(zip(corners, vecs))
        self.denom = denom
        self._int_cache = None

    @classmethod
    def identity(cls, n: int) -> "MultilinearMap":
        return cls.dilation(n, 1)

    @classmethod
    def dilation(cls, n: int, h: Scalar) -> "MultilinearMap":
        h = Fraction(h)
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        return cls(n, {e: [h.numerator * x for x in e] for e in units}, h.denominator)

    @property
    def coeffs(self) -> dict[tuple[int, ...], tuple[Fraction, ...]]:
        """The corner coefficients as exact rationals (a derived view)."""
        return {
            alpha: tuple(Fraction(c, self.denom) for c in vec) for alpha, vec in self.ints.items()
        }

    @property
    def is_affine(self) -> bool:
        return not any(any(vec) for alpha, vec in self.ints.items() if sum(alpha) >= 2)

    def eval_exact(self, point: Sequence[Scalar]) -> tuple[Fraction, ...]:
        if len(point) != self.n:
            raise ValueError("point arity mismatch")
        pt = [Fraction(x) for x in point]
        out = [0] * self.n
        for alpha, vec in self.ints.items():
            w = prod(x for x, a in zip(pt, alpha) if a)
            if w:
                for i in range(self.n):
                    out[i] += vec[i] * w
        return tuple(Fraction(x) / self.denom for x in out)

    def float_arrays(self) -> np.ndarray:
        """The coefficient matrix (2^n, n) float64, rows in _corners(n) order,
        built on each call.  Each entry is the int true division c / denom,
        which Python rounds correctly, so it equals float(Fraction(c, denom))."""
        coeffs = np.array([c / self.denom for vec in self.ints.values() for c in vec])
        return coeffs.reshape(-1, self.n)

    def _int_data(self) -> "_ClearedMap":
        """The integer-cleared exact data of this map, built on first use."""
        if self._int_cache is None:
            self._int_cache = _ClearedMap(self)
        return self._int_cache

    def __call__(self, point: Sequence[float]) -> np.ndarray:
        if len(point) != self.n:
            raise ValueError("point arity mismatch")
        pt = np.asarray(point, dtype=np.float64)
        alphas = np.array(_corners(self.n), dtype=np.int64)
        mono = np.prod(np.where(alphas == 1, pt[None, :], 1.0), axis=1)
        return mono @ self.float_arrays()

    def __repr__(self) -> str:
        kind = "affine" if self.is_affine else "multilinear"
        return f"MultilinearMap(n={self.n}, {kind})"


class _ClearedMap:
    """The pullback cache of one map F (see the module docstring), with
    entries[i][j] = D dF^(i+1)/dx^(j+1) as an integer polynomial."""

    __slots__ = ("n", "denom", "entries", "_images", "_minors", "_norms")

    def __init__(self, fmap: MultilinearMap):
        n = fmap.n
        self.denom = fmap.denom
        comps = [{alpha: vec[i] for alpha, vec in fmap.ints.items() if vec[i]} for i in range(n)]
        # Components are multilinear, so d/dx_j just clears alpha_j.
        self.entries = [
            [{a[:j] + (0,) + a[j + 1 :]: c for a, c in comp.items() if a[j]} for j in range(n)]
            for comp in comps
        ]
        self.n = n
        # Images start from e = 0 and the unit exponents: 1 and the D F^i.
        zero = (0,) * n
        self._images: dict[tuple[int, ...], IntPoly] = {zero: {zero: 1}}
        for i, comp in enumerate(comps):
            self._images[zero[:i] + (1,) + zero[i + 1 :]] = comp
        self._minors: dict[tuple[IndexMap, IndexMap], IntPoly] = {}
        # The l1 norm of each image and the max norm of each minor, by key.
        self._norms: dict[tuple, int] = {
            e: sum(map(abs, image.values())) for e, image in self._images.items()
        }

    def minor(self, sigma: IndexMap, tau: IndexMap) -> IntPoly:
        """det((D DF)[sigma, tau]) for 1-based rows sigma and columns tau,
        by expansion along the first row over memoized smaller minors."""
        key = (sigma, tau)
        got = self._minors.get(key)
        if got is None:
            if not sigma:
                got = {(0,) * self.n: 1}
            elif len(sigma) == 1:
                got = self.entries[sigma[0] - 1][tau[0] - 1]
            else:
                got = {}
                row = self.entries[sigma[0] - 1]
                for j, t in enumerate(tau):
                    entry = row[t - 1]
                    if j % 2:
                        entry = {e: -c for e, c in entry.items()}
                    _int_mul(entry, self.minor(sigma[1:], tau[:j] + tau[j + 1 :]), got)
            self._minors[key] = got
            self._norms[key] = max(map(abs, got.values()), default=0)
        return got

    def image(self, exps: tuple[int, ...]) -> IntPoly:
        """D^|e| F^e = prod_i (D F^i)^(e_i) for the exponent tuple e, made
        as image(e - u_j) D F^j, j the last variable with e_j > 0."""
        got = self._images.get(exps)
        if got is None:
            j = max(i for i, e in enumerate(exps) if e)
            lower = exps[:j] + (exps[j] - 1,) + exps[j + 1 :]
            unit = (0,) * j + (1,) + (0,) * (self.n - j - 1)
            got = _int_mul(self.image(lower), self._images[unit])
            self._images[exps] = got
            self._norms[exps] = sum(map(abs, got.values()))
        return got

    def image_l1(self, exps: tuple[int, ...]) -> int:
        """The l1 norm of image(exps)."""
        self.image(exps)
        return self._norms[exps]

    def minor_max(self, sigma: IndexMap, tau: IndexMap) -> int:
        """The max norm of minor(sigma, tau)."""
        self.minor(sigma, tau)
        return self._norms[sigma, tau]


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

    The vertices are cleared once to Python integers over their common
    denominator and handed to _moebius.
    """
    alphas = list(vertices.keys())
    if not alphas:
        raise ValueError("no vertices supplied")
    n = len(alphas[0])
    corners = _corners(n)
    if set(alphas) != set(corners):
        raise ValueError(f"need all {2**n} corners of the {n}-cube")
    verts = [[Fraction(x) for x in vertices[alpha]] for alpha in corners]
    for alpha, vec in zip(corners, verts):
        if len(vec) != n:
            raise ValueError(f"vertex {alpha} has {len(vec)} coordinates, not {n}")
    denom = lcm(*(x.denominator for vec in verts for x in vec))
    points = np.array([[x.numerator * (denom // x.denominator) for x in v] for v in verts], object)
    return MultilinearMap(n, dict(zip(corners, _moebius(points, n).tolist())), denom)


def _moebius(points: np.ndarray, n: int) -> np.ndarray:
    """Monomial coefficients of the multilinear maps through corner
    positions, in place: points (..., 2^n, n), row i the image of corner
    _corners(n)[i], becomes row alpha = sum over the sub-corners beta of
    alpha of (-1)^|alpha - beta| points[beta], by one difference per axis.
    Returns points."""
    cube = points.reshape(points.shape[:-2] + (2,) * n + (n,))
    for tail in range(1, n + 1):
        rest = (slice(None),) * tail
        cube[(..., 1) + rest] -= cube[(..., 0) + rest]
    return points


def jacobian(fmap: MultilinearMap) -> JacobianPoly:
    n = fmap.n
    cleared = fmap._int_data()
    d = cleared.denom
    entries = [[_from_ints(n, entry.items(), d) for entry in row] for row in cleared.entries]
    full = tuple(range(1, n + 1))
    return JacobianPoly(n, entries, _from_ints(n, cleared.minor(full, full).items(), d**n))


# Halvings per axis the validity proof may make before it gives up.
_PROOF_DEPTH = 6

# Integer tensor Bernstein coefficients, keyed by multi-index t in {0..d}^n.
_Bernstein = dict[tuple[int, ...], int]


def check_diffeo(fmap: MultilinearMap) -> bool:
    """Exact proof that det DF > 0 on the closed unit cube.

    det DF is written in the tensor Bernstein basis of degree n - 1 per
    variable with integer coefficients.  All coefficients positive proves
    positivity; a nonpositive corner coefficient (a value of det DF at a
    cube corner) disproves it.  Otherwise every axis is halved by de
    Casteljau subdivision and each piece is decided the same way, at most
    _PROOF_DEPTH levels deep.  A map that is not proved within that depth
    is rejected, so False means "invalid or not provably valid".
    """
    coeffs, _ = _det_bernstein(fmap)
    return _bernstein_positive(coeffs, fmap.n)


@lru_cache(maxsize=None)
def _bernstein_table(d: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(K, L) with L x^i = sum_t K[t][i] B_t(x) in the Bernstein basis of
    degree d: K[t][i] = L C(t,i) / C(d,i), L the least integer clearing it."""
    ratios = [[Fraction(comb(t, i), comb(d, i)) for i in range(d + 1)] for t in range(d + 1)]
    big_l = lcm(*(r.denominator for row in ratios for r in row))
    return tuple(tuple(int(r * big_l) for r in row) for row in ratios), big_l


def _det_bernstein(fmap: MultilinearMap) -> tuple[_Bernstein, int]:
    """Integer tensor Bernstein coefficients b_t of det DF, with
    det DF = sum_t b_t B_t / scale and B_t of degree d = n - 1 per variable
    (column j of DF does not depend on x_j).  det(D DF) is the top minor of
    the pullback cache; its monomial coefficients are changed to Bernstein
    ones with the table (K, L) of _bernstein_table, one axis at a time, so
    scale = (D L)^n."""
    n = fmap.n
    d = n - 1
    full = tuple(range(1, n + 1))
    det = fmap._int_data().minor(full, full)
    grid = list(product(range(d + 1), repeat=n))
    vals = [det.get(t, 0) for t in grid]
    table, big_l = _bernstein_table(d)
    for axis in range(n):
        # Moving t[axis] to i moves the flat grid position by (i - t[axis]) * step.
        step = (d + 1) ** (n - 1 - axis)
        vals = [
            sum(k * vals[p + (i - t[axis]) * step] for i, k in enumerate(table[t[axis]]) if k)
            for p, t in enumerate(grid)
        ]
    return dict(zip(grid, vals)), (fmap.denom * big_l) ** n


def _halve(coeffs: _Bernstein, axis: int, d: int) -> tuple[_Bernstein, _Bernstein]:
    """Bernstein coefficients of both halves along one axis (de Casteljau at
    1/2), each scaled by 2^d so they stay integers."""
    low: _Bernstein = {}
    high: _Bernstein = {}
    for t in coeffs:
        if t[axis]:
            continue
        keys = [t[:axis] + (i,) + t[axis + 1 :] for i in range(d + 1)]
        line = [coeffs[key] for key in keys]
        for r in range(d + 1):
            low[keys[r]] = line[0] << (d - r)
            high[keys[d - r]] = line[-1] << (d - r)
            line = [a + b for a, b in zip(line, line[1:])]
    return low, high


def _bernstein_positive(coeffs: _Bernstein, n: int, depth: int = _PROOF_DEPTH) -> bool:
    """The proof of check_diffeo on Bernstein coefficients of degree n - 1."""
    if all(c > 0 for c in coeffs.values()):
        return True
    d = n - 1
    if depth == 0 or any(coeffs[t] <= 0 for t in product((0, d), repeat=n)):
        return False
    boxes = [coeffs]
    for axis in range(n):
        boxes = [half for box in boxes for half in _halve(box, axis, d)]
    return all(_bernstein_positive(box, n, depth - 1) for box in boxes)


class _Pullbacks(NamedTuple):
    """The pullbacks of a list of k-forms through one map as slot tables:
    parts[tau][i] holds the integer coefficients of component tau of form
    i's pullback over denoms[i], slot by slot in ``layout``."""

    n: int
    k: int
    layout: tuple[int, ...]
    denoms: list[int]
    parts: dict[IndexMap, np.ndarray]

    def form(self, i: int) -> DiffForm:
        """The pullback of form i as a DiffForm."""
        n, layout, denom = self.n, self.layout, self.denoms[i]
        return _form(
            n,
            self.k,
            {tau: _from_ints(n, _slot_terms(c[i], layout), denom) for tau, c in self.parts.items()},
        )


def _pullbacks(fmap: MultilinearMap, forms: Sequence[DiffForm]) -> _Pullbacks:
    """The exact pullbacks F*v of a nonempty list of polynomial k-forms on
    the map's cube, in one shared layout.

    Expands (v_sigma o F) det(DF[sigma, tau]) over increasing tau, which is
    the component form of the coordinate pullback formula.  With L the lcm
    of the denominators of v's components and m its top degree, each term
    c_e x^e of v_sigma, c_e = a_e / L_sigma, contributes
    a_e (L / L_sigma) D^(m-|e|) (D^|e| F^e) in integers,
    so component tau is an integer polynomial over L D^(m+k).  Its degree
    in each variable is at most m + k, so with M the largest m of the list
    every polynomial has a slot in the dense layout of radix M + k + 1 per
    variable, x^b at the flat offset sum_i b_i strides_i, and adding the
    offsets of two polynomials whose degrees sum to at most M + k never
    carries into the next variable.  Operands, of degree at most M, fit in
    the first M sum_i strides_i + 1 slots.

    For each sigma, the forms with a sigma term are one block of rows, row
    i the operand sum_e scale_e image_e of form i.  The block times
    minor(sigma, tau) is one shifted add ``acc[:, o : o + width] += c * op``
    per minor term c x^b, o the offset of b, and acc is added into those
    rows of part tau.  Every partial sum of an operand coefficient is at
    most sum_e |scale_e| l1(image_e), and every partial sum of an output
    coefficient at most sum_sigma (sum_e |scale_e| l1(image_e))
    max|minor(sigma, tau)|.  Terms with a zero image are dropped, so each
    l1(image_e) >= 1 and these bounds also hold for every scale, image
    coefficient and minor coefficient a block is multiplied by.  The arrays
    are int64 when these exact bounds are below 2^63, and the same code
    runs on Python ints (object arrays) otherwise.
    """
    n = fmap.n
    k = forms[0].k
    if any(f.n != n or f.k != k for f in forms):
        raise ValueError("forms must all be k-forms on the map's cube")
    cleared = fmap._int_data()
    d = cleared.denom
    taus = enumerate_sigma(k, n)
    position = {tau: j for j, tau in enumerate(taus)}
    tops = [f.max_degree() for f in forms]
    top = max(0, *tops)
    layout = (top + k + 1,) * n
    size = prod(layout)
    strides = _strides(layout)[0]
    width = top * sum(strides) + 1
    # Per sigma: the forms with a sigma term of nonzero image (rows), where
    # each row's terms start, and per term its image (a column) and scale.
    blocks: dict[IndexMap, tuple[list[int], list[int], list[int], list[int]]] = {}
    column: dict[Monomial, int] = {}
    norms = np.zeros((len(forms), len(taus)), object)
    denoms = []
    for i, (f, m) in enumerate(zip(forms, tops)):
        big_l = lcm(*(p.denom for p in f.components.values()))
        for sigma, poly in f.components.items():
            rows, starts, cols, scales = blocks.setdefault(sigma, ([], [], [], []))
            start, l1 = len(cols), 0
            for exps, c in poly.ints.items():
                norm = cleared.image_l1(exps)
                if norm:
                    scale = c * (big_l // poly.denom) * d ** (m - sum(exps))
                    cols.append(column.setdefault(exps, len(column)))
                    scales.append(scale)
                    l1 += abs(scale) * norm
            if l1:
                rows.append(i)
                starts.append(start)
                norms[i, position[sigma]] = l1
        denoms.append(big_l * d ** (m + k) if f.components else 1)
    blocks = {sigma: block for sigma, block in blocks.items() if block[0]}
    maxima = np.zeros((len(taus), len(taus)), object)
    for sigma in blocks:
        maxima[position[sigma]] = [cleared.minor_max(sigma, tau) for tau in taus]
    bound = max(norms.max(), (norms @ maxima).max())
    dtype = _int_dtype(bound)
    polys = [cleared.image(exps) for exps in column]
    owner = np.repeat(np.arange(len(polys)), [len(p) for p in polys])
    exps = np.fromiter(chain.from_iterable(chain.from_iterable(polys)), np.int64)
    images = np.zeros((len(polys), width), dtype)
    images[owner, exps.reshape(-1, n) @ strides] = np.fromiter(
        chain.from_iterable(p.values() for p in polys), dtype
    )
    parts = {tau: np.zeros((len(forms), size), dtype) for tau in taus}
    for sigma, (rows, starts, cols, scales) in blocks.items():
        op = np.add.reduceat(np.array(scales, dtype)[:, None] * images[cols], starts)
        for tau in taus:
            acc = np.zeros((len(rows), size), dtype)
            for b, c in cleared.minor(sigma, tau).items():
                o = sum(map(mul, b, strides))
                acc[:, o : o + width] += c * op
            parts[tau][rows] += acc
    return _Pullbacks(n, k, layout, denoms, parts)


def _pull_all(fmap: MultilinearMap, forms: Sequence[DiffForm]) -> list[DiffForm]:
    """F*v for each polynomial form v on the map's cube, by one _pullbacks
    call per form degree; a form of degree k > n pulls back to the zero
    form."""
    by_degree: dict[int, list[int]] = {}
    for i, v in enumerate(forms):
        by_degree.setdefault(v.k, []).append(i)
    out = [DiffForm.zero(fmap.n, v.k) for v in forms]
    for k, rows in by_degree.items():
        if k <= fmap.n:
            table = _pullbacks(fmap, [forms[i] for i in rows])
            for j, i in enumerate(rows):
                out[i] = table.form(j)
    return out


def pullback_polynomial(fmap: MultilinearMap, v: DiffForm) -> DiffForm:
    """Exact pullback F*v of a polynomial k-form through a multilinear map:
    the one-form case of _pull_all."""
    if v.n != fmap.n:
        raise ValueError("form dimension does not match the map")
    return _pull_all(fmap, [v])[0]
