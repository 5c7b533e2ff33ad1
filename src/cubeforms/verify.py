"""Exact verification suites: dimensions, DOF counts, unisolvence,
calculus identities, subcomplex property, and pullback inclusions.

Every check here is decided in exact rational arithmetic.  Results come
back as (name, ok) pairs so the CLI can print one line per check and tests
can assert on them; any failing pair names the offending (r, k, n).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Mapping

from . import exactla
from .dofs import _int_matrix, build_dofs, dof_count_by_faces, enumerate_faces
from .forms import DiffForm, _slot_mask, enumerate_sigma, l2_inner_box, l2_inner_reference
from .mapping import (
    MultilinearMap,
    _corners,
    _Pullbacks,
    _pull_all,
    _pullbacks,
    check_diffeo,
    map_from_vertices,
    pullback_polynomial,
)
from .spaces import FormSpace, build_P, build_Qminus, dim_Qminus, in_span

CheckResult = tuple[str, bool]

# Draws a random map generator makes before it gives up.
_MAX_DRAWS = 1000

# Random maps move each vertex coordinate by k / _DENOM, |k| <= _SPREAD.
_DENOM = 8
_SPREAD = 2

# check_dof_counts builds the functionals themselves up to this dimension.
_BUILD_UP_TO_N = 3


def random_rational_multilinear(n: int, rng: random.Random) -> MultilinearMap:
    """Random valid multilinear map with rational vertices near the corners."""
    for _ in range(_MAX_DRAWS):
        verts = {
            alpha: tuple(
                Fraction(alpha[i]) + Fraction(rng.randint(-_SPREAD, _SPREAD), _DENOM)
                for i in range(n)
            )
            for alpha in _corners(n)
        }
        fmap = map_from_vertices(verts)
        if check_diffeo(fmap):
            return fmap
    raise RuntimeError(f"no valid multilinear map of dimension {n} in {_MAX_DRAWS} draws")


def random_rational_affine(n: int, rng: random.Random) -> MultilinearMap:
    """Random affine map x -> A x + b with rational entries and det A > 0."""
    for _ in range(_MAX_DRAWS):
        a = [
            [
                Fraction(1 if i == j else 0) + Fraction(rng.randint(-_SPREAD, _SPREAD), _DENOM)
                for j in range(n)
            ]
            for i in range(n)
        ]
        b = [Fraction(rng.randint(-_SPREAD, _SPREAD), _DENOM) for _ in range(n)]
        verts = {
            alpha: tuple(
                b[i] + sum(a[i][j] * alpha[j] for j in range(n)) for i in range(n)
            )
            for alpha in _corners(n)
        }
        fmap = map_from_vertices(verts)
        if check_diffeo(fmap):
            return fmap
    raise RuntimeError(f"no valid affine map of dimension {n} in {_MAX_DRAWS} draws")


def check_dimensions(max_n: int = 4, max_r: int = 4) -> list[CheckResult]:
    out = []
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            for r in range(max_r + 1):
                ok = build_Qminus(r, k, n).dim == dim_Qminus(r, k, n)
                out.append((f"dimension r={r} k={k} n={n}", ok))
    return out


def check_dof_counts(max_n: int = 4, max_r: int = 4) -> list[CheckResult]:
    out = []
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            for r in range(1, max_r + 1):
                ok = dof_count_by_faces(r, k, n) == dim_Qminus(r, k, n)
                if n <= _BUILD_UP_TO_N:
                    ok = ok and build_dofs(r, k, n).count == dim_Qminus(r, k, n)
                out.append((f"dof-count r={r} k={k} n={n}", ok))
    return out


def check_unisolvence(max_n: int = 3, max_r: int = 3) -> list[CheckResult]:
    out = []
    for n in range(1, min(max_n, 3) + 1):
        for k in range(n + 1):
            for r in range(1, min(max_r, 3) + 1):
                _, rows, _ = _int_matrix(r, k, n)
                ok = exactla.is_invertible(rows)
                out.append((f"unisolvence r={r} k={k} n={n}", ok))
    return out


def _sample_forms(n: int) -> list[DiffForm]:
    """Small deterministic family of forms with mixed degrees and coefficients."""
    forms = []
    for k in range(n + 1):
        f = DiffForm.zero(n, k)
        for m, sigma in enumerate(enumerate_sigma(k, n)):
            exps = tuple((m + i + k) % 3 for i in range(n))
            f = f + DiffForm.monomial_form(n, sigma, exps, Fraction(m + 1, m + 2))
        forms.append(f)
    return forms


def check_calculus(max_n: int = 3) -> list[CheckResult]:
    out = []
    for n in range(1, max_n + 1):
        forms = _sample_forms(n)
        ok_dd = all(f.d().d().is_zero for f in forms)
        out.append((f"d.d=0 n={n}", ok_dd))
        ok_anti = True
        ok_leibniz = True
        for f in forms:
            for g in forms:
                fg = f.wedge(g)
                gf = g.wedge(f)
                sign = -1 if (f.k * g.k) % 2 else 1
                if fg != sign * gf:
                    ok_anti = False
                lhs = fg.d()
                rhs = f.d().wedge(g) + (f.wedge(g.d()) * (-1 if f.k % 2 else 1))
                if lhs != rhs:
                    ok_leibniz = False
        out.append((f"anticommutativity n={n}", ok_anti))
        out.append((f"leibniz n={n}", ok_leibniz))
        ok_trace = True
        for f in forms:
            for d in range(n):
                for face in enumerate_faces(n, d):
                    if f.d().trace(face) != f.trace(face).d():
                        ok_trace = False
        out.append((f"trace-d commutation n={n}", ok_trace))
    return out


def check_subcomplex(max_n: int = 3, max_r: int = 3) -> list[CheckResult]:
    out = []
    for n in range(1, max_n + 1):
        for k in range(n):
            for r in range(1, max_r + 1):
                target = build_Qminus(r, k + 1, n)
                ok = all(
                    in_span(target, f.d()) for f in build_Qminus(r, k, n).basis
                )
                out.append((f"subcomplex r={r} k={k} n={n}", ok))
        for r in range(1, max_r + 1):
            ok = all(f.d().is_zero for f in build_Qminus(r, n, n).basis)
            out.append((f"subcomplex-top r={r} n={n}", ok))
    return out


def _lands_in(
    pulled: _Pullbacks,
    by_degree: Mapping[int, list[int]],
    targets: Mapping[int, FormSpace],
    outside: dict,
) -> bool:
    """Whether each pulled-back form of degree r, the forms by_degree[r],
    lies in the monomial space targets[r]: per r and tau, one test that no
    nonzero slot of those forms falls outside the space's exponents of tau.
    ``outside`` keeps those slot masks by (r, tau) for the next map; they
    depend only on the layout, which is the same for every map."""
    for tau, coeffs in pulled.parts.items():
        support = coeffs != 0
        for r, forms in by_degree.items():
            mask = outside.get((r, tau))
            if mask is None:
                allowed = targets[r].monomial_coords.get(tau, ())
                mask = outside[r, tau] = ~_slot_mask(allowed, pulled.layout)
            if (support[forms] & mask).any():
                return False
    return True


def check_pullback_inclusions(
    n: int, max_r: int = 3, n_maps: int = 20, seed: int = 2024
) -> list[CheckResult]:
    """Affine pullbacks stay in P_r; multilinear pullbacks land in
    Q_(r+k)^-, where r is the total degree of the pulled monomial.  The
    degree-max_r monomial basis of each k is pulled back through each map at
    once (mapping._pullbacks), and the target spaces are read by their
    monomial exponents alone.  Also naturality (F*(dv) = d(F*v)) and wedge
    preservation (F*(v ^ w) = F*v ^ F*w) on the sample forms, through one
    more map: every F*v, F*(dv) and F*(v ^ w) is pulled back by one
    mapping._pull_all, one _pullbacks call per form degree.  All exact."""
    rng = random.Random(seed)
    out = []
    qspaces = {
        k: {r: build_Qminus(r + k, k, n) for r in range(max_r + 1)} for k in range(n + 1)
    }
    pspaces = {k: {r: build_P(r, k, n) for r in range(max_r + 1)} for k in range(n + 1)}
    bases = {k: pspaces[k][max_r].basis for k in range(n + 1)}
    by_degree: dict[int, dict[int, list[int]]] = {k: {} for k in bases}
    for k, basis in bases.items():
        for i, v in enumerate(basis):
            by_degree[k].setdefault(v.max_degree(), []).append(i)
    masks = {(kind, k): {} for kind in "qp" for k in bases}
    for idx in range(n_maps):
        fmap = random_rational_multilinear(n, rng)
        amap = random_rational_affine(n, rng)
        ok_q = all(
            _lands_in(_pullbacks(fmap, bases[k]), by_degree[k], qspaces[k], masks["q", k])
            for k in bases
        )
        ok_p = all(
            _lands_in(_pullbacks(amap, bases[k]), by_degree[k], pspaces[k], masks["p", k])
            for k in bases
        )
        out.append((f"pullback-multilinear->Qminus n={n} map={idx}", ok_q))
        out.append((f"pullback-affine->P n={n} map={idx}", ok_p))
    fmap = random_rational_multilinear(n, rng)
    forms = _sample_forms(n)
    m = len(forms)
    flat = _pull_all(
        fmap, forms + [f.d() for f in forms] + [f.wedge(g) for f in forms for g in forms]
    )
    pulled, pulled_d, pulled_wedges = flat[:m], flat[m : 2 * m], flat[2 * m :]
    ok_nat = all(pdf == pf.d() for pf, pdf in zip(pulled, pulled_d))
    out.append((f"pullback-naturality n={n}", ok_nat))
    ok_wedge = all(
        pfg == pf.wedge(pg) for pfg, (pf, pg) in zip(pulled_wedges, product(pulled, repeat=2))
    )
    out.append((f"pullback-wedge n={n}", ok_wedge))
    return out


def check_dilation_scaling(max_n: int = 3) -> list[CheckResult]:
    """Exact L2 scaling of pullbacks under dilation: the squared norm on the
    reference cube equals h^(2k-n) times the squared norm over the scaled box."""
    out = []
    for n in range(1, max_n + 1):
        forms = _sample_forms(n)
        for h in (Fraction(1, 2), Fraction(1, 3), Fraction(2)):
            fmap = MultilinearMap.dilation(n, h)
            ok = True
            for v in forms:
                pv = pullback_polynomial(fmap, v)
                lhs = l2_inner_reference(pv, pv)
                rhs = h ** (2 * v.k - n) * l2_inner_box(v, v, h)
                if lhs != rhs:
                    ok = False
            out.append((f"dilation-scaling h={h} n={n}", ok))
    return out


def run_all(max_n: int = 3, max_r: int = 3, pullback_maps: int = 5) -> list[CheckResult]:
    """The exact suite driven by the check subcommand."""
    results: list[CheckResult] = []
    results += check_dimensions(max_n, max_r)
    results += check_dof_counts(max_n, max_r)
    results += check_unisolvence(max_n, max_r)
    results += check_calculus(min(max_n, 3))
    results += check_subcomplex(min(max_n, 3), min(max_r, 3))
    for n in (2, 3):
        if n <= max_n:
            results += check_pullback_inclusions(n, min(max_r, 3), pullback_maps)
    results += check_dilation_scaling(min(max_n, 3))
    return results
