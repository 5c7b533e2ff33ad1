"""Mesh families, tensor Gauss quadrature, and broken L2 projection studies.

A mesh is the N^n cells of the lattice {0..N}^n, held as arrays.  A
family's numpy integer rule places all lattice points at once over one
denominator; every cell's corners are slices of them, so neighbouring
cells share faces, and one Moebius difference per axis gives the cells'
coefficients (E, 2^n, n).  DF does not see a translation, so cells are
grouped by Jacobian key (``MultilinearMap.jacobian_key``): one group per
uniform or parallelotope mesh, six per trapezoidal and 24 per trilinear3d
mesh for N >= 4.  Exact maps are made only for exact consumers: a mesh is
returned once det DF > 0 is proved and the cell volumes sum to the
domain's, with one exact map, proof and volume per key.

The measured quantity is the elementwise best approximation of a smooth
target form by the mapped reference space, which lower-bounds the
conforming infimum; fitted h-rates from it are compared against the
inclusion-based predictions.  Polynomial forms enter the float path
through one view (index maps, monomial exponents, coefficients) and one
pushforward through DF^-1.  A study tabulates the reference element
(corner-monomial tables and basis values at the quadrature points) once,
and hands it to the element loop with each Jacobian key's cells, which
makes the key's weighted design matrix, as it depends only on DF.  The
loop takes the cells in chunks of bounded size: per chunk one broadcast
product gives x = F(xref), one target call the values, one product the
weighted right-hand sides, and LAPACK's ``dgelsd``, the solver behind
``np.linalg.lstsq``, the fits.  dgelsd runs by its own stages: those that
read the design matrix alone (its QR, the bidiagonal reduction of R, the
bidiagonal SVD) once per key, those that touch right-hand sides per chunk
or per cell, each called as dgelsd calls it, so the bits are those of
``np.linalg.lstsq``.  For J = 1, or where dgelsd would take another path,
the gufunc behind ``np.linalg.lstsq`` makes one dgelsd per cell.  The
loop runs OpenBLAS with one thread, as the solves are too small to share
between threads.  It checks no input: ``convergence_study`` and
``element_l2_error`` do, before any mesh or tabulation.  Any k <= n runs.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm, log
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg
from numpy.linalg._umath_linalg import lstsq as _gelsd  # numpy >= 2.1

from . import _kernels
from .forms import DiffForm, Scalar, enumerate_sigma
from .mapping import (
    MultilinearMap,
    _bernstein_positive,
    _corners,
    _det_bernstein,
    jacobian,
)
from .spaces import FormSpace, RatePrediction, predict_rates

__all__ = [
    "NumericalError",
    "QuadratureRule",
    "TargetForm",
    "Mesh",
    "ConvergenceReport",
    "gauss_rule",
    "mesh_uniform",
    "mesh_parallelotope",
    "mesh_trapezoidal",
    "mesh_trilinear_3d",
    "build_mesh",
    "target_trig",
    "target_from_form",
    "element_l2_error",
    "convergence_study",
    "default_quad_order",
]

class NumericalError(RuntimeError):
    """Numeric failure in the projection pipeline (singular or rank-deficient)."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Tensor Gauss-Legendre rule on [0,1]^n, exact for per-variable degree
    up to 2q-1.  Compared and hashed by identity."""

    n: int
    order: int
    points: np.ndarray
    weights: np.ndarray


def gauss_rule(n: int, q: int) -> QuadratureRule:
    if not 1 <= q <= 20:
        raise ValueError("per-axis quadrature order must be in 1..20")
    nodes, wts = np.polynomial.legendre.leggauss(q)
    grid = np.array(list(product(range(q), repeat=n)))
    return QuadratureRule(n, q, ((nodes + 1.0) / 2.0)[grid], np.prod((wts / 2.0)[grid], axis=1))


@dataclass(frozen=True)
class TargetForm:
    """Smooth k-form target: callable giving all component values at once.

    The evaluator receives physical points and the matching reference
    points, one row each: those of several cells of one Jacobian key at
    once, with the quadrature points repeated per cell.  Catalog targets
    only use the physical ones, while mapped-reference targets (used to
    test projection of elements of the space itself) use the reference
    points.
    """

    n: int
    k: int
    label: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def values(self, xphys: np.ndarray, xref: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(xphys, xref), dtype=np.float64)
        m = len(enumerate_sigma(self.k, self.n))
        if out.shape != (xphys.shape[0], m):
            raise ValueError(f"target returned shape {out.shape}, expected ({xphys.shape[0]}, {m})")
        return out


def target_trig(n: int, k: int, scale: float = 1.0) -> TargetForm:
    """Default smooth target: component m is sin(scale pi sum_i i x_i + m/(M+1)).

    Every component is nonzero and non-polynomial.  Lower scales push the
    preasymptotic regime to coarser meshes, which matters for 3D studies
    where refinement depth is limited.
    """
    m = len(enumerate_sigma(k, n))
    freqs = np.arange(1, n + 1, dtype=np.float64)
    shifts = np.arange(m, dtype=np.float64) / (m + 1)
    label = "trig" if scale == 1.0 else f"trig scale={scale:g}"

    def fn(xphys, _xref):
        phase = scale * np.pi * (xphys @ freqs)
        return np.sin(phase[:, None] + shifts[None, :])

    return TargetForm(n, k, label, fn)


def target_from_form(form: DiffForm, label: str = "poly") -> TargetForm:
    """A polynomial differential form used as target, evaluated in physical
    coordinates."""
    _, exps, coeffs = _float_view([form], form.n, form.k)

    def fn(xphys, _xref):
        return _kernels.eval_monomials(xphys, exps) @ coeffs[0].T

    return TargetForm(form.n, form.k, label, fn)


# ---------------------------------------------------------------------------
# float view of polynomial forms


def _float_view(forms: Sequence[DiffForm], n: int, k: int):
    """Float arrays of polynomial k-forms on [0,1]^n: (sig_idx (M,k), the
    0-based index maps; exps (T,n), the monomials any form uses; coeffs
    (J,M,T), the coefficient of monomial t in component m of form j)."""
    sigmas = enumerate_sigma(k, n)
    monos = sorted({e for f in forms for p in f.components.values() for e in p.ints})
    if not monos:
        monos = [(0,) * n]
    index = {e: t for t, e in enumerate(monos)}
    sig_pos = {s: m for m, s in enumerate(sigmas)}
    coeffs = np.zeros((len(forms), len(sigmas), len(monos)))
    for j, f in enumerate(forms):
        for sig, poly in f.components.items():
            for exps, c in poly.ints.items():
                coeffs[j, sig_pos[sig], index[exps]] = c / poly.denom
    sig_idx = np.array([[s - 1 for s in sig] for sig in sigmas], dtype=np.int64)
    exps_arr = np.array(monos, dtype=np.int64).reshape(len(monos), n)
    return sig_idx.reshape(len(sigmas), k), exps_arr, coeffs


def _reference_values(exps: np.ndarray, coeffs: np.ndarray, xref: np.ndarray) -> np.ndarray:
    """Values hat (J, M, P) of each form of a float view at the reference
    points xref."""
    return np.einsum("jmt,pt->jmp", coeffs, _kernels.eval_monomials(xref, exps))


def _pushforward(hat: np.ndarray, sig_idx: np.ndarray, invs: np.ndarray) -> np.ndarray:
    """Values (P, M, J) of the pushforward (F^-1)* of the forms with
    reference values hat, given DF^-1 at the same points."""
    minors = _kernels.inverse_minors(invs, sig_idx, sig_idx)
    return np.einsum("jtp,pts->psj", hat, minors)


@dataclass(frozen=True)
class _Tabulation:
    """The reference element of a space of k-forms on [0,1]^n on one
    quadrature rule, the same on every cell: the corner tables behind
    x = F(xref) and DF (see _corner_tables), the 0-based index maps sig_idx
    (M, k) and the reference basis values hat (J, M, P)."""

    corner_tables: tuple
    sig_idx: np.ndarray
    hat: np.ndarray


def _corner_tables(n: int, xref: np.ndarray) -> tuple:
    """The corner-monomial tables of maps on [0,1]^n at xref: values (P, C)
    behind x = F(xref) and the per-column tables behind DF."""
    alphas = np.array(_corners(n), dtype=np.int64)
    return _kernels.corner_monomials(alphas, xref), _kernels.jacobian_tables(alphas, xref)


def _tabulation(vhat: FormSpace, quad: QuadratureRule) -> _Tabulation:
    """The tabulation of vhat on quad."""
    sig_idx, exps, coeffs = _float_view(vhat.basis, vhat.n, vhat.k)
    hat = _reference_values(exps, coeffs, quad.points)
    return _Tabulation(_corner_tables(vhat.n, quad.points), sig_idx, hat)


# ---------------------------------------------------------------------------
# meshes


class Mesh:
    """The E cells of a mesh as arrays: cell e has the corner coefficients
    ints[e] / denom, ints (E, 2^n, n) int64 if below 2^53, else Python ints,
    and floats = ints / denom, correctly rounded.  keys are the Jacobian
    keys (as ``MultilinearMap.jacobian_key``) in the order of their first
    cell, and group[e] the index of cell e's key."""

    def __init__(self, n: int, family: str, denom: int, ints: np.ndarray):
        rows = np.full((len(ints), ints[0].size - n + 1), denom, dtype=ints.dtype)
        rows[:, :-1] = ints[:, 1:].reshape(len(ints), -1)
        rows //= np.gcd.reduce(rows, axis=1)[:, None]
        keys: dict[tuple[int, ...], int] = {}
        self.group = np.array([keys.setdefault(row, len(keys)) for row in map(tuple, rows.tolist())])
        self.keys = list(keys)
        self.n, self.family, self.denom, self.ints = n, family, denom, ints
        self.floats = np.asarray(ints / denom, dtype=np.float64)

    @property
    def size(self) -> int:
        return len(self.ints)

    def element(self, e: int) -> MultilinearMap:
        """The exact map of cell e, made on each call."""
        return MultilinearMap(self.n, dict(zip(_corners(self.n), self.ints[e].tolist())), self.denom)

    @property
    def elements(self) -> list[MultilinearMap]:
        return [self.element(e) for e in range(self.size)]


def _groups(mesh: Mesh) -> list[list[int]]:
    """The cell indices of each group of a mesh, the groups in the order of
    their first cell, the cells of a group in mesh order."""
    return [np.flatnonzero(mesh.group == g).tolist() for g in range(len(mesh.keys))]


def _validate_mesh(mesh: Mesh, expected_volume: Fraction) -> Mesh:
    """Prove every element orientation preserving (as check_diffeo does) and
    check that the exact element volumes add up to the domain's, with one
    exact map per Jacobian key.  Groups are proved in the order of their
    first cell, so the first bad cell is the one named."""
    total = Fraction(0)
    for idxs in _groups(mesh):
        coeffs, scale = _det_bernstein(mesh.element(idxs[0]))
        if not _bernstein_positive(coeffs, mesh.n):
            raise ValueError(f"element {idxs[0]} of {mesh.family} mesh is not orientation preserving")
        # Each tensor Bernstein polynomial integrates to 1 / (d+1)^n.
        total += Fraction(len(idxs) * sum(coeffs.values()), len(coeffs) * scale)
    if total != expected_volume:
        raise ValueError(f"{mesh.family} mesh does not tile: volume {float(total)}")
    return mesh


def _lattice_mesh(
    n: int, big_n: int, vertex: Callable, top: int, denom: int, family: str, volume: Fraction
) -> Mesh:
    """The N^n cells of the lattice {0..N}^n in product(range(N), repeat=n)
    order, cell c the multilinear map through vertex(c + alpha) / denom.
    vertex maps np.indices((N+1,)*n) to the integer points, |entries| <=
    top; cells' corners are slices of them, and one Moebius difference per
    axis makes coefficients, each at most 2^n top.  int64 converts to float
    exactly below 2^53; beyond, the same code runs on Python ints."""
    if big_n < 1:
        raise ValueError("need at least one subdivision")
    dtype = np.int64 if top << n < 2**53 and denom < 2**53 else object
    pts = np.moveaxis(vertex(np.indices((big_n + 1,) * n, dtype=dtype)), 0, -1)
    ints = np.stack(
        [pts[tuple(slice(a, a + big_n) for a in alpha)].reshape(-1, n) for alpha in _corners(n)],
        axis=1,
    )
    cube = ints.reshape((len(ints),) + (2,) * n + (n,))
    for axis in range(1, n + 1):
        cube[(slice(None),) * axis + (1,)] -= cube[(slice(None),) * axis + (0,)]
    return _validate_mesh(Mesh(n, family, denom, ints), volume)


def mesh_uniform(n: int, subdivisions: int) -> Mesh:
    big_n = subdivisions
    return _lattice_mesh(n, big_n, lambda idx: idx, big_n, big_n, "uniform", Fraction(1))


def mesh_parallelotope(n: int, subdivisions: int, shear: Sequence[Sequence[Scalar]]) -> Mesh:
    """Uniform mesh composed with the global affine map x -> (I + S) x."""
    s = [[Fraction(x) for x in row] for row in shear]
    if len(s) != n or any(len(r) != n for r in s):
        raise ValueError("shear matrix must be n x n")
    a = [[s[i][j] + (1 if i == j else 0) for j in range(n)] for i in range(n)]
    big_d = lcm(*(x.denominator for row in a for x in row))
    a_int = [[int(x * big_d) for x in row] for row in a]

    def vertex(idx):
        return np.stack([sum(aij * i for aij, i in zip(row, idx)) for row in a_int])

    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    global_map = MultilinearMap(n, dict(zip(units, zip(*a_int))), big_d)
    det = jacobian(global_map).det_poly.eval_exact((0,) * n)
    if det <= 0:
        raise ValueError("I + shear must have positive determinant")
    top = subdivisions * max(sum(map(abs, row)) for row in a_int)
    return _lattice_mesh(n, subdivisions, vertex, top, big_d * subdivisions, "parallelotope", det)


def _as_fraction(x: Scalar | float | str) -> Fraction:
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def _check_subdivisions(family: str, big_n: int) -> None:
    """Raise unless a family's meshes may have N = big_n subdivisions."""
    if family in ("trapezoidal", "trilinear3d") and (big_n < 2 or big_n % 2):
        raise ValueError(f"{family} meshes need an even N >= 2")


def _distorted_mesh(n: int, subdivisions: int, d: Scalar | float, family: str) -> Mesh:
    """The uniform lattice with each interior coordinate a >= 1 moved by
    +d/2 or -d/2 of a cell, the sign alternating with the parity of
    idx_0 + ... + idx_a; boundary coordinates stay put, so the domain is
    still the unit cube.  In 2D this gives trapezoids with vertical sides
    and oppositely slanted tops and bottoms, scale-invariant under
    refinement; in 3D the faces are non-planar, so elements are genuinely
    trilinear.  With d = p/q the points are integers over 2qN."""
    big_n = subdivisions
    dd = _as_fraction(d)
    _check_subdivisions(family, big_n)
    if not 0 <= dd < 1:
        raise ValueError("distortion must satisfy 0 <= d < 1")
    p, q = dd.numerator, dd.denominator

    def vertex(idx):
        out = 2 * q * idx
        sign = np.where(np.cumsum(idx, axis=0) % 2 == 0, p, -p)
        moved = (idx != 0) & (idx != big_n)
        out[1:] += np.where(moved[1:], sign[1:], 0)
        return out

    # Every coordinate is at most 2qN: an interior one, 2qi +- p, as p < q.
    denom = 2 * q * big_n
    return _lattice_mesh(n, big_n, vertex, denom, denom, family, Fraction(1))


def mesh_trapezoidal(subdivisions: int, d: Scalar | float) -> Mesh:
    """2D mesh of trapezoids (see _distorted_mesh); interior cells stay
    uniformly non-affine under refinement."""
    return _distorted_mesh(2, subdivisions, d, "trapezoidal")


def mesh_trilinear_3d(subdivisions: int, d: Scalar | float) -> Mesh:
    """3D analogue of the trapezoidal mesh with an alternating z-offset at
    interior vertices (see _distorted_mesh)."""
    return _distorted_mesh(3, subdivisions, d, "trilinear3d")


def build_mesh(
    family: str,
    n: int,
    subdivisions: int,
    d: Scalar | float = 0,
    shear: Sequence[Sequence[Scalar]] | None = None,
) -> Mesh:
    if family == "uniform":
        return mesh_uniform(n, subdivisions)
    if family == "parallelotope":
        if shear is None:
            shear = [[Fraction(0)] * n for _ in range(n)]
        return mesh_parallelotope(n, subdivisions, shear)
    if family == "trapezoidal":
        if n != 2:
            raise ValueError("trapezoidal meshes are 2D")
        return mesh_trapezoidal(subdivisions, d)
    if family == "trilinear3d":
        if n != 3:
            raise ValueError("trilinear meshes are 3D")
        return mesh_trilinear_3d(subdivisions, d)
    raise ValueError(f"unknown mesh family {family!r}")


# ---------------------------------------------------------------------------
# element projection


def default_quad_order(space: FormSpace, n: int) -> int:
    polys = [poly for f in space.basis for poly in f.components.values()]
    deg = max((e for poly in polys for exps in poly.ints for e in exps), default=0)
    return deg + (4 if n >= 3 else 6)


# Target values (points x components) per chunk of the batched element loop.
_CHUNK_VALUES = 4096


def _check_rule(n: int, quad: QuadratureRule) -> None:
    if quad.n != n:
        raise ValueError(f"quadrature rule is {quad.n}D but the element map is {n}D")


def _det_inv(coeffs_f: np.ndarray, columns: tuple):
    """det DF and DF^-1 of the map with float corner coefficients coeffs_f
    at the points the column tables were made for."""
    jacs = _kernels.jacobian_from_tables(coeffs_f, columns)
    dets, invs = _kernels.jacobian_det_inv(jacs)
    if not np.all(np.isfinite(dets)) or np.any(dets <= 0):
        raise NumericalError("Jacobian determinant not positive at quadrature points")
    return dets, invs


def _geometry(coeffs_f: np.ndarray, tab: _Tabulation, weights: np.ndarray) -> tuple:
    """(scale, a) of a cell with float corner coefficients coeffs_f:
    scale (P,) = sqrt(w det DF) at the quadrature points and a (P M, J) the
    pushed-forward basis weighted by scale."""
    dets, invs = _det_inv(coeffs_f, tab.corner_tables[1])
    scale = np.sqrt(weights * dets)
    pushed = _pushforward(tab.hat, tab.sig_idx, invs) * scale[:, None, None]
    p, m, j = pushed.shape
    return scale, pushed.reshape(p * m, j)


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


@cache
def _blas_threads_setter():
    """openblas_set_num_threads_local (set a count, return the previous
    one) of the OpenBLAS numpy's linalg extension links, or a no-op."""
    setter = getattr(ctypes.CDLL(_umath_linalg.__file__), "openblas_set_num_threads_local", None)
    if setter is None:
        return lambda count: count
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


@contextmanager
def _serial_blas():
    """Run the block with one OpenBLAS thread, then restore the count (per
    thread in OpenMP builds, per process in numpy's pthreads build).  The
    element solves are too small to share; results do not depend on it."""
    setter = _blas_threads_setter()
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)


# dgelsd's constants on IEEE doubles (LAPACK's dlamch): it solves unscaled
# when the largest entries of a and of y lie in [_SMLNUM, _BIGNUM], that is
# dlamch('S') / dlamch('P') and its inverse; dlalsd clamps d and splits the
# bidiagonal at _EPS = dlamch('E').
_EPS = float(np.finfo(np.float64).epsneg)
_SMLNUM = float(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)
_BIGNUM = 1 / _SMLNUM


@cache
def _lapack():
    """The LAPACK routines dgelsd is made of, ilaenv, and dgelsd itself (for
    its workspace query), of the scipy-openblas64 build numpy's linalg
    extension links: a namespace of ctypes functions, or None where it does
    not export them all.  They take Fortran arguments: pointers, INTEGER*8
    (ILP64), and the lengths of string arguments last, as size_t.  Callers
    pass every argument as a ctypes object of that type; argtypes are left
    undeclared, as their conversion would double the cost of the per-cell
    calls."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    names = ("dgeqrf", "dormqr", "dgebrd", "dormbr", "dlasdq", "dlasda", "dlalsa", "dgemm", "dgelsd")
    try:
        routines = {name: getattr(lib, f"scipy_{name}_64_") for name in names + ("ilaenv",)}
    except AttributeError:
        return None
    for routine in routines.values():
        routine.restype = None
    routines["ilaenv"].restype = ctypes.c_int64
    return SimpleNamespace(**routines)


def _refs(*values: int | float) -> list:
    """Fortran scalar arguments: a pointer to a fresh c_int64 (INTEGER*8)
    per int and to a fresh c_double per float."""
    return [
        ctypes.byref((ctypes.c_int64 if isinstance(v, int) else ctypes.c_double)(v)) for v in values
    ]


def _ptr(arr: np.ndarray, offset: int = 0) -> ctypes.c_void_p:
    """A raw pointer to entry offset of arr's buffer, which the caller keeps
    alive; an array's .ctypes would be converted again on every call."""
    return ctypes.c_void_p(arr.ctypes.data + offset * arr.itemsize)


def _rows(arr: np.ndarray, col: int) -> range:
    """The addresses of arr[c, col], c = 0, 1, ..."""
    return range(arr.ctypes.data + col * arr.itemsize, arr.ctypes.data + arr.nbytes, arr.strides[0])


def _checked(info: ctypes.c_int64, name: str) -> None:
    """Raise as np.linalg.lstsq does where an SVD did not converge (a
    positive info, which of these routines only dlasdq and dlasda return),
    and on an illegal argument (a negative one)."""
    if info.value > 0:
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    if info.value:
        raise NumericalError(f"{name} failed with info {info.value}")


def _ilaenv(ispec: int, m: int, j: int) -> int:
    """ilaenv(ispec, "DGELSD") for an (m, J) system with one right-hand side."""
    lengths = ctypes.c_size_t(6), ctypes.c_size_t(1)
    return _lapack().ilaenv(*_refs(ispec), b"DGELSD", b" ", *_refs(m, j, 1, -1), *lengths)


@cache
def _gelsd_workspace(m: int, j: int) -> int | None:
    """dgelsd's optimal LWORK for an (m, J) system with one right-hand side,
    which np.linalg.lstsq queries and passes; dgelsd hands its QR LWORK - J
    and the later stages LWORK - 3J.  The workspace decides between blocked
    and unblocked code, so with any other the bits differ.  None where
    dgelsd factors no QR first: its path 1a needs m >= J and
    m >= ilaenv(6, "DGELSD"), which is 1.6 J in reference LAPACK."""
    if m < max(j, _ilaenv(6, m, j)):
        return None
    query, iquery, dummy = np.empty(1), np.empty(1, dtype=np.int64), np.empty(1)
    # A workspace query reads no array but WORK and IWORK.
    _lapack().dgelsd(
        *_refs(m, j, 1), dummy.ctypes, *_refs(m), dummy.ctypes, *_refs(m), dummy.ctypes,
        *_refs(0.0, 0), query.ctypes, *_refs(-1), iquery.ctypes, *_refs(0),
    )
    return int(query[0])


class _StagedGelsd:
    """dgelsd on the design matrix a (m, J) of a Jacobian key, one
    right-hand side per cell, run by its own stages (LAPACK Users' Guide,
    3rd ed., 1999: dgelsd, dlalsd, dlasda).  On its path 1a, with nothing
    to scale, dgelsd runs dgeqrf, a = QR; dormqr, Q^T y; dgebrd, R =
    Q_B B P_B^T with B upper bidiagonal (diagonal d, superdiagonal e);
    dormbr('Q'); dlalsd on B; dormbr('P').  dlalsd scales B to largest
    entry 1; for J > SMLSIZ (ilaenv(9, "DGELSD") = 25) it raises each
    |d_i| < eps to eps and splits B where |e_i| < eps.  A subproblem of
    size 2..SMLSIZ gets dlasdq (its singular values and rotations VT, the
    right-hand sides rotated alike), a larger one dlasda (its
    divide-and-conquer tree) and dlalsa.  The right-hand sides are divided
    by the singular values, those at most rcond times the largest dropped,
    and VT^T (dgemm) or dlalsa applied again.

    What reads a alone runs here, once per key: dgeqrf, dgebrd, dlalsd's
    preamble, each subproblem's dlasdq or dlasda, and so rank and singular
    values.  solve() runs the rest: per chunk one dlasdq per small
    subproblem with the chunk's right-hand sides as its NCC columns, on
    fresh copies of the preamble's d and e (dbdsqr rotates each column
    alone, so each gets the bits of NRHS = 1); per cell, as dgelsd calls
    them with NRHS = 1, dormqr, dormbr('Q'), dlalsa or dgemm per
    subproblem and dormbr('P'); and the scalings as b * (1/d), the product
    dlascl makes at these magnitudes.  Each stage gets dgelsd's workspace,
    so every bit is that of np.linalg.lstsq.  J >= 2: for J = 1 there is
    no bidiagonal SVD to share."""

    def __init__(self, lapack, a: np.ndarray, lwork: int):
        m, j = a.shape
        self.lapack, self.j, self.info = lapack, j, ctypes.c_int64()
        info, one = ctypes.byref(self.info), ctypes.c_size_t(1)
        # The buffers the calls point at live as long as the object.  dormqr
        # and dormbr set each diagonal entry of qr and brd to 1, then restore it.
        self.work, self.iwork = np.empty(lwork), np.empty(8 * j, dtype=np.int64)
        self.qr, self.brd = np.array(a, order="F"), np.empty((j, j), order="F")
        self.vectors = d, e, tau, tauq, taup = np.zeros((5, j))
        qr, brd, work = _ptr(self.qr), _ptr(self.brd), _ptr(self.work)
        lapack.dgeqrf(*_refs(m, j), qr, *_refs(m), _ptr(tau), work, *_refs(lwork - j), info)
        _checked(self.info, "dgeqrf")
        self.brd[:] = np.triu(self.qr[:j])
        lapack.dgebrd(
            *_refs(j, j), brd, *_refs(j), _ptr(d), _ptr(e), _ptr(tauq), _ptr(taup), work,
            *_refs(lwork - 3 * j), info,
        )
        _checked(self.info, "dgebrd")
        # Per cell, row points into row c of the right-hand sides b and row2
        # into row c of dlalsd's scratch bx, both (cells, J): each row is one
        # Fortran column.
        self.row, self.row2 = ctypes.c_void_p(), ctypes.c_void_p()
        self.qt_args = (
            b"L", b"T", *_refs(m, 1, j), qr, *_refs(m), _ptr(tau), self.row, *_refs(m), work,
            *_refs(lwork - j), info, one, one,
        )
        self.q_args, self.p_args = (
            (vect, b"L", trans, *_refs(j, 1, j), brd, *_refs(j), _ptr(taus), self.row, *_refs(j),
             work, *_refs(lwork - 3 * j), info, one, one, one)
            for vect, trans, taus in ((b"Q", b"T", tauq), (b"P", b"N", taup))
        )
        # dlalsd's steps on B that read no right-hand side; e has room for J
        # entries, as in dgelsd's workspace, the last 0 and unused.
        smlsiz = self.smlsiz = _ilaenv(9, 0, 0)
        norm = max(np.max(np.abs(d)), np.max(np.abs(e)))
        d, e = d * (1 / norm), e * (1 / norm)
        edges = [0, j]
        if j > smlsiz:
            d = np.where(np.abs(d) < _EPS, np.copysign(_EPS, d), d)
            edges[1:1] = (np.flatnonzero(np.abs(e[: j - 1]) < _EPS) + 1).tolist()
        self.d0, self.e0 = d.copy(), e.copy()
        # dlasda's tree, Fortran arrays with leading dimension J: U, K, DIFL,
        # DIFR, Z, POLES, GIVPTR, GIVCOL, PERM, GIVNUM, C and S, INTEGER*8
        # and DOUBLE alike as 8-byte words of one buffer.  VT is shared with
        # dlasdq's subproblems, as in dlalsd.
        nlvl = max(1, int(log(j / (smlsiz + 1)) / log(2)) + 1)
        widths = (smlsiz, 1, nlvl, 2 * nlvl, nlvl, 2 * nlvl, 1, 2 * nlvl, nlvl, 2 * nlvl, 1, 1)
        self.tree, self.vt = np.zeros((sum(widths), j)), np.zeros((smlsiz + 1, j))
        starts = (np.cumsum((0,) + widths[:-1]) * j).tolist()
        ld, iwork = _refs(j)[0], _ptr(self.iwork)
        self.parts = []
        for st, ns in zip(edges[:-1], np.diff(edges).tolist()):
            vt = _ptr(self.vt, st)
            if ns == 1:
                args = None
            elif ns <= smlsiz:
                self.vt[:ns, st : st + ns] = np.eye(ns)
                lapack.dlasdq(
                    b"U", *_refs(0, ns, ns, 0, 0), _ptr(d, st), _ptr(e, st), vt, ld, work,
                    *_refs(1), work, *_refs(1), work, info, one,
                )
                _checked(self.info, "dlasdq")
                args = (
                    b"T", b"N", *_refs(ns, 1, ns, 1.0), vt, ld, self.row2, ld, *_refs(0.0),
                    self.row, ld, one, one,
                )
            else:
                u, k, difl, difr, z, poles, givptr, givcol, perm, givnum, c, s = (
                    _ptr(self.tree, start + st) for start in starts
                )
                tree = (
                    u, ld, vt, k, difl, difr, z, poles, givptr, givcol, ld, perm, givnum, c, s,
                    work, iwork, info,
                )
                lapack.dlasda(*_refs(1, smlsiz, ns, 0), _ptr(d, st), _ptr(e, st), *tree)
                _checked(self.info, "dlasda")
                args = [
                    (*_refs(icompq, smlsiz, ns, 1), src, ld, dst, ld, *tree)
                    for icompq, src, dst in ((0, self.row, self.row2), (1, self.row2, self.row))
                ]
            self.parts.append((st, ns, args))
        self.keep = np.abs(d) > np.finfo(np.float64).eps * m * np.max(np.abs(d))
        self.inv = 1 / np.where(self.keep, d, 1)
        self.rank = int(np.count_nonzero(self.keep))
        # dlalsd's last dlascl of d and its dlasrt('D').
        self.sv = np.sort(np.abs(d) * norm)[::-1]
        self.norm_inv = 1 / norm

    def _per_cell(self, routine, args, b: np.ndarray, col: int = 0, bx=None) -> None:
        """routine(*args) once per cell c, with row at b[c, col] and, if bx
        is given, row2 at bx[c, col]."""
        row, row2 = self.row, self.row2
        if bx is None:
            for row.value in _rows(b, col):
                routine(*args)
        else:
            for row.value, row2.value in zip(_rows(b, col), _rows(bx, col)):
                routine(*args)
        _checked(self.info, routine.__name__)

    def solve(self, y: np.ndarray) -> np.ndarray | None:
        """The fits (cells, J) for the rows of y (cells, m), or None where
        dgelsd would first scale a row: its largest entry is in (0, _SMLNUM)
        or above _BIGNUM."""
        bnrm = np.max(np.abs(y), axis=1)
        if np.any((bnrm > 0) & (bnrm < _SMLNUM) | (bnrm > _BIGNUM)):
            return None
        lapack, j = self.lapack, self.j
        qty = np.array(y, order="C")
        self._per_cell(lapack.dormqr, self.qt_args, qty)
        b = qty[:, :j].copy()
        self._per_cell(lapack.dormbr, self.q_args, b)
        bx = np.zeros_like(b)
        for st, ns, args in self.parts:
            if ns > self.smlsiz:
                self._per_cell(lapack.dlalsa, args[0], b, st, bx)
                continue
            if ns > 1:
                d, e = self.d0[st : st + ns].copy(), self.e0[st : st + ns].copy()
                work = _ptr(self.work)
                lapack.dlasdq(
                    b"U", *_refs(0, ns, 0, 0, len(b)), _ptr(d), _ptr(e), work, *_refs(1), work,
                    *_refs(1), _ptr(b, st), *_refs(j), work, ctypes.byref(self.info),
                    ctypes.c_size_t(1),
                )
                _checked(self.info, "dlasdq")
            bx[:, st : st + ns] = b[:, st : st + ns]
        bx *= self.inv
        bx[:, ~self.keep] = 0
        for st, ns, args in self.parts:
            if ns == 1:
                b[:, st] = bx[:, st]
            elif ns <= self.smlsiz:
                self._per_cell(lapack.dgemm, args, b, st, bx)
            else:
                self._per_cell(lapack.dlalsa, args[1], b, st, bx)
        b *= self.norm_inv
        self._per_cell(lapack.dormbr, self.p_args, b)
        return b


def _staged(a: np.ndarray) -> _StagedGelsd | None:
    """dgelsd on a (m, J) by stages, or None where there is no bidiagonal
    SVD to share (J < 2) or dgelsd would take another path: numpy's LAPACK
    is out of reach, dgelsd factors no QR first, or it would first scale
    a, whose largest entry is outside [_SMLNUM, _BIGNUM]."""
    lapack = _lapack()
    lwork = None if lapack is None or a.shape[1] < 2 else _gelsd_workspace(*a.shape)
    if lwork is None or not _SMLNUM <= np.max(np.abs(a)) <= _BIGNUM:
        return None
    return _StagedGelsd(lapack, a, lwork)


def _lstsq(a: np.ndarray, y: np.ndarray, staged: _StagedGelsd | None) -> tuple:
    """(fits (cells, J), rank, singular values) of dgelsd on a and each row
    of y, with np.linalg.lstsq's rcond: by stages where staged applies, else
    by one call of the gufunc behind np.linalg.lstsq, one dgelsd per row."""
    sol = None if staged is None else staged.solve(y)
    if sol is not None:
        return sol, staged.rank, staged.sv
    with np.errstate(all="ignore", invalid="call", call=_lstsq_failed):
        sol, _, rank, sv = _gelsd(
            np.broadcast_to(a, (len(y),) + a.shape),
            y[:, :, None],
            np.finfo(np.float64).eps * max(a.shape),
            signature="ddd->ddid",
        )
    return sol[:, :, 0], rank.min(), sv[0]


def _cell_errors(
    floats: np.ndarray, tab: _Tabulation, target: TargetForm, quad: QuadratureRule
) -> tuple[np.ndarray, float | None]:
    """Broken L2 distances (E,) from the target to the mapped reference
    space, tabulated by tab on quad, on E cells of one Jacobian key with
    float corner coefficients floats (E, 2^n, n), by weighted least squares
    over the quadrature points, and sv[0]/sv[-1] of the key's design matrix
    (None if J = 0).  The design matrix a and its _StagedGelsd are made
    once, from the first cell.  Per chunk of cells, one broadcast matmul
    (per cell the (P, C) @ (C, n) product of a single cell) gives
    x = F(xref), one target call y, and _lstsq the fits with the bits of
    np.linalg.lstsq: dgelsd's stages on (a, y), or for J = 1 and where
    dgelsd would take another path the gufunc behind np.linalg.lstsq.
    Rank and singular values depend on the design matrix alone.  The
    caller checks that target, tab and cells agree; any k <= n runs."""
    nbasis = len(tab.hat)
    errs = np.empty(len(floats))
    cond = None
    with _serial_blas():
        scale, a = _geometry(floats[0], tab, quad.weights)
        staged = _staged(a)
        npts = len(scale)
        step = max(1, _CHUNK_VALUES // (npts * len(tab.sig_idx)))
        for start in range(0, len(floats), step):
            xphys = np.matmul(tab.corner_tables[0], floats[start : start + step])
            cells = len(xphys)
            uvals = target.values(xphys.reshape(cells * npts, -1), np.tile(quad.points, (cells, 1)))
            y = (uvals.reshape(cells, npts, -1) * scale[:, None]).reshape(cells, -1)
            if nbasis:
                sol, rank, sv = _lstsq(a, y, staged)
                cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
                if rank < nbasis:
                    raise NumericalError(
                        f"rank-deficient evaluation matrix (rank {rank} < {nbasis}, "
                        f"cond {cond:.3e}); quadrature may be too coarse"
                    )
                y = y - np.matmul(a, sol[:, :, None])[:, :, 0]
            errs[start : start + cells] = np.sqrt(np.vecdot(y, y))
    return errs, cond


def element_l2_error(
    fmap: MultilinearMap, vhat: FormSpace, target: TargetForm, quad: QuadratureRule
) -> float:
    """Broken L2 distance from the target to the mapped reference space on
    one element: the E = 1 case of _cell_errors, on a tabulation made for
    this call once rule, target and map are checked against vhat."""
    _check_rule(vhat.n, quad)
    if (target.n, target.k) != (vhat.n, vhat.k):
        raise ValueError("target and space live on different (n, k)")
    if fmap.n != vhat.n:
        raise ValueError("element map dimension mismatch")
    errs, _ = _cell_errors(fmap.float_arrays()[None], _tabulation(vhat, quad), target, quad)
    return float(errs[0])


# ---------------------------------------------------------------------------
# convergence studies


@dataclass
class ConvergenceReport:
    family: str
    space_label: str
    n: int
    k: int
    target_label: str
    quad_order: int
    subdivisions: list[int]
    errors: list[float]
    prediction: RatePrediction
    # Per level, the worst sv[0]/sv[-1] of a design matrix (None if J = 0).
    ls_conds: list[float | None]

    @property
    def rate_pairs(self) -> list[float | None]:
        levels = list(zip(self.subdivisions, self.errors))
        return [None] + [
            None if e0 <= 0 or e1 <= 0 else log(e0 / e1) / log(n1 / n0)
            for (n0, e0), (n1, e1) in zip(levels, levels[1:])
        ]

    @property
    def rate_lsq(self) -> float | None:
        pts = [(log(nn), log(e)) for nn, e in zip(self.subdivisions, self.errors) if e > 0][-3:]
        if len(pts) < 2:
            return None
        xs, ys = np.array(pts).T
        return float(-np.polyfit(xs, ys, 1)[0])

    @property
    def last_pair_rate(self) -> float | None:
        return self.rate_pairs[-1] if len(self.subdivisions) > 1 else None

    @property
    def predicted_rate(self) -> int:
        """s_affine on the affine families (uniform, parallelotope), else s_multilinear."""
        affine = self.family in ("uniform", "parallelotope")
        return self.prediction.s_affine if affine else self.prediction.s_multilinear


def _mesh_error(
    mesh: Mesh, tab: _Tabulation, target: TargetForm, quad: QuadratureRule
) -> tuple[float, float | None]:
    """Root sum of squares of the element errors, summed in mesh order,
    and the groups' worst sv[0]/sv[-1].  The cells of each group go to
    _cell_errors together, so each group's design matrix is computed once
    and only one is held at a time.  Every NumericalError depends on the
    geometry alone, so it is raised at the first cell of a group, and as
    groups come in the order of their first cell, it names the first bad
    element in mesh order."""
    errs = np.empty(mesh.size)
    conds = []
    for idxs in _groups(mesh):
        try:
            errs[idxs], cond = _cell_errors(mesh.floats[idxs], tab, target, quad)
        except NumericalError as exc:
            raise NumericalError(f"element {idxs[0]}: {exc}") from exc
        conds.append(cond)
    return float(np.sqrt(np.sum(errs * errs))), max(conds) if len(tab.hat) else None


def convergence_study(
    vhat: FormSpace,
    target: TargetForm,
    family: str,
    subdivision_list: Sequence[int],
    d: Scalar | float = 0,
    shear: Sequence[Sequence[Scalar]] | None = None,
    quad_order: int | None = None,
) -> ConvergenceReport:
    """Run the h-refinement study of the broken L2 projection error, with
    the target's (n, k) and every level's N checked and the rates predicted
    before any mesh is built, and the reference element tabulated once."""
    if (target.n, target.k) != (vhat.n, vhat.k):
        raise ValueError("target and space live on different (n, k)")
    subdivision_list = list(subdivision_list)
    if not subdivision_list:
        raise ValueError("need at least one subdivision level")
    if subdivision_list != sorted(set(subdivision_list)):
        raise ValueError("subdivision list must be strictly increasing")
    for big_n in subdivision_list:
        _check_subdivisions(family, big_n)
    prediction = predict_rates(vhat)
    n = vhat.n
    q = quad_order if quad_order is not None else default_quad_order(vhat, n)
    quad = gauss_rule(n, q)
    tab = _tabulation(vhat, quad)
    levels = [
        _mesh_error(build_mesh(family, n, big_n, d=d, shear=shear), tab, target, quad)
        for big_n in subdivision_list
    ]
    errors, conds = map(list, zip(*levels))
    return ConvergenceReport(
        family, vhat.label, n, vhat.k, target.label, q, subdivision_list, errors, prediction, conds
    )
