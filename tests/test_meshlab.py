import contextlib
import gc
import json
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import cubeforms
from conftest import vertex_strategy
from cubeforms import _kernels, meshlab
from cubeforms.cli import bundled_config_names, bundled_config_path, parse_config
from cubeforms.forms import DiffForm, Polynomial, l2_inner_reference
from cubeforms.mapping import _corners, check_diffeo, jacobian, map_from_vertices
from cubeforms.meshlab import (
    Mesh,
    NumericalError,
    _float_view,
    _validate_mesh,
    build_mesh,
    convergence_study,
    default_quad_order,
    element_l2_error,
    gauss_rule,
    mesh_parallelotope,
    mesh_trapezoidal,
    mesh_trilinear_3d,
    mesh_uniform,
    target_from_form,
    target_trig,
)
from cubeforms.mapping import MultilinearMap
from cubeforms.spaces import build_P, build_Qminus
from cubeforms.verify import random_rational_multilinear
from oracles import discrete_l2_pairing, exact_l2_pairing, target_from_reference

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
# The relative tolerance perfbench/workloads.py applies to golden errors.
GOLDEN_RTOL = 1e-12

SHEAR_2D = [[0, Fraction(1, 2)], [Fraction(-1, 3), 0]]
SHEAR_3D = [
    [0, Fraction(1, 4), Fraction(-1, 3)],
    [Fraction(1, 5), 0, Fraction(1, 2)],
    [Fraction(-1, 6), Fraction(1, 7), 0],
]
# S_12 = 1/5 and S_34 = 1/7.
SHEAR_4D = [[0, Fraction(1, 5), 0, 0], [0] * 4, [0, 0, 0, Fraction(1, 7)], [0] * 4]


def mesh_of(maps, family):
    """The maps as one Mesh: their ints stacked over the lcm of their
    denominators, as Python ints."""
    n = maps[0].n
    denom = lcm(*(el.denom for el in maps))
    ints = np.array(
        [[[c * (denom // el.denom) for c in el.ints[a]] for a in _corners(n)] for el in maps],
        dtype=object,
    )
    return Mesh(n, family, denom, ints)


def _mesh_error(mesh, space, target, quad):
    """meshlab._mesh_error on the tabulation of space on quad."""
    return meshlab._mesh_error(mesh, meshlab._tabulation(space, quad), target, quad)


def trapezoid_map(d=Fraction(1, 2)):
    return map_from_vertices(
        {(0, 0): (0, 0), (1, 0): (1, 0), (0, 1): (0, 1 - d), (1, 1): (1, 1 + d)}
    )


class TestGaussRule:
    def test_midpoint(self):
        rule = gauss_rule(1, 1)
        assert rule.points[0, 0] == pytest.approx(0.5)
        assert rule.weights[0] == pytest.approx(1.0)

    def test_cubic_exactness(self):
        rule = gauss_rule(1, 2)
        assert float(np.sum(rule.weights * rule.points[:, 0] ** 3)) == pytest.approx(0.25)

    @pytest.mark.parametrize("n,q", [(1, 3), (2, 4), (3, 3)])
    def test_weights_sum_to_one(self, n, q):
        rule = gauss_rule(n, q)
        assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-14)

    def test_matches_exact_integral_on_q5(self, rng):
        # per-variable degree 5 integrand needs only q = 3
        poly = Polynomial.zero(2)
        for _ in range(6):
            exps = (rng.randint(0, 5), rng.randint(0, 5))
            poly = poly + Polynomial.monomial(2, exps, Fraction(rng.randint(-3, 3), 2))
        rule = gauss_rule(2, 3)
        vals = np.zeros(len(rule.weights))
        for exps, c in poly.terms.items():
            vals += float(c) * np.prod(rule.points ** np.array(exps), axis=1)
        assert float(np.sum(rule.weights * vals)) == pytest.approx(
            float(poly.integral_box()), abs=1e-13
        )

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            gauss_rule(2, 0)
        with pytest.raises(ValueError):
            gauss_rule(2, 21)


class TestMeshes:
    def test_uniform_single_element(self):
        mesh = mesh_uniform(2, 1)
        assert mesh.size == 1
        assert mesh.elements[0].coeffs == MultilinearMap.identity(2).coeffs

    def test_uniform_subdivided(self):
        mesh = mesh_uniform(2, 2)
        assert mesh.size == 4
        for el in mesh.elements:
            det = jacobian(el).det_poly
            assert det == Polynomial.constant(2, Fraction(1, 4))

    def test_parallelotope(self):
        mesh = mesh_parallelotope(2, 2, [[0, Fraction(1, 2)], [0, 0]])
        assert mesh.size == 4
        assert all(el.is_affine for el in mesh.elements)

    @pytest.mark.parametrize(
        "shear",
        [
            [[0, Fraction(1, 2)], [Fraction(-1, 3), 0]],
            [
                [0, Fraction(1, 4), Fraction(-1, 3)],
                [Fraction(1, 5), 0, Fraction(1, 2)],
                [Fraction(-1, 6), Fraction(1, 7), 0],
            ],
        ],
    )
    def test_parallelotope_vertices(self, shear):
        n = len(shear)
        a = [[Fraction(shear[i][j]) + (1 if i == j else 0) for j in range(n)] for i in range(n)]
        mesh = mesh_parallelotope(n, 2, shear)
        base = mesh_uniform(n, 2)
        assert mesh.size == base.size
        for el, ref in zip(mesh.elements, base.elements):
            for alpha in product((0, 1), repeat=n):
                v = ref.eval_exact(alpha)
                want = tuple(sum(a[i][j] * v[j] for j in range(n)) for i in range(n))
                assert el.eval_exact(alpha) == want

    def test_parallelotope_invalid_shear(self):
        with pytest.raises(ValueError, match=r"I \+ shear must have positive determinant"):
            mesh_parallelotope(2, 2, [[-1, 0], [0, -1]])

    @pytest.mark.parametrize(
        "shear",
        [[[-2, 0], [0, 0]], [[-1, 1], [1, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, Fraction(-3, 2)]]],
    )
    def test_parallelotope_reflecting_shear(self, shear):
        with pytest.raises(ValueError, match=r"I \+ shear must have positive determinant"):
            mesh_parallelotope(len(shear), 2, shear)

    @pytest.mark.parametrize("shear", [[[0, 1]], [[0, 0], [0]], [[0, 0, 0], [0, 0, 0]]])
    def test_parallelotope_shear_not_square(self, shear):
        with pytest.raises(ValueError, match="shear matrix must be n x n"):
            mesh_parallelotope(2, 2, shear)

    def test_validate_rejects_folded_element(self, screen_counterexample):
        base = mesh_uniform(3, 2)
        mesh = mesh_of([screen_counterexample] + base.elements[1:], "uniform")
        with pytest.raises(ValueError, match="element 0 of uniform mesh is not orientation preserving"):
            _validate_mesh(mesh, Fraction(1))

    def test_validate_rejects_gap(self):
        base = mesh_uniform(2, 4)
        mesh = mesh_of(base.elements[:-1], "uniform")
        with pytest.raises(ValueError, match="does not tile: volume 0.9375"):
            _validate_mesh(mesh, Fraction(1))

    def test_validate_rejects_tiny_gap(self):
        # The last cell's (1,1) corner pulled in by 1e-12: volume 1 - 2.5e-13.
        base = mesh_uniform(2, 2)
        half = Fraction(1, 2)
        last = map_from_vertices(
            {
                (0, 0): (half, half),
                (1, 0): (1, half),
                (0, 1): (half, 1),
                (1, 1): (1, 1 - Fraction(1, 10**12)),
            }
        )
        mesh = mesh_of(base.elements[:-1] + [last], "uniform")
        with pytest.raises(ValueError, match=r"does not tile: volume 0\.99999999999975$"):
            _validate_mesh(mesh, Fraction(1))

    def test_trapezoid_d0_is_uniform(self):
        flat = mesh_trapezoidal(2, 0)
        uni = mesh_uniform(2, 2)
        for a, b in zip(flat.elements, uni.elements):
            assert a.coeffs == b.coeffs

    def test_trapezoid_interior_heights(self):
        mesh = mesh_trapezoidal(2, 0.5)
        ys = {
            el.eval_exact((0, 1))[1] for el in mesh.elements
        } | {el.eval_exact((1, 1))[1] for el in mesh.elements}
        assert Fraction(5, 8) in ys and Fraction(3, 8) in ys

    def test_trapezoid_strong_distortion_valid(self):
        mesh = mesh_trapezoidal(4, 0.9)
        assert mesh.size == 16

    def test_trapezoid_preconditions(self):
        with pytest.raises(ValueError):
            mesh_trapezoidal(3, 0.3)
        with pytest.raises(ValueError):
            mesh_trapezoidal(4, 1.0)

    def test_trilinear_d0_is_uniform(self):
        flat = mesh_trilinear_3d(2, 0)
        uni = mesh_uniform(3, 2)
        for a, b in zip(flat.elements, uni.elements):
            assert a.coeffs == b.coeffs

    def test_trilinear_interior_vertex_offset(self):
        mesh = mesh_trilinear_3d(2, 0.4)
        zs = {el.eval_exact((1, 1, 1))[2] for el in mesh.elements}
        assert Fraction(2, 5) in zs  # (1 - 0.2) / 2, displaced by 0.1

    def test_trilinear_volume(self):
        # tiling is checked exactly inside the builder; spot-check one det
        mesh = mesh_trilinear_3d(2, 0.4)
        total = sum(
            jacobian(el).det_poly.integral_box(1) for el in mesh.elements
        )
        assert total == 1


class TestConformity:
    """Cells sharing a lattice point map it to the same exact point, so they
    also agree on shared faces: a multilinear map restricted to a face is
    fixed by the face's corners.  Cells are listed in the order of
    product(range(N), repeat=n)."""

    @pytest.mark.parametrize("big_n", [2, 4])
    @pytest.mark.parametrize(
        "family,n,kw",
        [
            ("uniform", 2, {}),
            ("uniform", 3, {}),
            ("parallelotope", 2, {"shear": SHEAR_2D}),
            ("parallelotope", 3, {"shear": SHEAR_3D}),
            ("trapezoidal", 2, {"d": Fraction(3, 10)}),
            ("trilinear3d", 3, {"d": Fraction(3, 10)}),
        ],
        ids=[
            "uniform-2d",
            "uniform-3d",
            "parallelotope-2d",
            "parallelotope-3d",
            "trapezoidal",
            "trilinear3d",
        ],
    )
    def test_shared_vertices_agree(self, family, n, kw, big_n):
        mesh = build_mesh(family, n, big_n, **kw)
        cells = list(product(range(big_n), repeat=n))
        assert mesh.size == len(cells)
        images: dict[tuple[int, ...], set] = {}
        for cell, el in zip(cells, mesh.elements):
            for alpha in product((0, 1), repeat=n):
                idx = tuple(c + a for c, a in zip(cell, alpha))
                images.setdefault(idx, set()).add(el.eval_exact(alpha))
        assert len(images) == (big_n + 1) ** n
        assert all(len(pts) == 1 for pts in images.values())
        points = {idx: next(iter(pts)) for idx, pts in images.items()}
        assert len(set(points.values())) == len(points)
        if family != "parallelotope":
            # Lattice points on a face of {0..N}^n stay on that face of the cube.
            for idx, x in points.items():
                for i, xi in zip(idx, x):
                    if i in (0, big_n):
                        assert xi == Fraction(i, big_n)


def textbook_map(n, points, denom):
    """The multilinear map through the integer corner positions
    points[beta] / denom, each coefficient by inclusion-exclusion: c_alpha
    = sum over the sub-corners beta <= alpha of (-1)^|alpha - beta|
    points[beta]."""
    ints = {}
    for alpha in _corners(n):
        subs = [beta for beta in _corners(n) if all(b <= a for b, a in zip(beta, alpha))]
        ints[alpha] = [
            sum((-1) ** (sum(alpha) - sum(beta)) * points[beta][i] for beta in subs)
            for i in range(n)
        ]
    return MultilinearMap(n, ints, denom)


def per_cell_oracle(family, n, big_n, d=0, shear=None):
    """The cells as a per-cell construction makes them: every lattice point
    placed by the family's rule in Python ints, and each cell's map made by
    textbook_map from its corners, cells in product(range(N), repeat=n)
    order."""
    if family == "parallelotope":
        a = [[Fraction(x) + (i == j) for j, x in enumerate(row)] for i, row in enumerate(shear)]
        big_d = lcm(*(x.denominator for row in a for x in row))
        denom = big_d * big_n

        def vertex(idx):
            return [sum(int(aij * big_d) * i for aij, i in zip(row, idx)) for row in a]

    elif family in ("trapezoidal", "trilinear3d"):
        dd = Fraction(d)
        p, q = dd.numerator, dd.denominator
        denom = 2 * q * big_n

        def vertex(idx):
            out = [2 * q * i for i in idx]
            for ax in range(1, n):
                if idx[ax] not in (0, big_n):
                    out[ax] += p if sum(idx[: ax + 1]) % 2 == 0 else -p
            return out

    else:
        denom = big_n

        def vertex(idx):
            return list(idx)

    cells = product(range(big_n), repeat=n)
    return [
        textbook_map(
            n, {al: vertex([c + a for c, a in zip(cell, al)]) for al in _corners(n)}, denom
        )
        for cell in cells
    ]


def oracle_groups(cells):
    """The cell indices grouped by exact Jacobian, the groups in the order
    of their first cell."""
    dfs, groups = [], []
    for idx, el in enumerate(cells):
        df = jacobian(el).entries
        if df in dfs:
            groups[dfs.index(df)].append(idx)
        else:
            dfs.append(df)
            groups.append([idx])
    return groups


def assert_same_cells(mesh, cells):
    assert mesh.size == len(cells)
    for el, want in zip(mesh.elements, cells):
        assert (el.ints, el.denom) == (want.ints, want.denom)
    assert mesh.groups == oracle_groups(cells)


class TestLatticeArrays:
    """A mesh is built as integer arrays: lattice points by numpy rules,
    corners by slicing, coefficients by one Moebius difference per axis,
    keys and groups by one dict over the coefficient rows.  Its
    materialised maps and groups must be those of the per-cell
    construction."""

    # The meshes of the first two levels of the bundled configs, and a 3D shear.
    @pytest.mark.parametrize(
        "family,n,levels,kw",
        [
            ("uniform", 2, (4, 8), {}),
            ("uniform", 3, (2, 4), {}),
            ("parallelotope", 2, (4, 8), {"shear": [[0, Fraction(1, 2)], [0, 0]]}),
            ("parallelotope", 3, (2, 4), {"shear": SHEAR_3D}),
            ("trapezoidal", 2, (4, 8), {"d": Fraction(3, 10)}),
            ("trilinear3d", 3, (2, 4), {"d": Fraction(3, 10)}),
        ],
        ids=["uniform-2d", "uniform-3d", "parallelotope-2d", "parallelotope-3d",
             "trapezoidal", "trilinear3d"],
    )
    def test_equals_per_cell_construction(self, family, n, levels, kw):
        for big_n in levels:
            mesh = build_mesh(family, n, big_n, **kw)
            assert mesh.ints.dtype == np.int64
            assert_same_cells(mesh, per_cell_oracle(family, n, big_n, **kw))
            assert np.array_equal(mesh.floats, np.array([el.float_arrays() for el in mesh.elements]))

    # Denominators beyond 2^40 whose lcm leaves the int64 range, so the
    # lattice is built in Python ints (object arrays).
    @pytest.mark.parametrize(
        "family,n,kw",
        [
            ("parallelotope", 2, {"shear": [[0, Fraction(1, 2**41 + 1)], [Fraction(-1, 2**43 + 3), 0]]}),
            (
                "parallelotope",
                3,
                {
                    "shear": [
                        [0, Fraction(1, 2**41 + 1), 0],
                        [0, 0, Fraction(3, 2**42 + 5)],
                        [Fraction(-1, 2**40 + 7), 0, 0],
                    ]
                },
            ),
            ("trapezoidal", 2, {"d": Fraction(1, 2**61 - 1)}),
        ],
        ids=["parallelotope-2d", "parallelotope-3d", "trapezoidal"],
    )
    def test_big_integers(self, family, n, kw):
        big_n = 4
        mesh = build_mesh(family, n, big_n, **kw)
        assert mesh.ints.dtype == object and mesh.denom >= 2**53
        cells = per_cell_oracle(family, n, big_n, **kw)
        assert_same_cells(mesh, cells)
        assert np.array_equal(mesh.floats, np.array([el.float_arrays() for el in cells]))
        space, target = build_Qminus(1, 1, n), target_trig(n, 1)
        quad = gauss_rule(n, 3)
        errs = np.array([element_l2_error(el, space, target, quad) for el in cells])
        got, _ = _mesh_error(mesh, space, target, quad)
        assert math.isfinite(got) and got > 0
        assert got == float(np.sqrt(np.sum(errs * errs)))


class TestSharedProof:
    """_validate_mesh proves det DF > 0 once per distinct Jacobian: cells
    whose non-constant corner coefficients agree in lowest terms."""

    @pytest.fixture
    def proofs(self, monkeypatch):
        calls = []
        original = meshlab._det_bernstein

        def counted(fmap):
            calls.append(fmap)
            return original(fmap)

        monkeypatch.setattr(meshlab, "_det_bernstein", counted)
        return calls

    @pytest.mark.parametrize(
        "family,n,kw,levels,want",
        [
            ("uniform", 2, {}, (4, 8), 1),
            ("uniform", 3, {}, (2, 4), 1),
            ("parallelotope", 2, {"shear": SHEAR_2D}, (4, 8), 1),
            ("parallelotope", 3, {"shear": SHEAR_3D}, (2, 4), 1),
            ("trapezoidal", 2, {"d": Fraction(3, 10)}, (4, 8), 6),
            ("trilinear3d", 3, {"d": Fraction(3, 10)}, (4, 6), 24),
        ],
        ids=["uniform-2d", "uniform-3d", "parallelotope-2d", "parallelotope-3d",
             "trapezoidal", "trilinear3d"],
    )
    def test_one_proof_per_distinct_jacobian(self, proofs, family, n, kw, levels, want):
        for big_n in levels:
            proofs.clear()
            build_mesh(family, n, big_n, **kw)
            assert len(proofs) == want, big_n

    @staticmethod
    def _one_coefficient_changed(el, alpha, i):
        """el with coefficient i of corner monomial alpha set to the first
        value c in -8..8 that makes the map fail check_diffeo."""
        for c in sorted(range(-8, 9), key=abs):
            ints = {a: list(vec) for a, vec in el.ints.items()}
            ints[alpha][i] = c * el.denom
            bad = MultilinearMap(el.n, ints, el.denom)
            if not check_diffeo(bad):
                return bad
        raise AssertionError("no folding value found")

    @pytest.mark.parametrize(
        "n,alpha,i",
        [(n, alpha, i) for n in (2, 3) for alpha in list(product((0, 1), repeat=n))[1:]
         for i in range(n)],
        ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_folded_cell_with_one_changed_coefficient_rejected(self, n, alpha, i):
        base = mesh_parallelotope(n, 2, SHEAR_2D if n == 2 else SHEAR_3D)
        bad_idx = 2 ** n - 2
        bad = self._one_coefficient_changed(base.elements[bad_idx - 1], alpha, i)
        elements = list(base.elements)
        elements[bad_idx] = bad
        mesh = mesh_of(elements, "parallelotope")
        with pytest.raises(
            ValueError, match=f"^element {bad_idx} of parallelotope mesh is not orientation preserving$"
        ):
            _validate_mesh(mesh, Fraction(1))

    def test_graded_tiling_keys_by_reduced_coefficients(self, proofs):
        # Three 1/2-cells and four 1/4-cells: the 1/2-cells at (0, 0) and
        # (1/2, 0) are stored over 2, the one at (1/4, 1/2) over 4, yet all
        # three share one Jacobian.  The 1/4-cells have the same integer
        # coefficients as the 1/2-cells over another denominator.
        def square(x, y, h):
            return map_from_vertices(
                {a: (x + h * a[0], y + h * a[1]) for a in product((0, 1), repeat=2)}
            )

        half, quarter = Fraction(1, 2), Fraction(1, 4)
        cells = [square(0, 0, half), square(half, 0, half), square(quarter, half, half)]
        cells += [square(x, y, quarter) for x in (0, 3 * quarter) for y in (half, 3 * quarter)]
        assert [el.denom for el in cells[:3]] == [2, 2, 4]
        _validate_mesh(mesh_of(cells, "graded"), Fraction(1))
        assert len(proofs) == 2
        with pytest.raises(ValueError, match="does not tile: volume 0.9375"):
            _validate_mesh(mesh_of(cells[:-1], "graded"), Fraction(1))


class TestElementError:
    def test_member_of_space_has_zero_error(self, rng):
        fmap = random_rational_multilinear(2, rng)
        space = build_Qminus(1, 1, 2)
        tgt = target_from_reference(fmap, space.basis[2])
        err = element_l2_error(fmap, space, tgt, gauss_rule(2, 7))
        assert err <= 1e-12

    def test_projection_of_quadratic_onto_q1(self):
        space = build_Qminus(1, 0, 2)
        u = target_from_form(DiffForm.monomial_form(2, (), (2, 0)))
        err = element_l2_error(
            MultilinearMap.identity(2), space, u, gauss_rule(2, 7)
        )
        assert err == pytest.approx(1 / (6 * math.sqrt(5)), abs=1e-12)

    def test_constant_form_not_reproduced_on_trapezoid(self):
        fmap = trapezoid_map(Fraction(1, 2))
        space = build_Qminus(1, 2, 2)
        u = target_from_form(DiffForm.basis_form(2, (1, 2)))
        err = element_l2_error(fmap, space, u, gauss_rule(2, 12))
        # 1D oracle: error^2 = integral(det) - 1 / integral(1/det)
        # with det = 1/2 + x on [0,1]: 1 - 1/ln 3
        assert err == pytest.approx(math.sqrt(1 - 1 / math.log(3)), abs=1e-11)
        assert err > 0

    def test_rule_of_other_dimension_rejected(self):
        space = build_Qminus(1, 0, 2)
        with pytest.raises(ValueError, match="rule is 3D but the element map is 2D"):
            element_l2_error(MultilinearMap.identity(2), space, target_trig(2, 0), gauss_rule(3, 3))
        f = DiffForm.monomial_form(2, (), (1, 0))
        with pytest.raises(ValueError, match="rule is 3D but the element map is 2D"):
            discrete_l2_pairing(MultilinearMap.identity(2), f, f, gauss_rule(3, 3))
        g = DiffForm.monomial_form(3, (), (1, 0, 0))
        with pytest.raises(ValueError, match="forms are 3D but the element map is 2D"):
            discrete_l2_pairing(MultilinearMap.identity(2), g, g, gauss_rule(2, 3))

    def test_map_of_other_dimension_fails_before_tabulating(self, monkeypatch):
        tabs = []
        monkeypatch.setattr(meshlab, "_tabulation", lambda *args: tabs.append(args))
        with pytest.raises(ValueError, match="^element map dimension mismatch$"):
            element_l2_error(
                MultilinearMap.identity(3), build_Qminus(1, 0, 2), target_trig(2, 0),
                gauss_rule(2, 3),
            )
        assert tabs == []

    def test_rank_deficient_quadrature_reported(self):
        space = build_Qminus(1, 0, 2)
        u = target_trig(2, 0)
        with pytest.raises(NumericalError, match="rank"):
            element_l2_error(MultilinearMap.identity(2), space, u, gauss_rule(2, 1))


def _kernel_chain_error(fmap, vhat, target, quad):
    """element_l2_error recomputed at every step from the numpy kernels, with
    nothing tabulated: the reference for the tabulated path."""
    coeffs_f = fmap.float_arrays()
    alphas = np.array(_corners(fmap.n), dtype=np.int64)
    xref = quad.points
    jacs = _kernels.multilinear_jacobian(coeffs_f, alphas, xref)
    dets, invs = _kernels.jacobian_det_inv(jacs)
    xphys = _kernels.multilinear_values(coeffs_f, alphas, xref)
    scale = np.sqrt(quad.weights * dets)
    uvals = target.values(xphys, xref)
    nbasis = len(vhat.basis)
    if nbasis == 0:
        return float(np.linalg.norm(uvals * scale[:, None]))
    sig_idx, exps, coeffs = _float_view(vhat.basis, vhat.n, vhat.k)
    minors = _kernels.inverse_minors(invs, sig_idx, sig_idx)
    hat = np.einsum("jmt,pt->jmp", coeffs, _kernels.eval_monomials(xref, exps))
    a = (np.einsum("jtp,pts->psj", hat, minors) * scale[:, None, None]).reshape(-1, nbasis)
    y = (uvals * scale[:, None]).reshape(-1)
    sol = np.linalg.lstsq(a, y, rcond=None)[0]
    return float(np.linalg.norm(y - a @ sol))


class TestTabulation:
    """element_l2_error tabulates the reference element on its rule and
    must give exactly what the untabulated kernel chain gives."""

    @pytest.mark.parametrize("n", [2, 3])
    @given(data=st.data())
    def test_equals_kernel_chain(self, n, data):
        fmap = map_from_vertices(data.draw(vertex_strategy(n)))
        assume(check_diffeo(fmap))
        quad = gauss_rule(n, 4)
        for k in range(n + 1):
            for space in (build_Qminus(1, k, n), build_P(1, k, n)):
                target = target_trig(n, k)
                got = element_l2_error(fmap, space, target, quad)
                assert got == _kernel_chain_error(fmap, space, target, quad), (k, space.label)

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_space_two_rules(self, n, rng):
        fmap = random_rational_multilinear(n, rng)
        space = build_Qminus(2, 1, n)
        target = target_trig(n, 1)
        rules = [gauss_rule(n, 3), gauss_rule(n, 5), gauss_rule(n, 3)]
        got = [element_l2_error(fmap, space, target, quad) for quad in rules]
        want = [_kernel_chain_error(fmap, space, target, quad) for quad in rules]
        assert got == want
        assert got[0] != got[1]


def _translated(el, shift):
    """el moved by the rational shift in every coordinate, its integers
    stored over denom * shift.denominator."""
    origin = (0,) * el.n
    ints = {a: [c * shift.denominator for c in vec] for a, vec in el.ints.items()}
    ints[origin] = [c + shift.numerator * el.denom for c in ints[origin]]
    return MultilinearMap(el.n, ints, el.denom * shift.denominator)


class TestGeometrySharing:
    """_cell_errors computes the weighted design matrix once per call, and
    _mesh_error visits a mesh key by key, so once per Jacobian key."""

    @pytest.mark.parametrize(
        "family,n,kw,want",
        [
            ("uniform", 2, {}, 1),
            ("parallelotope", 3, {"shear": SHEAR_3D}, 1),
            ("trapezoidal", 2, {"d": Fraction(3, 10)}, 6),
            ("trilinear3d", 3, {"d": Fraction(3, 10)}, 24),
        ],
        ids=["uniform", "parallelotope", "trapezoidal", "trilinear3d"],
    )
    def test_groups_follow_exact_jacobians(self, family, n, kw, want):
        mesh = build_mesh(family, n, 4, **kw)
        groups = mesh.groups
        assert len(groups) == want
        # Groups in the order of their first cell, cells in mesh order.
        assert sorted(i for idxs in groups for i in idxs) == list(range(mesh.size))
        assert [idxs[0] for idxs in groups] == sorted(idxs[0] for idxs in groups)
        assert all(idxs == sorted(idxs) for idxs in groups)
        # Oracle: the exact Jacobian matrices, which no key computes.
        dfs = [jacobian(mesh.elements[idxs[0]]).entries for idxs in groups]
        assert all(a != b for i, a in enumerate(dfs) for b in dfs[i + 1 :])
        for idxs, df in zip(groups, dfs):
            assert all(jacobian(mesh.elements[i]).entries == df for i in idxs[1:])

    @pytest.mark.parametrize(
        "family,n,big_n,want",
        [("trapezoidal", 2, 4, 6), ("trapezoidal", 2, 8, 6), ("trilinear3d", 3, 4, 24)],
    )
    def test_equal_jacobian_keys_give_equal_float_rows(self, family, n, big_n, want):
        cells = build_mesh(family, n, big_n, d=Fraction(3, 10)).elements
        # A translated copy of an interior cell, stored over 7x the denominator.
        cells = cells + [_translated(cells[-1], Fraction(1, 7))]
        assert cells[-1].denom != cells[-2].denom
        mesh = mesh_of(cells, family)
        last = len(cells) - 1
        assert any(idxs[-2:] == [last - 1, last] for idxs in mesh.groups)
        for idxs in mesh.groups:
            rows = cells[idxs[0]].float_arrays()[1:]
            for e in idxs[1:]:
                assert np.array_equal(cells[e].float_arrays()[1:], rows)
        assert len(mesh.groups) == want

    @pytest.mark.parametrize(
        "family,n,big_n,kw,want,spans_chunks",
        [
            ("uniform", 2, 4, {}, 1, False),
            ("parallelotope", 3, 2, {"shear": SHEAR_3D}, 1, False),
            ("trapezoidal", 2, 4, {"d": Fraction(3, 10)}, 6, False),
            ("trilinear3d", 3, 4, {"d": Fraction(3, 10)}, 24, False),
            ("uniform", 3, 6, {}, 1, True),
        ],
        ids=["uniform", "parallelotope", "trapezoidal", "trilinear3d", "uniform3d-chunked"],
    )
    def test_grouped_loop_equals_mesh_order_oracle(
        self, monkeypatch, family, n, big_n, kw, want, spans_chunks
    ):
        mesh = build_mesh(family, n, big_n, **kw)
        # With k = n - 1, summing the trilinear3d errors in visit order
        # instead of mesh order changes the last bit.
        space, target = build_Qminus(1, n - 1, n), target_trig(n, n - 1)
        quad = gauss_rule(n, 3)
        errs = np.array([_kernel_chain_error(el, space, target, quad) for el in mesh.elements])
        calls = []
        original = _kernels.jacobian_det_inv

        def counted(jacs):
            calls.append(jacs)
            return original(jacs)

        chunk_sizes = []

        def counted_target(xphys, xref):
            chunk_sizes.append(len(xphys) // len(quad.weights))
            return target.fn(xphys, xref)

        chunked = meshlab.TargetForm(n, n - 1, target.label, counted_target)
        monkeypatch.setattr(_kernels, "jacobian_det_inv", counted)
        got, _ = _mesh_error(mesh, space, chunked, quad)
        assert got == float(np.sqrt(np.sum(errs * errs)))
        assert len(calls) == want
        # Each group in chunks of at most _CHUNK_VALUES target values; an
        # (n-1)-form has n components.
        step = meshlab._CHUNK_VALUES // (len(quad.weights) * n)
        groups = mesh.groups
        assert len(chunk_sizes) == sum(-(-len(idxs) // step) for idxs in groups)
        assert sum(chunk_sizes) == mesh.size and max(chunk_sizes) <= step
        assert (len(chunk_sizes) > len(groups)) == spans_chunks

    def test_rule_not_kept_after_return(self, monkeypatch):
        """Neither element_l2_error nor convergence_study keeps its
        quadrature rule alive once it returns: the tabulation belongs to
        the call."""
        space, target = build_Qminus(1, 1, 2), target_trig(2, 1)
        quad = gauss_rule(2, 4)
        element_l2_error(trapezoid_map(), space, target, quad)
        rules = [weakref.ref(quad)]
        del quad

        def recorded(n, q):
            rule = gauss_rule(n, q)
            rules.append(weakref.ref(rule))
            return rule

        monkeypatch.setattr(meshlab, "gauss_rule", recorded)
        convergence_study(space, target, "trapezoidal", [2, 4], d=Fraction(3, 10))
        gc.collect()
        assert len(rules) == 2 and all(rule() is None for rule in rules)

    def test_first_bad_element_named(self):
        # The identity cells 0 and 2 form the first group, so cell 2 is
        # visited before the reflected cell 1.
        ident = MultilinearMap.identity(2)
        reflected = map_from_vertices({a: (1 - a[0], a[1]) for a in product((0, 1), repeat=2)})
        mesh = mesh_of([ident, reflected, ident], "unvalidated")
        with pytest.raises(NumericalError, match="^element 1: Jacobian determinant not positive"):
            _mesh_error(mesh, build_Qminus(1, 0, 2), target_trig(2, 0), gauss_rule(2, 3))

    def test_pushforward_through_reflected_map_rejected(self):
        reflected = map_from_vertices({a: (1 - a[0], a[1]) for a in product((0, 1), repeat=2)})
        target = target_from_reference(reflected, DiffForm.basis_form(2, (1,)))
        xref = gauss_rule(2, 3).points
        xphys = np.array([reflected(x) for x in xref])
        with pytest.raises(NumericalError, match="^Jacobian determinant not positive"):
            target.values(xphys, xref)

    def test_each_cell_once_through_the_batched_routine(self, monkeypatch):
        counts = {"cells": 0}
        cell_errors = meshlab._cell_errors

        def counted_cells(floats, *args):
            counts["cells"] += len(floats)
            return cell_errors(floats, *args)

        monkeypatch.setattr(meshlab, "_cell_errors", counted_cells)
        convergence_study(build_Qminus(1, 1, 2), target_trig(2, 1), "trapezoidal", [2, 4], d=0.3)
        convergence_study(build_Qminus(1, 0, 3), target_trig(3, 0), "uniform", [1, 2])
        assert counts["cells"] == 2**2 + 4**2 + 1**3 + 2**3


def _design(floats, vhat, target, quad):
    """The key's design matrix a and the right-hand sides y (cells, m) that
    _cell_errors makes for the cells with corner coefficients floats."""
    tab = meshlab._tabulation(vhat, quad)
    scale, a = meshlab._geometry(floats[0], tab, quad.weights)
    xphys = np.matmul(tab.corner_tables[0], floats)
    cells = len(floats)
    uvals = target.values(xphys.reshape(-1, vhat.n), np.tile(quad.points, (cells, 1)))
    return a, (uvals.reshape(cells, len(scale), -1) * scale[:, None]).reshape(cells, -1)


def _lstsq_oracle(floats, vhat, target, quad):
    """_cell_errors with one np.linalg.lstsq and np.linalg.norm per cell,
    from the same design matrix and right-hand sides: the errors and the
    worst sv[0]/sv[-1] over the cells."""
    a, y = _design(floats, vhat, target, quad)
    errs, conds = [], []
    for row in y:
        if not vhat.basis:
            errs.append(np.linalg.norm(row))
            continue
        sol, _, _, sv = np.linalg.lstsq(a, row, rcond=None)
        errs.append(np.linalg.norm(row - a @ sol))
        conds.append(sv[0] / sv[-1])
    return np.array(errs), max(conds, default=None)


def _first_levels():
    """The reports of the first level of every bundled config."""
    reports = []
    for name in bundled_config_names():
        cfg = parse_config(bundled_config_path(Path(name).stem).read_text())
        reports.append(
            convergence_study(
                cfg.build_space(),
                cfg.build_target(),
                cfg.family,
                cfg.subdivision_list[:1],
                d=cfg.d,
                shear=cfg.shear,
                quad_order=cfg.quad,
            )
        )
    return reports


@pytest.fixture
def solves(monkeypatch):
    """The staged solvers _cell_errors makes (None where dgelsd takes
    another path) and the calls of the stacked gufunc; skips where numpy's
    LAPACK is out of reach."""
    if meshlab._lapack() is None:
        pytest.skip("numpy's BLAS lacks the scipy-openblas64 LAPACK symbols")
    made, gufunc = [], []
    staged, gelsd = meshlab._staged, meshlab._gelsd

    def spied_staged(a):
        made.append(staged(a))
        return made[-1]

    def spied_gelsd(*args, **kwargs):
        gufunc.append(len(args[1]))
        return gelsd(*args, **kwargs)

    monkeypatch.setattr(meshlab, "_staged", spied_staged)
    monkeypatch.setattr(meshlab, "_gelsd", spied_gelsd)
    return made, gufunc


def _subproblems(staged):
    """The sizes of dlalsd's subproblems."""
    return tuple(size for _, size, _ in staged.parts)


class TestStackedSolve:
    """_cell_errors solves the cells of a key by dgelsd's stages where
    dgelsd factors the design matrix first, else in one stacked dgelsd
    call per chunk, with the same bits as one np.linalg.lstsq per cell."""

    @pytest.mark.parametrize(
        "family,n,big_n,kw",
        [
            ("trapezoidal", 2, 4, {"d": Fraction(3, 10)}),
            ("parallelotope", 2, 3, {"shear": SHEAR_2D}),
            ("trilinear3d", 3, 2, {"d": Fraction(3, 10)}),
            ("parallelotope", 3, 2, {"shear": SHEAR_3D}),
            # One key of 216 cells, at most 4096 // 27 = 151 per chunk.
            ("uniform", 3, 6, {}),
        ],
        ids=["trapezoidal", "parallelotope2d", "trilinear3d", "parallelotope3d", "uniform3d-chunked"],
    )
    def test_equals_per_element_lstsq_oracle(self, family, n, big_n, kw):
        mesh = build_mesh(family, n, big_n, **kw)
        quad = gauss_rule(n, 6 if n == 2 else 3)
        spaces = [build_Qminus(1, k, n) for k in range(n + 1)] + [build_Qminus(0, 1, n)]
        assert not spaces[-1].basis
        cases = [(space, quad) for space in spaces]
        if n == 2:
            # Condition numbers near 1e6, where rcond would show.
            cases.append((build_Qminus(4, 0, 2), quad))
        if family == "trilinear3d":
            # A is 648 x 36: J is above dormqr's block size of 32, so the
            # workspace that dgelsd hands dormqr decides the bits.
            space = build_Qminus(2, 2, 3)
            cases.append((space, gauss_rule(3, default_quad_order(space, 3))))
        for space, rule in cases:
            target, tab = target_trig(n, space.k), meshlab._tabulation(space, rule)
            for key, idxs in zip(mesh.keys, mesh.groups):
                floats = mesh.floats[idxs]
                errs, cond = meshlab._cell_errors(floats, tab, target, rule)
                want, want_cond = _lstsq_oracle(floats, space, target, rule)
                assert np.array_equal(errs, want), (space.label, key)
                assert cond == want_cond

    @pytest.mark.parametrize(
        "space,q,want",
        [
            # One point for four basis functions.
            (build_Qminus(1, 0, 2), 1, "rank 1 < 4, cond 1.000e+00"),
            # P_4 contains L_4(x), which vanishes on the 4 x 4 Gauss points.
            (build_P(4, 0, 2), 4, "rank 13 < 15, cond 1.104e+17"),
        ],
        ids=["fewer-points", "vanishing-polynomial"],
    )
    def test_rank_deficiency_message(self, space, q, want):
        mesh = mesh_uniform(2, 2)
        with pytest.raises(NumericalError) as exc:
            _mesh_error(mesh, space, target_trig(2, 0), gauss_rule(2, q))
        assert str(exc.value) == (
            f"element 0: rank-deficient evaluation matrix ({want}); quadrature may be too coarse"
        )

    def test_fallback_without_lapack_gives_the_same_bits(self, monkeypatch):
        """With numpy's LAPACK out of reach, the first level of every bundled
        config gives the same errors and conditions; with it, every cell of
        a key with J > 1 takes the staged route: one dormqr per cell.  The
        16 cells of q1k2_trapezoid (J = 1) take the gufunc."""
        if meshlab._lapack() is None:
            pytest.skip("numpy's BLAS lacks the scipy-openblas64 LAPACK symbols")
        lapack = meshlab._lapack()
        calls = []

        def counted_ormqr(*args):
            calls.append(1)
            return lapack.dormqr(*args)

        routed_lapack = SimpleNamespace(**{**vars(lapack), "dormqr": counted_ormqr})
        monkeypatch.setattr(meshlab, "_lapack", lambda: routed_lapack)
        routed = _first_levels()
        dims = [
            parse_config(bundled_config_path(Path(name).stem).read_text()).build_space().dim
            for name in bundled_config_names()
        ]
        cells = sum(rep.subdivisions[0] ** rep.n for rep, dim in zip(routed, dims) if dim > 1)
        assert len(routed) == 14 and len(calls) == cells == 184
        monkeypatch.setattr(meshlab, "_lapack", lambda: None)
        fallback = _first_levels()
        assert len(calls) == cells
        assert [(r.errors, r.ls_conds) for r in routed] == [(r.errors, r.ls_conds) for r in fallback]

    @pytest.mark.parametrize(
        "family,n,big_n,kw,space,sizes",
        [
            # Q-_1 Lambda^2: J = 1, m = 36; no SVD to share, so the gufunc.
            ("trapezoidal", 2, 4, {"d": Fraction(3, 10)}, (1, 2, 2), ()),
            # 1 < J <= SMLSIZ = 25: one dlasdq, then dgemm per cell.
            ("trapezoidal", 2, 4, {"d": Fraction(3, 10)}, (1, 1, 2), (4,)),
            ("parallelotope", 3, 2, {"shear": SHEAR_3D}, (1, 1, 3), (12,)),
            # Q-_2 Lambda^2 in 3D, J = 36: one dlasda, dlalsa twice per cell.
            ("trilinear3d", 3, 2, {"d": Fraction(3, 10)}, (2, 2, 3), (36,)),
            # The last e is below eps: dlasda on 35, a 1 x 1 left unsolved.
            ("uniform", 3, 2, {}, (2, 2, 3), (35, 1)),
        ],
        ids=["J=1", "J=4", "J=12", "J=36", "J=35+1"],
    )
    @pytest.mark.parametrize("cells", [None, 1], ids=["all-cells", "one-cell-chunks"])
    def test_each_branch_equals_lstsq_oracle(self, solves, family, n, big_n, kw, space, sizes, cells):
        """Each branch of the staged solve, and the gufunc for J = 1, is
        taken and gives the bits of np.linalg.lstsq per cell: fits, rank,
        singular values and errors."""
        made, gufunc = solves
        mesh = build_mesh(family, n, big_n, **kw)
        space = build_Qminus(*space)
        target, rule = target_trig(n, space.k), gauss_rule(n, default_quad_order(space, n))
        tab, calls = meshlab._tabulation(space, rule), 0
        for key, idxs in zip(mesh.keys, mesh.groups):
            for start in range(0, len(idxs), cells or len(idxs)):
                floats = mesh.floats[idxs[start : start + (cells or len(idxs))]]
                errs, cond = meshlab._cell_errors(floats, tab, target, rule)
                calls += 1
                want, want_cond = _lstsq_oracle(floats, space, target, rule)
                assert np.array_equal(errs, want) and cond == want_cond, key
            a, y = _design(mesh.floats[idxs], space, target, rule)
            sol, rank, sv = meshlab._lstsq(a, y, made[-1])
            for got, row in zip(sol, y):
                want_sol, _, want_rank, want_sv = np.linalg.lstsq(a, row, rcond=None)
                assert np.array_equal(got, want_sol) and rank == want_rank
                assert np.array_equal(sv, want_sv)
        if sizes:
            assert len(made) == calls and not gufunc
            assert {_subproblems(staged) for staged in made} == {sizes}
        else:
            # J = 1: every chunk, and each key's _lstsq above, made one gufunc call.
            assert made == [None] * calls and len(gufunc) == calls + len(mesh.keys)

    def test_rank_deficient_key(self, solves):
        """P_4 in 3D on the 4^3 Gauss points: L_4(x), L_4(y) and L_4(z)
        vanish on all of them, so the 64 x 35 design matrix, which dgelsd
        factors first, has rank 32.  The staged solve drops the same
        singular values as np.linalg.lstsq, and the error names its rank."""
        made, gufunc = solves
        mesh, space, rule = mesh_uniform(3, 2), build_P(4, 0, 3), gauss_rule(3, 4)
        target = target_trig(3, 0)
        a, y = _design(mesh.floats, space, target, rule)
        sol, rank, sv = meshlab._lstsq(a, y, meshlab._staged(a))
        assert rank == 32 and _subproblems(made[0]) == (34, 1)
        for got, row in zip(sol, y):
            want_sol, _, want_rank, want_sv = np.linalg.lstsq(a, row, rcond=None)
            assert np.array_equal(got, want_sol) and rank == want_rank
            assert np.array_equal(sv, want_sv)
        cond = f"{sv[0] / sv[-1]:.3e}"
        with pytest.raises(NumericalError) as exc:
            _mesh_error(mesh, space, target, rule)
        assert str(exc.value) == (
            f"element 0: rank-deficient evaluation matrix (rank 32 < 35, cond {cond}); "
            "quadrature may be too coarse"
        )
        assert not gufunc

    @pytest.mark.parametrize("scale_a,scale_y", [(1e-300, 1.0), (1.0, 1e-300), (1.0, 1e300)])
    def test_inputs_dgelsd_would_scale_take_the_gufunc(self, solves, scale_a, scale_y):
        """Where the largest entry of a or of a right-hand side is outside
        [smlnum, bignum], dgelsd scales it first: those solves take the
        stacked gufunc, with the bits of np.linalg.lstsq."""
        made, gufunc = solves
        mesh, space, rule = mesh_uniform(2, 2), build_Qminus(1, 1, 2), gauss_rule(2, 4)
        a, y = _design(mesh.floats, space, target_trig(2, 1), rule)
        a, y = a * scale_a, y * scale_y
        y[1] = y[0] / scale_y
        sol, rank, sv = meshlab._lstsq(a, y, meshlab._staged(a))
        assert (made[0] is None) == (scale_a != 1.0) and gufunc == [len(y)]
        for got, row in zip(sol, y):
            want_sol, _, want_rank, want_sv = np.linalg.lstsq(a, row, rcond=None)
            assert np.array_equal(got, want_sol) and rank == want_rank
            assert np.array_equal(sv, want_sv)

    def test_worst_condition_per_level(self):
        """The report's worst LS condition per level equals the per-element
        oracle's on one bundled curvilinear config."""
        cfg = parse_config(bundled_config_path("s3k0_trapezoid").read_text())
        space, target = cfg.build_space(), cfg.build_target()
        levels = cfg.subdivision_list[:2]
        rep = convergence_study(space, target, cfg.family, levels, d=cfg.d, quad_order=cfg.quad)
        quad = gauss_rule(cfg.n, rep.quad_order)
        want = []
        for big_n in levels:
            mesh = build_mesh(cfg.family, cfg.n, big_n, d=cfg.d)
            want.append(
                max(
                    _lstsq_oracle(mesh.floats[idxs], space, target, quad)[1]
                    for idxs in mesh.groups
                )
            )
        assert rep.ls_conds == want
        assert all(600 < c < 700 for c in want)


class TestQuadratureConsistency:
    @pytest.mark.parametrize("n", [2, 3])
    def test_discrete_matches_exact_pairing(self, n, rng):
        fmap = random_rational_multilinear(n, rng)
        quad = gauss_rule(n, 6)
        forms = build_P(2, n - 1, n).basis[:4]
        for f in forms:
            for g in forms:
                disc = discrete_l2_pairing(fmap, f, g, quad)
                exact = float(exact_l2_pairing(fmap, f, g))
                assert disc == pytest.approx(exact, abs=1e-12)

    def test_exact_pairing_identity_map_matches_reference(self):
        f = DiffForm.monomial_form(2, (1,), (1, 1))
        g = DiffForm.monomial_form(2, (1,), (2, 0))
        got = exact_l2_pairing(MultilinearMap.identity(2), f, g)
        assert got == l2_inner_reference(f, g)


class TestConvergenceStudy:
    def test_uniform_scalar_rate(self):
        rep = convergence_study(
            build_Qminus(1, 0, 2), target_trig(2, 0), "uniform", [2, 4, 8]
        )
        assert rep.errors == sorted(rep.errors, reverse=True)
        assert rep.rate_pairs[-1] == pytest.approx(2.0, abs=0.1)
        assert rep.prediction.s_affine == 2

    def test_deterministic_rerun(self):
        args = (build_Qminus(1, 0, 2), target_trig(2, 0), "uniform", [2, 4])
        a = convergence_study(*args)
        b = convergence_study(*args)
        assert a.errors == b.errors

    def test_monotone_refinement_on_uniform(self):
        rep = convergence_study(
            build_Qminus(1, 2, 2), target_trig(2, 2), "uniform", [2, 4, 8]
        )
        assert all(a >= b for a, b in zip(rep.errors, rep.errors[1:]))

    def test_unsorted_subdivisions_rejected(self):
        with pytest.raises(ValueError):
            convergence_study(
                build_Qminus(1, 0, 2), target_trig(2, 0), "uniform", [4, 2]
            )

    def test_empty_subdivision_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            convergence_study(build_Qminus(1, 0, 2), target_trig(2, 0), "uniform", [])

    @pytest.mark.parametrize(
        "target,family,levels,want",
        [
            (target_trig(2, 2), "uniform", [2, 4], r"target and space live on different \(n, k\)"),
            (
                target_trig(2, 1), "trapezoidal", [8, 16, 32, 64, 65],
                "trapezoidal meshes need an even N >= 2",
            ),
        ],
        ids=["target-of-other-degree", "odd-last-level"],
    )
    def test_bad_input_fails_before_any_mesh(self, monkeypatch, target, family, levels, want):
        """A study's inputs are checked before its first mesh or tabulation."""
        made = []
        monkeypatch.setattr(meshlab, "build_mesh", lambda *args, **kw: made.append(args))
        monkeypatch.setattr(meshlab, "_tabulation", lambda *args: made.append(args))
        with pytest.raises(ValueError, match=f"^{want}$"):
            convergence_study(build_Qminus(1, 1, 2), target, family, levels, d=Fraction(3, 10))
        assert made == []

    @pytest.mark.parametrize(
        "r,family,shear",
        [
            (1, "uniform", None),
            (2, "parallelotope", SHEAR_4D),
        ],
        ids=["Q1-uniform", "Q2-parallelotope"],
    )
    def test_top_forms_in_4d(self, r, family, shear):
        """Q-_r Lambda^4 in 4D runs like any lower degree, at the rate r
        its affine prediction gives, on the target scale of the 3D configs."""
        space = build_Qminus(r, 4, 4)
        rep = convergence_study(space, target_trig(4, 4, 0.25), family, [1, 2, 4], shear=shear)
        assert rep.prediction.s_affine == r
        assert abs(rep.last_pair_rate - r) <= 0.35, rep.rate_pairs

    def test_default_quad_orders(self):
        assert default_quad_order(build_Qminus(2, 0, 2), 2) == 8
        assert default_quad_order(build_Qminus(2, 0, 3), 3) == 6


class TestGoldenErrors:
    @pytest.mark.parametrize("name", [Path(f).stem for f in bundled_config_names()])
    def test_first_levels_match_benchmark_golden(self, name):
        """The first two levels of each bundled config reproduce the errors
        the benchmark compares, at its relative tolerance."""
        golden = json.loads(GOLDEN.read_text())["converge"][name][:2]
        cfg = parse_config(bundled_config_path(name).read_text())
        assert [big_n for big_n, _ in golden] == cfg.subdivision_list[:2]
        rep = convergence_study(
            cfg.build_space(),
            cfg.build_target(),
            cfg.family,
            cfg.subdivision_list[:2],
            d=cfg.d,
            shear=cfg.shear,
            quad_order=cfg.quad,
        )
        for (big_n, want), got in zip(golden, rep.errors):
            assert abs(got - want) <= GOLDEN_RTOL * abs(want), (big_n, got, want)

    def test_last_level_of_s3k0_uniform(self):
        """N = 32 of s3k0_uniform, the level whose error depends most on how
        the least-squares solve rounds."""
        big_n, want = json.loads(GOLDEN.read_text())["converge"]["s3k0_uniform"][-1]
        cfg = parse_config(bundled_config_path("s3k0_uniform").read_text())
        assert big_n == cfg.subdivision_list[-1] == 32
        rep = convergence_study(
            cfg.build_space(), cfg.build_target(), cfg.family, [big_n], quad_order=cfg.quad
        )
        assert abs(rep.errors[0] - want) <= GOLDEN_RTOL * abs(want), (rep.errors[0], want)


# Prints the error reprs of the first two levels of one affine, one 2D
# curvilinear and one 3D trilinear config.
_THREAD_SCRIPT = """
from cubeforms.cli import bundled_config_path, parse_config
from cubeforms.meshlab import convergence_study
for name in ("q2k2_trilinear3d", "s3k0_uniform", "q2k2_trapezoid"):
    cfg = parse_config(bundled_config_path(name).read_text())
    rep = convergence_study(cfg.build_space(), cfg.build_target(), cfg.family,
                            cfg.subdivision_list[:2], d=cfg.d, shear=cfg.shear,
                            quad_order=cfg.quad)
    print(name, [repr(e) for e in rep.errors])
"""


def test_errors_do_not_depend_on_blas_threads():
    """The convergence errors are bit-identical with one and two OpenBLAS
    threads."""
    src = str(Path(cubeforms.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        run = subprocess.run(
            [sys.executable, "-c", _THREAD_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outs.append(run.stdout)
    assert outs[0].count("\n") == 3
    assert outs[0] == outs[1]


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread count getter, with the count set to 2 for the
    test and restored after it; skips where numpy's BLAS lacks the
    symbols used here or by meshlab._serial_blas."""
    import ctypes

    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    try:
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        lib.openblas_set_num_threads_local
    except AttributeError:
        pytest.skip("numpy's BLAS lacks scipy-openblas64 or openblas_set_num_threads_local")
    get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
    before = get()
    put(2)
    yield get
    put(before)


class TestSerialBlas:
    """_cell_errors runs OpenBLAS with one thread and restores the count."""

    def test_one_thread_inside_restored_after(self, blas_threads):
        seen = []
        trig = target_trig(2, 1)

        def fn(xphys, xref):
            seen.append(blas_threads())
            return trig.fn(xphys, xref)

        target = meshlab.TargetForm(2, 1, "probe", fn)
        mesh = mesh_trapezoidal(4, Fraction(3, 10))
        assert blas_threads() == 2
        _mesh_error(mesh, build_Qminus(1, 1, 2), target, gauss_rule(2, 3))
        assert seen and set(seen) == {1}
        assert blas_threads() == 2
        with pytest.raises(NumericalError, match="rank-deficient"):
            _mesh_error(mesh, build_Qminus(2, 1, 2), target, gauss_rule(2, 1))
        assert blas_threads() == 2

    def test_factorization_sees_one_thread(self, blas_threads, monkeypatch):
        seen = []
        staged = meshlab._staged

        def probed(a):
            seen.append(blas_threads())
            return staged(a)

        monkeypatch.setattr(meshlab, "_staged", probed)
        mesh = mesh_trapezoidal(4, Fraction(3, 10))
        _mesh_error(mesh, build_Qminus(1, 1, 2), target_trig(2, 1), gauss_rule(2, 3))
        assert seen == [1] * len(mesh.keys)
        assert blas_threads() == 2

    def test_errors_do_not_depend_on_the_pin(self, blas_threads, monkeypatch):
        """The first level of every bundled config gives the same errors
        with the pin and with it stubbed out, at two OpenBLAS threads."""

        def first_levels():
            return [(rep.errors, rep.ls_conds) for rep in _first_levels()]

        pinned = first_levels()
        monkeypatch.setattr(meshlab, "_serial_blas", contextlib.nullcontext)
        unpinned = first_levels()
        assert blas_threads() == 2
        assert len(pinned) == 14 and pinned == unpinned
