"""Acceptance gate: every criterion at its stated tolerance.

Exact criteria (1-7, 10) are decided in rational arithmetic or against
rational oracles; empirical criteria (8, 9) fit h-refinement rates and
compare against the predicted orders.  Each test prints one PASS line once
its assertions hold; run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
from fractions import Fraction
from functools import cache
from math import comb
from pathlib import Path

import pytest

from cubeforms import verify
from cubeforms.cli import bundled_config_names, bundled_config_path, parse_config
from cubeforms.dofs import build_dofs, dof_count_by_faces, unisolvence_matrix
from cubeforms.forms import l2_inner_box, l2_inner_reference
from cubeforms.mapping import MultilinearMap, pullback_polynomial
from cubeforms.meshlab import convergence_study, gauss_rule, target_trig
from cubeforms.spaces import (
    build_P,
    build_Qminus,
    build_SrLambda1_2d,
    build_serendipity,
    dim_Qminus,
    predict_rates,
)
from oracles import discrete_l2_pairing, exact_l2_pairing


def _ok(name: str, detail: str = "") -> None:
    print(f"PASS {name}" + (f" ({detail})" if detail else ""))


def _rates(space, target, family, ns, **kw):
    rep = convergence_study(space, target, family, ns, **kw)
    return rep.last_pair_rate, rep


# The bundled p2k2_trapezoid levels end at 16 -> 32 (rate 1.35); the rate
# settles two levels deeper.
DEEPER = {"p2k2_trapezoid": (16, 32, 64, 128)}


def _config_report(name, levels=None):
    """The study a bundled config describes, at its own levels or at levels.
    Criteria 8 and 9 read the same studies as test_bundled_config_rates,
    from one memo keyed by (name, levels), so each runs once per session."""
    return _study(name, levels)


@cache
def _study(name, levels):
    cfg = parse_config(bundled_config_path(name).read_text())
    return convergence_study(
        cfg.build_space(), cfg.build_target(), cfg.family, levels or cfg.subdivision_list,
        d=cfg.d, shear=cfg.shear, quad_order=cfg.quad,
    )


def _bundled(name):
    """(last-pair rate, report) of a bundled config's study at its levels."""
    rep = _config_report(name)
    return rep.last_pair_rate, rep


def test_criterion_01_dimension_formula():
    for n in range(1, 5):
        for k in range(n + 1):
            for r in range(5):
                assert build_Qminus(r, k, n).dim == dim_Qminus(r, k, n), (r, k, n)
                assert dim_Qminus(r, k, n) == comb(n, k) * (r + 1) ** (n - k) * r**k
    _ok("criterion 1: dimension formula (n <= 4, r <= 4, exact)")


def test_criterion_02_dof_count_identity():
    for n in range(1, 5):
        for k in range(n + 1):
            for r in range(1, 5):
                assert dof_count_by_faces(r, k, n) == dim_Qminus(r, k, n), (r, k, n)
                if n <= 3:
                    assert build_dofs(r, k, n).count == dim_Qminus(r, k, n)
    _ok("criterion 2: DOF counting identity (n <= 4, r <= 4, exact)")


def test_criterion_03_unisolvence():
    for n in range(1, 4):
        for k in range(n + 1):
            for r in range(1, 4):
                matrix, ok = unisolvence_matrix(r, k, n)
                assert ok, f"singular unisolvence matrix at (r,k,n)=({r},{k},{n})"
                assert len(matrix) == dim_Qminus(r, k, n)
    _ok("criterion 3: unisolvence (n <= 3, r <= 3, exact rational rank)")


def test_criterion_04_calculus_and_subcomplex():
    for name, ok in verify.check_calculus(3):
        assert ok, name
    for name, ok in verify.check_subcomplex(3, 3):
        assert ok, name
    _ok("criterion 4: d.d=0, Leibniz, anticommutativity, trace-d, subcomplex (exact)")


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_05_pullback_inclusions(n):
    results = verify.check_pullback_inclusions(n, max_r=3, n_maps=20, seed=1105)
    for name, ok in results:
        assert ok, name
    n_maps = sum(1 for name, _ in results if name.startswith("pullback-multilinear"))
    assert n_maps == 20
    _ok(f"criterion 5: pullback inclusions n={n} (20 maps, r <= 3, exact membership)")


GOLDEN = []
for r in range(1, 7):
    for n in (2, 3):
        GOLDEN.append((f"Qminus r={r} k=0 n={n}", build_Qminus, (r, 0, n), (r + 1, r + 1)))
        for k in range(1, n):
            GOLDEN.append(
                (
                    f"Qminus r={r} k={k} n={n}",
                    build_Qminus,
                    (r, k, n),
                    (r, max(0, r - k + 1)),
                )
            )
        GOLDEN.append(
            (f"Qminus r={r} k={n} n={n}", build_Qminus, (r, n, n), (r, max(0, r - n + 1)))
        )
        GOLDEN.append(
            (f"P r={r} k={n} n={n}", build_P, (r, n, n), (r + 1, max(0, r // n - n + 2)))
        )
        GOLDEN.append(
            (f"S r={r} n={n}", build_serendipity, (r, n), (r + 1, max(2, r // n + 1)))
        )
    GOLDEN.append((f"SLambda1 r={r}", build_SrLambda1_2d, (r,), (r + 1, (r + 1) // 2)))


def test_criterion_06_rate_prediction_golden_table():
    for label, builder, args, want in GOLDEN:
        pred = predict_rates(builder(*args))
        assert (pred.s_affine, pred.s_multilinear) == want, (
            f"{label}: got ({pred.s_affine}, {pred.s_multilinear}), want {want}"
        )
    _ok(f"criterion 6: golden rate table ({len(GOLDEN)} catalog entries, r = 1..6)")


def test_criterion_07_dilation_scaling():
    for n in (1, 2, 3):
        for h in (Fraction(1, 2), Fraction(1, 3), Fraction(2)):
            fmap = MultilinearMap.dilation(n, h)
            for k in range(n + 1):
                for v in verify._sample_forms(n):
                    if v.k != k:
                        continue
                    pulled = pullback_polynomial(fmap, v)
                    lhs = l2_inner_reference(pulled, pulled)
                    rhs = h ** (2 * k - n) * l2_inner_box(v, v, h)
                    assert lhs == rhs, (n, k, h)
    _ok("criterion 7: dilation L2 scaling h^(2k-n) for h in {1/2, 1/3, 2} (exact)")


def test_criterion_08a_q1_scalars_uniform():
    rate, _ = _bundled("q1k0_uniform")
    assert abs(rate - 2) <= 0.25, rate
    _ok("criterion 8a: Q1 scalar uniform rate 2", f"fitted {rate:.3f}")


def test_criterion_08b_q2_volume_forms():
    r_uni, _ = _bundled("q2k2_uniform")
    r_trap, _ = _bundled("q2k2_trapezoid")
    assert abs(r_uni - 2) <= 0.25, r_uni
    assert abs(r_trap - 1) <= 0.25, r_trap
    _ok("criterion 8b: Q2- volume forms, uniform 2 / trapezoid 1",
        f"fitted {r_uni:.3f} / {r_trap:.3f}")


def test_criterion_08c_q1_volume_forms_no_convergence():
    rate, rep = _bundled("q1k2_trapezoid")
    assert rate < 0.2, rate
    assert min(rep.errors) > 0.05, rep.errors
    _ok("criterion 8c: Q1- volume forms trapezoid, no convergence",
        f"fitted {rate:.3f}, floor {min(rep.errors):.3f}")


def test_criterion_08d_serendipity_scalars():
    r_uni, _ = _bundled("s3k0_uniform")
    r_trap, _ = _bundled("s3k0_trapezoid")
    assert abs(r_uni - 4) <= 0.25, r_uni
    assert abs(r_trap - 2) <= 0.25, r_trap
    _ok("criterion 8d: S3 scalars, uniform 4 / trapezoid 2",
        f"fitted {r_uni:.3f} / {r_trap:.3f}")


def test_criterion_08e_serendipity_one_forms():
    r_uni, _ = _bundled("s2k1_uniform")
    r_par, _ = _bundled("s2k1_parallelotope")
    r_trap, _ = _bundled("s2k1_trapezoid")
    assert abs(r_uni - 3) <= 0.25, r_uni
    assert abs(r_par - 3) <= 0.25, r_par
    assert abs(r_trap - 1) <= 0.25, r_trap
    _ok("criterion 8e: S2 one-forms, uniform 3 / parallelotope 3 / trapezoid 1",
        f"fitted {r_uni:.3f} / {r_par:.3f} / {r_trap:.3f}")


def test_criterion_08f_p2_volume_forms():
    # P_2 Lambda^2 pulled back lands in Q-_1 Lambda^2 only: rate 3 on affine
    # meshes, 1 on trapezoids.
    uni = _config_report("p2k2_uniform")
    pred, r_uni = uni.prediction, uni.last_pair_rate
    r_trap = _config_report("p2k2_trapezoid", DEEPER["p2k2_trapezoid"]).last_pair_rate
    assert (pred.s_affine, pred.s_multilinear) == (3, 1)
    assert abs(r_uni - pred.s_affine) <= 0.25, r_uni
    assert abs(r_trap - pred.s_multilinear) <= 0.25, r_trap
    _ok("criterion 8f: P2 volume forms, uniform 3 / trapezoid 1 at N = 64 -> 128",
        f"fitted {r_uni:.3f} / {r_trap:.3f}")


@pytest.mark.parametrize("name", [Path(f).stem for f in bundled_config_names()])
def test_bundled_config_rates(name):
    """Each bundled config's last pair is within 0.25 (2D) or 0.35 (3D) of
    the rate `cubeforms converge --assert-rates` compares it with, at the
    config's levels (DEEPER's where those are preasymptotic)."""
    rep = _config_report(name, DEEPER.get(name))
    tol = 0.25 if rep.n == 2 else 0.35
    assert abs(rep.last_pair_rate - rep.predicted_rate) <= tol, rep.rate_pairs
    _ok(f"bundled {name}: rate {rep.predicted_rate}", f"fitted {rep.last_pair_rate:.3f}")


SCALE_3D = 0.25


def test_criterion_09_three_dimensional_rates():
    r_scalar, _ = _bundled("q1k0_uniform3d")
    assert abs(r_scalar - 2) <= 0.35, r_scalar
    r_uni, _ = _bundled("q2k2_uniform3d")
    r_tri, _ = _bundled("q2k2_trilinear3d")
    assert abs(r_uni - 2) <= 0.35, r_uni
    assert abs(r_tri - 1) <= 0.35, r_tri
    _ok("criterion 9: 3D rates, Q1 scalar 2 / Q2- faces uniform 2 / trilinear 1",
        f"fitted {r_scalar:.3f} / {r_uni:.3f} / {r_tri:.3f}")


def test_criterion_09_trilinear_rate_one_refinement_deeper():
    # The N = 8 -> 16 pair, one level past the bundled q2k2_trilinear3d levels.
    r_tri, _ = _rates(
        build_Qminus(2, 2, 3), target_trig(3, 2, SCALE_3D), "trilinear3d", [8, 16],
        d=Fraction(3, 10),
    )
    assert abs(r_tri - 1) <= 0.35, r_tri
    _ok("criterion 9: 3D trilinear Q2- faces rate 1 at N = 8 -> 16", f"fitted {r_tri:.3f}")


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_10_quadrature_vs_exact(n):
    rng = random.Random(808 + n)
    quad = gauss_rule(n, 6)
    cases = 0
    for _ in range(10):
        fmap = verify.random_rational_multilinear(n, rng)
        k = cases % (n + 1)
        forms = build_P(2, k, n).basis
        forms = [forms[i] for i in range(0, len(forms), max(1, len(forms) // 4))][:4]
        for f in forms:
            for g in forms:
                disc = discrete_l2_pairing(fmap, f, g, quad)
                exact = float(exact_l2_pairing(fmap, f, g))
                assert abs(disc - exact) <= 1e-12 * max(1.0, abs(exact)), (n, k)
        cases += 1
    assert cases == 10
    _ok(f"criterion 10: discrete Gram vs exact rational n={n} (10 elements, 1e-12)")
