from itertools import combinations

import numpy as np
import pytest

from cubeforms import _kernels
from cubeforms.forms import Polynomial
from cubeforms.mapping import _corners, jacobian
from cubeforms.verify import random_rational_multilinear


def _case(n, rng, npts=17):
    fmap = random_rational_multilinear(n, rng)
    coeffs = fmap.float_arrays()
    alphas = np.array(_corners(n), dtype=np.int64)
    pts = np.array([[rng.random() for _ in range(n)] for _ in range(npts)])
    return fmap, coeffs, alphas, pts


@pytest.mark.parametrize("n", [2, 3])
def test_monomials_match_exact_evaluation(n, rng):
    _, _, _, pts = _case(n, rng, npts=5)
    exps = np.array([[2] + [1] * (n - 1), [0] * n], dtype=np.int64)
    got = _kernels.eval_monomials(pts, exps)
    for row, pt in enumerate(pts):
        want = Polynomial.monomial(n, tuple(exps[0])).eval_float(pt)
        assert got[row, 0] == pytest.approx(want, rel=1e-14)
        assert got[row, 1] == 1.0


@pytest.mark.parametrize("n", [2, 3])
def test_jacobian_matches_symbolic(n, rng):
    fmap, coeffs, alphas, pts = _case(n, rng, npts=4)
    jacs = _kernels.multilinear_jacobian(coeffs, alphas, pts)
    dets, _ = _kernels.jacobian_det_inv(jacs)
    jac = jacobian(fmap)
    for p, pt in enumerate(pts):
        for i in range(n):
            for j in range(n):
                want = jac.entries[i][j].eval_float(pt)
                assert jacs[p, i, j] == pytest.approx(want, abs=1e-13)
        assert dets[p] == pytest.approx(jac.det_poly.eval_float(pt), abs=1e-13)


def test_values_match_exact_map(rng):
    fmap, coeffs, alphas, pts = _case(2, rng, npts=6)
    vals = _kernels.multilinear_values(coeffs, alphas, pts)
    for p, pt in enumerate(pts):
        want = fmap(pt)
        assert np.allclose(vals[p], want, atol=1e-14)


def test_inverse_minors_top_degree(rng):
    # For k = n the single minor is det of the inverse, i.e. 1/det.
    fmap, coeffs, alphas, pts = _case(3, rng, npts=8)
    jacs = _kernels.multilinear_jacobian(coeffs, alphas, pts)
    dets, invs = _kernels.jacobian_det_inv(jacs)
    full = np.array([[0, 1, 2]], dtype=np.int64)
    minors = _kernels.inverse_minors(invs, full, full)
    assert np.allclose(minors[:, 0, 0], 1.0 / dets, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_inverse_minors_every_size(n, rng):
    _, coeffs, alphas, pts = _case(n, rng, npts=6)
    jacs = _kernels.multilinear_jacobian(coeffs, alphas, pts)
    _, invs = _kernels.jacobian_det_inv(jacs)
    for k in range(n + 1):
        sigmas = list(combinations(range(n), k))
        m = len(sigmas)
        sig_idx = np.array(sigmas, dtype=np.int64).reshape(m, k)
        got = _kernels.inverse_minors(invs, sig_idx, sig_idx)
        assert got.shape == (len(pts), m, m)
        for a, rows in enumerate(sig_idx):
            for b, cols in enumerate(sig_idx):
                want = np.linalg.det(invs[:, rows][:, :, cols]) if k else np.ones(len(pts))
                assert np.allclose(got[:, a, b], want, atol=1e-13), (k, a, b)
