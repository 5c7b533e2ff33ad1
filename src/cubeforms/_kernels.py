"""Hot numeric kernels for the element projection pipeline, vectorized numpy.

Shapes used throughout:
    points   (P, n)   quadrature points on the reference cube
    exps     (T, n)   monomial exponent rows
    coeffs   (C, n)   multilinear corner coefficients, C = 2^n
    alphas   (C, n)   companion 0/1 corner exponents
    rows/cols (M, k)  0-based index-map selections, M = binom(n, k)
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "eval_monomials",
    "multilinear_values",
    "multilinear_jacobian",
    "jacobian_det_inv",
    "inverse_minors",
]

# Name of the kernel implementation, recorded in benchmark run records.
BACKEND = "numpy"


def eval_monomials(points: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """Values of each monomial at each point, (P, T)."""
    return np.prod(points[:, None, :] ** exps[None, :, :], axis=2)


def multilinear_values(
    coeffs: np.ndarray, alphas: np.ndarray, points: np.ndarray
) -> np.ndarray:
    mono = np.prod(np.where(alphas[None, :, :] == 1, points[:, None, :], 1.0), axis=2)
    return mono @ coeffs


def multilinear_jacobian(
    coeffs: np.ndarray, alphas: np.ndarray, points: np.ndarray
) -> np.ndarray:
    p, n = points.shape
    jac = np.empty((p, n, n))
    for j in range(n):
        mask = alphas[:, j] == 1
        if not mask.any():
            jac[:, :, j] = 0.0
            continue
        sub_alpha = alphas[mask].copy()
        sub_alpha[:, j] = 0
        mono = np.prod(
            np.where(sub_alpha[None, :, :] == 1, points[:, None, :], 1.0), axis=2
        )
        jac[:, :, j] = mono @ coeffs[mask]
    return jac


def jacobian_det_inv(jacs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dets = np.linalg.det(jacs)
    invs = np.linalg.inv(jacs)
    return dets, invs


def _small_dets(sub: np.ndarray, k: int) -> np.ndarray:
    if k == 1:
        return sub[..., 0, 0]
    if k == 2:
        return sub[..., 0, 0] * sub[..., 1, 1] - sub[..., 0, 1] * sub[..., 1, 0]
    if k == 3:
        return (
            sub[..., 0, 0] * (sub[..., 1, 1] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 1])
            - sub[..., 0, 1] * (sub[..., 1, 0] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 0])
            + sub[..., 0, 2] * (sub[..., 1, 0] * sub[..., 2, 1] - sub[..., 1, 1] * sub[..., 2, 0])
        )
    return np.linalg.det(sub)


def inverse_minors(
    invs: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """minors[p, a, b] = det(invs[p][rows[a], :][:, cols[b]]), (P, M, M)."""
    m, k = rows.shape
    if k == 0:
        return np.ones((invs.shape[0], m, m))
    gathered = invs[:, rows][:, :, :, cols]        # (P, M, k, M, k)
    sub = np.transpose(gathered, (0, 1, 3, 2, 4))  # (P, M, M, k, k)
    return _small_dets(sub, k)
