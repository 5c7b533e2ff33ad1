"""Hot numeric kernels for the element projection pipeline, vectorized numpy.

Corner-monomial tables depend only on the points: a caller that evaluates
many maps at the same points makes them once and applies each map to them.

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
    "corner_monomials",
    "jacobian_tables",
    "jacobian_from_tables",
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


def corner_monomials(alphas: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Values of each corner monomial prod_i x_i^alpha_i at each point, (P, C)."""
    return np.prod(np.where(alphas[None, :, :] == 1, points[:, None, :], 1.0), axis=2)


def jacobian_tables(alphas: np.ndarray, points: np.ndarray) -> tuple:
    """For each column j of DF, (rows, table): rows (C_j,) are the corners
    whose monomial has x_j, and table (P, C_j) holds d/dx_j of those
    monomials at each point."""
    tables = []
    for j in range(alphas.shape[1]):
        rows = np.flatnonzero(alphas[:, j] == 1)
        sub_alpha = alphas[rows]
        sub_alpha[:, j] = 0
        tables.append((rows, corner_monomials(sub_alpha, points)))
    return tuple(tables)


def jacobian_from_tables(coeffs: np.ndarray, tables: tuple) -> np.ndarray:
    """DF (P, n, n) at the points the tables were made for."""
    n = len(tables)
    jac = np.empty((tables[0][1].shape[0], n, n))
    for j, (rows, table) in enumerate(tables):
        jac[:, :, j] = table @ coeffs[rows]
    return jac


def multilinear_values(
    coeffs: np.ndarray, alphas: np.ndarray, points: np.ndarray
) -> np.ndarray:
    return corner_monomials(alphas, points) @ coeffs


def multilinear_jacobian(
    coeffs: np.ndarray, alphas: np.ndarray, points: np.ndarray
) -> np.ndarray:
    return jacobian_from_tables(coeffs, jacobian_tables(alphas, points))


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
