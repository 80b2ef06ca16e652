"""Block-companion stability reference for frozen MFAC loops (numpy only).

The frozen loop's characteristic matrix is the matrix polynomial

    T(q) = (1 - q) L (I - q phi_y(q)) + phi_u(q) Phi_lead^T = sum_i T_i q^i

in the backward shift q = 1/z.  Its poles are the finite roots z of
det(T_0 z^d + T_1 z^(d-1) + ... + T_d).  When T_0 is invertible they are the
eigenvalues of the block-companion matrix of T_0^-1 T; when T_0 is singular
the roots at infinity are split off explicitly through a shifted pencil.
This is computed independently of ``mfaclab.analysis`` so that the benchmark
can check its verdicts.
"""
from __future__ import annotations

import numpy as np

# T_0 counts as singular above this condition number.
SINGULAR_COND = 1.0e12
# Pencil eigenvalues mu = 1/(z - sigma) at or below this share of the
# largest one are roots at infinity.
INFINITE_ROOT_TOL = 1.0e-10
# Shifts tried for the singular-lead pencil; the best-conditioned one is used.
PENCIL_SHIFTS = (0.5, -0.75, 1.25, -1.5, 2.5)


def characteristic_blocks(output_blocks, input_blocks, weights) -> np.ndarray:
    """Coefficients T_0..T_d of T(q), stacked as an array of shape (d+1, n, n)."""
    lead = np.asarray(input_blocks[0], dtype=float)
    n = lead.shape[0]
    L = np.diag(np.asarray(weights, dtype=float))
    d = max(len(output_blocks) + 1, len(input_blocks) - 1)
    T = np.zeros((d + 1, n, n))
    # (1 - q) L Y(q) with Y(q) = I - sum_i Phi_i q^i
    Y = [np.eye(n)] + [-np.asarray(b, dtype=float) for b in output_blocks]
    for k, Yk in enumerate(Y):
        T[k] += L @ Yk
        T[k + 1] -= L @ Yk
    for j, b in enumerate(input_blocks):
        T[j] += np.asarray(b, dtype=float) @ lead.T
    return T


def _companion_parts(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pencil (A, B) with det(zB - A) = det(T_0 z^d + ... + T_d)."""
    d = T.shape[0] - 1
    n = T.shape[1]
    A = np.zeros((d * n, d * n))
    B = np.eye(d * n)
    B[:n, :n] = T[0]
    for i in range(1, d + 1):
        A[:n, (i - 1) * n : i * n] = -T[i]
    A[n:, :-n] = np.eye((d - 1) * n)
    return A, B


def pencil_roots(T: np.ndarray) -> np.ndarray:
    """Finite roots z of det(sum_i T_i z^(d-i)); T has shape (d+1, n, n)."""
    if T.shape[0] == 1:
        return np.zeros(0, dtype=complex)
    A, B = _companion_parts(T)
    if np.linalg.cond(T[0]) < SINGULAR_COND:
        n = T.shape[1]
        A[:n] = np.linalg.solve(T[0], A[:n])
        return np.linalg.eigvals(A)
    return singular_lead_roots(A, B)


def singular_lead_roots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Finite eigenvalues of the pencil zB - A when B is singular.

    (A - sigma B)^-1 B has eigenvalue mu = 1/(z - sigma) for each finite
    eigenvalue z and mu = 0 for each infinite one, so the zero mu are dropped.
    """
    sigma = min(PENCIL_SHIFTS, key=lambda s: np.linalg.cond(A - s * B))
    mu = np.linalg.eigvals(np.linalg.solve(A - sigma * B, B))
    scale = max(float(np.max(np.abs(mu))), 1.0e-300)
    finite = mu[np.abs(mu) > INFINITE_ROOT_TOL * scale]
    return sigma + 1.0 / finite


def spectral_radius(output_blocks, input_blocks, weights) -> float:
    """Largest pole modulus of the frozen loop; 0 when it has no finite poles."""
    roots = pencil_roots(characteristic_blocks(output_blocks, input_blocks, weights))
    return float(np.max(np.abs(roots))) if roots.size else 0.0
