"""Frozen-gain closed-loop analysis: characteristic matrix, poles, static errors.

With the pseudo-Jacobian held constant the loop formed by the one-step law is
linear time-invariant.  Collect the output blocks into phi_y(q) = Phi_1 +
Phi_2 q + ... + Phi_Ly q^(Ly-1) and the input blocks into phi_u(q) = Phi_{Ly+1}
+ ... + Phi_{Ly+Lu} q^(Lu-1), where q denotes the backward shift z^-1.  The
characteristic matrix is the matrix polynomial

    T(q) = (1 - q) L (I - q phi_y(q)) + phi_u(q) Phi_{Ly+1}^T = T_0 + T_1 q + ... + T_d q^d

and the loop poles are the roots z of det(T_0 z^d + T_1 z^(d-1) + ... + T_d).
They are the eigenvalues of the block-companion linearisation of T (Gohberg,
Lancaster & Rodman, Matrix Polynomials, 1982).  The loop is stable exactly
when every pole lies strictly inside the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .controller import Weighting
from .edlm import PseudoJacobian
from .errors import DegenerateLoopError, NonFiniteLoopError, ShapeError, SingularMatrixError, UnstableLoopError

STABILITY_MARGIN = 1.0e-9
# T_0 (and a shifted pencil) counts as singular at or above this condition number, T(1) above it.
SINGULAR_COND = 1.0e12
# Shifts sigma tried for the pencil when T_0 is singular; the best-conditioned one is used.
PENCIL_SHIFTS = (0.5, -0.75, 1.25, -1.5, 2.5)
# Pencil eigenvalues 1/(z - sigma) at or below this share of the largest are poles at infinity.
INFINITE_POLE_TOL = 1.0e-10
# Loops whose T, and distinct T whose analysis, each cache keeps (least recently used goes first).
ANALYSIS_CACHE_SIZE = 64


@dataclass(frozen=True)
class StabilityReport:
    """Poles of the frozen loop and the verdict they imply.

    characteristic_roots holds the n*d eigenvalues of the block-companion
    matrix, zero poles included, when T_0 is nonsingular.  When T_0 is
    singular only the finite poles are listed.
    """

    characteristic_roots: tuple[complex, ...]
    stable: bool
    margin: float


def closed_loop_matrix(pjm: PseudoJacobian, w: Weighting) -> np.ndarray:
    """Coefficient blocks T_0..T_d of the frozen loop's characteristic matrix.

    Returns a float array of shape (d+1, n, n) whose block i multiplies q^i.
    Trailing all-zero blocks are dropped, so d is the true degree of T.  Only
    square loops (Mu == My) are supported; the two terms of T cannot be added
    otherwise.  Raises NonFiniteLoopError when an entry of T overflows.

    T is built once per loop and kept read-only in a bounded cache keyed on
    My, Ly and the weighting and block bytes; this returns a writable copy.
    """
    return _characteristic(pjm, w).copy()


def _characteristic(pjm: PseudoJacobian, w: Weighting) -> np.ndarray:
    if pjm.Mu != pjm.My:
        raise ShapeError(f"closed-loop analysis needs a square loop, got My={pjm.My}, Mu={pjm.Mu}")
    if w.size != pjm.Mu:
        raise ShapeError(f"weighting has {w.size} entries, expected {pjm.Mu}")
    blocks = b"".join([b.tobytes() for b in pjm.output_blocks + pjm.input_blocks])
    return _built(pjm.My, pjm.Ly, w.entries.tobytes(), blocks)


@lru_cache(maxsize=ANALYSIS_CACHE_SIZE)
def _built(n: int, Ly: int, weights: bytes, blocks: bytes) -> np.ndarray:
    """Read-only T of the loop with these sizes and float64 weighting and blocks."""
    Phi = np.frombuffer(blocks).reshape(-1, n, n)
    T = np.zeros((max(Ly + 2, len(Phi) - Ly), n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        # (1 - q) L Y(q) with Y(q) = I - Phi_1 q - ... - Phi_Ly q^Ly.
        LY = np.frombuffer(weights)[:, None] * np.concatenate([np.eye(n)[None], -Phi[:Ly]])
        T[1 : Ly + 2] -= LY
        T[: Ly + 1] += LY
        T[: len(Phi) - Ly] += np.matmul(Phi[Ly:], Phi[Ly].T)
    if not np.isfinite(T).all():
        raise NonFiniteLoopError("characteristic matrix overflows: weighting or blocks too large")
    T.setflags(write=False)
    nonzero = np.flatnonzero(T.any(axis=(1, 2)))
    return T[: nonzero[-1] + 1 if nonzero.size else 1]


def _cond(M: np.ndarray) -> float:
    """Condition number of M from its singular values; 0/0 and NaN read as inf."""
    s = np.linalg.svd(M, compute_uv=False).tolist()
    return s[0] / s[-1] if s[-1] > 0.0 else math.inf


def _poles(T: np.ndarray) -> np.ndarray:
    """Finite roots z of det(T_0 z^d + ... + T_d) from the pencil z B - A.

    A has -[T_1 ... T_d] as its first block row and identity blocks below the
    diagonal; B is the identity with T_0 as its first block.  For nonsingular
    T_0 the poles are the eigenvalues of B^-1 A.  Otherwise (A - sigma B)^-1 B
    has eigenvalue 1/(z - sigma) for each finite pole z and 0 for each pole at
    infinity, and the zero ones are dropped.
    """
    d, n = T.shape[0] - 1, T.shape[1]
    singular = not _cond(T[0]) < SINGULAR_COND
    if d == 0:
        if singular:
            raise DegenerateLoopError("closed-loop determinant vanishes identically")
        return np.zeros(0, dtype=complex)
    A = np.eye(d * n, k=-n)
    A[:n] = -np.concatenate(T[1:], axis=1)
    if not singular:
        A[:n] = np.linalg.solve(T[0], A[:n])
        return np.linalg.eigvals(A)
    B = np.eye(d * n)
    B[:n, :n] = T[0]
    conds = [_cond(A - s * B) for s in PENCIL_SHIFTS]
    best = int(np.argmin(conds))
    if not conds[best] < SINGULAR_COND:
        raise DegenerateLoopError("closed-loop determinant vanishes identically")
    sigma = PENCIL_SHIFTS[best]
    mu = np.linalg.eigvals(np.linalg.solve(A - sigma * B, B))
    finite = mu[np.abs(mu) > INFINITE_POLE_TOL * np.max(np.abs(mu))]
    return sigma + 1.0 / finite


@lru_cache(maxsize=ANALYSIS_CACHE_SIZE)
def _analysed(shape: tuple[int, ...], data: bytes) -> tuple[StabilityReport, np.ndarray | None]:
    """Verdict of the characteristic blocks with this shape and float64 content.

    For a stable loop the entry also holds T(1) = T_0 + ... + T_d, read-only; it holds
    None instead for an unstable loop, or when the condition number of T(1) is
    non-finite or above SINGULAR_COND.  Raising calls (DegenerateLoopError) are not cached.
    """
    T = np.frombuffer(data).reshape(shape)
    roots = _poles(T)
    if roots.size == 0:
        report = StabilityReport(characteristic_roots=(), stable=True, margin=1.0)
    else:
        largest = float(np.max(np.abs(roots)))
        report = StabilityReport(
            characteristic_roots=tuple(complex(r) for r in roots),
            stable=largest < 1.0 - STABILITY_MARGIN,
            margin=1.0 - largest,
        )
    if not report.stable:
        return report, None
    T1 = T.sum(axis=0)
    if not _cond(T1) <= SINGULAR_COND:
        return report, None
    T1.setflags(write=False)
    return report, T1


def stability_check(T: np.ndarray) -> StabilityReport:
    """Poles of the characteristic blocks T, and whether all lie inside the circle.

    A pole is accepted as stable only below 1 - STABILITY_MARGIN, so marginal
    loops classify unstable.  Raises DegenerateLoopError when det T vanishes
    identically.  Two bounded caches of ANALYSIS_CACHE_SIZE entries make one
    T and one pole solve per loop: closed_loop_matrix's, keyed on the loop's
    content, which the static errors read directly, and this one, keyed on
    T's shape and float64 content, which holds the report and T(1).

    Limit: when T_0 is singular only up to rounding and a pole at infinity
    has a Jordan chain, the pencil solve can report spurious huge poles
    (about 1e7 on a rotated copy of a loop whose true poles are {0, 1}), so
    such a T may read unstable.  T from closed_loop_matrix can meet this only
    with at least two zero weighting entries.
    """
    T = np.ascontiguousarray(T, dtype=float)
    return _analysed(T.shape, T.tobytes())[0]


def _static_matrices(pjm: PseudoJacobian, w: Weighting) -> tuple[np.ndarray, np.ndarray]:
    T = _characteristic(pjm, w)
    report, T1 = _analysed(T.shape, T.tobytes())
    if not report.stable:
        raise UnstableLoopError(f"static error is undefined for an unstable loop (margin {report.margin:.3e})")
    if T1 is None:
        raise SingularMatrixError("characteristic matrix is singular at z = 1")
    phi_y1 = sum(pjm.output_blocks, start=np.zeros((pjm.My, pjm.My)))
    return T1, phi_y1


def ramp_static_error(pjm: PseudoJacobian, w: Weighting, Ts: float) -> np.ndarray:
    """Steady tracking error under a unit-slope ramp on every output.

    Evaluates T(1)^-1 L (I - phi_y(1)) 1 * Ts.  The error scales linearly
    with the weighting; a zero weighting tracks the ramp exactly.
    """
    if not 0.0 < Ts < math.inf:
        raise ValueError(f"sample time must be positive, got {Ts}")
    T1, phi_y1 = _static_matrices(pjm, w)
    rhs = w.matrix @ ((np.eye(pjm.My) - phi_y1) @ np.ones(pjm.My))
    return np.linalg.solve(T1, rhs) * Ts


def step_static_error(pjm: PseudoJacobian, w: Weighting) -> np.ndarray:
    """Steady tracking error under a unit step on every output: exactly zero.

    It is (I - T(1)^-1 phi_u(1) Phi_{Ly+1}^T) 1, where T(1) = phi_u(1)
    Phi_{Ly+1}^T because the (1 - q) factor vanishes at q = 1: the
    incremental law integrates.  The loop must still be stable with T(1)
    nonsingular, as for the ramp error.
    """
    _static_matrices(pjm, w)
    return np.zeros(pjm.My)
