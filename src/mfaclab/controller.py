"""MFAC control laws built on the incremental linearization.

All variants minimize, one way or another, the one-step cost

    J(du) = ||y_ref - y_hat(k+1)||^2 + du^T L du

with L a nonnegative diagonal weighting and y_hat predicted through the
pseudo-Jacobian blocks.  The window convention is the controller's
information set at step k: y_history[0] = y(k), u_history[0] = u(k-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _lapack
from .edlm import (
    DifferentiableModel,
    PseudoJacobian,
    RegressorWindow,
    _check_finite,
    _curvature_corrected,
    _first_order_blocks,
    _slot_hessians,
)
from .errors import InfeasibleBoxError, RankDeficiencyError, ShapeError

QUARTIC_TOL = 1.0e-9
QUARTIC_MAX_PASSES = 50
SWEEP_TOL = 1.0e-10
SWEEP_MAX = 500
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Weighting:
    """Diagonal control-increment penalty (the lambda of the one-step cost)."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.atleast_1d(np.asarray(self.entries, dtype=float))
        if e.ndim != 1:
            raise ShapeError(f"weighting entries must be a vector, got shape {e.shape}")
        if np.any(e < 0.0) or not np.all(np.isfinite(e)):
            raise ValueError("weighting entries must be finite and >= 0")
        e = e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @classmethod
    def uniform(cls, value: float, size: int) -> "Weighting":
        return cls(np.full(size, float(value)))

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.entries)


@dataclass(frozen=True)
class BoxConstraints:
    """Componentwise input bounds lower <= u <= upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ShapeError(f"bound shapes disagree: {lo.shape} vs {hi.shape}")
        if np.any(lo > hi):
            raise InfeasibleBoxError(f"empty box: lower {lo} exceeds upper {hi}")
        lo = lo.copy()
        hi = hi.copy()
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def contains(self, u: np.ndarray) -> bool:
        return bool(np.all(u >= self.lower) and np.all(u <= self.upper))

    def clip(self, u: np.ndarray) -> np.ndarray:
        return np.clip(u, self.lower, self.upper)


class ControlDecision(NamedTuple):
    """One control step: increment, absolute input, diagnostics, and the blocks it used."""

    delta_u: np.ndarray
    u: np.ndarray
    cost: float
    iterations: int
    converged: bool
    output_blocks: Sequence[np.ndarray]
    input_blocks: Sequence[np.ndarray]


def _check_controller_args(
    layout: tuple[int, int, int, int], window: RegressorWindow, y_now: np.ndarray, y_ref: np.ndarray, w: Weighting
) -> tuple[np.ndarray, np.ndarray]:
    """Validate one law call; layout is the (My, Mu, Ly, Lu) of the pseudo-Jacobian used."""
    dims = window.dims
    if layout != (dims.My, dims.Mu, dims.Ly, dims.Lu):
        raise ShapeError(
            f"pseudo-Jacobian layout {layout} does not match "
            f"window dimensions ({dims.My},{dims.Mu},{dims.Ly},{dims.Lu})"
        )
    y_now = np.atleast_1d(np.asarray(y_now, dtype=float))
    y_ref = np.atleast_1d(np.asarray(y_ref, dtype=float))
    if y_now.shape != (dims.My,) or y_ref.shape != (dims.My,):
        raise ShapeError(f"output vectors must have shape ({dims.My},)")
    if w.size != dims.Mu:
        raise ShapeError(f"weighting has {w.size} entries, expected {dims.Mu}")
    if len(window.y_history) < dims.Ly + 1:
        raise ShapeError(f"window needs {dims.Ly + 1} output samples, has {len(window.y_history)}")
    if len(window.u_history) < dims.Lu:
        raise ShapeError(f"window needs {dims.Lu} input samples, has {len(window.u_history)}")
    return y_now, y_ref


def _history_residual(
    output_blocks: Sequence[np.ndarray],
    input_blocks: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    us: Sequence[np.ndarray],
    y_now: np.ndarray,
    y_ref: np.ndarray,
) -> np.ndarray:
    """Tracking error minus the already-committed increment terms (ys, us newest first)."""
    r = y_ref - y_now
    for i, block in enumerate(output_blocks):
        r = r - block @ (ys[i] - ys[i + 1])
    for j in range(1, len(input_blocks)):
        r = r - input_blocks[j] @ (us[j - 1] - us[j])
    return r


def _cost(phi_u: np.ndarray, entries: np.ndarray, residual: np.ndarray, delta_u: np.ndarray) -> float:
    miss = residual - phi_u @ delta_u
    return float(miss @ miss + delta_u @ (entries * delta_u))


def _takes_min_norm(phi_u: np.ndarray, entries: np.ndarray):
    """Zero weighting on a lead block with more inputs than outputs, where Phi^T Phi is singular by shape.

    Stacked operands (leading row axis) give one flag per row.
    """
    return phi_u.shape[-1] > phi_u.shape[-2] and ~entries.any(axis=-1)


def _require_spanning(phi_u: np.ndarray) -> None:
    """Raise RankDeficiencyError unless the lead block has rank My (stacked: every row's block).

    The rank is numpy.linalg.matrix_rank's: the number of singular values
    above the largest times max(My, Mu) times the float64 epsilon, compared
    here on Python floats, which round as float64 does.  Of a stack the
    first row short of rank My raises.
    """
    outputs = phi_u.shape[-2]
    scale = max(phi_u.shape[-2:]) * _EPS
    for s in _lapack.svd_values(phi_u).reshape(-1, min(phi_u.shape[-2:])).tolist():
        tol = s[0] * scale  # singular values come largest first
        rank = sum(v > tol for v in s)
        if rank < outputs:
            raise RankDeficiencyError(
                f"lead block rank {rank} cannot reach all {outputs} outputs with zero weighting", rank=rank
            )


def _min_norm_increment(phi_u: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Minimum-norm du with phi_u du = residual; fewer independent rows than outputs is an error."""
    _require_spanning(phi_u)
    return np.linalg.lstsq(phi_u, residual, rcond=None)[0]


def _lead_solve(phi_u: np.ndarray, residual: np.ndarray, entries: np.ndarray, penalty: np.ndarray) -> np.ndarray:
    """The increment that minimizes _cost(phi_u, entries, residual, du); penalty is diag(entries).

    Under zero weighting a square lead block is rank tested first, so
    rounding in the factorisation does not decide whether a rank-deficient
    block raises.
    """
    if _takes_min_norm(phi_u, entries):
        return _min_norm_increment(phi_u, residual)
    zero = not entries.any()
    if zero and phi_u.shape[0] == phi_u.shape[1]:
        _require_spanning(phi_u)
    A = phi_u.T @ phi_u + penalty
    b = phi_u.T @ residual
    try:
        _lapack.cholesky(A)
        return _lapack.solve(A, b)
    except np.linalg.LinAlgError:
        if zero:
            return _min_norm_increment(phi_u, residual)
        return np.linalg.lstsq(A, b, rcond=None)[0]


def _solve_step(
    output_blocks: Sequence[np.ndarray],
    input_blocks: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    us: Sequence[np.ndarray],
    y_now: np.ndarray,
    y_ref: np.ndarray,
    entries: np.ndarray,
    penalty: np.ndarray,
) -> ControlDecision:
    """Core of mfac_step on validated operands; penalty is diag(entries)."""
    phi_u = input_blocks[0]
    residual = _history_residual(output_blocks, input_blocks, ys, us, y_now, y_ref)
    delta_u = _lead_solve(phi_u, residual, entries, penalty)
    return ControlDecision(
        delta_u=delta_u,
        u=us[0] + delta_u,
        cost=_cost(phi_u, entries, residual, delta_u),
        iterations=0,
        converged=True,
        output_blocks=output_blocks,
        input_blocks=input_blocks,
    )


def mfac_step(
    pjm: PseudoJacobian,
    window: RegressorWindow,
    y_now: np.ndarray,
    y_ref: np.ndarray,
    w: Weighting,
) -> ControlDecision:
    """Unconstrained one-step law: solve (Phi^T Phi + L) du = Phi^T residual.

    Takes the minimum-norm least-squares increment when the weighting is zero
    and the lead block is rank deficient in its columns but still spans the
    outputs: always when it has more inputs than outputs, otherwise when the
    normal equations fail to factor.  Fewer independent rows than outputs is
    an error (RankDeficiencyError); under zero weighting a square or wide
    lead block is rank tested for it with numpy.linalg.matrix_rank's
    tolerance before any solve.
    """
    y_now, y_ref = _check_controller_args((pjm.My, pjm.Mu, pjm.Ly, pjm.Lu), window, y_now, y_ref, w)
    return _solve_step(
        pjm.output_blocks, pjm.input_blocks, window.y_history, window.u_history, y_now, y_ref, w.entries, w.matrix
    )


def _box_step(
    output_blocks: Sequence[np.ndarray],
    input_blocks: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    us: Sequence[np.ndarray],
    y_now: np.ndarray,
    y_ref: np.ndarray,
    entries: np.ndarray,
    penalty: np.ndarray,
    box: BoxConstraints,
) -> ControlDecision:
    """Core of mfac_constrained_step on validated operands; penalty is diag(entries)."""
    u_prev = us[0]
    lo = box.lower - u_prev
    hi = box.upper - u_prev
    phi_u = input_blocks[0]
    residual = _history_residual(output_blocks, input_blocks, ys, us, y_now, y_ref)
    G = phi_u.T @ phi_u + penalty
    c = phi_u.T @ residual

    x = np.clip(np.zeros(u_prev.shape[0]), lo, hi)
    sweeps = 0
    for sweeps in range(1, SWEEP_MAX + 1):
        biggest = 0.0
        for j in range(x.shape[0]):
            coupled = G[j] @ x - G[j, j] * x[j]
            if G[j, j] > 0.0:
                new = (c[j] - coupled) / G[j, j]
            else:
                new = 0.0  # coordinate has no effect on the cost
            new = min(max(new, lo[j]), hi[j])
            biggest = max(biggest, abs(new - x[j]))
            x[j] = new
        if biggest < SWEEP_TOL:
            break
    u = box.clip(u_prev + x)
    return ControlDecision(
        delta_u=u - u_prev,
        u=u,
        cost=_cost(phi_u, entries, residual, x),
        iterations=sweeps,
        converged=biggest < SWEEP_TOL,
        output_blocks=output_blocks,
        input_blocks=input_blocks,
    )


def _check_box(box: BoxConstraints, size: int) -> None:
    if box.lower.shape != (size,):
        raise ShapeError(f"box bounds must have shape ({size},)")


def mfac_constrained_step(
    pjm: PseudoJacobian,
    window: RegressorWindow,
    y_now: np.ndarray,
    y_ref: np.ndarray,
    w: Weighting,
    box: BoxConstraints,
) -> ControlDecision:
    """Box-constrained one-step law via projected coordinate descent.

    Minimizes the same quadratic as mfac_step subject to
    lower <= u_prev + du <= upper.  Sweeps coordinates until the largest
    update falls below SWEEP_TOL or SWEEP_MAX sweeps elapse.
    """
    y_now, y_ref = _check_controller_args((pjm.My, pjm.Mu, pjm.Ly, pjm.Lu), window, y_now, y_ref, w)
    _check_box(box, window.dims.Mu)
    return _box_step(
        pjm.output_blocks, pjm.input_blocks, window.y_history, window.u_history, y_now, y_ref,
        w.entries, w.matrix, box,
    )


def _quartic_step(
    model: DifferentiableModel,
    args: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    us: Sequence[np.ndarray],
    y_now: np.ndarray,
    y_ref: np.ndarray,
    entries: np.ndarray,
    penalty: np.ndarray,
) -> ControlDecision:
    """Core of mfac_quartic_step on validated operands.

    args is the linearization point at step k-1.  Per step: the first-order
    blocks and increment, the slot Hessians, and the corrected blocks of all
    slots but the lead input one (their increments are fixed), so the
    residual too.  Per pass: the lead input block corrected at the iterate,
    and _lead_solve.  The cost is formed only for the pass returned (on a
    cap-out, for every pass).  A non-finite first-order block raises
    ValueError before the first solve.
    """
    Ly, Lu = model.dims.Ly, model.dims.Lu
    blocks = _first_order_blocks(model, args)
    out_blocks, in_blocks = blocks[:Ly], blocks[Ly:]
    _check_finite(out_blocks, in_blocks)
    residual = _history_residual(out_blocks, in_blocks, ys, us, y_now, y_ref)
    delta_u = _lead_solve(in_blocks[0], residual, entries, penalty)
    hessians = _slot_hessians(model, args)
    committed = [ys[i] - ys[i + 1] for i in range(Ly)]
    lagged = [us[j] - us[j + 1] for j in range(Lu - 1)]
    # Corrected at the first iterate; later passes redo only the lead input block, in_blocks[0].
    corrected = _curvature_corrected(blocks, hessians, committed + [delta_u] + lagged)
    out_blocks, in_blocks = corrected[:Ly], corrected[Ly:]
    residual = _history_residual(out_blocks, in_blocks, ys, us, y_now, y_ref)
    phi_u = in_blocks[0]

    tried = []  # (delta_u, lead block) of every pass
    converged = False
    for _ in range(QUARTIC_MAX_PASSES):
        step_du = _lead_solve(phi_u, residual, entries, penalty)
        tried.append((step_du, phi_u))
        if np.abs(step_du - delta_u).max() < QUARTIC_TOL:
            converged = True
            break
        delta_u = step_du
        phi_u = _curvature_corrected(blocks[Ly:Ly + 1], hessians[Ly:Ly + 1], [delta_u])[0]
    # The settled pass; on a cap-out the first of the lowest cost (min keeps the first, as a strict < scan does).
    step_du, phi_u = tried[-1] if converged else min(tried, key=lambda t: _cost(t[1], entries, residual, t[0]))
    return ControlDecision(delta_u=step_du, u=us[0] + step_du, cost=_cost(phi_u, entries, residual, step_du),
                           iterations=len(tried), converged=converged, output_blocks=out_blocks,
                           input_blocks=[phi_u] + in_blocks[1:])


def mfac_quartic_step(
    model: DifferentiableModel,
    window: RegressorWindow,
    y_now: np.ndarray,
    y_ref: np.ndarray,
    w: Weighting,
) -> ControlDecision:
    """One-step law under the curvature-corrected linearization.

    The cost is quartic in du because the predicted increment carries the
    half-Hessian terms.  Solved by fixed-point re-linearization: start from
    the first-order increment, rebuild the corrected blocks at the current
    iterate, re-solve the quadratic, and repeat until the iterate settles
    (QUARTIC_TOL in the max norm) or QUARTIC_MAX_PASSES elapse.  On a cap-out
    the best-cost iterate is returned flagged non-converged.  A non-finite
    entry in the returned blocks raises ValueError.
    """
    md = model.dims
    y_now, y_ref = _check_controller_args((md.My, md.Mu, md.Ly, md.Lu), window, y_now, y_ref, w)
    # Linearization point at step k-1.
    args = list(window.y_history[1:1 + md.Ly]) + list(window.u_history[:md.Lu])
    step = _quartic_step(model, args, window.y_history, window.u_history, y_now, y_ref, w.entries, w.matrix)
    _check_finite(step.output_blocks, step.input_blocks)
    return step
