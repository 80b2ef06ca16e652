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

from .edlm import (
    DifferentiableModel,
    PseudoJacobian,
    RegressorWindow,
    _check_finite,
    _curvature_corrected,
    _first_order_blocks,
    _operating_args,
    _padded_blocks,
    _slot_hessians,
)
from .errors import InfeasibleBoxError, RankDeficiencyError, ShapeError

QUARTIC_TOL = 1.0e-9
QUARTIC_MAX_PASSES = 50
SWEEP_TOL = 1.0e-10
SWEEP_MAX = 500


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


def _damping(cond: float) -> float:
    """Damping value that lambda_schedule puts on every entry."""
    if not np.isfinite(cond) or cond >= 20000.0:
        return 0.1
    if cond >= 5000.0:
        return 0.05
    return 0.0


def lambda_schedule(cond: float, size: int = 1) -> Weighting:
    """Damping stepped up with the conditioning of the lead block.

    cond < 5000 -> 0; 5000 <= cond < 20000 -> 0.05; cond >= 20000 or
    non-finite -> 0.1.  Boundary values take the larger damping.
    """
    return Weighting.uniform(_damping(cond), size)


def condition_number(m: np.ndarray) -> float:
    """Ratio of extreme singular values; infinite for rank-deficient input."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[-1] < 1.0e-300:
        return float("inf")
    return float(s[0] / s[-1])


class ControlDecision(NamedTuple):
    """One control step: increment, absolute input, diagnostics, and the blocks it used."""

    delta_u: np.ndarray
    u: np.ndarray
    cost: float
    iterations: int
    converged: bool
    output_blocks: Sequence[np.ndarray]
    input_blocks: Sequence[np.ndarray]

    @property
    def pjm(self) -> PseudoJacobian:
        """The blocks as a frozen, validated PseudoJacobian, built on each read."""
        return PseudoJacobian(output_blocks=tuple(self.output_blocks), input_blocks=tuple(self.input_blocks))


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


def _min_norm_increment(phi_u: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Minimum-norm du with phi_u du = residual; fewer independent rows than outputs is an error."""
    rank = int(np.linalg.matrix_rank(phi_u))
    if rank < phi_u.shape[0]:
        raise RankDeficiencyError(
            f"lead block rank {rank} cannot reach all {phi_u.shape[0]} outputs with zero weighting",
            rank=rank,
        )
    return np.linalg.lstsq(phi_u, residual, rcond=None)[0]


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
    if _takes_min_norm(phi_u, entries):
        delta_u = _min_norm_increment(phi_u, residual)
    else:
        A = phi_u.T @ phi_u + penalty
        b = phi_u.T @ residual
        try:
            np.linalg.cholesky(A)
            delta_u = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            if np.all(entries == 0.0):
                delta_u = _min_norm_increment(phi_u, residual)
            else:
                delta_u = np.linalg.lstsq(A, b, rcond=None)[0]
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
    an error.
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

    args is the linearization point at step k-1.  The first-order blocks and
    the slot Hessians do not depend on the iterate, so they are computed once;
    each pass only redoes the half-Hessian correction and the quadratic solve.
    A non-finite first-order block raises ValueError before the first solve.
    """
    dims = model.dims
    n_y = dims.ny + 1
    blocks = _first_order_blocks(model, args)
    out_blocks, in_blocks = _padded_blocks(dims, blocks)
    _check_finite(out_blocks, in_blocks)
    delta_u = _solve_step(out_blocks, in_blocks, ys, us, y_now, y_ref, entries, penalty).delta_u
    hessians = _slot_hessians(model, args)
    committed = [ys[i] - ys[i + 1] for i in range(n_y)]
    lagged = [us[j] - us[j + 1] if j + 1 < len(us) else np.zeros(dims.Mu) for j in range(dims.nu)]

    best: ControlDecision | None = None
    converged = False
    passes = 0
    for passes in range(1, QUARTIC_MAX_PASSES + 1):
        corrected = _curvature_corrected(blocks, hessians, committed + [delta_u] + lagged)
        step = _solve_step(*_padded_blocks(dims, corrected), ys, us, y_now, y_ref, entries, penalty)
        if best is None or step.cost < best.cost:
            best = step
        if np.max(np.abs(step.delta_u - delta_u)) < QUARTIC_TOL:
            converged = True
            break
        delta_u = step.delta_u
    chosen = step if converged else best
    return chosen._replace(iterations=passes, converged=converged)


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
    dims = window.dims
    if len(window.y_history) < dims.Ly + 1:
        raise ShapeError(f"window needs {dims.Ly + 1} output samples, has {len(window.y_history)}")
    point = RegressorWindow(dims=dims, k=window.k - 1, y_history=window.y_history[1:], u_history=window.u_history)
    args = _operating_args(model, point)
    md = model.dims
    y_now, y_ref = _check_controller_args((md.My, md.Mu, md.Ly, md.Lu), window, y_now, y_ref, w)
    step = _quartic_step(model, args, window.y_history, window.u_history, y_now, y_ref, w.entries, w.matrix)
    _check_finite(step.output_blocks, step.input_blocks)
    return step
