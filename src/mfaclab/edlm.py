"""Incremental (equivalent dynamic) linearization of multivariable discrete plants.

The plant family is y(k+1) = f(y(k), ..., y(k-ny), u(k), ..., u(k-nu)).  Over a
window of Ly output increments and Lu input increments the one-step output
increment satisfies

    dy(k+1) = Phi_L(k)^T dH(k)

where dH(k) stacks [dy(k) ... dy(k-Ly+1), du(k) ... du(k-Lu+1)] and Phi_L
collects Ly blocks of shape (My, My) followed by Lu blocks of shape (My, Mu).
This module builds the regressor vectors and the first- and second-order
pseudo-Jacobian approximations from a differentiable model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonFiniteModelError, ShapeError

# Relative step for first-derivative central differences; the absolute floor
# keeps the step sane around zero operating points.
FD_STEP = 1.0e-6
# Fixed step for the nested second-derivative differences.  Smaller values
# lose too many digits in the double subtraction.
HESSIAN_STEP = 1.0e-4


@dataclass(frozen=True)
class Dimensions:
    """Signal sizes and window lengths of the incremental model.

    My/Mu are the output/input vector sizes, Ly/Lu the pseudo-order window
    lengths.  ny and nu are the true plant memory orders when known (ny = -1
    declares a static map with no output feedback; nu = 0 means only u(k)
    enters).
    """

    My: int
    Mu: int
    Ly: int
    Lu: int
    ny: int | None = None
    nu: int | None = None

    def __post_init__(self):
        if self.My < 1 or self.Mu < 1:
            raise ValueError(f"signal sizes must be positive, got My={self.My}, Mu={self.Mu}")
        if self.Ly < 0:
            raise ValueError(f"output window length must be >= 0, got Ly={self.Ly}")
        if self.Lu < 1:
            raise ValueError(f"input window length must be >= 1, got Lu={self.Lu}")
        if self.ny is not None and self.ny < -1:
            raise ValueError(f"output order ny must be >= -1, got {self.ny}")
        if self.nu is not None and self.nu < 0:
            raise ValueError(f"input order nu must be >= 0, got {self.nu}")

    @classmethod
    def preferred(cls, My: int, Mu: int, ny: int, nu: int) -> "Dimensions":
        """Window lengths matched to the true orders: Ly = ny+1, Lu = nu+1."""
        return cls(My=My, Mu=Mu, Ly=ny + 1, Lu=nu + 1, ny=ny, nu=nu)

    @property
    def width(self) -> int:
        """Length of the stacked increment vector dH(k)."""
        return self.Ly * self.My + self.Lu * self.Mu


def _as_vectors(history, size: int, label: str) -> tuple[np.ndarray, ...]:
    out = []
    for i, v in enumerate(history):
        a = np.array(v, dtype=float, ndmin=1)
        if a.shape != (size,):
            raise ShapeError(f"{label}[{i}] has shape {a.shape}, expected ({size},)")
        a.setflags(write=False)
        out.append(a)
    return tuple(out)


@dataclass(frozen=True)
class RegressorWindow:
    """Recent signal history, newest first.

    y_history[0] is y(k) for step index k; u_history[0] is the newest input
    held by the window.  A window used to build a full increment vector dH(k)
    carries at least Ly+1 outputs and Lu+1 inputs; a window passed as a
    linearization point carries at least ny+1 outputs and nu+1 inputs.  The
    operations validate the depth they actually need.
    """

    dims: Dimensions
    k: int
    y_history: tuple[np.ndarray, ...]
    u_history: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "y_history", _as_vectors(self.y_history, self.dims.My, "y_history"))
        object.__setattr__(self, "u_history", _as_vectors(self.u_history, self.dims.Mu, "u_history"))
        if len(self.u_history) < 1:
            raise ShapeError("u_history must hold at least one input sample")


def _frozen_blocks(blocks, shape: tuple[int, int], kind: str) -> tuple[np.ndarray, ...]:
    out = []
    for i, b in enumerate(blocks):
        a = np.array(b, dtype=float)
        if a.shape != shape:
            raise ShapeError(f"{kind} block {i + 1} has shape {a.shape}, expected {shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"{kind} block {i + 1} contains non-finite entries")
        a.setflags(write=False)
        out.append(a)
    return tuple(out)


@dataclass(frozen=True)
class PseudoJacobian:
    """Blocked gain estimate Phi_L(k): Ly output blocks then Lu input blocks."""

    output_blocks: tuple[np.ndarray, ...]
    input_blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.input_blocks) < 1:
            raise ShapeError("at least one input block (Lu >= 1) is required")
        My, Mu = np.shape(self.input_blocks[0])[:2]
        object.__setattr__(self, "output_blocks", _frozen_blocks(self.output_blocks, (My, My), "output"))
        object.__setattr__(self, "input_blocks", _frozen_blocks(self.input_blocks, (My, Mu), "input"))

    @classmethod
    def constant(cls, value: float, dims: Dimensions) -> "PseudoJacobian":
        """Every entry of every block set to the same value (warm-up seed)."""
        return cls(
            output_blocks=tuple(np.full((dims.My, dims.My), value) for _ in range(dims.Ly)),
            input_blocks=tuple(np.full((dims.My, dims.Mu), value) for _ in range(dims.Lu)),
        )

    @property
    def My(self) -> int:
        return self.input_blocks[0].shape[0]

    @property
    def Mu(self) -> int:
        return self.input_blocks[0].shape[1]

    @property
    def Ly(self) -> int:
        return len(self.output_blocks)

    @property
    def Lu(self) -> int:
        return len(self.input_blocks)

    @property
    def lead_input_block(self) -> np.ndarray:
        """The block multiplying du(k); it carries the control authority."""
        return self.input_blocks[0]

    def flattened(self) -> np.ndarray:
        """All blocks side by side: shape (My, Ly*My + Lu*Mu)."""
        return np.hstack(self.output_blocks + self.input_blocks)


def pjm_csv_header(dims: Dimensions) -> list[str]:
    """Column names for the row-major flattened pseudo-Jacobian."""
    widths = [dims.My] * dims.Ly + [dims.Mu] * dims.Lu
    names = []
    for r in range(dims.My):
        for b, w in enumerate(widths, start=1):
            for c in range(w):
                names.append(f"Phi{b}[{r},{c}]")
    return names


def pjm_csv_values(pjm: PseudoJacobian) -> list[float]:
    """Row-major flattened entries, matching pjm_csv_header order."""
    return [float(v) for v in pjm.flattened().ravel()]


class DifferentiableModel(ABC):
    """A plant map y(k+1) = f(y(k),...,y(k-ny), u(k),...,u(k-nu)).

    evaluate takes the argument slots in that order (ny = -1 drops the output
    slots entirely) and returns the next output vector.

    evaluate_batch takes the same slots with a leading batch axis, each of
    shape (B, size), and returns shape (B, My); row b must equal
    evaluate([slot[b] for slot in args]) bit for bit, because the
    finite-difference pseudo-Jacobians go through it.  The default loops over
    evaluate; override it only with arithmetic that rounds identically.
    """

    @property
    @abstractmethod
    def dims(self) -> Dimensions:
        ...

    @abstractmethod
    def evaluate(self, args: Sequence[np.ndarray]) -> np.ndarray:
        ...

    def evaluate_batch(self, args: Sequence[np.ndarray]) -> np.ndarray:
        return np.array([self.evaluate([a[b] for a in args]) for b in range(args[0].shape[0])], dtype=float)

    def _checked_eval(self, args: Sequence[np.ndarray]) -> np.ndarray:
        y = np.asarray(self.evaluate(args), dtype=float)
        if y.shape != (self.dims.My,):
            raise ShapeError(f"model returned shape {y.shape}, expected ({self.dims.My},)")
        if not np.isfinite(y).all():
            bad = int(np.flatnonzero(~np.isfinite(y))[0])
            raise NonFiniteModelError(f"model output component {bad} is non-finite", arg_index=bad)
        return y

    def _checked_batch(self, args: Sequence[np.ndarray]) -> np.ndarray:
        """evaluate_batch with the checks of _checked_eval; the first bad row decides the error."""
        count = args[0].shape[0]
        F = np.asarray(self.evaluate_batch(args), dtype=float)
        if F.shape != (count, self.dims.My):
            raise ShapeError(f"model returned shape {F.shape} for a batch, expected ({count}, {self.dims.My})")
        finite = np.isfinite(F)
        if not finite.all():
            bad = int(np.argwhere(~finite)[0, 1])
            raise NonFiniteModelError(f"model output component {bad} is non-finite", arg_index=bad)
        return F


def build_delta_regressor(window_now: RegressorWindow, window_prev: RegressorWindow) -> np.ndarray:
    """Stacked increment vector dH(k) between two aligned history windows."""
    dims = window_now.dims
    if window_prev.dims != dims:
        raise ShapeError(f"window dimensions disagree: {dims} vs {window_prev.dims}")
    if len(window_now.y_history) < dims.Ly or len(window_prev.y_history) < dims.Ly:
        raise ShapeError(f"need {dims.Ly} output samples per window for dH")
    if len(window_now.u_history) < dims.Lu or len(window_prev.u_history) < dims.Lu:
        raise ShapeError(f"need {dims.Lu} input samples per window for dH")
    parts = [window_now.y_history[i] - window_prev.y_history[i] for i in range(dims.Ly)]
    parts += [window_now.u_history[j] - window_prev.u_history[j] for j in range(dims.Lu)]
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


def predict_delta_output(pjm: PseudoJacobian, delta_regressor: np.ndarray) -> np.ndarray:
    """One-step output increment predicted by the linearized model."""
    dh = np.asarray(delta_regressor, dtype=float)
    flat = pjm.flattened()
    if dh.shape != (flat.shape[1],):
        raise ShapeError(f"delta regressor has shape {dh.shape}, expected ({flat.shape[1]},)")
    return flat @ dh


def _check_orders(dims: Dimensions) -> None:
    if dims.ny is None or dims.nu is None:
        raise ValueError("model orders ny, nu must be declared for pseudo-Jacobian computation")
    if dims.Ly < dims.ny + 1 or dims.Lu < dims.nu + 1:
        raise ValueError(
            f"window lengths Ly={dims.Ly}, Lu={dims.Lu} must cover the true orders "
            f"ny={dims.ny}, nu={dims.nu} (residual terms are not modelled)"
        )


def _operating_args(model: DifferentiableModel, point: RegressorWindow) -> list[np.ndarray]:
    dims = model.dims
    _check_orders(dims)
    if point.dims.My != dims.My or point.dims.Mu != dims.Mu:
        raise ShapeError("operating point signal sizes do not match the model")
    n_y = dims.ny + 1
    n_u = dims.nu + 1
    if len(point.y_history) < n_y:
        raise ShapeError(f"operating point needs {n_y} output samples, has {len(point.y_history)}")
    if len(point.u_history) < n_u:
        raise ShapeError(f"operating point needs {n_u} input samples, has {len(point.u_history)}")
    return list(point.y_history[:n_y]) + list(point.u_history[:n_u])


def _batch_args(args: Sequence[np.ndarray], shifts: list) -> list[np.ndarray]:
    """One copy of args per shift; a shift lists (slot, index, step) additions made in order."""
    batch = [np.repeat(a[None, :], len(shifts), axis=0) for a in args]
    for row, shift in enumerate(shifts):
        for slot, index, step in shift:
            batch[slot][row, index] += step
    return batch


def _first_order_blocks(model: DifferentiableModel, args: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Central-difference derivative of f with respect to every argument slot.

    Coordinate i of the stacked arguments is stepped up in batch row 2i and
    down in row 2i+1; all rows go through one batched evaluation.  Block s
    has shape (My, width of slot s).
    """
    x = np.concatenate(args)
    n = x.shape[0]
    h = np.maximum(FD_STEP, FD_STEP * np.abs(x))
    X = np.repeat(x[None, :], 2 * n, axis=0)
    # Flat positions of (2i, i); (2i+1, i) lies n further on.
    up = np.arange(0, 2 * n * n, 2 * n + 1)
    X.reshape(-1)[up] += h
    X.reshape(-1)[up + n] -= h
    bounds = [0]
    for a in args:
        bounds.append(bounds[-1] + a.shape[0])
    F = model._checked_batch([X[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])])
    D = ((F[0::2] - F[1::2]) / (2.0 * h)[:, None]).T
    return [D[:, lo:hi].copy() for lo, hi in zip(bounds, bounds[1:])]


def _slot_hessians(model: DifferentiableModel, args: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Hessians of every output component with respect to each argument slot.

    Entry s has shape (My, w, w) where w is the width of slot s.  Nested
    central differences with a fixed step, all points in one batched
    evaluation; the result is symmetrized by construction.
    """
    h = HESSIAN_STEP
    shifts = [[]]
    for slot, a in enumerate(args):
        for i in range(a.shape[0]):
            shifts += [[(slot, i, h)], [(slot, i, -h)]]
            for j in range(i + 1, a.shape[0]):
                shifts += [
                    [(slot, i, h), (slot, j, h)],
                    [(slot, i, h), (slot, j, -h)],
                    [(slot, i, -h), (slot, j, h)],
                    [(slot, i, -h), (slot, j, -h)],
                ]
    F = model._checked_batch(_batch_args(args, shifts))
    twice_f0 = 2.0 * F[0]
    row = 1
    out = []
    for a in args:
        w = a.shape[0]
        H = np.empty((model.dims.My, w, w))
        for i in range(w):
            H[:, i, i] = (F[row] - twice_f0 + F[row + 1]) / (h * h)
            row += 2
            for j in range(i + 1, w):
                mixed = (F[row] - F[row + 1] - F[row + 2] + F[row + 3]) / (4.0 * h * h)
                H[:, i, j] = mixed
                H[:, j, i] = mixed
                row += 4
        out.append(H)
    return out


def _curvature_corrected(
    blocks: Sequence[np.ndarray], hessians: Sequence[np.ndarray], deltas: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Row r of slot block s gains 0.5 * deltas[s]^T * Hess(f_r) for that slot."""
    return [b + 0.5 * np.einsum("j,rjc->rc", d, H) for b, H, d in zip(blocks, hessians, deltas)]


def _padded_blocks(dims: Dimensions, slot_blocks: Sequence[np.ndarray]) -> tuple[list, list]:
    """Output and input block lists of the window layout; blocks beyond the true orders are zero."""
    n_y = dims.ny + 1
    out_blocks = list(slot_blocks[:n_y]) + [np.zeros((dims.My, dims.My)) for _ in range(dims.Ly - n_y)]
    in_blocks = list(slot_blocks[n_y:]) + [np.zeros((dims.My, dims.Mu)) for _ in range(dims.Lu - dims.nu - 1)]
    return out_blocks, in_blocks


def pjm_first_order(model: DifferentiableModel, operating_point: RegressorWindow) -> PseudoJacobian:
    """Derivative-block pseudo-Jacobian at the given linearization point.

    Block i (i = 1..ny+1) is df/dy(k-i)^T and block Ly+j (j = 1..nu+1) is
    df/du(k-j)^T, both evaluated at the newest entries of the window (the
    caller supplies the step-(k-1) history).  Blocks beyond the true orders
    are zero.
    """
    args = _operating_args(model, operating_point)
    out_blocks, in_blocks = _padded_blocks(model.dims, _first_order_blocks(model, args))
    return PseudoJacobian(output_blocks=tuple(out_blocks), input_blocks=tuple(in_blocks))


def pjm_second_order(
    model: DifferentiableModel,
    operating_point: RegressorWindow,
    delta_ys: Sequence[np.ndarray],
    delta_us: Sequence[np.ndarray],
) -> PseudoJacobian:
    """First-order blocks plus half-Hessian corrections along the increments.

    Row r of the correction to block i is 0.5 * delta_i^T * Hess(f_r) for the
    matching argument slot, so the predicted increment reproduces the true one
    to third order when the plant has no cross-slot curvature.  delta_ys[0] is
    dy(k), delta_us[0] is du(k), older increments follow.
    """
    dims = model.dims
    args = _operating_args(model, operating_point)
    n_y = dims.ny + 1
    n_u = dims.nu + 1
    if len(delta_ys) < n_y:
        raise ShapeError(f"need {n_y} output increments, got {len(delta_ys)}")
    if len(delta_us) < n_u:
        raise ShapeError(f"need {n_u} input increments, got {len(delta_us)}")
    deltas = _as_vectors(delta_ys, dims.My, "delta_ys")[:n_y] + _as_vectors(delta_us, dims.Mu, "delta_us")[:n_u]
    blocks = _first_order_blocks(model, args)
    corrected = _curvature_corrected(blocks, _slot_hessians(model, args), deltas)
    out_blocks, in_blocks = _padded_blocks(dims, corrected)
    return PseudoJacobian(output_blocks=tuple(out_blocks), input_blocks=tuple(in_blocks))
