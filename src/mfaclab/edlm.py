"""Incremental (equivalent dynamic) linearization of multivariable discrete plants.

The plant family is y(k+1) = f(y(k), ..., y(k-Ly+1), u(k), ..., u(k-Lu+1)).
Over that window of Ly output increments and Lu input increments the one-step
output increment satisfies

    dy(k+1) = Phi_L(k)^T dH(k)

where dH(k) stacks [dy(k) ... dy(k-Ly+1), du(k) ... du(k-Lu+1)] and Phi_L
collects Ly blocks of shape (My, My) followed by Lu blocks of shape (My, Mu).
This module holds the regressor windows and builds the first- and
second-order pseudo-Jacobian approximations from a differentiable model.
"""

from __future__ import annotations

import functools
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

    My/Mu are the output/input vector sizes.  Ly/Lu are the window lengths:
    a model's argument slots are y(k), ..., y(k-Ly+1) and u(k), ..., u(k-Lu+1),
    and the pseudo-Jacobian has one block per slot.  Ly = 0 declares a static
    map with no output feedback; Lu = 1 means only u(k) enters.  A longer
    window than the plant needs is a model that declares the extra slots and
    ignores them; their blocks come out zero.
    """

    My: int
    Mu: int
    Ly: int
    Lu: int

    def __post_init__(self):
        if self.My < 1 or self.Mu < 1:
            raise ValueError(f"signal sizes must be positive, got My={self.My}, Mu={self.Mu}")
        if self.Ly < 0:
            raise ValueError(f"output window length must be >= 0, got Ly={self.Ly}")
        if self.Lu < 1:
            raise ValueError(f"input window length must be >= 1, got Lu={self.Lu}")

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
    linearization point carries at least Ly outputs and Lu inputs.  The
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
        a.setflags(write=False)
        out.append(a)
    return tuple(out)


def _check_finite(output_blocks: Sequence[np.ndarray], input_blocks: Sequence[np.ndarray]) -> None:
    """Raise ValueError naming the first block, output blocks first, with a non-finite entry."""
    if np.isfinite(np.concatenate([*output_blocks, *input_blocks], axis=-1)).all():  # one test for the common case
        return
    for kind, blocks in (("output", output_blocks), ("input", input_blocks)):
        for i, b in enumerate(blocks):
            if not np.isfinite(b).all():
                raise ValueError(f"{kind} block {i + 1} contains non-finite entries")


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
        _check_finite(self.output_blocks, self.input_blocks)

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
        return np.hstack([*self.output_blocks, *self.input_blocks])


def pjm_csv_header(dims: Dimensions) -> list[str]:
    """Column names for the row-major flattened pseudo-Jacobian."""
    widths = [dims.My] * dims.Ly + [dims.Mu] * dims.Lu
    names = []
    for r in range(dims.My):
        for b, w in enumerate(widths, start=1):
            for c in range(w):
                names.append(f"Phi{b}[{r},{c}]")
    return names


class DifferentiableModel(ABC):
    """A plant map y(k+1) = f(y(k),...,y(k-Ly+1), u(k),...,u(k-Lu+1)), with Ly and Lu from dims.

    evaluate takes the argument slots in that order (Ly = 0 drops the output
    slots entirely) and returns the next output vector.

    evaluate_batch takes the same slots with a leading batch axis, each of
    shape (B, size), and returns shape (B, My); row b must equal
    evaluate([slot[b] for slot in args]) bit for bit, because the
    finite-difference pseudo-Jacobians go through it.  The default loops over
    evaluate; override it only with arithmetic that rounds identically.
    Python floats do (numpy's array ** does not): float ** int calls the same
    libm pow as numpy's scalar **, and + and * round alike.  Where numpy
    gives inf or NaN, Python raises OverflowError or stays silent, so
    Example1Plant then redoes the rows on np.float64 scalars.
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
            raise NonFiniteModelError(f"model output component {bad} is non-finite", component=bad)
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
            raise NonFiniteModelError(f"model output component {bad} is non-finite", component=bad)
        return F


def predict_delta_output(pjm: PseudoJacobian, delta_regressor: np.ndarray) -> np.ndarray:
    """One-step output increment predicted by the linearized model."""
    dh = np.asarray(delta_regressor, dtype=float)
    flat = pjm.flattened()
    if dh.shape != (flat.shape[1],):
        raise ShapeError(f"delta regressor has shape {dh.shape}, expected ({flat.shape[1]},)")
    return flat @ dh


def _operating_args(model: DifferentiableModel, point: RegressorWindow) -> list[np.ndarray]:
    dims = model.dims
    if point.dims.My != dims.My or point.dims.Mu != dims.Mu:
        raise ShapeError("operating point signal sizes do not match the model")
    if len(point.y_history) < dims.Ly:
        raise ShapeError(f"operating point needs {dims.Ly} output samples, has {len(point.y_history)}")
    if len(point.u_history) < dims.Lu:
        raise ShapeError(f"operating point needs {dims.Lu} input samples, has {len(point.u_history)}")
    return list(point.y_history[:dims.Ly]) + list(point.u_history[:dims.Lu])


@functools.cache  # one entry per slot-width tuple; a program uses a handful
def _first_order_table(widths: tuple[int, ...]) -> tuple:
    """Stencil of _first_order_blocks: flat positions of (2i, i) and (2i+1, i) in the (2n, n) batch, slot columns."""
    n = sum(widths)
    up = np.arange(0, 2 * n * n, 2 * n + 1)
    bounds = np.cumsum((0,) + widths).tolist()
    return _read_only(up, up + n) + (tuple(slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])),)


@functools.cache  # one entry per slot-width tuple
def _hessian_table(widths: tuple[int, ...]) -> tuple:
    """Stencil of _slot_hessians for these slot widths.

    Row 0 of the batch is the centre.  Then, slot by slot, coordinate i gets
    rows stepped +h and -h, and each pair i < j of the slot four rows stepped
    (+h, +h), (+h, -h), (-h, +h), (-h, -h).  Returns the row count, the flat
    positions of the steps in the (rows, n) batch, the steps, the rows of the
    n diagonal entries (2, n) and of the mixed entries (4, m), and per slot
    the (w, w) index of its Hessian into the diagonal-then-mixed entries.
    """
    h = HESSIAN_STEP
    n = sum(widths)
    shifts, diag, mixed, gathers = [], [], [], []  # shifts: (row, column, step)
    row = 1
    for w, offset in zip(widths, np.cumsum((0,) + widths).tolist()):
        gather = np.empty((w, w), dtype=np.intp)
        for i in range(w):
            gather[i, i] = offset + i
            diag.append((row, row + 1))
            shifts += [(row, offset + i, h), (row + 1, offset + i, -h)]
            row += 2
            for j in range(i + 1, w):
                gather[i, j] = gather[j, i] = n + len(mixed)
                mixed.append((row, row + 1, row + 2, row + 3))
                for si, sj in ((h, h), (h, -h), (-h, h), (-h, -h)):
                    shifts += [(row, offset + i, si), (row, offset + j, sj)]
                    row += 1
        gathers.append(gather)
    at, columns, steps = (np.array(v) for v in zip(*shifts))
    return (row, *_read_only(at * n + columns, steps, np.array(diag).reshape(-1, 2).T,
                             np.array(mixed, dtype=np.intp).reshape(-1, 4).T), _read_only(*gathers))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _first_order_blocks(model: DifferentiableModel, args: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Central-difference derivative of f with respect to every argument slot.

    Coordinate i of the stacked arguments is stepped up in batch row 2i and
    down in row 2i+1; all rows go through one batched evaluation.  Block s
    has shape (My, width of slot s).
    """
    up, down, slots = _first_order_table(tuple(a.shape[0] for a in args))
    x = np.concatenate(args)
    h = np.maximum(FD_STEP, FD_STEP * np.abs(x))
    X = np.repeat(x[None, :], 2 * x.shape[0], axis=0)
    X.reshape(-1)[up] += h
    X.reshape(-1)[down] -= h
    F = model._checked_batch([X[:, s] for s in slots])
    D = ((F[0::2] - F[1::2]) / (2.0 * h)[:, None]).T
    return [D[:, s].copy() for s in slots]


def _stacked_first_order_blocks(model: DifferentiableModel, args: Sequence[np.ndarray]) -> list[np.ndarray]:
    """_first_order_blocks at B points at once; slot s has shape (B, width).

    Each point gets the 2n stencil rows of _first_order_blocks, and all B*2n
    rows go through one batched evaluation.  Block s has shape
    (B, My, width of slot s); point p's blocks carry the bits of a one-point
    call.  A separate function, so that the one-point path of simulate pays
    nothing for the batch axis.
    """
    up, down, slots = _first_order_table(tuple(a.shape[1] for a in args))
    x = np.concatenate(args, axis=1)
    count, n = x.shape
    h = np.maximum(FD_STEP, FD_STEP * np.abs(x))
    X = np.repeat(x[:, None, :], 2 * n, axis=1)
    per_point = X.reshape(count, -1)
    per_point[:, up] += h
    per_point[:, down] -= h
    X = X.reshape(count * 2 * n, n)
    F = model._checked_batch([X[:, s] for s in slots]).reshape(count, 2 * n, -1)
    D = ((F[:, 0::2] - F[:, 1::2]) / (2.0 * h)[:, :, None]).transpose(0, 2, 1)
    return [D[:, :, s].copy() for s in slots]


def _slot_hessians(model: DifferentiableModel, args: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Hessians of every output component with respect to each argument slot.

    Entry s has shape (My, w, w) where w is the width of slot s.  Nested
    central differences with a fixed step, all points in one batched
    evaluation (the rows of _hessian_table); the result is symmetrized by
    construction.
    """
    h = HESSIAN_STEP
    widths = tuple(a.shape[0] for a in args)
    rows, positions, steps, diag, mixed, gathers = _hessian_table(widths)
    slots = _first_order_table(widths)[2]
    x = np.concatenate(args)
    X = np.repeat(x[None, :], rows, axis=0)
    X.reshape(-1)[positions] += steps
    F = model._checked_batch([X[:, s] for s in slots])
    up, down = F[diag]
    pp, pm, mp, mm = F[mixed]
    entries = np.concatenate([(up - 2.0 * F[0] + down) / (h * h), (pp - pm - mp + mm) / (4.0 * h * h)])
    return [entries[g].transpose(2, 0, 1).copy() for g in gathers]


def _curvature_corrected(
    blocks: Sequence[np.ndarray], hessians: Sequence[np.ndarray], deltas: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Row r of slot block s gains 0.5 * deltas[s]^T * Hess(f_r) for that slot."""
    return [b + 0.5 * np.einsum("j,rjc->rc", d, H) for b, H, d in zip(blocks, hessians, deltas)]


def pjm_first_order(model: DifferentiableModel, operating_point: RegressorWindow) -> PseudoJacobian:
    """Derivative-block pseudo-Jacobian at the given linearization point.

    Block i (i = 1..Ly) is df/dy(k-i)^T and block Ly+j (j = 1..Lu) is
    df/du(k-j)^T, both evaluated at the newest entries of the window (the
    caller supplies the step-(k-1) history).  The block of a slot the model
    ignores is zero.
    """
    blocks = _first_order_blocks(model, _operating_args(model, operating_point))
    Ly = model.dims.Ly
    return PseudoJacobian(output_blocks=tuple(blocks[:Ly]), input_blocks=tuple(blocks[Ly:]))


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
    if len(delta_ys) < dims.Ly:
        raise ShapeError(f"need {dims.Ly} output increments, got {len(delta_ys)}")
    if len(delta_us) < dims.Lu:
        raise ShapeError(f"need {dims.Lu} input increments, got {len(delta_us)}")
    deltas = _as_vectors(delta_ys, dims.My, "delta_ys")[:dims.Ly] + _as_vectors(delta_us, dims.Mu, "delta_us")[:dims.Lu]
    blocks = _first_order_blocks(model, args)
    corrected = _curvature_corrected(blocks, _slot_hessians(model, args), deltas)
    return PseudoJacobian(output_blocks=tuple(corrected[:dims.Ly]), input_blocks=tuple(corrected[dims.Ly:]))
