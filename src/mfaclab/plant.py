"""Benchmark plants, reference signals, and the closed-loop simulation harness."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from . import _lapack
from .controller import (
    BoxConstraints,
    ControlDecision,
    Weighting,
    _box_step,
    _check_box,
    _quartic_step,
    _require_spanning,
    _solve_step,
    _takes_min_norm,
)
from .edlm import (
    DifferentiableModel,
    Dimensions,
    PseudoJacobian,
    RegressorWindow,
    _check_finite,
    _first_order_blocks,
    _stacked_first_order_blocks,
    pjm_csv_header,
)
from .errors import DivergenceError, ShapeError

SIMLOG_SCHEMA = "mfaclab.simlog.v1"
DIVERGENCE_LIMIT = 1.0e6
EXAMPLE1_HORIZON = 800
VARIANTS = ("first_order", "quartic", "constrained")


class Example1Plant(DifferentiableModel):
    """Two-input two-output polynomial benchmark with one step of input memory.

    y1(k+1) = -0.1 y1(k)^3 + 0.2 y2(k)^2 + u1(k) + u2(k)^2 + u1(k-1)^3 + 2 u1(k-1)^4
    y2(k+1) = -0.1 y1(k)^2 + 0.2 y2(k)^3 + u1(k)^2 + 0.8 u2(k) + u1(k-1)^3 + u2(k-1)^3
    """

    _DIMS = Dimensions(My=2, Mu=2, Ly=1, Lu=2)

    @property
    def dims(self) -> Dimensions:
        return self._DIMS

    def evaluate(self, args: Sequence[np.ndarray]) -> np.ndarray:
        return _example1_outputs([np.concatenate(args, dtype=float).tolist()])[0]

    def evaluate_batch(self, args: Sequence[np.ndarray]) -> np.ndarray:
        return _example1_outputs(np.concatenate(args, axis=1, dtype=float).tolist())


def _example1_map(points) -> list:
    """The Example1Plant map on each point [y1, y2, u1, u2, v1, v2] (v is u(k-1)), outputs side by side."""
    out = []
    for y1, y2, u1, u2, v1, v2 in points:
        cube = v1 ** 3
        out += (-0.1 * y1 ** 3 + 0.2 * y2 ** 2 + u1 + u2 ** 2 + cube + 2.0 * v1 ** 4,
                -0.1 * y1 ** 2 + 0.2 * y2 ** 3 + u1 ** 2 + 0.8 * u2 + cube + v2 ** 3)
    return out


def _example1_outputs(points: list[list[float]]) -> np.ndarray:
    """_example1_map on Python floats, shape (len(points), 2), with the bits it has on np.float64 scalars.

    Where a power overflows (Python raises) or an output is not finite (Python is silent), on np.float64
    scalars instead: numpy's inf and NaN, with its RuntimeWarnings.  See DifferentiableModel.evaluate_batch.
    """
    try:
        flat = _example1_map(points)
        if math.isfinite(sum(flat)):
            return np.array(flat, dtype=float).reshape(len(points), 2)
    except OverflowError:
        pass
    return np.array(_example1_map([map(np.float64, p) for p in points]), dtype=float).reshape(len(points), 2)


class LTIPlant(DifferentiableModel):
    """y(k+1) = sum_i A_i y(k-i) + sum_j B_j u(k-j); empty A list drops output feedback."""

    def __init__(self, a_blocks: Sequence[np.ndarray], b_blocks: Sequence[np.ndarray]):
        if not b_blocks:
            raise ShapeError("at least one input block is required")
        self._b = [np.atleast_2d(np.asarray(b, dtype=float)) for b in b_blocks]
        My = self._b[0].shape[0]
        Mu = self._b[0].shape[1]
        self._a = [np.atleast_2d(np.asarray(a, dtype=float)) for a in a_blocks]
        for a in self._a:
            if a.shape != (My, My):
                raise ShapeError(f"output block shape {a.shape}, expected ({My}, {My})")
        for b in self._b:
            if b.shape != (My, Mu):
                raise ShapeError(f"input block shape {b.shape}, expected ({My}, {Mu})")
        self._dims = Dimensions(My=My, Mu=Mu, Ly=len(self._a), Lu=len(self._b))

    @property
    def dims(self) -> Dimensions:
        return self._dims

    def evaluate(self, args: Sequence[np.ndarray]) -> np.ndarray:
        out = np.zeros(self._b[0].shape[0])
        for m, x in zip(self._a + self._b, args):
            out += m @ x
        return out

    def evaluate_batch(self, args: Sequence[np.ndarray]) -> np.ndarray:
        out = np.zeros((args[0].shape[0], self._b[0].shape[0]))
        for m, x in zip(self._a + self._b, args):
            out += _stacked_mv(m, x)
        return out


class ReferenceSignal:
    """Sampled target trajectory; sample(k) returns the My-vector at step k."""

    def sample(self, k: int) -> np.ndarray:
        raise NotImplementedError


def example1_reference(k: int) -> np.ndarray:
    """Benchmark reference: mixed sinusoids for 800 steps, square wave after 400.

    Defined for 1 <= k <= EXAMPLE1_HORIZON.  The square-wave level uses
    rounding half away from zero, so the switch points land mid-plateau.
    """
    if not 1 <= k <= EXAMPLE1_HORIZON:
        raise ValueError(f"reference defined for 1 <= k <= {EXAMPLE1_HORIZON}, got k={k}")
    if k <= 400:
        y1 = 0.3 * math.sin(k / 40.0) - 0.2 * math.cos(k / 20.0)
        y2 = 0.2 * math.sin(k / 10.0) + 0.3 * math.sin(k / 30.0)
    else:
        level = 0.2 * (-1.0) ** math.floor(k / 50.0 + 0.5)
        y1 = level
        y2 = -level
    return np.array([y1, y2])


class Example1Reference(ReferenceSignal):
    def sample(self, k: int) -> np.ndarray:
        return example1_reference(k)


class RampReference(ReferenceSignal):
    """Unit-slope ramp k*Ts on every output."""

    def __init__(self, size: int, Ts: float = 1.0):
        self.size = size
        self.Ts = float(Ts)

    def sample(self, k: int) -> np.ndarray:
        return np.full(self.size, k * self.Ts)


class StepReference(ReferenceSignal):
    """Constant target on every output from step 1 on."""

    def __init__(self, size: int, amplitude: float = 1.0):
        self.size = size
        self.amplitude = float(amplitude)

    def sample(self, k: int) -> np.ndarray:
        return np.full(self.size, self.amplitude)


class ZeroReference(ReferenceSignal):
    def __init__(self, size: int):
        self.size = size

    def sample(self, k: int) -> np.ndarray:
        return np.zeros(self.size)


@dataclass
class SimLog:
    """A closed-loop run, one array entry per logged step, plus the configuration echo.

    Record k sits at index k - 1 of every array.  diverged_at is the step at
    which the output left the admissible region, 0 if the run finished.
    converged is the law's flag of each step (true on the pre-history rows
    and the final row); it stays in memory and is not written to the CSV.
    """

    dims: Dimensions
    variant: str
    weighting: Weighting
    y_ref: np.ndarray  # (n, My)
    y: np.ndarray  # (n, My)
    u: np.ndarray  # (n, Mu)
    delta_u: np.ndarray  # (n, Mu)
    cost: np.ndarray  # (n,)
    iterations: np.ndarray  # (n,)
    converged: np.ndarray  # (n,)
    output_blocks: np.ndarray  # (n, Ly, My, My)
    input_blocks: np.ndarray  # (n, Lu, My, Mu)
    box: BoxConstraints | None = None
    diverged_at: int = 0

    def __len__(self) -> int:
        return self.y.shape[0]

    def csv_header(self) -> list[str]:
        My, Mu = self.dims.My, self.dims.Mu
        cols = ["k"]
        cols += [f"y{i + 1}" for i in range(My)]
        cols += [f"yref{i + 1}" for i in range(My)]
        cols += [f"u{i + 1}" for i in range(Mu)]
        cols += [f"du{i + 1}" for i in range(Mu)]
        cols += ["cost", "iters"]
        cols += pjm_csv_header(self.dims)
        return cols

    def csv_rows(self) -> list[list]:
        """Each record's values in csv_header order.

        The block columns are each record's blocks side by side, as
        PseudoJacobian.flattened lays them out, read row-major.
        """
        n, d = len(self), self.dims
        signals = np.hstack([self.y, self.y_ref, self.u, self.delta_u, self.cost[:, None]]).tolist()
        blocks = np.concatenate([*self.output_blocks.swapaxes(0, 1), *self.input_blocks.swapaxes(0, 1)], axis=2)
        blocks = blocks.reshape(n, d.My * d.width).tolist()
        return [[k, *v, iters, *b]
                for k, v, iters, b in zip(range(1, n + 1), signals, self.iterations.tolist(), blocks)]

    def violations(self) -> int:
        """Records whose input lies outside the box; 0 when there is no box."""
        if self.box is None:
            return 0
        inside = (self.u >= self.box.lower) & (self.u <= self.box.upper)
        return int(np.count_nonzero(~inside.all(axis=1)))


def _cell(value) -> str:
    if type(value) is float:  # most cells, so tested first
        return repr(value)
    if isinstance(value, float):  # np.float64
        return repr(float(value))
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(fh: TextIO, schema: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a table under a schema line: integers as such, floats by repr.

    repr round-trips, so float() of every numeric cell gives back the row
    value bit for bit, NaN included.
    """
    fh.write(f"# schema: {schema}\n")
    # Column names may embed commas (e.g. Phi1[0,0]), so the header needs CSV quoting.
    csv.writer(fh, lineterminator="\n").writerow(header)
    for row in rows:
        fh.write(",".join(map(_cell, row)) + "\n")


@dataclass(frozen=True)
class MetricsReport:
    rmse: np.ndarray
    max_abs_error: np.ndarray
    constraint_violations: int


def metrics(log: SimLog, transient_cutoff: int) -> MetricsReport:
    """Tracking metrics over the records with k > transient_cutoff."""
    err = (log.y_ref - log.y)[max(transient_cutoff, 0):]
    if not len(err):
        raise ValueError(f"no records beyond transient cutoff {transient_cutoff}")
    return MetricsReport(
        rmse=np.sqrt(np.mean(err**2, axis=0)),
        max_abs_error=np.max(np.abs(err), axis=0),
        constraint_violations=log.violations(),
    )


def _padded(history: Sequence[np.ndarray], depth: int, size: int) -> list[np.ndarray]:
    out = [np.asarray(v, dtype=float).copy() for v in history]
    while len(out) < depth:
        out.append(np.zeros(size))
    return out


def _reference_sample(reference: ReferenceSignal, k: int, size: int) -> np.ndarray:
    sample = np.atleast_1d(np.asarray(reference.sample(k), dtype=float))
    if sample.shape != (size,):
        raise ShapeError(f"reference samples must have shape ({size},), got {sample.shape}")
    return sample


def _start(plant: DifferentiableModel, reference: ReferenceSignal, steps: int, init: RegressorWindow,
           weightings: Sequence[Weighting]) -> tuple[int, list, list, list]:
    """The argument checks and the start state shared by simulate and simulate_batch.

    Returns k0 = init.k, the init histories zero-padded to the depth the step
    loop reads, and the checked reference samples of steps 1 to k0.
    """
    dims = plant.dims
    if init.dims.My != dims.My or init.dims.Mu != dims.Mu:
        raise ShapeError("init window signal sizes do not match the plant")
    for w in weightings:
        if w.size != dims.Mu:
            raise ShapeError(f"weighting has {w.size} entries, expected {dims.Mu}")
    k0 = init.k
    if not 1 <= k0 <= steps:
        raise ValueError(f"init window step {k0} must lie in [1, {steps}]")
    y_hist = _padded(init.y_history, max(dims.Ly + 2, k0 + 1), dims.My)
    u_hist = _padded(init.u_history, max(dims.Lu + 1, k0), dims.Mu)
    refs = [_reference_sample(reference, k, dims.My) for k in range(1, k0 + 1)]
    return k0, y_hist, u_hist, refs


def _stacked_log(dims: Dimensions, variant: str, w: Weighting, box: BoxConstraints | None, records: list[tuple],
                 diverged_at: int = 0) -> SimLog:
    """The SimLog of per-step tuples that hold its array fields, y_ref to input_blocks, in order."""
    shapes = ((dims.My,), (dims.My,), (dims.Mu,), (dims.Mu,), (), (), (),
              (dims.Ly, dims.My, dims.My), (dims.Lu, dims.My, dims.Mu))
    dtypes = (float, float, float, float, float, int, bool, float, float)
    columns = list(zip(*records)) or [()] * len(shapes)
    arrays = [np.array(c, dtype=t).reshape(len(records), *s) for c, t, s in zip(columns, dtypes, shapes)]
    return SimLog(dims, variant, w, *arrays, box=box, diverged_at=diverged_at)


def simulate(
    plant: DifferentiableModel,
    controller_variant: str,
    reference: ReferenceSignal,
    steps: int,
    init: RegressorWindow,
    w: Weighting,
    box: BoxConstraints | None = None,
    pjm_seed: PseudoJacobian | None = None,
) -> SimLog:
    """Run the chosen MFAC variant against the plant and log every step.

    The init window carries the given history: y_history[0] = y(k0) and
    u_history[0] = u(k0 - 1) for the first controlled step k0 = init.k.  Steps
    before k0 are emitted as pre-history rows straight from the window (with
    the seed pseudo-Jacobian, if given, standing in for the not-yet-computable
    one).  The controller runs for k0 <= k < steps; the final row holds the
    last input since no later output is logged.  Any output leaving
    [-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT] aborts with a DivergenceError
    carrying the failing step and the partial log.

    The arguments are validated here, once; the loop then calls the control
    laws' cores on plain history lists and checks only what each step brings
    in: plant outputs, reference samples (the pre-history ones too), the
    divergence limit, and the finiteness of the step's pseudo-Jacobian blocks
    (ValueError otherwise), checked before the law solves on them.
    """
    if controller_variant not in VARIANTS:
        raise ValueError(f"unknown controller variant {controller_variant!r}, expected one of {VARIANTS}")
    if controller_variant == "constrained" and box is None:
        raise ValueError("constrained variant requires box constraints")
    dims = plant.dims
    if controller_variant == "constrained":
        _check_box(box, dims.Mu)
    k0, y_hist, u_hist, refs = _start(plant, reference, steps, init, (w,))
    Ly, Lu = dims.Ly, dims.Lu
    entries = w.entries
    penalty = w.matrix

    seed = pjm_seed if pjm_seed is not None else PseudoJacobian.constant(0.0, dims)

    # Pre-history rows come straight from the init window.
    records = []
    for k in range(1, k0):
        u_k = u_hist[k0 - 1 - k]
        records.append((refs[k - 1], y_hist[k0 - k], u_k, u_k - u_hist[k0 - k], 0.0, 0, True,
                        seed.output_blocks, seed.input_blocks))

    # Stands in for the last step when no step runs (k0 == steps).
    step = ControlDecision(delta_u=np.zeros(dims.Mu), u=u_hist[0], cost=0.0, iterations=0, converged=True,
                           output_blocks=seed.output_blocks, input_blocks=seed.input_blocks)
    ref_now = refs[-1]
    for k in range(k0, steps + 1):
        y_now = y_hist[0]
        if np.abs(y_now).max() > DIVERGENCE_LIMIT:
            raise DivergenceError(f"output left the admissible region at step {k}", step=k,
                                  log=_stacked_log(dims, controller_variant, w, box, records, diverged_at=k))
        if k < steps:
            target = _reference_sample(reference, k + 1, dims.My)
            # Linearization point at step k-1.
            args = y_hist[1:1 + Ly] + u_hist[:Lu]
            if controller_variant == "quartic":
                # Checks its first-order blocks before its first solve; the corrected ones after.
                step = _quartic_step(plant, args, y_hist, u_hist, y_now, target, entries, penalty)
                _check_finite(step.output_blocks, step.input_blocks)
            else:
                blocks = _first_order_blocks(plant, args)
                out_blocks, in_blocks = blocks[:Ly], blocks[Ly:]
                _check_finite(out_blocks, in_blocks)
                if controller_variant == "constrained":
                    step = _box_step(out_blocks, in_blocks, y_hist, u_hist, y_now, target, entries, penalty, box)
                else:
                    step = _solve_step(out_blocks, in_blocks, y_hist, u_hist, y_now, target, entries, penalty)
        else:  # the final row holds the last input and the last step's blocks
            step = step._replace(delta_u=np.zeros(dims.Mu), u=u_hist[0], cost=0.0, iterations=0, converged=True)
        records.append((ref_now, y_now, step.u, step.delta_u, step.cost, step.iterations, step.converged,
                        step.output_blocks, step.input_blocks))
        if k < steps:
            y_next = plant._checked_eval(y_hist[:Ly] + [step.u] + u_hist[:Lu - 1])
            y_hist = [y_next] + y_hist[:-1]
            u_hist = [step.u] + u_hist[:-1]
            ref_now = target
    return _stacked_log(dims, controller_variant, w, box, records)


def _stacked_mv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row b is m[b] @ v[b] (m @ v[b] for one shared m), with the bits of the per-row product.

    A stacked matrix-vector product rounds like `m @ x` row by row;
    `X @ m.T` goes through a matrix-matrix kernel and does not.
    """
    return np.matmul(m, v[..., None])[..., 0]


def _stacked_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row r is a[r] @ b[r], with the bits of the per-row product."""
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def _solve_fails(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the Cholesky check or the solve of _solve_step raises on this row."""
    try:
        _lapack.cholesky(a)
        _lapack.solve(a, b)
    except np.linalg.LinAlgError:
        return True
    return False


def _stacked_solve_step(
    output_blocks: Sequence[np.ndarray],
    input_blocks: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    us: Sequence[np.ndarray],
    y_now: np.ndarray,
    y_ref: np.ndarray,
    entries: np.ndarray,
    penalty: np.ndarray,
    rank_tested: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """_solve_step on a stack of rows: (delta_u, cost), each row with the bits of its own call.

    Every operand but the shared y_ref has a leading row axis.  The lead
    blocks of the rows in the mask rank_tested (None: no row) are rank tested
    in one stacked call, as _solve_step tests a square block under zero
    weighting.  Rows that take the minimum-norm increment by shape, and rows
    whose Cholesky check or solve fails, go through _solve_step itself, one
    by one, so its fallback has one implementation.
    """
    phi_u = input_blocks[0]
    r = y_ref - y_now
    for i, block in enumerate(output_blocks):
        r = r - _stacked_mv(block, ys[i] - ys[i + 1])
    for j in range(1, len(input_blocks)):
        r = r - _stacked_mv(input_blocks[j], us[j - 1] - us[j])
    if rank_tested is not None:
        _require_spanning(phi_u[rank_tested])
    phi_t = phi_u.transpose(0, 2, 1)
    A = np.matmul(phi_t, phi_u) + penalty
    b = _stacked_mv(phi_t, r)
    fallback = list(np.flatnonzero(_takes_min_norm(phi_u, entries)))
    if fallback:
        A[fallback] = np.eye(A.shape[1])  # placeholders, so that the stacked solve covers the other rows
    try:
        _lapack.cholesky(A)
        delta_u = _lapack.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        fallback += [i for i in range(A.shape[0]) if _solve_fails(A[i], b[i])]  # placeholder rows solve
        A[fallback] = np.eye(A.shape[1])
        delta_u = _lapack.solve(A, b[..., None])[..., 0]
    miss = r - _stacked_mv(phi_u, delta_u)
    cost = _stacked_dot(miss, miss) + _stacked_dot(delta_u, entries * delta_u)
    for i in fallback:
        step = _solve_step([m[i] for m in output_blocks], [m[i] for m in input_blocks], [v[i] for v in ys],
                           [v[i] for v in us], y_now[i], y_ref, entries[i], penalty[i])
        delta_u[i] = step.delta_u
        cost[i] = step.cost
    return delta_u, cost


def simulate_batch(
    plant: DifferentiableModel,
    reference: ReferenceSignal,
    steps: int,
    init: RegressorWindow,
    weightings: Sequence[Weighting],
) -> list[SimLog]:
    """Run the first-order law once per weighting on one plant, all runs stacked.

    Log i gives, bit for bit, the log of simulate(plant, "first_order",
    reference, steps, init, weightings[i]); the reference and the init window
    are shared.  Each step is one stacked pass over the rows still running:
    one batched plant evaluation for all their finite-difference points,
    stacked normal equations, one stacked Cholesky check and solve (rows
    where either fails take controller._solve_step's fallback, one by one),
    and one batched plant step.  A row whose output leaves
    [-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT] leaves the stack at that step and
    keeps its partial records, the log its DivergenceError would carry
    (SimLog.diverged_at); it raises nothing.  Every other error of simulate
    (argument checks, reference and plant output shape, non-finite plant
    outputs or pseudo-Jacobian blocks, a rank-deficient lead block under zero
    weighting) is raised for the whole batch.  The blocks are checked before
    the solve.  Each log is a view into arrays shared by the batch.
    """
    dims = plant.dims
    weightings = tuple(weightings)
    if not weightings:
        raise ValueError("simulate_batch needs at least one weighting")
    k0, y_hist, u_hist, refs = _start(plant, reference, steps, init, weightings)
    count = len(weightings)
    y_hist = [np.repeat(v[None], count, axis=0) for v in y_hist]
    u_hist = [np.repeat(v[None], count, axis=0) for v in u_hist]
    Ly, Lu = dims.Ly, dims.Lu
    entries = np.array([w.entries for w in weightings])
    penalty = np.array([w.matrix for w in weightings])
    # Zero-weight rows on a square lead block, which _solve_step rank tests at every step.
    zero = ~entries.any(axis=1) & (dims.Mu == dims.My)
    rank_tested = zero if zero.any() else None

    # Row i's record k sits at [i, k - 1]; entries past a diverged row's records are not records.
    y_ref = np.full((steps, dims.My), np.nan)  # shared by every row
    y_log = np.full((count, steps, dims.My), np.nan)
    u_log = np.full((count, steps, dims.Mu), np.nan)
    du_log = np.full((count, steps, dims.Mu), np.nan)
    cost_log = np.full((count, steps), np.nan)
    out_log = np.zeros((count, steps, dims.Ly, dims.My, dims.My))  # the zero seed where no step ran
    in_log = np.zeros((count, steps, dims.Lu, dims.My, dims.Mu))
    diverged_at = np.zeros(count, dtype=int)

    # Pre-history rows come straight from the init window.
    y_ref[:k0] = refs
    for k in range(1, k0):
        y_log[:, k - 1] = y_hist[k0 - k]
        u_log[:, k - 1] = u_hist[k0 - 1 - k]
        du_log[:, k - 1] = u_hist[k0 - 1 - k] - u_hist[k0 - k]
        cost_log[:, k - 1] = 0.0

    rows = np.arange(count)  # the rows still running, in batch order
    for k in range(k0, steps + 1):
        y_now = y_hist[0]
        left = np.abs(y_now).max(axis=1) > DIVERGENCE_LIMIT
        if left.any():
            diverged_at[rows[left]] = k
            stay = ~left
            rows = rows[stay]
            if rows.size == 0:
                break
            y_hist = [v[stay] for v in y_hist]
            u_hist = [v[stay] for v in u_hist]
            entries, penalty, zero = entries[stay], penalty[stay], zero[stay]
            rank_tested = zero if zero.any() else None
            y_now = y_hist[0]
        at = (rows, k - 1)
        y_log[at] = y_now
        if k == steps:  # the final row holds the last input and the last step's blocks
            u_log[at] = u_hist[0]
            du_log[at] = 0.0
            cost_log[at] = 0.0
            if k > k0:
                out_log[at] = out_log[rows, k - 2]
                in_log[at] = in_log[rows, k - 2]
            break
        target = _reference_sample(reference, k + 1, dims.My)
        # Linearization point at step k-1.
        blocks = _stacked_first_order_blocks(plant, y_hist[1:1 + Ly] + u_hist[:Lu])
        out_blocks, in_blocks = blocks[:Ly], blocks[Ly:]
        _check_finite(out_blocks, in_blocks)
        delta_u, cost = _stacked_solve_step(out_blocks, in_blocks, y_hist, u_hist, y_now, target, entries, penalty,
                                            rank_tested)
        u = u_hist[0] + delta_u
        u_log[at] = u
        du_log[at] = delta_u
        cost_log[at] = cost
        for i, block in enumerate(out_blocks):
            out_log[rows, k - 1, i] = block
        for j, block in enumerate(in_blocks):
            in_log[rows, k - 1, j] = block
        y_next = plant._checked_batch(y_hist[:Ly] + [u] + u_hist[:Lu - 1])
        y_hist = [y_next] + y_hist[:-1]
        u_hist = [u] + u_hist[:-1]
        y_ref[k] = target

    # The first-order law takes no iterations and always converges.
    iterations = np.zeros(steps, dtype=int)
    converged = np.ones(steps, dtype=bool)
    logs = []
    for i, w in enumerate(weightings):
        n = diverged_at[i] - 1 if diverged_at[i] else steps
        logs.append(SimLog(dims, "first_order", w, y_ref[:n], y_log[i, :n], u_log[i, :n], du_log[i, :n],
                           cost_log[i, :n], iterations[:n], converged[:n], out_log[i, :n], in_log[i, :n],
                           diverged_at=int(diverged_at[i])))
    return logs
