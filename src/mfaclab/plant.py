"""Benchmark plants, reference signals, and the closed-loop simulation harness."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np

from .controller import (
    BoxConstraints,
    ControlDecision,
    Weighting,
    _box_step,
    _check_box,
    _quartic_step,
    _solve_step,
    _takes_min_norm,
)
from .edlm import (
    DifferentiableModel,
    Dimensions,
    PseudoJacobian,
    RegressorWindow,
    _check_finite,
    _check_orders,
    _csv_values,
    _first_order_blocks,
    _padded_blocks,
    _stacked_first_order_blocks,
    pjm_csv_header,
)
from .errors import DivergenceError, ShapeError

SIMLOG_SCHEMA = "mfaclab.simlog.v1"
DIVERGENCE_LIMIT = 1.0e6
VARIANTS = ("first_order", "quartic", "constrained")


class Example1Plant(DifferentiableModel):
    """Two-input two-output polynomial benchmark with one step of input memory.

    y1(k+1) = -0.1 y1(k)^3 + 0.2 y2(k)^2 + u1(k) + u2(k)^2 + u1(k-1)^3 + 2 u1(k-1)^4
    y2(k+1) = -0.1 y1(k)^2 + 0.2 y2(k)^3 + u1(k)^2 + 0.8 u2(k) + u1(k-1)^3 + u2(k-1)^3
    """

    _DIMS = Dimensions.preferred(My=2, Mu=2, ny=0, nu=1)

    @property
    def dims(self) -> Dimensions:
        return self._DIMS

    def evaluate(self, args: Sequence[np.ndarray]) -> np.ndarray:
        y, u, v = args
        y1 = -0.1 * y[0] ** 3 + 0.2 * y[1] ** 2 + u[0] + u[1] ** 2 + v[0] ** 3 + 2.0 * v[0] ** 4
        y2 = -0.1 * y[0] ** 2 + 0.2 * y[1] ** 3 + u[0] ** 2 + 0.8 * u[1] + v[0] ** 3 + v[1] ** 3
        return np.array([y1, y2])


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
        self._dims = Dimensions.preferred(My=My, Mu=Mu, ny=len(self._a) - 1, nu=len(self._b) - 1)

    @property
    def dims(self) -> Dimensions:
        return self._dims

    def evaluate(self, args: Sequence[np.ndarray]) -> np.ndarray:
        out = np.zeros(self._b[0].shape[0])
        for m, x in zip(self._a + self._b, args):
            out += m @ x
        return out

    def evaluate_batch(self, args: Sequence[np.ndarray]) -> np.ndarray:
        # A stacked matrix-vector product rounds like `m @ x` row by row;
        # `X @ m.T` goes through a matrix-matrix kernel and does not.
        out = np.zeros((args[0].shape[0], self._b[0].shape[0]))
        for m, x in zip(self._a + self._b, args):
            out += np.matmul(m, x[..., None])[..., 0]
        return out


class ReferenceSignal:
    """Sampled target trajectory; sample(k) returns the My-vector at step k."""

    def sample(self, k: int) -> np.ndarray:
        raise NotImplementedError


def example1_reference(k: int) -> np.ndarray:
    """Benchmark reference: mixed sinusoids for 800 steps, square wave after 400.

    Defined for 1 <= k <= 800.  The square-wave level uses rounding half away
    from zero, so the switch points land mid-plateau.
    """
    if not 1 <= k <= 800:
        raise ValueError(f"reference defined for 1 <= k <= 800, got k={k}")
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


@dataclass(frozen=True)
class SimRecord:
    """One logged step of a closed-loop run, with the raw pseudo-Jacobian blocks of the step."""

    k: int
    y: np.ndarray
    y_ref: np.ndarray
    u: np.ndarray
    delta_u: np.ndarray
    output_blocks: Sequence[np.ndarray]
    input_blocks: Sequence[np.ndarray]
    cost: float
    iterations: int

    @property
    def pjm(self) -> PseudoJacobian:
        """The blocks as a frozen, validated PseudoJacobian, built on each read."""
        return PseudoJacobian(output_blocks=tuple(self.output_blocks), input_blocks=tuple(self.input_blocks))


@dataclass
class SimLog:
    """Per-step records plus the configuration echo needed to interpret them."""

    dims: Dimensions
    variant: str
    weighting: Weighting
    box: BoxConstraints | None = None
    records: list[SimRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

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
        """Each record's values in csv_header order."""
        return [
            [r.k, *map(float, r.y), *map(float, r.y_ref), *map(float, r.u),
             *map(float, r.delta_u), float(r.cost), r.iterations,
             *_csv_values(r.output_blocks, r.input_blocks)]
            for r in self.records
        ]

    def to_csv(self, fh: TextIO) -> list[list]:
        """Write the log as CSV and return the rows written, in csv_header order."""
        rows = self.csv_rows()
        write_csv(fh, SIMLOG_SCHEMA, self.csv_header(), rows)
        return rows

    def violations(self) -> int:
        """Records whose input lies outside the box; 0 when there is no box."""
        if self.box is None:
            return 0
        return sum(not self.box.contains(r.u) for r in self.records)


def _cell(value) -> str:
    if isinstance(value, float):  # np.float64 too; most cells, so tested first
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
        fh.write(",".join(_cell(v) for v in row) + "\n")


@dataclass(frozen=True)
class MetricsReport:
    rmse: np.ndarray
    max_abs_error: np.ndarray
    constraint_violations: int


def metrics(log: SimLog, transient_cutoff: int) -> MetricsReport:
    """Tracking metrics over the records with k > transient_cutoff."""
    rows = [r for r in log.records if r.k > transient_cutoff]
    if not rows:
        raise ValueError(f"no records beyond transient cutoff {transient_cutoff}")
    err = np.array([r.y_ref - r.y for r in rows])
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
    in: plant outputs, reference samples, the divergence limit, and the
    finiteness of the step's pseudo-Jacobian blocks (ValueError otherwise),
    checked before the law solves on them.
    """
    if controller_variant not in VARIANTS:
        raise ValueError(f"unknown controller variant {controller_variant!r}, expected one of {VARIANTS}")
    if controller_variant == "constrained" and box is None:
        raise ValueError("constrained variant requires box constraints")
    dims = plant.dims
    if init.dims.My != dims.My or init.dims.Mu != dims.Mu:
        raise ShapeError("init window signal sizes do not match the plant")
    _check_orders(dims)
    if w.size != dims.Mu:
        raise ShapeError(f"weighting has {w.size} entries, expected {dims.Mu}")
    if controller_variant == "constrained":
        _check_box(box, dims.Mu)
    k0 = init.k
    if not 1 <= k0 <= steps:
        raise ValueError(f"init window step {k0} must lie in [1, {steps}]")

    depth_y = max(dims.Ly + 2, dims.ny + 3, k0 + 1)
    depth_u = max(dims.Lu + 1, dims.nu + 2, k0)
    y_hist = _padded(init.y_history, depth_y, dims.My)
    u_hist = _padded(init.u_history, depth_u, dims.Mu)
    n_y = dims.ny + 1
    n_u = dims.nu + 1
    entries = w.entries
    penalty = w.matrix

    log = SimLog(dims=dims, variant=controller_variant, weighting=w, box=box)
    seed = pjm_seed if pjm_seed is not None else PseudoJacobian.constant(0.0, dims)

    # Pre-history rows come straight from the init window.
    for k in range(1, k0):
        y_k = y_hist[k0 - k]
        u_k = u_hist[k0 - 1 - k]
        du = u_k - u_hist[k0 - k]
        log.records.append(
            SimRecord(k=k, y=y_k, y_ref=reference.sample(k), u=u_k, delta_u=du,
                      output_blocks=seed.output_blocks, input_blocks=seed.input_blocks, cost=0.0, iterations=0)
        )

    # Stands in for the last step when no step runs (k0 == steps).
    step = ControlDecision(delta_u=np.zeros(dims.Mu), u=u_hist[0], cost=0.0, iterations=0, converged=True,
                           output_blocks=seed.output_blocks, input_blocks=seed.input_blocks)
    ref_now = reference.sample(k0)
    for k in range(k0, steps + 1):
        y_now = y_hist[0]
        if np.abs(y_now).max() > DIVERGENCE_LIMIT:
            raise DivergenceError(f"output left the admissible region at step {k}", step=k, log=log)
        if k < steps:
            ref_next = reference.sample(k + 1)
            target = np.atleast_1d(np.asarray(ref_next, dtype=float))
            if target.shape != (dims.My,):
                raise ShapeError(f"reference samples must have shape ({dims.My},), got {target.shape}")
            # Linearization point at step k-1.
            args = y_hist[1:1 + n_y] + u_hist[:n_u]
            if controller_variant == "quartic":
                # Checks its first-order blocks before its first solve; the corrected ones after.
                step = _quartic_step(plant, args, y_hist, u_hist, y_now, target, entries, penalty)
                _check_finite(step.output_blocks, step.input_blocks)
            else:
                blocks = _padded_blocks(dims, _first_order_blocks(plant, args))
                _check_finite(*blocks)
                if controller_variant == "constrained":
                    step = _box_step(*blocks, y_hist, u_hist, y_now, target, entries, penalty, box)
                else:
                    step = _solve_step(*blocks, y_hist, u_hist, y_now, target, entries, penalty)
        else:  # the final row holds the last input and the last step's blocks
            step = step._replace(delta_u=np.zeros(dims.Mu), u=u_hist[0], cost=0.0, iterations=0)
        log.records.append(
            SimRecord(k=k, y=y_now, y_ref=ref_now, u=step.u, delta_u=step.delta_u, output_blocks=step.output_blocks,
                      input_blocks=step.input_blocks, cost=step.cost, iterations=step.iterations)
        )
        if k < steps:
            y_next = plant._checked_eval(y_hist[:n_y] + [step.u] + u_hist[:dims.nu])
            y_hist = [y_next] + y_hist[:-1]
            u_hist = [step.u] + u_hist[:-1]
            ref_now = ref_next
    return log


@dataclass
class BatchLog:
    """The records of simulate_batch, stacked; row i ran under weightings[i].

    Record k of row i sits at index k - 1 of the step axis.  diverged_at[i]
    is the step at which row i's output left the admissible region, 0 if the
    row ran to the end; a diverged row logged diverged_at[i] - 1 records, and
    entries past them are not records.
    """

    dims: Dimensions
    weightings: tuple[Weighting, ...]
    y_ref: np.ndarray  # (steps, My), shared by every row
    y: np.ndarray  # (B, steps, My)
    u: np.ndarray  # (B, steps, Mu)
    delta_u: np.ndarray  # (B, steps, Mu)
    cost: np.ndarray  # (B, steps)
    output_blocks: np.ndarray  # (B, steps, Ly, My, My)
    input_blocks: np.ndarray  # (B, steps, Lu, My, Mu)
    diverged_at: np.ndarray  # (B,)

    def length(self, i: int) -> int:
        """Records logged by row i."""
        return int(self.diverged_at[i]) - 1 if self.diverged_at[i] else self.y.shape[1]

    def log(self, i: int) -> SimLog:
        """Row i as the SimLog of simulate: the partial log carried by its DivergenceError if it diverged."""
        out, inp = self.output_blocks[i], self.input_blocks[i]
        records = [
            SimRecord(k=n + 1, y=self.y[i, n], y_ref=self.y_ref[n], u=self.u[i, n], delta_u=self.delta_u[i, n],
                      output_blocks=tuple(out[n]), input_blocks=tuple(inp[n]), cost=float(self.cost[i, n]),
                      iterations=0)
            for n in range(self.length(i))
        ]
        return SimLog(dims=self.dims, variant="first_order", weighting=self.weightings[i], records=records)


def _stacked_mv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row b is m[b] @ v[b], with the bits of the per-row product."""
    return np.matmul(m, v[..., None])[..., 0]


def _stacked_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row r is a[r] @ b[r], with the bits of the per-row product."""
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def _solve_fails(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the Cholesky check or the solve of _solve_step raises on this row."""
    try:
        np.linalg.cholesky(a)
        np.linalg.solve(a, b)
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
) -> tuple[np.ndarray, np.ndarray]:
    """_solve_step on a stack of rows: (delta_u, cost), each row with the bits of its own call.

    Every operand but the shared y_ref has a leading row axis.  Rows that
    take the minimum-norm increment by shape, and rows whose Cholesky check
    or solve fails, go through _solve_step itself, one by one, so its
    fallback has one implementation.
    """
    phi_u = input_blocks[0]
    r = y_ref - y_now
    for i, block in enumerate(output_blocks):
        r = r - _stacked_mv(block, ys[i] - ys[i + 1])
    for j in range(1, len(input_blocks)):
        r = r - _stacked_mv(input_blocks[j], us[j - 1] - us[j])
    phi_t = phi_u.transpose(0, 2, 1)
    A = np.matmul(phi_t, phi_u) + penalty
    b = _stacked_mv(phi_t, r)
    fallback = list(np.flatnonzero(_takes_min_norm(phi_u, entries)))
    if fallback:
        A[fallback] = np.eye(A.shape[1])  # placeholders, so that the stacked solve covers the other rows
    try:
        np.linalg.cholesky(A)
        delta_u = np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        fallback += [i for i in range(A.shape[0]) if _solve_fails(A[i], b[i])]  # placeholder rows solve
        A[fallback] = np.eye(A.shape[1])
        delta_u = np.linalg.solve(A, b[..., None])[..., 0]
    miss = r - _stacked_mv(phi_u, delta_u)
    cost = _stacked_dot(miss, miss) + _stacked_dot(delta_u, entries * delta_u)
    for i in fallback:
        step = _solve_step([m[i] for m in output_blocks], [m[i] for m in input_blocks], [v[i] for v in ys],
                           [v[i] for v in us], y_now[i], y_ref, entries[i], penalty[i])
        delta_u[i] = step.delta_u
        cost[i] = step.cost
    return delta_u, cost


def _reference_sample(reference: ReferenceSignal, k: int, size: int) -> np.ndarray:
    sample = np.atleast_1d(np.asarray(reference.sample(k), dtype=float))
    if sample.shape != (size,):
        raise ShapeError(f"reference samples must have shape ({size},), got {sample.shape}")
    return sample


def simulate_batch(
    plant: DifferentiableModel,
    reference: ReferenceSignal,
    steps: int,
    init: RegressorWindow,
    weightings: Sequence[Weighting],
) -> BatchLog:
    """Run the first-order law once per weighting on one plant, all runs stacked.

    Row i gives, bit for bit, the log of simulate(plant, "first_order",
    reference, steps, init, weightings[i]); the reference and the init window
    are shared.  Each step is one stacked pass over the rows still running:
    one batched plant evaluation for all their finite-difference points,
    stacked normal equations, one stacked Cholesky check and solve (rows
    where either fails take controller._solve_step's fallback, one by one),
    and one batched plant step.  A row whose output leaves
    [-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT] leaves the stack at that step and
    keeps its partial records (BatchLog.diverged_at); it raises nothing.
    Every other error of simulate (argument checks, reference and plant
    output shape, non-finite plant outputs or pseudo-Jacobian blocks, a
    rank-deficient lead block under zero weighting) is raised for the whole
    batch.  The blocks are checked before the solve.
    """
    dims = plant.dims
    if init.dims.My != dims.My or init.dims.Mu != dims.Mu:
        raise ShapeError("init window signal sizes do not match the plant")
    _check_orders(dims)
    weightings = tuple(weightings)
    if not weightings:
        raise ValueError("simulate_batch needs at least one weighting")
    for i, w in enumerate(weightings):
        if w.size != dims.Mu:
            raise ShapeError(f"weighting {i} has {w.size} entries, expected {dims.Mu}")
    k0 = init.k
    if not 1 <= k0 <= steps:
        raise ValueError(f"init window step {k0} must lie in [1, {steps}]")

    count = len(weightings)
    depth_y = max(dims.Ly + 2, dims.ny + 3, k0 + 1)
    depth_u = max(dims.Lu + 1, dims.nu + 2, k0)
    y_hist = [np.repeat(v[None], count, axis=0) for v in _padded(init.y_history, depth_y, dims.My)]
    u_hist = [np.repeat(v[None], count, axis=0) for v in _padded(init.u_history, depth_u, dims.Mu)]
    n_y = dims.ny + 1
    n_u = dims.nu + 1
    entries = np.array([w.entries for w in weightings])
    penalty = np.array([w.matrix for w in weightings])

    log = BatchLog(
        dims=dims, weightings=weightings,
        y_ref=np.full((steps, dims.My), np.nan),
        y=np.full((count, steps, dims.My), np.nan),
        u=np.full((count, steps, dims.Mu), np.nan),
        delta_u=np.full((count, steps, dims.Mu), np.nan),
        cost=np.full((count, steps), np.nan),
        output_blocks=np.zeros((count, steps, dims.Ly, dims.My, dims.My)),  # the zero seed where no step ran
        input_blocks=np.zeros((count, steps, dims.Lu, dims.My, dims.Mu)),
        diverged_at=np.zeros(count, dtype=int),
    )

    # Pre-history rows come straight from the init window.
    for k in range(1, k0):
        log.y_ref[k - 1] = _reference_sample(reference, k, dims.My)
        log.y[:, k - 1] = y_hist[k0 - k]
        log.u[:, k - 1] = u_hist[k0 - 1 - k]
        log.delta_u[:, k - 1] = u_hist[k0 - 1 - k] - u_hist[k0 - k]
        log.cost[:, k - 1] = 0.0

    rows = np.arange(count)  # the rows still running, in batch order
    log.y_ref[k0 - 1] = _reference_sample(reference, k0, dims.My)
    for k in range(k0, steps + 1):
        y_now = y_hist[0]
        left = np.abs(y_now).max(axis=1) > DIVERGENCE_LIMIT
        if left.any():
            log.diverged_at[rows[left]] = k
            stay = ~left
            rows = rows[stay]
            if rows.size == 0:
                break
            y_hist = [v[stay] for v in y_hist]
            u_hist = [v[stay] for v in u_hist]
            entries, penalty = entries[stay], penalty[stay]
            y_now = y_hist[0]
        at = (rows, k - 1)
        log.y[at] = y_now
        if k == steps:  # the final row holds the last input and the last step's blocks
            log.u[at] = u_hist[0]
            log.delta_u[at] = 0.0
            log.cost[at] = 0.0
            if k > k0:
                log.output_blocks[at] = log.output_blocks[rows, k - 2]
                log.input_blocks[at] = log.input_blocks[rows, k - 2]
            break
        target = _reference_sample(reference, k + 1, dims.My)
        # Linearization point at step k-1.
        args = y_hist[1:1 + n_y] + u_hist[:n_u]
        out_blocks, in_blocks = _padded_blocks(dims, _stacked_first_order_blocks(plant, args))
        _check_finite(out_blocks, in_blocks)
        delta_u, cost = _stacked_solve_step(out_blocks, in_blocks, y_hist, u_hist, y_now, target, entries, penalty)
        u = u_hist[0] + delta_u
        log.u[at] = u
        log.delta_u[at] = delta_u
        log.cost[at] = cost
        for i, block in enumerate(out_blocks):
            log.output_blocks[rows, k - 1, i] = block
        for j, block in enumerate(in_blocks):
            log.input_blocks[rows, k - 1, j] = block
        y_next = plant._checked_batch(y_hist[:n_y] + [u] + u_hist[:dims.nu])
        y_hist = [y_next] + y_hist[:-1]
        u_hist = [u] + u_hist[:-1]
        log.y_ref[k] = target
    return log
