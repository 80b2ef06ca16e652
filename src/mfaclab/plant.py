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
)
from .edlm import (
    DifferentiableModel,
    Dimensions,
    PseudoJacobian,
    RegressorWindow,
    _check_finite,
    _check_orders,
    _first_order_blocks,
    _padded_blocks,
    pjm_csv_header,
    pjm_csv_values,
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
             *map(float, r.delta_u), float(r.cost), r.iterations, *pjm_csv_values(r.pjm)]
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
    finiteness of the step's pseudo-Jacobian blocks (ValueError otherwise).
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
                step = _quartic_step(plant, args, y_hist, u_hist, y_now, target, entries, penalty)
            else:
                blocks = _padded_blocks(dims, _first_order_blocks(plant, args))
                if controller_variant == "constrained":
                    step = _box_step(*blocks, y_hist, u_hist, y_now, target, entries, penalty, box)
                else:
                    step = _solve_step(*blocks, y_hist, u_hist, y_now, target, entries, penalty)
            _check_finite(step.output_blocks, step.input_blocks)
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
