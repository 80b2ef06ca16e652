"""Experiment runner: benchmark reproductions, lambda sweeps, and reports.

Subcommands

    example1   three-controller comparison on the two-by-two bench plant
    example2   straight-line Cartesian traverse tracked by damped least squares
    sweep      lambda grid with analytic and simulated ramp errors on a test loop
    stability  analytic-only lambda grid (characteristic roots and ramp errors)

Each runner returns its exit status and its files, schema-versioned CSV tables
plus SVG line charts drawn from the same rows; main alone writes them, in that
order, under --out, the config's out key, $MFACLAB_OUT, or ./mfaclab-runs, in
that order of preference.  Reruns with the same settings are byte-identical.
Exit codes: 0 success, 2 divergence, 3 bad config or unwritable output.

Config files use a single [experiment] INI section; keys mirror the command
line (id, variant, lambda, steps, tf, t0, start_fraction, goal_fraction,
seed, out) and unknown keys are rejected rather than ignored.
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .analysis import closed_loop_matrix, ramp_static_error, stability_check
from .controller import BoxConstraints, Weighting
from .edlm import PseudoJacobian, RegressorWindow
from .errors import ConfigError, DivergenceError, NonFiniteLoopError
from .kinematics import (
    TaskVector,
    default_arm,
    forward_kinematics,
    ik_solve,
    pose_to_task,
    task_to_pose,
)
from .pathgen import (
    PathSpec,
    euler_to_quat,
    generate_path,
    quat_geodesic,
    quat_to_euler,
)
from .plant import (
    EXAMPLE1_HORIZON,
    SIMLOG_SCHEMA,
    VARIANTS,
    Example1Plant,
    Example1Reference,
    LTIPlant,
    RampReference,
    metrics,
    simulate,
    simulate_batch,
    write_csv,
)

SUMMARY_SCHEMA = "mfaclab.summary.v1"
TRACK_SCHEMA = "mfaclab.track.v1"
SWEEP_SCHEMA = "mfaclab.sweep.v1"
STABILITY_SCHEMA = "mfaclab.stability.v1"
OUT_ENV = "MFACLAB_OUT"
DEFAULT_OUT = "mfaclab-runs"

# 20-point default grid, 0.0 to 0.95.  It does not avoid the stability
# boundary: mimo2 sits on it at lambda = 0.5 (largest root magnitude
# 1 - 3e-16), so that verdict hinges on root rounding and reads unstable
# while the simulated loop stays finite.
LAMBDA_GRID = tuple(round(0.05 * i, 2) for i in range(20))

EXAMPLE1_BOX = ((-0.3, -0.5), (0.1, 0.5))
EXAMPLE2_HOME = (-math.pi / 2, 0.0, 0.0, 0.0, -math.pi / 2, 0.0)
EXAMPLE2_GOAL = (math.pi / 2, 0.0, 0.0, 0.0, math.pi / 2, 0.0)
# The quintic timing laws divide by tf**5, which overflows a double (OverflowError)
# past about 1.2e61 and underflows (ZeroDivisionError, NaN arc lengths) below about 1e-61.
EXAMPLE2_TF_RANGE = (1.0e-60, 1.0e60)
# example2 keeps every path sample and its CSV row in memory, so the sample
# count ceil(tf / t0) + 1 is capped at a hundred times the default 10 001.
EXAMPLE2_MAX_SAMPLES = 1_000_000

# Named LTI test loops for sweep/stability: (output blocks, input blocks).
TEST_LOOPS = {
    "scalar": ([[0.5]], [[1.0]]),
    "unstable-scalar": ([[2.0]], [[1.0]]),
    "mimo2": ([[3.0, 0.2], [0.0, 0.5]], [[1.0, 0.0], [0.0, 1.0]]),
}

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run settings: defaults, then config file, then flags."""

    experiment: str
    variant: str
    lam: float | None
    steps: int
    tf: float
    t0: float
    seed: int
    out: Path
    start_fraction: float
    goal_fraction: float


def _parse_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None


def _load_config_file(path: Path) -> dict[str, str]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    unknown = [s for s in parser.sections() if s != "experiment"]
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    if parser.defaults():
        raise ConfigError("keys outside the [experiment] section are not allowed")
    if "experiment" not in parser:
        return {}
    return dict(parser["experiment"])


def resolve_config(verb: str, args: argparse.Namespace) -> ExperimentConfig:
    experiment = _SUBCOMMANDS[verb].experiment
    allowed = _SUBCOMMANDS[verb].keys

    merged: dict[str, str] = {}
    if args.config is not None:
        merged = _load_config_file(Path(args.config))
        unknown = sorted(set(merged) - allowed)
        if unknown:
            raise ConfigError(f"unknown config key(s) for {experiment}: {', '.join(unknown)}")
    if "id" in merged and merged["id"] != experiment:
        raise ConfigError(f"config id {merged['id']!r} does not match subcommand {verb!r}")

    if args.steps is not None:
        if "steps" not in allowed:
            raise ConfigError(f"{verb} does not take --steps")
        merged["steps"] = str(args.steps)
    if args.lam is not None:
        if "lambda" not in allowed:
            raise ConfigError(f"{verb} does not take --lambda")
        merged["lambda"] = repr(args.lam)
    if args.out is not None:
        merged["out"] = args.out

    if experiment == "example1":
        variant = merged.get("variant", "all")
        if variant not in ("all",) + VARIANTS:
            raise ConfigError(f"unknown example1 variant {variant!r}")
    elif experiment in ("lambda-sweep", "stability"):
        variant = merged.get("variant", "scalar")
        if variant not in TEST_LOOPS:
            raise ConfigError(
                f"unknown test loop {variant!r}, expected one of {sorted(TEST_LOOPS)}"
            )
    else:
        variant = ""

    lam: float | None = None
    if "lambda" in merged:
        lam = _parse_float(merged["lambda"], "lambda")
        if lam < 0:
            raise ConfigError(f"lambda must be nonnegative, got {lam}")
    elif experiment == "example1":
        lam = 0.2

    steps = _parse_int(merged["steps"], "steps") if "steps" in merged else (
        EXAMPLE1_HORIZON if experiment == "example1" else 5000
    )
    if experiment == "example1" and not 3 <= steps <= EXAMPLE1_HORIZON:
        raise ConfigError(
            f"example1 needs 3 <= steps <= {EXAMPLE1_HORIZON}: its pinned warm-up rows and its reference's samples"
        )
    if experiment == "lambda-sweep" and steps < 2:
        raise ConfigError("sweep needs steps >= 2")

    tf = _parse_float(merged.get("tf", "10.0"), "tf")
    t0 = _parse_float(merged.get("t0", "0.001"), "t0")
    if tf <= 0 or t0 <= 0 or t0 > tf:
        raise ConfigError(f"need 0 < t0 <= tf, got t0={t0}, tf={tf}")
    if not EXAMPLE2_TF_RANGE[0] <= tf <= EXAMPLE2_TF_RANGE[1]:
        raise ConfigError(f"need {EXAMPLE2_TF_RANGE[0]:g} <= tf <= {EXAMPLE2_TF_RANGE[1]:g}, got tf={tf}")
    if tf / t0 > EXAMPLE2_MAX_SAMPLES - 1:
        raise ConfigError(f"tf / t0 = {tf / t0:g} gives more than {EXAMPLE2_MAX_SAMPLES} path samples")
    start_fraction = _parse_float(merged.get("start_fraction", "0.0"), "start_fraction")
    goal_fraction = _parse_float(merged.get("goal_fraction", "1.0"), "goal_fraction")
    if not 0.0 <= start_fraction < goal_fraction <= 1.0:
        raise ConfigError(
            f"need 0 <= start_fraction < goal_fraction <= 1, "
            f"got {start_fraction} and {goal_fraction}"
        )
    seed = _parse_int(merged.get("seed", "0"), "seed")
    out = Path(merged.get("out") or os.environ.get(OUT_ENV) or DEFAULT_OUT)

    return ExperimentConfig(
        experiment=experiment,
        variant=variant,
        lam=lam,
        steps=steps,
        tf=tf,
        t0=t0,
        seed=seed,
        out=out,
        start_fraction=start_fraction,
        goal_fraction=goal_fraction,
    )


# --- CSV and SVG emission ---------------------------------------------------


class Table(NamedTuple):
    """A CSV file of a run: written by plant.write_csv under its schema line."""

    name: str
    schema: str
    header: Sequence[str]
    rows: Sequence[Sequence]

    def columns(self) -> dict[str, list[float]]:
        """Float columns of the table as written; every cell round-trips, so a
        chart drawn from these matches one drawn from the file."""
        return {name: [float(row[i]) for row in self.rows] for i, name in enumerate(self.header)}


class Chart(NamedTuple):
    """An SVG line chart of a run; each series is (label, xs, ys)."""

    name: str
    title: str
    x_label: str
    y_label: str
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]]


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """An axis range of nonzero width: a single value is padded by max(0.5, 10% of it) each side."""
    pad = max(0.5, abs(hi) * 0.1)
    return (lo, hi) if hi != lo else (lo - pad, hi + pad)


def _svg_chart(
    title: str,
    x_label: str,
    y_label: str,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
) -> str:
    width, height = 760, 440
    left, right, top, bottom = 64.0, 180.0, 42.0, 52.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    points = [(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)) for _, xs, ys in series]
    finite = [np.isfinite(xs) & np.isfinite(ys) for xs, ys in points]
    # Python's min and max over the values in series order, so a tie of 0.0 and -0.0 keeps the first.
    fx = [v for (xs, _), ok in zip(points, finite) for v in xs[ok].tolist()]
    fy = [v for (_, ys), ok in zip(points, finite) for v in ys[ok].tolist()]
    xmin, xmax = _widened(min(fx), max(fx)) if fx else (0.0, 1.0)
    ymin, ymax = _widened(min(fy), max(fy)) if fy else (0.0, 1.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{left:.0f}" y="24" font-family="sans-serif" font-size="15" '
        f'font-weight="bold">{_esc(title)}</text>',
    ]
    for i in range(5):
        gx = left + plot_w * i / 4
        gy = top + plot_h * i / 4
        xv = xmin + (xmax - xmin) * i / 4
        yv = ymax - (ymax - ymin) * i / 4
        parts.append(
            f'<line x1="{gx:.2f}" y1="{top:.2f}" x2="{gx:.2f}" y2="{top + plot_h:.2f}" '
            'stroke="#dddddd"/>'
        )
        parts.append(
            f'<line x1="{left:.2f}" y1="{gy:.2f}" x2="{left + plot_w:.2f}" y2="{gy:.2f}" '
            'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{gx:.2f}" y="{top + plot_h + 18:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{xv:.5g}</text>'
        )
        parts.append(
            f'<text x="{left - 8:.2f}" y="{gy + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{yv:.5g}</text>'
        )
    parts.append(
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        'fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 12}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">{_esc(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.2f}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 18 {top + plot_h / 2:.2f})">'
        f"{_esc(y_label)}</text>"
    )

    for idx, ((label, _, _), (xs, ys), ok) in enumerate(zip(series, points, finite)):
        color = _PALETTE[idx % len(_PALETTE)]
        with np.errstate(over="ignore", invalid="ignore"):  # the IEEE operations, and silence, of Python floats
            px = (left + (xs[ok] - xmin) / (xmax - xmin) * plot_w).tolist()
            py = (top + (ymax - ys[ok]) / (ymax - ymin) * plot_h).tolist()
        pixels = [f"{x:.2f},{y:.2f}" for x, y in zip(px, py)]
        gaps = np.cumsum(~ok)[ok]  # runs of finite points; a non-finite point ends a run
        cuts = [0, *(np.flatnonzero(np.diff(gaps)) + 1).tolist(), len(pixels)]
        for seg in (pixels[a:b] for a, b in zip(cuts, cuts[1:]) if b > a):
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            else:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" stroke="{color}" '
                    'stroke-width="1.4"/>'
                )
        lx = left + plot_w + 14
        ly = top + 10 + 16 * idx
        parts.append(
            f'<line x1="{lx:.2f}" y1="{ly:.2f}" x2="{lx + 18:.2f}" y2="{ly:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 24:.2f}" y="{ly + 4:.2f}" font-family="sans-serif" '
            f'font-size="11">{_esc(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- runners -----------------------------------------------------------------


def run_example1(cfg: ExperimentConfig) -> tuple[int, list[Table | Chart]]:
    plant = Example1Plant()
    dims = plant.dims
    reference = Example1Reference()
    w = Weighting.uniform(cfg.lam, dims.My)
    seed_pjm = PseudoJacobian.constant(0.01, dims)
    box = BoxConstraints(lower=EXAMPLE1_BOX[0], upper=EXAMPLE1_BOX[1])
    init = RegressorWindow(
        dims=dims,
        k=3,
        y_history=[np.zeros(dims.My)] * 3,
        u_history=[np.zeros(dims.Mu)] * 2,
    )
    variants = VARIANTS if cfg.variant == "all" else (cfg.variant,)
    cutoff = max(1, cfg.steps // 8)

    status = 0
    summary_rows = []
    files: list[Table | Chart] = []
    for variant in variants:
        diverged_at = 0
        try:
            log = simulate(
                plant,
                variant,
                reference,
                steps=cfg.steps,
                init=init,
                w=w,
                box=box if variant == "constrained" else None,
                pjm_seed=seed_pjm,
            )
        except DivergenceError as exc:
            log = exc.log
            diverged_at = exc.step
            status = 2
            print(f"example1 {variant}: diverged at step {exc.step}", file=sys.stderr)
        files.append(Table(f"example1_{variant}.csv", SIMLOG_SCHEMA, log.csv_header(), log.csv_rows()))
        if diverged_at:
            rmse = max_err = (math.nan, math.nan)
        else:
            report = metrics(log, transient_cutoff=cutoff)
            rmse, max_err = report.rmse, report.max_abs_error
        summary_rows.append(
            [variant, cfg.steps, cfg.lam, cfg.seed, *rmse, *max_err,
             log.violations(), diverged_at]
        )

    variant_cols = [table.columns() for table in files]  # the variants' logs, in run order
    files.append(Table(
        "example1_summary.csv",
        SUMMARY_SCHEMA,
        ["variant", "steps", "lambda", "seed", "rmse1", "rmse2",
         "max_err1", "max_err2", "violations", "diverged_at"],
        summary_rows,
    ))

    first_cols = variant_cols[0]
    out_series = [
        ("yref1", first_cols["k"], first_cols["yref1"]),
        ("yref2", first_cols["k"], first_cols["yref2"]),
    ]
    in_series = []
    for variant, cols in zip(variants, variant_cols):
        out_series.append((f"y1 {variant}", cols["k"], cols["y1"]))
        out_series.append((f"y2 {variant}", cols["k"], cols["y2"]))
        in_series.append((f"u1 {variant}", cols["k"], cols["u1"]))
        in_series.append((f"u2 {variant}", cols["k"], cols["u2"]))
    pjm_names = ("Phi1[0,0]", "Phi1[1,1]", "Phi2[0,0]", "Phi2[1,1]", "Phi3[0,0]", "Phi3[1,1]")
    pjm_series = [(name, first_cols["k"], first_cols[name]) for name in pjm_names]
    files += [
        Chart("example1_outputs.svg", "Bench outputs vs reference", "k", "y", out_series),
        Chart("example1_inputs.svg", "Bench inputs", "k", "u", in_series),
        Chart("example1_pjm.svg", f"Linearization diagonal entries ({variants[0]})", "k", "value", pjm_series),
    ]
    return status, files


def _blend_task(a: TaskVector, b: TaskVector, fraction: float) -> TaskVector:
    """Point at `fraction` along the straight-line/geodesic arc from a to b."""
    pos = a.position + fraction * (b.position - a.position)
    qk = quat_geodesic(euler_to_quat(*a.angles), euler_to_quat(*b.angles), fraction)
    alpha, beta, gamma = quat_to_euler(qk)
    return TaskVector(
        x=float(pos[0]), y=float(pos[1]), z=float(pos[2]),
        alpha=alpha, beta=beta, gamma=gamma,
    )


def run_example2(cfg: ExperimentConfig) -> tuple[int, list[Table | Chart]]:
    chain = default_arm()
    q = np.array(EXAMPLE2_HOME)
    frame_a = pose_to_task(forward_kinematics(chain, q))
    frame_c = pose_to_task(forward_kinematics(chain, np.array(EXAMPLE2_GOAL)))
    start, goal = frame_a, frame_c
    if cfg.start_fraction > 0.0 or cfg.goal_fraction < 1.0:
        start = _blend_task(frame_a, frame_c, cfg.start_fraction)
        goal = _blend_task(frame_a, frame_c, cfg.goal_fraction)

    path = generate_path(PathSpec(start=start, goal=goal, tf=cfg.tf, T0=cfg.t0))

    header = (
        ["t", "x", "y", "z", "alpha", "beta", "gamma",
         "xref", "yref", "zref", "alpharef", "betaref", "gammaref",
         "pos_err", "ori_err"]
        + [f"q{i + 1}" for i in range(chain.joint_count)]
        + [f"J[{r},{c}]" for r in range(6) for c in range(chain.joint_count)]
        + ["cond", "lambda", "iters", "converged"]
    )
    rows = []
    for t, target in zip(path.times, path.samples):
        result = ik_solve(chain, q, task_to_pose(target))
        q, jac = result.q, result.jacobian
        actual = pose_to_task(result.pose)
        lam_used = max(result.lambda_trace) if result.lambda_trace else 0.0
        rows.append(
            [t, *actual.as_array(), *target.as_array(),
             result.position_error, result.orientation_error,
             *q.tolist(), *jac.ravel().tolist(),
             result.max_condition, lam_used, result.iterations, int(result.converged)]
        )

    track = Table("example2_tracking.csv", TRACK_SCHEMA, header, rows)
    cols = track.columns()
    ts = cols["t"]
    # Maxima from zero in row order: a tie keeps the earlier value, and a NaN is skipped.
    max_pos, max_ori, max_iters, max_cond = (
        max([0.0, *cols[name]]) for name in ("pos_err", "ori_err", "iters", "cond"))
    cap_hits = cols["converged"].count(0)
    log_cond = [math.log10(c) if math.isfinite(c) and c > 0 else math.nan
                for c in cols["cond"]]
    return 0, [
        track,
        Table(
            "example2_summary.csv",
            SUMMARY_SCHEMA,
            ["samples", "tf", "t0", "seed", "start_fraction", "goal_fraction",
             "max_pos_err", "max_ori_err", "max_iterations", "max_condition",
             "all_converged", "cap_hits"],
            [[len(rows), cfg.tf, cfg.t0, cfg.seed, cfg.start_fraction, cfg.goal_fraction,
              max_pos, max_ori, int(max_iters), max_cond, int(cap_hits == 0), cap_hits]],
        ),
        Chart("example2_pose.svg", "Tool position vs reference", "t (s)", "mm",
              [("x", ts, cols["x"]), ("y", ts, cols["y"]), ("z", ts, cols["z"]),
               ("xref", ts, cols["xref"]), ("yref", ts, cols["yref"]), ("zref", ts, cols["zref"])]),
        Chart("example2_errors.svg", "Tracking errors", "t (s)", "error",
              [("position (mm)", ts, cols["pos_err"]), ("orientation (rad)", ts, cols["ori_err"])]),
        Chart("example2_joints.svg", "Joint angles", "t (s)", "rad",
              [(f"q{i + 1}", ts, cols[f"q{i + 1}"]) for i in range(chain.joint_count)]),
        Chart("example2_condition.svg", "Jacobian conditioning", "t (s)", "log10 cond",
              [("log10 cond", ts, log_cond)]),
        Chart("example2_solver.svg", "Solver effort", "t (s)", "count / scaled weight",
              [("iterations", ts, cols["iters"]),
               ("100 x lambda", ts, [100.0 * v for v in cols["lambda"]])]),
    ]


def _test_loop(name: str) -> tuple[LTIPlant, PseudoJacobian]:
    a_blocks, b_blocks = TEST_LOOPS[name]
    plant = LTIPlant(a_blocks=[a_blocks], b_blocks=[b_blocks])
    pjm = PseudoJacobian(
        output_blocks=[np.asarray(a_blocks, dtype=float)],
        input_blocks=[np.asarray(b_blocks, dtype=float)],
    )
    return plant, pjm


def _analytic_grid(
    cfg: ExperimentConfig, pjm: PseudoJacobian
) -> Iterator[tuple[float, Weighting, bool, float, np.ndarray]]:
    """Per lambda of the run's grid: lambda, its weighting, the frozen loop's
    verdict, its largest root radius, and its ramp error (NaN when unstable)."""
    for lam in LAMBDA_GRID if cfg.lam is None else (cfg.lam,):
        w = Weighting.uniform(lam, pjm.My)
        try:
            report = stability_check(closed_loop_matrix(pjm, w))
        except NonFiniteLoopError as exc:
            raise ConfigError(f"lambda {lam!r} is too large for the {cfg.variant} loop: {exc}") from None
        max_root = max((abs(r) for r in report.characteristic_roots), default=0.0)
        if report.stable:
            ess = ramp_static_error(pjm, w, Ts=1.0)
        else:
            ess = np.full(pjm.My, math.nan)
        yield lam, w, report.stable, max_root, ess


def run_lambda_sweep(cfg: ExperimentConfig) -> tuple[int, list[Table | Chart]]:
    plant, pjm = _test_loop(cfg.variant)
    size = pjm.My
    reference = RampReference(size, Ts=1.0)
    init = RegressorWindow(
        dims=plant.dims, k=1,
        y_history=[np.zeros(size)], u_history=[np.zeros(size)],
    )
    grid = list(_analytic_grid(cfg, pjm))
    # One batched simulation for the whole grid; only each log's last record is read.
    logs = simulate_batch(plant, reference, cfg.steps, init, [w for _, w, *_ in grid])
    rows = []
    for (lam, _, stable, max_root, analytic), log in zip(grid, logs):
        if log.diverged_at:
            simulated = np.full(size, math.nan)
        else:
            simulated = log.y_ref[-1] - log.y[-1]
        rows.append([lam, int(stable), max_root, *simulated, *analytic])

    header = (
        ["lambda", "stable", "max_root"]
        + [f"ess_sim{i + 1}" for i in range(size)]
        + [f"ess_analytic{i + 1}" for i in range(size)]
    )
    table = Table(f"sweep_{cfg.variant}.csv", SWEEP_SCHEMA, header, rows)
    cols = table.columns()
    series = []
    for i in range(size):
        series.append((f"simulated {i + 1}", cols["lambda"], cols[f"ess_sim{i + 1}"]))
        series.append((f"analytic {i + 1}", cols["lambda"], cols[f"ess_analytic{i + 1}"]))
    title = f"Ramp steady-state error vs lambda ({cfg.variant})"
    return 0, [table, Chart(f"sweep_{cfg.variant}.svg", title, "lambda", "error", series)]


def run_stability(cfg: ExperimentConfig) -> tuple[int, list[Table | Chart]]:
    _, pjm = _test_loop(cfg.variant)
    size = pjm.My
    rows = [[lam, max_root, int(stable), *ess]
            for lam, _, stable, max_root, ess in _analytic_grid(cfg, pjm)]

    header = ["lambda", "max_root", "stable"] + [f"ess{i + 1}" for i in range(size)]
    table = Table(f"stability_{cfg.variant}.csv", STABILITY_SCHEMA, header, rows)
    cols = table.columns()
    grid = cols["lambda"]
    series = [
        ("max_root", grid, cols["max_root"]),
        ("unit circle", [grid[0], grid[-1]], [1.0, 1.0]),
    ]
    for i in range(size):
        series.append((f"ramp ess {i + 1}", grid, cols[f"ess{i + 1}"]))
    title = f"Characteristic root radius vs lambda ({cfg.variant})"
    return 0, [table, Chart(f"stability_{cfg.variant}.svg", title, "lambda", "radius / error", series)]


# --- entry point --------------------------------------------------------------


@dataclass(frozen=True)
class _Subcommand:
    experiment: str  # the config file's id
    help: str
    keys: frozenset[str]  # config keys it accepts
    run: Callable[[ExperimentConfig], tuple[int, list[Table | Chart]]]


_COMMON_KEYS = frozenset({"id", "out", "seed"})
_SUBCOMMANDS = {
    "example1": _Subcommand(
        "example1", "three-controller comparison on the bench plant",
        _COMMON_KEYS | {"variant", "lambda", "steps"}, run_example1,
    ),
    "example2": _Subcommand(
        "example2", "Cartesian traverse tracked by damped least squares",
        _COMMON_KEYS | {"tf", "t0", "start_fraction", "goal_fraction"}, run_example2,
    ),
    "sweep": _Subcommand(
        "lambda-sweep", "lambda grid with analytic and simulated ramp errors",
        _COMMON_KEYS | {"variant", "lambda", "steps"}, run_lambda_sweep,
    ),
    "stability": _Subcommand(
        "stability", "analytic-only lambda grid",
        _COMMON_KEYS | {"variant", "lambda"}, run_stability,
    ),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors surface as ConfigError so exit codes stay unambiguous."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mfaclab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)
    for verb, subcommand in _SUBCOMMANDS.items():
        sp = sub.add_parser(verb, help=subcommand.help)
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="INI file with an [experiment] section")
        sp.add_argument("--out", default=None, metavar="DIR",
                        help=f"output directory (default ${OUT_ENV} or ./{DEFAULT_OUT})")
        sp.add_argument("--steps", type=int, default=None,
                        help="simulation horizon override")
        sp.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="weighting override, or single-point grid for sweeps")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args.verb, args)
        status, files = _SUBCOMMANDS[args.verb].run(cfg)
        try:
            cfg.out.mkdir(parents=True, exist_ok=True)
            for file in files:
                if isinstance(file, Table):
                    with (cfg.out / file.name).open("w", newline="") as fh:
                        write_csv(fh, file.schema, file.header, file.rows)
                else:
                    (cfg.out / file.name).write_text(
                        _svg_chart(file.title, file.x_label, file.y_label, file.series))
        except OSError as exc:
            raise ConfigError(f"cannot write to {cfg.out}: {exc}") from None
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
