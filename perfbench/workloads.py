"""The four benchmark workloads: inputs, one timed pass, and output checks.

Each workload has three steps.  ``build`` makes the inputs from the seed; it
is the set-up that ``setup_s`` times.  ``run`` is one timed pass, the work a
user waits for.  ``check`` reads what the pass produced, counts operations
and failures, and digests the outputs so that repeated passes can be
compared byte for byte.  The program is reached only through module
attributes (``cli.main``, ``analysis.stability_check``, ...), so the
wrappers in ``tracing.py`` see every call.
"""
from __future__ import annotations

import csv
import hashlib
import importlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mfaclab import analysis, controller, edlm, errors

import reference

# A loop or grid point whose spectral radius lies within this distance of 1
# is marginal and counts neither as passing nor as failing.  On the circle
# the verdict is a question of root rounding; just inside it a real pole
# near z = 1 makes T(1) nearly singular, and the step error, zero in exact
# arithmetic, grows like eps / (1 - rho) (3.7e-10 at rho = 1 - 4.8e-6).
MARGINAL_BAND = 1.0e-3


@dataclass
class Outcome:
    """What one pass did, read back from its outputs."""

    ops: int  # operations completed; the numerator of ops_per_s
    attempted: int  # operations judged by the checks (marginal ones excluded)
    failed: int  # operations whose output failed a check, or that were lost
    solver_failed: int  # the fail_ratio numerator: cap-outs, non-convergence, losses
    marginal: int = 0
    loops: int = 0  # frozen loops or grid points that got a stability verdict
    digest: str = ""
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _digest_dir(out: Path) -> tuple[str, int]:
    """SHA-256 over every output file (name and bytes), plus the total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def _write_config(path: Path, **keys) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


def _cli():
    return importlib.import_module("mfaclab.cli")


class Example1:
    """The paper's bench experiment: three control laws on the nonlinear plant."""

    # CLI defaults: all variants, 800 steps, lambda 0.2; the reference is
    # defined only for k <= 800.  The init window makes k = 3 the first
    # controlled step, and the last row carries no control decision.
    STEPS = 800
    FIRST_STEP = 3
    VARIANTS = ("first_order", "quartic", "constrained")
    # Criterion-4 baselines for the smooth segment 100 < k <= 400.
    BASELINES = {
        "first_order": (0.020, 0.026),
        "quartic": (0.019, 0.024),
        "constrained": (0.28, 0.27),
    }

    def build(self, seed: int, workdir: Path) -> dict:
        _cli()
        return {"config": _write_config(workdir / "example1.ini", seed=seed)}

    def run(self, inputs: dict, out: Path) -> int:
        return _cli().main(["example1", "--config", str(inputs["config"]), "--out", str(out)])

    def check(self, inputs: dict, out: Path, status: int) -> Outcome:
        per_variant = self.STEPS - self.FIRST_STEP
        o = Outcome(ops=0, attempted=per_variant * len(self.VARIANTS), failed=0, solver_failed=0)
        if status != 0:
            o.problems.append(f"example1 exited with status {status}")
        caps = {"quartic": controller.QUARTIC_MAX_PASSES, "constrained": controller.SWEEP_MAX}
        summary = {row["variant"]: row for row in _read_csv(out / "example1_summary.csv")}
        for variant in self.VARIANTS:
            rows = _read_csv(out / f"example1_{variant}.csv")
            steps = [r for r in rows if self.FIRST_STEP <= int(r["k"]) < self.STEPS]
            lost = per_variant - len(steps)
            capouts = sum(1 for r in steps if variant in caps and int(r["iters"]) >= caps[variant])
            violations = int(summary[variant]["violations"])
            o.ops += len(steps)
            o.failed += lost + violations
            o.solver_failed += lost + capouts
            if int(summary[variant]["diverged_at"]) != 0:
                o.problems.append(f"{variant} diverged at step {summary[variant]['diverged_at']}")
            if violations:
                o.problems.append(f"{variant}: {violations} box violations")
            smooth = [r for r in rows if 100 < int(r["k"]) <= 400]
            for i, limit in enumerate(self.BASELINES[variant], start=1):
                worst = max((abs(float(r[f"yref{i}"]) - float(r[f"y{i}"])) for r in smooth), default=math.inf)
                if not worst < limit:
                    o.problems.append(f"{variant}: smooth-segment max error y{i} {worst:.4f} >= {limit}")
        o.digest, o.bytes_written = _digest_dir(out)
        return o


class Example2:
    """Full home-to-goal traverse through both singular frames, tracked by damped IK."""

    # 251 path samples, about 2.5 s a pass, so a run holds enough passes for
    # a steady median; 43% of them hit the IK cap, the share at the 1 ms CLI
    # default (10 001 samples, about 2 minutes).
    T0 = 0.04
    # Criterion-5 limits.
    POSITION_LIMIT = 2.0  # mm
    ORIENTATION_LIMIT = 1.0e-2  # rad
    ITERATION_LIMIT = 30
    LAMBDAS = {0.0, 0.05, 0.1}
    ILL_CONDITIONED = 20000.0
    MIN_INTERVALS = 2

    def build(self, seed: int, workdir: Path) -> dict:
        _cli()
        return {"config": _write_config(workdir / "example2.ini", t0=self.T0, seed=seed)}

    def run(self, inputs: dict, out: Path) -> int:
        return _cli().main(["example2", "--config", str(inputs["config"]), "--out", str(out)])

    def check(self, inputs: dict, out: Path, status: int) -> Outcome:
        rows = _read_csv(out / "example2_tracking.csv")
        o = Outcome(ops=len(rows), attempted=len(rows), failed=0, solver_failed=0)
        if status != 0:
            o.problems.append(f"example2 exited with status {status}")
        expected = math.ceil(10.0 / self.T0) + 1
        if len(rows) != expected:
            o.problems.append(f"{len(rows)} path samples, expected {expected}")
        intervals = 0
        was_ill = False
        for r in rows:
            ok = (
                float(r["pos_err"]) <= self.POSITION_LIMIT
                and float(r["ori_err"]) <= self.ORIENTATION_LIMIT
                and int(r["iters"]) <= self.ITERATION_LIMIT
                and float(r["lambda"]) in self.LAMBDAS
            )
            o.failed += not ok
            o.solver_failed += int(r["converged"]) == 0
            ill = float(r["cond"]) > self.ILL_CONDITIONED
            intervals += ill and not was_ill
            was_ill = ill
        if o.failed:
            o.problems.append(f"{o.failed} samples outside the criterion-5 limits")
        if intervals < self.MIN_INTERVALS:
            o.problems.append(f"{intervals} ill-conditioned intervals, need >= {self.MIN_INTERVALS}")
        o.digest, o.bytes_written = _digest_dir(out)
        return o


class Sweep:
    """The CLI lambda sweep on each bundled test loop, on the default 20-point grid."""

    LOOPS = ("scalar", "unstable-scalar", "mimo2")
    # Long enough for the slowest stable point (rho 0.965) to settle and for
    # the least unstable one (rho 1.03) to pass the divergence limit.
    STEPS = 600
    RELATIVE_TOL = 0.01
    ABSOLUTE_TOL = 1.0e-6  # for the lambda = 0 points, whose analytic error is 0

    def build(self, seed: int, workdir: Path) -> dict:
        _cli()
        return {
            loop: _write_config(workdir / f"sweep_{loop}.ini", variant=loop, steps=self.STEPS, seed=seed)
            for loop in self.LOOPS
        }

    def run(self, inputs: dict, out: Path) -> list[int]:
        cli = _cli()
        return [cli.main(["sweep", "--config", str(inputs[loop]), "--out", str(out)]) for loop in self.LOOPS]

    def check(self, inputs: dict, out: Path, statuses: list[int]) -> Outcome:
        o = Outcome(ops=0, attempted=0, failed=0, solver_failed=0)
        for loop, status in zip(self.LOOPS, statuses):
            if status != 0:
                o.problems.append(f"sweep {loop} exited with status {status}")
            for r in _read_csv(out / f"sweep_{loop}.csv"):
                o.ops += 1
                o.loops += 1
                if abs(float(r["max_root"]) - 1.0) <= MARGINAL_BAND:
                    o.marginal += 1
                    continue
                o.attempted += 1
                sim = [float(v) for k, v in r.items() if k.startswith("ess_sim")]
                ana = [float(v) for k, v in r.items() if k.startswith("ess_analytic")]
                if r["stable"] == "1":
                    agree = all(
                        math.isfinite(s) and abs(s - a) <= self.RELATIVE_TOL * abs(a) + self.ABSOLUTE_TOL
                        for s, a in zip(sim, ana)
                    )
                else:
                    agree = not any(math.isfinite(s) for s in sim)
                if not agree:
                    o.failed += 1
                    o.problems.append(f"sweep {loop} at lambda {r['lambda']}: verdict and simulation disagree")
        o.solver_failed = o.failed
        o.digest, o.bytes_written = _digest_dir(out)
        return o


class Stability:
    """A seeded population of random frozen loops through the analysis layer."""

    # Every (My, Ly, Lu) class of the ROADMAP prototype, PER_CLASS loops each.
    SHAPES = tuple((My, Ly, Lu) for My in (1, 2, 3) for Ly in (0, 1, 2) for Lu in (1, 2))
    PER_CLASS = 60
    OUTPUT_SCALE = 0.5  # standard deviation of the output-block entries
    STEP_ERROR_LIMIT = 1.0e-10
    DOCUMENTED = (errors.DegenerateLoopError, errors.SingularMatrixError, errors.UnstableLoopError)

    def build(self, seed: int, workdir: Path) -> list[tuple]:
        """PER_CLASS (pseudo-Jacobian, weighting) pairs of each shape class."""
        rng = np.random.default_rng(seed)
        loops = []
        for My, Ly, Lu in self.SHAPES:
            for _ in range(self.PER_CLASS):
                out_blocks = rng.normal(0.0, self.OUTPUT_SCALE, (Ly, My, My))
                in_blocks = rng.normal(0.0, 1.0, (Lu, My, My))
                weights = rng.uniform(0.0, 1.0, My)
                loops.append((edlm.PseudoJacobian(tuple(out_blocks), tuple(in_blocks)),
                              controller.Weighting(weights)))
        return loops

    def run(self, loops: list[tuple], out: Path) -> list[tuple]:
        results = []
        for pjm, w in loops:
            try:
                report = analysis.stability_check(analysis.closed_loop_matrix(pjm, w))
                radius = max((abs(r) for r in report.characteristic_roots), default=0.0)
                ramp = step = ()
                if report.stable:
                    ramp = tuple(analysis.ramp_static_error(pjm, w, Ts=1.0))
                    step = tuple(analysis.step_static_error(pjm, w))
                results.append((report.stable, radius, ramp, step))
            except self.DOCUMENTED as exc:
                results.append((type(exc).__name__,))
        return results

    def check(self, loops: list[tuple], out: Path, results: list[tuple]) -> Outcome:
        o = Outcome(ops=len(loops), attempted=0, failed=0, solver_failed=0, loops=len(loops))
        for i, ((pjm, w), result) in enumerate(zip(loops, results)):
            rho = reference.spectral_radius(pjm.output_blocks, pjm.input_blocks, w.entries)
            if abs(rho - 1.0) <= MARGINAL_BAND:
                o.marginal += 1
                continue
            o.attempted += 1
            ref_stable = rho < 1.0
            if isinstance(result[0], str):
                bad = ref_stable
                why = f"raised {result[0]}"
            else:
                stable, _, _, step = result
                bad = stable != ref_stable or (stable and max(abs(v) for v in step) > self.STEP_ERROR_LIMIT)
                why = f"verdict {stable}, reference radius {rho!r}, step error {step}"
            if bad:
                o.failed += 1
                o.problems.append(f"loop {i}: {why}")
        o.solver_failed = o.failed
        o.digest = hashlib.sha256(repr(results).encode()).hexdigest()
        return o


WORKLOADS = {
    "example1": Example1(),
    "example2": Example2(),
    "sweep": Sweep(),
    "stability": Stability(),
}
